"""Witt decomposition of symmetric bilinear forms, over F_p and over Q."""

from ortholag import GF, QQ, GramSpace, isometry_check, witt_decompose

F5 = GF(5)


def show(space, title):
    wd = witt_decompose(space)
    print(title)
    print("  witt index:", wd.witt_index,
          " anisotropic dim:", wd.anisotropic_part.dim)
    print("  hyperbolic pairs:", wd.hyperbolic_pairs)
    print("  block gram:")
    for row in wd.block_gram.entries:
        print("   ", [x.value for x in row])
    ok = isometry_check(space, GramSpace(space.field, wd.block_gram),
                        wd.change_of_basis)
    print("  change of basis verified:", ok)
    print()
    return wd


# a dense symmetric matrix over F_5; the decomposition finds hyperbolic
# planes one at a time and certifies the change of basis
show(GramSpace(F5, [[2, 1, 0, 3],
                    [1, 3, 1, 0],
                    [0, 1, 4, 1],
                    [3, 0, 1, 1]]), "random-looking form over F_5")

# over F_p the anisotropic kernel has dimension at most 2
show(GramSpace(GF(3), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
     "sum of three squares over F_3")

# over Q, x^2 - 4 y^2 vanishes on (2, 1); definite forms never split
show(GramSpace(QQ, [[1, 0], [0, -4]]), "x^2 - 4 y^2 over Q")
show(GramSpace(QQ, [[1, 0], [0, 1]]), "x^2 + y^2 over Q")

# a binary form is decided exactly: d1 x^2 + d2 y^2 has a rational zero
# iff -d1 d2 is a square, and 2 is not one, so x^2 - 2 y^2 is anisotropic
show(GramSpace(QQ, [[1, 0], [0, -2]]), "x^2 - 2 y^2 over Q")

# in three or more variables the rational zero is found by a height
# search that solves the last coordinate exactly; x^2 + y^2 - 1009 z^2
# first vanishes at height 28, on (28, 15, 1) up to signs, since
# 1009 = 28^2 + 15^2
wd = show(GramSpace(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, -1009]]),
          "x^2 + y^2 - 1009 z^2 over Q")
print("x^2 + y^2 - 1009 z^2 over Q, isotropic vector of height 28:",
      [int(x.value) for x in wd.basis_rows[0]])

# x^2 + y^2 - 3 z^2 has no rational zero, so the search runs out of its
# default height bound of 50 and says so instead of guessing
from ortholag import IsotropicSearchExhausted

try:
    witt_decompose(GramSpace(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, -3]]))
except IsotropicSearchExhausted as exc:
    print("x^2 + y^2 - 3 z^2 over Q:", exc)
