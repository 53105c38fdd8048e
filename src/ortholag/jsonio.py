"""JSON encoding and decoding of the package's value types.

Wire conventions: a field context is {"type": "Q"} or {"type": "Fp", "p": 5};
scalars are JSON numbers or decimal strings for integers and "a/b" strings
for non-integral rationals; a subspace is {"ambient": d, "basis": [[...]]};
a Gram space is {"field": {...}, "gram": [[...]]}.

Each function imports the layers it needs when it runs, so
stratum_row_to_json, rational_to_json and _fraction load no numeric layer.
"""

from fractions import Fraction

from .errors import MalformedInput, UnsupportedContext


def _fraction(text):
    """Fraction(text), with unreadable text raised as MalformedInput."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(str(exc)) from exc


def _get(obj, key):
    """obj[key], with a missing key or a non-object raised as MalformedInput."""
    if not isinstance(obj, dict):
        raise MalformedInput(f"expected a JSON object, got {obj!r}")
    try:
        return obj[key]
    except KeyError as exc:
        raise MalformedInput(str(exc)) from exc


def _rows(obj, key):
    """obj[key] as a list of rows, anything else raised as MalformedInput."""
    rows = _get(obj, key)
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise MalformedInput(f"{key} must be a list of rows, got {rows!r}")
    return rows


def field_to_json(field):
    from .fields import Field
    if not isinstance(field, Field):
        raise UnsupportedContext(f"unknown field {field!r}")
    return {"type": "Fp", "p": field.p} if field.p else {"type": "Q"}


def field_from_json(obj):
    from .fields import GF, QQ
    kind = obj.get("type") if isinstance(obj, dict) else None
    if kind == "Q":
        return QQ
    if kind == "Fp":
        p = _get(obj, "p")
        if isinstance(p, bool) or not isinstance(p, int):
            raise MalformedInput(f"p must be an integer, got {p!r}")
        return GF(p)
    raise UnsupportedContext(f"unknown field description {obj!r}")


def rational_to_json(v):
    """An int or Fraction: a JSON integer if integral, else "a/b"."""
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def scalar_to_json(s):
    return rational_to_json(s.value)


def scalar_from_json(field, obj):
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise MalformedInput(f"cannot read scalar from {obj!r}")
    if isinstance(obj, str):
        return field.scalar(_fraction(obj))
    return field.scalar(obj)


def subspace_to_json(s):
    return {"ambient": s.ambient_dim,
            "basis": [[scalar_to_json(x) for x in row]
                      for row in s.basis.entries]}


def subspace_from_json(field, obj):
    from .linalg import Subspace
    ambient = _get(obj, "ambient")
    if isinstance(ambient, bool) or not isinstance(ambient, int) or ambient < 0:
        raise MalformedInput(f"ambient must be an integer >= 0, got {ambient!r}")
    rows = [[scalar_from_json(field, x) for x in row] for row in _rows(obj, "basis")]
    return Subspace.span(field, ambient, rows)


def gramspace_to_json(space):
    return {"field": field_to_json(space.field),
            "gram": [[scalar_to_json(x) for x in row]
                     for row in space.gram.entries]}


def gramspace_from_json(obj):
    from .orthospace import GramSpace
    field = field_from_json(_get(obj, "field"))
    rows = [[scalar_from_json(field, x) for x in row] for row in _rows(obj, "gram")]
    return GramSpace(field, rows)


def liftpair_to_json(pair):
    return {"plus": subspace_to_json(pair.plus_lift),
            "minus": subspace_to_json(pair.minus_lift)}


def stratum_row_to_json(row):
    return {**row._asdict(), "flags": list(row.flags)}
