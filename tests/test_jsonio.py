"""Round trips through the JSON wire format."""

import json
from fractions import Fraction

import pytest

from ortholag import (GF, QQ, GramSpace, MalformedInput, Subspace,
                      UnsupportedContext, lift_odd_to_even, standard_form)
from ortholag.jsonio import (field_from_json, field_to_json,
                             gramspace_from_json, gramspace_to_json,
                             liftpair_from_json, liftpair_to_json,
                             scalar_from_json, scalar_to_json,
                             stratum_row_to_json, subspace_from_json,
                             subspace_to_json)
from ortholag.strata import CurveParams, stratum_row

F5 = GF(5)


class TestFields:
    def test_round_trip(self):
        for field in (QQ, GF(3), GF(11)):
            assert field_from_json(field_to_json(field)) == field

    def test_shapes(self):
        assert field_to_json(QQ) == {"type": "Q"}
        assert field_to_json(F5) == {"type": "Fp", "p": 5}

    @pytest.mark.parametrize("p", ["5", True, False, 5.0, None, [5]])
    def test_p_must_be_an_int(self, p):
        with pytest.raises(MalformedInput, match="p must be an integer"):
            field_from_json({"type": "Fp", "p": p})

    def test_unknown(self):
        with pytest.raises(UnsupportedContext):
            field_from_json({"type": "R"})
        with pytest.raises(UnsupportedContext):
            field_to_json(object())


class TestScalars:
    def test_integers_stay_numbers(self):
        assert scalar_to_json(F5.scalar(3)) == 3
        assert scalar_to_json(QQ.scalar(-7)) == -7
        assert isinstance(scalar_to_json(QQ.scalar(2)), int)

    def test_fractions_become_strings(self):
        assert scalar_to_json(QQ.scalar("2/6")) == "1/3"
        assert scalar_to_json(QQ.scalar(Fraction(-3, 4))) == "-3/4"

    def test_round_trip(self):
        for field in (QQ, F5):
            for raw in (0, 1, -2, 17):
                s = field.scalar(raw)
                assert scalar_from_json(field, scalar_to_json(s)) == s
        q = QQ.scalar("5/9")
        assert scalar_from_json(QQ, scalar_to_json(q)) == q

    def test_rejects_bool_and_junk(self):
        with pytest.raises(ValueError):
            scalar_from_json(QQ, True)
        with pytest.raises(ValueError):
            scalar_from_json(QQ, 1.5)
        with pytest.raises(ValueError):
            scalar_from_json(QQ, None)
        with pytest.raises(ValueError):
            scalar_from_json(QQ, "not-a-number")


class TestSubspacesAndSpaces:
    def test_subspace_round_trip(self):
        s = Subspace.span(F5, 4, [[1, 2, 3, 4], [0, 1, 0, 1]])
        blob = json.dumps(subspace_to_json(s))
        assert subspace_from_json(F5, json.loads(blob)) == s

    def test_subspace_canonicalizes_on_read(self):
        raw = {"ambient": 2, "basis": [[2, 4]]}
        assert subspace_from_json(F5, raw) == Subspace.span(F5, 2, [[1, 2]])

    def test_rational_subspace(self):
        s = Subspace.span(QQ, 2, [["1/2", 1]])
        obj = subspace_to_json(s)
        assert obj == {"ambient": 2, "basis": [[1, 2]]}
        assert subspace_from_json(QQ, obj) == s

    @pytest.mark.parametrize("ambient", [True, False, -1, 4.0, "3", None, [3]])
    def test_subspace_ambient_must_be_a_dimension(self, ambient):
        with pytest.raises(MalformedInput, match="ambient must be an integer"):
            subspace_from_json(F5, {"ambient": ambient, "basis": []})

    def test_subspace_ambient_zero(self):
        assert subspace_from_json(F5, {"ambient": 0, "basis": []}).dim == 0

    def test_gramspace_round_trip(self):
        space = standard_form(F5, 1, "odd")
        obj = gramspace_to_json(space)
        back = gramspace_from_json(json.loads(json.dumps(obj)))
        assert back.field == space.field
        assert back.gram == space.gram

    def test_gramspace_rational(self):
        space = GramSpace(QQ, [[Fraction(1, 2), 0], [0, -1]])
        obj = gramspace_to_json(space)
        assert obj["gram"] == [["1/2", 0], [0, -1]]
        assert gramspace_from_json(obj).gram == space.gram


class TestCompositeTypes:
    def test_liftpair_round_trip(self):
        space = standard_form(F5, 1, "odd")
        e = Subspace.span(F5, 3, [[1, 0, 0]])
        pair = lift_odd_to_even(space, e, 1)
        obj = liftpair_to_json(pair)
        assert set(obj) == {"plus", "minus"}
        back = liftpair_from_json(F5, obj)
        assert back == pair

    @pytest.mark.parametrize("obj", [[1, 2], "plus", None])
    def test_liftpair_needs_an_object(self, obj):
        with pytest.raises(MalformedInput, match="expected a JSON object"):
            liftpair_from_json(F5, obj)

    def test_stratum_row_shape(self):
        row = stratum_row(CurveParams(g=3, n=2), 8)
        obj = stratum_row_to_json(row)
        assert obj == {"g": 3, "n": 2, "t": 8, "e": 4, "component": "+",
                       "stratum_dim": 20, "dim_max_lagrangians": 2,
                       "flags": ["dense", "infinite"]}
        json.dumps(obj)  # must be pure JSON types
