import json
from fractions import Fraction

import pytest

from cellular_hecke.serialization import (
    ConfigError,
    emit,
    emit_csv,
    emit_dot,
    emit_jsonl,
    mp_from_lists,
    mp_to_lists,
    parse_config,
    to_jsonable,
)
from reference_serialization import parse_jsonl


class TestFractions:
    def test_integer_renders_bare(self):
        assert to_jsonable(Fraction(4)) == "4"
        assert emit_jsonl([{"q": Fraction(4)}]) == b'{"q":"4"}\n'

    def test_ratio(self):
        assert to_jsonable(Fraction(-3, 7)) == "-3/7"
        assert emit_jsonl([{"q": Fraction(-3, 7)}]) == b'{"q":"-3/7"}\n'

    def test_round_trip(self):
        qs = [Fraction(0), Fraction(5), Fraction(22, 7), Fraction(-1, 2)]
        for q in qs:
            assert Fraction(to_jsonable(q)) == q
        rows = parse_jsonl(emit_jsonl([{"q": q} for q in qs]))
        assert [Fraction(row["q"]) for row in rows] == qs

    def test_never_a_float(self):
        assert "." not in to_jsonable(Fraction(1, 3))
        assert b"." not in emit_jsonl([{"q": [Fraction(1, 3), Fraction(2)]}])


class TestMultipartitions:
    def test_lists(self):
        lam = ((3, 2), (3, 1))
        assert mp_to_lists(lam) == [[3, 2], [3, 1]]
        assert mp_from_lists([[3, 2], [3, 1]]) == lam

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            mp_from_lists([3, 2])
        # parts must be positive integers, weakly decreasing
        for data in ([[0]], [[-1], []], [[1, 2], []], [[2, 1.5]], [["1"]],
                     [[True]]):
            with pytest.raises(ValueError, match="not a multipartition"):
                mp_from_lists(data)
        assert mp_from_lists([[2, 2, 1], []]) == ((2, 2, 1), ())


class TestConfig:
    def test_minimal_valid(self):
        cfg = parse_config('{"ell":2,"r":3,"omega":[0,1],"c":[0,1]}')
        assert (cfg.ell, cfg.r, cfg.omega, cfg.c) == (2, 3, (0, 1), (0, 1))
        assert cfg.xi == (1, 2)
        assert cfg.family == "m" and cfg.format == "json"

    def test_length_mismatch(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"ell":2,"r":3,"omega":[0,1,2]}')
        assert err.value.code == "LENGTH_MISMATCH"
        assert err.value.path == "$.omega"

    def test_not_a_permutation(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"ell":2,"r":1,"omega":[0,1],"xi":[2,2]}')
        assert err.value.code == "NOT_A_PERMUTATION"

    def test_unknown_field(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"ell":2,"r":1,"omega":[0,1],"spin":3}')
        assert err.value.code == "UNKNOWN_FIELD"
        assert err.value.path == "$.spin"

    def test_invalid_json(self):
        with pytest.raises(ConfigError) as err:
            parse_config("{nope")
        assert err.value.code == "INVALID_JSON"

    def test_missing_field(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"ell":2,"r":1}')
        assert err.value.code == "MISSING_FIELD"

    def test_bad_value(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"ell":2,"r":1,"omega":[0,1],"c":[0,2]}')
        assert err.value.code == "BAD_VALUE"

    @pytest.mark.parametrize("fields,path", [
        ('"ell":true,"r":2,"omega":[0]', "$.ell"),
        ('"ell":2.0,"r":2,"omega":[0,1]', "$.ell"),
        ('"ell":2,"r":true,"omega":[0,1]', "$.r"),
        ('"ell":2,"r":2.0,"omega":[0,1]', "$.r"),
        ('"ell":2,"r":2,"omega":[true,0]', "$.omega"),
        ('"ell":2,"r":2,"omega":[1.0,0]', "$.omega"),
        ('"ell":2,"r":2,"omega":[0,1],"c":[false,true]', "$.c"),
        ('"ell":2,"r":2,"omega":[0,1],"c":[0.0,1.0]', "$.c"),
        ('"ell":2,"r":2,"omega":[0,1],"xi":[true,2]', "$.xi"),
        ('"ell":2,"r":2,"omega":[1,0],"xi":[2.0,1.0]', "$.xi"),
    ])
    def test_booleans_and_floats_are_not_integers(self, fields, path):
        # JSON true and 2.0 compare equal to Python ints; only an int is one
        with pytest.raises(ConfigError) as err:
            parse_config("{" + fields + "}")
        assert (err.value.code, err.value.path) == ("BAD_VALUE", path)

    @pytest.mark.parametrize("field", ["family", "format"])
    @pytest.mark.parametrize("value", ['["m"]', '{"a":1}', "1"],
                             ids=["list", "dict", "int"])
    def test_non_string_family_or_format(self, field, value):
        # a list or dict is unhashable, so a set membership test raised
        # TypeError here instead of reporting the value
        with pytest.raises(ConfigError) as err:
            parse_config('{"ell":2,"r":2,"omega":[0,1],"%s":%s}'
                         % (field, value))
        assert (err.value.code, err.value.path) == ("BAD_VALUE", f"$.{field}")

    @pytest.mark.parametrize("field", ["omega", "c", "xi"])
    @pytest.mark.parametrize("value", [21, "21", None],
                             ids=["int", "string", "null"])
    def test_non_list_is_a_bad_value_before_its_length(self, field, value):
        # xi used to test its length first, so each of these was reported as
        # LENGTH_MISMATCH at $.xi; omega and c test the type first
        data = {"ell": 2, "r": 2, "omega": [0, 1], field: value}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        assert (err.value.code, err.value.path) == ("BAD_VALUE", f"$.{field}")

    def test_xi_length_mismatch(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"ell":2,"r":2,"omega":[0,1],"xi":[1,2,3]}')
        assert str(err.value) == \
            "LENGTH_MISMATCH at $.xi: expected 2 entries, got 3"


class TestEmission:
    def test_jsonl_round_trip(self):
        rows = [
            {"lambda": [[3, 2], [3, 1]], "value": Fraction(1, 3)},
            {"lambda": [[], []], "value": Fraction(2)},
        ]
        data = emit_jsonl(rows)
        assert parse_jsonl(data) == [to_jsonable(r) for r in rows]

    def test_jsonl_deterministic(self):
        rows = [{"b": 1, "a": 2}]
        assert emit_jsonl(rows) == emit_jsonl([{"a": 2, "b": 1}])

    def test_csv_header_only_for_empty(self):
        data = emit_csv([], fieldnames=["lambda", "dim"])
        assert data == b"lambda,dim\n"

    def test_csv_rationals(self):
        data = emit_csv([{"q": Fraction(1, 2)}], fieldnames=["q"])
        assert data == b"q\n1/2\n"

    def test_emit_dispatch(self):
        rows = [{"a": 1}]
        assert emit(rows, "json", ["a"]) == emit_jsonl(rows)
        assert emit(rows, "csv", ["a"]) == b"a\n1\n"
        with pytest.raises(ValueError):
            emit(rows, "dot", ["a"])

    def test_dot_sequential_ids(self):
        data = emit_dot(["x", "y"], [(0, "1", 1)]).decode()
        assert "0 [label=\"x\"]" in data
        assert "0 -> 1 [label=\"1\"]" in data
        # stable across calls
        assert data == emit_dot(["x", "y"], [(0, "1", 1)]).decode()

