import json
from fractions import Fraction

import pytest

from cellular_hecke.algebra import AlgebraContext
from cellular_hecke.serialization import (
    ConfigError,
    element_from_obj,
    element_to_obj,
    emit,
    emit_csv,
    emit_dot,
    emit_jsonl,
    format_fraction,
    mp_from_lists,
    mp_to_lists,
    parse_config,
    parse_fraction,
    parse_jsonl,
    to_jsonable,
)


class TestFractions:
    def test_integer_renders_bare(self):
        assert format_fraction(Fraction(4)) == "4"

    def test_ratio(self):
        assert format_fraction(Fraction(-3, 7)) == "-3/7"

    def test_round_trip(self):
        for q in [Fraction(0), Fraction(5), Fraction(22, 7), Fraction(-1, 2)]:
            assert parse_fraction(format_fraction(q)) == q

    def test_never_a_float(self):
        assert "." not in format_fraction(Fraction(1, 3))


class TestMultipartitions:
    def test_lists(self):
        lam = ((3, 2), (3, 1))
        assert mp_to_lists(lam) == [[3, 2], [3, 1]]
        assert mp_from_lists([[3, 2], [3, 1]]) == lam

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            mp_from_lists([3, 2])

    def test_tableau_lists(self):
        from cellular_hecke.combinatorics import row_reading_tableau
        from cellular_hecke.serialization import (
            tableau_from_lists,
            tableau_to_lists,
        )

        t = row_reading_tableau(((2, 1), (1,)))
        data = tableau_to_lists(t)
        assert data == [[[1, 2], [3]], [[4]]]
        assert tableau_from_lists(data) == t


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
        assert emit(rows, "json") == emit_jsonl(rows)
        assert emit(rows, "csv").startswith(b"a\n")
        with pytest.raises(ValueError):
            emit(rows, "dot")

    def test_dot_sequential_ids(self):
        data = emit_dot(["x", "y"], [(0, "1", 1)]).decode()
        assert "0 [label=\"x\"]" in data
        assert "0 -> 1 [label=\"1\"]" in data
        # stable across calls
        assert data == emit_dot(["x", "y"], [(0, "1", 1)]).decode()


class TestElementSerialization:
    def test_round_trip(self):
        ctx = AlgebraContext(2, 2, (0, 1))
        h = ctx.generator_s(1) * ctx.generator_x(1) - ctx.one() * Fraction(5, 3)
        obj = element_to_obj(h)
        assert all(set(item) == {"a", "w", "coef"} for item in obj)
        json.dumps(obj)  # JSON-safe
        assert element_from_obj(ctx, obj) == h

    def test_round_trip_keeps_integral_coefficients_int(self):
        ctx = AlgebraContext(2, 2, (0, 1))
        h = ctx.generator_s(1) * ctx.generator_x(1)
        assert len(h.terms) == 2
        again = element_from_obj(ctx, element_to_obj(h))
        assert again == h
        assert all(type(c) is int for c in again.terms.values())
        half = element_from_obj(ctx, element_to_obj(h * Fraction(1, 2)))
        assert half == h * Fraction(1, 2)
        assert all(type(c) is Fraction for c in half.terms.values())
        assert type(parse_fraction("3")) is Fraction
