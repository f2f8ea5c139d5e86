"""
Stable on-disk formats: job configs, JSON-lines, CSV and DOT emission.

Exact rationals are never rendered as floats; they serialize as "p/q"
strings (plain "p" when the denominator is 1). Emission is deterministic:
keys sorted, rows emitted in caller order, DOT node ids sequential.
"""

from __future__ import annotations

import csv
import io
import json
from collections import namedtuple
from fractions import Fraction

from .combinatorics import Multipartition, perm_is_valid


class ConfigError(ValueError):
    """Config validation failure with a machine-readable code and field path."""

    def __init__(self, code: str, path: str, message: str):
        super().__init__(f"{code} at {path}: {message}")
        self.code = code
        self.path = path


def mp_to_lists(lam: Multipartition) -> list[list[int]]:
    return [list(p) for p in lam]


def mp_from_lists(data) -> Multipartition:
    """Lists of positive, weakly decreasing integer parts; anything else raises."""
    if not isinstance(data, list) or not all(
            isinstance(p, list)
            and all(type(x) is int and x > 0 for x in p)
            and all(p[i] >= p[i + 1] for i in range(len(p) - 1))
            for p in data):
        raise ValueError(f"not a multipartition: {data!r}")
    return tuple(tuple(p) for p in data)


# ---------------------------------------------------------------------------
# job configuration


# the choices of --family and --format, in the command line's order
FAMILIES = ("m", "n", "mxi", "nxi")
FORMATS = ("json", "csv", "dot")


# ell, r: int; omega, c, xi: tuple[int, ...]; family, format: str
JobConfig = namedtuple("JobConfig", "ell r omega c xi family format")

# the config's field names; the command line's flags come in this order
FIELDS = JobConfig._fields


def parse_config(text: str) -> JobConfig:
    """
    Validated config; raises ConfigError with a code and field path. A
    boolean or a float (2.0) where an int belongs, or a non-string family
    or format, is a BAD_VALUE.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("INVALID_JSON", "$", str(exc)) from exc
    if not isinstance(data, dict):
        raise ConfigError("INVALID_JSON", "$", "top level must be an object")
    for key in data:
        if key not in FIELDS:
            raise ConfigError("UNKNOWN_FIELD", f"$.{key}", "unknown field")
    for key in ("ell", "r"):
        if key not in data:
            raise ConfigError("MISSING_FIELD", f"$.{key}", "required")
        if type(data[key]) is not int or data[key] < 1:
            raise ConfigError("BAD_VALUE", f"$.{key}", "must be a positive integer")
    ell, r = data["ell"], data["r"]
    if "omega" not in data:
        raise ConfigError("MISSING_FIELD", "$.omega", "required")
    omega = data["omega"]
    if not isinstance(omega, list) or any(type(x) is not int for x in omega):
        raise ConfigError("BAD_VALUE", "$.omega", "must be a list of integers")
    if len(omega) != ell:
        raise ConfigError(
            "LENGTH_MISMATCH", "$.omega", f"expected {ell} entries, got {len(omega)}"
        )
    c = data.get("c", [0] * ell)
    if not isinstance(c, list) or any(type(x) is not int or x not in (0, 1)
                                      for x in c):
        raise ConfigError("BAD_VALUE", "$.c", "must be a list of 0/1")
    if len(c) != ell:
        raise ConfigError(
            "LENGTH_MISMATCH", "$.c", f"expected {ell} entries, got {len(c)}"
        )
    xi = data.get("xi", list(range(1, ell + 1)))
    if not isinstance(xi, list) or any(type(x) is not int for x in xi):
        raise ConfigError("BAD_VALUE", "$.xi", "must be a list of integers")
    if len(xi) != ell:
        raise ConfigError(
            "LENGTH_MISMATCH", "$.xi", f"expected {ell} entries, got {len(xi)}"
        )
    if not perm_is_valid(tuple(xi)):
        raise ConfigError("NOT_A_PERMUTATION", "$.xi", f"{xi} is not a bijection")
    family = data.get("family", "m")
    if type(family) is not str or family not in FAMILIES:
        raise ConfigError("BAD_VALUE", "$.family", f"must be one of {sorted(FAMILIES)}")
    fmt = data.get("format", "json")
    if type(fmt) is not str or fmt not in FORMATS:
        raise ConfigError("BAD_VALUE", "$.format", f"must be one of {sorted(FORMATS)}")
    return JobConfig(ell=ell, r=r, omega=tuple(omega), c=tuple(c),
                     xi=tuple(xi), family=family, format=fmt)


# ---------------------------------------------------------------------------
# emission


def to_jsonable(value):
    """Recursively convert to JSON-safe values; rationals become strings."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    return value


def emit_jsonl(rows: list[dict]) -> bytes:
    out = io.StringIO()
    for row in rows:
        json.dump(to_jsonable(row), out, sort_keys=True, separators=(",", ":"))
        out.write("\n")
    return out.getvalue().encode("utf-8")


def emit_csv(rows: list[dict], fieldnames: list[str]) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        record = []
        for name in fieldnames:
            v = to_jsonable(row.get(name, ""))
            if isinstance(v, (list, dict)):
                v = json.dumps(v, sort_keys=True, separators=(",", ":"))
            record.append(v)
        writer.writerow(record)
    return out.getvalue().encode("utf-8")


def emit_dot(nodes: list[str], edges: list[tuple[int, str, int]]) -> bytes:
    """
    Directed graph with sequential integer node ids; ``nodes[i]`` is the
    label of node i and each edge is (source id, edge label, target id).
    """
    lines = ["digraph crystal {"]
    for i, label in enumerate(nodes):
        lines.append(f'  {i} [label="{label}"];')
    for src, label, dst in edges:
        lines.append(f'  {src} -> {dst} [label="{label}"];')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def check_tabular(fmt: str) -> None:
    """Raise ValueError when ``fmt`` cannot hold rows: DOT is for graphs."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"unsupported format {fmt!r} for tabular data")


def emit(rows: list[dict], fmt: str, fieldnames: list[str]) -> bytes:
    check_tabular(fmt)
    return emit_jsonl(rows) if fmt == "json" else emit_csv(rows, fieldnames)
