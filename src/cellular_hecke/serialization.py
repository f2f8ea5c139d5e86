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
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import Multipartition, perm_is_valid


class ConfigError(ValueError):
    """Config validation failure with a machine-readable code and field path."""

    def __init__(self, code: str, path: str, message: str):
        super().__init__(f"{code} at {path}: {message}")
        self.code = code
        self.path = path


def format_fraction(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_fraction(text: str) -> Fraction:
    return Fraction(text)


def mp_to_lists(lam: Multipartition) -> list[list[int]]:
    return [list(p) for p in lam]


def mp_from_lists(data) -> Multipartition:
    if not isinstance(data, list) or any(not isinstance(p, list) for p in data):
        raise ValueError(f"not a multipartition: {data!r}")
    return tuple(tuple(int(x) for x in p) for p in data)


def tableau_to_lists(t) -> list[list[list[int]]]:
    """Row arrays per component, mirroring the multipartition form."""
    return [[list(row) for row in comp] for comp in t]


def tableau_from_lists(data):
    if not isinstance(data, list):
        raise ValueError(f"not a tableau: {data!r}")
    return tuple(
        tuple(tuple(int(x) for x in row) for row in comp) for comp in data
    )


def element_to_obj(h) -> list[dict]:
    """Sorted list of {"a": exponents, "w": images, "coef": "p/q"} terms."""
    return [
        {"a": list(a), "w": list(w), "coef": format_fraction(c)}
        for (a, w), c in sorted(h.terms.items())
    ]


def element_from_obj(ctx, data) -> "object":
    from .algebra import Element

    terms = {}
    for item in data:
        key = (tuple(item["a"]), tuple(item["w"]))
        terms[key] = parse_fraction(item["coef"])
    return Element(ctx, terms)


# ---------------------------------------------------------------------------
# job configuration


_KNOWN_FIELDS = {"ell", "r", "omega", "c", "xi", "family", "format"}
_FAMILIES = {"m", "n", "mxi", "nxi"}
_FORMATS = {"json", "csv", "dot"}


@dataclass
class JobConfig:
    ell: int
    r: int
    omega: tuple[int, ...]
    c: tuple[int, ...]
    xi: tuple[int, ...]
    family: str
    format: str


def parse_config(text: str) -> JobConfig:
    """Validated config; raises ConfigError with a code and field path."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("INVALID_JSON", "$", str(exc)) from exc
    if not isinstance(data, dict):
        raise ConfigError("INVALID_JSON", "$", "top level must be an object")
    for key in data:
        if key not in _KNOWN_FIELDS:
            raise ConfigError("UNKNOWN_FIELD", f"$.{key}", "unknown field")
    for key in ("ell", "r"):
        if key not in data:
            raise ConfigError("MISSING_FIELD", f"$.{key}", "required")
        if not isinstance(data[key], int) or data[key] < 1:
            raise ConfigError("BAD_VALUE", f"$.{key}", "must be a positive integer")
    ell, r = data["ell"], data["r"]
    if "omega" not in data:
        raise ConfigError("MISSING_FIELD", "$.omega", "required")
    omega = data["omega"]
    if not isinstance(omega, list) or any(not isinstance(x, int) for x in omega):
        raise ConfigError("BAD_VALUE", "$.omega", "must be a list of integers")
    if len(omega) != ell:
        raise ConfigError(
            "LENGTH_MISMATCH", "$.omega", f"expected {ell} entries, got {len(omega)}"
        )
    c = data.get("c", [0] * ell)
    if not isinstance(c, list) or any(x not in (0, 1) for x in c):
        raise ConfigError("BAD_VALUE", "$.c", "must be a list of 0/1")
    if len(c) != ell:
        raise ConfigError(
            "LENGTH_MISMATCH", "$.c", f"expected {ell} entries, got {len(c)}"
        )
    xi = data.get("xi", list(range(1, ell + 1)))
    if not isinstance(xi, list) or len(xi) != ell:
        raise ConfigError(
            "LENGTH_MISMATCH", "$.xi", f"expected {ell} entries"
        )
    if not perm_is_valid(tuple(xi)):
        raise ConfigError("NOT_A_PERMUTATION", "$.xi", f"{xi} is not a bijection")
    family = data.get("family", "m")
    if family not in _FAMILIES:
        raise ConfigError("BAD_VALUE", "$.family", f"must be one of {sorted(_FAMILIES)}")
    fmt = data.get("format", "json")
    if fmt not in _FORMATS:
        raise ConfigError("BAD_VALUE", "$.format", f"must be one of {sorted(_FORMATS)}")
    return JobConfig(ell=ell, r=r, omega=tuple(omega), c=tuple(c),
                     xi=tuple(xi), family=family, format=fmt)


# ---------------------------------------------------------------------------
# emission


def to_jsonable(value):
    """Recursively convert to JSON-safe values; rationals become strings."""
    if isinstance(value, Fraction):
        return format_fraction(value)
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


def parse_jsonl(data: bytes) -> list[dict]:
    return [
        json.loads(line)
        for line in data.decode("utf-8").splitlines()
        if line.strip()
    ]


def emit_csv(rows: list[dict], fieldnames: list[str] | None = None) -> bytes:
    if fieldnames is None:
        fieldnames = sorted({k for row in rows for k in row})
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


def emit_dot(nodes: list[str], edges: list[tuple[int, str, int]],
             name: str = "crystal") -> bytes:
    """
    Directed graph with sequential integer node ids; ``nodes[i]`` is the
    label of node i and each edge is (source id, edge label, target id).
    """
    lines = [f"digraph {name} {{"]
    for i, label in enumerate(nodes):
        lines.append(f'  {i} [label="{label}"];')
    for src, label, dst in edges:
        lines.append(f'  {src} -> {dst} [label="{label}"];')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit(rows: list[dict], fmt: str,
         fieldnames: list[str] | None = None) -> bytes:
    if fmt == "json":
        return emit_jsonl(rows)
    if fmt == "csv":
        return emit_csv(rows, fieldnames)
    raise ValueError(f"unsupported format {fmt!r} for tabular data")
