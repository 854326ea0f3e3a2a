"""The two checks over one field: verify-p1fp, the exhaustive fixed-point
count of PGL2(F_q), and ramification, the ramification locus of a
polynomial self-map of P^1.  Only those two commands reach this module, so
a census process never compiles it.
"""

from __future__ import annotations

from typing import Sequence

from .closure import order
from .gfq import (
    FieldSpec,
    Record,
    _cp_trim,
    _embedding_table,
    cpoly_deriv,
    cpoly_divmod,
    cpoly_multiplicity,
    extension_field,
    parse_element,
    poly_roots,
    render_field_spec,
)
from .moebius import _code_fixed, _kernel, _pgl2_codes, _render_codes, render_point


# ---------------------------------------------------------------------------
# ramification of polynomial self-maps of P^1


class RamPoint(Record):
    """A ramification point of a polynomial map: its point code over F_{q^r},
    its index e, and whether it is tame (p does not divide e)."""

    point: int
    index: int
    tame: bool

    def __post_init__(self):
        if self.index < 2:
            raise ValueError("ramification index must be >= 2")


def poly_map_ramification(spec: FieldSpec, coeffs: Sequence[int], r: int) -> list[RamPoint]:
    """Ramification locus in P^1(F_{q^r}) of the map x -> f(x), deg f >= 2,
    for f given by its coefficient codes over spec, constant term first.

    The index at x0 is the multiplicity of (t - x0) in f(t) - f(x0), which is
    correct in wild cases where the derivative count fails.  Since f - f(x0)
    = (t - x0)·g with g the quotient of f by t - x0, that is one more than
    the multiplicity of x0 in g, and x0 ramifies iff g(x0) = f'(x0) = 0.  So
    the ramified points are the roots of f' in F_{q^r} (gfq.poly_roots), and
    each index is read off that division on element codes.  The map totally
    ramifies at infinity with index deg f.  Inseparable maps (f' = 0) are
    rejected.
    """
    if not coeffs:
        raise ValueError("polynomial needs at least one coefficient")
    f = _cp_trim(list(coeffs))
    deg = max(len(f) - 1, 0)
    if deg < 2:
        raise ValueError(f"polynomial map must have degree >= 2, got degree {deg}")
    df = cpoly_deriv(spec, f)
    if not df:
        raise ValueError("inseparable map: the derivative vanishes identically")
    ext = extension_field(spec, r)
    emb = _embedding_table(spec, ext)
    f = [emb[c] for c in f]
    one, neg, out = ext.one, ext._tables.sub, []
    for x0, _ in poly_roots(spec, df, r):
        g = cpoly_divmod(ext, f, [neg(0, x0), one])[0]
        e = 1 + cpoly_multiplicity(ext, g, x0)
        out.append(RamPoint(x0, e, e % spec.p != 0))
    # infinity's code is q, after every affine point
    out.append(RamPoint(ext.q, deg, deg % spec.p != 0))
    return out


def parse_poly(spec: FieldSpec, text: str) -> list[int]:
    """The coefficient codes of a polynomial, constant term first, from the
    comma-separated coefficient integers of its elements, n per element."""
    tokens = [t for t in text.split(",") if t.strip() != ""]
    if len(tokens) % spec.n != 0:
        raise ValueError(f"--poly must hold a whole number of {spec.n}-coefficient elements")
    return [parse_element(spec, ",".join(tokens[i : i + spec.n])).code for i in range(0, len(tokens), spec.n)]


def ramification_to_json(spec: FieldSpec, ram: Sequence[RamPoint], r: int) -> dict:
    """The ramification command's record of poly_map_ramification(spec,
    coeffs, r)."""
    ext = extension_field(spec, r)
    return {
        "schema": "pglcensus/ramification/v1",
        "field": render_field_spec(spec),
        "degree": ram[-1].index,  # infinity, listed last, has index deg f
        "ext": r,
        "count": len(ram),
        "ramification": [{"point": render_point(ext, rp.point), "index": rp.index, "tame": rp.tame} for rp in ram],
    }


# ---------------------------------------------------------------------------
# exhaustive fixed-point census over one field


class P1FPReport(Record):
    """Result of scanning all of PGL2(F_q): every non-identity element must
    have one or two fixed points over F_{q^2}, with exactly one precisely for
    the elements of order p."""

    group_order: int
    checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_p1fp(spec: FieldSpec) -> P1FPReport:
    """The scan on entry codes: per map, its fixed points over F_{q^2} by
    _code_fixed and its order by closure.order over the kernel's law.  No
    map is built: a violation is rendered from its entry codes."""
    law, ident = _kernel(spec).law, _kernel(spec).identity
    fixed_points = _code_fixed(spec, 2)
    group_order = spec.q ** 3 - spec.q
    checked = 0
    violations = []
    for g in _pgl2_codes(spec):
        if g == ident:
            continue
        checked += 1
        n_fixed = len(fixed_points(g))
        k = order(g, law, ident, group_order)
        if k is None:
            raise AssertionError("order exceeded |PGL2|, matrix arithmetic is broken")
        if n_fixed not in (1, 2):
            violations.append(f"{_render_codes(spec, g)}: {n_fixed} fixed points")
        if (n_fixed == 1) != (k == spec.p):
            violations.append(f"{_render_codes(spec, g)}: order {k} with {n_fixed} fixed points")
    return P1FPReport(group_order, checked, tuple(violations))


def p1fp_report_to_json(spec: FieldSpec, rep: P1FPReport) -> dict:
    """The verify-p1fp command's record of verify_p1fp(spec)."""
    return {
        "schema": "pglcensus/verify-p1fp/v1",
        "field": render_field_spec(spec),
        "group_order": rep.group_order,
        "checked": rep.checked,
        "violations": list(rep.violations),
        "ok": rep.ok,
        "summary": (
            f"{rep.checked} non-identity elements of PGL2(F_{spec.q}) checked: "
            f"every fixed-point count lies in {{1,2}}, and it equals 1 exactly "
            f"for the elements of order {spec.p}"
            if rep.ok
            else f"{len(rep.violations)} violations"
        ),
    }
