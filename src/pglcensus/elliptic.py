"""The genus-1 side: elliptic curves over F_q and their automorphisms.

A curve is short Weierstrass y^2 = x^3 + ax + b with p > 3, so the
automorphisms fixing the base point O are exactly the scalings
(x, y) -> (u^2 x, u^3 y) with u^4 a = a and u^6 b = b, and the full
automorphism group splits as translations semidirect base-point-fixing
automorphisms.  An automorphism is stored as a pair (P, u): translate by P
after scaling by u, so (P, u)(Q) = sigma_u(Q) + P and composition is
(P, u)(Q, v) = (P + sigma_u(Q), u v).

Points are gfq.CodedValue instances, so they hash and sort by one int code
(O first).  A curve has one field: every function here works over E.spec
and refuses points or factors from another field.  To work over F_{q^r},
take base_change(E, r), the same equation with its coefficients embedded.
Point sets are exhausted over the curve's field, and torsion, kernels and
fixed-point fibres over that field come from direct scans.  The group law
runs on coordinate codes: each curve binds one chord-tangent law over its
field's log, antilog and Zech tables, and the scans call it on (x, y) code
pairs (None for O), building a point only for what they return.  The scan
of 1 - sigma_u runs once per (curve, u) into a cached fibre table, and the
per-curve checks read those tables: the fixing check applies each (P, u) to
the points of its fibre over P, and the singleton bound counts the fibres
of one point, so checking all N points costs O(|Aut_0| N) law calls.  The
n-torsion walks and the translation-subgroup closures run on code pairs
through the same law.  The fixed-point dichotomy alone
looks above E's field, and it builds no field to do so: the x-coordinates of
a fibre of 1 - sigma_u are the roots of a polynomial of degree <= 4 over E's
field, whose distinct-degree factorization gives the fibre's size at every
level.

Everything here powers exhaustive verification of the genus-1 finiteness
facts: an automorphism is fixed point free iff it is a nontrivial pure
translation; nonempty fixed sets of (P, u != 1) are cosets of ker(1 - sigma_u);
each point is fixed by exactly |Aut_0| automorphisms; and group actions with
stabilized locus inside a finite S admit a certified finite bound.
"""

from __future__ import annotations

import collections
import math
from bisect import bisect_left
from functools import lru_cache, partial
from typing import Optional, Sequence

from .closure import close, order, subgroups_of_order
from .gfq import (
    CodedValue,
    FieldSpec,
    FqElem,
    Record,
    _sqrt_table,
    by_code,
    cpoly_ddf,
    cpoly_deriv,
    cpoly_divmod,
    cpoly_gcd,
    cpoly_mul,
    cpoly_powmod,
    cpoly_sub,
    extension_field,
    field_elements,
    fq_add,
    fq_embed,
    fq_from_int,
    fq_mul,
    fq_neg,
    fq_one,
    fq_pow,
    fq_zero,
    parse_element,
    parse_field_spec,
    render_element,
    render_field_spec,
    roots_of_unity,
)


class ECurve(Record):
    """y^2 = x^3 + ax + b over F_q with p > 3 and nonzero discriminant."""

    spec: FieldSpec
    a: FqElem
    b: FqElem

    def __post_init__(self):
        if self.spec.p <= 3:
            raise ValueError("short Weierstrass curves require characteristic > 3")
        if self.a.spec is not self.spec or self.b.spec is not self.spec:
            raise ValueError("coefficients live in the wrong field")
        four = fq_from_int(self.spec, 4)
        twenty_seven = fq_from_int(self.spec, 27)
        disc = fq_add(
            fq_mul(four, fq_mul(self.a, fq_mul(self.a, self.a))),
            fq_mul(twenty_seven, fq_mul(self.b, self.b)),
        )
        if disc.is_zero():
            raise ValueError("singular curve: 4a^3 + 27b^2 = 0")

    def __repr__(self) -> str:
        return f"ECurve({render_curve(self)})"


class ECPoint(CodedValue):
    """A point of E(F_{q^r}): affine coordinates in the stated field, or the
    base point O (x = y = None).  Its code is 0 for O and 1 + x q + y over the
    coordinate codes otherwise, so O sorts first, then (x, y) in code order."""

    __slots__ = ("x", "y")

    def __init__(self, spec: FieldSpec, x: Optional[FqElem], y: Optional[FqElem]):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "code", 0 if x is None else 1 + x.code * spec.q + y.code)

    def __reduce__(self):
        return ECPoint, (self.spec, self.x, self.y)

    @property
    def is_zero(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        return f"ECPoint({render_ec_point(self)})"


def ec_infinity(spec: FieldSpec) -> ECPoint:
    return ECPoint(spec, None, None)


def _check_field(E: ECurve, spec: FieldSpec) -> None:
    if spec is not E.spec:
        raise ValueError(f"field mismatch: {spec!r} vs the curve's {E.spec!r}")


def ec_point(E: ECurve, x: FqElem, y: FqElem) -> ECPoint:
    """An affine point, checked against the curve equation over E's field."""
    _check_field(E, x.spec)
    _check_field(E, y.spec)
    P = ECPoint(E.spec, x, y)
    _check_on_curve(E, P)
    return P


def _check_on_curve(E: ECurve, P: ECPoint) -> None:
    _check_field(E, P.spec)
    if P.is_zero:
        return
    lhs = fq_mul(P.y, P.y)
    rhs = fq_add(fq_add(fq_mul(P.x, fq_mul(P.x, P.x)), fq_mul(E.a, P.x)), E.b)
    if lhs != rhs:
        raise ValueError(f"{render_ec_point(P)} is not on {render_curve(E)}")


def ec_neg(E: ECurve, P: ECPoint) -> ECPoint:
    if P.is_zero:
        return P
    return ECPoint(P.spec, P.x, fq_neg(P.y))


@lru_cache(maxsize=None)
def _chord_tangent(E: ECurve):
    """The chord-tangent law of E on coordinate codes: law(x1, y1, x2, y2)
    gives the codes (x3, y3) of P1 + P2 for affine P1 and P2, or None when the
    sum is O.  Every field operation is a code operation or a lookup in the
    tables of E's field (gfq._FieldTables), bound here once per curve."""
    t = E.spec._tables
    log, exp, m, add, sub = t.log, t.exp, t.m, t.add, t.sub
    log2, log3 = log[fq_from_int(E.spec, 2).code], log[fq_from_int(E.spec, 3).code]
    a = E.a.code

    def law(x1, y1, x2, y2):
        if x1 == x2:
            if y1 != y2 or not y1:
                return None  # vertical line
            # tangent slope (3x^2 + a) / 2y
            num = add(exp[log3 + 2 * log[x1]], a) if x1 else a
            den = log2 + log[y1]
        else:
            num = sub(y2, y1)
            den = log[sub(x2, x1)]
        if not num:  # horizontal line: x3 = -(x1 + x2), y3 = -y1
            return sub(0, add(x1, x2)), sub(0, y1)
        s = (log[num] - den) % m  # log of the slope
        x3 = sub(sub(exp[2 * s], x1), x2)
        d = sub(x1, x3)
        return x3, sub(exp[s + log[d]], y1) if d else sub(0, y1)

    return law


def ec_add(E: ECurve, P1: ECPoint, P2: ECPoint) -> ECPoint:
    """Chord-tangent group law with identity O."""
    if P1.is_zero:
        return P2
    if P2.is_zero:
        return P1
    _check_field(E, P1.spec)
    _check_field(E, P2.spec)
    xy = _chord_tangent(E)(P1.x.code, P1.y.code, P2.x.code, P2.y.code)
    if xy is None:
        return ec_infinity(E.spec)
    elems = E.spec._tables.elems
    return ECPoint(E.spec, elems[xy[0]], elems[xy[1]])


def ec_sub(E: ECurve, P1: ECPoint, P2: ECPoint) -> ECPoint:
    return ec_add(E, P1, ec_neg(E, P2))


def _xy(Q: ECPoint) -> Optional[tuple[int, int]]:
    """Q as the code law takes it: its coordinate codes (x, y), None for O."""
    return None if Q.is_zero else (Q.x.code, Q.y.code)


def _code_add(law, A, B):
    """A + B for (x, y) code pairs through a curve's law, None standing for O."""
    if A is None:
        return B
    if B is None:
        return A
    return law(*A, *B)


_POINT_CAP = 10_000


def _check_level(E: ECurve, r: int) -> None:
    """Refuse level r of E, building no field: past _POINT_CAP, the bound on
    point scans, or below 1.  base_change and the dichotomy's levels both
    pass through here."""
    # q > 2, so q^r > _POINT_CAP once r reaches the cap's bit length: that
    # q^r is refused before it is raised
    if r >= _POINT_CAP.bit_length() or E.spec.q ** r > _POINT_CAP:
        got = E.spec.q ** r if r < _POINT_CAP.bit_length() else f"{E.spec.q}^{r}"
        raise ValueError(f"point enumeration capped at q^r <= {_POINT_CAP}, got {got}")
    if r < 1:
        raise ValueError(f"extension degree must be >= 1, got {r}")


@lru_cache(maxsize=None)
def base_change(E: ECurve, r: int) -> ECurve:
    """E over F_{q^r}, refused by _check_level before the field is built."""
    _check_level(E, r)
    if r == 1:
        return E
    ext = extension_field(E.spec, r)
    return ECurve(ext, fq_embed(E.a, ext), fq_embed(E.b, ext))


@lru_cache(maxsize=None)
def ec_points(E: ECurve) -> tuple[ECPoint, ...]:
    """All points of E over its field, by scanning x and solving for y.
    Sorted canonically with O first."""
    spec = E.spec
    sqrt = _sqrt_table(spec)
    pts = [ec_infinity(spec)]
    for x in field_elements(spec):
        rhs = fq_add(fq_add(fq_mul(x, fq_mul(x, x)), fq_mul(E.a, x)), E.b)
        for y in sqrt.get(rhs.code, ()):
            pts.append(ECPoint(spec, x, y))
    return tuple(sorted(pts, key=by_code))


def aut0(E: ECurve) -> tuple[FqElem, ...]:
    """The base-point-fixing automorphisms over E's field, as their scaling
    factors u (u^4 a = a, u^6 b = b), in code order: the 6th roots of unity
    if a = 0, the 4th if b = 0, else +-1.  Contains 1 and -1; has 2, 4 or 6
    members depending on whether a or b vanishes and which roots of unity are
    present."""
    d = 6 if E.a.is_zero() else 4 if E.b.is_zero() else 2
    return tuple(roots_of_unity(E.spec, d)[0])


# ---------------------------------------------------------------------------
# automorphisms as pairs (translation point, scaling factor)


class ECAut(Record):
    """An automorphism (P, u): Q -> sigma_u(Q) + P, where sigma_u scales
    (x, y) to (u^2 x, u^3 y)."""

    curve: ECurve
    P: ECPoint
    u: FqElem

    def __post_init__(self):
        _check_field(self.curve, self.u.spec)
        if self.u.is_zero():
            raise ValueError("scaling factor must be nonzero")
        _check_on_curve(self.curve, self.P)
        a, b = self.curve.a, self.curve.b
        if fq_mul(fq_pow(self.u, 4), a) != a or fq_mul(fq_pow(self.u, 6), b) != b:
            raise ValueError("u is not an automorphism scaling factor for this curve")

    @property
    def is_identity(self) -> bool:
        return self.P.is_zero and self.u == fq_one(self.u.spec)

    def __repr__(self) -> str:
        return f"ECAut(P={render_ec_point(self.P)}, u={render_element(self.u)})"


def ec_aut_sort_key(phi: ECAut):
    return (phi.P.code, phi.u.code)


def sigma_apply(u: FqElem, Q: ECPoint) -> ECPoint:
    if Q.is_zero:
        return Q
    u2 = fq_mul(u, u)
    return ECPoint(Q.spec, fq_mul(u2, Q.x), fq_mul(fq_mul(u2, u), Q.y))


def _scaling_codes(E: ECurve, log_u: int):
    """sigma_u on coordinate codes, given log u: (x, y) -> (u^2 x, u^3 y)."""
    t = E.spec._tables
    log, exp = t.log, t.exp
    shift_x, shift_y = 2 * log_u % t.m, 3 * log_u % t.m

    def scale(x, y):
        return (exp[shift_x + log[x]] if x else 0), (exp[shift_y + log[y]] if y else 0)

    return scale


@lru_cache(maxsize=None)
def _one_minus_sigma_fibres(E: ECurve, u: FqElem) -> dict[ECPoint, tuple[ECPoint, ...]]:
    """Fibres of Q -> Q - sigma_u(Q) on the points of E, keyed by image
    point.  Each fibre is nonempty and in point order."""
    _check_field(E, u.spec)
    if u.is_zero():
        raise ValueError("scaling factor must be nonzero")
    t = E.spec._tables
    law, pts, q = _chord_tangent(E), ec_points(E), E.spec.q
    neg_sigma = _scaling_codes(E, t.log[u.code] + t.half)  # -sigma_u = sigma_{-u}
    fibres: dict = {}
    for Q in pts:
        if Q.is_zero:
            image = None
        else:
            x, y = Q.x.code, Q.y.code
            image = law(x, y, *neg_sigma(x, y))
        fibres.setdefault(image, []).append(Q)
    # each image is a point of E, so look it up by its code (O is pts[0])
    return {
        pts[0 if xy is None else bisect_left(pts, 1 + xy[0] * q + xy[1], key=by_code)]: tuple(fibre)
        for xy, fibre in fibres.items()
    }


def aut_fixed_points(phi: ECAut) -> tuple[ECPoint, ...]:
    """Fixed points of phi on its curve: the solutions of sigma_u(Q) + P = Q,
    i.e. the fibre of (1 - sigma_u) over P.  The identity is rejected (it
    fixes everything); a nontrivial pure translation is fixed point free."""
    if phi.is_identity:
        raise ValueError("the identity automorphism fixes every point")
    if phi.u == fq_one(phi.u.spec):
        return ()  # translation by P != O
    return _one_minus_sigma_fibres(phi.curve, phi.u).get(phi.P, ())


def kernel_one_minus_sigma(E: ECurve, u: FqElem) -> tuple[ECPoint, ...]:
    """ker(1 - sigma_u) inside the points of E: the Q with Q - sigma_u(Q) = O.
    Undefined for u = 1 (the map is zero)."""
    if u == fq_one(u.spec):
        raise ValueError("1 - sigma is the zero map for u = 1")
    return _one_minus_sigma_fibres(E, u).get(ec_infinity(E.spec), ())


def _fixing_pairs(E: ECurve, u: FqElem, only: Optional[ECPoint] = None):
    """(Q, P) for every point Q of E, or for `only`, with P the translation
    part of the automorphism (P, u) fixing Q, read off the fibre table of
    1 - sigma_u: Q lies in the fibre over P.  Each pair is checked by
    applying (P, u) to Q on codes, sigma_u(Q) + P = Q through the law (the
    definition of fixing, not the table's own Q - sigma_u(Q)), else
    AssertionError."""
    law, scale = _chord_tangent(E), _scaling_codes(E, E.spec._tables.log[u.code])
    for P, fibre in _one_minus_sigma_fibres(E, u).items():
        xy_P = _xy(P)
        for Q in fibre:
            if only is not None and Q != only:
                continue
            xy_Q = _xy(Q)
            if _code_add(law, None if xy_Q is None else scale(*xy_Q), xy_P) != xy_Q:
                raise AssertionError(
                    f"(P={render_ec_point(P)}, u={render_element(u)}) does not fix {render_ec_point(Q)}"
                )
            yield Q, P


def fixing_counts_ok(E: ECurve) -> bool:
    """Whether every point of E is fixed by exactly |Aut_0| automorphisms:
    for each u in Aut_0 the checked pairs of _fixing_pairs, one pass over the
    fibre table of 1 - sigma_u, must cover E's points once each.  Then each
    point is fixed by one (P, u) per u, since P = Q - sigma_u(Q) is unique."""
    codes = [Q.code for Q in ec_points(E)]
    return all(sorted(Q.code for Q, _ in _fixing_pairs(E, u)) == codes for u in aut0(E))


class FixingAutsReport(Record):
    """Automorphisms fixing one point: one witness (P, u) per scaling
    factor, read off the fibre table of 1 - sigma_u and checked by
    _fixing_pairs."""

    point: ECPoint
    count: int
    witnesses: tuple[ECAut, ...]


def count_auts_fixing(E: ECurve, Q: ECPoint) -> FixingAutsReport:
    """The automorphisms (P_u, u) fixing Q, one per u in Aut_0, from the
    same pairs as fixing_counts_ok: P_u is the image of the fibre of
    1 - sigma_u that holds Q.  A Q in no fibre raises AssertionError."""
    _check_on_curve(E, Q)
    witnesses = []
    for u in aut0(E):
        parts = [P for _, P in _fixing_pairs(E, u, Q)]
        if not parts:
            raise AssertionError(f"{Q!r} is missing from the fibre table of 1 - sigma_u, u={render_element(u)}")
        witnesses += (ECAut(E, P, u) for P in parts)
    witnesses.sort(key=ec_aut_sort_key)
    return FixingAutsReport(point=Q, count=len(witnesses), witnesses=tuple(witnesses))


@lru_cache(maxsize=None)
def _torsion(E: ECurve, n: int) -> tuple[tuple[ECPoint, int], ...]:
    """The points of E[n] over E's field, in code order, each with its order:
    one order walk per point, on code pairs through the law."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    add = partial(_code_add, _chord_tangent(E))
    orders = ((Q, order(_xy(Q), add, None, n)) for Q in ec_points(E))
    return tuple((Q, k) for Q, k in orders if k is not None and n % k == 0)


def torsion_invariant_factors(E: ECurve, n: int) -> tuple[int, int]:
    """Invariant factors (d1, d2) of the n-torsion subgroup of E over its
    field: d1 is the exponent, d1*d2 the order (the group has rank at most 2)."""
    torsion = _torsion(E, n)
    exponent = math.lcm(*(k for _, k in torsion))
    return exponent, len(torsion) // exponent


def abelian_subgroup_count(invariants: tuple[int, int], n: int) -> int:
    """Subgroups of order n of Z/d1 x Z/d2, counted by closing generator
    pairs with plain integer arithmetic.  This is the independent cross-check
    for enum_spf_actions: it never touches curve points."""
    d1, d2 = invariants
    d2 = max(d2, 1)
    members = [(i, j) for i in range(d1) for j in range(d2)]

    def op(g, x):
        return (g[0] + x[0]) % d1, (g[1] + x[1]) % d2

    # a subgroup of a group of rank <= 2 has two generators (a = b: cyclic)
    subs = {frozenset(close([a, b], op, {(0, 0)})) for a in members for b in members}
    return sum(1 for s in subs if len(s) == n)


def enum_spf_actions(E: ECurve, n: int) -> list[tuple[ECPoint, ...]]:
    """All order-n subgroups of the n-torsion of E over its field.  These are
    the translation groups realizing the stabilized-point-free actions of
    order n visible over that field; enumerated by incremental closure, no
    structure theory."""
    torsion = {_xy(Q): Q for Q, _ in _torsion(E, n)}  # closed on code pairs
    subs = (
        tuple(sorted((torsion[xy] for xy in H), key=by_code))
        for H in subgroups_of_order(list(torsion), partial(_code_add, _chord_tangent(E)), None, n)
    )
    return sorted(subs, key=lambda sub: tuple(P.code for P in sub))


# ---------------------------------------------------------------------------
# exhaustive verification of the fixed-point dichotomy


class FpfDichotomyReport(Record):
    """Exhaustive check of: an automorphism (P, u) is fixed point free iff it
    is a nontrivial pure translation (u = 1 and P != O).

    Fibres of (1 - sigma_u) need not be rational at a fixed finite level, so
    "fixed point free" is tested across a set of levels: a pure translation
    must be free at every level, and every (P, u != 1) must acquire fixed
    points at some tested level.  At each level, a nonempty fixed set of
    (P, u != 1) must be a coset of ker(1 - sigma_u), i.e. have exactly the
    kernel's size.
    """

    levels: tuple[int, ...]
    pairs_checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _one_minus_sigma_map(E: ECurve, u: FqElem) -> tuple[list, list]:
    """x(Q - sigma_u(Q)) = N(x) / D(x) for u != 1, as code polynomials in
    lowest terms (Silverman, AEC III.2).  For u = -1 it is the doubling map;
    else, with v = -u, the chord through Q and sigma_v(Q) = (v^2 x, v^3 y)
    has slope (v^3 - 1) y / ((v^2 - 1) x)."""
    spec, a, b = E.spec, E.a, E.b
    one, zero = fq_one(spec), fq_zero(spec)
    if u == -one:
        k = partial(fq_from_int, spec)
        N = [a * a, k(-8) * b, k(-2) * a, zero, one]
        D = [k(4) * b, k(4) * a, zero, k(4)]
    else:
        v2 = u * u
        c, w = (one + u * v2) ** 2, (v2 - one) ** 2  # v^3 - 1 = -(1 + u^3)
        N = [c * b, c * a, zero, c - (one + v2) * w]
        D = [zero, zero, w]
    N, D = ([c.code for c in poly] for poly in (N, D))
    g = cpoly_gcd(spec, N, D)
    return cpoly_divmod(spec, N, g)[0], cpoly_divmod(spec, D, g)[0]


def _fibre_sizes(E: ECurve, N: list, D: list, P: ECPoint, levels: tuple[int, ...]) -> list[int]:
    """|(1 - sigma_u)^{-1}(P)| over F_{q^r} for each r in levels, where N/D is
    the x-map of 1 - sigma_u: the x-coordinates of the fibre are the roots of
    h = N - x_P D (of D when P = O), and the distinct-degree factorization of
    its squarefree part over E's field tells which of them lie in F_{q^r}.

    If y_P != 0, each root carries one fibre point, rational with its x.  If
    y_P = 0, the fibre is closed under negation, and a root x carries the
    1 + chi(f(x)) points (x, +-sqrt(f(x))), chi the quadratic character of
    F_{q^r}; for the irreducible factors of degree k, chi(f(x)) is 0, or
    chi_k(f(x)) = f^((q^k - 1)/2) mod the factor when r/k is odd, and 1 when
    r/k is even.  The fibre over O also holds O."""
    spec, q, one = E.spec, E.spec.q, E.spec.q // E.spec.p
    h = D if P.is_zero else cpoly_sub(spec, N, cpoly_mul(spec, [P.x.code], D))
    # the squarefree part: deg h <= 4 < p, so h' = 0 only for constant h
    parts = cpoly_ddf(spec, cpoly_divmod(spec, h, cpoly_gcd(spec, h, cpoly_deriv(spec, h)))[0])
    if not P.is_zero and P.y.code:
        return [sum(len(g) - 1 for k, g in parts.items() if r % k == 0) for r in levels]
    f = [E.b.code, E.a.code, 0, one]
    counts = []  # per part: its degree k and its roots with chi_k(f(x)) = 0, 1, -1
    for k, g in parts.items():
        fg = cpoly_divmod(spec, f, g)[1]
        zeros = len(cpoly_gcd(spec, g, fg)) - 1
        chi = cpoly_powmod(spec, fg, (q**k - 1) // 2, g)
        squares = len(cpoly_gcd(spec, g, cpoly_sub(spec, chi, [one]))) - 1
        counts.append((k, zeros, squares, len(g) - 1 - zeros - squares))
    return [
        int(P.is_zero) + sum(z + 2 * s + (0 if r // k % 2 else 2 * n) for k, z, s, n in counts if r % k == 0)
        for r in levels
    ]


def verify_fpf_dichotomy(E: ECurve, levels: Sequence[int] = (1, 2, 3)) -> FpfDichotomyReport:
    """Fibre sizes from _fibre_sizes, over E's own field for every level,
    factored once per x-coordinate: a point with y = 0 is alone on its x,
    and for y != 0 the sizes depend on x alone.  When level 1 is among the
    levels, its sizes must equal the point scan _one_minus_sigma_fibres,
    else AssertionError."""
    levels = tuple(levels)
    if not levels:
        # with no level, every (P, u != 1) would count as free everywhere
        raise ValueError("need at least one level")
    for r in (1, *levels):  # level 1 first: the base points are scanned
        _check_level(E, r)
    one = fq_one(E.spec)
    base_pts = ec_points(E)
    violations = []
    checked = len(base_pts) - 1  # the pure translations: free at every level
    for u in aut0(E):
        if u == one:
            continue
        N, D = _one_minus_sigma_map(E, u)
        kernel = _fibre_sizes(E, N, D, base_pts[0], levels)
        scan = _one_minus_sigma_fibres(E, u) if 1 in levels else None
        by_x = {}  # P and -P share x_P, and for y_P != 0 every fibre size
        for P in base_pts:
            checked += 1
            if P.is_zero:
                fibre_sizes = kernel
            elif (fibre_sizes := by_x.get(P.x.code)) is None:
                fibre_sizes = by_x[P.x.code] = _fibre_sizes(E, N, D, P, levels)
            if scan is not None:
                got, want = fibre_sizes[levels.index(1)], len(scan.get(P, ()))
                if got != want:
                    raise AssertionError(
                        f"fibre polynomial of (P={render_ec_point(P)}, u={render_element(u)}) "
                        f"gives {got} points at r=1, the scan {want}"
                    )
            for r, size, kernel_size in zip(levels, fibre_sizes, kernel):
                if size and size != kernel_size:
                    violations.append(
                        f"(P={render_ec_point(P)}, u={render_element(u)}) at r={r}: "
                        f"fibre size {size} != kernel size {kernel_size}"
                    )
            if not any(fibre_sizes):
                violations.append(
                    f"(P={render_ec_point(P)}, u={render_element(u)}): fibre sizes {fibre_sizes} "
                    f"across levels {levels}, expected fixed points"
                )
    return FpfDichotomyReport(levels, checked, tuple(violations))


# ---------------------------------------------------------------------------
# finiteness certificate for prescribed stabilized loci


class Genus1FinitenessReport(Record):
    """Certificate that only finitely many group actions over E's field can
    have a nonempty stabilized locus inside S.

    fixing: the non-identity automorphisms whose (nonempty) fixed locus lies
    inside S.  compatible_translations: per such phi = (P, u), the
    translations psi = (Q, 1) whose composite with phi still has its fixed
    fibre inside S; an empty fibre means the composite's fixed points lie
    beyond E's field, hence outside S, so such psi are excluded.  Any
    admissible action is a subgroup of {identity} + fixing + those
    translations, which bounds the number of actions by 2^admissible_count.
    """

    fixing: tuple[tuple[ECAut, tuple[ECPoint, ...]], ...]
    compatible_translations: tuple[tuple[ECAut, tuple[ECPoint, ...]], ...]
    kernel_sizes: tuple[tuple[str, int], ...]
    admissible_count: int
    certified_bound: int


def verify_genus1_finiteness(E: ECurve, S: Sequence[ECPoint]) -> Genus1FinitenessReport:
    """Read off the fibres of 1 - sigma_u, for each u != 1 in Aut_0: (P, u)
    fixes a nonempty set inside S exactly when P lies in A_u, the images
    whose fibre lies inside S.  Translating (P, u) by Q gives (P + Q, u), so
    the compatible translations of (P, u) are the P' - P, P' != P in A_u."""
    if not S:
        raise ValueError("the stabilized locus bound needs a nonempty point set")
    for Q in S:
        _check_on_curve(E, Q)
    S_set = set(S)
    S_pts = tuple(sorted(S_set, key=by_code))
    one = fq_one(E.spec)

    certified = []
    kernel_sizes = []
    for u in aut0(E):
        if u == one:
            continue  # translations have no fixed points; cannot appear here
        fibres = _one_minus_sigma_fibres(E, u)
        kernel_sizes.append((render_element(u), len(kernel_one_minus_sigma(E, u))))
        images = {ec_sub(E, Q, sigma_apply(u, Q)) for Q in S_pts}
        A_u = [P for P in images if S_set.issuperset(fibres[P])]
        for P in A_u:
            shifts = tuple(sorted((ec_sub(E, P2, P) for P2 in A_u if P2 != P), key=by_code))
            certified.append((ECAut(E, P, u), fibres[P], shifts))
    certified.sort(key=lambda entry: ec_aut_sort_key(entry[0]))

    translations = {Q for _, _, shifts in certified for Q in shifts}
    admissible = 1 + len(certified) + len(translations)
    return Genus1FinitenessReport(
        fixing=tuple((phi, fixed) for phi, fixed, _ in certified),
        compatible_translations=tuple((phi, shifts) for phi, _, shifts in certified),
        kernel_sizes=tuple(kernel_sizes),
        admissible_count=admissible,
        certified_bound=2 ** admissible,
    )


def max_singleton_bound(E: ECurve) -> int:
    """The largest verify_genus1_finiteness(E, [Q]).certified_bound over the
    points Q of E, read off the fibre tables with no law call.  For S = {Q},
    (P, u) is admissible exactly when Q's fibre under 1 - sigma_u is (Q,),
    and a lone admissible (P, u) has no compatible translation, so Q's bound
    is 2^(1 + #{u != 1 : Q is alone in its fibre})."""
    one = fq_one(E.spec)
    alone = collections.Counter(
        fibre[0]
        for u in aut0(E)
        if u != one
        for fibre in _one_minus_sigma_fibres(E, u).values()
        if len(fibre) == 1
    )
    return 2 ** (1 + max(alone.values(), default=0))


# ---------------------------------------------------------------------------
# the versioned test-curve suite (covers all three Aut_0 sizes)


def standard_test_curves() -> tuple[tuple[str, ECurve], ...]:
    from .gfq import field_make

    F5 = field_make(5, 1)
    F7 = field_make(7, 1)
    F13 = field_make(13, 1)
    return (
        ("F5_j1728", ECurve(F5, fq_one(F5), fq_zero(F5))),
        ("F13_j1728", ECurve(F13, fq_one(F13), fq_zero(F13))),
        ("F7_j0", ECurve(F7, fq_zero(F7), fq_one(F7))),
        ("F5_generic", ECurve(F5, fq_one(F5), fq_one(F5))),
    )


# ---------------------------------------------------------------------------
# text formats


def render_curve(E: ECurve) -> str:
    return f"{render_field_spec(E.spec)}:a={render_element(E.a)},b={render_element(E.b)}"


def parse_curve(text: str) -> ECurve:
    """Parse "p^n:a=...,b=..." (coefficients in element format)."""
    head, _, tail = text.strip().partition(":")
    spec = parse_field_spec(head)
    if not tail.startswith("a="):
        raise ValueError(f"curve spec must look like p^n:a=...,b=..., got {text!r}")
    a_part, sep, b_part = tail[2:].partition(",b=")
    if not sep:
        raise ValueError(f"curve spec must look like p^n:a=...,b=..., got {text!r}")
    return ECurve(spec, parse_element(spec, a_part), parse_element(spec, b_part))


def render_ec_point(P: ECPoint) -> str:
    if P.is_zero:
        return "O"
    return f"({render_element(P.x)},{render_element(P.y)})"
