"""The genus-1 side: elliptic curves over F_q and their automorphisms.

A curve is short Weierstrass y^2 = x^3 + ax + b with p > 3, so the
automorphisms fixing the base point O are exactly the scalings
(x, y) -> (u^2 x, u^3 y) with u^4 a = a and u^6 b = b, and the full
automorphism group splits as translations semidirect base-point-fixing
automorphisms.  An automorphism is written as a pair (P, u): translate by P
after scaling by u, so (P, u)(Q) = sigma_u(Q) + P and composition is
(P, u)(Q, v) = (P + sigma_u(Q), u v).

A point is its coordinate codes: the pair (x, y), or the empty tuple () for
O, so tuple order is code order with O first.  A curve has one field: its
coefficients a and b and every scaling factor u are element codes of
E.spec; base_change(E, r) is the same equation over F_{q^r}.  Point sets,
torsion, kernels and fixed-point fibres over E's field come from direct
scans through one chord-tangent law per curve, on its field's log, antilog
and Zech tables.  The scan of 1 - sigma_u runs once per (curve, u) into a
cached fibre table, keyed by the law's own output: the fixing check applies
each (P, u) to the points of its fibre over P, and the singleton bound
counts the fibres of one point, so checking all N points costs O(|Aut_0| N)
law calls.  The fixed-point dichotomy alone looks above E's field, and it
builds no field to do so: the x-coordinates of a fibre of 1 - sigma_u are
the roots of a polynomial of degree <= 4 over E's field, whose factor
degrees give the fibre's size at every level, with no factoring: one sweep
of the field finds every rational root, and the parity of the discriminant
tells {4} from {2, 2} (L. Stickelberger, 1897; R. G. Swan, 1962).  The sizes
are constant on the orbits x -> w^2 x of Aut_0 over E's field, and u^-1 has
u's, as 1 - sigma_{u^-1} = -sigma_{u^-1}(1 - sigma_u): one sweep per pair
{u, u^-1}, one x-map value and one polynomial per orbit, and level 1 still
checked per (P, u).  Orders 1 to 4 share one torsion walk and one growth.

Everything here powers exhaustive verification of the genus-1 finiteness
facts: an automorphism is fixed point free iff it is a nontrivial pure
translation; nonempty fixed sets of (P, u != 1) are cosets of ker(1 - sigma_u);
each point is fixed by exactly |Aut_0| automorphisms; and the group actions
whose stabilized locus is one point are finitely many, bounded by
max_singleton_bound from the same fibre tables.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import Sequence

from .closure import close, order, subgroup_layers
from .gfq import (
    FieldSpec,
    Record,
    _embedding_table,
    _int_code,
    _inverse_cache,
    _sqrt_table,
    cpoly_chi_disc,
    cpoly_chi_res,
    cpoly_deriv,
    cpoly_divmod,
    cpoly_gcd,
    cpoly_mul,
    cpoly_sub,
    extension_field,
    parse_element,
    parse_field_spec,
    render_element,
    render_field_spec,
    roots_of_unity,
)


class ECurve(Record):
    """y^2 = x^3 + ax + b over F_q with p > 3 and nonzero discriminant; a and
    b are element codes of F_q."""

    spec: FieldSpec
    a: int
    b: int

    def __post_init__(self):
        spec, a, b = self.spec, self.a, self.b
        if spec.p <= 3:
            raise ValueError("short Weierstrass curves require characteristic > 3")
        if any(type(c) is not int or not 0 <= c < spec.q for c in (a, b)):
            raise ValueError(f"coefficients must be element codes of F_{spec.p}^{spec.n} (0..{spec.q - 1})")
        mul = spec._tables.mul
        disc = spec._tables.add(mul(_int_code(spec, 4), mul(a, mul(a, a))), mul(_int_code(spec, 27), mul(b, b)))
        if not disc:
            raise ValueError("singular curve: 4a^3 + 27b^2 = 0")

    def __repr__(self) -> str:
        return f"ECurve({render_curve(self)})"


@lru_cache(maxsize=None)
def _chord_tangent(E: ECurve):
    """The chord-tangent law of E on points: law(x1, y1, x2, y2) gives
    P1 + P2 for affine P1 = (x1, y1) and P2 = (x2, y2), the pair (x3, y3), or
    () when the sum is O.  Every field operation is a code operation or a
    lookup in the tables of E's field (gfq._FieldTables), bound here once per
    curve."""
    t = E.spec._tables
    log, exp, m, add, sub = t.log, t.exp, t.m, t.add, t.sub
    log2, log3 = log[_int_code(E.spec, 2)], log[_int_code(E.spec, 3)]
    a = E.a

    def law(x1, y1, x2, y2):
        if x1 == x2:
            if y1 != y2 or not y1:
                return ()  # vertical line
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


def _code_add(law, A, B):
    """A + B for points through a curve's law, () being O."""
    if not A:
        return B
    if not B:
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
    emb = _embedding_table(E.spec, ext)
    return ECurve(ext, emb[E.a], emb[E.b])


@lru_cache(maxsize=None)
def ec_points(E: ECurve) -> tuple[tuple[int, ...], ...]:
    """All points of E over its field, by scanning x and solving for y: O
    first, then the pairs (x, y) in code order."""
    t, sqrt, f = E.spec._tables, _sqrt_table(E.spec), [E.b, E.a, 0, E.spec.one]
    return ((),) + tuple((x, y) for x in range(E.spec.q) for y in sqrt.get(_at(t, f, x), ()))


def aut0(E: ECurve) -> tuple[int, ...]:
    """The base-point-fixing automorphisms over E's field, as the codes of
    their scaling factors u (u^4 a = a, u^6 b = b): the 6th roots of unity
    if a = 0, the 4th if b = 0, else +-1.  Contains 1 and -1; has 2, 4 or 6
    members depending on whether a or b vanishes and which roots of unity are
    present."""
    d = 6 if not E.a else 4 if not E.b else 2
    return tuple(roots_of_unity(E.spec, d))


# ---------------------------------------------------------------------------
# automorphisms as pairs (translation point, scaling factor)


def _scaling_codes(E: ECurve, log_u: int):
    """sigma_u on coordinate codes, given log u: (x, y) -> (u^2 x, u^3 y)."""
    t = E.spec._tables
    log, exp = t.log, t.exp
    shift_x, shift_y = 2 * log_u % t.m, 3 * log_u % t.m

    def scale(x, y):
        return (exp[shift_x + log[x]] if x else 0), (exp[shift_y + log[y]] if y else 0)

    return scale


@lru_cache(maxsize=None)
def _one_minus_sigma_fibres(E: ECurve, u: int) -> dict[tuple, tuple]:
    """Fibres of Q -> Q - sigma_u(Q) on the points of E, keyed by image
    point as the law gives it, for the code u of a nonzero element of E's
    field.  Each fibre is nonempty and in point order."""
    if not u:
        raise ValueError("scaling factor must be nonzero")
    t = E.spec._tables
    law = _chord_tangent(E)
    neg_sigma = _scaling_codes(E, t.log[u] + t.half)  # -sigma_u = sigma_{-u}
    fibres: dict = {}
    for Q in ec_points(E):
        fibres.setdefault(Q and law(*Q, *neg_sigma(*Q)), []).append(Q)
    return {P: tuple(fibre) for P, fibre in fibres.items()}


def _fixing_pairs(E: ECurve, u: int):
    """(Q, P) for every point Q in the fibre table of 1 - sigma_u, with P the
    translation part of the automorphism (P, u) fixing Q: Q lies in the
    fibre over P.  Each pair is checked by applying (P, u) to Q on codes,
    sigma_u(Q) + P = Q through the law (the definition of fixing, not the
    table's own Q - sigma_u(Q)), else AssertionError."""
    law, scale = _chord_tangent(E), _scaling_codes(E, E.spec._tables.log[u])
    for P, fibre in _one_minus_sigma_fibres(E, u).items():
        for Q in fibre:
            if _code_add(law, Q and scale(*Q), P) != Q:
                raise AssertionError(
                    f"(P={render_ec_point(E, P)}, u={render_element(E.spec, u)}) does not fix {render_ec_point(E, Q)}"
                )
            yield Q, P


def fixing_counts_ok(E: ECurve) -> bool:
    """Whether every point of E is fixed by exactly |Aut_0| automorphisms:
    for each u in Aut_0 the checked pairs of _fixing_pairs, one pass over the
    fibre table of 1 - sigma_u, must cover E's points once each.  Then each
    point is fixed by one (P, u) per u, since P = Q - sigma_u(Q) is unique."""
    pts = list(ec_points(E))
    return all(sorted(Q for Q, _ in _fixing_pairs(E, u)) == pts for u in aut0(E))


@lru_cache(maxsize=None)
def _orders(E: ECurve, cap: int) -> tuple[tuple[tuple, int | None], ...]:
    """Every point of E over its field, in code order, with its order, or
    None past cap: one order walk per point through the law."""
    add = partial(_code_add, _chord_tangent(E))
    return tuple((Q, order(Q, add, (), cap)) for Q in ec_points(E))


def _torsion(E: ECurve, n: int) -> tuple[tuple[tuple, int], ...]:
    """The points of E[n] over E's field, in code order, each with its order,
    read off the walks _orders(E, max(n, 4)) that n = 1 to 4 share."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return tuple((Q, k) for Q, k in _orders(E, max(n, 4)) if k is not None and n % k == 0)


def torsion_invariant_factors(E: ECurve, n: int) -> tuple[int, int]:
    """Invariant factors (d1, d2) of the n-torsion subgroup of E over its
    field: d1 is the exponent, d1*d2 the order (the group has rank at most 2)."""
    torsion = _torsion(E, n)
    exponent = math.lcm(*(k for _, k in torsion))
    return exponent, len(torsion) // exponent


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _subgroups(E: ECurve, cap: int) -> dict[int, tuple[tuple[tuple, ...], ...]]:
    """{n: enum_spf_actions(E, n)} for n <= cap, from one growth capped at cap
    over the points of order <= cap, which hold every such subgroup."""
    layers = subgroup_layers([Q for Q, k in _orders(E, cap) if k], partial(_code_add, _chord_tangent(E)), (), cap)
    subs = sorted({tuple(sorted(H)) for layer in layers for H in layer})
    return {n: tuple(H for H in subs if len(H) == n) for n in range(1, cap + 1)}


def enum_spf_actions(E: ECurve, n: int) -> list[tuple[tuple, ...]]:
    """All order-n subgroups of the n-torsion of E over its field, each as
    its sorted points, in sorted order: the translation groups realizing the
    stabilized-point-free actions of order n visible over that field, read
    off the one growth _subgroups(E, max(n, 4)) that n = 1 to 4 share."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return list(_subgroups(E, max(n, 4))[n])


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


def _one_minus_sigma_map(E: ECurve, u: int) -> tuple[list, list]:
    """x(Q - sigma_u(Q)) = N(x) / D(x) for u != 1, as code polynomials in
    lowest terms (Silverman, AEC III.2).  For u = -1 it is the doubling map;
    else, with v = -u, the chord through Q and sigma_v(Q) = (v^2 x, v^3 y)
    has slope (v^3 - 1) y / ((v^2 - 1) x)."""
    spec, t, a, b = E.spec, E.spec._tables, E.a, E.b
    add, sub, mul, one = t.add, t.sub, t.mul, spec.one
    if u == t.exp[t.half]:  # u = -1
        four, minus_two, minus_eight = (_int_code(spec, k) for k in (4, -2, -8))
        N = [mul(a, a), mul(minus_eight, b), mul(minus_two, a), 0, one]
        D = [mul(four, b), mul(four, a), 0, four]
    else:
        v2 = mul(u, u)
        c, w = add(one, mul(u, v2)), sub(v2, one)  # v^3 - 1 = -(1 + u^3)
        c, w = mul(c, c), mul(w, w)
        N = [mul(c, b), mul(c, a), 0, sub(c, mul(add(one, v2), w))]
        D = [0, 0, w]
    g = cpoly_gcd(spec, N, D)
    return cpoly_divmod(spec, N, g)[0], cpoly_divmod(spec, D, g)[0]


def _x_preimages(E: ECurve, N: list, D: list) -> dict:
    """One sweep of E's field for the x-map N/D of 1 - sigma_u, N and D
    coprime: {c: the x in F_q, in code order, with N(x)/D(x) = c}, the roots
    of D under None, so the rational roots of every N - c D at once.  One
    evaluation per orbit of _x_orbits: N/D(w^2 x) = w^2 N/D(x) (AEC III.10)."""
    t, orbit = E.spec._tables, _x_orbits(E)
    log, exp = t.log, t.exp
    at = {r: (_at(t, N, r), _at(t, D, r)) for r in set(orbit.values())}  # N and D at each orbit's representative
    preimages: dict = {}
    for x in range(E.spec.q):
        n, d = at[r := orbit[x]]  # N/D(x) = N/D(r) x / r; exp wraps the logs' sum in (-2m, 2m)
        c = (exp[log[n] - log[d] + (log[x] - log[r] if x else 0)] if n else 0) if d else None
        preimages.setdefault(c, []).append(x)
    return preimages


def _at(t, poly: list, x: int) -> int:
    """The code polynomial poly at the code x, by Horner over the tables t."""
    v = 0
    for c in reversed(poly):
        v = t.add(t.mul(v, x), c)
    return v


def _fibre_sizes(E: ECurve, N: list, D: list, preimages: dict, P: tuple, levels: tuple[int, ...]) -> list[int]:
    """|(1 - sigma_u)^{-1}(P)| over F_{q^r} for each r in levels, where N/D is
    the x-map of 1 - sigma_u and preimages its sweep _x_preimages; the same
    for u^-1 and on P's orbit under rational Aut_0 (verify_fpf_dichotomy).  The
    x-coordinates of the fibre are the roots of h = N - x_P D (of D when
    P = O), and the degrees of the irreducible factors of its squarefree part
    s tell which of them lie in F_{q^r}.

    The sweep gives the rho rational roots.  The rest of s has no linear
    factor and degree deg s - rho <= 4, so it is one irreducible factor
    unless it is {2, 2}, which Stickelberger's theorem tells from {4}:
    chi(disc s) = (-1)^(deg s - #factors) (gfq.cpoly_chi_disc).

    If y_P != 0, each root carries one fibre point, rational with its x.  If
    y_P = 0, the fibre is closed under negation, and a root x of degree k
    carries the 1 + chi(f(x)) points (x, +-sqrt(f(x))), chi the quadratic
    character of F_{q^r}: chi(f(x)) = chi_k(f(x))^(r/k), and chi_k(f(x)) is
    chi(N(f(x))) = chi(Res(g, f) / lc(g)^3) over the conjugates, the roots of
    x's factor g.  The fibre over O also holds O."""
    spec, t, one = E.spec, E.spec._tables, E.spec.one
    h = cpoly_sub(spec, N, cpoly_mul(spec, [P[0]], D)) if P else D
    roots = preimages.get(P[0] if P else None, ())
    # h is squarefree when disc h != 0, or when its roots are all rational
    chi_disc = 1 if len(h) - 1 == len(roots) else cpoly_chi_disc(spec, h)
    s = h if chi_disc else cpoly_divmod(spec, h, cpoly_gcd(spec, h, cpoly_deriv(spec, h)))[0]
    rest = len(s) - 1 - len(roots)
    split = (2, 2) if rest == 4 and chi_disc == 1 else (rest,) if rest else ()
    if rest not in (0, 2, 3, 4) or (chi_disc and chi_disc != (-1) ** (rest - len(split))):
        raise AssertionError(
            f"fibre polynomial of (P={render_ec_point(E, P)}) has {len(roots)} rational roots, "
            f"squarefree degree {len(s) - 1} and disc character {chi_disc}"
        )
    if P and P[1]:
        classes = [(k, 0) for k in (1,) * len(roots) + split]  # (degree, chi_k(f(x))): one point per root
    else:
        f = [E.b, E.a, 0, one]
        classes = [(1, _chi(t, _at(t, f, x))) for x in roots]
        if split == (2, 2):
            raise AssertionError(f"fibre polynomial of (P={render_ec_point(E, P)}) splits as {{2, 2}} under y_P = 0")
        if rest:
            g = s  # the rest: s without its rational roots
            for x in roots:
                g = cpoly_divmod(spec, g, [t.sub(0, x), one])[0]
            classes.append((rest, cpoly_chi_res(spec, g, f) * _chi(t, g[-1])))
    return [int(not P) + sum(k * (1 + c ** (r // k)) for k, c in classes if r % k == 0) for r in levels]


def _chi(t, c: int) -> int:
    """The quadratic character of the code c: 0, or 1 and -1 by its log's parity."""
    return 0 if not c else -1 if t.log[c] % 2 else 1


@lru_cache(maxsize=None)
def _x_orbits(E: ECurve) -> dict[int, int]:
    """x code -> a code on its orbit x -> w^2 x, w in Aut_0 over E's field: the
    w^2 are the k = |Aut_0|/2 powers of g^(m/k), m = q - 1, so g^l -> g^(l mod m/k)."""
    t, k = E.spec._tables, len(aut0(E)) // 2
    return {0: 0} | dict(zip(t.exp[: t.m], t.exp[: t.m // k] * k))


def verify_fpf_dichotomy(E: ECurve, levels: Sequence[int] = (1, 2, 3)) -> FpfDichotomyReport:
    """Fibre sizes from _fibre_sizes, over E's own field for every level,
    computed once per pair {u, u^-1} (u != 1) and orbit of _x_orbits, then
    read per (P, u).  For w in Aut_0 over E's field, sigma_w commutes with
    sigma_u, so it maps the fibre over P onto the fibre over sigma_w(P) =
    (w^2 x_P, w^3 y_P), and the sizes depend on x_P alone (a point with y = 0
    is alone on its x).  And 1 - sigma_{u^-1} = -sigma_{u^-1}(1 - sigma_u), so
    u^-1's fibre over P is u's over sigma_{-u}(P), on P's orbit.  Per pair,
    one sweep _x_preimages, then one fibre polynomial per orbit and one for
    the kernel; none is factored.  Level 1, if present, is still checked per
    (P, u), u^-1 included, against the scan _one_minus_sigma_fibres."""
    levels = tuple(levels)
    if not levels:
        # with no level, every (P, u != 1) would count as free everywhere
        raise ValueError("need at least one level")
    for r in (1, *levels):  # level 1 first: the base points are scanned
        _check_level(E, r)
    one, inverse = E.spec.one, _inverse_cache(E.spec)
    base_pts = ec_points(E)
    orbit = _x_orbits(E)
    by_pair = {}  # u -> {(): the kernel's sizes, orbit of x_P: P's sizes}
    violations = []
    checked = len(base_pts) - 1  # the pure translations: free at every level
    for u in aut0(E):
        if u == one:
            continue
        if (sizes := by_pair.get(inverse[u])) is None:  # else u^-1's pass filled every key
            N, D = _one_minus_sigma_map(E, u)
            preimages = _x_preimages(E, N, D)
            sizes = by_pair[u] = {(): _fibre_sizes(E, N, D, preimages, (), levels)}
        kernel = sizes[()]
        scan = _one_minus_sigma_fibres(E, u) if 1 in levels else None
        for P in base_pts:
            checked += 1
            if (fibre_sizes := sizes.get(key := P and orbit[P[0]])) is None:
                fibre_sizes = sizes[key] = _fibre_sizes(E, N, D, preimages, P, levels)
            if scan is not None:
                got, want = fibre_sizes[levels.index(1)], len(scan.get(P, ()))
                if got != want:
                    raise AssertionError(
                        f"fibre polynomial of (P={render_ec_point(E, P)}, u={render_element(E.spec, u)}) "
                        f"gives {got} points at r=1, the scan {want}"
                    )
            for r, size, kernel_size in zip(levels, fibre_sizes, kernel):
                if size and size != kernel_size:
                    violations.append(
                        f"(P={render_ec_point(E, P)}, u={render_element(E.spec, u)}) at r={r}: "
                        f"fibre size {size} != kernel size {kernel_size}"
                    )
            if not any(fibre_sizes):
                violations.append(
                    f"(P={render_ec_point(E, P)}, u={render_element(E.spec, u)}): fibre sizes {fibre_sizes} "
                    f"across levels {levels}, expected fixed points"
                )
    return FpfDichotomyReport(levels, checked, tuple(violations))


# ---------------------------------------------------------------------------
# the singleton bound


def max_singleton_bound(E: ECurve) -> int:
    """2^(1 + max over the points Q of E of #{u != 1 in Aut_0 : Q is alone in
    its fibre under 1 - sigma_u}), read off the fibre tables with no law call.
    An action over E's field with stabilized locus {Q} is made of the identity,
    the admissible (P, u) and their compatible translations.  (P, u) is
    admissible when it fixes Q alone: Q's fibre is (Q,), P = Q - sigma_u(Q),
    one per u counted.  A lone admissible (P, u) has no compatible
    translation, since (P + R, u) with R != O fixes no point of {Q}: Q's
    fibre lies over P alone.  So each Q's bound is 2^(1 + its count).
    1 - sigma_u is a group endomorphism of E, so each of its fibres is a
    coset of its kernel, the fibre over O: Q is alone in its fibre exactly
    when that kernel is {O}, whatever Q is.  Every point has the same count,
    the number of u != 1 with a trivial kernel, and one lookup per u reads
    it."""
    alone = sum(len(_one_minus_sigma_fibres(E, u)[()]) == 1 for u in aut0(E) if u != E.spec.one)
    return 2 ** (1 + alone)


# ---------------------------------------------------------------------------
# the versioned test-curve suite (covers all three Aut_0 sizes)


def standard_test_curves() -> tuple[tuple[str, ECurve], ...]:
    from .gfq import field_make

    F5 = field_make(5, 1)
    F7 = field_make(7, 1)
    F13 = field_make(13, 1)
    return (
        ("F5_j1728", ECurve(F5, 1, 0)),
        ("F13_j1728", ECurve(F13, 1, 0)),
        ("F7_j0", ECurve(F7, 0, 1)),
        ("F5_generic", ECurve(F5, 1, 1)),
    )


# ---------------------------------------------------------------------------
# text formats


def render_curve(E: ECurve) -> str:
    return f"{render_field_spec(E.spec)}:a={render_element(E.spec, E.a)},b={render_element(E.spec, E.b)}"


def parse_curve(text: str) -> ECurve:
    """Parse "p^n:a=...,b=..." (coefficients in element format)."""
    head, _, tail = text.strip().partition(":")
    spec = parse_field_spec(head)
    if not tail.startswith("a="):
        raise ValueError(f"curve spec must look like p^n:a=...,b=..., got {text!r}")
    a_part, sep, b_part = tail[2:].partition(",b=")
    if not sep:
        raise ValueError(f"curve spec must look like p^n:a=...,b=..., got {text!r}")
    try:
        a, b = parse_element(spec, a_part).code, parse_element(spec, b_part).code
    except ValueError as err:
        raise ValueError(f"curve spec {text!r} must look like p^n:a=...,b=...: {err}") from None
    return ECurve(spec, a, b)


def render_ec_point(E: ECurve, P: tuple) -> str:
    """"O", or "(x,y)" with the coordinates in element format."""
    return f"({render_element(E.spec, P[0])},{render_element(E.spec, P[1])})" if P else "O"


# ---------------------------------------------------------------------------
# the verify-genus1 suite (the CLI's JSON payload)


def genus1_suite_to_json(curves: Sequence[tuple[str, ECurve]], levels: Sequence[int], r: int) -> dict:
    """The verify-genus1 command's record: per named curve, the fixed-point
    dichotomy at the levels, and over F_{q^r} the point count, |Aut_0|, the
    fixing counts, the stabilized-point-free actions of orders 1 to 4
    counted against abelian_subgroup_count, and the singleton bound."""
    rows = []
    ok = True
    for name, E in curves:
        dich = verify_fpf_dichotomy(E, levels)
        Er = base_change(E, r)
        pts = ec_points(Er)
        auts = aut0(Er)
        fixing_ok = fixing_counts_ok(Er)
        spf_ok = all(
            len(enum_spf_actions(Er, n)) == abelian_subgroup_count(torsion_invariant_factors(Er, n), n)
            for n in (1, 2, 3, 4)
        )
        curve_ok = dich.ok and fixing_ok and spf_ok
        ok = ok and curve_ok
        rows.append(
            {
                "curve": render_curve(E),
                "name": name,
                "points": len(pts),
                "aut0": len(auts),
                "dichotomy_ok": dich.ok,
                "fixing_counts_ok": fixing_ok,
                "spf_counts_ok": spf_ok,
                "max_singleton_bound": max_singleton_bound(Er),
                "ok": curve_ok,
                "violations": list(dich.violations),
            }
        )
    return {"schema": "pglcensus/verify-genus1/v1", "levels": list(levels), "ext": r, "curves": rows, "ok": ok}
