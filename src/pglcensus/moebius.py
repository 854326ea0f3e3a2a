"""The projective line over F_q and its fractional linear self-maps.

An element of PGL2(F_q) is the 4-tuple (a, b, c, d) of the entry codes of
its normalized matrix: the class representative scaled so that the first
nonzero entry in scan order is 1, which makes equality, hashing and sorted
subgroup listings well defined; within one field, tuple order is the
lexicographic order of the entries.  A tuple carries no field, as a genus-1
point (elliptic) carries none: the field is on the container
(stdgroups.SubgroupPGL2) or is passed beside the codes.  Products, inverses
and normalization run on these tuples, and the action on points and the
three-point frames on point codes, through one kernel per field, _kernel,
as the genus-1 law does; mob_compose memoizes its law per (field, x, y).

Points of P^1 are either affine, with a single field coordinate (projective
[x:1]), or the point at infinity [1:0].  A point is an int, its code: the
code of x, or q for infinity, so infinity sorts last.  Like a map, it
carries no field; a locus is a tuple of codes beside its field.  Fixed
points of a non-identity map are eigen-directions of its matrix, found on
codes by _code_fixed; since the characteristic polynomial is quadratic,
extension degree r = 2 always suffices to capture every fixed point of the
algebraic closure.

Text formats: a map is "[a,b;c,d]" where each row holds the 2n coefficients
of its two entries; a point is "inf" or an element in coefficient form.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import SimpleNamespace
from typing import Iterator, Sequence

from .gfq import (
    FieldSpec,
    _artin_schreier_table,
    _embedding_table,
    _int_code,
    _sqrt_table,
    extension_field,
    parse_element,
    render_element,
)


def pp1_infinity(spec: FieldSpec) -> int:
    """The code of the point at infinity of P^1(F_q): q, after every affine
    point."""
    return spec.q


def _check_points(spec: FieldSpec, points: Sequence, role: str) -> None:
    """Refuse any of the points that is not a point code of P^1(F_q), an int
    in 0..q: a code carries no field, so it is checked against the one it is
    given with."""
    for x in points:
        if type(x) is not int or not 0 <= x <= spec.q:
            raise ValueError(f"{role} point {x!r} is not a point code of P^1 over F_{spec.p}^{spec.n} (0..{spec.q})")


def render_point(spec: FieldSpec, x: int) -> str:
    return "inf" if x == spec.q else render_element(spec, x)


def parse_point_list(spec: FieldSpec, text: str) -> list[int]:
    """Parse a comma-separated point list into point codes.  The token "inf"
    is a point; any other run of spec.n consecutive integer tokens is one
    affine coordinate."""
    tokens = [t.strip() for t in text.split(",") if t.strip() != ""]
    points = []
    i = 0
    while i < len(tokens):
        if tokens[i] == "inf":
            points.append(spec.q)
            i += 1
        else:
            chunk = tokens[i : i + spec.n]
            if len(chunk) < spec.n or any(t == "inf" for t in chunk):
                raise ValueError(f"point list {text!r} does not split into {spec.n}-coefficient points")
            points.append(parse_element(spec, ",".join(chunk)).code)
            i += spec.n
    return points


@lru_cache(maxsize=None)
def _kernel(spec: FieldSpec) -> SimpleNamespace:
    """PGL2(F_q) on entry and point codes, bound once per field as
    elliptic._chord_tangent binds a curve's law.  Its members:

    * law(x, y): the normalized product x*y (x after y) of 4-tuples of
      entry codes (a, b, c, d); identity: (one, 0, 0, one), one = spec.one;
    * normalize(a, b, c, d): [[a,b],[c,d]] scaled by 1/(a or b), as a
      nonsingular matrix has a nonzero first row; refuses singular ones;
    * inverse(g): the normalized adjugate [[d,-b],[-c,a]] of the map g;
    * neg[c]: the code of -c;
    * apply(g, x): the image of the point code x (infinity is q) under g;
    * frame(x1, x2, x3): the entry codes, not normalized, of the map sending
      the distinct points x1, x2, x3 to (0, 1, inf): with z_i = [x_i:y_i]
      (inf = [1:0]) and d_ij = x_i y_j - y_i x_j, [[y1 d23, -x1 d23],
      [y3 d21, -x3 d21]];
    * quadratic(g), for c != 0: the codes (B, C) of g's fixed-point
      quadratic x^2 + Bx + C, from c x^2 + (d - a) x - b = 0.

    They run on logs (gfq._FieldTables: m = q - 1, exp[k] for -3m <= k <
    3m), with zero = 4m for the log of 0 (lg[c] is the log of c), so that
    a product of entries has the sum of their logs, below 2m - 1 unless a
    factor is 0, and the sum of two products with logs u and v the log
    u + zx[v - u]: zx[k] is the Zech log of k (zero where 1 + g^k = 0) for
    |k| < 2m - 1, else 0 (v is 0) or k (u is 0).  Such a log is below
    3m - 2, or at least zero for 0, and exp[r - s] is a quotient: law reads
    the 8 entry logs once and scales by one shift of the leading one."""
    t = spec._tables
    m, exp, half, q = t.m, t.exp, t.half, spec.q
    zero = 4 * m
    zech = [zero if z is None else z for z in t.zech]  # period m, 2m long
    near = 2 * m - 1
    zx = (
        zech[:near]  # 0 <= k < near
        + [0] * (2 * zero + 1 - near)  # near <= k <= 2 zero
        + list(range(-2 * zero, 1 - near))  # -2 zero <= k <= -near
        + zech[2 * m - near + 1 :]  # -near < k < 0, as k + 2m
    )
    lg = [zero] + t.log[1:]
    neg = [0] + [exp[k + half] for k in t.log[1:]]
    one = spec.one
    identity = (one, 0, 0, one)

    def law(x, y):
        # a product of nonsingular matrices is nonsingular, so a or b is nonzero
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        a1, b1, c1, d1 = lg[a1], lg[b1], lg[c1], lg[d1]
        a2, b2, c2, d2 = lg[a2], lg[b2], lg[c2], lg[d2]
        u = a1 + a2
        a = u + zx[b1 + c2 - u]
        u = a1 + b2
        b = u + zx[b1 + d2 - u]
        u = c1 + a2
        c = u + zx[d1 + c2 - u]
        u = c1 + b2
        d = u + zx[d1 + d2 - u]
        if a < zero:
            return one, exp[b - a] if b < zero else 0, exp[c - a] if c < zero else 0, exp[d - a] if d < zero else 0
        return 0, one, exp[c - b] if c < zero else 0, exp[d - b] if d < zero else 0

    def normalize(a, b, c, d):
        u = lg[a] + lg[d]
        if u + zx[lg[neg[b]] + lg[c] - u] >= zero:  # ad - bc = 0
            raise ValueError("singular matrix does not define a Moebius map")
        return law((a, b, c, d), identity)

    def inverse(g):
        a, b, c, d = g
        return law((d, neg[b], neg[c], a), identity)

    def apply(g, x):
        a, b, c, d = g
        a, b, c, d = lg[a], lg[b], lg[c], lg[d]
        if x == q:  # [1:0] -> [a:c]
            num, den = a, c
        else:  # [x:1] -> [ax + b : cx + d]
            x = lg[x]
            u = a + x
            num = u + zx[b - u]
            u = c + x
            den = u + zx[d - u]
        if den >= zero:
            return q
        return exp[num - den] if num < zero else 0

    def frame(x1, x2, x3):
        # the logs of x, y, -x and -y
        (x1, y1, n1, _), (x2, _, _, ny2), (x3, y3, n3, _) = (
            (0, zero, half, zero) if x == q else (lg[x], 0, lg[neg[x]], half) for x in (x1, x2, x3)
        )
        u = x2 + y3
        d23 = u + zx[ny2 + x3 - u]
        u = x2 + y1
        d21 = u + zx[ny2 + x1 - u]
        return (
            exp[y1 + d23] if y1 < zero else 0,
            exp[n1 + d23] if n1 < zero else 0,
            exp[y3 + d21] if y3 < zero else 0,
            exp[n3 + d21] if n3 < zero else 0,
        )

    log, sub = t.log, t.sub

    def quadratic(g):
        a, b, c, d = g
        x = sub(d, a)
        return exp[log[x] - log[c]] if x else 0, exp[log[neg[b]] - log[c]] if b else 0

    return SimpleNamespace(
        law=law,
        normalize=normalize,
        identity=identity,
        inverse=inverse,
        apply=apply,
        frame=frame,
        neg=neg,
        quadratic=quadratic,
    )


@lru_cache(maxsize=None)
def _code_fixed(spec: FieldSpec, r: int):
    """fixed(g): the sorted point codes over F_{q^r} (infinity is q^r) fixed
    by the non-identity map with entry codes g, bound once per (field, r).
    A translation (c = 0, d = a) fixes infinity alone, any other map with
    c = 0 also b/(d - a), and one with c != 0 the roots of its quadratic
    (B, C): (-B +- s)/2 for the square roots s of B^2 - 4C when p is odd;
    when p = 2 the square root of C if B = 0, else B y with y^2 + y = C/B^2.
    Only a point other than infinity builds the tables of F_{q^r}."""
    t = spec._tables
    log, exp, sub, mul = t.log, t.exp, t.sub, t.mul
    quadratic = _kernel(spec).quadratic
    ext = extension_field(spec, r)
    inf = ext.q
    four = _int_code(spec, 4)
    emb = emul = esub = half = sqrt = solve = None

    def div(x, y):
        return exp[log[x] - log[y]] if x else 0

    def fixed(g):
        nonlocal emb, emul, esub, half, sqrt, solve
        a, b, c, d = g
        if not c and a == d:
            return [inf]
        if emb is None:
            emb = _embedding_table(spec, ext) if r > 1 else range(spec.q)
            emul, esub = ext._tables.mul, ext._tables.sub
            half = _int_code(ext, (spec.p + 1) // 2)
        if not c:
            return [emb[div(b, sub(d, a))], inf]
        if sqrt is None:
            sqrt, solve = _sqrt_table(ext), _artin_schreier_table(ext) if spec.p == 2 else None
        B, C = quadratic(g)
        if spec.p != 2:
            roots = (emul(esub(s, emb[B]), half) for s in sqrt.get(emb[sub(mul(B, B), mul(four, C))], ()))
        elif not B:
            return [sqrt[emb[C]][0]]
        else:
            roots = (emul(emb[B], y) for y in solve.get(emb[div(C, mul(B, B))], ()))
        return sorted(roots)

    return fixed


def _triple_map(spec: FieldSpec, source: tuple[int, int, int, int], dst: tuple[int, int, int]) -> tuple[int, int, int, int]:
    """Entry codes of the map sending a triple with frame `source` (from
    the kernel's frame) to the distinct point codes dst: the adjugate of dst's frame
    after `source`, one normalized product."""
    K = _kernel(spec)
    a, b, c, d = K.frame(*dst)
    return K.law((d, K.neg[b], K.neg[c], a), source)


@lru_cache(maxsize=1 << 18)
def mob_compose(spec: FieldSpec, x: tuple[int, int, int, int], y: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The map x after y (matrix product XY) over spec, memoized.  Only
    conjugacy calls it; the searches call the kernel's law.  It stays
    memoized, as perfbench's trace reads its cache_info."""
    return _kernel(spec).law(x, y)


def mob_infinity_to(spec: FieldSpec, x: int) -> tuple[int, int, int, int]:
    """A fixed choice of map over spec sending infinity to the point code x:
    t -> x + 1/t, or the identity when x is infinity."""
    K, one = _kernel(spec), spec.one
    if x == spec.q:
        return K.identity
    return K.normalize(x, one, one, 0)


def mob_fixed_points(spec: FieldSpec, g: tuple[int, int, int, int], r: int) -> list[int]:
    """The codes of the fixed points in P^1(F_{q^r}) of the non-identity map
    of PGL2(F_q) with entry codes g, sorted: the kernel _code_fixed, in
    closed form, not by scanning F_{q^r}.  Taking r >= 2 captures every
    fixed point of the algebraic closure; the result then has exactly one or
    two points.  Either all of them lie in F_q, or they are a
    Frobenius-conjugate pair outside it: so at r = 1 the result is empty
    exactly when the fixed-point quadratic has no root in F_q.
    """
    if g == _kernel(spec).identity:
        raise ValueError("the identity fixes every point of P^1")
    return _code_fixed(spec, r)(g)


def _distinct_codes(points: Sequence[int], role: str) -> tuple[int, ...]:
    codes = tuple(points)
    if len(set(codes)) != len(codes):
        raise ValueError(f"{role} points must be pairwise distinct")
    return codes


def mob_from_three_points(spec: FieldSpec, src: Sequence[int], dst: Sequence[int]) -> tuple[int, int, int, int]:
    """The entry codes of the unique map over spec sending the ordered
    triple of point codes src to dst."""
    if len(src) != 3 or len(dst) != 3:
        raise ValueError("need exactly three source and three destination points")
    source = _kernel(spec).frame(*_distinct_codes(src, "source"))
    return _triple_map(spec, source, _distinct_codes(dst, "destination"))


def transporters(
    spec: FieldSpec, L0: Sequence[int], S: Sequence[int], H: Sequence[tuple[int, int, int, int]] = ()
) -> Iterator[tuple[int, int, int, int]]:
    """The entry codes, over spec, of one map g with g(L0) = S per coset
    g.Fix(L0).H, where Fix(L0) is the pointwise stabilizer of L0 and H, by
    default trivial, is a group, given by the entry codes of its maps, that
    stabilizes L0 setwise (L0 and S distinct point codes, none if
    |L0| != |S|).
    |L0| >= 3: Fix(L0) = 1; per ordered triple of S, in permutations order,
    the map sending L0[:3] onto it, if it sends the rest of L0 into S and is
    not g.h for an earlier g: since (g.h)(L0[j]) = g(L0[i]) with
    h(L0[j]) = L0[i], each g yielded marks the triples of its coset, which
    are then skipped before their map is built.  So the maps are those of
    transporters(spec, L0, S) that come first in their coset, in the same
    order.
    |L0| = 2: Fix(L0) is a torus; one map per arrangement of S, sending the
    first point of P^1 outside L0 to the first one outside S.  H is not used
    there: a census model with a two-point locus lies in the torus.
    The search runs on point and entry codes: the frame of L0[:3] is built
    once, and each triple costs one _triple_map and the images of L0[3:]."""
    if len(L0) != len(S):
        return
    if len(L0) < 2:
        raise ValueError("transporters need at least two points")
    src = _distinct_codes(L0, "source")
    dst = _distinct_codes(S, "destination")
    apply, frame = _kernel(spec).apply, _kernel(spec).frame
    if len(L0) == 2:
        # infinity's code is q, after every affine point
        source = frame(*src, next(x for x in range(spec.q + 1) if x not in src))
        third = next(x for x in range(spec.q + 1) if x not in dst)
        for first, second in ((dst[0], dst[1]), (dst[1], dst[0])):
            yield _triple_map(spec, source, (first, second, third))
        return
    where = {x: i for i, x in enumerate(src)}
    try:
        # h(L0[j]) = L0[perm[j]], one perm per h in H; only j < 3 is used
        perms = {tuple(where[apply(h, x)] for x in src)[:3] for h in H}
    except KeyError:
        raise ValueError("H does not stabilize L0") from None
    source, rest = frame(*src[:3]), src[3:]
    targets = set(dst)
    covered = set()
    for triple in itertools.permutations(dst, 3):
        if triple in covered:
            continue
        g = _triple_map(spec, source, triple)
        image = list(triple)  # g(L0)
        for x in rest:
            image.append(apply(g, x))
            if image[-1] not in targets:
                break
        else:
            yield g
            covered.update((image[i], image[j], image[k]) for i, j, k in perms)


def _pgl2_codes(spec: FieldSpec) -> Iterator[tuple[int, int, int, int]]:
    """The entry codes of all q^3 - q normalized maps of PGL2(F_q), in
    canonical (lexicographic entry) order."""
    one, mul, q = spec.one, spec._tables.mul, spec.q
    # first nonzero entry is b: a = 0, b = 1, c != 0
    for c in range(1, q):
        for d in range(q):
            yield 0, one, c, d
    # first nonzero entry is a: a = 1, d - bc != 0
    for b in range(q):
        for c in range(q):
            bc = mul(b, c)
            for d in range(q):
                if d != bc:
                    yield one, b, c, d


def _render_codes(spec: FieldSpec, codes: tuple[int, int, int, int]) -> str:
    """The text "[a,b;c,d]" of the map with these entry codes."""
    a, b, c, d = (render_element(spec, x) for x in codes)
    return f"[{a},{b};{c},{d}]"


def parse_moebius(spec: FieldSpec, text: str) -> tuple[int, int, int, int]:
    """The normalized entry codes of the map written "[a,b;c,d]"."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"Moebius map must look like [a,b;c,d], got {text!r}")
    rows = text[1:-1].split(";")
    if len(rows) != 2:
        raise ValueError(f"Moebius map needs two rows, got {text!r}")
    entries = []
    for row in rows:
        try:
            parts = [int(t) for t in row.split(",")]
        except ValueError:
            raise ValueError(f"Moebius map must look like [a,b;c,d], with integer coefficients, got {text!r}") from None
        if len(parts) != 2 * spec.n:
            raise ValueError(f"row {row!r} does not hold two elements of F_{spec.p}^{spec.n}")
        entries.append(parse_element(spec, ",".join(str(x) for x in parts[: spec.n])).code)
        entries.append(parse_element(spec, ",".join(str(x) for x in parts[spec.n :])).code)
    return _kernel(spec).normalize(*entries)
