"""The projective line over F_q and its fractional linear self-maps.

An element of PGL2(F_q) is stored as a normalized 2x2 matrix: the class
representative is scaled so that the first nonzero entry in scan order
(a, b, c, d) equals 1, which makes equality, hashing and sorted subgroup
listings well defined.  Maps and points are gfq.CodedValue instances.  A
map's code is ((a*q + b)*q + c)*q + d over the entry codes, computed once at
construction, so the closures and the mob_compose cache never hash or compare
field elements; within one field, code order is the lexicographic order of
the entries.  Products, inverses and normalization run on 4-tuples of entry
codes, and the action on points and the three-point frames on point codes,
through one kernel per field, _kernel, as the genus-1 law does; the oracle
(dichotomy), the subgroups of stdgroups, which are entry-code tuples, the
verify_p1fp scan (p1checks) and transporters call its members directly,
off the mob_compose cache.

Points of P^1 are either affine, with a single field coordinate (projective
[x:1]), or the point at infinity [1:0].  A point's code is the code of x, or
q for infinity, so infinity sorts last.  Fixed points of a non-identity map
are eigen-directions of its matrix, found on codes by _code_fixed; since the
characteristic polynomial is quadratic, extension degree r = 2 always
suffices to capture every fixed point of the algebraic closure.

Text formats: a map is "[a,b;c,d]" where each row holds the 2n coefficients
of its two entries; a point is "inf" or an element in coefficient form.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import SimpleNamespace
from typing import Iterator, Optional, Sequence

from .closure import order
from .gfq import (
    CodedValue,
    FieldSpec,
    FqElem,
    _artin_schreier_table,
    _embedding_table,
    _render_code,
    _sqrt_table,
    extension_field,
    field_elements,
    fq_embed,
    fq_from_int,
    fq_one,
    fq_project,
    fq_zero,
    parse_element,
)


class PP1(CodedValue):
    """A point of P^1(F_q): affine with coordinate x, or infinity (x is None).
    Its code is the code of x, or q for infinity."""

    __slots__ = ("x",)

    def __init__(self, spec: FieldSpec, x: Optional[FqElem]):
        if x is not None and x.spec is not spec:
            raise ValueError("point coordinate lives in the wrong field")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "code", spec.q if x is None else x.code)

    def __reduce__(self):
        return PP1, (self.spec, self.x)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        return f"PP1({render_point(self)})"


def pp1_affine(x: FqElem) -> PP1:
    return PP1(x.spec, x)


def pp1_infinity(spec: FieldSpec) -> PP1:
    return PP1(spec, None)


def pp1_points(spec: FieldSpec) -> Iterator[PP1]:
    """The q + 1 points of P^1(F_q): affine points in element order, then infinity."""
    for x in field_elements(spec):
        yield pp1_affine(x)
    yield pp1_infinity(spec)


def pp1_embed(P: PP1, target: FieldSpec) -> PP1:
    if P.is_infinity:
        return pp1_infinity(target)
    return pp1_affine(fq_embed(P.x, target))


def render_point(P: PP1) -> str:
    return "inf" if P.is_infinity else _render_code(P.spec, P.code)


def parse_point_list(spec: FieldSpec, text: str) -> list[PP1]:
    """Parse a comma-separated point list.  The token "inf" is a point; any
    other run of spec.n consecutive integer tokens is one affine coordinate."""
    tokens = [t.strip() for t in text.split(",") if t.strip() != ""]
    points = []
    i = 0
    while i < len(tokens):
        if tokens[i] == "inf":
            points.append(pp1_infinity(spec))
            i += 1
        else:
            chunk = tokens[i : i + spec.n]
            if len(chunk) < spec.n or any(t == "inf" for t in chunk):
                raise ValueError(f"point list {text!r} does not split into {spec.n}-coefficient points")
            points.append(pp1_affine(parse_element(spec, ",".join(chunk))))
            i += spec.n
    return points


class Moebius(CodedValue):
    """Normalized representative of an element of PGL2(F_q).  Its code is the
    entry codes read as the base-q number abcd."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, spec: FieldSpec, a: FqElem, b: FqElem, c: FqElem, d: FqElem):
        q = spec.q
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "code", ((a.code * q + b.code) * q + c.code) * q + d.code)

    def __reduce__(self):
        return Moebius, (self.spec, self.a, self.b, self.c, self.d)

    def __repr__(self) -> str:
        return f"Moebius({render_moebius(self)})"


@lru_cache(maxsize=None)
def _kernel(spec: FieldSpec) -> SimpleNamespace:
    """PGL2(F_q) on entry and point codes, bound once per field as
    elliptic._chord_tangent binds a curve's law.  Its members:

    * law(x, y): the normalized product x*y (x after y) of 4-tuples of
      entry codes (a, b, c, d); identity: (one, 0, 0, one), one = q // p;
    * normalize(a, b, c, d): [[a,b],[c,d]] scaled by 1/(a or b), as a
      nonsingular matrix has a nonzero first row; refuses singular ones;
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
    one = q // spec.p
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
        law=law, normalize=normalize, identity=identity, apply=apply, frame=frame, neg=neg, quadratic=quadratic
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
    four = fq_from_int(spec, 4).code
    emb = emul = esub = half = sqrt = solve = None

    def div(x, y):
        return exp[log[x] - log[y]] if x else 0

    def fixed(g):
        nonlocal emb, emul, esub, half, sqrt, solve
        a, b, c, d = g
        if not c and a == d:
            return [inf]
        if emb is None:
            emb = [x.code for x in _embedding_table(spec, ext)] if r > 1 else range(spec.q)
            emul, esub = ext._tables.mul, ext._tables.sub
            half = fq_from_int(ext, (spec.p + 1) // 2).code
        if not c:
            return [emb[div(b, sub(d, a))], inf]
        if sqrt is None:
            sqrt, solve = _sqrt_table(ext), _artin_schreier_table(ext) if spec.p == 2 else None
        B, C = quadratic(g)
        if spec.p != 2:
            roots = (emul(esub(s.code, emb[B]), half) for s in sqrt.get(emb[sub(mul(B, B), mul(four, C))], ()))
        elif not B:
            return [sqrt[emb[C]][0].code]
        else:
            roots = (emul(emb[B], y.code) for y in solve.get(emb[div(C, mul(B, B))], ()))
        return sorted(roots)

    return fixed


def _triple_map(spec: FieldSpec, source: tuple[int, int, int, int], dst: tuple[int, int, int]) -> tuple[int, int, int, int]:
    """Entry codes of the map sending a triple with frame `source` (from
    the kernel's frame) to the distinct point codes dst: the adjugate of dst's frame
    after `source`, one normalized product."""
    K = _kernel(spec)
    a, b, c, d = K.frame(*dst)
    return K.law((d, K.neg[b], K.neg[c], a), source)


def _entry_codes(m: Moebius) -> tuple[int, int, int, int]:
    return m.a.code, m.b.code, m.c.code, m.d.code


def _point(spec: FieldSpec, x: int) -> PP1:
    """The point with code x: infinity for x = q."""
    return PP1(spec, None if x == spec.q else spec._tables.elems[x])


def _from_codes(spec: FieldSpec, codes: tuple[int, int, int, int]) -> Moebius:
    elems = spec._tables.elems
    a, b, c, d = codes
    return Moebius(spec, elems[a], elems[b], elems[c], elems[d])


def _normalized(spec: FieldSpec, a: int, b: int, c: int, d: int) -> Moebius:
    """The PGL2 class of [[a,b],[c,d]] on entry codes; rejects singular ones."""
    return _from_codes(spec, _kernel(spec).normalize(a, b, c, d))


def mob_make(a: FqElem, b: FqElem, c: FqElem, d: FqElem) -> Moebius:
    """Build the PGL2 class of [[a,b],[c,d]]; rejects singular matrices."""
    spec = a.spec
    for entry in (b, c, d):
        if entry.spec is not spec:
            raise ValueError("matrix entries live in different fields")
    return _normalized(spec, a.code, b.code, c.code, d.code)


@lru_cache(maxsize=None)
def mob_identity(spec: FieldSpec) -> Moebius:
    one, zero = fq_one(spec), fq_zero(spec)
    return Moebius(spec, one, zero, zero, one)


def mob_is_identity(m: Moebius) -> bool:
    return m == mob_identity(m.spec)


def mob_embed(m: Moebius, target: FieldSpec) -> Moebius:
    return mob_make(*(fq_embed(e, target) for e in (m.a, m.b, m.c, m.d)))


def mob_project(m: Moebius, target: FieldSpec) -> Optional[Moebius]:
    """Pull the map back to a subfield when every entry is rational there."""
    entries = [fq_project(e, target) for e in (m.a, m.b, m.c, m.d)]
    if any(e is None for e in entries):
        return None
    return mob_make(*entries)


def mob_apply(m: Moebius, P: PP1) -> PP1:
    """Matrix action on projective coordinates.  The map and the point must
    live in one field (embed either with mob_embed or pp1_embed first), else
    ValueError: fields are never enlarged silently."""
    spec = m.spec
    if spec is not P.spec:
        raise ValueError(f"field mismatch: map over {spec!r}, point over {P.spec!r}")
    return _point(spec, _kernel(spec).apply(_entry_codes(m), P.code))


@lru_cache(maxsize=1 << 18)
def mob_compose(m1: Moebius, m2: Moebius) -> Moebius:
    """Composition m1 after m2 (matrix product M1*M2).  Only conjugacy,
    mob_order and mob_conjugate call it; the searches on entry codes call
    the kernel's law.  It stays memoized, as perfbench's trace reads its
    cache_info."""
    spec = m1.spec
    if m2.spec is not spec:
        raise ValueError("cannot compose maps over different fields")
    return _from_codes(spec, _kernel(spec).law(_entry_codes(m1), _entry_codes(m2)))


def mob_inverse(m: Moebius) -> Moebius:
    """The adjugate [[d,-b],[-c,a]], on entry codes."""
    neg = _kernel(m.spec).neg
    return _normalized(m.spec, m.d.code, neg[m.b.code], neg[m.c.code], m.a.code)


def mob_infinity_to(P: PP1) -> Moebius:
    """A fixed choice of map sending infinity to P: x -> P + 1/x, or the
    identity when P = inf."""
    spec = P.spec
    if P.is_infinity:
        return mob_identity(spec)
    return mob_make(P.x, fq_one(spec), fq_one(spec), fq_zero(spec))


def mob_conjugate(g: Moebius, m: Moebius) -> Moebius:
    """g m g^{-1}."""
    return mob_compose(mob_compose(g, m), mob_inverse(g))


def mob_order(m: Moebius) -> int:
    """Order in PGL2(F_q); always at most q^3 - q."""
    k = order(m, mob_compose, mob_identity(m.spec), m.spec.q ** 3 - m.spec.q)
    if k is None:
        raise AssertionError("order exceeded |PGL2|, matrix arithmetic is broken")
    return k


def mob_fixed_points(m: Moebius, r: int) -> list[PP1]:
    """Fixed points of a non-identity map in P^1(F_{q^r}), canonically sorted:
    the kernel _code_fixed on the map's entry codes, in closed form, not by
    scanning F_{q^r}, and a point built for each code it returns.  Taking
    r >= 2 captures every fixed point of the algebraic closure; the result
    then has exactly one or two points.  Either all of them lie in F_q, or
    they are a Frobenius-conjugate pair outside it: so at r = 1 the result is
    empty exactly when the fixed-point quadratic has no root in F_q.
    """
    if mob_is_identity(m):
        raise ValueError("the identity fixes every point of P^1")
    ext = extension_field(m.spec, r)
    return [_point(ext, x) for x in _code_fixed(m.spec, r)(_entry_codes(m))]


def _distinct_codes(points: Sequence[PP1], spec: FieldSpec, role: str) -> tuple[int, ...]:
    for P in points:
        if P.spec is not spec:
            raise ValueError("all points must live in one field")
    codes = tuple(P.code for P in points)
    if len(set(codes)) != len(codes):
        raise ValueError(f"{role} points must be pairwise distinct")
    return codes


def mob_from_three_points(src: Sequence[PP1], dst: Sequence[PP1]) -> Moebius:
    """The unique Moebius map sending the ordered triple src to dst."""
    if len(src) != 3 or len(dst) != 3:
        raise ValueError("need exactly three source and three destination points")
    spec = src[0].spec
    source = _kernel(spec).frame(*_distinct_codes(src, spec, "source"))
    return _from_codes(spec, _triple_map(spec, source, _distinct_codes(dst, spec, "destination")))


def transporters(L0: Sequence[PP1], S: Sequence[PP1], H: Sequence[tuple[int, int, int, int]] = ()) -> Iterator[Moebius]:
    """One map g with g(L0) = S per coset g.Fix(L0).H, where Fix(L0) is the
    pointwise stabilizer of L0 and H, by default trivial, is a group, given
    by the entry codes of its maps over the points' field, that stabilizes
    L0 setwise (distinct points of one field, none if |L0| != |S|).
    |L0| >= 3: Fix(L0) = 1; per ordered triple of S, in permutations order,
    the map sending L0[:3] onto it, if it sends the rest of L0 into S and is
    not g.h for an earlier g: since (g.h)(L0[j]) = g(L0[i]) with
    h(L0[j]) = L0[i], each g yielded marks the triples of its coset, which
    are then skipped before their map is built.  So the maps are those of
    transporters(L0, S) that come first in their coset, in the same order.
    |L0| = 2: Fix(L0) is a torus; one map per arrangement of S, sending the
    first point of P^1 outside L0 to the first one outside S.  H is not used
    there: a census model with a two-point locus lies in the torus.
    The search runs on point and entry codes: the frame of L0[:3] is built
    once, and each triple costs one _triple_map and the images of L0[3:]."""
    if len(L0) != len(S):
        return
    if len(L0) < 2:
        raise ValueError("transporters need at least two points")
    spec = L0[0].spec
    src = _distinct_codes(L0, spec, "source")
    dst = _distinct_codes(S, spec, "destination")
    apply, frame = _kernel(spec).apply, _kernel(spec).frame
    if len(L0) == 2:
        # infinity's code is q, after every affine point
        source = frame(*src, next(x for x in range(spec.q + 1) if x not in src))
        third = next(x for x in range(spec.q + 1) if x not in dst)
        for first, second in ((dst[0], dst[1]), (dst[1], dst[0])):
            yield _from_codes(spec, _triple_map(spec, source, (first, second, third)))
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
            yield _from_codes(spec, g)
            covered.update((image[i], image[j], image[k]) for i, j, k in perms)


def _pgl2_codes(spec: FieldSpec) -> Iterator[tuple[int, int, int, int]]:
    """The entry codes of all q^3 - q normalized maps of PGL2(F_q), in
    canonical (lexicographic entry) order."""
    one, mul, q = spec.q // spec.p, spec._tables.mul, spec.q
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


def pgl2_elements(spec: FieldSpec) -> Iterator[Moebius]:
    """All q^3 - q elements of PGL2(F_q) as normalized matrices, in canonical
    (lexicographic entry) order."""
    return (_from_codes(spec, g) for g in _pgl2_codes(spec))


def render_moebius(m: Moebius) -> str:
    return _render_codes(m.spec, _entry_codes(m))


def _render_codes(spec: FieldSpec, codes: tuple[int, int, int, int]) -> str:
    """render_moebius of the map with these entry codes, with no map built."""
    a, b, c, d = (_render_code(spec, x) for x in codes)
    return f"[{a},{b};{c},{d}]"


def parse_moebius(spec: FieldSpec, text: str) -> Moebius:
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
        entries.append(parse_element(spec, ",".join(str(x) for x in parts[: spec.n])))
        entries.append(parse_element(spec, ",".join(str(x) for x in parts[spec.n :])))
    return mob_make(*entries)
