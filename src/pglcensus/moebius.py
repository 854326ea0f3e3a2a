"""The projective line over F_q and its fractional linear self-maps.

An element of PGL2(F_q) is stored as a normalized 2x2 matrix: the class
representative is scaled so that the first nonzero entry in scan order
(a, b, c, d) equals 1, which makes equality, hashing and sorted subgroup
listings well defined.  Maps and points are gfq.CodedValue instances.  A
map's code is ((a*q + b)*q + c)*q + d over the entry codes, computed once at
construction, so the closures and the mob_compose cache never hash or compare
field elements; within one field, code order is the lexicographic order of
the entries.  Products, inverses and normalization run on 4-tuples of entry
codes through the one per-field law _code_law, as the genus-1 law does;
the oracle, fingerprint and conjugation call it directly, off the
mob_compose cache.  The action on points and the three-point frames run on
point codes through _code_points, which transporters search with.

Points of P^1 are either affine, with a single field coordinate (projective
[x:1]), or the point at infinity [1:0].  A point's code is the code of x, or
q for infinity, so infinity sorts last.  Fixed points of a non-identity map
are eigen-directions of its matrix; since the characteristic polynomial is
quadratic, extension degree r = 2 always suffices to capture every fixed
point of the algebraic closure.

Text formats: a map is "[a,b;c,d]" where each row holds the 2n coefficients
of its two entries; a point is "inf" or an element in coefficient form.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .closure import order
from .gfq import (
    CodedValue,
    FieldSpec,
    FqElem,
    Record,
    cpoly_deriv,
    cpoly_divmod,
    cpoly_from_elems,
    cpoly_multiplicity,
    extension_field,
    field_elements,
    fq_div,
    fq_embed,
    fq_inv,
    fq_mul,
    fq_neg,
    fq_one,
    fq_project,
    fq_sub,
    fq_zero,
    monic_quadratic_roots,
    parse_element,
    render_element,
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


def pp1_project(P: PP1, target: FieldSpec) -> Optional[PP1]:
    """Inverse of pp1_embed on its image, or None if P is not rational over
    the subfield `target`."""
    if P.is_infinity:
        return pp1_infinity(target)
    down = fq_project(P.x, target)
    return None if down is None else pp1_affine(down)


def render_point(P: PP1) -> str:
    return "inf" if P.is_infinity else render_element(P.x)


def parse_point(spec: FieldSpec, text: str) -> PP1:
    text = text.strip()
    if text == "inf":
        return pp1_infinity(spec)
    return pp1_affine(parse_element(spec, text))


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
def _log_arrays(spec: FieldSpec):
    """The arrays _code_law and _code_points run on, built once per field
    from its log, exp and Zech tables (gfq._FieldTables: m = q - 1, logs to
    a primitive g, exp[k] for -3m <= k < 3m as Python wraps k < 0):
    (lg, neg, zx, zero), each of size O(q).

    * zero = 4m stands for the log of 0, so that the log of a product of
      entries is the sum of their logs with no branch: below 2m - 1 when the
      product is nonzero, at least zero when a factor is 0;
    * lg[c] is the log of code c, zero for c = 0, and neg[c] the code of -c;
    * zx[k], for -2 zero <= k <= 2 zero: the sum of two products with logs u
      and v has the log u + zx[v - u].  For |k| < 2m - 1 both are nonzero
      (or both 0, and so is the sum) and zx[k] is the Zech log of k, or zero
      where 1 + g^k = 0; past that one of them is 0, and zx[k] is 0 (v is 0)
      or k (u is 0).

    A sum's log is then below 3m - 2 when it is nonzero and at least zero
    when it is 0, and two nonzero ones r, s give the code of g^(r - s) as
    exp[r - s]."""
    t = spec._tables
    m = t.m
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
    neg = [0] + [t.exp[k + t.half] for k in t.log[1:]]
    return lg, neg, zx, zero


@lru_cache(maxsize=None)
def _code_law(spec: FieldSpec):
    """PGL2(F_q) on 4-tuples (a, b, c, d) of entry codes, bound once per
    field as elliptic._chord_tangent binds a curve's law: (law, normalize,
    identity).  law(x, y) is the normalized product x*y (x after y);
    normalize(a, b, c, d) scales [[a,b],[c,d]] by 1/(a or b), as a
    nonsingular matrix has a nonzero first row, and refuses singular ones;
    identity is (one, 0, 0, one), where one = q // p is the code of 1.

    law is one flat function in the log domain of _log_arrays: it reads the
    8 entry logs once (0 is the sentinel zero, so a product with a zero
    factor needs no branch), adds each product's logs, takes each entry sum
    with one zx lookup, and scales by one shift of the leading entry's log,
    an exp lookup per nonzero entry.  normalize checks ad - bc the same way
    and scales by a product with the identity."""
    lg, neg, zx, zero = _log_arrays(spec)
    exp = spec._tables.exp
    one = spec.q // spec.p
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

    return law, normalize, identity


@lru_cache(maxsize=None)
def _code_points(spec: FieldSpec):
    """PGL2(F_q) on point codes (infinity is q), bound once per field next to
    _code_law and over the same arrays: (apply, frame).  apply(g, x) is the
    image of the point x under the map with entry codes g; frame(x1, x2, x3)
    is the entry codes, not normalized, of the map sending the distinct
    points x1, x2, x3 to (0, 1, inf): in homogeneous coordinates z_i =
    [x_i:y_i] (inf = [1:0]) with d_ij = x_i y_j - y_i x_j it is
    [[y1 d23, -x1 d23], [y3 d21, -x3 d21]].  As y is 0 or 1, the logs of
    d23 and d21 are those of one product plus at most one Zech log, below
    2m - 1 (m = q - 1), and of each entry below 3m - 2: exp reads them."""
    lg, neg, zx, zero = _log_arrays(spec)
    t = spec._tables
    exp, half, q = t.exp, t.half, spec.q

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

    return apply, frame


def _triple_map(spec: FieldSpec, source: tuple[int, int, int, int], dst: tuple[int, int, int]) -> tuple[int, int, int, int]:
    """Entry codes of the map sending a triple with frame `source` (from
    _code_points) to the distinct point codes dst: the adjugate of dst's frame
    after `source`, one normalized product."""
    a, b, c, d = _code_points(spec)[1](*dst)
    neg = _log_arrays(spec)[1]
    return _code_law(spec)[0]((d, neg[b], neg[c], a), source)


def _entry_codes(m: Moebius) -> tuple[int, int, int, int]:
    return m.a.code, m.b.code, m.c.code, m.d.code


def _from_codes(spec: FieldSpec, codes: tuple[int, int, int, int]) -> Moebius:
    elems = spec._tables.elems
    a, b, c, d = codes
    return Moebius(spec, elems[a], elems[b], elems[c], elems[d])


def _normalized(spec: FieldSpec, a: int, b: int, c: int, d: int) -> Moebius:
    """The PGL2 class of [[a,b],[c,d]] on entry codes; rejects singular ones."""
    return _from_codes(spec, _code_law(spec)[1](a, b, c, d))


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
    x = _code_points(spec)[0](_entry_codes(m), P.code)
    return pp1_infinity(spec) if x == spec.q else pp1_affine(spec._tables.elems[x])


@lru_cache(maxsize=1 << 18)
def mob_compose(m1: Moebius, m2: Moebius) -> Moebius:
    """Composition m1 after m2 (matrix product M1*M2).  Memoized: closure,
    order and conjugacy searches revisit the same products constantly."""
    spec = m1.spec
    if m2.spec is not spec:
        raise ValueError("cannot compose maps over different fields")
    return _from_codes(spec, _code_law(spec)[0](_entry_codes(m1), _entry_codes(m2)))


def mob_inverse(m: Moebius) -> Moebius:
    """The adjugate [[d,-b],[-c,a]], on entry codes."""
    neg = _log_arrays(m.spec)[1]
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


def _fixed_quadratic(m: Moebius) -> Optional[tuple[FqElem, FqElem]]:
    """(B, C) over the map's field with the affine fixed points of m the roots
    of the monic x^2 + Bx + C: B = (d-a)/c and C = -b/c, from the eigen-
    direction equation c x^2 + (d-a) x - b = 0.  None when c = 0, where m
    fixes infinity and every fixed point is rational."""
    if m.c.is_zero():
        return None
    inv_c = fq_inv(m.c)
    return fq_mul(fq_sub(m.d, m.a), inv_c), fq_neg(fq_mul(m.b, inv_c))


def mob_fixed_points(m: Moebius, r: int) -> list[PP1]:
    """Fixed points of a non-identity map in P^1(F_{q^r}), canonically sorted.

    These are the eigen-directions of the matrix: infinity and b/(d-a) when
    c = 0, else the roots of the quadratic of _fixed_quadratic, solved in
    closed form by gfq.monic_quadratic_roots, not by scanning F_{q^r}.
    Taking r >= 2 captures every fixed point of the algebraic closure; the
    result then has exactly one or two points.  Either all of them lie in
    F_q, or they are a Frobenius-conjugate pair outside it: so at r = 1 the
    result is empty exactly when the quadratic has no root in F_q.
    """
    if mob_is_identity(m):
        raise ValueError("the identity fixes every point of P^1")
    ext = extension_field(m.spec, r)
    quadratic = _fixed_quadratic(m)
    if quadratic is None:
        # x -> (ax + b)/d fixes b/(d-a) unless d = a, and infinity
        d_minus_a = fq_sub(m.d, m.a)
        if d_minus_a.is_zero():
            return [pp1_infinity(ext)]
        return [pp1_affine(fq_embed(fq_div(m.b, d_minus_a), ext)), pp1_infinity(ext)]
    B, C = (fq_embed(x, ext) for x in quadratic)
    return [pp1_affine(x) for x in monic_quadratic_roots(B, C)]


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
    source = _code_points(spec)[1](*_distinct_codes(src, spec, "source"))
    return _from_codes(spec, _triple_map(spec, source, _distinct_codes(dst, spec, "destination")))


def transporters(L0: Sequence[PP1], S: Sequence[PP1], H: Sequence[Moebius] = ()) -> Iterator[Moebius]:
    """One map g with g(L0) = S per coset g.Fix(L0).H, where Fix(L0) is the
    pointwise stabilizer of L0 and H, by default trivial, is a group that
    stabilizes L0 setwise (distinct points of one field, none if
    |L0| != |S|).
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
    apply, frame = _code_points(spec)
    if len(L0) == 2:
        # infinity's code is q, after every affine point
        source = frame(*src, next(x for x in range(spec.q + 1) if x not in src))
        third = next(x for x in range(spec.q + 1) if x not in dst)
        for first, second in ((dst[0], dst[1]), (dst[1], dst[0])):
            yield _from_codes(spec, _triple_map(spec, source, (first, second, third)))
        return
    where = {x: i for i, x in enumerate(src)}
    for h in H:
        if h.spec is not spec:
            raise ValueError(f"field mismatch: map over {h.spec!r}, points over {spec!r}")
    try:
        # h(L0[j]) = L0[perm[j]], one perm per h in H; only j < 3 is used
        perms = {tuple(where[apply(_entry_codes(h), x)] for x in src)[:3] for h in H}
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


def pgl2_elements(spec: FieldSpec) -> Iterator[Moebius]:
    """All q^3 - q elements of PGL2(F_q) as normalized matrices, in canonical
    (lexicographic entry) order."""
    one = fq_one(spec)
    elems = field_elements(spec)
    # first nonzero entry is a: a = 1, d - bc != 0
    # first nonzero entry is b: a = 0, b = 1, c != 0
    zero = fq_zero(spec)
    for c in elems:
        if c.is_zero():
            continue
        for d in elems:
            yield Moebius(spec, zero, one, c, d)
    for b in elems:
        for c in elems:
            bc = fq_mul(b, c)
            for d in elems:
                if d != bc:
                    yield Moebius(spec, one, b, c, d)


def render_moebius(m: Moebius) -> str:
    row1 = ",".join([render_element(m.a), render_element(m.b)])
    row2 = ",".join([render_element(m.c), render_element(m.d)])
    return f"[{row1};{row2}]"


def parse_moebius(spec: FieldSpec, text: str) -> Moebius:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"Moebius map must look like [a,b;c,d], got {text!r}")
    rows = text[1:-1].split(";")
    if len(rows) != 2:
        raise ValueError(f"Moebius map needs two rows, got {text!r}")
    entries = []
    for row in rows:
        parts = [int(t) for t in row.split(",")]
        if len(parts) != 2 * spec.n:
            raise ValueError(f"row {row!r} does not hold two elements of F_{spec.p}^{spec.n}")
        entries.append(parse_element(spec, ",".join(str(x) for x in parts[: spec.n])))
        entries.append(parse_element(spec, ",".join(str(x) for x in parts[spec.n :])))
    return mob_make(*entries)


# ---------------------------------------------------------------------------
# ramification of polynomial self-maps of P^1


class RamPoint(Record):
    """A ramification point of a polynomial map: where it lives, its index e,
    and whether the ramification is tame (p does not divide e)."""

    point: PP1
    index: int
    tame: bool

    def __post_init__(self):
        if self.index < 2:
            raise ValueError("ramification index must be >= 2")


def poly_map_ramification(coeffs: Sequence[FqElem], r: int) -> list[RamPoint]:
    """Ramification locus in P^1(F_{q^r}) of the map x -> f(x), deg f >= 2.

    The index at x0 is the multiplicity of (t - x0) in f(t) - f(x0), which is
    correct in wild cases where the derivative count fails.  Since f - f(x0)
    = (t - x0)·g with g the quotient of f by t - x0, that is one more than
    the multiplicity of x0 in g, and x0 ramifies iff g(x0) = f'(x0) = 0.
    Every x0 in F_{q^r} is tried by that division on element codes.  The map
    totally ramifies at infinity with index deg f.  Inseparable maps (f' = 0)
    are rejected.
    """
    spec, f = cpoly_from_elems(coeffs)
    deg = max(len(f) - 1, 0)
    if deg < 2:
        raise ValueError(f"polynomial map must have degree >= 2, got degree {deg}")
    if not cpoly_deriv(spec, f):
        raise ValueError("inseparable map: the derivative vanishes identically")
    ext = extension_field(spec, r)
    f = [fq_embed(c, ext).code for c in coeffs[: deg + 1]]
    one, elems = ext.q // ext.p, field_elements(ext)
    out = []
    for x0 in range(ext.q):
        g = cpoly_divmod(ext, f, [fq_neg(elems[x0]).code, one])[0]
        e = 1 + cpoly_multiplicity(ext, g, x0)
        if e > 1:
            out.append(RamPoint(pp1_affine(elems[x0]), e, e % spec.p != 0))
    # infinity's code is q, after every affine point
    out.append(RamPoint(pp1_infinity(ext), deg, deg % spec.p != 0))
    return out


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
    ident = mob_identity(spec)
    checked = 0
    violations = []
    for m in pgl2_elements(spec):
        if m == ident:
            continue
        checked += 1
        fixed = mob_fixed_points(m, 2)
        k = mob_order(m)
        if len(fixed) not in (1, 2):
            violations.append(f"{render_moebius(m)}: {len(fixed)} fixed points")
        if (len(fixed) == 1) != (k == spec.p):
            violations.append(
                f"{render_moebius(m)}: order {k} with {len(fixed)} fixed points"
            )
    return P1FPReport(spec.q ** 3 - spec.q, checked, tuple(violations))
