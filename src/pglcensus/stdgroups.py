"""Finite subgroups of PGL2(F_q): construction, invariants, conjugacy.

Constructors are provided for every group in the two classification lists of
finite subgroups of PGL2 over an algebraically closed field of characteristic
p: the p-regular list (cyclic, dihedral, A4, S4, A5 as explicit matrix
groups) and the p-irregular list (PSL2/PGL2 of a subfield, semidirect
products of an additive subgroup with a group of roots of unity).  The
char-2 dihedral groups and the char-3 A5 come from the same constructors as
their p-regular counterparts.  Groups are stored as canonically sorted
element lists, so equality of subgroups is list equality.

Isomorphism types are discriminated by a cheap fingerprint (order,
element-order multiset, abelian flag) rather than abstract isomorphism
testing; the fingerprint separates all types occurring in the classification
lists at desk scale.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .closure import close, order
from .gfq import (
    FieldSpec,
    FqElem,
    Record,
    by_code,
    extension_field,
    field_elements,
    fp_echelon,
    fq_from_coeffs,
    fq_inv,
    fq_mul,
    fq_one,
    fq_zero,
    monic_quadratic_roots,
    parse_field_spec,
    primitive_root_of_unity,
    render_field_spec,
    roots_of_unity,
    subfield_elements,
)
from .moebius import (
    Moebius,
    PP1,
    _code_law,
    _entry_codes,
    _from_codes,
    _fixed_quadratic,
    mob_compose,
    mob_conjugate,
    mob_embed,
    mob_fixed_points,
    mob_from_three_points,
    mob_identity,
    mob_infinity_to,
    mob_inverse,
    mob_is_identity,
    mob_make,
    mob_project,
    parse_moebius,
    pgl2_elements,
    pp1_points,
    render_moebius,
    render_point,
    transporters,
)

if TYPE_CHECKING:
    from .census import AdditiveSubgroup


class SubgroupPGL2(Record):
    """A finite subgroup of PGL2(F_q) as a sorted tuple of normalized maps."""

    spec: FieldSpec
    elements: tuple[Moebius, ...]
    tag: str

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def generators(self) -> tuple[Moebius, ...]:
        """_generating_set(self), computed once per subgroup: a census match
        is fingerprinted and then rendered from the same set."""
        return _generating_set(self)

    def __repr__(self) -> str:
        return f"SubgroupPGL2({self.tag}, order {self.order} over {render_field_spec(self.spec)})"


class Fingerprint(Record):
    order: int
    element_orders: tuple[tuple[int, int], ...]  # (order, count), sorted
    abelian: bool
    p_regular: bool


def _make_subgroup(spec: FieldSpec, elements: Iterable[Moebius], tag: str) -> SubgroupPGL2:
    elems = sorted(set(elements), key=by_code)
    if mob_identity(spec) not in elems:
        raise ValueError("a subgroup must contain the identity")
    return SubgroupPGL2(spec, tuple(elems), tag)


def close_generators(gens: Sequence[Moebius], cap: Optional[int] = None, tag: str = "unclassified") -> SubgroupPGL2:
    """Breadth-first closure of a generator list under composition."""
    if not gens:
        raise ValueError("need at least one generator")
    spec = gens[0].spec
    for g in gens:
        if g.spec is not spec:
            raise ValueError("generators live in different fields")
    if cap is None:
        cap = spec.q ** 3 - spec.q
    seen = close(gens, mob_compose, {mob_identity(spec)}, cap)
    if seen is None:
        raise ValueError(f"closure exceeded cap {cap}")
    return _make_subgroup(spec, seen, tag)


def subgroup_embed(H: SubgroupPGL2, target: FieldSpec) -> SubgroupPGL2:
    return _make_subgroup(target, (mob_embed(m, target) for m in H.elements), H.tag)


def subgroup_project(H: SubgroupPGL2, target: FieldSpec) -> Optional[SubgroupPGL2]:
    """Pull the subgroup back to a subfield, or None if any entry is irrational."""
    if H.spec is target:
        return H
    out = []
    for m in H.elements:
        pm = mob_project(m, target)
        if pm is None:
            return None
        out.append(pm)
    return _make_subgroup(target, out, H.tag)


def conjugate_subgroup(H: SubgroupPGL2, g: Moebius) -> SubgroupPGL2:
    """g H g^{-1}, on entry codes through the field's code law, with g^{-1}
    computed once."""
    spec = H.spec
    if g.spec is not spec:
        raise ValueError("conjugator must live in the subgroup's field")
    if mob_is_identity(g):
        return H
    law = _code_law(spec)[0]
    x, x_inv = _entry_codes(g), _entry_codes(mob_inverse(g))
    return _make_subgroup(spec, (_from_codes(spec, law(law(x, _entry_codes(m)), x_inv)) for m in H.elements), H.tag)


# ---------------------------------------------------------------------------
# standard models


def _diag(spec: FieldSpec, u: FqElem) -> Moebius:
    return mob_make(u, fq_zero(spec), fq_zero(spec), fq_one(spec))


def _swap(spec: FieldSpec) -> Moebius:
    return mob_make(fq_zero(spec), fq_one(spec), fq_one(spec), fq_zero(spec))


def _closed_model(gens: Sequence[Moebius], tag: str, order: int) -> SubgroupPGL2:
    """The closure of a standard model's generators, which must have the
    order the model's docstring states."""
    H = close_generators(gens, tag=tag)
    if H.order != order:
        raise AssertionError(f"{tag} closure has order {H.order}, expected {order}")
    return H


def std_cyclic(spec: FieldSpec, n: int) -> SubgroupPGL2:
    """The diagonal group diag(mu_n, 1), cyclic of order n.  Needs p∤n and a
    primitive n-th root of unity in the field."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n % spec.p == 0:
        raise ValueError(f"characteristic {spec.p} divides {n}: no such cyclic model")
    primitive_root_of_unity(spec, n)
    mu, _ = roots_of_unity(spec, n)
    return _make_subgroup(spec, (_diag(spec, u) for u in mu), f"cyclic:{n}")


def std_dihedral(spec: FieldSpec, n: int) -> SubgroupPGL2:
    """diag(mu_n, 1) extended by the coordinate swap x -> 1/x: dihedral of
    order 2n.  Requires p∤n; in characteristic 2 also n > 1, since there the
    order-2 group is the translation group Zp^1."""
    if n % spec.p == 0:
        raise ValueError(f"characteristic {spec.p} divides {n}")
    if spec.p == 2 and n <= 1:
        raise ValueError(f"n must be greater than one in characteristic 2, got {n}")
    return _closed_model([_diag(spec, primitive_root_of_unity(spec, n)), _swap(spec)], f"dihedral:{n}", 2 * n)


def _a4_generators(spec: FieldSpec) -> list[Moebius]:
    """The Klein group {x, -x, 1/x, -1/x} and (x + z4)/(x - z4), z4 a
    primitive fourth root of unity: generators of the tetrahedral group."""
    z4 = primitive_root_of_unity(spec, 4)
    one, zero = fq_one(spec), fq_zero(spec)
    return [mob_make(zero, -one, one, zero), _swap(spec), mob_make(one, z4, one, -z4)]


def std_A4(spec: FieldSpec) -> SubgroupPGL2:
    """The tetrahedral group: the Klein group {x, -x, 1/x, -1/x} extended by
    (x + z4)/(x - z4) with z4 a primitive fourth root of unity.  Order 12."""
    if spec.p in (2, 3):
        raise ValueError(f"A4 model excluded in characteristic {spec.p}")
    return _closed_model(_a4_generators(spec), "A4", 12)


def std_S4(spec: FieldSpec) -> SubgroupPGL2:
    """The octahedral group: the A4 generators together with diag(z4, 1).
    Order 24."""
    if spec.p in (2, 3):
        raise ValueError(f"S4 model excluded in characteristic {spec.p}")
    z4 = primitive_root_of_unity(spec, 4)
    return _closed_model(_a4_generators(spec) + [_diag(spec, z4)], "S4", 24)


def std_A5(spec: FieldSpec) -> SubgroupPGL2:
    """The icosahedral group, generated by diag(z5, 1) and an involution
    built from 1 - z5 - z5^{-1}.  Order 60; excluded in characteristic 2 and
    5, and 3-irregular in characteristic 3 since 3 | 60.  Needs a primitive
    fifth root of unity."""
    if spec.p in (2, 5):
        raise ValueError(f"A5 model excluded in characteristic {spec.p}")
    z5 = primitive_root_of_unity(spec, 5)
    one = fq_one(spec)
    # 1 - z5 - z5^{-1}
    b = fq_one(spec) - z5 - fq_inv(z5)
    return _closed_model([_diag(spec, z5), mob_make(one, b, one, -one)], "A5", 60)


def _subfield_fp_basis(spec: FieldSpec, sub_degree: int) -> list[FqElem]:
    vecs = [x.coeffs for x in subfield_elements(spec, sub_degree)]
    return [fq_from_coeffs(spec, v) for v in fp_echelon(vecs, spec.p)]


def _transvections(spec: FieldSpec, sub_degree: int) -> list[Moebius]:
    """The elementary transvections over an F_p-basis of F_{p^d}, which
    generate PSL2 of that subfield."""
    one, zero = fq_one(spec), fq_zero(spec)
    gens = []
    for g in _subfield_fp_basis(spec, sub_degree):
        gens.append(mob_make(one, g, zero, one))
        gens.append(mob_make(one, zero, g, one))
    return gens


def std_PSL2(spec: FieldSpec, sub_degree: int) -> SubgroupPGL2:
    """PSL2 of the subfield F_{p^d}, generated by the elementary transvections
    over an F_p-basis of the subfield.  Order (q0^3 - q0)/gcd(2, q0 - 1)."""
    q0 = spec.p ** sub_degree
    order = (q0 ** 3 - q0) // math.gcd(2, q0 - 1)
    return _closed_model(_transvections(spec, sub_degree), f"PSL2:{sub_degree}", order)


def std_PGL2(spec: FieldSpec, sub_degree: int) -> SubgroupPGL2:
    """PGL2 of the subfield F_{p^d}: the PSL2 generators plus diag(delta, 1)
    for delta a multiplicative generator of the subfield.  Order q0^3 - q0."""
    q0 = spec.p ** sub_degree
    delta = primitive_root_of_unity(spec, q0 - 1)
    return _closed_model(_transvections(spec, sub_degree) + [_diag(spec, delta)], f"PGL2:{sub_degree}", q0 ** 3 - q0)


def std_gamma_semidirect(gamma: "AdditiveSubgroup", n: int) -> SubgroupPGL2:
    """The group of maps x -> zx + g with z an n-th root of unity and g in the
    additive subgroup gamma.  Requires p∤n, mu_n contained in gamma, and
    mu_n * gamma contained in gamma; the order is n * p^rank(gamma).

    With n = 1 this degenerates to the pure translation group, tagged Zp^m.
    """
    spec = gamma.spec
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n % spec.p == 0:
        raise ValueError(f"characteristic {spec.p} divides {n}")
    primitive_root_of_unity(spec, n)
    mu, _ = roots_of_unity(spec, n)
    gamma_set = set(gamma.elements())
    for z in mu:
        if z not in gamma_set:
            raise ValueError(f"mu_{n} is not contained in the additive subgroup")
        for g in gamma_set:
            if fq_mul(z, g) not in gamma_set:
                raise ValueError(f"mu_{n} * gamma is not contained in gamma")
    tag = f"Zp^{gamma.rank}" if n == 1 else f"gamma:{gamma.rank}:{n}"
    elems = []
    for z in mu:
        for g in gamma_set:
            elems.append(mob_make(z, g, fq_zero(spec), fq_one(spec)))
    H = _make_subgroup(spec, elems, tag)
    if H.order != n * spec.p ** gamma.rank:
        raise AssertionError(f"semidirect product has order {H.order}, expected {n * spec.p ** gamma.rank}")
    return H


# ---------------------------------------------------------------------------
# invariants


def fingerprint(H: SubgroupPGL2) -> Fingerprint:
    """Order, element-order multiset, abelian flag and p-regularity flag,
    on entry codes through the field's code law.  H is abelian when its
    generating set (H.generators) commutes pairwise."""
    law, _, ident = _code_law(H.spec)
    cap = H.spec.q ** 3 - H.spec.q
    counts: dict[int, int] = {}
    for m in H.elements:
        k = order(_entry_codes(m), law, ident, cap)
        counts[k] = counts.get(k, 0) + 1
    gens = [_entry_codes(g) for g in H.generators]
    return Fingerprint(
        order=H.order,
        element_orders=tuple(sorted(counts.items())),
        abelian=all(law(x, y) == law(y, x) for x, y in itertools.combinations(gens, 2)),
        p_regular=H.order % H.spec.p != 0,
    )


def stabilized_locus(H: SubgroupPGL2, r: int, complete: bool = False) -> Optional[tuple[PP1, ...]]:
    """Points of P^1(F_{q^r}) with non-trivial stabilizer: the union of the
    fixed-point sets of the non-identity elements.  r >= 2 guarantees that
    every stabilized point of the algebraic closure is captured.  With
    complete=True the result is None unless it is the whole locus over the
    algebraic closure: an element's fixed points lie in F_{q^r} all or none
    (mob_fixed_points), so that is when no element's set is empty."""
    pts = set()
    for m in H.elements:
        if mob_is_identity(m):
            continue
        fixed = mob_fixed_points(m, r)
        if complete and not fixed:
            return None
        pts.update(fixed)
    return tuple(sorted(pts, key=by_code))


def irrational_locus_pairs(H: SubgroupPGL2) -> set[tuple[int, int]]:
    """The stabilized points of H outside F_q, one Frobenius-conjugate pair
    per distinct fixed-point quadratic with no root in F_q, keyed by the codes
    of its (B, C).  Distinct irreducible monic quadratics share no root, so
    the locus over the algebraic closure has len(stabilized_locus(H, 1)) +
    2 * len(irrational_locus_pairs(H)) points, and it is stabilized_locus(H,
    1) exactly when this set is empty."""
    pairs = set()
    for m in H.elements:
        quadratic = _fixed_quadratic(m)
        if quadratic is not None and not monic_quadratic_roots(*quadratic):
            pairs.add((quadratic[0].code, quadratic[1].code))
    return pairs


def _generating_set(H: SubgroupPGL2) -> tuple[Moebius, ...]:
    """A small deterministic generating set, grown greedily in canonical
    order, closed on entry codes through the field's code law."""
    law, _, ident = _code_law(H.spec)
    gens: list[Moebius] = []
    codes: list[tuple[int, int, int, int]] = []
    span = {ident}
    for m in H.elements:
        x = _entry_codes(m)
        if x in span:
            continue
        gens.append(m)
        codes.append(x)
        span = close(codes, law, span)
        if len(span) == H.order:
            break
    if not gens:  # trivial group
        return (mob_identity(H.spec),)
    return tuple(gens)


# ---------------------------------------------------------------------------
# conjugacy


def _translation_parts(H: SubgroupPGL2) -> Optional[list[FqElem]]:
    """If every element is a translation x -> x + g, return the g's."""
    out = []
    one = fq_one(H.spec)
    for m in H.elements:
        if m.a == one and m.c.is_zero() and m.d == one:
            out.append(m.b)
        else:
            return None
    return out


def _conjugates_onto(g: Moebius, H1: SubgroupPGL2, H2: SubgroupPGL2) -> bool:
    elems2 = set(H2.elements)
    return all(mob_conjugate(g, m) in elems2 for m in H1.elements)


def _simplify_witness(g: Optional[Moebius], base: FieldSpec) -> Optional[Moebius]:
    """Project a conjugator back down to the base field when its entries are
    rational there; otherwise return it over the search field."""
    if g is None or g.spec is base:
        return g
    down = mob_project(g, base)
    return down if down is not None else g


def is_conjugate(H1: SubgroupPGL2, H2: SubgroupPGL2, r: int) -> Optional[Moebius]:
    """Search for g in PGL2(F_{q^r}) with g H1 g^{-1} = H2; returns a verified
    witness (projected back to the base field whenever its entries are
    rational there) or None.

    The search space is cut down by transporter reasoning on stabilized loci:
    a conjugator maps locus L1 onto locus L2, so it is g0 t with g0 from
    moebius.transporters(L1, L2) and t fixing L1 pointwise: only the identity
    for size >= 3, the torus through both points for size 2.  For size 1 both
    groups may reduce to translation groups, where conjugacy is scalar scaling
    of the translation sets.  Loci are computed at level r.  Loci of fewer
    than two points that are not those of translation groups are taken in the
    capture field F_{q^{2r}} instead, keeping the maps rational over F_{q^r}.
    """
    if H1.spec is not H2.spec:
        raise ValueError("subgroups must live over the same field")
    if H1.order != H2.order:
        return None
    base = H1.spec
    ext = extension_field(base, r)
    K1 = subgroup_embed(H1, ext)
    K2 = subgroup_embed(H2, ext)
    if H1.order == 1:
        return mob_identity(base)
    L1 = stabilized_locus(H1, r)
    L2 = stabilized_locus(H2, r)
    if len(L1) != len(L2):
        return None

    if len(L1) == 1:
        # t1 and s2^{-1} carry the loci to infinity, where both groups
        # may become translation groups
        t1 = mob_inverse(mob_infinity_to(L1[0]))
        s2 = mob_infinity_to(L2[0])
        g1 = _translation_parts(conjugate_subgroup(K1, t1))
        g2 = _translation_parts(conjugate_subgroup(K2, mob_inverse(s2)))
        if g1 is not None and g2 is not None:
            set2 = {x.code for x in g2}
            for alpha in field_elements(ext):
                if alpha.is_zero():
                    continue
                if {fq_mul(alpha, x).code for x in g1} == set2:
                    g = mob_compose(s2, mob_compose(_diag(ext, alpha), t1))
                    if _conjugates_onto(g, K1, K2):
                        return _simplify_witness(g, base)
            return None

    search = ext
    if len(L1) < 2:
        # p-elements have rational fixed points, so in the capture field,
        # where every fixed point lies, both loci have two or more points
        search = extension_field(base, 2 * r)
        L1 = stabilized_locus(H1, 2 * r)
        L2 = stabilized_locus(H2, 2 * r)
        if len(L1) != len(L2):
            return None
    # g = g0 t with g0 from transporters(L1, L2, H1) and t fixing L1
    # pointwise: only the identity for 3 or more points; for 2, the torus,
    # one t per image of the first point outside L1, starting with the
    # identity.  Each t is tried with every g0 before the next, so a plain
    # transporter always comes first.  H1 stabilizes L1, and g0 h for h in
    # H1 conjugates H1 onto H2 exactly when g0 does, so the transporters
    # skip it; the first witness is the same as without H1
    fix = [mob_identity(search)]
    if len(L1) == 2:
        src = (L1[0], L1[1], next(P for P in pp1_points(search) if P not in L1))
        fix = (mob_from_three_points(src, (L1[0], L1[1], P)) for P in pp1_points(search) if P not in L1)
    H1_search = subgroup_embed(H1, search).elements
    for t in fix:
        for g0 in transporters(L1, L2, H1_search):
            g = mob_compose(g0, t)
            if search is not ext:
                g = mob_project(g, ext)
            if g is not None and _conjugates_onto(g, K1, K2):
                return _simplify_witness(g, base)
    return None


def _bruteforce_search(K1: SubgroupPGL2, K2: SubgroupPGL2) -> Optional[Moebius]:
    gens = K1.generators
    elems2 = set(K2.elements)
    for g in pgl2_elements(K1.spec):
        if all(mob_conjugate(g, m) in elems2 for m in gens):
            if _conjugates_onto(g, K1, K2):
                return g
    return None


def is_conjugate_bruteforce(H1: SubgroupPGL2, H2: SubgroupPGL2, r: int) -> Optional[Moebius]:
    """Independent oracle: scan every element of PGL2(F_{q^r}) for a conjugator."""
    if H1.spec is not H2.spec:
        raise ValueError("subgroups must live over the same field")
    if H1.order != H2.order:
        return None
    ext = extension_field(H1.spec, r)
    g = _bruteforce_search(subgroup_embed(H1, ext), subgroup_embed(H2, ext))
    return _simplify_witness(g, H1.spec)


# ---------------------------------------------------------------------------
# serialization


def subgroup_to_json(H: SubgroupPGL2, locus_ext: int = 2, locus: Optional[Sequence[PP1]] = None) -> dict:
    """H's record.  `locus` is its stabilized locus over F_{q^locus_ext} when
    the caller has already computed it (a census renders the locus that it
    verified); by default it is computed here."""
    if locus is None:
        locus = stabilized_locus(H, locus_ext)
    locus_field = extension_field(H.spec, locus_ext)
    return {
        "field": render_field_spec(H.spec),
        "tag": H.tag,
        "generators": [render_moebius(m) for m in H.generators],
        "order": H.order,
        "locus": [render_point(P) for P in locus],
        "locus_field": render_field_spec(locus_field),
        "locus_ext": locus_ext,
    }


def subgroup_from_json(data: dict) -> SubgroupPGL2:
    spec = parse_field_spec(data["field"])
    gens = [parse_moebius(spec, g) for g in data["generators"]]
    H = close_generators(gens, tag=data["tag"])
    if H.order != data["order"]:
        raise ValueError(f"generator closure has order {H.order}, record says {data['order']}")
    return H
