"""Finite subgroups of PGL2(F_q): construction and invariants.

Constructors are provided for every group in the two classification lists of
finite subgroups of PGL2 over an algebraically closed field of characteristic
p: the p-regular list (cyclic, dihedral, A4, S4, A5 as explicit matrix
groups) and the p-irregular list (PSL2/PGL2 of a subfield, semidirect
products of an additive subgroup with a group of roots of unity).  The
char-2 dihedral groups and the char-3 A5 come from the same constructors as
their p-regular counterparts.  A group is stored as the sorted tuple of its
elements' entry codes (moebius._code_law), which is their canonical map
order, so equality of subgroups is tuple equality, and every check below
runs on those codes, and so does rendering a subgroup's generators.  Maps
are built only by the conjugacy search (conjugacy.py), whose witnesses are
maps.

Isomorphism types are discriminated by a cheap fingerprint (order,
element-order multiset, abelian flag) rather than abstract isomorphism
testing; the fingerprint separates all types occurring in the classification
lists at desk scale.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .closure import close, order
from .gfq import (
    FieldSpec,
    FqElem,
    Record,
    _embedding_table,
    _projection_table,
    extension_field,
    fp_echelon,
    fq_from_coeffs,
    fq_inv,
    fq_one,
    fq_zero,
    parse_field_spec,
    primitive_root_of_unity,
    render_field_spec,
    roots_of_unity,
    subfield_elements,
)
from .moebius import (
    Moebius,
    PP1,
    _code_fixed,
    _code_law,
    _entry_codes,
    _point,
    _render_codes,
    mob_inverse,
    mob_is_identity,
    mob_make,
    parse_moebius,
    render_point,
)

if TYPE_CHECKING:
    from .census import AdditiveSubgroup


class SubgroupPGL2(Record):
    """A finite subgroup of PGL2(F_q) as the sorted tuple of the entry codes
    (a, b, c, d) of its normalized maps, which holds the identity."""

    spec: FieldSpec
    codes: tuple[tuple[int, int, int, int], ...]
    tag: str

    def __post_init__(self):
        if _code_law(self.spec)[2] not in self.codes:
            raise ValueError("a subgroup must contain the identity")

    @property
    def order(self) -> int:
        return len(self.codes)

    @cached_property
    def generators(self) -> tuple[tuple[int, int, int, int], ...]:
        """_code_generators of the codes, computed once per subgroup; a census
        match is seeded with the set its verification computed."""
        return _code_generators(_code_kernel(self.spec, 1), self.codes)

    def __repr__(self) -> str:
        return f"SubgroupPGL2({self.tag}, order {self.order} over {render_field_spec(self.spec)})"


class Fingerprint(Record):
    order: int
    element_orders: tuple[tuple[int, int], ...]  # (order, count), sorted
    abelian: bool
    p_regular: bool


def close_generators(gens: Sequence[Moebius], cap: Optional[int] = None, tag: str = "unclassified") -> SubgroupPGL2:
    """Breadth-first closure of a generator list under composition, on entry
    codes through the field's code law."""
    if not gens:
        raise ValueError("need at least one generator")
    spec = gens[0].spec
    for g in gens:
        if g.spec is not spec:
            raise ValueError("generators live in different fields")
    if cap is None:
        cap = spec.q ** 3 - spec.q
    law, _, ident = _code_law(spec)
    seen = close([_entry_codes(g) for g in gens], law, {ident}, cap)
    if seen is None:
        raise ValueError(f"closure exceeded cap {cap}")
    return SubgroupPGL2(spec, tuple(sorted(seen)), tag)


def subgroup_embed(H: SubgroupPGL2, target: FieldSpec) -> SubgroupPGL2:
    """H over an extension field, entry by entry: an embedding keeps 0 and
    1, so a normalized map stays normalized."""
    if H.spec is target:
        return H
    emb = [x.code for x in _embedding_table(H.spec, target)]
    return SubgroupPGL2(target, tuple(sorted(tuple(emb[e] for e in x) for x in H.codes)), H.tag)


def subgroup_project(H: SubgroupPGL2, target: FieldSpec) -> Optional[SubgroupPGL2]:
    """Pull the subgroup back to a subfield, entry by entry (a leading 1
    stays 1), or None if any entry is irrational there."""
    if H.spec is target:
        return H
    table = _projection_table(H.spec, target)
    try:
        codes = sorted(tuple(table[e].code for e in x) for x in H.codes)
    except KeyError:
        return None
    return SubgroupPGL2(target, tuple(codes), H.tag)


def _conjugator(g: Moebius):
    """x -> g x g^{-1} on entry codes through the field's code law, with
    g^{-1} computed once."""
    law = _code_law(g.spec)[0]
    y, y_inv = _entry_codes(g), _entry_codes(mob_inverse(g))
    return lambda x: law(law(y, x), y_inv)


def conjugate_subgroup(H: SubgroupPGL2, g: Moebius) -> SubgroupPGL2:
    """g H g^{-1}, on entry codes (_conjugator)."""
    if g.spec is not H.spec:
        raise ValueError("conjugator must live in the subgroup's field")
    if mob_is_identity(g):
        return H
    return SubgroupPGL2(H.spec, tuple(sorted(map(_conjugator(g), H.codes))), H.tag)


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
    normalize, one = _code_law(spec)[1], fq_one(spec).code
    return SubgroupPGL2(spec, tuple(sorted(normalize(u.code, 0, 0, one) for u in mu)), f"cyclic:{n}")


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
    gens = _transvections(spec, sub_degree)  # refuses d not dividing n before p^d is raised
    q0 = spec.p ** sub_degree
    return _closed_model(gens, f"PSL2:{sub_degree}", (q0 ** 3 - q0) // math.gcd(2, q0 - 1))


def std_PGL2(spec: FieldSpec, sub_degree: int) -> SubgroupPGL2:
    """PGL2 of the subfield F_{p^d}: the PSL2 generators plus diag(delta, 1)
    for delta a multiplicative generator of the subfield.  Order q0^3 - q0."""
    gens = _transvections(spec, sub_degree)  # refuses d not dividing n before p^d is raised
    q0 = spec.p ** sub_degree
    gens.append(_diag(spec, primitive_root_of_unity(spec, q0 - 1)))
    return _closed_model(gens, f"PGL2:{sub_degree}", q0 ** 3 - q0)


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
    mu = [z.code for z in roots_of_unity(spec, n)[0]]
    gamma_set = set(gamma.element_codes())
    mul = spec._tables.mul
    for z in mu:
        if z not in gamma_set:
            raise ValueError(f"mu_{n} is not contained in the additive subgroup")
        for g in gamma_set:
            if mul(z, g) not in gamma_set:
                raise ValueError(f"mu_{n} * gamma is not contained in gamma")
    tag = f"Zp^{gamma.rank}" if n == 1 else f"gamma:{gamma.rank}:{n}"
    normalize, one = _code_law(spec)[1], fq_one(spec).code
    H = SubgroupPGL2(spec, tuple(sorted(normalize(z, g, 0, one) for z in mu for g in gamma_set)), tag)
    if H.order != n * spec.p ** gamma.rank:
        raise AssertionError(f"semidirect product has order {H.order}, expected {n * spec.p ** gamma.rank}")
    return H


# ---------------------------------------------------------------------------
# invariants


@lru_cache(maxsize=None)
def _code_kernel(spec: FieldSpec, r: int):
    """The per-field lookups of the checks on entry codes below, bound once
    per (field, r), so that a loop over many groups makes none: (law,
    identity, fixed, cap, p), with law and identity from moebius._code_law,
    fixed from moebius._code_fixed(spec, r), and cap = |PGL2(F_q)|, which
    bounds every element order."""
    law, _, ident = _code_law(spec)
    return law, ident, _code_fixed(spec, r)[1], spec.q ** 3 - spec.q, spec.p


def _code_fingerprint(kernel: tuple, codes: Sequence[tuple], gens: Sequence[tuple]) -> Fingerprint:
    """The fingerprint of the group with entry codes `codes` and generating
    set `gens`, through the code law of `kernel` (_code_kernel): element
    orders by closure.order, and abelian when the generators commute
    pairwise."""
    law, ident, _, cap, p = kernel
    counts: dict[int, int] = {}
    for x in codes:
        k = order(x, law, ident, cap)
        counts[k] = counts.get(k, 0) + 1
    return Fingerprint(
        order=len(codes),
        element_orders=tuple(sorted(counts.items())),
        abelian=all(law(x, y) == law(y, x) for x, y in itertools.combinations(gens, 2)),
        p_regular=len(codes) % p != 0,
    )


def fingerprint(H: SubgroupPGL2) -> Fingerprint:
    """Order, element-order multiset, abelian and p-regularity flags."""
    return _code_fingerprint(_code_kernel(H.spec, 1), H.codes, H.generators)


def _code_locus(kernel: tuple, codes: Iterable[tuple], complete: bool = False) -> Optional[tuple[int, ...]]:
    """stabilized_locus on entry and point codes, by the fixed-point kernel
    of `kernel` (_code_kernel at the level of the points)."""
    _, ident, fixed, _, _ = kernel
    pts = set()
    for x in codes:
        if x != ident:
            points = fixed(x)
            if complete and not points:
                return None
            pts.update(points)
    return tuple(sorted(pts))


def stabilized_locus(H: SubgroupPGL2, r: int, complete: bool = False) -> Optional[tuple[PP1, ...]]:
    """Points of P^1(F_{q^r}) with non-trivial stabilizer: the union of the
    fixed-point sets of the non-identity elements (_code_locus, points built
    only for the result).  r >= 2 guarantees that every stabilized point of
    the algebraic closure is captured.  With complete=True the result is
    None unless it is the whole locus over the algebraic closure: an
    element's fixed points lie in F_{q^r} all or none (mob_fixed_points), so
    that is when no element's set is empty."""
    codes = _code_locus(_code_kernel(H.spec, r), H.codes, complete)
    if codes is None:
        return None
    ext = extension_field(H.spec, r)
    return tuple(_point(ext, x) for x in codes)


def irrational_locus_pairs(H: SubgroupPGL2) -> set[tuple[int, int]]:
    """The stabilized points of H outside F_q, one Frobenius-conjugate pair
    per distinct fixed-point quadratic with no root in F_q, keyed by the codes
    of its (B, C) (moebius._code_fixed).  Distinct irreducible monic
    quadratics share no root, so the locus over the algebraic closure has
    len(stabilized_locus(H, 1)) + 2 * len(irrational_locus_pairs(H)) points,
    and it is stabilized_locus(H, 1) exactly when this set is empty."""
    quadratic, fixed = _code_fixed(H.spec, 1)
    return {quadratic(x) for x in H.codes if x[2] and not fixed(x)}


def _code_generators(kernel: tuple, codes: Sequence[tuple]) -> tuple[tuple, ...]:
    """A small deterministic generating set of the group with sorted entry
    codes `codes`, grown greedily in that order through the code law of
    `kernel` (_code_kernel)."""
    law, ident, _, _, _ = kernel
    gens: list[tuple] = []
    span = {ident}
    for x in codes:
        if x in span:
            continue
        gens.append(x)
        span = close(gens, law, span)
        if len(span) == len(codes):
            break
    return tuple(gens) or (ident,)


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
        "generators": [_render_codes(H.spec, g) for g in H.generators],
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
