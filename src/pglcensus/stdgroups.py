"""Finite subgroups of PGL2(F_q): construction and invariants.

Constructors are provided for every group in the two classification lists of
finite subgroups of PGL2 over an algebraically closed field of characteristic
p: the p-regular list (cyclic, dihedral, A4, S4, A5 as explicit matrix
groups) and the p-irregular list (PSL2/PGL2 of a subfield, semidirect
products of an additive subgroup with a group of roots of unity).  The
char-2 dihedral groups and the char-3 A5 come from the same constructors as
their p-regular counterparts.  A group is stored as the sorted tuple of its
elements' entry codes (moebius._kernel), which is their canonical map
order, so equality of subgroups is tuple equality.  A map is its entry
codes everywhere, generators and conjugators included, with the field on
the subgroup or passed beside them; every check below runs on those codes,
and so does rendering a subgroup's generators.

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
    Record,
    _code,
    _digits,
    _embedding_table,
    _inverse_cache,
    extension_field,
    fp_echelon,
    parse_field_spec,
    primitive_root_of_unity,
    render_field_spec,
    roots_of_unity,
    subfield_elements,
)
from .moebius import _code_fixed, _kernel, _render_codes, parse_moebius, render_point

if TYPE_CHECKING:
    from .census import AdditiveSubgroup


class SubgroupPGL2(Record):
    """A finite subgroup of PGL2(F_q) as the sorted tuple of the entry codes
    (a, b, c, d) of its normalized maps, which holds the identity."""

    spec: FieldSpec
    codes: tuple[tuple[int, int, int, int], ...]
    tag: str

    def __post_init__(self):
        if _kernel(self.spec).identity not in self.codes:
            raise ValueError("a subgroup must contain the identity")

    @property
    def order(self) -> int:
        return len(self.codes)

    @cached_property
    def generators(self) -> tuple[tuple[int, int, int, int], ...]:
        """_code_generators of the codes, computed once per subgroup: a census
        match computes it for its fingerprint, and renders the same set."""
        K = _kernel(self.spec)
        return _code_generators(self.codes, K.law, K.identity)

    def __repr__(self) -> str:
        return f"SubgroupPGL2({self.tag}, order {self.order} over {render_field_spec(self.spec)})"


class Fingerprint(Record):
    order: int
    element_orders: tuple[tuple[int, int], ...]  # (order, count), sorted
    abelian: bool


def _check_map(spec: FieldSpec, g, role: str) -> None:
    """Refuse g unless it is the entry codes of a normalized map of
    PGL2(F_q): a code tuple carries no field, so it is checked against the
    one it is given with."""
    codes = type(g) is tuple and len(g) == 4 and all(type(x) is int and 0 <= x < spec.q for x in g)
    if not codes or _kernel(spec).normalize(*g) != g:
        raise ValueError(f"{role} {g!r} is not a normalized map over F_{spec.p}^{spec.n}")


def close_generators(
    spec: FieldSpec, gens: Sequence[tuple[int, int, int, int]], tag: str = "unclassified"
) -> SubgroupPGL2:
    """Breadth-first closure of a list of maps of PGL2(F_q), given by their
    entry codes, under the field's code law.  A closure larger than
    |PGL2(F_q)| = q^3 - q means the law is broken: AssertionError."""
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        _check_map(spec, g, "generator")
    K, cap = _kernel(spec), spec.pgl2_order
    seen = close(gens, K.law, {K.identity}, cap)
    if seen is None:
        raise AssertionError(f"closure exceeds |PGL2(F_q)| = {cap}: the code law is broken")
    return SubgroupPGL2(spec, tuple(sorted(seen)), tag)


def subgroup_embed(H: SubgroupPGL2, target: FieldSpec) -> SubgroupPGL2:
    """H over an extension field, entry by entry: an embedding keeps 0 and
    1, so a normalized map stays normalized."""
    if H.spec is target:
        return H
    emb = _embedding_table(H.spec, target)
    return SubgroupPGL2(target, tuple(sorted(tuple(emb[e] for e in x) for x in H.codes)), H.tag)


def _map_project(table: dict[int, int], g: tuple[int, int, int, int]) -> Optional[tuple[int, int, int, int]]:
    """The map with entry codes g pulled back to a subfield through its
    gfq._projection_table, entry by entry (a leading 1 stays 1), or None if an
    entry is irrational there."""
    try:
        return tuple(table[e] for e in g)
    except KeyError:
        return None


def _conjugator(spec: FieldSpec, g: tuple[int, int, int, int]):
    """x -> g x g^{-1} on entry codes through the field's code law, with
    g^{-1} computed once."""
    K = _kernel(spec)
    law, g_inv = K.law, K.inverse(g)
    return lambda x: law(law(g, x), g_inv)


def conjugate_subgroup(H: SubgroupPGL2, g: tuple[int, int, int, int]) -> SubgroupPGL2:
    """g H g^{-1} for the map of H's field with entry codes g (_conjugator)."""
    _check_map(H.spec, g, "conjugator")
    if g == _kernel(H.spec).identity:
        return H
    return SubgroupPGL2(H.spec, tuple(sorted(map(_conjugator(H.spec, g), H.codes))), H.tag)


# ---------------------------------------------------------------------------
# standard models


def _diag(spec: FieldSpec, u: int) -> tuple[int, int, int, int]:
    """x -> ux for the nonzero code u."""
    return _kernel(spec).normalize(u, 0, 0, spec.one)


def _swap(spec: FieldSpec) -> tuple[int, int, int, int]:
    return 0, spec.one, spec.one, 0


def _closed_model(spec: FieldSpec, gens: Sequence[tuple[int, int, int, int]], tag: str, order: int) -> SubgroupPGL2:
    """The closure of a standard model's generators, which must have the
    order the model's docstring states."""
    H = close_generators(spec, gens, tag=tag)
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
    mu = roots_of_unity(spec, n)
    normalize, one = _kernel(spec).normalize, spec.one
    return SubgroupPGL2(spec, tuple(sorted(normalize(u, 0, 0, one) for u in mu)), f"cyclic:{n}")


def std_dihedral(spec: FieldSpec, n: int) -> SubgroupPGL2:
    """diag(mu_n, 1) extended by the coordinate swap x -> 1/x: dihedral of
    order 2n.  Requires p∤n; in characteristic 2 also n > 1, since there the
    order-2 group is the translation group Zp^1."""
    if n % spec.p == 0:
        raise ValueError(f"characteristic {spec.p} divides {n}")
    if spec.p == 2 and n <= 1:
        raise ValueError(f"n must be greater than one in characteristic 2, got {n}")
    gens = [_diag(spec, primitive_root_of_unity(spec, n)), _swap(spec)]
    return _closed_model(spec, gens, f"dihedral:{n}", 2 * n)


def _a4_generators(spec: FieldSpec) -> list[tuple[int, int, int, int]]:
    """The Klein group {x, -x, 1/x, -1/x} and (x + z4)/(x - z4), z4 a
    primitive fourth root of unity: generators of the tetrahedral group."""
    z4 = primitive_root_of_unity(spec, 4)
    K, one = _kernel(spec), spec.one
    return [K.normalize(0, K.neg[one], one, 0), _swap(spec), K.normalize(one, z4, one, K.neg[z4])]


def std_A4(spec: FieldSpec) -> SubgroupPGL2:
    """The tetrahedral group: the Klein group {x, -x, 1/x, -1/x} extended by
    (x + z4)/(x - z4) with z4 a primitive fourth root of unity.  Order 12."""
    if spec.p in (2, 3):
        raise ValueError(f"A4 model excluded in characteristic {spec.p}")
    return _closed_model(spec, _a4_generators(spec), "A4", 12)


def std_S4(spec: FieldSpec) -> SubgroupPGL2:
    """The octahedral group: the A4 generators together with diag(z4, 1).
    Order 24."""
    if spec.p in (2, 3):
        raise ValueError(f"S4 model excluded in characteristic {spec.p}")
    z4 = primitive_root_of_unity(spec, 4)
    return _closed_model(spec, _a4_generators(spec) + [_diag(spec, z4)], "S4", 24)


def std_A5(spec: FieldSpec) -> SubgroupPGL2:
    """The icosahedral group, generated by diag(z5, 1) and an involution
    built from 1 - z5 - z5^{-1}.  Order 60; excluded in characteristic 2 and
    5, and 3-irregular in characteristic 3 since 3 | 60.  Needs a primitive
    fifth root of unity."""
    if spec.p in (2, 5):
        raise ValueError(f"A5 model excluded in characteristic {spec.p}")
    z5 = primitive_root_of_unity(spec, 5)
    K, one, sub = _kernel(spec), spec.one, spec._tables.sub
    b = sub(sub(one, z5), _inverse_cache(spec)[z5])  # 1 - z5 - z5^{-1}
    return _closed_model(spec, [_diag(spec, z5), K.normalize(one, b, one, K.neg[one])], "A5", 60)


def _subfield_fp_basis(spec: FieldSpec, sub_degree: int) -> list[int]:
    """The codes of the echelon F_p-basis of the subfield F_{p^d}."""
    vecs = [_digits(spec, x) for x in subfield_elements(spec, sub_degree)]
    return [_code(v, spec.p) for v in fp_echelon(vecs, spec.p)]


def _transvections(spec: FieldSpec, sub_degree: int) -> list[tuple[int, int, int, int]]:
    """The elementary transvections over an F_p-basis of F_{p^d}, which
    generate PSL2 of that subfield."""
    one = spec.one
    gens = []
    for g in _subfield_fp_basis(spec, sub_degree):
        gens.append((one, g, 0, one))
        gens.append((one, 0, g, one))
    return gens


def std_PSL2(spec: FieldSpec, sub_degree: int) -> SubgroupPGL2:
    """PSL2 of the subfield F_{p^d}, generated by the elementary transvections
    over an F_p-basis of the subfield.  Order (q0^3 - q0)/gcd(2, q0 - 1)."""
    gens = _transvections(spec, sub_degree)  # refuses d not dividing n before p^d is raised
    q0 = spec.p ** sub_degree
    return _closed_model(spec, gens, f"PSL2:{sub_degree}", (q0 ** 3 - q0) // math.gcd(2, q0 - 1))


def std_PGL2(spec: FieldSpec, sub_degree: int) -> SubgroupPGL2:
    """PGL2 of the subfield F_{p^d}: the PSL2 generators plus diag(delta, 1)
    for delta a multiplicative generator of the subfield.  Order q0^3 - q0."""
    gens = _transvections(spec, sub_degree)  # refuses d not dividing n before p^d is raised
    q0 = spec.p ** sub_degree
    gens.append(_diag(spec, primitive_root_of_unity(spec, q0 - 1)))
    return _closed_model(spec, gens, f"PGL2:{sub_degree}", q0 ** 3 - q0)


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
    mu = roots_of_unity(spec, n)
    gamma_set = set(gamma.element_codes())
    mul = spec._tables.mul
    for z in mu:
        if z not in gamma_set:
            raise ValueError(f"mu_{n} is not contained in the additive subgroup")
        for g in gamma_set:
            if mul(z, g) not in gamma_set:
                raise ValueError(f"mu_{n} * gamma is not contained in gamma")
    tag = f"Zp^{gamma.rank}" if n == 1 else f"gamma:{gamma.rank}:{n}"
    normalize, one = _kernel(spec).normalize, spec.one
    H = SubgroupPGL2(spec, tuple(sorted(normalize(z, g, 0, one) for z in mu for g in gamma_set)), tag)
    if H.order != n * spec.p ** gamma.rank:
        raise AssertionError(f"semidirect product has order {H.order}, expected {n * spec.p ** gamma.rank}")
    return H


# ---------------------------------------------------------------------------
# invariants: the checks on entry codes run through the members of the
# field's kernel (moebius._kernel); the locus pass is bound once per field
# and level, as _code_fixed is, so that a loop over many groups binds it once


def fingerprint(H: SubgroupPGL2) -> Fingerprint:
    """Order, element-order multiset and the abelian flag, through the code
    law: element orders by closure.order, capped at |PGL2(F_q)|, and abelian
    when the generators commute pairwise."""
    K = _kernel(H.spec)
    law, identity = K.law, K.identity
    counts: dict[int, int] = {}
    for x in H.codes:
        k = order(x, law, identity, H.spec.pgl2_order)
        counts[k] = counts.get(k, 0) + 1
    return Fingerprint(
        order=H.order,
        element_orders=tuple(sorted(counts.items())),
        abelian=all(law(x, y) == law(y, x) for x, y in itertools.combinations(H.generators, 2)),
    )


@lru_cache(maxsize=None)
def _code_locus(spec: FieldSpec, r: int):
    """locus(codes) -> (points, pairs), bound once per (field, r): one pass
    of _code_fixed at level r over a group's entry codes.  points is the
    sorted tuple of its stabilized point codes over F_{q^r}, pairs the set
    of the kernel's quadratics (B, C) of its elements with no fixed point
    there; distinct ones share no root, so the locus over the algebraic
    closure has len(points) + 2 len(pairs) points, and is points exactly
    when pairs is empty."""
    K, fixed = _kernel(spec), _code_fixed(spec, r)
    identity, quadratic = K.identity, K.quadratic

    def locus(codes: Iterable[tuple]) -> tuple[tuple[int, ...], set[tuple[int, int]]]:
        points, pairs = set(), set()
        for x in codes:
            if x != identity:
                found = fixed(x)
                if found:
                    points.update(found)
                else:
                    pairs.add(quadratic(x))
        return tuple(sorted(points)), pairs

    return locus


def stabilized_locus(H: SubgroupPGL2, r: int) -> tuple[int, ...]:
    """The sorted codes of the points of P^1(F_{q^r}) with non-trivial
    stabilizer (the points of _code_locus).  An even r captures every one of
    the algebraic closure, as F_{q^2} lies in F_{q^r} exactly when 2 | r;
    an odd r only those of F_q."""
    return _code_locus(H.spec, r)(H.codes)[0]


def _code_generators(codes: Sequence[tuple], law, identity) -> tuple[tuple, ...]:
    """A small deterministic generating set of the group with sorted entry
    codes `codes`, grown greedily in that order through the code law."""
    gens: list[tuple] = []
    span = {identity}
    for x in codes:
        if x in span:
            continue
        gens.append(x)
        span = close(gens, law, span)
        if len(span) == len(codes):
            break
    return tuple(gens) or (identity,)


# ---------------------------------------------------------------------------
# serialization


def subgroup_to_json(H: SubgroupPGL2, locus_ext: int = 2, locus: Optional[Sequence[int]] = None) -> dict:
    """H's record.  `locus` is the codes of its stabilized locus over
    F_{q^locus_ext} when the caller has already computed it (a census
    renders the locus that it verified); by default it is computed here."""
    if locus is None:
        locus = stabilized_locus(H, locus_ext)
    locus_field = extension_field(H.spec, locus_ext)
    return {
        "field": render_field_spec(H.spec),
        "tag": H.tag,
        "generators": [_render_codes(H.spec, g) for g in H.generators],
        "order": H.order,
        "locus": [render_point(locus_field, x) for x in locus],
        "locus_field": render_field_spec(locus_field),
        "locus_ext": locus_ext,
    }


def subgroup_from_json(data: dict) -> SubgroupPGL2:
    spec = parse_field_spec(data["field"])
    gens = [parse_moebius(spec, g) for g in data["generators"]]
    H = close_generators(spec, gens, tag=data["tag"])
    if H.order != data["order"]:
        raise ValueError(f"generator closure has order {H.order}, record says {data['order']}")
    return H
