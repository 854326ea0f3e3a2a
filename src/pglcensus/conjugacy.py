"""The conjugate command: decide whether two subgroups of PGL2(F_q) are
conjugate in PGL2(F_{q^r}), and return a verified witness.

is_conjugate cuts the search down by transporter reasoning on the stabilized
loci (stdgroups); is_conjugate_bruteforce is the independent oracle, a scan
of all of PGL2(F_{q^r}).  Both run on entry codes (moebius._kernel).  A
witness is a field and the entry codes of a map over it: the map is
projected back to the base field whenever its entries are rational there.
Only the conjugate command reaches this module, so a census process never
compiles it.
"""

from __future__ import annotations

from typing import Optional

from .gfq import FieldSpec, _projection_table, extension_field, render_field_spec
from .moebius import (
    _kernel,
    _pgl2_codes,
    _render_codes,
    mob_compose,
    mob_from_three_points,
    mob_infinity_to,
    transporters,
)
from .stdgroups import (
    SubgroupPGL2,
    _conjugator,
    _diag,
    _map_project,
    conjugate_subgroup,
    stabilized_locus,
    subgroup_embed,
)


def _translation_parts(H: SubgroupPGL2) -> Optional[list[int]]:
    """If every element is a translation x -> x + g, return the codes of the
    g's."""
    if all(a == d == H.spec.one and not c for a, _, c, d in H.codes):
        return [b for _, b, _, _ in H.codes]
    return None


def _conjugates_onto(spec: FieldSpec, g: tuple[int, int, int, int], H1: SubgroupPGL2, H2: SubgroupPGL2) -> bool:
    conj, codes2 = _conjugator(spec, g), set(H2.codes)
    return all(conj(x) in codes2 for x in H1.codes)


def _simplify_witness(
    spec: FieldSpec, g: Optional[tuple[int, int, int, int]], base: FieldSpec
) -> Optional[tuple[FieldSpec, tuple[int, int, int, int]]]:
    """The witness of the conjugator g over spec: (base, g projected) when
    its entries are rational over the base field, else (spec, g)."""
    if g is None:
        return None
    down = g if spec is base else _map_project(_projection_table(spec, base), g)
    return (spec, g) if down is None else (base, down)


def _comparable(H1: SubgroupPGL2, H2: SubgroupPGL2, r: int) -> bool:
    """Whether H1 and H2 have one order, so that they may be conjugate.  A
    field mismatch and an extension degree below 1 raise ValueError first,
    whatever the orders."""
    if H1.spec is not H2.spec:
        raise ValueError("subgroups must live over the same field")
    if r < 1:
        raise ValueError(f"extension degree must be >= 1, got {r}")
    return H1.order == H2.order


def is_conjugate(
    H1: SubgroupPGL2, H2: SubgroupPGL2, r: int
) -> Optional[tuple[FieldSpec, tuple[int, int, int, int]]]:
    """Search for g in PGL2(F_{q^r}) with g H1 g^{-1} = H2; returns a verified
    witness (_simplify_witness) or None.

    The search space is cut down by transporter reasoning on stabilized loci:
    a conjugator maps locus L1 onto locus L2, so it is g0 t with g0 from
    moebius.transporters(L1, L2) and t fixing L1 pointwise: only the identity
    for size >= 3, the torus through both points for size 2.  For size 1 both
    groups may reduce to translation groups, where conjugacy is scalar scaling
    of the translation sets.  Loci are computed at level r.  Loci of fewer
    than two points that are not those of translation groups are taken in the
    capture field F_{q^{2r}} instead, keeping the maps rational over F_{q^r}.
    """
    if not _comparable(H1, H2, r):
        return None
    base = H1.spec
    ext = extension_field(base, r)
    K1 = subgroup_embed(H1, ext)
    K2 = subgroup_embed(H2, ext)
    if H1.order == 1:
        return base, _kernel(base).identity
    L1 = stabilized_locus(H1, r)
    L2 = stabilized_locus(H2, r)
    if len(L1) != len(L2):
        return None

    if len(L1) == 1:
        # t1 and s2^{-1} carry the loci to infinity, where both groups
        # may become translation groups
        inverse = _kernel(ext).inverse
        t1 = inverse(mob_infinity_to(ext, L1[0]))
        s2 = mob_infinity_to(ext, L2[0])
        g1 = _translation_parts(conjugate_subgroup(K1, t1))
        g2 = _translation_parts(conjugate_subgroup(K2, inverse(s2)))
        if g1 is not None and g2 is not None:
            set2, mul = set(g2), ext._tables.mul
            for alpha in range(1, ext.q):
                if {mul(alpha, x) for x in g1} == set2:
                    g = mob_compose(ext, s2, mob_compose(ext, _diag(ext, alpha), t1))
                    if _conjugates_onto(ext, g, K1, K2):
                        return _simplify_witness(ext, g, base)
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
    fix = [_kernel(search).identity]
    if len(L1) == 2:
        src = (L1[0], L1[1], next(x for x in range(search.q + 1) if x not in L1))
        fix = (mob_from_three_points(search, src, (L1[0], L1[1], x)) for x in range(search.q + 1) if x not in L1)
    H1_search = subgroup_embed(H1, search).codes
    for t in fix:
        for g0 in transporters(search, L1, L2, H1_search):
            g = mob_compose(search, g0, t)
            if search is not ext:
                g = _map_project(_projection_table(search, ext), g)
            if g is not None and _conjugates_onto(ext, g, K1, K2):
                return _simplify_witness(ext, g, base)
    return None


def _bruteforce_search(K1: SubgroupPGL2, K2: SubgroupPGL2) -> Optional[tuple[int, int, int, int]]:
    spec, gens, codes2 = K1.spec, K1.generators, set(K2.codes)
    for g in _pgl2_codes(spec):
        conj = _conjugator(spec, g)
        if all(conj(x) in codes2 for x in gens) and _conjugates_onto(spec, g, K1, K2):
            return g
    return None


def is_conjugate_bruteforce(
    H1: SubgroupPGL2, H2: SubgroupPGL2, r: int
) -> Optional[tuple[FieldSpec, tuple[int, int, int, int]]]:
    """Independent oracle: scan every element of PGL2(F_{q^r}) for a conjugator."""
    if not _comparable(H1, H2, r):
        return None
    ext = extension_field(H1.spec, r)
    g = _bruteforce_search(subgroup_embed(H1, ext), subgroup_embed(H2, ext))
    return _simplify_witness(ext, g, H1.spec)


# ---------------------------------------------------------------------------
# serialization (the CLI's JSON payload)


def conjugate_to_json(H1: SubgroupPGL2, H2: SubgroupPGL2, r: int, brute: bool) -> dict:
    """The conjugate command's record: the verdict of is_conjugate, or of the
    oracle is_conjugate_bruteforce when brute is set, and its witness."""
    witness = (is_conjugate_bruteforce if brute else is_conjugate)(H1, H2, r)
    return {
        "schema": "pglcensus/conjugate/v1",
        "field": render_field_spec(H1.spec),
        "ext": r,
        "order1": H1.order,
        "order2": H2.order,
        "conjugate": witness is not None,
        "witness": None if witness is None else _render_codes(*witness),
        "witness_field": None if witness is None else render_field_spec(witness[0]),
        "method": "bruteforce" if brute else "transporter",
    }
