"""Exact census of finite group actions on the projective line and on
elliptic curves over finite fields.

The package approximates statements over an algebraically closed field of
characteristic p by computing over explicit finite levels F_{p^n}: a claim
that infinitely many objects exist becomes the claim that their exact count
grows without bound as n grows.  All arithmetic is exact; all searches are
exhaustive; all reports are deterministic.
"""

from .gfq import (
    FieldSpec,
    FqElem,
    extension_field,
    field_elements,
    field_make,
    fq_add,
    fq_div,
    fq_embed,
    fq_from_int,
    fq_inv,
    fq_mul,
    fq_neg,
    fq_one,
    fq_pow,
    fq_project,
    fq_sub,
    fq_zero,
    parse_field_spec,
    poly_roots,
    render_field_spec,
    roots_of_unity,
)
from .moebius import (
    Moebius,
    PP1,
    RamPoint,
    mob_apply,
    mob_compose,
    mob_fixed_points,
    mob_from_three_points,
    mob_inverse,
    mob_make,
    mob_order,
    pgl2_elements,
    poly_map_ramification,
    pp1_affine,
    pp1_infinity,
    verify_p1fp,
)
from .stdgroups import (
    Fingerprint,
    SubgroupPGL2,
    close_generators,
    fingerprint,
    is_conjugate,
    is_conjugate_bruteforce,
    stabilized_locus,
    std_A4,
    std_A5,
    std_cyclic,
    std_dihedral,
    std_gamma_semidirect,
    std_PGL2,
    std_PSL2,
)
from .census import (
    AdditiveSubgroup,
    CensusQuery,
    CensusReport,
    additive_subgroup,
    enum_actions,
    enum_additive_subgroups,
    gamma_to_unipotent,
    gaussian_binomial,
    oracle_enum_elem_abelian,
    scale_subgroup,
    unipotent_to_gamma,
    verify_main_theorem,
)
from .elliptic import (
    ECAut,
    ECPoint,
    ECurve,
    abelian_subgroup_count,
    aut0,
    aut_fixed_points,
    base_change,
    count_auts_fixing,
    ec_add,
    ec_neg,
    ec_point,
    ec_points,
    enum_spf_actions,
    kernel_one_minus_sigma,
    standard_test_curves,
    torsion_invariant_factors,
    verify_fpf_dichotomy,
    verify_genus1_finiteness,
)

__version__ = "0.1.0"
