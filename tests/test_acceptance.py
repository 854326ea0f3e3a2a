"""Acceptance suite: one test per criterion, exact integer expectations.

Each test prints a PASS line naming the criterion; run with
`pytest tests/test_acceptance.py -v` for the per-criterion verdicts.
"""

import functools
import itertools
import math

from pglcensus.census import (
    CensusQuery,
    additive_subgroup,
    enum_actions,
    enum_additive_subgroups,
    gamma_to_unipotent,
    scale_subgroup,
)
from pglcensus.cli import main as cli_main
from pglcensus.conjugacy import is_conjugate, is_conjugate_bruteforce
from pglcensus.dichotomy import verify_main_theorem
from pglcensus.elliptic import (
    aut0,
    enum_spf_actions,
    fixing_counts_ok,
    max_singleton_bound,
    standard_test_curves,
    verify_fpf_dichotomy,
)
from pglcensus.gfq import _inverse_cache, extension_field, field_elements, field_make
from pglcensus.moebius import pp1_infinity, render_point
from pglcensus.p1checks import poly_map_ramification, verify_p1fp
from pglcensus.stdgroups import (
    fingerprint,
    stabilized_locus,
    std_A4,
    std_A5,
    std_cyclic,
    std_dihedral,
    std_gamma_semidirect,
    std_PGL2,
    std_PSL2,
)


def test_criterion_1_p1fp_suite():
    """Every non-identity element of PGL2(F_q) has 1 or 2 fixed points in
    P^1(F_{q^2}), with exactly 1 iff its order is p; zero exceptions."""
    fields = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
    for p, n in fields:
        spec = field_make(p, n)
        assert spec.q ** 3 - spec.q <= 720
        report = verify_p1fp(spec)
        assert report.ok, (spec, report.violations)
        assert report.checked == spec.q ** 3 - spec.q - 1
    print("ACCEPTANCE 1: fixed-point dichotomy holds for q in {2,3,4,5,7,8,9} -- PASS")


def test_criterion_2_classification_constructors():
    """Constructor orders are exact, and stabilized-point counts follow the
    classification: >= 3 except cyclic (2 points) and pure translation
    groups (exactly one point, infinity)."""
    F3 = field_make(3, 1)
    F4 = field_make(2, 2)
    F5 = field_make(5, 1)
    F8 = field_make(2, 3)
    F9 = field_make(3, 2)
    F11 = field_make(11, 1)
    F81 = field_make(3, 4)

    cyclic = std_cyclic(F5, 4)
    assert cyclic.order == 4
    dihedral = std_dihedral(F5, 4)
    assert dihedral.order == 2 * 4
    dihedral2 = std_dihedral(F4, 3)
    assert dihedral2.order == 2 * 3
    a4 = std_A4(F5)
    assert a4.order == 12
    s4 = std_S4_local(F5)
    assert s4.order == 24
    a5 = std_A5(F11)
    assert a5.order == 60
    a5w = std_A5(F81)
    assert a5w.order == 60
    psl = std_PSL2(F5, 1)
    assert psl.order == (5 ** 3 - 5) // math.gcd(2, 5 - 1)
    pgl = std_PGL2(F3, 1)
    assert pgl.order == 3 ** 3 - 3
    gamma = additive_subgroup(F9, [F9.q // F9.p])  # the span of 1
    semi = std_gamma_semidirect(gamma, 2)
    assert semi.order == 2 * 3 ** 1
    full_f4 = additive_subgroup(F4, [1, 2, 3])
    semi2 = std_gamma_semidirect(full_f4, 3)  # mu_3(F_4) inside the full field
    assert semi2.order == 3 * 2 ** 2

    # locus sizes: cyclic has exactly two stabilized points
    assert len(stabilized_locus(cyclic, 2)) == 2
    # every p-regular non-cyclic model has at least three
    for H in (dihedral, a4, s4, a5):
        assert fingerprint(H).p_regular
        assert len(stabilized_locus(H, 2)) >= 3, H.tag
    # the small p-irregular models visibly have at least three as well
    for H in (dihedral2, psl, pgl):
        assert len(stabilized_locus(H, 2)) >= 3, H.tag
    # gamma semidirect with n > 1 has at least three
    assert len(stabilized_locus(semi, 2)) >= 3
    assert len(stabilized_locus(semi2, 2)) >= 3
    # pure translation groups stabilize exactly the point at infinity
    for spec in (F4, F8):
        for m in range(1, spec.n + 1):
            for G in enum_additive_subgroups(spec, m):
                locus = stabilized_locus(gamma_to_unipotent(G), 2)
                assert locus == (pp1_infinity(extension_field(spec, 2)),)
    print("ACCEPTANCE 2: classification constructors (orders and loci) -- PASS")


def std_S4_local(spec):
    from pglcensus.stdgroups import std_S4

    return std_S4(spec)


def test_criterion_3_main_theorem_census():
    """Census, subspace enumeration and element-scan oracle agree with the
    Gaussian binomial for every (p, n, m) at desk scale, and counts grow
    strictly with the level."""
    expected_p2_m1 = {1: 1, 2: 3, 3: 7, 4: 15}
    report2 = verify_main_theorem(2, [1, 2, 3, 4])
    assert report2.ok, report2.mismatches()
    for row in report2.rows:
        if row.m == 1:
            assert row.census_count == expected_p2_m1[row.n]
        if (row.n, row.m) == (4, 2):
            assert row.census_count == 35
    report3 = verify_main_theorem(3, [1, 2])
    assert report3.ok, report3.mismatches()
    report5 = verify_main_theorem(5, [1, 2])
    assert report5.ok, report5.mismatches()
    for rep in (report2, report3, report5):
        for row in rep.rows:
            assert row.census_count == row.subspace_count == row.oracle_count == row.gaussian
        assert all(growing for _, growing in rep.growth_ok)
    print("ACCEPTANCE 3: three-way census agreement and strict growth -- PASS")


def test_criterion_4_conjugacy_criterion():
    """Unipotent subgroups are conjugate iff their translation subgroups
    differ by a nonzero scalar; transporter search and brute force agree on
    every pair over F_4 and F_8."""
    for spec in (field_make(2, 2), field_make(2, 3)):
        subs = []
        for m in range(1, spec.n + 1):
            subs.extend(enum_additive_subgroups(spec, m))
        groups = {G.basis: gamma_to_unipotent(G) for G in subs}
        for G1, G2 in itertools.product(subs, repeat=2):
            scalar_related = any(
                scale_subgroup(G1, alpha) == G2
                for alpha in range(1, spec.q)
            )
            fast = is_conjugate(groups[G1.basis], groups[G2.basis], 1)
            brute = is_conjugate_bruteforce(groups[G1.basis], groups[G2.basis], 1)
            assert (fast is not None) == (brute is not None) == scalar_related, (G1, G2)
    print("ACCEPTANCE 4: alpha-scaling conjugacy criterion vs brute force -- PASS")


def test_criterion_5_tame_finiteness():
    """The cyclic census with locus {0, inf} finds exactly one action; every
    one-point and every three-point locus finds none."""
    for q_spec, n in (((5, 1), 4), ((7, 1), 6), ((3, 2), 8)):
        spec = field_make(*q_spec)
        points = list(range(spec.q + 1))
        two_point = enum_actions(
            CensusQuery(spec, f"cyclic:{n}", (points[0], points[-1]), r=1)  # {0, inf}
        )
        assert two_point.count == 1, (spec, n)
        for P in points:
            rep = enum_actions(CensusQuery(spec, f"cyclic:{n}", (P,), r=1))
            assert rep.count == 0, (spec, n, P)
        for triple in itertools.combinations(points, 3):
            rep = enum_actions(CensusQuery(spec, f"cyclic:{n}", triple, r=1))
            assert rep.count == 0, (spec, n, triple)
    print("ACCEPTANCE 5: cyclic census = 1 at {0,inf}, 0 at all 1- and 3-point loci -- PASS")


def test_criterion_6_polynomial_family_ramification():
    """For p in {3, 5} and every t in F_{p^2}, the map x^(p+2) + t x^p + x
    ramifies exactly at infinity (index p+2) and the (p+1)-st roots of -1/2
    (index 2), all tame, identically in t."""
    for p in (3, 5):
        spec = field_make(p, 2)
        t, one = spec._tables, spec.q // spec.p
        # independent oracle for the expected locus: solve x^{p+1} = -1/2
        target = t.sub(0, _inverse_cache(spec)[t.add(one, one)])
        expected_roots = {x for x in field_elements(spec) if x and functools.reduce(t.mul, [x] * (p + 1)) == target}
        assert expected_roots, "the expected roots must exist at level p^2"
        seen = []
        for t_elem in field_elements(spec):
            coeffs = [0] * (p + 3)
            coeffs[1] = one
            coeffs[p] = t_elem
            coeffs[p + 2] = one
            ram = poly_map_ramification(spec, coeffs, 1)
            inf_part = [r for r in ram if r.point == pp1_infinity(spec)]
            fin_part = [r for r in ram if r.point != pp1_infinity(spec)]
            assert len(inf_part) == 1
            assert inf_part[0].index == p + 2 and inf_part[0].tame
            assert {r.point for r in fin_part} == expected_roots
            assert all(r.index == 2 and r.tame for r in fin_part)
            seen.append(tuple(sorted((render_point(spec, r.point), r.index) for r in ram)))
        assert len(set(seen)) == 1  # identical locus for every t
    print("ACCEPTANCE 6: x^(p+2)+t x^p+x ramification locus exact and t-independent -- PASS")


def test_criterion_7_genus1_suite():
    """Across the four versioned curves: the fixed-point-free dichotomy and
    kernel-coset fibre structure hold, every rational point is fixed by
    exactly |Aut_0| automorphisms, stabilized-point-free action counts match
    abstract subgroup counts, and the singleton bound lies between 2 and
    2^|Aut_0|."""
    from pglcensus.elliptic import abelian_subgroup_count, torsion_invariant_factors

    for name, E in standard_test_curves():
        dich = verify_fpf_dichotomy(E, levels=(1, 2, 3))
        assert dich.ok, (name, dich.violations)
        assert fixing_counts_ok(E)
        for n in (1, 2, 3, 4):
            expected = abelian_subgroup_count(torsion_invariant_factors(E, n), n)
            assert len(enum_spf_actions(E, n)) == expected
        # at most one admissible (P, u) per u != 1, besides the identity
        assert 2 <= max_singleton_bound(E) <= 2 ** len(aut0(E))
    print("ACCEPTANCE 7: genus-1 exhaustive suite over the versioned curves -- PASS")


def test_criterion_8_determinism():
    """Identical CLI invocations produce identical bytes, and a parallel
    census merges to exactly the serial census."""
    import io

    def run(argv):
        buf = io.StringIO()
        code = cli_main(argv, out=buf)
        return code, buf.getvalue()

    for argv in (
        ["census", "--field", "2^3", "--group", "Zp^1", "--locus", "inf"],
        ["census", "--field", "5^1", "--group", "cyclic:4", "--locus", "0,inf"],
        ["verify-main", "--p", "3", "--levels", "1-2"],
        ["verify-p1fp", "--field", "2^2"],
    ):
        first = run(list(argv))
        second = run(list(argv))
        assert first == second, argv

    serial = run(["census", "--field", "2^3", "--group", "Zp^2", "--locus", "inf", "--jobs", "1"])
    parallel = run(["census", "--field", "2^3", "--group", "Zp^2", "--locus", "inf", "--jobs", "4"])
    assert serial == parallel
    print("ACCEPTANCE 8: byte-identical reruns; --jobs 4 census == --jobs 1 census -- PASS")
