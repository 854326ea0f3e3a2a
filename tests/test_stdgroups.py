import itertools
import json
import random

import pytest

import pglcensus.stdgroups as stdgroups
from pglcensus.census import additive_subgroup, enum_additive_subgroups, gamma_to_unipotent
from pglcensus.gfq import (
    field_elements,
    field_make,
    fq_embed,
    fq_from_int,
    fq_gen,
    fq_mul,
    fq_one,
    fq_zero,
)
from pglcensus.moebius import (
    mob_apply,
    mob_compose,
    mob_conjugate,
    mob_identity,
    mob_inverse,
    mob_make,
    pgl2_elements,
    pp1_infinity,
    render_point,
)
from pglcensus.stdgroups import (
    _conjugates_onto,
    close_generators,
    conjugate_subgroup,
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
    subgroup_from_json,
    subgroup_to_json,
)

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)
F5 = field_make(5, 1)
F8 = field_make(2, 3)
F9 = field_make(3, 2)
F11 = field_make(11, 1)
F13 = field_make(13, 1)


def mk(spec, a, b, c, d):
    return mob_make(*(fq_from_int(spec, v) for v in (a, b, c, d)))


def _klein_over_F13(a):
    """{x, -x, a/x, -a/x} over F13."""
    return close_generators([mk(F13, 12, 0, 0, 1), mk(F13, 0, a, 1, 0)])


class TestClosure:
    def test_trivial_group(self):
        H = close_generators([mob_identity(F5)])
        assert H.order == 1

    def test_order_p_translation(self):
        H = close_generators([mk(F3, 1, 1, 0, 1)])
        assert H.order == 3

    def test_two_transvections_generate_pgl2_f2(self):
        H = close_generators([mk(F2, 1, 1, 0, 1), mk(F2, 1, 0, 1, 1)])
        assert H.order == 6  # 2^3 - 2

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            close_generators([mk(F5, 1, 1, 0, 1), mk(F5, 1, 0, 1, 1)], cap=10)

    def test_closure_idempotent(self):
        for H in (std_cyclic(F5, 4), std_dihedral(F5, 4), std_A4(F5)):
            again = close_generators(list(H.elements))
            assert again.elements == H.elements


class TestStandardConstructors:
    def test_cyclic(self):
        H = std_cyclic(F5, 4)
        assert H.order == 4 and H.tag == "cyclic:4"
        diag_entries = {m.d.coeffs[0] for m in H.elements}
        assert diag_entries == {1, 2, 3, 4}  # normalized to diag(1, mu^-1)

    def test_cyclic_rejects_p_dividing_n(self):
        with pytest.raises(ValueError, match="divides"):
            std_cyclic(F5, 5)

    def test_cyclic_rejects_missing_roots_naming_extension(self):
        with pytest.raises(ValueError, match="extension degree is 2"):
            std_cyclic(F5, 3)

    def test_cyclic_in_extension(self):
        H = std_cyclic(F4, 3)
        assert H.order == 3

    def test_dihedral(self):
        assert std_dihedral(F5, 4).order == 8
        assert std_dihedral(F4, 3).order == 6

    def test_dihedral_char2(self):
        with pytest.raises(ValueError, match="divides"):
            std_dihedral(F4, 2)
        with pytest.raises(ValueError, match="greater than one"):
            std_dihedral(F4, 1)

    def test_A4(self):
        H = std_A4(F5)
        assert H.order == 12
        assert fingerprint(H).element_orders == ((1, 1), (2, 3), (3, 8))
        with pytest.raises(ValueError, match="characteristic"):
            std_A4(F3)

    def test_S4(self):
        assert std_S4_order() == 24

    def test_A5(self):
        H = std_A5(F11)
        assert H.order == 60
        # the icosahedral order statistics: 15 involutions, 20 of order 3,
        # 24 of order 5
        assert fingerprint(H).element_orders == ((1, 1), (2, 15), (3, 20), (5, 24))
        with pytest.raises(ValueError, match="characteristic"):
            std_A5(F5)

    def test_A5_char3(self):
        F81 = field_make(3, 4)
        H = std_A5(F81)
        assert H.order == 60
        assert not fingerprint(H).p_regular  # 3 | 60
        with pytest.raises(ValueError, match="extension degree"):
            std_A5(F9)

    def test_psl2_pgl2(self):
        assert std_PSL2(F5, 1).order == 60
        assert std_PGL2(F3, 1).order == 24
        a, b = std_PGL2(F2, 1), std_PSL2(F2, 1)
        assert a.elements == b.elements and a.order == 6

    def test_model_closure_of_another_order_is_refused(self, monkeypatch):
        # every closed model checks the order its docstring states: in
        # characteristic 2, gcd(2, q0 - 1) = 1 and PSL2 = PGL2
        assert std_PSL2(F4, 2).order == std_PGL2(F4, 2).order == 60
        assert std_PSL2(F8, 1).order == 6
        diag2 = mob_make(fq_from_int(F5, 2), fq_zero(F5), fq_zero(F5), fq_one(F5))  # order 4
        with pytest.raises(AssertionError, match=r"cyclic:4 closure has order 4, expected 5"):
            stdgroups._closed_model([diag2], "cyclic:4", 5)
        # with x -> x + 1 as the only transvection, both closures fall short
        def one_transvection(spec, sub_degree):
            return [mob_make(*(fq_from_int(spec, v) for v in (1, 1, 0, 1)))]

        monkeypatch.setattr(stdgroups, "_transvections", one_transvection)
        for build, tag in ((std_PSL2, "PSL2:1"), (std_PGL2, "PGL2:1")):
            with pytest.raises(AssertionError, match=rf"{tag} closure has order"):
                build(F5, 1)

    def test_pgl2_closes_generators_not_elements(self):
        # one product per generator and element, not |PSL2| products per element
        mob_compose.cache_clear()
        H = std_PGL2(F11, 1)
        assert mob_compose.cache_info().misses <= 4 * H.order
        assert H.elements == tuple(pgl2_elements(F11))

    def test_psl2_subfield_inside_extension(self):
        H = std_PSL2(F9, 1)  # PSL2(F3) inside PGL2(F9)
        assert H.order == 12  # (27 - 3) / 2

    def test_pgl2_rejects_bad_subfield_degree(self):
        with pytest.raises(ValueError, match="divide"):
            std_PSL2(F9, 3)

    def test_gamma_semidirect(self):
        gamma = additive_subgroup(F9, [fq_one(F9)])  # F3 inside F9
        H = std_gamma_semidirect(gamma, 2)
        assert H.order == 6 and H.tag == "gamma:1:2"

    def test_gamma_semidirect_degenerate_n1(self):
        gamma = additive_subgroup(F4, [fq_one(F4)])
        H = std_gamma_semidirect(gamma, 1)
        assert H.order == 2 and H.tag == "Zp^1"
        assert mk(F4, 1, 1, 0, 1) in H.elements

    def test_gamma_semidirect_rejects_bad_gamma(self):
        gamma = additive_subgroup(F4, [fq_gen(F4)])  # span{t} misses mu_3
        with pytest.raises(ValueError, match="not contained"):
            std_gamma_semidirect(gamma, 3)


def std_S4_order():
    from pglcensus.stdgroups import std_S4

    return std_S4(F5).order


class TestFingerprint:
    def test_trivial(self):
        fp = fingerprint(close_generators([mob_identity(F5)]))
        assert fp.order == 1 and fp.element_orders == ((1, 1),) and fp.abelian and fp.p_regular

    def test_cyclic4(self):
        fp = fingerprint(std_cyclic(F5, 4))
        assert fp.element_orders == ((1, 1), (2, 1), (4, 2))
        assert fp.abelian and fp.p_regular

    def test_full_translation_group_of_F4(self):
        gamma = additive_subgroup(F4, [fq_one(F4), fq_gen(F4)])
        fp = fingerprint(gamma_to_unipotent(gamma))
        assert fp.order == 4
        assert fp.element_orders == ((1, 1), (2, 3))  # Klein group signature
        assert fp.abelian and not fp.p_regular

    def test_dihedral_nonabelian(self):
        assert not fingerprint(std_dihedral(F5, 4)).abelian


class TestStabilizedLocus:
    def test_cyclic_locus_is_zero_and_infinity(self):
        locus = stabilized_locus(std_cyclic(F5, 4), 2)
        assert [render_point(P) for P in locus] == ["0,0", "inf"]

    def test_pgl2_locus_contains_expected_points(self):
        locus = stabilized_locus(std_PGL2(F5, 1), 2)
        ext = field_make(5, 2)
        rendered = {render_point(P) for P in locus}
        assert {"0,0", "inf"} <= rendered
        assert len(locus) >= 4
        # the square roots of -1 in F5 are 2 and 3, embedded as constants
        assert {render_point_of_int(ext, 2), render_point_of_int(ext, 3)} <= rendered

    def test_unipotent_locus_is_exactly_infinity(self):
        for gamma in enum_additive_subgroups(F8, 1):
            locus = stabilized_locus(gamma_to_unipotent(gamma), 2)
            assert len(locus) == 1 and locus[0].is_infinity

    def test_every_noncyclic_p_regular_model_has_three_points(self):
        models = [
            std_dihedral(F5, 4),
            std_A4(F5),
            std_A5(F11),
        ]
        for H in models:
            assert len(stabilized_locus(H, 2)) >= 3, H.tag

    def test_gamma_semidirect_contains_formula_points(self):
        # locus contains inf, 0 and g/(1 - zeta) for each nonzero g
        gamma = additive_subgroup(F9, [fq_one(F9)])
        H = std_gamma_semidirect(gamma, 2)
        locus = stabilized_locus(H, 2)
        assert len(locus) >= 3
        ext = locus[0].spec if not locus[0].is_infinity else locus[-1].spec
        zeta = fq_from_int(ext, -1)
        one = fq_one(ext)
        denom_inv = (one - zeta)
        for g_int in (1, 2):
            g = fq_from_int(ext, g_int)
            target = g / denom_inv
            assert any((not P.is_infinity) and P.x == target for P in locus)


def render_point_of_int(ext, k):
    from pglcensus.moebius import pp1_affine

    return render_point(pp1_affine(fq_from_int(ext, k)))


class TestConjugacy:
    def test_self_conjugate_identity_witness(self):
        H = std_cyclic(F5, 4)
        g = is_conjugate(H, H, 2)
        assert g is not None

    def test_unipotent_scaling_over_F4(self):
        g1 = gamma_to_unipotent(additive_subgroup(F4, [fq_one(F4)]))
        g2 = gamma_to_unipotent(additive_subgroup(F4, [fq_gen(F4)]))
        w = is_conjugate(g1, g2, 1)
        assert w is not None
        assert conjugate_subgroup(g1, w).elements == g2.elements
        # and the scalar relation itself: t * span{1} = span{t}
        t = fq_gen(F4)
        assert {fq_mul(t, x).coeffs for x in (fq_zero(F4), fq_one(F4))} == {(0, 0), (0, 1)}

    def test_order_obstruction(self):
        H1 = std_cyclic(F5, 4)
        H2 = gamma_to_unipotent(additive_subgroup(F5, [fq_one(F5)]))
        assert is_conjugate(H1, H2, 2) is None

    def test_agrees_with_bruteforce_on_unipotent_pairs(self):
        subs = [gamma_to_unipotent(g) for g in enum_additive_subgroups(F4, 1)]
        subs += [gamma_to_unipotent(g) for g in enum_additive_subgroups(F4, 2)]
        for H1, H2 in itertools.product(subs, repeat=2):
            fast = is_conjugate(H1, H2, 1)
            brute = is_conjugate_bruteforce(H1, H2, 1)
            assert (fast is None) == (brute is None)
            if fast is not None:
                assert conjugate_subgroup(H1, fast).elements == H2.elements

    def test_two_point_locus_conjugacy(self):
        # conjugates of the diagonal group with loci {0, inf} vs {1, 2}
        H1 = std_cyclic(F5, 4)
        g = mob_make(
            fq_from_int(F5, 1), fq_from_int(F5, 1), fq_from_int(F5, 1), fq_from_int(F5, 2)
        )
        H2 = conjugate_subgroup(H1, g)
        w = is_conjugate(H1, H2, 1)
        assert w is not None and conjugate_subgroup(H1, w).elements == H2.elements

    def test_two_point_locus_needs_the_torus(self):
        # {x, -x, a/x, -a/x} over F13 for a = 2 and a = 5, both non-squares:
        # each has level-1 locus {0, inf}, and no conjugator sends 1 to 1
        H1, H2 = (_klein_over_F13(a) for a in (2, 5))
        assert stabilized_locus(H1, 1) == stabilized_locus(H2, 1)
        assert len(stabilized_locus(H1, 1)) == 2
        w = is_conjugate(H1, H2, 1)
        assert w is not None and _conjugates_onto(w, H1, H2)

    def test_two_point_locus_agrees_with_bruteforce(self):
        # the three Klein groups {x, -x, a/x, -a/x}, one per pair {a, -a} of
        # non-squares mod 13, all with level-1 locus {0, inf}
        groups = [_klein_over_F13(a) for a in (2, 5, 6)]
        for H1, H2 in itertools.product(groups, repeat=2):
            fast = is_conjugate(H1, H2, 1)
            brute = is_conjugate_bruteforce(H1, H2, 1)
            assert (fast is None) == (brute is None)
            assert fast is None or _conjugates_onto(fast, H1, H2)

    def test_three_point_locus_conjugacy(self):
        H1 = std_A4(F5)
        g = mk(F5, 1, 2, 0, 1)
        H2 = conjugate_subgroup(H1, g)
        w = is_conjugate(H1, H2, 2)
        assert w is not None and conjugate_subgroup(H1, w).elements == H2.elements

    def test_nonconjugate_same_order_gammas_in_F16(self):
        # In F16, rank-2 additive subgroups split into scaling orbits; the
        # F4-subfield line is not a scalar multiple of a generic plane.
        F16 = field_make(2, 4)
        f4_line = additive_subgroup(
            F16, [fq_embed(x, F16) for x in field_elements(F4) if not x.is_zero()]
        )
        assert f4_line.rank == 2
        generic = next(
            G
            for G in enum_additive_subgroups(F16, 2)
            if not _scalar_related(G, f4_line)
        )
        H1 = gamma_to_unipotent(f4_line)
        H2 = gamma_to_unipotent(generic)
        assert is_conjugate(H1, H2, 1) is None
        assert is_conjugate_bruteforce(H1, H2, 1) is None
        # positive control: a scalar multiple is conjugate
        alpha = fq_gen(F16)
        from pglcensus.census import scale_subgroup

        H3 = gamma_to_unipotent(scale_subgroup(f4_line, alpha))
        assert is_conjugate(H1, H3, 1) is not None

    def test_witness_symmetry(self):
        # if w conjugates H1 onto H2, its inverse conjugates H2 onto H1
        pairs = []
        g1 = gamma_to_unipotent(additive_subgroup(F4, [fq_one(F4)]))
        g2 = gamma_to_unipotent(additive_subgroup(F4, [fq_gen(F4)]))
        pairs.append((g1, g2, 1))
        H1 = std_cyclic(F5, 4)
        H2 = conjugate_subgroup(H1, mk(F5, 1, 1, 1, 2))
        pairs.append((H1, H2, 1))
        for A, B, r in pairs:
            w = is_conjugate(A, B, r)
            assert w is not None
            back = is_conjugate(B, A, r)
            assert back is not None
            assert conjugate_subgroup(B, mob_inverse(w)).elements == A.elements

    def test_fallback_when_locus_is_irrational_at_level_one(self):
        # the order-3 subgroup of PGL2(F2) has both fixed points in F4, so at
        # r = 1 the loci are empty and the search takes them in F4
        g = mk(F2, 0, 1, 1, 1)
        H = close_generators([g])
        assert H.order == 3
        w = is_conjugate(H, H, 1)
        assert w is not None and conjugate_subgroup(H, w).elements == H.elements
        # at r = 2 the two fixed points are visible and the pair path runs
        w2 = is_conjugate(H, H, 2)
        assert w2 is not None

    def test_conjugation_preserves_fingerprint_and_locus_size(self):
        rng = random.Random(3)
        models = [std_cyclic(F5, 4), std_dihedral(F5, 2), std_A4(F5)]
        all_g = list(pgl2_elements(F5))
        for H in models:
            fp = fingerprint(H)
            size = len(stabilized_locus(H, 2))
            for g in rng.sample(all_g, 10):
                K = conjugate_subgroup(H, g)
                assert fingerprint(K) == fp
                assert len(stabilized_locus(K, 2)) == size

    def test_conjugation_inverts_once(self, monkeypatch):
        # S4 over F13 by seeded maps: one mob_inverse per call, not one per
        # element, and the same subgroup as mob_conjugate element by element
        calls = []

        def counted(m, f=stdgroups.mob_inverse):
            calls.append(m)
            return f(m)

        monkeypatch.setattr(stdgroups, "mob_inverse", counted)
        H = stdgroups.std_S4(F13)
        # the identity returns H as it is, with no inverse
        maps = random.Random(13).sample([g for g in pgl2_elements(F13) if g != mob_identity(F13)], 5)
        for k, g in enumerate(maps, 1):
            K = conjugate_subgroup(H, g)
            assert len(calls) == k
            assert set(K.elements) == {mob_conjugate(g, m) for m in H.elements}


def _scalar_related(G1, G2):
    from pglcensus.census import scale_subgroup

    spec = G1.spec
    for alpha in field_elements(spec):
        if alpha.is_zero():
            continue
        if scale_subgroup(G1, alpha) == G2:
            return True
    return False


class TestSerialization:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: std_cyclic(F5, 4),
            lambda: std_dihedral(F4, 3),
            lambda: std_A4(F5),
            lambda: gamma_to_unipotent(additive_subgroup(F8, [fq_one(F8)])),
        ],
    )
    def test_json_round_trip(self, build):
        H = build()
        data = json.loads(json.dumps(subgroup_to_json(H), sort_keys=True))
        K = subgroup_from_json(data)
        assert K.elements == H.elements and K.tag == H.tag

    def test_json_is_deterministic(self):
        H = std_cyclic(F5, 4)
        again = std_cyclic(F5, 4)
        assert json.dumps(subgroup_to_json(H), sort_keys=True) == json.dumps(subgroup_to_json(again), sort_keys=True)

    def test_json_fields(self):
        data = subgroup_to_json(std_cyclic(F5, 4))
        assert set(data) == {"field", "tag", "generators", "order", "locus", "locus_field", "locus_ext"}
        assert data["order"] == 4 and data["locus"] == ["0,0", "inf"]
