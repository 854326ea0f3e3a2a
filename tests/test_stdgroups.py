import itertools
import json
import random
import types

import pytest

import pglcensus.stdgroups as stdgroups
from pglcensus.census import additive_subgroup, enum_additive_subgroups, gamma_to_unipotent
from pglcensus.conjugacy import _conjugates_onto, is_conjugate, is_conjugate_bruteforce
from pglcensus.gfq import (
    _digits,
    _embedding_table,
    _int_code,
    _inverse_cache,
    _projection_table,
    extension_field,
    field_make,
)
from pglcensus.moebius import _kernel, _pgl2_codes, mob_compose, mob_infinity_to, render_point
from pglcensus.stdgroups import (
    _map_project,
    close_generators,
    conjugate_subgroup,
    fingerprint,
    stabilized_locus,
    std_A4,
    std_A5,
    std_cyclic,
    std_dihedral,
    std_gamma_semidirect,
    std_PGL2,
    std_PSL2,
    subgroup_embed,
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
ONE4, T4, ONE9 = 2, 1, 3  # the codes of 1 and x in F4, and of 1 in F9


def mk(spec, a, b, c, d):
    """The entry codes of the map [[a,b],[c,d]], its entries integers mod p."""
    return _kernel(spec).normalize(*(_int_code(spec, v) for v in (a, b, c, d)))


def witness_map(H, w):
    """The codes of the witness w = (field, codes), which lies over H's field."""
    spec, g = w
    assert spec is H.spec
    return g


def _klein_over_F13(a):
    """{x, -x, a/x, -a/x} over F13."""
    return close_generators(F13, [mk(F13, 12, 0, 0, 1), mk(F13, 0, a, 1, 0)])


class TestClosure:
    def test_trivial_group(self):
        H = close_generators(F5, [_kernel(F5).identity])
        assert H.order == 1

    def test_order_p_translation(self):
        H = close_generators(F3, [mk(F3, 1, 1, 0, 1)])
        assert H.order == 3

    def test_two_transvections_generate_pgl2_f2(self):
        H = close_generators(F2, [mk(F2, 1, 1, 0, 1), mk(F2, 1, 0, 1, 1)])
        assert H.order == 6  # 2^3 - 2

    def test_closure_past_pgl2_is_a_broken_law(self, monkeypatch):
        # a law that returns a fresh tuple on every call never closes: past
        # |PGL2(F_5)| = 120 members the closure is refused as a broken law
        K, fresh = _kernel(F5), itertools.count()
        broken = types.SimpleNamespace(**{**vars(K), "law": lambda x, y: (next(fresh), 0, 0, 0)})
        monkeypatch.setattr(stdgroups, "_kernel", lambda spec: broken)
        with pytest.raises(AssertionError, match="120: the code law is broken"):
            close_generators(F5, [mk(F5, 1, 1, 0, 1)])

    def test_closure_idempotent(self):
        for H in (std_cyclic(F5, 4), std_dihedral(F5, 4), std_A4(F5)):
            again = close_generators(F5, list(H.codes))
            assert again.codes == H.codes

    def test_generators_of_another_field_are_refused(self):
        # a code tuple carries no field, so it is checked against the one it
        # comes with: x -> x + 1 over F2 is (1, 1, 0, 1), whose entry 1 is
        # not F4's one (code 2), so over F4 it is not normalized
        with pytest.raises(ValueError, match=r"generator \(1, 1, 0, 1\) is not a normalized map over F_2\^2"):
            close_generators(F4, [mk(F4, 1, 1, 0, 1), mk(F2, 1, 1, 0, 1)])
        # codes past the field or negative, an unscaled matrix, a list and
        # a tuple of three
        for g in ((1, 5, 0, 1), (-1, 0, 0, 1), (2, 0, 0, 1), [1, 0, 0, 1], (1, 0, 0)):
            with pytest.raises(ValueError, match="is not a normalized map over F_5\\^1"):
                close_generators(F5, [g])
        with pytest.raises(ValueError, match="singular"):
            close_generators(F5, [(1, 1, 1, 1)])


class TestStandardConstructors:
    def test_cyclic(self):
        H = std_cyclic(F5, 4)
        assert H.order == 4 and H.tag == "cyclic:4"
        diag_entries = {g[3] for g in H.codes}
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
        with pytest.raises(ValueError, match="extension degree"):
            std_A5(F9)

    def test_psl2_pgl2(self):
        assert std_PSL2(F5, 1).order == 60
        assert std_PGL2(F3, 1).order == 24
        a, b = std_PGL2(F2, 1), std_PSL2(F2, 1)
        assert a.codes == b.codes and a.order == 6

    def test_model_closure_of_another_order_is_refused(self, monkeypatch):
        # every closed model checks the order its docstring states: in
        # characteristic 2, gcd(2, q0 - 1) = 1 and PSL2 = PGL2
        assert std_PSL2(F4, 2).order == std_PGL2(F4, 2).order == 60
        assert std_PSL2(F8, 1).order == 6
        diag2 = mk(F5, 2, 0, 0, 1)  # order 4
        with pytest.raises(AssertionError, match=r"cyclic:4 closure has order 4, expected 5"):
            stdgroups._closed_model(F5, [diag2], "cyclic:4", 5)
        # with x -> x + 1 as the only transvection, both closures fall short
        def one_transvection(spec, sub_degree):
            return [mk(spec, 1, 1, 0, 1)]

        monkeypatch.setattr(stdgroups, "_transvections", one_transvection)
        for build, tag in ((std_PSL2, "PSL2:1"), (std_PGL2, "PGL2:1")):
            with pytest.raises(AssertionError, match=rf"{tag} closure has order"):
                build(F5, 1)

    def test_pgl2_closes_generators_not_elements(self, monkeypatch):
        # one product per generator and element, not |PSL2| products per
        # element, through the code law and off the mob_compose cache
        products = []

        def counted(gens, op, seen, cap=None, f=stdgroups.close):
            def law(x, y):
                products.append(x)
                return op(x, y)

            return f(gens, law, seen, cap)

        monkeypatch.setattr(stdgroups, "close", counted)
        mob_compose.cache_clear()
        H = std_PGL2(F11, 1)
        assert len(products) <= 4 * H.order
        assert mob_compose.cache_info().misses <= 4 * H.order
        assert H.codes == tuple(_pgl2_codes(F11))

    def test_psl2_subfield_inside_extension(self):
        H = std_PSL2(F9, 1)  # PSL2(F3) inside PGL2(F9)
        assert H.order == 12  # (27 - 3) / 2

    def test_pgl2_rejects_bad_subfield_degree(self):
        with pytest.raises(ValueError, match="divide"):
            std_PSL2(F9, 3)

    def test_gamma_semidirect(self):
        gamma = additive_subgroup(F9, [ONE9])  # F3 inside F9
        H = std_gamma_semidirect(gamma, 2)
        assert H.order == 6 and H.tag == "gamma:1:2"

    def test_gamma_semidirect_degenerate_n1(self):
        gamma = additive_subgroup(F4, [ONE4])
        H = std_gamma_semidirect(gamma, 1)
        assert H.order == 2 and H.tag == "Zp^1"
        assert mk(F4, 1, 1, 0, 1) in H.codes

    def test_gamma_semidirect_rejects_bad_gamma(self):
        gamma = additive_subgroup(F4, [T4])  # span{t} misses mu_3
        with pytest.raises(ValueError, match="not contained"):
            std_gamma_semidirect(gamma, 3)


def std_S4_order():
    from pglcensus.stdgroups import std_S4

    return std_S4(F5).order


class TestFingerprint:
    def test_trivial(self):
        fp = fingerprint(close_generators(F5, [_kernel(F5).identity]))
        assert fp.order == 1 and fp.element_orders == ((1, 1),) and fp.abelian

    def test_cyclic4(self):
        fp = fingerprint(std_cyclic(F5, 4))
        assert fp.element_orders == ((1, 1), (2, 1), (4, 2))
        assert fp.abelian

    def test_full_translation_group_of_F4(self):
        gamma = additive_subgroup(F4, [ONE4, T4])
        fp = fingerprint(gamma_to_unipotent(gamma))
        assert fp.order == 4
        assert fp.element_orders == ((1, 1), (2, 3))  # Klein group signature
        assert fp.abelian

    def test_dihedral_nonabelian(self):
        assert not fingerprint(std_dihedral(F5, 4)).abelian


class TestStabilizedLocus:
    def test_cyclic_locus_is_zero_and_infinity(self):
        locus = stabilized_locus(std_cyclic(F5, 4), 2)
        assert [render_point(field_make(5, 2), P) for P in locus] == ["0,0", "inf"]

    def test_pgl2_locus_contains_expected_points(self):
        locus = stabilized_locus(std_PGL2(F5, 1), 2)
        ext = field_make(5, 2)
        rendered = {render_point(ext, P) for P in locus}
        assert {"0,0", "inf"} <= rendered
        assert len(locus) >= 4
        # the square roots of -1 in F5 are 2 and 3, embedded as constants
        assert {render_point_of_int(ext, 2), render_point_of_int(ext, 3)} <= rendered

    def test_unipotent_locus_is_exactly_infinity(self):
        for gamma in enum_additive_subgroups(F8, 1):
            locus = stabilized_locus(gamma_to_unipotent(gamma), 2)
            assert locus == (extension_field(F8, 2).q,)

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
        gamma = additive_subgroup(F9, [ONE9])
        H = std_gamma_semidirect(gamma, 2)
        locus = stabilized_locus(H, 2)
        assert len(locus) >= 3
        ext = extension_field(F9, 2)
        t = ext._tables
        zeta = _int_code(ext, -1)
        denom = t.sub(_int_code(ext, 1), zeta)
        for g_int in (1, 2):
            target = t.mul(_int_code(ext, g_int), _inverse_cache(ext)[denom])
            assert target in locus


def render_point_of_int(ext, k):
    return render_point(ext, _int_code(ext, k))


class TestConjugacy:
    def test_self_conjugate_identity_witness(self):
        H = std_cyclic(F5, 4)
        g = is_conjugate(H, H, 2)
        assert g is not None

    def test_unipotent_scaling_over_F4(self):
        g1 = gamma_to_unipotent(additive_subgroup(F4, [ONE4]))
        g2 = gamma_to_unipotent(additive_subgroup(F4, [T4]))
        w = is_conjugate(g1, g2, 1)
        assert w is not None
        assert conjugate_subgroup(g1, witness_map(g1, w)).codes == g2.codes
        # and the scalar relation itself: t * span{1} = span{t}
        assert {_digits(F4, F4._tables.mul(T4, x)) for x in (0, ONE4)} == {(0, 0), (0, 1)}

    def test_one_point_loci_are_related_by_scaling_alone(self, monkeypatch):
        # translation groups over F4 moved to the points 1 and 0: each is
        # carried to infinity from its own point, where the two translation
        # sets differ by a scalar, so no transporter is searched
        import pglcensus.conjugacy as conjugacy

        def no_search(*args):
            raise AssertionError("a one-point locus of translations needs no transporter")

        monkeypatch.setattr(conjugacy, "transporters", no_search)
        H1 = conjugate_subgroup(gamma_to_unipotent(additive_subgroup(F4, [ONE4])), mob_infinity_to(F4, 1))
        H2 = conjugate_subgroup(gamma_to_unipotent(additive_subgroup(F4, [T4])), mob_infinity_to(F4, 0))
        assert (stabilized_locus(H1, 1), stabilized_locus(H2, 1)) == ((1,), (0,))
        w = is_conjugate(H1, H2, 1)
        assert w is not None and conjugate_subgroup(H1, witness_map(H1, w)).codes == H2.codes

    def test_order_obstruction(self):
        H1 = std_cyclic(F5, 4)
        H2 = gamma_to_unipotent(additive_subgroup(F5, [1]))
        assert is_conjugate(H1, H2, 2) is None

    def test_agrees_with_bruteforce_on_unipotent_pairs(self):
        subs = [gamma_to_unipotent(g) for g in enum_additive_subgroups(F4, 1)]
        subs += [gamma_to_unipotent(g) for g in enum_additive_subgroups(F4, 2)]
        for H1, H2 in itertools.product(subs, repeat=2):
            fast = is_conjugate(H1, H2, 1)
            brute = is_conjugate_bruteforce(H1, H2, 1)
            assert (fast is None) == (brute is None)
            if fast is not None:
                assert conjugate_subgroup(H1, witness_map(H1, fast)).codes == H2.codes

    def test_two_point_locus_conjugacy(self):
        # conjugates of the diagonal group with loci {0, inf} vs {1, 2}
        H1 = std_cyclic(F5, 4)
        g = mk(F5, 1, 1, 1, 2)
        H2 = conjugate_subgroup(H1, g)
        w = is_conjugate(H1, H2, 1)
        assert w is not None and conjugate_subgroup(H1, witness_map(H1, w)).codes == H2.codes

    def test_two_point_locus_needs_the_torus(self):
        # {x, -x, a/x, -a/x} over F13 for a = 2 and a = 5, both non-squares:
        # each has level-1 locus {0, inf}, and no conjugator sends 1 to 1
        H1, H2 = (_klein_over_F13(a) for a in (2, 5))
        assert stabilized_locus(H1, 1) == stabilized_locus(H2, 1)
        assert len(stabilized_locus(H1, 1)) == 2
        w = is_conjugate(H1, H2, 1)
        assert w is not None and _conjugates_onto(F13, witness_map(H1, w), H1, H2)

    def test_two_point_locus_agrees_with_bruteforce(self):
        # the three Klein groups {x, -x, a/x, -a/x}, one per pair {a, -a} of
        # non-squares mod 13, all with level-1 locus {0, inf}
        groups = [_klein_over_F13(a) for a in (2, 5, 6)]
        for H1, H2 in itertools.product(groups, repeat=2):
            fast = is_conjugate(H1, H2, 1)
            brute = is_conjugate_bruteforce(H1, H2, 1)
            assert (fast is None) == (brute is None)
            assert fast is None or _conjugates_onto(F13, witness_map(H1, fast), H1, H2)

    def test_three_point_locus_conjugacy(self):
        H1 = std_A4(F5)
        g = mk(F5, 1, 2, 0, 1)
        H2 = conjugate_subgroup(H1, g)
        w = is_conjugate(H1, H2, 2)
        assert w is not None and conjugate_subgroup(H1, witness_map(H1, w)).codes == H2.codes

    def test_nonconjugate_same_order_gammas_in_F16(self):
        # In F16, rank-2 additive subgroups split into scaling orbits; the
        # F4-subfield line is not a scalar multiple of a generic plane.
        F16 = field_make(2, 4)
        f4_line = additive_subgroup(F16, _embedding_table(F4, F16)[1:])
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
        alpha = F16.q // 4  # x
        from pglcensus.census import scale_subgroup

        H3 = gamma_to_unipotent(scale_subgroup(f4_line, alpha))
        assert is_conjugate(H1, H3, 1) is not None

    def test_witness_symmetry(self):
        # if w conjugates H1 onto H2, its inverse conjugates H2 onto H1
        pairs = []
        g1 = gamma_to_unipotent(additive_subgroup(F4, [ONE4]))
        g2 = gamma_to_unipotent(additive_subgroup(F4, [T4]))
        pairs.append((g1, g2, 1))
        H1 = std_cyclic(F5, 4)
        H2 = conjugate_subgroup(H1, mk(F5, 1, 1, 1, 2))
        pairs.append((H1, H2, 1))
        for A, B, r in pairs:
            w = is_conjugate(A, B, r)
            assert w is not None
            back = is_conjugate(B, A, r)
            assert back is not None
            assert conjugate_subgroup(B, _kernel(B.spec).inverse(witness_map(A, w))).codes == A.codes

    def test_fallback_when_locus_is_irrational_at_level_one(self):
        # the order-3 subgroup of PGL2(F2) has both fixed points in F4, so at
        # r = 1 the loci are empty and the search takes them in F4
        g = mk(F2, 0, 1, 1, 1)
        H = close_generators(F2, [g])
        assert H.order == 3
        w = is_conjugate(H, H, 1)
        assert w is not None and conjugate_subgroup(H, witness_map(H, w)).codes == H.codes
        # at r = 2 the two fixed points are visible and the pair path runs
        w2 = is_conjugate(H, H, 2)
        assert w2 is not None

    def test_conjugation_preserves_fingerprint_and_locus_size(self):
        rng = random.Random(3)
        models = [std_cyclic(F5, 4), std_dihedral(F5, 2), std_A4(F5)]
        all_g = list(_pgl2_codes(F5))
        for H in models:
            fp = fingerprint(H)
            size = len(stabilized_locus(H, 2))
            for g in rng.sample(all_g, 10):
                K = conjugate_subgroup(H, g)
                assert fingerprint(K) == fp
                assert len(stabilized_locus(K, 2)) == size

    def test_conjugation_inverts_once(self, monkeypatch):
        # S4 over F13 by seeded maps: one inverse per call, not one per
        # element, and the same subgroup as g m g^{-1} element by element,
        # with g^{-1} the normalized adjugate
        K13 = _kernel(F13)
        calls = []

        def counted(g, f=K13.inverse):
            calls.append(g)
            return f(g)

        monkeypatch.setattr(K13, "inverse", counted)
        H = stdgroups.std_S4(F13)
        # the identity returns H as it is, with no inverse
        conjugators = random.Random(13).sample([g for g in _pgl2_codes(F13) if g != K13.identity], 5)
        for k, g in enumerate(conjugators, 1):
            K = conjugate_subgroup(H, g)
            assert len(calls) == k
            a, b, c, d = g
            g_inv = K13.normalize(d, K13.neg[b], K13.neg[c], a)
            assert set(K.codes) == {mob_compose(F13, mob_compose(F13, g, m), g_inv) for m in H.codes}
        assert conjugate_subgroup(H, K13.identity) is H and len(calls) == len(conjugators)

    def test_conjugator_of_another_field_is_refused(self):
        # F2's identity and x -> x + 1 are not normalized over F4, where
        # one has code 2; F4's x -> x + 1 is accepted
        H = std_cyclic(F4, 3)
        for g in (_kernel(F2).identity, mk(F2, 1, 1, 0, 1)):
            with pytest.raises(ValueError, match=r"conjugator .* is not a normalized map over F_2\^2"):
                conjugate_subgroup(H, g)
        assert conjugate_subgroup(H, mk(F4, 1, 1, 0, 1)).order == 3


def _scalar_related(G1, G2):
    from pglcensus.census import scale_subgroup

    return any(scale_subgroup(G1, alpha) == G2 for alpha in range(1, G1.spec.q))


class TestEmbedAndProject:
    @pytest.mark.parametrize(
        "build,degree",
        [
            (lambda: std_cyclic(F5, 4), 2),
            (lambda: std_A4(F5), 3),
            (lambda: std_dihedral(F4, 3), 2),
            (lambda: std_PGL2(F3, 1), 2),
        ],
    )
    def test_entry_by_entry_against_the_embedding_table(self, build, degree):
        # the codes of the embedded maps are those of the matrices whose
        # entries are embedded one by one and then normalized, member by
        # member, and projecting them back map by map gives H again
        H = build()
        ext = field_make(H.spec.p, H.spec.n * degree)
        K = subgroup_embed(H, ext)
        emb, normalize = _embedding_table(H.spec, ext), _kernel(ext).normalize
        assert set(K.codes) == {normalize(*(emb[e] for e in g)) for g in H.codes}
        table = _projection_table(ext, H.spec)
        assert K.tag == H.tag and tuple(sorted(_map_project(table, g) for g in K.codes)) == H.codes
        assert subgroup_embed(H, H.spec) is H

    def test_projection_of_an_irrational_map_is_none(self):
        # cyclic:3 over F4 holds diag(1, t) and diag(1, t^2), whose entries
        # t and t^2 are not in F2, and the identity, which projects to F2's
        table = _projection_table(F4, F2)
        projected = [_map_project(table, g) for g in std_cyclic(F4, 3).codes]
        assert projected.count(None) == 2 and _kernel(F2).identity in projected

    def test_embedding_needs_an_extension(self):
        with pytest.raises(ValueError, match="cannot embed"):
            subgroup_embed(std_cyclic(F5, 4), F9)
        with pytest.raises(ValueError, match="cannot embed"):
            subgroup_embed(std_cyclic(F4, 3), F8)


class TestSerialization:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: std_cyclic(F5, 4),
            lambda: std_dihedral(F4, 3),
            lambda: std_A4(F5),
            lambda: gamma_to_unipotent(additive_subgroup(F8, [4])),  # the span of 1
        ],
    )
    def test_json_round_trip(self, build):
        H = build()
        data = json.loads(json.dumps(subgroup_to_json(H), sort_keys=True))
        K = subgroup_from_json(data)
        assert K.codes == H.codes and K.tag == H.tag

    def test_json_is_deterministic(self):
        H = std_cyclic(F5, 4)
        again = std_cyclic(F5, 4)
        assert json.dumps(subgroup_to_json(H), sort_keys=True) == json.dumps(subgroup_to_json(again), sort_keys=True)

    def test_json_fields(self):
        data = subgroup_to_json(std_cyclic(F5, 4))
        assert set(data) == {"field", "tag", "generators", "order", "locus", "locus_field", "locus_ext"}
        assert data["order"] == 4 and data["locus"] == ["0,0", "inf"]
