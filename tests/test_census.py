import collections
import functools
import itertools
import json
import re

import pytest

import pglcensus.census as census
import pglcensus.moebius as moebius
import pglcensus.stdgroups as stdgroups
from pglcensus.census import (
    BoundedRow,
    CensusQuery,
    DichotomyRow,
    MainTheoremReport,
    additive_subgroup,
    census_report_to_json,
    check_main_theorem_run,
    enum_actions,
    enum_additive_subgroups,
    gamma_to_unipotent,
    gaussian_binomial,
    oracle_enum_elem_abelian,
    parse_group_id,
    scale_subgroup,
    unipotent_to_gamma,
    verify_main_theorem,
)
from pglcensus.closure import close, is_prime
from pglcensus.gfq import (
    by_code,
    extension_field,
    field_elements,
    field_make,
    fq_from_int,
    fq_gen,
    fq_inv,
    fq_one,
    fq_zero,
    parse_field_spec,
)
from pglcensus.moebius import (
    mob_apply,
    mob_compose,
    mob_identity,
    mob_make,
    mob_order,
    parse_point_list,
    pgl2_elements,
    pp1_affine,
    pp1_embed,
    pp1_infinity,
    pp1_project,
    render_moebius,
    render_point,
)
from pglcensus.stdgroups import (
    Fingerprint,
    _generating_set,
    close_generators,
    conjugate_subgroup,
    fingerprint,
    irrational_locus_pairs,
    stabilized_locus,
    subgroup_from_json,
    subgroup_project,
)

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)
F5 = field_make(5, 1)
F7 = field_make(7, 1)
F8 = field_make(2, 3)
F9 = field_make(3, 2)


class TestAdditiveSubgroups:
    def test_rank_one_counts(self):
        assert len(enum_additive_subgroups(F8, 1)) == 7
        assert len(enum_additive_subgroups(F9, 1)) == 4

    def test_full_rank_is_unique(self):
        for spec in (F4, F8, F9):
            assert len(enum_additive_subgroups(spec, spec.n)) == 1

    def test_rank_zero(self):
        subs = enum_additive_subgroups(F8, 0)
        assert len(subs) == 1 and subs[0].rank == 0
        assert subs[0].elements() == [fq_zero(F8)]

    def test_rank_beyond_dimension_rejected(self):
        with pytest.raises(ValueError):
            enum_additive_subgroups(F8, 4)

    @pytest.mark.parametrize("spec,m", [(F4, 1), (F8, 1), (F8, 2), (F9, 1), (field_make(2, 4), 2)])
    def test_counts_against_span_oracle(self, spec, m):
        # independent oracle: the distinct F_p-spans of all m-tuples of elements
        spans = set()
        for vecs in itertools.product(field_elements(spec), repeat=m):
            G = additive_subgroup(spec, list(vecs))
            if G.rank == m:
                spans.add(G.basis)
        assert len(spans) == len(enum_additive_subgroups(spec, m))
        assert len(spans) == gaussian_binomial(spec.n, m, spec.p)

    def test_canonical_forms_match_constructor(self):
        listed = {G.basis for G in enum_additive_subgroups(F9, 1)}
        for x in field_elements(F9):
            if x.is_zero():
                continue
            assert additive_subgroup(F9, [x]).basis in listed

    def test_elements_closed_under_addition(self):
        for G in enum_additive_subgroups(F8, 2):
            members = G.elements()
            key = {x.coeffs for x in members}
            assert len(members) == 4
            for a, b in itertools.product(members, repeat=2):
                assert (a + b).coeffs in key


class TestGammaUnipotentCorrespondence:
    def test_trivial(self):
        G = additive_subgroup(F4, [])
        assert gamma_to_unipotent(G).order == 1

    def test_prime_subfield(self):
        H = gamma_to_unipotent(additive_subgroup(F4, [fq_one(F4)]))
        assert H.order == 2
        assert H.tag == "Zp^1"

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_round_trip_all_ranks_F8(self, m):
        for G in enum_additive_subgroups(F8, m):
            H = gamma_to_unipotent(G)
            assert H.order == 2 ** m
            assert unipotent_to_gamma(H) == G

    def test_backward_rejects_non_translation_group(self):
        from pglcensus.stdgroups import std_cyclic

        with pytest.raises(ValueError, match="translation"):
            unipotent_to_gamma(std_cyclic(F5, 4))

    def test_distinct_gammas_give_distinct_subgroups(self):
        seen = set()
        for G in enum_additive_subgroups(F8, 2):
            H = gamma_to_unipotent(G)
            assert H.elements not in seen
            seen.add(H.elements)


class TestScaling:
    def test_identity_scalar(self):
        G = additive_subgroup(F4, [fq_one(F4)])
        assert scale_subgroup(G, fq_one(F4)) == G

    def test_scaling_moves_span(self):
        t = fq_gen(F4)
        G = additive_subgroup(F4, [fq_one(F4)])
        assert scale_subgroup(G, t) == additive_subgroup(F4, [t])

    def test_zero_scalar_rejected(self):
        with pytest.raises(ValueError):
            scale_subgroup(additive_subgroup(F4, [fq_one(F4)]), fq_zero(F4))

    def test_inverse_of_member_pulls_in_prime_field(self):
        for G in enum_additive_subgroups(F9, 1):
            gamma = next(x for x in G.elements() if not x.is_zero())
            scaled = scale_subgroup(G, fq_inv(gamma))
            assert fq_one(F9).coeffs in {x.coeffs for x in scaled.elements()}

    def test_scaling_matches_diagonal_conjugation(self):
        for G in enum_additive_subgroups(F9, 1):
            for alpha in field_elements(F9):
                if alpha.is_zero():
                    continue
                diag = mob_make(alpha, fq_zero(F9), fq_zero(F9), fq_one(F9))
                left = gamma_to_unipotent(scale_subgroup(G, alpha))
                right = conjugate_subgroup(gamma_to_unipotent(G), diag)
                assert left.elements == right.elements

    def test_scaling_permutes_the_census(self):
        subs = enum_additive_subgroups(F8, 2)
        basis_set = {G.basis for G in subs}
        for alpha in field_elements(F8):
            if alpha.is_zero():
                continue
            scaled = {scale_subgroup(G, alpha).basis for G in subs}
            assert scaled == basis_set


class TestTagGrammar:
    def test_parse(self):
        assert parse_group_id("cyclic:4") == ("cyclic", (4,))
        assert parse_group_id("Zp^2") == ("gamma", (2, 1))
        assert parse_group_id("gamma:2:3") == ("gamma", (2, 3))
        assert parse_group_id("A5") == ("A5", ())
        assert parse_group_id("PSL2:1") == ("PSL2", (1,))
        assert parse_group_id("Zp^0") == ("gamma", (0, 1))
        assert parse_group_id("gamma:0:1") == ("gamma", (0, 1))

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_group_id("sporadic")

    @pytest.mark.parametrize(
        "tag",
        [
            "cyclic:0",
            "dihedral:-2",
            "PSL2:0",
            "PSL2:-1",
            "PGL2:-1",
            "Zp^-1",
            "gamma:-1:1",
            "gamma:1:0",
            "gamma:1:-1",
            "gamma:0:2",
        ],
    )
    def test_out_of_range_parameter_rejected(self, tag):
        with pytest.raises(ValueError, match=f"'{re.escape(tag)}'"):
            parse_group_id(tag)

    def test_rank_zero_gamma_names_the_cyclic_tag(self):
        with pytest.raises(ValueError, match="cyclic:3"):
            parse_group_id("gamma:0:3")


def census_count(spec, tag, locus_text, r=1):
    ext = extension_field(spec, r)
    locus = tuple(parse_point_list(ext, locus_text))
    return enum_actions(CensusQuery(spec, tag, locus, r=r))


class TestEnumActions:
    def test_elem_abelian_census_matches_subspace_count(self):
        rep = census_count(F8, "Zp^1", "inf")
        assert rep.count == 7
        assert rep.verdict == "grows_with_field"

    def test_cyclic_census_is_one(self):
        rep = census_count(F5, "cyclic:4", "0,inf")
        assert rep.count == 1 and rep.verdict == "finite"

    def test_cyclic_census_at_moved_pair(self):
        rep = census_count(F5, "cyclic:4", "2,3")
        assert rep.count == 1
        (H,) = rep.matches
        assert {render_point(P) for P in stabilized_locus(H, 1)} == {"2", "3"}

    def test_one_conjugation_per_coset_of_the_model(self, monkeypatch):
        # dihedral:3 at all of P^1(F7): each of the 336 maps of PGL2(F7)
        # transports the locus, and the 6 maps of a coset g.H0 give one
        # conjugate, so 56 maps are built (one _triple_map each) and
        # conjugate the model
        calls = collections.Counter()
        for module, name in ((moebius, "_triple_map"), (census, "conjugate_subgroup")):
            def counted(*args, f=getattr(module, name), name=name):
                calls[name] += 1
                return f(*args)
            monkeypatch.setattr(module, name, counted)
        assert census_count(F7, "dihedral:3", "0,1,2,3,4,5,6,inf").count == 28
        assert calls == {"_triple_map": 56, "conjugate_subgroup": 56}

    def test_one_fixed_point_pass_per_candidate(self, monkeypatch):
        # the same census: the model's locus and pairs once, then one
        # stabilized_locus per distinct candidate (the 56 conjugates are the
        # 28 matches, twice each) and none in the JSON, which renders the
        # locus _verified checked
        calls = collections.Counter()
        for name in ("stabilized_locus", "irrational_locus_pairs"):
            def counted(*args, f=getattr(census, name), name=name, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            monkeypatch.setattr(census, name, counted)
        report = census_count(F7, "dihedral:3", "0,1,2,3,4,5,6,inf")
        assert calls == {"stabilized_locus": 1 + 28, "irrational_locus_pairs": 1}
        data = census_report_to_json(report)
        assert calls == {"stabilized_locus": 1 + 28, "irrational_locus_pairs": 1}
        assert data["matches"] == [stdgroups.subgroup_to_json(H, 1) for H in report.matches]

    def test_one_generating_set_per_match(self, monkeypatch):
        # the same census: fingerprint computes each match's generating set
        # (and the model's, unless an earlier run cached it), and the JSON
        # renders the cached set, computing none
        calls = []

        def counted(H, f=stdgroups._generating_set):
            calls.append(H)
            return f(H)

        monkeypatch.setattr(stdgroups, "_generating_set", counted)
        report = census_count(F7, "dihedral:3", "0,1,2,3,4,5,6,inf")
        assert report.count == 28 and len(calls) <= report.count + 1
        before = len(calls)
        data = census_report_to_json(report)
        assert len(calls) == before
        monkeypatch.undo()
        assert [m["generators"] for m in data["matches"]] == [
            [render_moebius(g) for g in _generating_set(H)] for H in report.matches
        ]

    def test_cyclic_census_locus_size_mismatch(self):
        assert census_count(F5, "cyclic:4", "0,1,inf").count == 0
        assert census_count(F5, "cyclic:4", "inf").count == 0

    def test_elem_abelian_two_point_locus_is_empty(self):
        assert census_count(F4, "Zp^1", "0,0,inf").count == 0

    def test_matches_have_recomputed_locus_equal_to_query(self):
        rep = census_count(F8, "Zp^2", "0,0,0")  # stabilized point 0
        assert rep.count == 7
        ext2 = extension_field(F8, 2)
        expected = tuple(
            sorted([__import__("pglcensus.moebius", fromlist=["pp1_affine"]).pp1_affine(fq_zero(ext2))], key=by_code)
        )
        for H in rep.matches:
            locus = stabilized_locus(H, 2)
            assert len(locus) == 1 and locus == expected

    def test_elem_abelian_census_at_nonrational_point_moves_model(self):
        # stabilized point 1 instead of inf
        rep = census_count(F4, "Zp^1", "1,0")
        assert rep.count == 3
        for H in rep.matches:
            locus = stabilized_locus(H, 1)
            assert len(locus) == 1 and render_point(locus[0]) == "1,0"

    def test_census_in_extension(self):
        # over F2 with ext 2 the census runs inside PGL2(F4)
        rep = census_count(F2, "Zp^1", "inf", r=2)
        assert rep.count == 3

    @pytest.mark.parametrize("spec,m", [(F4, 1), (F8, 1), (F8, 2)], ids=["F4r1", "F8r1", "F8r2"])
    def test_conjugation_transport(self, spec, m):
        # any conjugate of a match shows up in the census of the moved locus
        rep = census_count(spec, f"Zp^{m}", "inf")
        census_at = {}
        for x in _all_points(spec):
            rep_x = enum_actions(CensusQuery(spec, f"Zp^{m}", (x,), r=1))
            census_at[render_point(x)] = {M.elements for M in rep_x.matches}
        for g in pgl2_elements(spec):
            for H in rep.matches:
                K = conjugate_subgroup(H, g)
                moved = stabilized_locus(K, 1)
                assert len(moved) == 1
                assert K.elements in census_at[render_point(moved[0])]

    def test_psl2_census_finds_the_standard_copy(self):
        # PSL2(F3) has six stabilized points away from P^1(F3) (the fixed
        # pairs of its involutions live in F9), so a level-1 census of its
        # rational locus must be empty, while the level-2 census with the
        # full ten-point locus recovers the embedded copy
        from pglcensus.stdgroups import std_PSL2, subgroup_embed

        model = std_PSL2(F3, 1)
        assert model.order == 12
        S1 = stabilized_locus(model, 1)
        assert enum_actions(CensusQuery(F3, "PSL2:1", S1, r=1)).count == 0

        S2 = stabilized_locus(model, 2)  # ten points over F9
        assert len(S2) == 10
        rep = enum_actions(CensusQuery(F3, "PSL2:1", S2, r=2))
        embedded = subgroup_embed(model, field_make(3, 2))
        assert embedded.elements in {M.elements for M in rep.matches}
        for H in rep.matches:
            assert fingerprint(H) == fingerprint(embedded)
            assert stabilized_locus(H, 2) == tuple(
                sorted((pp1_embed_local(P) for P in S2), key=by_code)
            )

    def test_empty_locus_census_finds_only_the_trivial_group(self):
        for tag in ("Zp^0", "cyclic:1"):
            rep = enum_actions(CensusQuery(F5, tag, (), r=1))
            assert rep.count == 1
            assert rep.matches[0].order == 1
        # nontrivial tags can never have an empty locus
        assert enum_actions(CensusQuery(F5, "cyclic:4", (), r=1)).count == 0
        assert enum_actions(CensusQuery(F5, "Zp^1", (), r=1)).count == 0

    def test_order_two_group_census_has_one_answer_per_pair(self):
        # dihedral:1 and cyclic:2 describe the same isomorphism type, so the
        # censuses must agree locus by locus
        for locus_text in ("0,inf", "1,4", "2,3"):
            a = census_count(F5, "cyclic:2", locus_text)
            b = census_count(F5, "dihedral:1", locus_text)
            assert a.count == b.count == 1
            assert {H.elements for H in a.matches} == {H.elements for H in b.matches}

    def test_gamma_tag_with_no_admissible_model_counts_zero(self):
        # rank-1 subgroups of F4 cannot contain mu_3 (four elements needed)
        rep = census_count(F4, "gamma:1:3", "0,0,inf")
        assert rep.count == 0

    def test_gamma_semidirect_census(self):
        # order-6 groups zeta x + g over F9 with locus {0, 1, 2, inf}
        gamma = additive_subgroup(F9, [fq_one(F9)])
        from pglcensus.stdgroups import std_gamma_semidirect

        model = std_gamma_semidirect(gamma, 2)
        S = stabilized_locus(model, 1)
        rep = enum_actions(CensusQuery(F9, "gamma:1:2", S, r=1))
        assert rep.count >= 1
        assert model.elements in {M.elements for M in rep.matches}
        for H in rep.matches:
            assert fingerprint(H) == fingerprint(model)

    def test_gamma_semidirect_census_complete_against_pair_scan(self):
        # independent completeness oracle: every order-6 nonabelian subgroup
        # is generated by an order-3 and an order-2 element, so scanning all
        # such pairs sees every candidate
        from pglcensus.moebius import mob_order
        from pglcensus.stdgroups import std_gamma_semidirect

        gamma = additive_subgroup(F9, [fq_one(F9)])
        model = std_gamma_semidirect(gamma, 2)
        S = stabilized_locus(model, 1)
        target_fp = fingerprint(model)
        target_locus = stabilized_locus(model, 2)

        order2 = [g for g in pgl2_elements(F9) if mob_order(g) == 2]
        order3 = [g for g in pgl2_elements(F9) if mob_order(g) == 3]
        seen = set()
        found = set()
        for a in order3:
            for b in order2:
                try:
                    H = close_generators([a, b], cap=6)
                except ValueError:
                    continue  # pair generates something larger
                if H.order != 6 or H.elements in seen:
                    continue
                seen.add(H.elements)
                if fingerprint(H) == target_fp and stabilized_locus(H, 2) == target_locus:
                    found.add(H.elements)
        rep = enum_actions(CensusQuery(F9, "gamma:1:2", S, r=1))
        assert {H.elements for H in rep.matches} == found

    def test_unknown_tag_raises(self):
        with pytest.raises(ValueError):
            census_count(F5, "sporadic", "inf")

    def test_klein_census_matches_commuting_involution_oracle(self):
        # independent oracle for the >= 3 point transporter path: enumerate
        # Klein four-groups directly from commuting involutions
        from pglcensus.moebius import mob_compose, mob_identity, mob_order
        from pglcensus.stdgroups import _make_subgroup, std_dihedral

        involutions = [g for g in pgl2_elements(F5) if mob_order(g) == 2]
        kleins = {}
        for i, a in enumerate(involutions):
            for b in involutions[i + 1 :]:
                if mob_compose(a, b) != mob_compose(b, a):
                    continue
                H = _make_subgroup(
                    F5, [mob_identity(F5), a, b, mob_compose(a, b)], "dihedral:2"
                )
                kleins[H.elements] = H
        by_locus = {}
        for H in kleins.values():
            by_locus.setdefault(stabilized_locus(H, 2), set()).add(H.elements)

        model = std_dihedral(F5, 2)
        model_locus = stabilized_locus(model, 2)
        fp = fingerprint(model)
        for locus, members in by_locus.items():
            rational = stabilized_locus_level1(locus, F5)
            if rational is None:
                continue
            rep = enum_actions(CensusQuery(F5, "dihedral:2", rational, r=1))
            expected = {
                els for els in members if fingerprint(kleins[els]) == fp
            }
            assert {H.elements for H in rep.matches} == expected, locus
        # sanity: the model's own locus bucket is nonempty and detected
        assert model.elements in by_locus[model_locus]


class TestOracle:
    def test_single_translation_over_F2(self):
        assert len(oracle_enum_elem_abelian(F2, 1, pp1_infinity(F2))) == 1

    def test_rank_one_over_F4(self):
        assert len(oracle_enum_elem_abelian(F4, 1, pp1_infinity(F4))) == 3

    def test_full_rank_over_F4(self):
        subs = oracle_enum_elem_abelian(F4, 2, pp1_infinity(F4))
        assert len(subs) == 1 and subs[0].order == 4

    def test_oracle_agrees_with_census_elementwise(self):
        rep = census_count(F8, "Zp^1", "inf")
        oracle = oracle_enum_elem_abelian(F8, 1, pp1_infinity(F8))
        assert {H.elements for H in rep.matches} == {H.elements for H in oracle}

    def test_oracle_at_affine_point(self):
        point = pp1_affine(fq_one(F4))
        oracle = oracle_enum_elem_abelian(F4, 1, point)
        rep = enum_actions(CensusQuery(F4, "Zp^1", (point,), r=1))
        assert {H.elements for H in oracle} == {H.elements for H in rep.matches}

    def test_cap(self, monkeypatch):
        # just inside the bound the oracle runs, one composition over it refuses
        work = census.dichotomy_work(2, 3, 1)
        monkeypatch.setattr(census, "WORK_BOUND", work)
        assert len(oracle_enum_elem_abelian(F8, 1, pp1_infinity(F8))) == 7
        monkeypatch.setattr(census, "WORK_BOUND", work - 1)
        with pytest.raises(ValueError, match="WORK_BOUND"):
            oracle_enum_elem_abelian(F8, 1, pp1_infinity(F8))

    def test_point_of_another_field_is_refused(self):
        # the oracle runs over the point's own field and embeds nothing
        for spec, point in ((F4, pp1_infinity(F2)), (F2, pp1_infinity(F4)), (F8, pp1_affine(fq_gen(F4)))):
            with pytest.raises(ValueError, match="field mismatch"):
                oracle_enum_elem_abelian(spec, 1, point)

    def test_scan_refuses_a_map_that_moves_the_point(self, monkeypatch):
        # the stabilizer scan checks that each conjugate fixes the point: a
        # conjugator that does not take infinity there fails it
        point = pp1_affine(fq_from_int(F5, 2))
        monkeypatch.setattr(census, "mob_infinity_to", lambda P: mob_identity(P.spec))
        census._order_p_stabilizer.cache_clear()
        with pytest.raises(AssertionError, match=r"\[1,0;0,2\] does not fix 2"):
            census._order_p_stabilizer(F5, point)

    def test_affine_point_costs_the_conjugation(self):
        assert census.dichotomy_work(2, 3, 1, affine=True) == census.dichotomy_work(2, 3, 1) + 3 * 8 * 7

    @pytest.mark.parametrize("p,n", [(2, 4), (5, 2)], ids=["F16", "F25"])
    @pytest.mark.parametrize("point_kind", ["inf", "affine"])
    def test_ranks_share_one_scan_off_the_mob_compose_cache(self, p, n, point_kind):
        # the ranks of one level share one stabilizer scan, and the scan and
        # the growth run on entry codes, so the shared cache neither grows
        # nor records a lookup
        spec = field_make(p, n)
        point = pp1_infinity(spec) if point_kind == "inf" else pp1_affine(fq_gen(spec))
        census._order_p_stabilizer.cache_clear()
        before = mob_compose.cache_info()
        for m in range(1, n + 1):
            assert len(oracle_enum_elem_abelian(spec, m, point)) == gaussian_binomial(n, m, p)
        assert mob_compose.cache_info() == before
        info = census._order_p_stabilizer.cache_info()
        assert (info.misses, info.hits) == (1, n - 1)


# The oracle as it was before it scanned only the point stabilizer: all of
# PGL2(F_q), the fixed-point test by mob_apply and the order by mob_order,
# and subgroups grown by closing all of H plus one element.  It is the
# reference the stabilizer scan must reproduce element for element.


def _reference_subgroups_of_order(elements, op, identity, order):
    layer = {frozenset((identity,))}
    found = set()
    while layer:
        next_layer = set()
        for H in layer:
            if len(H) == order:
                found.add(H)
                continue
            for g in elements:
                if g in H:
                    continue
                grown = close([*H, g], op, H, cap=order)
                if grown is not None:
                    next_layer.add(frozenset(grown))
        layer = next_layer
    return found


@functools.lru_cache(maxsize=None)
def _reference_order_p(spec, point):
    ident = mob_identity(spec)
    return [g for g in pgl2_elements(spec) if g != ident and mob_apply(g, point) == point and mob_order(g) == spec.p]


def reference_oracle(spec, m, point):
    ident = mob_identity(spec)
    return {
        H
        for H in _reference_subgroups_of_order(_reference_order_p(spec, point), mob_compose, ident, spec.p ** m)
        if all(mob_order(g) == spec.p for g in H if g != ident)
    }


SMALL_FIELDS = [(p, n) for p in range(2, 33) if is_prime(p) for n in range(1, 6) if p ** n <= 32]


@pytest.mark.parametrize("point_kind", ["inf", "affine"])
@pytest.mark.parametrize("p,n", SMALL_FIELDS, ids=[f"{p}^{n}" for p, n in SMALL_FIELDS])
def test_oracle_matches_full_pgl2_scan(p, n, point_kind):
    spec = field_make(p, n)
    point = pp1_infinity(spec) if point_kind == "inf" else pp1_affine(field_elements(spec)[-1])
    for m in range(1, n + 1):
        found = {frozenset(H.elements) for H in oracle_enum_elem_abelian(spec, m, point)}
        assert found == reference_oracle(spec, m, point)
        assert len(found) == gaussian_binomial(n, m, p)


# ---------------------------------------------------------------------------
# an exhaustive completeness oracle: enumerate EVERY subgroup of PGL2(F_q)
# for tiny q by closing subsets, then compare census answers against filters
# of the full list


def all_subgroups(spec):
    # breadth-first over the subgroup lattice: from every discovered subgroup,
    # extend its generating set by each outside element; complete because any
    # subgroup arises by adjoining its generators one at a time, from whatever
    # representation its prefix subgroups were stored with.  <H, g> = <H, gh>
    # for every h in H, so one representative per coset gH is adjoined
    ident = mob_make(fq_one(spec), fq_zero(spec), fq_zero(spec), fq_one(spec))
    elements = list(pgl2_elements(spec))
    trivial = close_generators([ident])
    layer = {trivial.elements: (trivial, [])}
    everything = {trivial.elements: trivial}
    while layer:
        next_layer = {}
        for H, gens in layer.values():
            covered = set(H.elements)
            for g in elements:
                if g in covered:
                    continue
                covered.update(mob_compose(g, h) for h in H.elements)
                grown = close_generators(gens + [g])
                if grown.elements not in everything:
                    everything[grown.elements] = grown
                    next_layer[grown.elements] = (grown, gens + [g])
        layer = next_layer
    return list(everything.values())


@pytest.fixture(scope="module")
def subgroups_f4():
    return all_subgroups(F4)


@pytest.fixture(scope="module")
def subgroups_f3():
    return all_subgroups(F3)


@pytest.fixture(scope="module")
def subgroups_f5():
    return all_subgroups(F5)


def assert_census_equals_filtered_scan(spec, subgroups, tag):
    # group the scanned subgroups with the model's fingerprint by stabilized
    # locus; the census at each locus must return exactly them: over spec
    # when the locus is rational there, else over F_{q^2}, restricted to the
    # matches inside PGL2(spec).  This includes loci that are all of
    # P^1(F_{q^2}), where every map of PGL2(F_{q^2}) is a transporter.
    from pglcensus.census import _standard_models

    kind, params = parse_group_id(tag)
    model = _standard_models(spec, kind, params)[0]
    fp = fingerprint(model)
    by_locus = {}
    for H in subgroups:
        if fingerprint(H) != fp:
            continue
        locus = stabilized_locus(H, 2)
        by_locus.setdefault(locus, set()).add(H.elements)
    assert by_locus, f"no subgroups with the fingerprint of {tag}"
    ext = extension_field(spec, 2)
    for locus, members in by_locus.items():
        locus_level1 = stabilized_locus_level1(locus, spec)
        if locus_level1 is not None:
            rep = enum_actions(CensusQuery(spec, tag, locus_level1, r=1))
            assert {H.elements for H in rep.matches} == members, (tag, locus)
        else:
            rep = enum_actions(CensusQuery(ext, tag, stabilized_locus_level1(locus, ext), r=1))
            rational = (subgroup_project(H, spec) for H in rep.matches)
            assert {H.elements for H in rational if H is not None} == members, (tag, locus)


# every tag with a standard model over F5 (cyclic:3, dihedral:3 and A5 need F25)
F5_TAGS = [
    "cyclic:1", "cyclic:2", "cyclic:4", "dihedral:1", "dihedral:2", "dihedral:4",
    "A4", "S4", "PSL2:1", "PGL2:1", "Zp^1", "gamma:1:2", "gamma:1:4",
]


class TestCensusCompleteness:
    def test_subgroup_scan_sizes(self, subgroups_f3, subgroups_f4):
        # PGL2(F3) has 30 subgroups; PGL2(F4) has 59
        assert len(subgroups_f3) == 30
        assert len(subgroups_f4) == 59

    def test_subgroup_scan_size_over_F5(self, subgroups_f5):
        # PGL2(F5) is S5, which has 156 subgroups
        assert len(subgroups_f5) == 156

    @pytest.mark.parametrize("tag", ["Zp^1", "Zp^2", "cyclic:3", "dihedral:3"])
    def test_census_equals_filtered_scan_over_F4(self, subgroups_f4, tag):
        assert_census_equals_filtered_scan(F4, subgroups_f4, tag)

    @pytest.mark.parametrize("tag", ["Zp^1", "cyclic:2"])
    def test_census_equals_filtered_scan_over_F3(self, subgroups_f3, tag):
        assert_census_equals_filtered_scan(F3, subgroups_f3, tag)

    @pytest.mark.parametrize("tag", F5_TAGS)
    def test_census_equals_filtered_scan_over_F5(self, subgroups_f5, tag):
        assert_census_equals_filtered_scan(F5, subgroups_f5, tag)


def reference_fingerprint(H):
    # fingerprint as it was before it ran on entry codes: orders by mob_order
    # and the commutation test by mob_compose pairs
    counts = collections.Counter(mob_order(m) for m in H.elements)
    return Fingerprint(
        order=H.order,
        element_orders=tuple(sorted(counts.items())),
        abelian=all(mob_compose(a, b) == mob_compose(b, a) for a, b in itertools.combinations(H.elements, 2)),
        p_regular=H.order % H.spec.p != 0,
    )


def test_fingerprint_matches_reference(subgroups_f3, subgroups_f4, subgroups_f5):
    for H in subgroups_f3 + subgroups_f4 + subgroups_f5:
        assert fingerprint(H) == reference_fingerprint(H), H


def reference_generating_set(H):
    # _generating_set as it was before it closed on entry codes: the same
    # greedy choice in canonical order, closed by mob_compose
    gens, span = [], {mob_identity(H.spec)}
    for m in H.elements:
        if m not in span:
            gens.append(m)
            span = close(gens, mob_compose, span)
    return tuple(gens) or (mob_identity(H.spec),)


def test_generating_set_matches_reference(subgroups_f3, subgroups_f4, subgroups_f5):
    for H in subgroups_f3 + subgroups_f4 + subgroups_f5:
        assert _generating_set(H) == reference_generating_set(H), H


def assert_locus_counted_over_census_field(H):
    # the level-1 locus, embedded, is the rational part of the level-2 one,
    # and each distinct quadratic with no root in F_q adds two more points
    ext = extension_field(H.spec, 2)
    full = stabilized_locus(H, 2)
    rational = [P for P in full if pp1_project(P, H.spec) is not None]
    assert sorted((pp1_embed(P, ext) for P in stabilized_locus(H, 1)), key=by_code) == rational, H
    assert 2 * len(irrational_locus_pairs(H)) == len(full) - len(rational), H
    # the one-pass test of _verified: the level-1 locus when it is the whole
    # locus, None when some fixed points leave F_q
    whole = stabilized_locus(H, 1, complete=True)
    assert whole == (None if irrational_locus_pairs(H) else stabilized_locus(H, 1)), H


class TestLocusOverCensusField:
    def test_every_scanned_subgroup(self, subgroups_f3, subgroups_f4, subgroups_f5):
        for H in subgroups_f3 + subgroups_f4 + subgroups_f5:
            assert_locus_counted_over_census_field(H)

    @pytest.mark.parametrize(
        "field, tag, rational, pairs",
        [
            ("7^1", "dihedral:2", 4, 1),
            ("5^1", "A4", 6, 4),
            ("13^1", "S4", 14, 6),
            ("7^1", "PGL2:1", 8, 21),
            ("3^3", "PGL2:1", 4, 3),
            ("3^3", "PSL2:1", 4, 3),
        ],
    )
    def test_models_whose_locus_leaves_the_field(self, field, tag, rational, pairs):
        from pglcensus.census import _standard_models

        (model,) = _standard_models(parse_field_spec(field), *parse_group_id(tag))
        assert (len(stabilized_locus(model, 1)), len(irrational_locus_pairs(model))) == (rational, pairs)
        assert_locus_counted_over_census_field(model)


def _all_points(spec):
    return [pp1_affine(x) for x in field_elements(spec)] + [pp1_infinity(spec)]


def pp1_embed_local(P):
    # F9 points up to F81, matching the census verification level
    from pglcensus.moebius import pp1_embed

    return pp1_embed(P, field_make(3, 4))


def stabilized_locus_level1(locus, base):
    from pglcensus.gfq import fq_project
    from pglcensus.moebius import pp1_affine, pp1_infinity

    out = []
    for P in locus:
        if P.is_infinity:
            out.append(pp1_infinity(base))
            continue
        down = fq_project(P.x, base)
        if down is None:
            return None
        out.append(pp1_affine(down))
    return tuple(out)


class TestMainTheorem:
    def test_growth_p2(self):
        report = verify_main_theorem(2, [1, 2, 3], m_values=[1])
        counts = [r.census_count for r in report.rows]
        assert counts == [1, 3, 7]
        assert report.ok

    def test_constant_cyclic_p5(self):
        report = verify_main_theorem(
            5, [1, 2], m_values=[1], extra_queries=[("cyclic:4", "0,inf")]
        )
        assert report.ok
        (bounded,) = report.bounded_rows
        assert [c for _, c in bounded.counts] == [1, 1]

    def test_two_point_locus_counts_zero(self):
        for n in (1, 2):
            spec = field_make(2, n)
            rep = enum_actions(
                CensusQuery(spec, "Zp^1", tuple(parse_point_list(spec, "0,inf" if n == 1 else "0,0,inf")), r=1)
            )
            assert rep.count == 0

    def test_desk_bounds_enforced(self, monkeypatch):
        # the bound is the largest row work of the run: just inside it
        # verify-main runs, one composition over it refuses
        work = max(census.dichotomy_work(2, 3, m) for m in (1, 2, 3))
        monkeypatch.setattr(census, "WORK_BOUND", work)
        assert verify_main_theorem(2, [1, 2, 3]).ok
        monkeypatch.setattr(census, "WORK_BOUND", work - 1)
        with pytest.raises(ValueError, match="WORK_BOUND"):
            verify_main_theorem(2, [1, 2, 3])

    def test_refused_before_any_work(self, monkeypatch):
        def no_census(query):
            raise AssertionError("a refused run must not start a census")

        monkeypatch.setattr(census, "enum_actions", no_census)
        # a huge p is refused by the bound before any trial division
        for p, levels in ((2, [1, 10]), (3, [6]), (7, [4]), (101, [1]), (10 ** 18 + 3, [1])):
            with pytest.raises(ValueError, match="WORK_BOUND"):
                verify_main_theorem(p, levels)

    def test_bound_admits_the_documented_runs(self):
        # the benchmark's and golden tests' towers, the worst cases in the
        # README, and the first rank or level past each of them
        inside = {
            (2, 4): (1, 2, 3, 4), (3, 2): (1, 2), (5, 2): (1, 2),
            (2, 6): (1, 2, 3, 4, 5, 6), (2, 7): (1, 2, 3), (2, 8): (1, 2), (2, 9): (1,),
            (3, 5): (1, 2, 3, 4, 5), (5, 3): (1, 2, 3), (7, 3): (1, 2, 3), (13, 2): (1, 2), (97, 1): (1,),
        }
        outside = [(2, 7, 4), (2, 9, 2), (2, 10, 1), (3, 6, 1), (5, 4, 1), (7, 4, 1), (17, 2, 1), (101, 1, 1)]
        for (p, top), ms in inside.items():
            for m in ms:
                assert census.dichotomy_work(p, top, m) <= census.WORK_BOUND, (p, top, m)
        for p, n, m in outside:
            assert census.dichotomy_work(p, n, m) > census.WORK_BOUND, (p, n, m)

    def test_p7_levels_1_2(self):
        report = verify_main_theorem(7, [1, 2])
        assert report.ok
        assert [(r.n, r.m, r.oracle_count) for r in report.rows] == [(1, 1, 1), (2, 1, 8), (2, 2, 1)]

    def test_huge_level_refused_without_big_integers(self):
        # q = p^n alone is over the bound, so the refusal neither raises a
        # huge q nor prints a work estimate of more than 4300 digits
        for p, n in ((2, 8000), (3, 10 ** 8), (10 ** 4000 + 1, 1)):
            with pytest.raises(ValueError, match=rf"at least q = {p}\^{n} map compositions, over the bound WORK_BOUND"):
                verify_main_theorem(p, [n])

    def test_run_checked_from_its_top_level_alone(self):
        check_main_theorem_run(2, 4)
        check_main_theorem_run(2, 8, [2])
        for p, top, m_values, message in (
            (1, 3, None, "prime"),
            (2, 3, [4], "rank m must lie in 1..3"),
            (2, 10 ** 9, None, "WORK_BOUND"),
            (4, 2, None, "prime"),
        ):
            with pytest.raises(ValueError, match=message):
                check_main_theorem_run(p, top, m_values)

    def test_mismatches_name_each_failing_row(self):
        row = DichotomyRow(n=2, m=1, census_count=3, subspace_count=3, oracle_count=3, gaussian=3)
        steady = BoundedRow(tag="cyclic:4", locus_text="0,inf", counts=((1, 1), (2, 1)), constant=1)
        clean = MainTheoremReport(p=5, n_values=(1, 2), rows=(row,), growth_ok=((1, True),), bounded_rows=(steady,))
        assert clean.ok and clean.mismatches() == []
        bad_row = row.replace(oracle_count=2)
        flat = ((1, True), (2, False))
        drifting = steady.replace(counts=((1, 1), (2, 2)), constant=2)
        expected = {
            "rows": "n=2 m=1: census 3, subspaces 3, oracle 2, gaussian 3",
            "growth_ok": "m=2: counts do not strictly grow with the field level",
            "bounded_rows": "cyclic:4 at 0,inf: counts ((1, 1), (2, 2)) are not constant",
        }
        for field, value in (("rows", (bad_row,)), ("growth_ok", flat), ("bounded_rows", (drifting,))):
            report = clean.replace(**{field: value})
            assert not report.ok
            assert report.mismatches() == [expected[field]]
        every = clean.replace(rows=(row, bad_row), growth_ok=flat, bounded_rows=(steady, drifting))
        assert not every.ok
        assert every.mismatches() == [expected["rows"], expected["growth_ok"], expected["bounded_rows"]]

    @pytest.mark.parametrize("p", [4, 1, 0, -3])
    def test_non_prime_p_refused(self, p):
        with pytest.raises(ValueError, match="prime"):
            verify_main_theorem(p, [1])

    def test_report_json_shape(self):
        from pglcensus.census import main_theorem_report_to_json

        report = verify_main_theorem(3, [1, 2])
        data = main_theorem_report_to_json(report)
        assert data["ok"] is True
        assert data["schema"] == "pglcensus/verify-main/v1"
        assert all(row["census"] == row["gaussian"] for row in data["dichotomy"])


class TestReportSerialization:
    def test_census_report_round_trip(self):
        rep = census_count(F8, "Zp^1", "inf")
        data = census_report_to_json(rep)
        text = json.dumps(data, sort_keys=True)
        parsed = json.loads(text)
        rebuilt = [subgroup_from_json(m) for m in parsed["matches"]]
        assert {H.elements for H in rebuilt} == {H.elements for H in rep.matches}
        assert parsed["count"] == rep.count

    def test_census_report_deterministic(self):
        a = json.dumps(census_report_to_json(census_count(F8, "Zp^1", "inf")), sort_keys=True)
        b = json.dumps(census_report_to_json(census_count(F8, "Zp^1", "inf")), sort_keys=True)
        assert a == b
