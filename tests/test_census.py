import collections
import functools
import itertools
import json
import random
import re

import pytest

import pglcensus.census as census
import pglcensus.closure as closure
import pglcensus.dichotomy as dichotomy
import pglcensus.moebius as moebius
import pglcensus.stdgroups as stdgroups
from pglcensus.census import (
    CensusQuery,
    additive_subgroup,
    census_report_to_json,
    enum_actions,
    enum_additive_subgroups,
    gamma_to_unipotent,
    gaussian_binomial,
    parse_group_id,
    scale_subgroup,
)
from pglcensus.closure import close, is_prime
from pglcensus.conjugacy import _translation_parts
from pglcensus.dichotomy import (
    BoundedRow,
    DichotomyRow,
    MainTheoremReport,
    check_main_theorem_run,
    oracle_enum_elem_abelian,
    verify_main_theorem,
)
from pglcensus.gfq import (
    _embedding_table,
    _inverse_cache,
    _projection_table,
    extension_field,
    field_elements,
    field_make,
    parse_element,
    parse_field_spec,
)
from pglcensus.moebius import (
    _kernel,
    _pgl2_codes,
    _render_codes,
    mob_compose,
    parse_point_list,
    pp1_infinity,
    render_point,
)
from pglcensus.stdgroups import (
    Fingerprint,
    SubgroupPGL2,
    _code_generators,
    _code_locus,
    _map_project,
    close_generators,
    conjugate_subgroup,
    fingerprint,
    stabilized_locus,
    subgroup_from_json,
)

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)
ONE4 = 2  # the code of 1 in F4
F5 = field_make(5, 1)
F7 = field_make(7, 1)
F8 = field_make(2, 3)
F9 = field_make(3, 2)


def map_order(spec, g):
    """The order of the map with entry codes g in PGL2(F_q), by its powers
    through mob_compose."""
    return closure.order(g, functools.partial(mob_compose, spec), _kernel(spec).identity, spec.q ** 3 - spec.q)


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
        assert subs[0].element_codes() == [0]

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
        for x in range(1, F9.q):
            assert additive_subgroup(F9, [x]).basis in listed

    def test_elements_closed_under_addition(self):
        for G in enum_additive_subgroups(F8, 2):
            members = G.element_codes()
            assert len(set(members)) == 4
            for a, b in itertools.product(members, repeat=2):
                assert F8._tables.add(a, b) in members

    @pytest.mark.parametrize("field", ["2^4", "2^6", "3^2", "3^4", "5^2", "7^2"])
    def test_gamma_models_against_every_subspace(self, field):
        # the models of gamma:m:n are the subspaces that pass
        # std_gamma_semidirect, in enum_additive_subgroups order, and the
        # first one alone (what build-group and locus print) comes from the
        # merged echelon runs, stopping there
        from pglcensus.census import _standard_models
        from pglcensus.stdgroups import std_gamma_semidirect

        spec = parse_field_spec(field)
        models = 0
        for m in range(1, spec.n + 1):
            subspaces = enum_additive_subgroups(spec, m)
            for n in (n for n in range(1, spec.q) if (spec.q - 1) % n == 0):
                want = []
                for G in subspaces:
                    try:
                        want.append(std_gamma_semidirect(G, n))
                    except ValueError:
                        pass
                assert _standard_models(spec, "gamma", (m, n)) == want, (m, n)
                assert _standard_models(spec, "gamma", (m, n), first=True) == want[:1], (m, n)
                models += len(want)
        assert models >= 2


class TestGammaUnipotentCorrespondence:
    def test_trivial(self):
        G = additive_subgroup(F4, [])
        assert gamma_to_unipotent(G).order == 1

    def test_prime_subfield(self):
        H = gamma_to_unipotent(additive_subgroup(F4, [ONE4]))
        assert H.order == 2
        assert H.tag == "Zp^1"

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_round_trip_all_ranks_F8(self, m):
        for G in enum_additive_subgroups(F8, m):
            H = gamma_to_unipotent(G)
            assert H.order == 2 ** m
            assert additive_subgroup(F8, _translation_parts(H)) == G

    def test_backward_rejects_non_translation_group(self):
        from pglcensus.stdgroups import std_cyclic

        assert _translation_parts(std_cyclic(F5, 4)) is None

    def test_distinct_gammas_give_distinct_subgroups(self):
        seen = set()
        for G in enum_additive_subgroups(F8, 2):
            H = gamma_to_unipotent(G)
            assert H.codes not in seen
            seen.add(H.codes)


class TestScaling:
    def test_identity_scalar(self):
        G = additive_subgroup(F4, [ONE4])
        assert scale_subgroup(G, ONE4) == G

    def test_scaling_moves_span(self):
        x = 1  # the residue of x, a root of the modulus of F4
        G = additive_subgroup(F4, [ONE4])
        assert scale_subgroup(G, x) == additive_subgroup(F4, [x])

    def test_zero_scalar_rejected(self):
        with pytest.raises(ValueError):
            scale_subgroup(additive_subgroup(F4, [ONE4]), 0)

    def test_inverse_of_member_pulls_in_prime_field(self):
        for G in enum_additive_subgroups(F9, 1):
            gamma = next(x for x in G.element_codes() if x)
            scaled = scale_subgroup(G, _inverse_cache(F9)[gamma])
            assert F9.q // F9.p in scaled.element_codes()

    def test_scaling_matches_diagonal_conjugation(self):
        for G in enum_additive_subgroups(F9, 1):
            for alpha in range(1, F9.q):
                diag = _kernel(F9).normalize(alpha, 0, 0, F9.q // F9.p)
                left = gamma_to_unipotent(scale_subgroup(G, alpha))
                right = conjugate_subgroup(gamma_to_unipotent(G), diag)
                assert left.codes == right.codes

    def test_scaling_permutes_the_census(self):
        subs = enum_additive_subgroups(F8, 2)
        basis_set = {G.basis for G in subs}
        for alpha in range(1, F8.q):
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
            # a trailing field was once read as the tag without it
            "cyclic:2:9",
            "PSL2:1:7",
            "dihedral:2:x",
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
        assert {render_point(F5, P) for P in stabilized_locus(H, 1)} == {"2", "3"}

    @staticmethod
    def counted_calls(monkeypatch, targets):
        """Count the calls of each (module, name), under the name."""
        calls = collections.Counter()
        for module, name in targets:
            def counted(*args, f=getattr(module, name), name=name):
                calls[name] += 1
                return f(*args)
            monkeypatch.setattr(module, name, counted)
        return calls

    @staticmethod
    def moved_locus(spec, tag, seed):
        """The rational locus of the tag's model and its image under a seeded
        map, as sorted point codes."""
        L0 = stabilized_locus(census._standard_models(spec, *parse_group_id(tag))[0], 1)
        g = random.Random(seed).choice(list(_pgl2_codes(spec)))
        return L0, tuple(sorted(_kernel(spec).apply(g, x) for x in L0))

    def test_one_conjugation_per_coset_of_the_model(self, monkeypatch):
        # dihedral:3 at all of P^1(F7): each of the 336 maps of PGL2(F7)
        # transports the locus, and the 6 maps of a coset g.H0 give one
        # conjugate, so 56 maps are built (one _triple_map each) and
        # conjugate the model on entry codes (one conjugate_subgroup each)
        calls = self.counted_calls(monkeypatch, [(moebius, "_triple_map"), (census, "conjugate_subgroup")])
        assert census_count(F7, "dihedral:3", "0,1,2,3,4,5,6,inf").count == 28
        assert calls == {"_triple_map": 56, "conjugate_subgroup": 56}

    def test_one_fixed_point_pass_per_candidate(self, monkeypatch):
        # the same census: one level-1 locus pass (_code_locus) gives the
        # model's size and its branch, then one pass per distinct candidate
        # (the 56 conjugates are the 28 matches, twice each); the JSON,
        # which renders the locus _verified checked, runs no pass
        calls = collections.Counter()
        for module in (census, stdgroups):
            def bound(spec, r, f=module._code_locus, key=f"{module.__name__} level"):
                locus = f(spec, r)

                def counted(codes):
                    calls[f"{key} {r}"] += 1
                    return locus(codes)

                return counted
            monkeypatch.setattr(module, "_code_locus", bound)
        report = census_count(F7, "dihedral:3", "0,1,2,3,4,5,6,inf")
        passes = {"pglcensus.census level 1": 1 + 28}
        assert calls == passes
        data = census_report_to_json(report)
        assert calls == passes
        monkeypatch.undo()
        assert data["matches"] == [stdgroups.subgroup_to_json(H, 1) for H in report.matches]

    def test_one_generating_set_per_match(self, monkeypatch):
        # the same census: verification computes each match's generating set
        # once, through SubgroupPGL2.generators, for its fingerprint (the
        # model's is that of the match the identity transports), and the JSON
        # renders the cached set, computing none
        calls = []

        def counted(codes, law, identity, f=stdgroups._code_generators):
            calls.append(codes)
            return f(codes, law, identity)

        monkeypatch.setattr(stdgroups, "_code_generators", counted)
        report = census_count(F7, "dihedral:3", "0,1,2,3,4,5,6,inf")
        assert report.count == 28 and sorted(calls) == [H.codes for H in report.matches]
        data = census_report_to_json(report)
        assert len(calls) == 28
        monkeypatch.undo()
        K = _kernel(F7)
        assert [m["generators"] for m in data["matches"]] == [
            [_render_codes(H.spec, g) for g in _code_generators(H.codes, K.law, K.identity)]
            for H in report.matches
        ]

    def test_one_map_built_per_transporter_yielded(self, monkeypatch):
        # dihedral:2 over F9 at its 6-point locus moved by a seeded map: the
        # 24 maps carrying L0 onto S fall into 6 cosets g.H0, and the image
        # of L0 under each of the 120 triples' maps is read by cross-ratio,
        # so a map is built (one _triple_map) only for the 6 transporters
        # yielded, where one per triple not yet covered made 102
        L0, S = self.moved_locus(F9, "dihedral:2", 9)
        assert S != L0
        calls = self.counted_calls(monkeypatch, [(moebius, "_triple_map")])
        assert enum_actions(CensusQuery(F9, "dihedral:2", S)).count == 1
        assert calls == {"_triple_map": 6}

    @pytest.mark.parametrize("field,tag", [("3^3", "PGL2:1"), ("5^1", "gamma:1:4")])
    def test_no_fingerprint_without_a_candidate_at_the_locus(self, monkeypatch, field, tag):
        # PGL2:1 over F27 at its rational locus P^1(F3) moved by a seeded
        # map, whose model's full locus has points over F9 as well, and
        # gamma:1:4 over F5 at one point have no candidate, so the model's
        # fingerprint is never computed
        spec = parse_field_spec(field)
        S = self.moved_locus(spec, tag, 27)[1] if tag == "PGL2:1" else (0,)
        calls = self.counted_calls(monkeypatch, [(census, "fingerprint")])
        assert enum_actions(CensusQuery(spec, tag, S)).count == 0
        assert len(S) == (4 if tag == "PGL2:1" else 1) and calls == {}

    def test_cyclic_census_locus_size_mismatch(self):
        assert census_count(F5, "cyclic:4", "0,1,inf").count == 0
        assert census_count(F5, "cyclic:4", "inf").count == 0

    def test_elem_abelian_two_point_locus_is_empty(self):
        assert census_count(F4, "Zp^1", "0,0,inf").count == 0

    def test_matches_have_recomputed_locus_equal_to_query(self):
        rep = census_count(F8, "Zp^2", "0,0,0")  # stabilized point 0
        assert rep.count == 7
        expected = (0,)  # the code of 0 over F64
        for H in rep.matches:
            locus = stabilized_locus(H, 2)
            assert len(locus) == 1 and locus == expected

    def test_elem_abelian_census_at_nonrational_point_moves_model(self):
        # stabilized point 1 instead of inf
        rep = census_count(F4, "Zp^1", "1,0")
        assert rep.count == 3
        for H in rep.matches:
            locus = stabilized_locus(H, 1)
            assert len(locus) == 1 and render_point(F4, locus[0]) == "1,0"

    def test_census_in_extension(self):
        # over F2 with ext 2 the census runs inside PGL2(F4)
        rep = census_count(F2, "Zp^1", "inf", r=2)
        assert rep.count == 3

    def test_library_census_in_extension_counts_as_the_cli(self):
        # a library query at r = 2 gives its locus as codes over F4, where
        # infinity is 4, not F2's 2: the count of the CLI's --ext 2 census,
        # with the locus echoed deduplicated
        F4_inf = pp1_infinity(extension_field(F2, 2))
        rep = enum_actions(CensusQuery(F2, "Zp^1", (F4_inf, F4_inf), r=2))
        assert (F4_inf, rep.count, rep.verdict) == (4, 3, "grows_with_field")
        assert rep.query.locus == (4,) and rep.count == census_count(F2, "Zp^1", "inf", r=2).count

    # each case one input: a code past q^r (F2's infinity read as F4's
    # point 2 is valid, so past it is 5), a negative code, and non-ints
    @pytest.mark.parametrize(
        "point",
        [5, -1, "inf", 2.0, True, parse_element(F4, "1,0")],
        ids=["past-q^r", "negative", "text", "float", "bool", "field-element"],
    )
    def test_locus_outside_the_census_field_is_refused(self, point):
        message = f"locus point {point!r} is not a point code of P^1 over F_2^2 (0..4)"
        with pytest.raises(ValueError, match=re.escape(message)):
            enum_actions(CensusQuery(F2, "Zp^1", (point,), r=2))

    @pytest.mark.parametrize("spec,m", [(F4, 1), (F8, 1), (F8, 2)], ids=["F4r1", "F8r1", "F8r2"])
    def test_conjugation_transport(self, spec, m):
        # any conjugate of a match shows up in the census of the moved locus
        rep = census_count(spec, f"Zp^{m}", "inf")
        census_at = {}
        for x in range(spec.q + 1):
            rep_x = enum_actions(CensusQuery(spec, f"Zp^{m}", (x,), r=1))
            census_at[x] = {M.codes for M in rep_x.matches}
        for g in _pgl2_codes(spec):
            for H in rep.matches:
                K = conjugate_subgroup(H, g)
                moved = stabilized_locus(K, 1)
                assert len(moved) == 1
                assert K.codes in census_at[moved[0]]

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
        assert embedded.codes in {M.codes for M in rep.matches}
        for H in rep.matches:
            assert fingerprint(H) == fingerprint(embedded)
            assert stabilized_locus(H, 2) == tuple(sorted(embed_point(P, F9, field_make(3, 4)) for P in S2))

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
            assert {H.codes for H in a.matches} == {H.codes for H in b.matches}

    def test_gamma_tag_with_no_admissible_model_counts_zero(self):
        # rank-1 subgroups of F4 cannot contain mu_3 (four elements needed)
        rep = census_count(F4, "gamma:1:3", "0,0,inf")
        assert rep.count == 0

    def test_gamma_semidirect_census(self):
        # order-6 groups zeta x + g over F9 with locus {0, 1, 2, inf}
        gamma = additive_subgroup(F9, [F9.q // F9.p])  # the span of 1
        from pglcensus.stdgroups import std_gamma_semidirect

        model = std_gamma_semidirect(gamma, 2)
        S = stabilized_locus(model, 1)
        rep = enum_actions(CensusQuery(F9, "gamma:1:2", S, r=1))
        assert rep.count >= 1
        assert model.codes in {M.codes for M in rep.matches}
        for H in rep.matches:
            assert fingerprint(H) == fingerprint(model)

    def test_gamma_semidirect_census_complete_against_pair_scan(self):
        # independent completeness oracle: every order-6 nonabelian subgroup
        # is generated by an order-3 and an order-2 element, so scanning all
        # such pairs sees every candidate
        from pglcensus.stdgroups import std_gamma_semidirect

        gamma = additive_subgroup(F9, [F9.q // F9.p])  # the span of 1
        model = std_gamma_semidirect(gamma, 2)
        S = stabilized_locus(model, 1)
        target_fp = fingerprint(model)
        target_locus = stabilized_locus(model, 2)

        order2 = [g for g in _pgl2_codes(F9) if map_order(F9, g) == 2]
        order3 = [g for g in _pgl2_codes(F9) if map_order(F9, g) == 3]
        K = _kernel(F9)
        seen = set()
        found = set()
        for a in order3:
            for b in order2:
                members = close([a, b], K.law, {K.identity}, 6)
                if members is None:
                    continue  # pair generates something larger
                H = SubgroupPGL2(F9, tuple(sorted(members)), "unclassified")
                if H.order != 6 or H.codes in seen:
                    continue
                seen.add(H.codes)
                if fingerprint(H) == target_fp and stabilized_locus(H, 2) == target_locus:
                    found.add(H.codes)
        rep = enum_actions(CensusQuery(F9, "gamma:1:2", S, r=1))
        assert {H.codes for H in rep.matches} == found

    def test_unknown_tag_raises(self):
        with pytest.raises(ValueError):
            census_count(F5, "sporadic", "inf")

    @pytest.mark.parametrize("spec", [F5, F7, field_make(11, 1)], ids=["F5", "F7", "F11"])
    def test_klein_census_matches_commuting_involution_oracle(self, spec):
        # independent oracle for the >= 3 point transporter path: enumerate
        # Klein four-groups directly from commuting involutions, and query
        # every 6-point locus of P^1(F_q).  Over F7 and F11 (q = 3 mod 4)
        # the model's locus has a pair of points outside F_q, so the census
        # transports nothing, and no Klein group's locus is rational
        from pglcensus.stdgroups import std_dihedral

        involutions = [g for g in _pgl2_codes(spec) if map_order(spec, g) == 2]
        kleins = {}
        for i, a in enumerate(involutions):
            for b in involutions[i + 1 :]:
                if mob_compose(spec, a, b) != mob_compose(spec, b, a):
                    continue
                members = [_kernel(spec).identity, a, b, mob_compose(spec, a, b)]
                H = SubgroupPGL2(spec, tuple(sorted(members)), "dihedral:2")
                kleins[H.codes] = H
        by_locus = {}
        for H in kleins.values():
            by_locus.setdefault(stabilized_locus(H, 2), set()).add(H.codes)

        model = std_dihedral(spec, 2)
        model_locus = stabilized_locus(model, 2)
        fp = fingerprint(model)
        expected = {}  # rational locus -> the Klein groups with that locus
        for locus, members in by_locus.items():
            rational = stabilized_locus_level1(locus, extension_field(spec, 2), spec)
            if rational is not None:
                expected[rational] = {els for els in members if fingerprint(kleins[els]) == fp}
        assert bool(expected) == (spec is F5)
        for S in itertools.combinations(range(spec.q + 1), 6):
            rep = enum_actions(CensusQuery(spec, "dihedral:2", S, r=1))
            assert {H.codes for H in rep.matches} == expected.get(S, set()), S
        # sanity: the model's own locus bucket is nonempty and detected
        assert model.codes in by_locus[model_locus]

    # the fields p^n <= 49 with p <= 13 and n <= 3, and the tags of the guard
    # sweep: 39 of their standard models have pairs
    GUARD_FIELDS = [(p, n) for p in (2, 3, 5, 7, 11, 13) for n in (1, 2, 3) if p**n <= 49]
    GUARD_TAGS = [
        *(f"{kind}:{n}" for kind in ("cyclic", "dihedral") for n in range(1, 13)),
        "A4",
        "S4",
        "A5",
        *(f"{kind}:{d}" for kind in ("PSL2", "PGL2") for d in (1, 2)),
        *(f"gamma:{m}:{n}" for m in range(3) for n in range(1, 5)),
    ]

    def test_every_standard_model_with_pairs_has_three_rational_points(self):
        # enum_actions skips a model whose locus has pairs: a map carrying
        # it onto a rational S would be the rational map through three of
        # its rational points, which keeps the pairs off the field.  Its
        # guard refuses a model with fewer, and no standard model has fewer
        with_pairs = 0
        for p, n in self.GUARD_FIELDS:
            spec = field_make(p, n)
            locus = _code_locus(spec, 1)
            for tag in self.GUARD_TAGS:
                try:
                    models = census._standard_models(spec, *parse_group_id(tag))
                except ValueError:
                    continue  # no model of this tag over the field
                for H in models:
                    L0, pairs = locus(H.codes)
                    if pairs:
                        with_pairs += 1
                        assert len(L0) >= 3, (p, n, tag)
        assert with_pairs == 39

    def test_a_model_with_pairs_and_two_rational_points_is_refused(self, monkeypatch, capsys):
        # the non-split Klein group {x, -x, 2/x, -2/x} over F5: its locus is
        # 0, inf and the pairs x^2 = 2 and x^2 = 3, six points, as many as
        # P^1(F5).  Transport over F25 would find Klein groups at P^1(F5);
        # the census is decided over F5 alone, so it refuses the model
        from pglcensus.cli import main

        normalize = _kernel(F5).normalize
        klein = close_generators(F5, [normalize(4, 0, 0, 1), normalize(0, 2, 1, 0)], "dihedral:2")
        L0, pairs = _code_locus(F5, 1)(klein.codes)
        assert klein.order == 4 and L0 == (0, 5) and len(pairs) == 2
        monkeypatch.setattr(census, "_standard_models", lambda *args: [klein])
        with pytest.raises(AssertionError, match="2 pairs outside F_5\\^1 and only 2 points"):
            census_count(F5, "dihedral:2", "0,1,2,3,4,inf")
        assert main(["census", "--field", "5^1", "--group", "dihedral:2", "--locus", "0,1,2,3,4,inf"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: internal check failed: the dihedral:2 model's locus has 2 pairs outside F_5^1 and only 2 points in it\n"


class TestBasisCertificate:
    """census._basis_certified on hand-made candidates over F_9 (p = 3):
    each refused candidate fails one of the four tests and passes the other
    three, so dropping any one test accepts it."""

    # the maps of F_9 used below, written as moebius.parse_moebius reads
    # them; a is the root of the auto modulus x^2 + 1, so a^2 = -1
    T1 = "[1,0,1,0;0,0,1,0]"  # x -> x + 1
    T2 = "[1,0,2,0;0,0,1,0]"  # x -> x + 2, so {T1, T2} is a dependent basis
    TA = "[1,0,0,1;0,0,1,0]"  # x -> x + a, independent of T1
    U = "[1,0,0,0;1,0,1,0]"  # x -> x / (x + 1): T1 conjugated by 1/x, fixing 0
    NEG = "[2,0,0,0;0,0,1,0]"  # x -> -x: order 2, fixing 0 and inf
    SCALE = "[0,1,0,0;0,0,1,0]"  # x -> a x: order 4, fixing 0 and inf
    IDENTITY = "[1,0,0,0;0,0,1,0]"
    K = _kernel(F9)

    @staticmethod
    def codes(*maps):
        return [moebius.parse_moebius(F9, g) for g in maps]

    def span(self, *maps):
        """The members of the group that the maps generate."""
        return close(self.codes(*maps), self.K.law, (self.K.identity,))

    def certified(self, basis, members=None, point="inf"):
        """The certificate of the basis maps, over their span unless
        `members` is given, at the queried point."""
        (S,) = parse_point_list(F9, point)
        members = self.span(*basis) if members is None else members
        locus = stdgroups._code_locus(F9, 1)
        return census._basis_certified(3, self.codes(*basis), members, self.K.law, self.K.identity, locus, (S,))

    def test_translation_groups_are_accepted(self):
        assert self.certified([self.T1])
        assert self.certified([self.T1, self.TA])
        assert self.certified([self.U], point="0,0")

    def test_maps_that_do_not_commute_are_refused(self):
        # T1 and U both have order 3, but their closure is all of PSL2(F_3)
        # inside PGL2(F_9); against the members of the rank-2 translation
        # group only the commute test fails
        assert not self.certified([self.T1, self.U])
        assert not self.certified([self.T1, self.U], members=self.span(self.T1, self.TA))

    @pytest.mark.parametrize("odd", [NEG, SCALE], ids=["order-2", "order-4"])
    def test_a_basis_map_whose_order_is_not_p_is_refused(self, odd):
        # the basis is the odd map alone, and the members a translation
        # group of order 3
        assert not self.certified([odd], members=self.span(self.T1))

    def test_the_identity_in_a_basis_is_refused(self):
        # order 1: it commutes with T1, and the members are the rank-2
        # translation group
        assert not self.certified([self.T1, self.IDENTITY], members=self.span(self.T1, self.TA))

    def test_a_dependent_basis_is_refused(self):
        # T2 = T1^2: the closure has 3 members, not 9
        assert len(self.span(self.T1, self.T2)) == 3
        assert not self.certified([self.T1, self.T2])

    def test_a_member_fixing_a_second_point_is_refused(self):
        # T1 conjugated to fix 0, queried at inf; and a translation group
        # whose second member is replaced by x -> -x, which fixes 0 too
        assert not self.certified([self.U])
        assert not self.certified([self.T1], members={self.K.identity, *self.codes(self.T1, self.NEG)})

    def test_a_member_whose_fixed_points_leave_the_field_is_refused(self):
        # x -> (1 + a)/x fixes no point of P^1(F_9), as 1 + a is not a square
        # there: the members' points are still inf alone, but they have one
        # pair, so their locus over the algebraic closure is not {inf}
        W = "[0,0,1,1;1,0,0,0]"
        assert not self.certified([self.T1], members={self.K.identity, *self.codes(self.T1, W)})

    def test_translation_path_makes_no_generic_certificate(self, monkeypatch):
        # no generating set is searched and no fingerprint computed per
        # candidate: verify-main never computes either, and a census
        # computes one generating set per match, when the JSON renders it
        calls = collections.Counter()
        for module, name in ((census, "fingerprint"), (stdgroups, "fingerprint"), (stdgroups, "_code_generators")):
            def counted(*args, f=getattr(module, name), key=f"{module.__name__}.{name}"):
                calls[key] += 1
                return f(*args)
            monkeypatch.setattr(module, name, counted)
        assert verify_main_theorem(2, [1, 2, 3, 4]).ok and verify_main_theorem(3, [1, 2]).ok
        assert calls == {}
        report = census_count(field_make(2, 4), "Zp^2", "0,0,0,1")
        assert report.count == 35 and calls == {}
        census_report_to_json(report)
        assert calls == {"pglcensus.stdgroups._code_generators": 35}


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
        assert {H.codes for H in rep.matches} == {H.codes for H in oracle}

    def test_oracle_at_affine_point(self):
        point = ONE4
        oracle = oracle_enum_elem_abelian(F4, 1, point)
        rep = enum_actions(CensusQuery(F4, "Zp^1", (point,), r=1))
        assert {H.codes for H in oracle} == {H.codes for H in rep.matches}

    def test_cap(self, monkeypatch):
        # just inside the bound the oracle runs, one composition over it refuses
        work = dichotomy.dichotomy_work(2, 3, 1)
        monkeypatch.setattr(census, "WORK_BOUND", work)
        assert len(oracle_enum_elem_abelian(F8, 1, pp1_infinity(F8))) == 7
        monkeypatch.setattr(census, "WORK_BOUND", work - 1)
        with pytest.raises(ValueError, match="WORK_BOUND"):
            oracle_enum_elem_abelian(F8, 1, pp1_infinity(F8))

    # each case one input: F4's infinity and F8's point past F2's infinity,
    # a negative code, and a field element, not its code
    @pytest.mark.parametrize(
        "spec, point",
        [(F2, 4), (F2, 7), (F8, -1), (F4, parse_element(F4, "0,1"))],
        ids=["F4-inf-over-F2", "past-q", "negative", "field-element"],
    )
    def test_point_of_another_field_is_refused(self, spec, point):
        # the oracle runs over the field it is given and embeds nothing
        message = f"oracle point {point!r} is not a point code of P^1 over F_{spec.p}^{spec.n} (0..{spec.q})"
        with pytest.raises(ValueError, match=re.escape(message)):
            oracle_enum_elem_abelian(spec, 1, point)

    def test_scan_refuses_a_map_that_moves_the_point(self, monkeypatch):
        # the stabilizer scan checks that each conjugate fixes the point: a
        # conjugator that does not take infinity there fails it
        point = 2
        monkeypatch.setattr(dichotomy, "mob_infinity_to", lambda spec, P: _kernel(spec).identity)
        with pytest.raises(AssertionError, match=r"\[1,0;0,2\] does not fix 2"):
            dichotomy._order_p_stabilizer(F5, point)

    def test_affine_point_costs_the_conjugation(self):
        assert dichotomy.dichotomy_work(2, 3, 1, affine=True) == dichotomy.dichotomy_work(2, 3, 1) + 3 * 8 * 7

    @pytest.mark.parametrize("p,n", [(2, 4), (5, 2), (2, 6), (3, 4)], ids=["F16", "F25", "F64", "F81"])
    @pytest.mark.parametrize("point_kind", ["inf", "affine"])
    def test_ranks_share_one_scan_off_the_mob_compose_cache(self, p, n, point_kind, monkeypatch):
        # the ranks of one level share one stabilizer scan and one layered
        # growth, which closes each subgroup once over all the ranks: the
        # closures total sum_m [n choose m]_p, 2,824 at F64 and 211 at F81
        # (a growth per rank made 11,293 and 631).  The scan and the growth
        # run on entry codes, so the shared mob_compose cache neither grows
        # nor records a lookup
        spec = field_make(p, n)
        point = pp1_infinity(spec) if point_kind == "inf" else spec.q // p**2  # x
        dichotomy._oracle_growth.cache_clear()
        closures, scans = [0], [0]

        def counted(*args, f=closure.close, **kwargs):
            closures[0] += 1
            return f(*args, **kwargs)

        def scanned(*args, f=dichotomy._order_p_stabilizer):
            scans[0] += 1
            return f(*args)

        monkeypatch.setattr(closure, "close", counted)
        monkeypatch.setattr(dichotomy, "_order_p_stabilizer", scanned)
        before = mob_compose.cache_info()
        for m in range(1, n + 1):
            assert len(oracle_enum_elem_abelian(spec, m, point)) == gaussian_binomial(n, m, p)
        assert mob_compose.cache_info() == before
        assert scans[0] == 1
        info = dichotomy._oracle_growth.cache_info()
        assert (info.misses, info.hits) == (1, n - 1)
        assert closures[0] == sum(gaussian_binomial(n, m, p) for m in range(1, n + 1))

    @pytest.mark.parametrize("p,n", [(2, 4), (5, 2), (3, 3)], ids=["F16", "F25", "F27"])
    @pytest.mark.parametrize("point_kind", ["inf", "affine"])
    def test_ranks_asked_out_of_order(self, p, n, point_kind, monkeypatch):
        # a rank at or below the growth's last layer reads the subgroups it
        # holds, and a rank asked twice, or past n (rank 3 of F25), reads the
        # same layers: each subgroup is closed once, 65 times over F16, 7
        # over F25 and 27 over F27
        spec = field_make(p, n)
        point = pp1_infinity(spec) if point_kind == "inf" else spec.q - 1
        dichotomy._oracle_growth.cache_clear()
        closures = [0]

        def counted(*args, f=closure.close, **kwargs):
            closures[0] += 1
            return f(*args, **kwargs)

        monkeypatch.setattr(closure, "close", counted)
        for m in (3, 1, 2, 3):
            found = {frozenset(H.codes) for H in oracle_enum_elem_abelian(spec, m, point)}
            assert found == reference_oracle(spec, m, point)
            assert len(found) == gaussian_binomial(n, m, p)
        assert closures[0] == sum(gaussian_binomial(n, k, p) for k in range(1, 4))


# The oracle as it was before it scanned only the point stabilizer: all of
# PGL2(F_q), the fixed-point test by the kernel's apply and the order by
# powers through mob_compose (map_order),
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
    ident, apply = _kernel(spec).identity, _kernel(spec).apply
    return [g for g in _pgl2_codes(spec) if g != ident and apply(g, point) == point and map_order(spec, g) == spec.p]


def reference_oracle(spec, m, point):
    ident, compose = _kernel(spec).identity, functools.partial(mob_compose, spec)
    return {
        H
        for H in _reference_subgroups_of_order(_reference_order_p(spec, point), compose, ident, spec.p ** m)
        if all(map_order(spec, g) == spec.p for g in H if g != ident)
    }


SMALL_FIELDS = [(p, n) for p in range(2, 33) if is_prime(p) for n in range(1, 6) if p ** n <= 32]


@pytest.mark.parametrize("point_kind", ["inf", "affine"])
@pytest.mark.parametrize("p,n", SMALL_FIELDS, ids=[f"{p}^{n}" for p, n in SMALL_FIELDS])
def test_oracle_matches_full_pgl2_scan(p, n, point_kind):
    spec = field_make(p, n)
    point = pp1_infinity(spec) if point_kind == "inf" else spec.q - 1
    for m in range(1, n + 1):
        found = {frozenset(H.codes) for H in oracle_enum_elem_abelian(spec, m, point)}
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
    ident = _kernel(spec).identity
    elements = list(_pgl2_codes(spec))
    trivial = close_generators(spec, [ident])
    layer = {trivial.codes: (trivial, [])}
    everything = {trivial.codes: trivial}
    while layer:
        next_layer = {}
        for H, gens in layer.values():
            members = H.codes
            covered = set(members)
            for g in elements:
                if g in covered:
                    continue
                covered.update(mob_compose(spec, g, h) for h in members)
                grown = close_generators(spec, gens + [g])
                if grown.codes not in everything:
                    everything[grown.codes] = grown
                    next_layer[grown.codes] = (grown, gens + [g])
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
        by_locus.setdefault(locus, set()).add(H.codes)
    assert by_locus, f"no subgroups with the fingerprint of {tag}"
    ext = extension_field(spec, 2)
    for locus, members in by_locus.items():
        locus_level1 = stabilized_locus_level1(locus, ext, spec)
        if locus_level1 is not None:
            rep = enum_actions(CensusQuery(spec, tag, locus_level1, r=1))
            assert {H.codes for H in rep.matches} == members, (tag, locus)
        else:
            rep = enum_actions(CensusQuery(ext, tag, locus, r=1))
            table = _projection_table(ext, spec)
            rational = ([_map_project(table, g) for g in H.codes] for H in rep.matches)
            assert {tuple(sorted(codes)) for codes in rational if None not in codes} == members, (tag, locus)


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
    # fingerprint as it was before it ran on the kernel's law: orders by
    # powers through mob_compose (map_order) and the commutation test by
    # mob_compose pairs over all members, not a generating set
    spec, members = H.spec, H.codes
    counts = collections.Counter(map_order(spec, m) for m in members)
    return Fingerprint(
        order=H.order,
        element_orders=tuple(sorted(counts.items())),
        abelian=all(mob_compose(spec, a, b) == mob_compose(spec, b, a) for a, b in itertools.combinations(members, 2)),
    )


def test_fingerprint_matches_reference(subgroups_f3, subgroups_f4, subgroups_f5):
    for H in subgroups_f3 + subgroups_f4 + subgroups_f5:
        assert fingerprint(H) == reference_fingerprint(H), H


def reference_generating_set(H):
    # the generating set as it was before it closed on entry codes: the same
    # greedy choice in canonical order, closed by mob_compose
    ident, compose = _kernel(H.spec).identity, functools.partial(mob_compose, H.spec)
    gens, span = [], {ident}
    for m in H.codes:
        if m not in span:
            gens.append(m)
            span = close(gens, compose, span)
    return tuple(gens) or (ident,)


def test_generating_set_matches_reference(subgroups_f3, subgroups_f4, subgroups_f5):
    for H in subgroups_f3 + subgroups_f4 + subgroups_f5:
        assert H.generators == reference_generating_set(H), H


def assert_locus_counted_over_census_field(H):
    # the points of the level-1 pass, embedded, are the rational part of the
    # level-2 locus, and each of its pairs adds two more points; so the
    # level-1 locus is the whole locus exactly when there is no pair, the
    # test of _verified
    ext = extension_field(H.spec, 2)
    full = stabilized_locus(H, 2)
    rational = [P for P in full if P == ext.q or P in _projection_table(ext, H.spec)]
    points, pairs = _code_locus(H.spec, 1)(H.codes)
    assert points == stabilized_locus(H, 1), H
    assert sorted(embed_point(P, H.spec, ext) for P in points) == rational, H
    assert 2 * len(pairs) == len(full) - len(rational), H


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
        points, found = _code_locus(model.spec, 1)(model.codes)
        assert (len(points), len(found)) == (rational, pairs)
        assert_locus_counted_over_census_field(model)

    def test_verified_refuses_a_locus_that_leaves_the_field(self):
        # the Klein model over F7 has 4 rational points and one pair, so its
        # locus over the algebraic closure is not the 4 points; over F5,
        # where all 6 are rational, it is its own match
        from pglcensus.census import _standard_models, _verified

        (model,) = _standard_models(F7, *parse_group_id("dihedral:2"))
        points, pairs = _code_locus(F7, 1)(model.codes)
        assert (len(points), len(pairs)) == (4, 1)
        assert _verified(F7, [model], points, model) == []
        (model,) = _standard_models(F5, *parse_group_id("dihedral:2"))
        assert _verified(F5, [model], stabilized_locus(model, 1), model) == [model]


def embed_point(P, spec, target):
    """The point code P of spec read over the extension target."""
    return target.q if P == spec.q else _embedding_table(spec, target)[P]


def stabilized_locus_level1(locus, spec, base):
    """The point codes of a locus over spec projected to its subfield base,
    or None if one of them is irrational there."""
    out = []
    for P in locus:
        if P == spec.q:
            out.append(pp1_infinity(base))
            continue
        down = _projection_table(spec, base).get(P)
        if down is None:
            return None
        out.append(down)
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

    def test_tags_embed_their_prime_field_points_into_each_level(self, monkeypatch):
        # a tag's points are written over F_3 and embedded into F_{3^n}: the
        # point 1 has code 1 in F_3 and code 3 in F_9, and infinity, code
        # p, goes to p^n; any pair gives cyclic:2 the count 1, so the counts
        # alone cannot tell a point that was not embedded
        loci = []

        def recorded(query, f=dichotomy.enum_actions):
            loci.append((query.spec.q, query.locus))
            return f(query)

        monkeypatch.setattr(dichotomy, "enum_actions", recorded)
        tags = [("cyclic:2", "1,2"), ("cyclic:2", "1,inf")]
        report = verify_main_theorem(3, [1, 2], m_values=[1], extra_queries=tags)
        assert report.ok
        assert loci == [(3, (1, 2)), (9, (3, 6)), (3, (1, 3)), (9, (3, 9))]

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
        work = max(dichotomy.dichotomy_work(2, 3, m) for m in (1, 2, 3))
        monkeypatch.setattr(census, "WORK_BOUND", work)
        assert verify_main_theorem(2, [1, 2, 3]).ok
        monkeypatch.setattr(census, "WORK_BOUND", work - 1)
        with pytest.raises(ValueError, match="WORK_BOUND"):
            verify_main_theorem(2, [1, 2, 3])

    def test_refused_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("a refused run must not start a census, a subspace enumeration or the oracle")

        # the tagged queries, the rows' census and subspaces, and the
        # oracle's search
        for name in ("enum_actions", "_translation_census", "_echelon_bases", "_oracle_growth"):
            monkeypatch.setattr(dichotomy, name, no_work)
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
                assert dichotomy.dichotomy_work(p, top, m) <= census.WORK_BOUND, (p, top, m)
        for p, n, m in outside:
            assert dichotomy.dichotomy_work(p, n, m) > census.WORK_BOUND, (p, n, m)

    # (p, n, m, affine) -> dichotomy_work, as the estimate stands: every
    # term of it moves some row, so a changed constant fails here and not
    # only where it moves a refused level.  A refit of the estimate rewrites
    # this table on purpose.  The rows over WORK_BOUND are the refused ones.
    WORK_TABLE = {
        (2, 3, 1, False): 145,
        (2, 3, 1, True): 313,
        (2, 4, 2, False): 1448,
        (2, 4, 3, True): 2358,
        (3, 2, 1, True): 440,
        (5, 2, 2, False): 3217,
        (3, 4, 2, False): 28545,
        (2, 6, 3, False): 109014,
        (5, 3, 3, True): 128967,
        (13, 2, 2, False): 371583,
        (3, 5, 2, True): 437959,
        (7, 3, 1, False): 706914,
        (2, 7, 3, False): 878998,
        (7, 3, 1, True): 1058832,
        (3, 6, 1, False): 1068704,
        (17, 2, 1, False): 1334844,
        (2, 9, 2, True): 2523956,
        (5, 4, 1, True): 2735616,
        (2, 7, 4, False): 2886868,
        (7, 4, 2, False): 41861175,
    }

    def test_work_estimate_table(self):
        assert {row: dichotomy.dichotomy_work(*row) for row in self.WORK_TABLE} == self.WORK_TABLE
        # the table has rows on both sides of the bound
        assert min(self.WORK_TABLE.values()) <= census.WORK_BOUND < max(self.WORK_TABLE.values())

    @staticmethod
    def count_built(monkeypatch, specs):
        """The maps built from a matrix (the kernel's normalize) or by
        inversion (its inverse) over the fields specs, as they are made: a
        product of the code law is not counted."""
        built = []
        for spec in specs:
            K = _kernel(spec)
            for name in ("normalize", "inverse"):
                def counted(*args, f=getattr(K, name)):
                    built.append(args)
                    return f(*args)

                monkeypatch.setattr(K, name, counted)
        return built

    def test_rows_build_no_maps(self, monkeypatch):
        # a row without tags counts the census, the subspaces and the
        # oracle on the code law: no map is normalized or inverted
        specs = [field_make(p, n) for p, top in ((2, 8), (3, 4), (5, 4)) for n in range(1, top + 1)]
        built = self.count_built(monkeypatch, specs)
        for p, levels in ((2, [1, 2, 3, 4]), (3, [2]), (5, [2])):
            assert verify_main_theorem(p, levels).ok
        assert built == []
        # the census of the same subgroups builds no map either, and its
        # JSON renders each generator from its entry codes
        report = census_count(F8, "Zp^2", "inf")
        assert report.count == 7 and built == []
        assert len(census_report_to_json(report)["matches"]) == 7
        assert built == []

    def test_affine_census_builds_maps_independent_of_match_count(self, monkeypatch):
        # Zp^2 at an affine point over F16 (35 matches) and F64 (651): the
        # maps built are the conjugator's, x -> P + 1/x and its inverse, the
        # same two at both levels, and none per member of a match
        built = self.count_built(monkeypatch, [field_make(2, 4), field_make(2, 6)])
        sizes = []
        for n, count in ((4, 35), (6, 651)):
            spec = field_make(2, n)
            before = len(built)
            report = enum_actions(CensusQuery(spec, "Zp^2", (spec.q // 4,), r=1))  # x
            assert report.count == count
            sizes.append(len(built) - before)
        assert sizes == [2, 2]

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
        from pglcensus.dichotomy import main_theorem_report_to_json

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
        assert {H.codes for H in rebuilt} == {H.codes for H in rep.matches}
        assert parsed["count"] == rep.count

    def test_census_report_deterministic(self):
        a = json.dumps(census_report_to_json(census_count(F8, "Zp^1", "inf")), sort_keys=True)
        b = json.dumps(census_report_to_json(census_count(F8, "Zp^1", "inf")), sort_keys=True)
        assert a == b
