import itertools
import random

import pytest

from pglcensus.gfq import (
    by_code,
    FieldSpec,
    extension_field,
    field_elements,
    field_make,
    fq_add,
    fq_div,
    fq_from_int,
    fq_gen,
    fq_mul,
    fq_neg,
    fq_one,
    fq_sub,
    fq_zero,
    parse_field_spec,
    poly_roots,
    render_element,
)
from pglcensus.moebius import (
    PP1,
    _code_law,
    _code_points,
    _log_arrays,
    _normalized,
    mob_apply,
    mob_compose,
    mob_conjugate,
    mob_embed,
    mob_fixed_points,
    mob_from_three_points,
    mob_identity,
    mob_infinity_to,
    mob_inverse,
    mob_make,
    mob_order,
    parse_moebius,
    parse_point,
    parse_point_list,
    pgl2_elements,
    poly_map_ramification,
    pp1_affine,
    pp1_embed,
    pp1_infinity,
    pp1_points,
    pp1_project,
    render_moebius,
    render_point,
    transporters,
    verify_p1fp,
)

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)
F5 = field_make(5, 1)
F7 = field_make(7, 1)
F8 = field_make(2, 3)
F9 = field_make(3, 2)


def mk(spec, a, b, c, d):
    return mob_make(*(fq_from_int(spec, v) for v in (a, b, c, d)))


def pt(spec, x):
    return pp1_affine(fq_from_int(spec, x))


class TestMake:
    def test_identity(self):
        m = mk(F5, 1, 0, 0, 1)
        assert m == mob_identity(F5)

    def test_normalization_scales_first_nonzero_to_one(self):
        assert render_moebius(mk(F5, 2, 0, 0, 1)) == "[1,0;0,3]"

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            mk(F5, 1, 1, 1, 1)

    def test_normalization_soundness_random_scalars(self):
        rng = random.Random(11)
        elems = field_elements(F5)
        for m in itertools.islice(pgl2_elements(F5), 0, 120, 7):
            lam = elems[rng.randrange(1, 5)]
            rescaled = mob_make(*(x * lam for x in (m.a, m.b, m.c, m.d)))
            assert rescaled == m


class TestIdentity:
    """A map is identified by its field and one int over its normalized
    entry codes, a point by its field and the code of x (q for infinity)."""

    def test_equal_iff_same_entries(self):
        elems = list(pgl2_elements(F4))
        for i, m1 in enumerate(elems):
            for j, m2 in enumerate(elems):
                assert (m1 == m2) == (i == j)
                assert (m1 != m2) == (i != j)

    def test_rebuilt_map_is_equal_and_hashes_alike(self):
        for m in itertools.islice(pgl2_elements(F9), 0, 720, 13):
            twin = mob_make(*(x * fq_gen(F9) for x in (m.a, m.b, m.c, m.d)))
            assert twin is not m and twin == m and hash(twin) == hash(m)
            assert (twin.a, twin.b, twin.c, twin.d) == (m.a, m.b, m.c, m.d)

    def test_same_codes_over_different_moduli_are_unequal(self):
        Fa = field_make(3, 2, [1, 0, 1])
        Fb = field_make(3, 2, [2, 1, 1])
        text = "[1,0,1,1;0,0,1,0]"
        ma, mb = parse_moebius(Fa, text), parse_moebius(Fb, text)
        assert hash(ma) == hash(mb) and ma != mb
        assert len({ma, mb}) == 2
        Pa, Pb = parse_point(Fa, "1,1"), parse_point(Fb, "1,1")
        assert hash(Pa) == hash(Pb) and Pa != Pb
        assert pp1_infinity(Fa) != pp1_infinity(Fb)

    def test_directly_built_spec_matches_field_make(self):
        shared = field_make(3, 2, [1, 0, 1])
        fresh = FieldSpec(3, 2, (1, 0, 1))
        assert fresh is shared and fresh == shared and hash(fresh) == hash(shared)
        text = "[1,2,0,1;1,1,2,2]"
        m1, m2 = parse_moebius(shared, text), parse_moebius(fresh, text)
        assert m1 == m2 and hash(m1) == hash(m2) and len({m1, m2}) == 1
        assert parse_point(shared, "2,1") == parse_point(fresh, "2,1")
        assert pp1_infinity(shared) == pp1_infinity(fresh)

    def test_other_types_never_compare_equal(self):
        m, P = mob_identity(F5), pt(F5, 3)
        assert m != m.code and P != P.code
        assert m.__eq__(P) is NotImplemented and P.__eq__(m) is NotImplemented

    @pytest.mark.parametrize("spec", [F4, F5, F9, field_make(2, 4)], ids=["F4", "F5", "F9", "F16"])
    def test_sets_count_the_group_and_the_line(self, spec):
        q = spec.q
        assert len(set(pgl2_elements(spec))) == q ** 3 - q
        assert len(set(pp1_points(spec))) == q + 1

    def test_maps_are_immutable(self):
        m = mk(F5, 1, 2, 3, 4)
        for name in ("spec", "a", "b", "c", "d", "code"):
            with pytest.raises(AttributeError):
                setattr(m, name, getattr(m, name))
        with pytest.raises(AttributeError):
            m.extra = 1

    def test_points_are_immutable(self):
        P = pt(F5, 2)
        for name in ("spec", "x", "code"):
            with pytest.raises(AttributeError):
                setattr(P, name, getattr(P, name))

    def test_point_in_wrong_field_rejected(self):
        with pytest.raises(ValueError, match="wrong field"):
            PP1(F5, fq_one(F7))

    def test_mixed_field_matrix_rejected(self):
        with pytest.raises(ValueError, match="different fields"):
            mob_make(fq_one(F5), fq_zero(F7), fq_zero(F5), fq_one(F5))


class TestApply:
    def test_identity_everywhere(self):
        ident = mob_identity(F5)
        for x in field_elements(F5):
            assert mob_apply(ident, pp1_affine(x)) == pp1_affine(x)
        assert mob_apply(ident, pp1_infinity(F5)).is_infinity

    def test_translation_fixes_infinity(self):
        m = mk(F2, 1, 1, 0, 1)
        assert mob_apply(m, pp1_infinity(F2)).is_infinity

    def test_swap_exchanges_zero_and_infinity(self):
        m = mk(F5, 0, 1, 1, 0)
        assert mob_apply(m, pt(F5, 0)).is_infinity
        assert mob_apply(m, pp1_infinity(F5)) == pt(F5, 0)

    def test_map_embedded_into_the_point_field(self):
        m = mob_embed(mk(F2, 1, 1, 0, 1), F4)  # x -> x + 1 over F2, read over F4
        t = fq_gen(F4)
        image = mob_apply(m, pp1_affine(t))
        assert render_element(image.x) == "1,1"  # t + 1

    @pytest.mark.parametrize("point", [pp1_affine(fq_gen(F4)), pp1_infinity(F4)], ids=["affine", "inf"])
    def test_point_of_another_field_is_refused(self, point):
        # fields are never enlarged silently: neither side is embedded
        m = mk(F2, 1, 1, 0, 1)
        with pytest.raises(ValueError, match="field mismatch"):
            mob_apply(m, point)
        with pytest.raises(ValueError, match="field mismatch"):
            mob_apply(mob_embed(m, F4), pp1_infinity(F2))
        with pytest.raises(ValueError, match="field mismatch"):
            mob_apply(mk(F3, 1, 1, 0, 1), pp1_infinity(F2))


class TestGroupLaw:
    def test_compose_identity(self):
        for m in pgl2_elements(F3):
            assert mob_compose(mob_identity(F3), m) == m

    def test_translation_inverse(self):
        m = mk(F5, 1, 1, 0, 1)
        assert mob_inverse(m) == mk(F5, 1, 4, 0, 1)

    def test_diagonal_scalars_multiply(self):
        assert mob_compose(mk(F5, 1, 0, 0, 2), mk(F5, 1, 0, 0, 3)) == mob_identity(F5)

    def test_compose_matches_pointwise_action(self):
        pts = [pt(F5, k) for k in range(5)] + [pp1_infinity(F5)]
        sample = list(itertools.islice(pgl2_elements(F5), 0, 120, 11))
        for m1, m2 in itertools.product(sample, repeat=2):
            comp = mob_compose(m1, m2)
            for P in pts:
                assert mob_apply(comp, P) == mob_apply(m1, mob_apply(m2, P))

    def test_inverse_is_inverse(self):
        for m in pgl2_elements(F4):
            assert mob_compose(m, mob_inverse(m)) == mob_identity(F4)


def reference_normalized(a, b, c, d):
    """The entries of [[a,b],[c,d]] scaled so that the first nonzero one is 1,
    by schoolbook FqElem arithmetic, or None when the matrix is singular."""
    if (a * d - b * c).is_zero():
        return None
    lead = next(x for x in (a, b, c, d) if not x.is_zero())
    return tuple(x / lead for x in (a, b, c, d))


def entries(m):
    return m.a, m.b, m.c, m.d


def entry_codes(m):
    return tuple(x.code for x in entries(m))


def reference_compose(m1, m2):
    (a1, b1, c1, d1), (a2, b2, c2, d2) = entries(m1), entries(m2)
    return reference_normalized(a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def reference_inverse(m):
    return reference_normalized(m.d, -m.b, -m.c, m.a)


class TestCodeArithmetic:
    """PGL2 products, inverses and normalization run on entry codes; they
    must agree with the schoolbook FqElem reference."""

    @pytest.mark.parametrize("spec", [F2, F3, F4, F5], ids=["F2", "F3", "F4", "F5"])
    def test_every_code_matrix_against_reference(self, spec):
        elems = field_elements(spec)
        for codes in itertools.product(range(spec.q), repeat=4):
            want = reference_normalized(*(elems[c] for c in codes))
            if want is None:
                with pytest.raises(ValueError, match="singular"):
                    _normalized(spec, *codes)
            else:
                assert entries(_normalized(spec, *codes)) == want, codes

    @pytest.mark.parametrize("spec", [F2, F3, F4, F5], ids=["F2", "F3", "F4", "F5"])
    def test_every_pair_against_reference(self, spec):
        # through mob_compose and through the code law it wraps
        law, _, identity = _code_law(spec)
        assert identity == entry_codes(mob_identity(spec))
        group = list(pgl2_elements(spec))
        for m1 in group:
            assert entries(mob_inverse(m1)) == reference_inverse(m1)
            for m2 in group:
                want = reference_compose(m1, m2)
                assert entries(mob_compose(m1, m2)) == want
                assert law(entry_codes(m1), entry_codes(m2)) == tuple(x.code for x in want)

    @pytest.mark.parametrize(
        "p, n",
        [(3, 2), (2, 4), (5, 2), (7, 1), (2, 3), (3, 3), (2, 5), (7, 2)],
        ids=["F9", "F16", "F25", "F7", "F8", "F27", "F32", "F49"],
    )
    def test_seeded_pairs_against_reference(self, p, n):
        spec = field_make(p, n)
        law, _, identity = _code_law(spec)
        assert identity == entry_codes(mob_identity(spec))
        rng = random.Random(p * 100 + n)
        group = list(pgl2_elements(spec))
        for _ in range(400):
            m1, m2 = rng.choice(group), rng.choice(group)
            want = reference_compose(m1, m2)
            assert entries(mob_compose(m1, m2)) == want
            assert law(entry_codes(m1), entry_codes(m2)) == tuple(x.code for x in want)
            assert entries(mob_inverse(m1)) == reference_inverse(m1)

    @pytest.mark.parametrize(
        "spec, x, y, zeros",
        [
            # the a-entry is a1 a2 + b1 c2 = 0 with a zero factor, and with
            # two nonzero products that cancel (1 + g^k = 0): scaled by b
            (F5, (0, 1, 1, 0), (1, 1, 0, 1), (0,)),
            (F5, (1, 1, 0, 1), (1, 0, 4, 1), (0,)),
            # c1 b2 + d1 d2 = 0 from two nonzero products: the d-entry
            (F7, (1, 2, 3, 1), (1, 2, 0, 1), (3,)),
            # p = 2, where log(-1) = 0 and a product cancels its equal
            (F2, (1, 1, 0, 1), (1, 0, 1, 1), (0,)),
            (F4, (1, 1, 1, 0), (1, 1, 0, 1), (1,)),
        ],
    )
    def test_entry_sums_that_vanish(self, spec, x, y, zeros):
        law = _code_law(spec)[0]
        m1, m2 = mk(spec, *x), mk(spec, *y)
        got = law(entry_codes(m1), entry_codes(m2))
        assert got == tuple(e.code for e in reference_compose(m1, m2))
        assert [i for i, e in enumerate(got) if not e] == list(zeros)

    def test_negation_in_characteristic_two(self):
        for spec in (F2, F4, F8):
            neg = _log_arrays(spec)[1]
            assert neg == list(range(spec.q))
            for m in pgl2_elements(spec):
                assert entries(mob_inverse(m)) == reference_inverse(m)

    @pytest.mark.parametrize("spec", [F4, F5], ids=["F4", "F5"])
    def test_apply_and_frame_against_reference(self, spec):
        apply, frame = _code_points(spec)
        points = list(pp1_points(spec))
        for m in pgl2_elements(spec):
            for P in points:
                assert apply(entry_codes(m), P.code) == reference_apply(m, P).code
        one, zero = fq_one(spec), fq_zero(spec)
        for z in itertools.permutations(points, 3):
            (x1, y1), (x2, y2), (x3, y3) = ((one, zero) if P.is_infinity else (P.x, one) for P in z)
            d23 = x2 * y3 - y2 * x3
            d21 = x2 * y1 - y2 * x1
            want = (y1 * d23, -(x1 * d23), y3 * d21, -(x3 * d21))
            assert frame(*(P.code for P in z)) == tuple(e.code for e in want)

    @pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (2, 4)], ids=["F8", "F9", "F16"])
    def test_translation_groups_against_reference(self, p, n):
        from pglcensus.census import enum_additive_subgroups, gamma_to_unipotent
        from pglcensus.stdgroups import _make_subgroup

        spec = field_make(p, n)
        for rank in range(n + 1):
            for gamma in enum_additive_subgroups(spec, rank):
                # the FqElem construction: each combination of the basis,
                # one mob_make per member
                members = []
                for combo in itertools.product(range(p), repeat=rank):
                    acc = fq_zero(spec)
                    for c, b in zip(combo, gamma.basis):
                        acc = fq_add(acc, fq_mul(fq_from_int(spec, c), b))
                    members.append(acc)
                translations = [mob_make(fq_one(spec), g, fq_zero(spec), fq_one(spec)) for g in members]
                assert gamma.elements() == members
                assert gamma_to_unipotent(gamma) == _make_subgroup(spec, translations, f"Zp^{rank}")


class TestOrder:
    def test_identity_order_one(self):
        assert mob_order(mob_identity(F5)) == 1

    @pytest.mark.parametrize("spec", [F2, F3, F5])
    def test_translation_has_order_p(self, spec):
        assert mob_order(mk(spec, 1, 1, 0, 1)) == spec.p

    def test_diagonal_root_of_unity_order(self):
        # diag(zeta_4, 1) over F5 with zeta_4 = 2
        assert mob_order(mk(F5, 2, 0, 0, 1)) == 4


class TestFixedPoints:
    def test_diagonal_fixes_zero_and_infinity(self):
        fixed = mob_fixed_points(mk(F5, 2, 0, 0, 1), 2)
        keys = {render_point(P) for P in fixed}
        assert keys == {"0,0", "inf"}  # rendered over F25

    def test_translation_fixes_only_infinity(self):
        assert [P.is_infinity for P in mob_fixed_points(mk(F5, 1, 1, 0, 1), 2)] == [True]

    def test_inversion_fixes_square_roots_of_minus_one(self):
        fixed = mob_fixed_points(mk(F5, 0, 1, 4, 0), 1)
        assert {P.x.coeffs[0] for P in fixed} == {2, 3}

    def test_identity_signalled(self):
        with pytest.raises(ValueError, match="identity"):
            mob_fixed_points(mob_identity(F5), 2)

    @pytest.mark.parametrize("spec", [F2, F3, F4, F5, F7, F8])
    def test_one_or_two_fixed_points_iff_order_p(self, spec):
        rep = verify_p1fp(spec)
        assert rep.ok, rep.violations
        assert rep.checked == spec.q ** 3 - spec.q - 1

    @pytest.mark.parametrize("spec", [F2, F3, F4, F5, F7, F8, F9])
    def test_closed_form_matches_exhaustive_roots(self, spec):
        # infinity when c = 0, plus the roots poly_roots finds for c x^2 + (d-a) x - b
        ident = mob_identity(spec)
        for r in (1, 2, 3) if spec.q <= 4 else (1, 2):
            ext = extension_field(spec, r)
            for m in pgl2_elements(spec):
                if m == ident:
                    continue
                quad = [fq_neg(m.b), fq_sub(m.d, m.a), m.c]
                expected = [pp1_affine(x) for x, _ in poly_roots(quad, r)]
                if m.c.is_zero():
                    expected.append(pp1_infinity(ext))
                assert mob_fixed_points(m, r) == expected, render_moebius(m)

    @pytest.mark.parametrize("spec", [F4, F5, F9])
    def test_rational_fixed_points_or_a_conjugate_pair_outside(self, spec):
        # a quadratic with one root in F_q has both there, so the level-1
        # fixed points are either all of them or none, and none exactly when
        # the level-2 ones are two points outside F_q
        ident = mob_identity(spec)
        ext = extension_field(spec, 2)
        for m in pgl2_elements(spec):
            if m == ident:
                continue
            level1, level2 = mob_fixed_points(m, 1), mob_fixed_points(m, 2)
            outside = [P for P in level2 if pp1_project(P, spec) is None]
            assert (not level1) == (len(outside) == len(level2) == 2), render_moebius(m)
            if level1:
                assert sorted((pp1_embed(P, ext) for P in level1), key=by_code) == level2

    @pytest.mark.parametrize("spec", [F2, F3, F4, F5])
    def test_conjugation_covariance(self, spec):
        ident = mob_identity(spec)
        ext = extension_field(spec, 2)
        all_elems = list(pgl2_elements(spec))
        fixed = {m: set(mob_fixed_points(m, 2)) for m in all_elems if m != ident}
        for g in all_elems:
            g_ext = mob_embed(g, ext)  # the fixed points live over F_{q^2}
            for m in all_elems:
                if m == ident:
                    continue
                conj = mob_conjugate(g, m)
                moved = {mob_apply(g_ext, P) for P in fixed[m]}
                assert moved == fixed[conj]


class TestThreePoints:
    def triple(self, spec, *xs):
        return tuple(pp1_infinity(spec) if x == "inf" else pt(spec, x) for x in xs)

    def test_identity_from_same_triple(self):
        tri = self.triple(F5, 0, 1, "inf")
        assert mob_from_three_points(tri, tri) == mob_identity(F5)

    def test_zero_one_inf_to_inf_one_zero_is_inversion(self):
        m = mob_from_three_points(self.triple(F5, 0, 1, "inf"), self.triple(F5, "inf", 1, 0))
        assert mob_apply(m, pt(F5, 0)).is_infinity
        assert mob_apply(m, pt(F5, 1)) == pt(F5, 1)
        assert mob_apply(m, pp1_infinity(F5)) == pt(F5, 0)
        assert m == mk(F5, 0, 1, 1, 0)

    def test_repeated_point_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            mob_from_three_points(self.triple(F5, 0, 1, "inf"), self.triple(F5, 1, 1, "inf"))

    @pytest.mark.parametrize("spec", [F2, F3, F4, F5])
    def test_bijection_with_ordered_triples(self, spec):
        # the map m -> (m(0), m(1), m(inf)) is a bijection onto distinct triples
        base = self.triple(spec, 0, 1, "inf")
        images = {}
        for m in pgl2_elements(spec):
            img = tuple(mob_apply(m, P) for P in base)
            assert img not in images
            images[img] = m
            assert mob_from_three_points(base, img) == m
        points = [pp1_affine(x) for x in field_elements(spec)] + [pp1_infinity(spec)]
        n_triples = len(points) * (len(points) - 1) * (len(points) - 2)
        assert len(images) == n_triples == spec.q ** 3 - spec.q


class TestTransporters:
    """transporters(L0, S) against a scan of PGL2(F_q) for every g with
    g(L0) = S, on seeded loci of each size k."""

    CASES = [(spec, k) for spec in (F3, F4, F5, F7) for k in sorted({2, 3, 4, spec.q + 1})]

    @staticmethod
    def loci(spec, k):
        rng = random.Random(1000 * spec.q + k)
        points = list(pp1_points(spec))
        return [(rng.sample(points, k), rng.sample(points, k)) for _ in range(3)]

    @staticmethod
    def scanned(spec, L0, S):
        return [g for g in pgl2_elements(spec) if {mob_apply(g, P) for P in L0} == set(S)]

    @pytest.mark.parametrize("spec,k", CASES, ids=lambda c: str(getattr(c, "q", c)))
    def test_against_scan(self, spec, k):
        for L0, S in self.loci(spec, k):
            reps = list(transporters(L0, S))
            expected = self.scanned(spec, L0, S)
            if k >= 3:
                assert len(reps) == len(set(reps))
                assert set(reps) == set(expected)
                continue
            # a pair: each transporter is g0 t for exactly one yielded g0
            # and one t fixing L0 pointwise
            assert set(reps) <= set(expected)
            fix = [t for t in pgl2_elements(spec) if all(mob_apply(t, P) == P for P in L0)]
            for g in expected:
                splits = [(g0, t) for g0 in reps for t in fix if mob_compose(g0, t) == g]
                assert len(splits) == 1

    # standard models H with L0 = their stabilized locus over the field, which
    # H stabilizes setwise: all of it where it is rational, else its rational
    # part (F3 PGL2:1, F5 S4, F7 PGL2:1, which is all of PGL2(F7), and the
    # Klein group over F7 at {0, 1, 6, inf}, the only L0 here short of P^1)
    MODELS = [
        (F3, "gamma:1:2"), (F3, "PGL2:1"), (F4, "dihedral:3"), (F4, "gamma:2:3"),
        (F5, "dihedral:2"), (F5, "gamma:1:4"), (F5, "S4"),
        (F7, "dihedral:2"), (F7, "dihedral:3"), (F7, "gamma:1:3"), (F7, "PGL2:1"),
    ]

    @staticmethod
    def model(spec, tag):
        from pglcensus.census import _standard_models, parse_group_id
        from pglcensus.stdgroups import stabilized_locus

        H = _standard_models(spec, *parse_group_id(tag))[0]
        return H.elements, list(stabilized_locus(H, 1))

    @pytest.mark.parametrize("spec,tag", MODELS, ids=lambda c: str(getattr(c, "q", c)))
    def test_one_map_per_coset_of_the_model(self, spec, tag):
        H, L0 = self.model(spec, tag)
        rng = random.Random(1000 * spec.q + len(H))
        move = rng.choice(list(pgl2_elements(spec)))
        moved = sorted({mob_apply(move, P) for P in L0}, key=by_code)
        for S in (moved, rng.sample(list(pp1_points(spec)), len(L0))):
            plain = list(transporters(L0, S))
            reps = list(transporters(L0, S, H))
            cosets = [{mob_compose(g, h) for h in H} for g in reps]
            covered = set().union(*cosets)
            # pairwise disjoint, and together every g with g(L0) = S
            assert sum(map(len, cosets)) == len(covered)
            assert covered == set(self.scanned(spec, L0, S))
            # each representative is the first map of its coset that
            # transporters(L0, S) yields, in the same order
            assert reps == [next(g for g in plain if g in coset) for coset in cosets]
            assert reps == sorted(reps, key=plain.index)

    def test_model_must_stabilize_the_locus(self):
        H, _ = self.model(F7, "dihedral:3")
        points = list(pp1_points(F7))
        with pytest.raises(ValueError, match="stabilize"):
            list(transporters(points[:4], points[:4], H))

    def test_sizes_must_agree(self):
        points = list(pp1_points(F5))
        assert list(transporters(points[:3], points[:4])) == []

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            list(transporters([pt(F5, 0)], [pt(F5, 1)]))


# transporters as it was before it ran on point codes: the object-level
# body, with the FqElem three-point map and point action it used


def reference_apply(m, P):
    if P.is_infinity:
        return pp1_infinity(m.spec) if m.c.is_zero() else pp1_affine(fq_div(m.a, m.c))
    num = fq_add(fq_mul(m.a, P.x), m.b)
    den = fq_add(fq_mul(m.c, P.x), m.d)
    return pp1_infinity(m.spec) if den.is_zero() else pp1_affine(fq_div(num, den))


def reference_to_zero_one_inf(z1, z2, z3):
    one, zero = fq_one(z1.spec), fq_zero(z1.spec)
    (x1, y1), (x2, y2), (x3, y3) = ((one, zero) if z.is_infinity else (z.x, one) for z in (z1, z2, z3))
    d23 = fq_sub(fq_mul(x2, y3), fq_mul(y2, x3))
    d21 = fq_sub(fq_mul(x2, y1), fq_mul(y2, x1))
    return mob_make(fq_mul(y1, d23), fq_neg(fq_mul(x1, d23)), fq_mul(y3, d21), fq_neg(fq_mul(x3, d21)))


def reference_from_three_points(src, dst):
    return mob_compose(mob_inverse(reference_to_zero_one_inf(*dst)), reference_to_zero_one_inf(*src))


def reference_transporters(L0, S, H=()):
    if len(L0) != len(S):
        return
    spec = L0[0].spec
    if len(L0) == 2:
        src = (L0[0], L0[1], next(P for P in pp1_points(spec) if P not in L0))
        third = next(P for P in pp1_points(spec) if P not in S)
        for first, second in ((S[0], S[1]), (S[1], S[0])):
            yield reference_from_three_points(src, (first, second, third))
        return
    where = {P: i for i, P in enumerate(L0)}
    perms = {tuple(where[reference_apply(h, P)] for P in L0)[:3] for h in H}
    targets = set(S)
    covered = set()
    for dst in itertools.permutations(S, 3):
        if dst in covered:
            continue
        g = reference_from_three_points(L0[:3], dst)
        image = list(dst)
        for P in L0[3:]:
            image.append(reference_apply(g, P))
            if image[-1] not in targets:
                break
        else:
            yield g
            covered.update((image[i], image[j], image[k]) for i, j, k in perms)


class TestTransportersAgainstReference:
    """The code-level transporters yield the reference's maps, in its order,
    on seeded (L0, S, H): L0 a standard model's stabilized locus and H the
    model, S the image of L0 under a seeded map and a seeded sample of P^1.
    The cyclic models have |L0| = 2; dihedral:2 over F7 has a locus that is
    irrational there, so it runs over F49, as the census does."""

    MODELS = [
        ("7^1", "dihedral:3", 1), ("7^1", "gamma:1:3", 1), ("7^1", "cyclic:3", 1), ("7^1", "dihedral:2", 2),
        ("3^2", "dihedral:2", 1), ("3^2", "cyclic:4", 1),
        ("2^4", "dihedral:3", 1), ("2^4", "cyclic:5", 1),
        ("5^2", "A4", 1), ("5^2", "dihedral:3", 1), ("5^2", "cyclic:3", 1),
    ]

    @staticmethod
    def random_map(rng, spec):
        elems = field_elements(spec)
        while True:
            try:
                return mob_make(*(rng.choice(elems) for _ in range(4)))
            except ValueError:  # singular
                continue

    @pytest.mark.parametrize("field,tag,r", MODELS, ids=lambda c: str(c))
    def test_same_maps_in_the_same_order(self, field, tag, r):
        from pglcensus.census import _standard_models, parse_group_id
        from pglcensus.stdgroups import stabilized_locus, subgroup_embed

        spec = parse_field_spec(field)
        (H0,) = _standard_models(spec, *parse_group_id(tag))
        search = extension_field(spec, r)
        H, L0 = subgroup_embed(H0, search).elements, list(stabilized_locus(H0, r))
        assert r == 1 or len(stabilized_locus(H0, 1)) < len(L0)
        rng = random.Random(f"{field}:{tag}")
        g = mob_embed(self.random_map(rng, spec), search)
        moved = sorted({mob_apply(g, P) for P in L0}, key=by_code)
        for S in (moved, rng.sample(list(pp1_points(search)), len(L0))):
            for group in ((), H):
                assert list(transporters(L0, S, group)) == list(reference_transporters(L0, S, group))
        assert list(transporters(L0, moved, H))  # g's coset at least


class TestRamification:
    def poly(self, spec, *ints):
        return [fq_from_int(spec, k) for k in ints]

    def test_squaring_map(self):
        ram = poly_map_ramification(self.poly(F5, 0, 0, 1), 1)
        assert [(render_point(r.point), r.index, r.tame) for r in ram] == [
            ("0", 2, True),
            ("inf", 2, True),
        ]

    def test_frobenius_rejected(self):
        with pytest.raises(ValueError, match="[Ii]nseparable"):
            poly_map_ramification(self.poly(F3, 0, 0, 0, 1), 1)

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            poly_map_ramification(self.poly(F5, 1, 1), 1)

    def test_coefficients_from_two_fields_rejected(self):
        # x + x^2 with the leading coefficient in F25: codes alone carry no field
        coeffs = self.poly(F5, 0, 1) + [fq_one(field_make(5, 2))]
        with pytest.raises(ValueError, match="field mismatch"):
            poly_map_ramification(coeffs, 1)
        with pytest.raises(ValueError, match="field mismatch"):
            poly_map_ramification(coeffs[::-1], 2)

    def test_family_member_over_F3(self):
        # x^5 + x at level 2: infinity with index 5, four points of index 2
        ram = poly_map_ramification(self.poly(F3, 0, 1, 0, 0, 0, 1), 2)
        inf = [r for r in ram if r.point.is_infinity]
        fin = [r for r in ram if not r.point.is_infinity]
        assert len(inf) == 1 and inf[0].index == 5 and inf[0].tame
        assert len(fin) == 4 and all(r.index == 2 and r.tame for r in fin)
        # the finite points are exactly the fourth roots of unity in F9
        ext = fin[0].point.x.spec
        for r in fin:
            x = r.point.x
            assert x * x * x * x == fq_one(ext)

    @pytest.mark.parametrize("p", [3, 5])
    def test_family_locus_independent_of_t(self, p):
        spec = field_make(p, 1)
        loci = []
        for t_val in range(p):
            coeffs = [fq_zero(spec)] * (p + 3)
            coeffs[1] = fq_one(spec)          # x
            coeffs[p] = fq_from_int(spec, t_val)  # t x^p
            coeffs[p + 2] = fq_one(spec)      # x^{p+2}
            ram = poly_map_ramification(coeffs, 2)
            loci.append(tuple((render_point(r.point), r.index, r.tame) for r in ram))
        assert len(set(loci)) == 1


class TestTextFormats:
    def test_moebius_round_trip_prime_field(self):
        for m in pgl2_elements(F5):
            assert parse_moebius(F5, render_moebius(m)) == m

    def test_moebius_round_trip_extension_field(self):
        for m in itertools.islice(pgl2_elements(F4), 0, 60, 7):
            assert parse_moebius(F4, render_moebius(m)) == m

    def test_point_list_mixed(self):
        pts = parse_point_list(F4, "0,1,1,1,inf")
        assert [render_point(P) for P in pts] == ["0,1", "1,1", "inf"]

    def test_point_round_trip(self):
        for x in field_elements(F9 := field_make(3, 2)):
            P = pp1_affine(x)
            assert parse_point(F9, render_point(P)) == P
        assert parse_point(F9, "inf").is_infinity

    def test_sorted_with_infinity_last(self):
        pts = [pp1_infinity(F5)] + [pt(F5, k) for k in (3, 1)]
        ordered = sorted(pts, key=by_code)
        assert [render_point(P) for P in ordered] == ["1", "3", "inf"]


@pytest.mark.parametrize("spec", [F5, F8, F9], ids=["F5", "F8", "F9"])
def test_infinity_to_moves_infinity_onto_every_point(spec):
    points = list(pp1_points(spec))
    assert len(set(points)) == len(points) == spec.q + 1
    for P in points:
        assert mob_apply(mob_infinity_to(P), pp1_infinity(spec)) == P
