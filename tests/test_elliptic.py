import collections
import functools
import io
import itertools
import random

import pytest

from pglcensus import elliptic
from pglcensus.cli import main
from pglcensus.closure import order
from pglcensus.elliptic import (
    ECAut,
    ECPoint,
    ECurve,
    _fibre_sizes,
    _one_minus_sigma_fibres,
    _one_minus_sigma_map,
    aut0,
    aut_fixed_points,
    base_change,
    count_auts_fixing,
    ec_add,
    ec_aut_sort_key,
    ec_infinity,
    ec_neg,
    ec_point,
    ec_points,
    ec_sub,
    enum_spf_actions,
    fixing_counts_ok,
    kernel_one_minus_sigma,
    max_singleton_bound,
    parse_curve,
    render_curve,
    render_ec_point,
    sigma_apply,
    standard_test_curves,
    verify_fpf_dichotomy,
    verify_genus1_finiteness,
)
from pglcensus.gfq import (
    by_code,
    extension_field,
    field_elements,
    field_make,
    fq_add,
    fq_div,
    fq_embed,
    fq_from_int,
    fq_mul,
    fq_one,
    fq_pow,
    fq_sub,
    fq_zero,
    render_element,
)
from pglcensus.moebius import pp1_infinity

F5 = field_make(5, 1)
F7 = field_make(7, 1)
CURVES = dict(standard_test_curves())
E_J1728 = CURVES["F5_j1728"]      # y^2 = x^3 + x over F5
E_GENERIC = CURVES["F5_generic"]  # y^2 = x^3 + x + 1 over F5
E_J0 = CURVES["F7_j0"]            # y^2 = x^3 + 1 over F7


def P(E, x, y):
    spec = E.spec
    return ec_point(E, fq_from_int(spec, x), fq_from_int(spec, y))


def ec_point_embed(Q, target):
    """Q with its coordinates embedded in the target field (O goes to O)."""
    if Q.is_zero:
        return ec_infinity(target)
    return ECPoint(target, fq_embed(Q.x, target), fq_embed(Q.y, target))


class TestCurveConstruction:
    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            ECurve(F5, fq_zero(F5), fq_zero(F5))

    def test_small_characteristic_rejected(self):
        F3 = field_make(3, 1)
        with pytest.raises(ValueError, match="characteristic"):
            ECurve(F3, fq_one(F3), fq_one(F3))

    def test_point_must_lie_on_curve(self):
        with pytest.raises(ValueError, match="not on"):
            P(E_J1728, 1, 1)

    def test_curve_round_trip(self):
        for _, E in standard_test_curves():
            assert parse_curve(render_curve(E)) == E


class TestPointsAndGroupLaw:
    def test_point_sets(self):
        assert [render_ec_point(Q) for Q in ec_points(E_J1728)] == ["O", "(0,0)", "(2,0)", "(3,0)"]
        assert len(ec_points(E_GENERIC)) == 9
        assert len(ec_points(E_J0)) == 12

    def test_level_two_contains_level_one(self):
        lvl2 = set(ec_points(base_change(E_J1728, 2)))
        for Q in ec_points(E_J1728):
            assert ec_point_embed(Q, extension_field(F5, 2)) in lvl2

    def test_two_torsion_addition(self):
        assert ec_add(E_J1728, P(E_J1728, 0, 0), P(E_J1728, 2, 0)) == P(E_J1728, 3, 0)

    def test_identity_and_inverse(self):
        O = ec_infinity(F5)
        for Q in ec_points(E_GENERIC):
            assert ec_add(E_GENERIC, Q, O) == Q
            assert ec_add(E_GENERIC, Q, ec_neg(E_GENERIC, Q)) == O

    @pytest.mark.parametrize("E", [E_J1728, E_GENERIC], ids=["j1728", "generic"])
    def test_associativity_and_commutativity_exhaustive(self, E):
        pts = ec_points(E)
        for a, b in itertools.product(pts, repeat=2):
            assert ec_add(E, a, b) == ec_add(E, b, a)
        for a, b, c in itertools.product(pts, repeat=3):
            assert ec_add(E, ec_add(E, a, b), c) == ec_add(E, a, ec_add(E, b, c))

    def test_order_matches_repeated_addition(self):
        O = ec_infinity(F5)
        add = functools.partial(ec_add, E_GENERIC)
        for Q in ec_points(E_GENERIC):
            k, acc = 1, Q
            while acc != O:
                k, acc = k + 1, ec_add(E_GENERIC, acc, Q)
            assert order(Q, add, O, len(ec_points(E_GENERIC))) == k


class TestPointIdentity:
    """A point is identified by its field and one int: 0 for O, else
    1 + x q + y over the coordinate codes."""

    def test_equal_iff_same_coordinates(self):
        pts = ec_points(base_change(E_J0, 2))
        for Q1 in pts:
            for Q2 in pts:
                assert (Q1 == Q2) == ((Q1.x, Q1.y) == (Q2.x, Q2.y))
            twin = ECPoint(Q1.spec, Q1.x, Q1.y)
            assert twin is not Q1 and twin == Q1 and hash(twin) == hash(Q1)

    def test_same_codes_over_different_moduli_are_unequal(self):
        Fa, Fb = field_make(5, 2, [2, 0, 1]), field_make(5, 2, [3, 0, 1])
        Ea, Eb = (ECurve(F, fq_zero(F), fq_one(F)) for F in (Fa, Fb))  # y^2 = x^3 + 1
        Qa, Qb = ec_point(Ea, fq_zero(Fa), fq_one(Fa)), ec_point(Eb, fq_zero(Fb), fq_one(Fb))
        assert hash(Qa) == hash(Qb) and Qa != Qb
        assert len({Qa, Qb}) == 2
        assert ec_infinity(Fa) != ec_infinity(Fb)

    def test_points_are_immutable(self):
        Q = P(E_GENERIC, 0, 1)
        for name in ("spec", "x", "y", "code"):
            with pytest.raises(AttributeError):
                setattr(Q, name, getattr(Q, name))
        with pytest.raises(AttributeError):
            Q.extra = 1

    def test_other_types_never_compare_equal(self):
        O, Q = ec_infinity(F5), P(E_GENERIC, 0, 1)
        assert O != O.code and Q != Q.code
        # O and the field's zero share field and code 0
        assert O != fq_zero(F5) and O.__eq__(fq_zero(F5)) is NotImplemented
        assert Q.__eq__(pp1_infinity(F5)) is NotImplemented

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_sets_count_the_points(self, name, r):
        E = CURVES[name]
        ext = extension_field(E.spec, r)
        a, b = fq_embed(E.a, ext), fq_embed(E.b, ext)
        squares = {}
        for y in field_elements(ext):
            squares[y * y] = squares.get(y * y, 0) + 1
        count = 1 + sum(squares.get(fq_pow(x, 3) + a * x + b, 0) for x in field_elements(ext))
        Er = base_change(E, r)
        assert len(set(ec_points(Er))) == len(ec_points(Er)) == count

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_code_order_is_the_coordinate_order(self, name):
        def old_key(Q):
            return (0, 0, 0) if Q.is_zero else (1, Q.x.code, Q.y.code)

        pts = list(ec_points(base_change(CURVES[name], 2)))
        assert pts == sorted(pts, key=old_key)
        assert sorted(reversed(pts), key=by_code) == pts


def _nonsingular_curves(spec):
    for a, b in itertools.product(field_elements(spec), repeat=2):
        try:
            yield ECurve(spec, a, b)
        except ValueError:
            continue  # singular


def _aut0_scan(E, r):
    """Reference for aut0: every nonzero u of F_{q^r} with u^4 a = a and
    u^6 b = b, found by scanning the field in code order."""
    ext = extension_field(E.spec, r)
    a, b = fq_embed(E.a, ext), fq_embed(E.b, ext)
    return tuple(
        u
        for u in field_elements(ext)
        if not u.is_zero() and fq_pow(u, 4) * a == a and fq_pow(u, 6) * b == b
    )


class TestAut0:
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("spec", [F5, F7], ids=["F5", "F7"])
    def test_roots_of_unity_match_the_scan(self, spec, r):
        curves = list(_nonsingular_curves(spec))
        for E in curves:
            assert aut0(base_change(E, r)) == _aut0_scan(E, r)
        assert len(curves) == spec.q * (spec.q - 1)  # the nonsingular (a, b) over F_q

    def test_generic_curve_has_only_negation(self):
        us = aut0(E_GENERIC)
        assert [u.coeffs[0] for u in us] == [1, 4]

    def test_j1728_has_four(self):
        assert [u.coeffs[0] for u in aut0(E_J1728)] == [1, 2, 3, 4]

    def test_j0_has_six(self):
        assert len(aut0(E_J0)) == 6


class TestAutomorphisms:
    def test_pure_translation_is_fixed_point_free(self):
        phi = ECAut(E_J1728, P(E_J1728, 0, 0), fq_one(F5))
        assert aut_fixed_points(phi) == ()
        E2 = base_change(E_J1728, 2)
        phi2 = ECAut(E2, ec_point_embed(phi.P, E2.spec), fq_one(E2.spec))
        assert aut_fixed_points(phi2) == ()

    def test_negation_fixes_two_torsion(self):
        phi = ECAut(E_J1728, ec_infinity(F5), fq_from_int(F5, 4))
        assert len(aut_fixed_points(phi)) == 4

    def test_identity_signalled(self):
        with pytest.raises(ValueError, match="identity"):
            aut_fixed_points(ECAut(E_J1728, ec_infinity(F5), fq_one(F5)))

    def test_off_curve_translation_rejected(self):
        bad = ECPoint(F5, fq_one(F5), fq_one(F5))  # (1,1) is not on y^2 = x^3 + x
        with pytest.raises(ValueError, match="not on"):
            ECAut(E_J1728, bad, fq_one(F5))
        with pytest.raises(ValueError, match="not on"):
            count_auts_fixing(E_J1728, bad)

    def test_kernel_of_doubling(self):
        ker = kernel_one_minus_sigma(E_J1728, fq_from_int(F5, 4))
        assert len(ker) == 4  # full rational two-torsion

    def test_kernel_of_zeta4(self):
        ker = kernel_one_minus_sigma(E_J1728, fq_from_int(F5, 2))
        assert {render_ec_point(Q) for Q in ker} == {"O", "(0,0)"}
        assert len(ec_points(E_J1728)) % len(ker) == 0

    def test_kernel_rejects_u_one(self):
        with pytest.raises(ValueError):
            kernel_one_minus_sigma(E_J1728, fq_one(F5))

    def test_nonempty_fixed_sets_are_kernel_cosets(self):
        for r in (1, 2):
            Er = base_change(E_J1728, r)
            for u in aut0(E_J1728):
                if u == fq_one(F5):
                    continue
                ker = kernel_one_minus_sigma(Er, fq_embed(u, Er.spec))
                for Q in ec_points(E_J1728):
                    phi = ECAut(Er, ec_point_embed(Q, Er.spec), fq_embed(u, Er.spec))
                    fixed = aut_fixed_points(phi)
                    assert len(fixed) in (0, len(ker))


class TestCountAutsFixing:
    def test_base_point(self):
        rep = count_auts_fixing(E_J1728, ec_infinity(F5))
        assert rep.count == 4
        assert all(w.P.is_zero for w in rep.witnesses)

    def test_two_torsion_point(self):
        rep = count_auts_fixing(E_J1728, P(E_J1728, 0, 0))
        assert rep.count == 4

    def test_generic_point(self):
        rep = count_auts_fixing(E_GENERIC, P(E_GENERIC, 0, 1))
        assert rep.count == 2
        parts = {render_ec_point(w.P) for w in rep.witnesses}
        double = ec_add(E_GENERIC, P(E_GENERIC, 0, 1), P(E_GENERIC, 0, 1))
        assert parts == {"O", render_ec_point(double)}

    @pytest.mark.parametrize("name,E", standard_test_curves(), ids=[n for n, _ in standard_test_curves()])
    def test_every_point_fixed_by_aut0_many(self, name, E):
        size = len(aut0(E))
        for Q in ec_points(E):
            assert count_auts_fixing(E, Q).count == size


class TestSpfActions:
    def test_counts_on_j1728(self):
        assert len(enum_spf_actions(E_J1728, 2)) == 3
        assert len(enum_spf_actions(E_J1728, 1)) == 1
        assert len(enum_spf_actions(E_J1728, 3)) == 0

    def test_subgroups_really_are_subgroups(self):
        for sub in enum_spf_actions(E_J0, 2) + enum_spf_actions(E_J0, 3):
            members = set(sub)
            for a, b in itertools.product(sub, repeat=2):
                assert ec_add(E_J0, a, b) in members

    def test_invariant_factors(self):
        from pglcensus.elliptic import torsion_invariant_factors

        # E_J1728(F5) is the Klein group: full 2-torsion (2, 2)
        assert torsion_invariant_factors(E_J1728, 2) == (2, 2)
        # E_GENERIC(F5) has order 9 with no 2-torsion
        assert torsion_invariant_factors(E_GENERIC, 2) == (1, 1)

    def test_abelian_subgroup_count_known_groups(self):
        from pglcensus.elliptic import abelian_subgroup_count

        assert abelian_subgroup_count((2, 2), 2) == 3  # Klein group
        assert abelian_subgroup_count((4, 1), 2) == 1  # cyclic of order 4
        assert abelian_subgroup_count((3, 3), 3) == 4
        assert abelian_subgroup_count((6, 1), 6) == 1

    @pytest.mark.parametrize("name,E", standard_test_curves(), ids=[n for n, _ in standard_test_curves()])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts_match_abstract_subgroup_counts(self, name, E, n):
        from pglcensus.elliptic import abelian_subgroup_count, torsion_invariant_factors

        invariants = torsion_invariant_factors(E, n)
        expected = abelian_subgroup_count(invariants, n)
        assert len(enum_spf_actions(E, n)) == expected


class TestFpfDichotomy:
    @pytest.mark.parametrize("name,E", standard_test_curves(), ids=[n for n, _ in standard_test_curves()])
    def test_all_curves(self, name, E):
        rep = verify_fpf_dichotomy(E)
        assert rep.ok, rep.violations
        assert rep.levels == (1, 2, 3)

    def test_rejects_empty_levels(self):
        with pytest.raises(ValueError):
            verify_fpf_dichotomy(E_J1728, [])

    def test_levels_refused_in_order_before_any_work(self):
        with pytest.raises(ValueError, match="got 244140625"):
            verify_fpf_dichotomy(E_GENERIC, (1, 12, 0))
        with pytest.raises(ValueError, match="extension degree must be >= 1, got 0"):
            verify_fpf_dichotomy(E_GENERIC, (1, 0, 12))

    def test_builds_no_field_above_the_curve(self, monkeypatch):
        def refuse(spec, r):
            raise AssertionError(f"extension_field({spec!r}, {r}) called")

        monkeypatch.setattr(elliptic, "extension_field", refuse)
        E = parse_curve("7^1:a=2,b=3")  # fixed points at level 4 only for (2,1)
        rep = verify_fpf_dichotomy(E, (1, 2, 3, 4))
        assert rep.ok and rep.pairs_checked == 2 * len(ec_points(E)) - 1
        assert not verify_fpf_dichotomy(E, (1, 2, 3)).ok

    def test_level_one_is_cross_checked_against_the_scan(self, monkeypatch):
        # level 1 need not come first: (2,1) on this curve is fixed at level 4 only
        assert verify_fpf_dichotomy(parse_curve("7^1:a=2,b=3"), (4, 1)).ok
        monkeypatch.setattr(elliptic, "_one_minus_sigma_fibres", lambda E, u: {})
        with pytest.raises(AssertionError, match="at r=1, the scan 0"):
            verify_fpf_dichotomy(E_J1728, (2, 1))
        assert verify_fpf_dichotomy(E_J1728, (2, 3)).ok  # level 1 absent: no cross-check


def scanned_fibre_sizes(E, u, P, levels):
    """|(1 - sigma_u)^{-1}(P)| at each level, by the point scan of E over
    F_{q^r}: the reference for _fibre_sizes."""
    sizes = []
    for r in levels:
        Er = base_change(E, r)
        fibres = _one_minus_sigma_fibres(Er, fq_embed(u, Er.spec))
        sizes.append(len(fibres.get(ec_point_embed(P, Er.spec), ())))
    return sizes


def seeded_curves(spec, k, seed):
    """k nonsingular curves over spec from each class a = 0 (j = 0), b = 0
    (j = 1728) and ab != 0, so every size of Aut_0 the field allows occurs."""
    rng = random.Random(seed)
    classes = {}
    for E in _nonsingular_curves(spec):
        classes.setdefault((E.a.is_zero(), E.b.is_zero()), []).append(E)
    return [E for key in sorted(classes) for E in rng.sample(classes[key], k)]


F49 = field_make(7, 2)
FIBRE_CASES = {
    "F5 levels 1-4": (lambda: list(_nonsingular_curves(F5)), (1, 2, 3, 4)),
    "F7 levels 1-3": (lambda: list(_nonsingular_curves(F7)), (1, 2, 3)),
    "F7 level 4": (lambda: seeded_curves(F7, 2, 4), (4,)),
    "F49 levels 1-2": (lambda: seeded_curves(F49, 2, 49), (1, 2)),
}


@pytest.mark.parametrize("case", sorted(FIBRE_CASES))
def test_fibre_polynomial_counts_match_the_scan(case):
    """Every (u != 1, P) of the curves, the kernel (P = O) included."""
    curves, levels = FIBRE_CASES[case]
    for E in curves():
        for u in aut0(E):
            if u == fq_one(E.spec):
                continue
            N, D = _one_minus_sigma_map(E, u)
            for Q in ec_points(E):
                got = _fibre_sizes(E, N, D, Q, levels)
                assert got == scanned_fibre_sizes(E, u, Q, levels), (render_curve(E), render_element(u), Q)


def test_seeded_curves_cover_every_aut0_size():
    assert {len(aut0(E)) for E in seeded_curves(F7, 2, 4)} == {2, 6}  # no i in F7
    assert {len(aut0(E)) for E in seeded_curves(F49, 2, 49)} == {2, 4, 6}


class TestGenus1Finiteness:
    def test_rejects_empty_locus(self):
        with pytest.raises(ValueError):
            verify_genus1_finiteness(E_J1728, [])

    def test_generic_singleton_base_point(self):
        rep = verify_genus1_finiteness(E_GENERIC, [ec_infinity(F5)])
        # the only non-identity automorphism with fixed locus inside {O} is
        # negation, and no nontrivial translation is compatible with it
        assert len(rep.fixing) == 1
        phi, fixed = rep.fixing[0]
        assert phi.P.is_zero and phi.u.coeffs[0] == 4
        assert fixed == (ec_infinity(F5),)
        assert rep.compatible_translations[0][1] == ()
        assert rep.admissible_count == 2
        assert rep.certified_bound == 4

    def test_full_rational_locus_is_still_finite(self):
        rep = verify_genus1_finiteness(E_J1728, list(ec_points(E_J1728)))
        assert rep.admissible_count <= len(ec_points(E_J1728)) * len(aut0(E_J1728)) + 1
        assert rep.certified_bound == 2 ** rep.admissible_count

    @pytest.mark.parametrize("name,E", standard_test_curves(), ids=[n for n, _ in standard_test_curves()])
    def test_every_singleton_gets_a_bound(self, name, E):
        for Q in ec_points(E):
            rep = verify_genus1_finiteness(E, [Q])
            assert rep.certified_bound >= 2
            assert rep.admissible_count >= 1

    def test_kernel_sizes_recorded(self):
        rep = verify_genus1_finiteness(E_J1728, [ec_infinity(F5)])
        assert dict(rep.kernel_sizes)["4"] == 4  # doubling kernel


class TestBaseChange:
    def test_level_one_is_the_curve_itself(self):
        # equal, not identical: an equal curve may already sit in the cache
        assert base_change(E_J1728, 1) == E_J1728

    def test_coefficients_are_embedded(self):
        E2 = base_change(E_J0, 2)
        assert E2.spec is extension_field(F7, 2)
        assert (E2.a, E2.b) == (fq_embed(E_J0.a, E2.spec), fq_embed(E_J0.b, E2.spec))
        assert base_change(E_J0, 2) is E2

    def test_cap_refused_before_the_field_is_built(self):
        with pytest.raises(ValueError, match=r"capped at q\^r <= 10000, got 244140625"):
            base_change(E_GENERIC, 12)

    def test_bad_degree_is_a_usage_error(self):
        for r in (0, -1):
            with pytest.raises(ValueError, match="extension degree"):
                base_change(E_GENERIC, r)


class TestFieldMismatch:
    """Points and scaling factors must live in the curve's own field."""

    E2 = base_change(E_J1728, 2)
    F25 = extension_field(F5, 2)

    def test_point_coordinates(self):
        with pytest.raises(ValueError, match="field mismatch"):
            ec_point(self.E2, fq_zero(F5), fq_zero(F5))
        with pytest.raises(ValueError, match="field mismatch"):
            ec_point(E_J1728, fq_zero(self.F25), fq_zero(self.F25))

    def test_automorphism_factors(self):
        with pytest.raises(ValueError, match="field mismatch"):
            ECAut(self.E2, ec_infinity(self.F25), fq_from_int(F5, 4))
        with pytest.raises(ValueError, match="field mismatch"):
            ECAut(self.E2, ec_infinity(F5), fq_embed(fq_from_int(F5, 4), self.F25))

    def test_scaling_factor_given_to_kernel(self):
        with pytest.raises(ValueError, match="field mismatch"):
            kernel_one_minus_sigma(self.E2, fq_from_int(F5, 4))
        with pytest.raises(ValueError, match="nonzero"):
            kernel_one_minus_sigma(self.E2, fq_zero(self.F25))

    def test_points_given_to_group_law(self):
        Q = P(E_J1728, 0, 0)
        with pytest.raises(ValueError, match="field mismatch"):
            ec_add(self.E2, Q, Q)

    def test_points_given_to_scans(self):
        base_O = ec_infinity(F5)
        with pytest.raises(ValueError, match="field mismatch"):
            count_auts_fixing(self.E2, base_O)
        with pytest.raises(ValueError, match="field mismatch"):
            verify_genus1_finiteness(self.E2, [base_O])


def reference_certificate(E, S):
    """The finiteness certificate by the E-wide scan: every (P, u) fixing a
    point of S whose fixed fibre lies inside S, and, per such (P, u), every
    translation Q != O whose composite (P + Q, u) still fixes a nonempty
    subset of S.  Returns fixing, compatible translations, kernel sizes and
    the admissible count."""
    S_set = set(S)
    one = fq_one(E.spec)
    fixing, seen = [], set()
    for Q in sorted(S_set, key=by_code):
        for u in aut0(E):
            phi = ECAut(E, ec_sub(E, Q, sigma_apply(u, Q)), u)
            if phi.is_identity or phi in seen:
                continue
            seen.add(phi)
            fixed = aut_fixed_points(phi)
            if fixed and set(fixed) <= S_set:
                fixing.append((phi, fixed))
    fixing.sort(key=lambda pair: ec_aut_sort_key(pair[0]))
    compatible = []
    for phi, _ in fixing:
        good = []
        for Q in ec_points(E):
            if Q.is_zero:
                continue
            fibre = aut_fixed_points(ECAut(E, ec_add(E, phi.P, Q), phi.u))
            if fibre and set(fibre) <= S_set:
                good.append(Q)
        compatible.append((phi, tuple(sorted(good, key=by_code))))
    kernel_sizes = tuple((render_element(u), len(kernel_one_minus_sigma(E, u))) for u in aut0(E) if u != one)
    translations = {Q for _, qs in compatible for Q in qs}
    return tuple(fixing), tuple(compatible), kernel_sizes, 1 + len(fixing) + len(translations)


CERTIFIED = [(F5, 1), (F5, 2), (F7, 1)]


@pytest.mark.parametrize("spec,r", CERTIFIED, ids=[f"{s.p}^{r}" for s, r in CERTIFIED])
def test_certificate_matches_the_e_wide_scan(spec, r):
    rng = random.Random(f"{spec.p}^{r}")
    for E in _nonsingular_curves(spec):
        Er = base_change(E, r)
        pts = ec_points(Er)
        loci = [[Q] for Q in pts] + [rng.sample(pts, min(k, len(pts))) for k in (2, 3, 5)] + [list(pts)]
        for S in loci:
            rep = verify_genus1_finiteness(Er, S)
            got = (rep.fixing, rep.compatible_translations, rep.kernel_sizes, rep.admissible_count)
            assert got == reference_certificate(Er, S), (render_curve(E), r, [render_ec_point(Q) for Q in S])
            assert rep.certified_bound == 2 ** rep.admissible_count


# ---------------------------------------------------------------------------
# the chord-tangent law on coordinate codes against the FqElem law


def reference_ec_add(E, P1, P2):
    """The chord-tangent law in FqElem arithmetic (Silverman, The Arithmetic
    of Elliptic Curves, III.2): the reference for ec_add, which runs the same
    law on coordinate codes."""
    if P1.is_zero:
        return P2
    if P2.is_zero:
        return P1
    spec = P1.spec
    if P1.x == P2.x:
        if P1.y != P2.y or P1.y.is_zero():
            return ec_infinity(spec)  # vertical line
        three_x2 = fq_mul(fq_from_int(spec, 3), fq_mul(P1.x, P1.x))
        slope = fq_div(fq_add(three_x2, E.a), fq_mul(fq_from_int(spec, 2), P1.y))
    else:
        slope = fq_div(fq_sub(P2.y, P1.y), fq_sub(P2.x, P1.x))
    x3 = fq_sub(fq_sub(fq_mul(slope, slope), P1.x), P2.x)
    y3 = fq_sub(fq_mul(slope, fq_sub(P1.x, x3)), P1.y)
    return ECPoint(spec, x3, y3)


def reference_fibres(E, u):
    """The fibres of Q -> Q - sigma_u(Q), built with the reference law."""
    fibres = {}
    for Q in ec_points(E):
        fibres.setdefault(reference_ec_add(E, Q, ec_neg(E, sigma_apply(u, Q))), []).append(Q)
    return {image: tuple(fibre) for image, fibre in fibres.items()}


LAW_LEVELS = [(F5, 1), (F5, 2), (F7, 1), (F7, 2)]


@pytest.mark.parametrize("spec,r", LAW_LEVELS, ids=[f"{s.p}^{r}" for s, r in LAW_LEVELS])
def test_code_law_matches_the_reference(spec, r):
    """Every sum of two points, and every fibre table of 1 - sigma_u with
    u != 1, on every nonsingular curve over F5 and F7 at levels 1 and 2."""
    for E in _nonsingular_curves(spec):
        Er = base_change(E, r)
        pts = ec_points(Er)
        for P1, P2 in itertools.product(pts, repeat=2):
            assert ec_add(Er, P1, P2) == reference_ec_add(Er, P1, P2), (render_curve(Er), P1, P2)
        for u in aut0(Er):
            if u != fq_one(Er.spec):
                assert _one_minus_sigma_fibres(Er, u) == reference_fibres(Er, u), (render_curve(Er), u)


def _law_cases(r, keep):
    """(curve, point) for every affine point of every nonsingular curve over
    F5 and F7, taken to level r, for which keep(E, Q) holds."""
    for spec in (F5, F7):
        for E in _nonsingular_curves(spec):
            Er = base_change(E, r)
            for Q in ec_points(Er):
                if not Q.is_zero and keep(Er, Q):
                    yield Er, Q


@pytest.mark.parametrize("r", [1, 2])
class TestCodeLawEdgeCases:
    """The branches of the code law, at r = 1 and in F_{q^2}, where the log
    indices of a sum or a quotient are negative or wrap past q - 1."""

    def test_horizontal_tangent(self, r):
        def flat(E, Q):  # 3x^2 + a = 0, so 2Q has slope 0
            return not Q.y.is_zero() and (fq_mul(fq_from_int(E.spec, 3), fq_mul(Q.x, Q.x)) + E.a).is_zero()

        cases = list(_law_cases(r, flat))
        assert cases
        for E, Q in cases:
            # slope 0: 2Q = (-2x, -y)
            expected = ECPoint(E.spec, -(Q.x + Q.x), -Q.y)
            assert ec_add(E, Q, Q) == expected == reference_ec_add(E, Q, Q)

    def test_two_torsion(self, r):
        cases = list(_law_cases(r, lambda E, Q: Q.y.is_zero()))
        assert cases
        for E, Q in cases:
            assert ec_add(E, Q, Q) == ec_infinity(E.spec)

    def test_points_on_x_zero(self, r):
        cases = list(_law_cases(r, lambda E, Q: Q.x.is_zero()))
        assert cases
        for E, Q in cases:
            for R in ec_points(E):
                assert ec_add(E, Q, R) == reference_ec_add(E, Q, R)
                assert ec_add(E, R, Q) == reference_ec_add(E, R, Q)

    def test_inverse_sums_to_o(self, r):
        cases = list(_law_cases(r, lambda E, Q: True))
        assert cases
        for E, Q in cases:
            assert ec_add(E, Q, ec_neg(E, Q)) == ec_infinity(E.spec)

    def test_doubling_against_the_other_point_on_the_vertical(self, r):
        """Q + Q is the tangent, Q + (x, -y) the vertical line through Q."""
        cases = list(_law_cases(r, lambda E, Q: not Q.y.is_zero()))
        assert cases
        for E, Q in cases:
            twin = ECPoint(E.spec, Q.x, -Q.y)
            assert twin != Q and twin in ec_points(E)
            assert ec_add(E, Q, twin) == ec_infinity(E.spec)
            assert ec_add(E, Q, Q) == reference_ec_add(E, Q, Q) != ec_infinity(E.spec)


# ---------------------------------------------------------------------------
# the fixing check against the E x Aut_0 scan


def reference_fixing(E, Q):
    """Every automorphism (P, u) fixing Q, by the full scan of E x Aut_0 for
    sigma_u(Q) + P = Q: the reference for count_auts_fixing, which reads the
    fibre tables of 1 - sigma_u instead.  (ec_add is checked against the
    reference law above, at the same levels.)"""
    found = []
    for u in aut0(E):
        moved = sigma_apply(u, Q)
        found += [ECAut(E, P, u) for P in ec_points(E) if ec_add(E, moved, P) == Q]
    return tuple(sorted(found, key=ec_aut_sort_key))


@pytest.mark.parametrize("spec,r", LAW_LEVELS, ids=[f"{s.p}^{r}" for s, r in LAW_LEVELS])
def test_fixing_matches_the_scan(spec, r):
    """Count and witnesses at every point of every nonsingular curve over F5
    and F7, at levels 1 and 2."""
    for E in _nonsingular_curves(spec):
        Er = base_change(E, r)
        for Q in ec_points(Er):
            rep = count_auts_fixing(Er, Q)
            want = reference_fixing(Er, Q)
            assert (rep.point, rep.count, rep.witnesses) == (Q, len(want), want), (render_curve(Er), Q)


def test_fixing_check_reads_the_fibre_tables(monkeypatch):
    """Q removed from the fibre over its witness is reported, for every u."""
    E, Q = E_J0, P(E_J0, 2, 3)
    real = elliptic._one_minus_sigma_fibres
    for u in aut0(E):
        def without_q(curve, v, u=u):
            fibres = real(curve, v)
            if v != u:
                return fibres
            return {image: tuple(R for R in fibre if R != Q) for image, fibre in fibres.items()}

        monkeypatch.setattr(elliptic, "_one_minus_sigma_fibres", without_q)
        with pytest.raises(AssertionError, match=rf"missing from the fibre .* u={render_element(u)}$"):
            count_auts_fixing(E, Q)
    monkeypatch.undo()
    assert count_auts_fixing(E, Q).count == 6


# ---------------------------------------------------------------------------
# work counts: every stage of verify-genus1 is linear in the point count


def _counting(monkeypatch, name, key=lambda *args: None):
    """Replace elliptic.<name> by a wrapper that counts its calls by key."""
    calls = collections.Counter()
    real = getattr(elliptic, name)

    def wrapper(*args):
        calls[key(*args)] += 1
        return real(*args)

    monkeypatch.setattr(elliptic, name, wrapper)
    return calls


class TestWorkCounts:
    def test_dichotomy_factors_once_per_x(self, monkeypatch):
        calls = _counting(monkeypatch, "_fibre_sizes")
        for _, E in standard_test_curves():
            calls.clear()
            assert verify_fpf_dichotomy(E).ok
            xs = {Q.x.code for Q in ec_points(E) if not Q.is_zero}
            # per u != 1, the kernel, then one factorization per x-coordinate:
            # fewer than one per point on every curve but F5_j1728, whose
            # affine points all have y = 0
            assert calls[None] == (len(aut0(E)) - 1) * (1 + len(xs))

    def test_torsion_scan_once_per_curve_and_order(self, monkeypatch):
        elliptic._torsion.cache_clear()
        # the n-torsion walk calls order(xy, add, None, n) once per point,
        # add being the code sum through the curve's law
        walks = _counting(monkeypatch, "order", key=lambda xy, add, O, n: (add.args[0], n))
        assert main(["verify-genus1", "--curve", "7^1:a=0,b=1", "--ext", "2"], out=io.StringIO()) == 0
        Er = base_change(parse_curve("7^1:a=0,b=1"), 2)
        law = elliptic._chord_tangent(Er)
        assert walks == {(law, n): len(ec_points(Er)) for n in (1, 2, 3, 4)}

    @pytest.mark.parametrize("curve", ["5^1:a=1,b=0", "13^1:a=1,b=0", "7^1:a=0,b=1"])
    def test_no_per_point_certificate_or_witness(self, monkeypatch, curve):
        """The fixing check and the singleton bound are per-curve passes: no
        certificate, no per-point fixing count, no ec_sub and no ECAut."""
        from pglcensus import cli

        calls = collections.Counter()
        for name in ("verify_genus1_finiteness", "count_auts_fixing", "ec_sub"):
            def counted(*args, name=name, f=getattr(elliptic, name)):
                calls[name] += 1
                return f(*args)

            monkeypatch.setattr(elliptic, name, counted)
            monkeypatch.setattr(cli, name, counted, raising=False)
        real_init = ECAut.__post_init__

        def counted_init(phi):
            calls["ECAut"] += 1
            real_init(phi)

        monkeypatch.setattr(ECAut, "__post_init__", counted_init)
        for ext in ("1", "2"):
            assert main(["verify-genus1", "--curve", curve, "--ext", ext], out=io.StringIO()) == 0
        assert calls == {}

    @pytest.mark.parametrize("curve", ["5^1:a=1,b=0", "7^1:a=0,b=1"])
    def test_law_calls_linear_in_the_points(self, monkeypatch, curve):
        elliptic._one_minus_sigma_fibres.cache_clear()
        elliptic._torsion.cache_clear()
        real = elliptic._chord_tangent
        calls = collections.Counter()

        def counting_law(E):
            law = real(E)

            def counted(*codes):
                calls[E] += 1
                return law(*codes)

            return counted

        monkeypatch.setattr(elliptic, "_chord_tangent", counting_law)
        assert main(["verify-genus1", "--curve", curve, "--ext", "2"], out=io.StringIO()) == 0
        Er = base_change(parse_curve(curve), 2)
        n_pts, n_aut = len(ec_points(Er)), len(aut0(Er))
        # per u, N calls each for a fibre table and the fixing pass, and none
        # for the singleton bound; at most n - 1 sums per point for each
        # n-torsion walk, n <= 4; and the closures over at most 16 torsion
        # points (4.1 and 3.4 |Aut_0| N here).  The E x Aut_0 scan alone made
        # |Aut_0| N^2, here 32 or 48 |Aut_0| N.
        assert sum(calls.values()) <= 5 * n_aut * n_pts


# ---------------------------------------------------------------------------
# the per-curve passes of verify-genus1 against the per-point routes


def reference_torsion(E, n):
    """_torsion on points, one order walk per point through ec_add: the
    reference for the walks on code pairs."""
    add, O = functools.partial(ec_add, E), ec_infinity(E.spec)
    orders = ((Q, order(Q, add, O, n)) for Q in ec_points(E))
    return tuple((Q, k) for Q, k in orders if k is not None and n % k == 0)


def reference_spf_actions(E, n):
    """enum_spf_actions on points, closed through ec_add: the reference for
    the closures on code pairs."""
    from pglcensus.closure import subgroups_of_order

    torsion = [Q for Q, _ in reference_torsion(E, n)]
    subs = (
        tuple(sorted(H, key=by_code))
        for H in subgroups_of_order(torsion, functools.partial(ec_add, E), ec_infinity(E.spec), n)
    )
    return sorted(subs, key=lambda sub: tuple(Q.code for Q in sub))


@pytest.mark.parametrize("spec,r", LAW_LEVELS, ids=[f"{s.p}^{r}" for s, r in LAW_LEVELS])
def test_per_curve_passes_match_the_per_point_routes(spec, r):
    """On every nonsingular curve over F5 and F7, at levels 1 and 2: the
    singleton bound is the largest singleton certificate, the fixing check
    agrees with count_auts_fixing at every point, and the torsion walks and
    closures on codes equal their bodies on points."""
    for E in _nonsingular_curves(spec):
        Er = base_change(E, r)
        pts, size = ec_points(Er), len(aut0(Er))
        label = render_curve(Er)
        assert max_singleton_bound(Er) == max(verify_genus1_finiteness(Er, [Q]).certified_bound for Q in pts), label
        assert fixing_counts_ok(Er) is True
        assert all(count_auts_fixing(Er, Q).count == size for Q in pts), label
        for n in (1, 2, 3, 4):
            assert elliptic._torsion(Er, n) == reference_torsion(Er, n), (label, n)
            assert enum_spf_actions(Er, n) == reference_spf_actions(Er, n), (label, n)


@pytest.mark.parametrize("wrong", ["identity", "minus u"])
def test_wrong_sigma_in_the_fixing_pass_is_caught(monkeypatch, wrong):
    """A fixing pass that scales by the wrong sigma_u raises AssertionError:
    the pairs are checked by applying them.  sigma_{-u} = -sigma_u agrees
    with sigma_u on 2-torsion, so "minus u" is tested on the curves with a
    point of larger order, all of the suite but F5_j1728 (the Klein group)."""
    real = elliptic._scaling_codes
    curves = [E for _, E in standard_test_curves()]
    if wrong == "minus u":
        curves = [E for E in curves if any(k > 2 for _, k in elliptic._torsion(E, len(ec_points(E))))]
        assert len(curves) == 3
    for E in curves:
        assert fixing_counts_ok(E)  # the fibre tables are cached first

    def mutated(E, log_u):
        return real(E, 0 if wrong == "identity" else log_u + E.spec._tables.half)

    monkeypatch.setattr(elliptic, "_scaling_codes", mutated)
    for E in curves:
        with pytest.raises(AssertionError, match="does not fix"):
            fixing_counts_ok(E)


def test_fixing_check_needs_a_partition(monkeypatch):
    """A fibre table that drops a point fails the per-curve check, and the
    per-point count reports the missing point."""
    E, Q = E_J0, P(E_J0, 2, 3)
    real = elliptic._one_minus_sigma_fibres

    def without_q(curve, v):
        return {image: tuple(R for R in fibre if R != Q) for image, fibre in real(curve, v).items()}

    monkeypatch.setattr(elliptic, "_one_minus_sigma_fibres", without_q)
    assert fixing_counts_ok(E) is False
    with pytest.raises(AssertionError, match="missing from the fibre"):
        count_auts_fixing(E, Q)
