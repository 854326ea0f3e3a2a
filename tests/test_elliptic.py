import functools
import itertools

import pytest

from pglcensus.closure import order
from pglcensus.elliptic import (
    ECAut,
    ECPoint,
    ECurve,
    aut0,
    aut_fixed_points,
    count_auts_fixing,
    ec_add,
    ec_infinity,
    ec_neg,
    ec_point,
    ec_points,
    enum_spf_actions,
    kernel_one_minus_sigma,
    parse_curve,
    render_curve,
    render_ec_point,
    standard_test_curves,
    verify_fpf_dichotomy,
    verify_genus1_finiteness,
)
from pglcensus.gfq import (
    by_code,
    extension_field,
    field_elements,
    field_make,
    fq_embed,
    fq_from_int,
    fq_one,
    fq_pow,
    fq_zero,
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
        assert [render_ec_point(Q) for Q in ec_points(E_J1728, 1)] == ["O", "(0,0)", "(2,0)", "(3,0)"]
        assert len(ec_points(E_GENERIC, 1)) == 9
        assert len(ec_points(E_J0, 1)) == 12

    def test_level_two_contains_level_one(self):
        from pglcensus.gfq import extension_field
        from pglcensus.elliptic import ec_point_embed

        lvl2 = set(ec_points(E_J1728, 2))
        for Q in ec_points(E_J1728, 1):
            assert ec_point_embed(Q, extension_field(F5, 2)) in lvl2

    def test_two_torsion_addition(self):
        assert ec_add(E_J1728, P(E_J1728, 0, 0), P(E_J1728, 2, 0)) == P(E_J1728, 3, 0)

    def test_identity_and_inverse(self):
        O = ec_infinity(F5)
        for Q in ec_points(E_GENERIC, 1):
            assert ec_add(E_GENERIC, Q, O) == Q
            assert ec_add(E_GENERIC, Q, ec_neg(E_GENERIC, Q)) == O

    @pytest.mark.parametrize("E", [E_J1728, E_GENERIC], ids=["j1728", "generic"])
    def test_associativity_and_commutativity_exhaustive(self, E):
        pts = ec_points(E, 1)
        for a, b in itertools.product(pts, repeat=2):
            assert ec_add(E, a, b) == ec_add(E, b, a)
        for a, b, c in itertools.product(pts, repeat=3):
            assert ec_add(E, ec_add(E, a, b), c) == ec_add(E, a, ec_add(E, b, c))

    def test_order_matches_repeated_addition(self):
        O = ec_infinity(F5)
        add = functools.partial(ec_add, E_GENERIC)
        for Q in ec_points(E_GENERIC, 1):
            k, acc = 1, Q
            while acc != O:
                k, acc = k + 1, ec_add(E_GENERIC, acc, Q)
            assert order(Q, add, O, len(ec_points(E_GENERIC, 1))) == k


class TestPointIdentity:
    """A point is identified by its field and one int: 0 for O, else
    1 + x q + y over the coordinate codes."""

    def test_equal_iff_same_coordinates(self):
        pts = ec_points(E_J0, 2)
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
        assert len(set(ec_points(E, r))) == len(ec_points(E, r)) == count

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_code_order_is_the_coordinate_order(self, name):
        def old_key(Q):
            return (0, 0, 0) if Q.is_zero else (1, Q.x.code, Q.y.code)

        pts = list(ec_points(CURVES[name], 2))
        assert pts == sorted(pts, key=old_key)
        assert sorted(reversed(pts), key=by_code) == pts


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
        checked = 0
        for a, b in itertools.product(field_elements(spec), repeat=2):
            try:
                E = ECurve(spec, a, b)
            except ValueError:
                continue  # singular
            assert aut0(E, r) == _aut0_scan(E, r)
            checked += 1
        assert checked == spec.q * (spec.q - 1)  # the nonsingular (a, b) over F_q

    def test_generic_curve_has_only_negation(self):
        us = aut0(E_GENERIC, 1)
        assert [u.coeffs[0] for u in us] == [1, 4]

    def test_j1728_has_four(self):
        assert [u.coeffs[0] for u in aut0(E_J1728, 1)] == [1, 2, 3, 4]

    def test_j0_has_six(self):
        assert len(aut0(E_J0, 1)) == 6


class TestAutomorphisms:
    def test_pure_translation_is_fixed_point_free(self):
        phi = ECAut(E_J1728, P(E_J1728, 0, 0), fq_one(F5))
        assert aut_fixed_points(E_J1728, phi, 1) == ()
        assert aut_fixed_points(E_J1728, phi, 2) == ()

    def test_negation_fixes_two_torsion(self):
        phi = ECAut(E_J1728, ec_infinity(F5), fq_from_int(F5, 4))
        assert len(aut_fixed_points(E_J1728, phi, 1)) == 4

    def test_identity_signalled(self):
        with pytest.raises(ValueError, match="identity"):
            aut_fixed_points(E_J1728, ECAut(E_J1728, ec_infinity(F5), fq_one(F5)), 1)

    def test_off_curve_translation_rejected(self):
        from pglcensus.elliptic import ECPoint

        bad = ECPoint(F5, fq_one(F5), fq_one(F5))  # (1,1) is not on y^2 = x^3 + x
        with pytest.raises(ValueError, match="not on"):
            ECAut(E_J1728, bad, fq_one(F5))
        with pytest.raises(ValueError, match="not on"):
            count_auts_fixing(E_J1728, bad, 1)

    def test_kernel_of_doubling(self):
        ker = kernel_one_minus_sigma(E_J1728, fq_from_int(F5, 4), 1)
        assert len(ker) == 4  # full rational two-torsion

    def test_kernel_of_zeta4(self):
        ker = kernel_one_minus_sigma(E_J1728, fq_from_int(F5, 2), 1)
        assert {render_ec_point(Q) for Q in ker} == {"O", "(0,0)"}
        assert len(ec_points(E_J1728, 1)) % len(ker) == 0

    def test_kernel_rejects_u_one(self):
        with pytest.raises(ValueError):
            kernel_one_minus_sigma(E_J1728, fq_one(F5), 1)

    def test_nonempty_fixed_sets_are_kernel_cosets(self):
        for r in (1, 2):
            for u in aut0(E_J1728, 1):
                if u == fq_one(F5):
                    continue
                ker = kernel_one_minus_sigma(E_J1728, u, r)
                for Q in ec_points(E_J1728, 1):
                    from pglcensus.gfq import extension_field, fq_embed
                    from pglcensus.elliptic import ec_point_embed

                    ext = extension_field(F5, r)
                    phi = ECAut(E_J1728, ec_point_embed(Q, ext), fq_embed(u, ext))
                    fixed = aut_fixed_points(E_J1728, phi, r)
                    assert len(fixed) in (0, len(ker))


class TestCountAutsFixing:
    def test_base_point(self):
        rep = count_auts_fixing(E_J1728, ec_infinity(F5), 1)
        assert rep.count == 4
        assert all(w.P.is_zero for w in rep.witnesses)

    def test_two_torsion_point(self):
        rep = count_auts_fixing(E_J1728, P(E_J1728, 0, 0), 1)
        assert rep.count == 4

    def test_generic_point(self):
        rep = count_auts_fixing(E_GENERIC, P(E_GENERIC, 0, 1), 1)
        assert rep.count == 2
        parts = {render_ec_point(w.P) for w in rep.witnesses}
        double = ec_add(E_GENERIC, P(E_GENERIC, 0, 1), P(E_GENERIC, 0, 1))
        assert parts == {"O", render_ec_point(double)}

    @pytest.mark.parametrize("name,E", standard_test_curves(), ids=[n for n, _ in standard_test_curves()])
    def test_every_point_fixed_by_aut0_many(self, name, E):
        size = len(aut0(E, 1))
        for Q in ec_points(E, 1):
            assert count_auts_fixing(E, Q, 1).count == size


class TestSpfActions:
    def test_counts_on_j1728(self):
        assert len(enum_spf_actions(E_J1728, 2, 1)) == 3
        assert len(enum_spf_actions(E_J1728, 1, 1)) == 1
        assert len(enum_spf_actions(E_J1728, 3, 1)) == 0

    def test_subgroups_really_are_subgroups(self):
        for sub in enum_spf_actions(E_J0, 2, 1) + enum_spf_actions(E_J0, 3, 1):
            members = set(sub)
            for a, b in itertools.product(sub, repeat=2):
                assert ec_add(E_J0, a, b) in members

    def test_invariant_factors(self):
        from pglcensus.elliptic import torsion_invariant_factors

        # E_J1728(F5) is the Klein group: full 2-torsion (2, 2)
        assert torsion_invariant_factors(E_J1728, 2, 1) == (2, 2)
        # E_GENERIC(F5) has order 9 with no 2-torsion
        assert torsion_invariant_factors(E_GENERIC, 2, 1) == (1, 1)

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

        invariants = torsion_invariant_factors(E, n, 1)
        expected = abelian_subgroup_count(invariants, n)
        assert len(enum_spf_actions(E, n, 1)) == expected


class TestFpfDichotomy:
    @pytest.mark.parametrize("name,E", standard_test_curves(), ids=[n for n, _ in standard_test_curves()])
    def test_all_curves(self, name, E):
        rep = verify_fpf_dichotomy(E)
        assert rep.ok, rep.violations
        assert rep.levels == (1, 2, 3)

    def test_rejects_empty_levels(self):
        with pytest.raises(ValueError):
            verify_fpf_dichotomy(E_J1728, [])


class TestGenus1Finiteness:
    def test_rejects_empty_locus(self):
        with pytest.raises(ValueError):
            verify_genus1_finiteness(E_J1728, [], 1)

    def test_generic_singleton_base_point(self):
        rep = verify_genus1_finiteness(E_GENERIC, [ec_infinity(F5)], 1)
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
        rep = verify_genus1_finiteness(E_J1728, list(ec_points(E_J1728, 1)), 1)
        assert rep.admissible_count <= len(ec_points(E_J1728, 1)) * len(aut0(E_J1728, 1)) + 1
        assert rep.certified_bound == 2 ** rep.admissible_count

    @pytest.mark.parametrize("name,E", standard_test_curves(), ids=[n for n, _ in standard_test_curves()])
    def test_every_singleton_gets_a_bound(self, name, E):
        for Q in ec_points(E, 1):
            rep = verify_genus1_finiteness(E, [Q], 1)
            assert rep.certified_bound >= 2
            assert rep.admissible_count >= 1

    def test_kernel_sizes_recorded(self):
        rep = verify_genus1_finiteness(E_J1728, [ec_infinity(F5)], 1)
        assert dict(rep.kernel_sizes)["4"] == 4  # doubling kernel
