import collections
import functools
import io
import itertools
import random
import re

import pytest

from pglcensus import elliptic, gfq
from pglcensus.cli import main
from pglcensus.closure import close, order
from pglcensus.elliptic import (
    ECurve,
    _fibre_sizes,
    _fixing_pairs,
    _one_minus_sigma_fibres,
    _one_minus_sigma_map,
    _x_preimages,
    aut0,
    base_change,
    ec_points,
    enum_spf_actions,
    fixing_counts_ok,
    max_singleton_bound,
    parse_curve,
    render_curve,
    render_ec_point,
    standard_test_curves,
    verify_fpf_dichotomy,
)
from pglcensus.gfq import (
    cpoly_ddf,
    cpoly_deriv,
    cpoly_divmod,
    cpoly_gcd,
    cpoly_mul,
    cpoly_powmod,
    cpoly_sub,
    _embedding_table,
    _int_code,
    _inverse_cache,
    extension_field,
    field_elements,
    field_make,
    render_element,
)

F5 = field_make(5, 1)
F7 = field_make(7, 1)
CURVES = dict(standard_test_curves())
E_J1728 = CURVES["F5_j1728"]      # y^2 = x^3 + x over F5
E_GENERIC = CURVES["F5_generic"]  # y^2 = x^3 + x + 1 over F5
E_J0 = CURVES["F7_j0"]            # y^2 = x^3 + 1 over F7


def P(E, x, y):
    """The point (x, y) of E, its coordinates integers mod p, which must be
    one of ec_points(E)."""
    Q = (_int_code(E.spec, x), _int_code(E.spec, y))
    assert Q in ec_points(E), f"{render_ec_point(E, Q)} is not on {render_curve(E)}"
    return Q


def one(spec):
    """The code of 1."""
    return spec.q // spec.p


def power(spec, x, e):
    """x^e on codes, by e products through the field's mul."""
    return functools.reduce(spec._tables.mul, [x] * e, one(spec))


def code_sum(E, P1, P2):
    """P1 + P2 by the code law _chord_tangent."""
    return elliptic._code_add(elliptic._chord_tangent(E), P1, P2)


def neg(E, Q):
    """-Q = (x, -y) through the field's sub, O for O."""
    return Q and (Q[0], E.spec._tables.sub(0, Q[1]))


def sigma(E, u, Q):
    """sigma_u(Q) = (u^2 x, u^3 y) through the field's mul, O for O."""
    if not Q:
        return Q
    x, y = Q
    return E.spec._tables.mul(power(E.spec, u, 2), x), E.spec._tables.mul(power(E.spec, u, 3), y)


def ec_point_embed(E, Q, target):
    """Q with its coordinates embedded in the target field (O goes to O)."""
    emb = _embedding_table(E.spec, target)
    return Q and tuple(emb[c] for c in Q)


class TestCurveConstruction:
    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            ECurve(F5, 0, 0)

    def test_small_characteristic_rejected(self):
        F3 = field_make(3, 1)
        with pytest.raises(ValueError, match="characteristic"):
            ECurve(F3, 1, 1)

    def test_point_must_lie_on_curve(self):
        assert (1, 1) not in ec_points(E_J1728)
        with pytest.raises(AssertionError, match="not on"):
            P(E_J1728, 1, 1)

    def test_curve_round_trip(self):
        for _, E in standard_test_curves():
            assert parse_curve(render_curve(E)) == E


class TestPointsAndGroupLaw:
    def test_point_sets(self):
        assert [render_ec_point(E_J1728, Q) for Q in ec_points(E_J1728)] == ["O", "(0,0)", "(2,0)", "(3,0)"]
        assert len(ec_points(E_GENERIC)) == 9
        assert len(ec_points(E_J0)) == 12

    def test_level_two_contains_level_one(self):
        lvl2 = set(ec_points(base_change(E_J1728, 2)))
        for Q in ec_points(E_J1728):
            assert ec_point_embed(E_J1728, Q, extension_field(F5, 2)) in lvl2

    def test_two_torsion_addition(self):
        assert code_sum(E_J1728, P(E_J1728, 0, 0), P(E_J1728, 2, 0)) == P(E_J1728, 3, 0)

    def test_identity_and_inverse(self):
        O = ()
        for Q in ec_points(E_GENERIC):
            assert code_sum(E_GENERIC, Q, O) == code_sum(E_GENERIC, O, Q) == Q
            assert code_sum(E_GENERIC, Q, neg(E_GENERIC, Q)) == O

    @pytest.mark.parametrize("E", [E_J1728, E_GENERIC], ids=["j1728", "generic"])
    def test_associativity_and_commutativity_exhaustive(self, E):
        pts = ec_points(E)
        for a, b in itertools.product(pts, repeat=2):
            assert code_sum(E, a, b) == code_sum(E, b, a)
        for a, b, c in itertools.product(pts, repeat=3):
            assert code_sum(E, code_sum(E, a, b), c) == code_sum(E, a, code_sum(E, b, c))

    def test_order_matches_repeated_addition(self):
        O = ()
        add = functools.partial(code_sum, E_GENERIC)
        for Q in ec_points(E_GENERIC):
            k, acc = 1, Q
            while acc != O:
                k, acc = k + 1, code_sum(E_GENERIC, acc, Q)
            assert order(Q, add, O, len(ec_points(E_GENERIC))) == k


class TestPointIdentity:
    """A point is its coordinate codes: () for O, else the pair (x, y), so
    tuple order is the order of the code 1 + x q + y."""

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_sets_count_the_points(self, name, r):
        E = CURVES[name]
        ext = extension_field(E.spec, r)
        emb, t = _embedding_table(E.spec, ext), ext._tables
        a, b = emb[E.a], emb[E.b]
        squares = collections.Counter(t.mul(y, y) for y in field_elements(ext))
        count = 1 + sum(squares[t.add(t.add(power(ext, x, 3), t.mul(a, x)), b)] for x in field_elements(ext))
        Er = base_change(E, r)
        assert len(set(ec_points(Er))) == len(ec_points(Er)) == count

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_code_order_is_the_coordinate_order(self, name):
        def old_key(Q):
            return (0, 0, 0) if not Q else (1, Q[0], Q[1])

        Er = base_change(CURVES[name], 2)
        pts = list(ec_points(Er))
        assert pts == sorted(pts, key=old_key)
        assert pts == sorted(pts, key=lambda Q: 1 + Q[0] * Er.spec.q + Q[1] if Q else 0)
        assert sorted(reversed(pts)) == pts


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
    emb, mul = _embedding_table(E.spec, ext), ext._tables.mul
    a, b = emb[E.a], emb[E.b]
    return tuple(u for u in field_elements(ext) if u and mul(power(ext, u, 4), a) == a and mul(power(ext, u, 6), b) == b)


class TestAut0:
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("spec", [F5, F7], ids=["F5", "F7"])
    def test_roots_of_unity_match_the_scan(self, spec, r):
        curves = list(_nonsingular_curves(spec))
        for E in curves:
            assert aut0(base_change(E, r)) == _aut0_scan(E, r)
        assert len(curves) == spec.q * (spec.q - 1)  # the nonsingular (a, b) over F_q

    def test_generic_curve_has_only_negation(self):
        assert aut0(E_GENERIC) == (1, 4)

    def test_j1728_has_four(self):
        assert aut0(E_J1728) == (1, 2, 3, 4)

    def test_j0_has_six(self):
        assert len(aut0(E_J0)) == 6


class TestAutomorphisms:
    """Fixed sets read off the fibre tables: (P, u) fixes the fibre of
    1 - sigma_u over P."""

    def test_pure_translation_is_fixed_point_free(self):
        # 1 - sigma_1 is the zero map: its one fibre lies over O, so a
        # translation by P != O fixes no point, at either level
        for r in (1, 2):
            Er = base_change(E_J1728, r)
            fibres = _one_minus_sigma_fibres(Er, one(Er.spec))
            assert fibres == {(): ec_points(Er)}

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_fibre_tables_partition_the_points(self, name, r):
        # each table is keyed by the law's own output, with no lookup of the
        # image among the points: every key must still be a point of E, and
        # the fibres must cover E's points once each
        Er = base_change(CURVES[name], r)
        pts = ec_points(Er)
        for u in aut0(Er):
            fibres = _one_minus_sigma_fibres(Er, u)
            assert set(fibres) <= set(pts), (render_curve(Er), render_element(Er.spec, u))
            assert all(fibres.values()) and sorted(Q for fibre in fibres.values() for Q in fibre) == list(pts)

    def test_negation_fixes_two_torsion(self):
        fibres = _one_minus_sigma_fibres(E_J1728, 4)
        two_torsion = tuple(Q for Q in ec_points(E_J1728) if not Q or not Q[1])
        assert fibres[()] == two_torsion and len(two_torsion) == 4

    def test_off_curve_translation_rejected(self):
        bad = (1, 1)  # (1,1) is not on y^2 = x^3 + x
        assert bad not in ec_points(E_J1728)
        assert all(bad not in (Q, P) for u in aut0(E_J1728) for Q, P in _fixing_pairs(E_J1728, u))

    def test_kernel_of_doubling(self):
        ker = _one_minus_sigma_fibres(E_J1728, 4)[()]
        assert len(ker) == 4  # full rational two-torsion

    def test_kernel_of_zeta4(self):
        ker = _one_minus_sigma_fibres(E_J1728, 2)[()]
        assert {render_ec_point(E_J1728, Q) for Q in ker} == {"O", "(0,0)"}
        assert len(ec_points(E_J1728)) % len(ker) == 0

    def test_nonempty_fixed_sets_are_kernel_cosets(self):
        """Each fibre is R + ker(1 - sigma_u) for any R in it, by the
        reference law, on j = 1728 and j = 0 at levels 1 and 2."""
        for E, r in itertools.product((E_J1728, E_J0), (1, 2)):
            Er = base_change(E, r)
            for u in aut0(Er):
                if u == one(Er.spec):
                    continue
                fibres = _one_minus_sigma_fibres(Er, u)
                ker = fibres[()]
                assert len(ec_points(Er)) == len(fibres) * len(ker)
                for fibre in fibres.values():
                    coset = {reference_ec_add(Er, fibre[0], K) for K in ker}
                    assert coset == set(fibre), (render_curve(Er), render_element(Er.spec, u))


class TestCountAutsFixing:
    """The automorphisms fixing a point, grouped from the checked pairs of
    _fixing_pairs (fixing_witnesses)."""

    def test_base_point(self):
        witnesses = fixing_witnesses(E_J1728)[()]
        assert len(witnesses) == 4
        assert all(not P for P, _ in witnesses)

    def test_two_torsion_point(self):
        assert len(fixing_witnesses(E_J1728)[P(E_J1728, 0, 0)]) == 4

    def test_generic_point(self):
        witnesses = fixing_witnesses(E_GENERIC)[P(E_GENERIC, 0, 1)]
        assert len(witnesses) == 2
        parts = {render_ec_point(E_GENERIC, P) for P, _ in witnesses}
        double = code_sum(E_GENERIC, P(E_GENERIC, 0, 1), P(E_GENERIC, 0, 1))
        assert parts == {"O", render_ec_point(E_GENERIC, double)}

    @pytest.mark.parametrize("name,E", standard_test_curves(), ids=[n for n, _ in standard_test_curves()])
    def test_every_point_fixed_by_aut0_many(self, name, E):
        size = len(aut0(E))
        counts = collections.Counter(Q for u in aut0(E) for Q, _ in _fixing_pairs(E, u))
        assert counts == {Q: size for Q in ec_points(E)}
        assert fixing_counts_ok(E) is True


class TestSpfActions:
    def test_counts_on_j1728(self):
        assert len(enum_spf_actions(E_J1728, 2)) == 3
        assert len(enum_spf_actions(E_J1728, 1)) == 1
        assert len(enum_spf_actions(E_J1728, 3)) == 0

    def test_subgroups_really_are_subgroups(self):
        for sub in enum_spf_actions(E_J0, 2) + enum_spf_actions(E_J0, 3):
            members = set(sub)
            for a, b in itertools.product(sub, repeat=2):
                assert code_sum(E_J0, a, b) in members

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


def closed_subsets(d1, d2, n):
    """The n-subsets of Z/d1 x Z/d2 that hold 0 and are closed under
    addition: the reference for abelian_subgroup_count, by brute force."""
    members = [(i, j) for i in range(d1) for j in range(d2)]
    return sum(
        all(((a[0] + b[0]) % d1, (a[1] + b[1]) % d2) in S for a in S for b in S)
        for rest in itertools.combinations(members[1:], n - 1)
        for S in [{(0, 0), *rest}]
    )


SMALL_INVARIANTS = [(d1, d2) for d1 in range(1, 17) for d2 in range(1, d1 + 1) if d1 % d2 == 0 and d1 * d2 <= 16]


@pytest.mark.parametrize("d1,d2", SMALL_INVARIANTS)
def test_abelian_subgroup_count_matches_closed_subsets(d1, d2):
    from pglcensus.elliptic import abelian_subgroup_count

    assert len(SMALL_INVARIANTS) == 22
    for n in (1, 2, 3, 4):
        assert abelian_subgroup_count((d1, d2), n) == closed_subsets(d1, d2, n), n


def test_abelian_subgroup_count_once_per_key():
    """The default suite counts each (invariants, n) it meets once."""
    from pglcensus.elliptic import abelian_subgroup_count, torsion_invariant_factors

    abelian_subgroup_count.cache_clear()
    assert main(["verify-genus1"], out=io.StringIO()) == 0
    keys = {(torsion_invariant_factors(E, n), n) for _, E in standard_test_curves() for n in (1, 2, 3, 4)}
    info = abelian_subgroup_count.cache_info()
    assert (info.misses, info.hits) == (len(keys), 4 * len(standard_test_curves()) - len(keys))


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

    def test_failed_cross_check_exits_1_without_traceback(self, monkeypatch, capsys):
        monkeypatch.setattr(elliptic, "_one_minus_sigma_fibres", lambda E, u: {})
        assert main(["verify-genus1", "--curve", "5^1:a=1,b=0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: internal check failed: fibre polynomial of (P=O, u=")
        assert err.endswith("at r=1, the scan 0\n") and "Traceback" not in err


def scanned_fibre_sizes(E, u, P, levels):
    """|(1 - sigma_u)^{-1}(P)| at each level, by the point scan of E over
    F_{q^r}: the reference for _fibre_sizes."""
    sizes = []
    for r in levels:
        Er = base_change(E, r)
        fibres = _one_minus_sigma_fibres(Er, _embedding_table(E.spec, Er.spec)[u])
        sizes.append(len(fibres.get(ec_point_embed(E, P, Er.spec), ())))
    return sizes


def seeded_curves(spec, k, seed):
    """k nonsingular curves over spec from each class a = 0 (j = 0), b = 0
    (j = 1728) and ab != 0, so every size of Aut_0 the field allows occurs."""
    rng = random.Random(seed)
    classes = {}
    for E in _nonsingular_curves(spec):
        classes.setdefault((not E.a, not E.b), []).append(E)
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
            if u == one(E.spec):
                continue
            N, D = _one_minus_sigma_map(E, u)
            preimages = _x_preimages(E, N, D)
            for Q in ec_points(E):
                got = _fibre_sizes(E, N, D, preimages, Q, levels)
                assert got == scanned_fibre_sizes(E, u, Q, levels), (render_curve(E), render_element(E.spec, u), Q)


def reference_fibre_sizes(E, N, D, P, levels, branches):
    """The fibre sizes by distinct-degree factorization, the reference for
    _fibre_sizes: cpoly_ddf of the squarefree part of h = N - x_P D (of D
    for P = O), one point per root of a part of degree k | r if y_P != 0,
    and if y_P = 0, 1 + chi(f(x)) points per root, with chi_k(f(x)) read off
    f^((q^k - 1)/2) mod the part.  Adds the branches of _fibre_sizes that
    the input takes to `branches`."""
    spec, q, one = E.spec, E.spec.q, E.spec.q // E.spec.p
    h = cpoly_sub(spec, N, cpoly_mul(spec, [P[0]], D)) if P else D
    s = cpoly_divmod(spec, h, cpoly_gcd(spec, h, cpoly_deriv(spec, h)))[0]
    parts = cpoly_ddf(spec, s)
    if len(s) < len(h):
        branches.add("disc 0")
    if 4 in parts:
        branches.add("rest {4}")
    if len(parts.get(2, ())) == 5:
        branches.add("rest {2,2}")
    if P and P[1]:
        return [sum(len(g) - 1 for k, g in parts.items() if r % k == 0) for r in levels]
    f = [E.b, E.a, 0, one]
    counts = []  # per part: its degree k and its roots with chi_k(f(x)) = 0, 1, -1
    for k, g in parts.items():
        fg = cpoly_divmod(spec, f, g)[1]
        zeros = len(cpoly_gcd(spec, g, fg)) - 1
        chi = cpoly_powmod(spec, fg, (q**k - 1) // 2, g)
        squares = len(cpoly_gcd(spec, g, cpoly_sub(spec, chi, [one]))) - 1
        counts.append((k, zeros, squares, len(g) - 1 - zeros - squares))
        if k > 1:
            branches.add(f"y_P = 0, rest chi {0 if zeros else 1 if squares else -1}")
    return [
        int(not P) + sum(z + 2 * s + (0 if r // k % 2 else 2 * n) for k, z, s, n in counts if r % k == 0)
        for r in levels
    ]


F11, F13, F25, F121 = field_make(11, 1), field_make(13, 1), field_make(5, 2), field_make(11, 2)


def test_fibre_sizes_match_the_distinct_degree_route():
    """Every (u != 1, P), O and y_P = 0 included, on every nonsingular curve
    over F11 and F13 and on seeded curves over F25, F49 and F121, at levels
    1-6 and 12; the sample reaches every branch of _fibre_sizes."""
    levels = (1, 2, 3, 4, 5, 6, 12)
    curves = [
        *_nonsingular_curves(F11),
        *_nonsingular_curves(F13),
        *seeded_curves(F25, 3, 25),
        *seeded_curves(F49, 2, 49),
        *seeded_curves(F121, 1, 121),
    ]
    branches = set()
    for E in curves:
        for u in aut0(E):
            if u == one(E.spec):
                continue
            N, D = _one_minus_sigma_map(E, u)
            preimages = _x_preimages(E, N, D)
            # the same map over a nonsquare: every fibre polynomial gets a
            # nonsquare leading coefficient, which the characters must undo
            scaled = [cpoly_mul(E.spec, [E.spec._tables.exp[1]], poly) for poly in (N, D)]
            for Q in ec_points(E):
                want = reference_fibre_sizes(E, N, D, Q, levels, branches)
                assert _fibre_sizes(E, N, D, preimages, Q, levels) == want, (render_curve(E), render_element(E.spec, u), Q)
                if not Q or not Q[1]:
                    assert _fibre_sizes(E, *scaled, preimages, Q, levels) == want, (render_curve(E), render_element(E.spec, u), Q)
    assert branches == {
        "disc 0",
        "rest {4}",
        "rest {2,2}",
        "y_P = 0, rest chi 0",
        "y_P = 0, rest chi 1",
        "y_P = 0, rest chi -1",
    }


def test_seeded_curves_cover_every_aut0_size():
    assert {len(aut0(E)) for E in seeded_curves(F7, 2, 4)} == {2, 6}  # no i in F7
    assert {len(aut0(E)) for E in seeded_curves(F49, 2, 49)} == {2, 4, 6}


def reference_fpf_dichotomy(E, levels):
    """The dichotomy with one fibre polynomial per (P, u), u != 1: the
    reference for verify_fpf_dichotomy's pairs_checked and violations."""
    unit = one(E.spec)
    violations = []
    checked = len(ec_points(E)) - 1  # the pure translations
    for u in aut0(E):
        if u == unit:
            continue
        N, D = _one_minus_sigma_map(E, u)
        preimages = _x_preimages(E, N, D)
        kernel = _fibre_sizes(E, N, D, preimages, (), levels)
        for Q in ec_points(E):
            checked += 1
            sizes = _fibre_sizes(E, N, D, preimages, Q, levels)
            for r, size, kernel_size in zip(levels, sizes, kernel):
                if size and size != kernel_size:
                    violations.append(
                        f"(P={render_ec_point(E, Q)}, u={render_element(E.spec, u)}) at r={r}: "
                        f"fibre size {size} != kernel size {kernel_size}"
                    )
            if not any(sizes):
                violations.append(
                    f"(P={render_ec_point(E, Q)}, u={render_element(E.spec, u)}): fibre sizes {sizes} "
                    f"across levels {levels}, expected fixed points"
                )
    return checked, tuple(violations)


def test_orbit_reuse_matches_the_per_point_dichotomy():
    """Every nonsingular curve over F5 and F7 at levels 1-3, 1-4 and (2, 4),
    and seeded curves over F11 and F13 at levels 1-3 and over F49 at levels
    1-2: the same pairs_checked and the same violation text, in order."""
    small = (*_nonsingular_curves(F5), *_nonsingular_curves(F7))
    cases = [
        *((E, levels) for E in small for levels in ((1, 2, 3), (1, 2, 3, 4), (2, 4))),
        *((E, (1, 2, 3)) for E in (*seeded_curves(F11, 3, 11), *seeded_curves(F13, 3, 13))),
        *((E, (1, 2)) for E in seeded_curves(F49, 3, 49)),
    ]
    failing = 0
    for E, levels in cases:
        rep = verify_fpf_dichotomy(E, levels)
        assert (rep.pairs_checked, rep.violations) == reference_fpf_dichotomy(E, levels), (render_curve(E), levels)
        failing += not rep.ok
    assert len(cases) == 186 + 18 + 9
    assert {len(aut0(E)) for E, _ in cases} == {2, 4, 6}
    assert 0 < failing < len(cases)  # the violation text is compared too


def reference_x_preimages(E, N, D):
    """The sweep of _x_preimages with one Horner evaluation of N and D per x
    in F_q: the reference for its orbit sweep."""
    t = E.spec._tables
    log, exp, m = t.log, t.exp, t.m
    preimages = {}
    for x in range(E.spec.q):
        n, d = elliptic._at(t, N, x), elliptic._at(t, D, x)
        preimages.setdefault((exp[log[n] - log[d] + m] if n else 0) if d else None, []).append(x)
    return preimages


def reference_one_minus_sigma_map(E, u):
    """_one_minus_sigma_map written out coefficient by coefficient through
    the field's add, sub and mul: the reference for its build."""
    spec, a, b = E.spec, E.a, E.b
    t, unit = spec._tables, one(spec)
    add, sub, mul = t.add, t.sub, t.mul
    if u == t.sub(0, unit):
        k = functools.partial(_int_code, spec)
        N = [mul(a, a), mul(k(-8), b), mul(k(-2), a), 0, unit]
        D = [mul(k(4), b), mul(k(4), a), 0, k(4)]
    else:
        v2 = mul(u, u)
        c, w = power(spec, add(unit, mul(u, v2)), 2), power(spec, sub(v2, unit), 2)
        N = [mul(c, b), mul(c, a), 0, sub(c, mul(add(unit, v2), w))]
        D = [0, 0, w]
    g = cpoly_gcd(spec, N, D)
    return cpoly_divmod(spec, N, g)[0], cpoly_divmod(spec, D, g)[0]


def test_orbit_sweep_matches_the_per_x_sweep():
    """Every u != 1 of every nonsingular curve over F5, F7 and F13, of
    seeded curves over F49, and of y^2 = x^3 + 1 and y^2 = x^3 + x over F97:
    the x-map is the one written out coefficient by coefficient, and the
    sweep that scales N/D along the orbits x -> w^2 x is the per-x sweep."""
    curves = [
        *(E for spec in (F5, F7, F13) for E in _nonsingular_curves(spec)),
        *seeded_curves(F49, 2, 49),
        parse_curve("97^1:a=0,b=1"),
        parse_curve("97^1:a=1,b=0"),
    ]
    sizes = collections.Counter()
    for E in curves:
        for u in aut0(E):
            if u == one(E.spec):
                continue
            N, D = _one_minus_sigma_map(E, u)
            assert (N, D) == reference_one_minus_sigma_map(E, u), (render_curve(E), render_element(E.spec, u))
            assert _x_preimages(E, N, D) == reference_x_preimages(E, N, D), (render_curve(E), render_element(E.spec, u))
            sizes[len(aut0(E))] += 1
    assert sorted(sizes) == [2, 4, 6]
    assert len(aut0(curves[-2])) == 6 and len(aut0(curves[-1])) == 4


def wrong_orbits(E):
    """x -> the least of its orbit under x -> w x, w in Aut_0, in place of
    the orbits x -> w^2 x of _x_orbits."""
    t = E.spec._tables
    return {x: min(t.mul(w, x) for w in aut0(E)) for x in range(E.spec.q)}


WRONG_ORBIT_KEYS = {
    "F7_j0": "fibre polynomial of (P=(3,0), u=2) gives 0 points at r=1, the scan 3",
    "F13_j1728": "fibre polynomial of (P=(3,2), u=5) gives 0 points at r=1, the scan 2",
}


@pytest.mark.parametrize("name", ["F7_j0", "F13_j1728"])
def test_wrong_orbit_is_caught_at_level_one(monkeypatch, name):
    """Read the sizes off orbits x -> w x in place of x -> w^2 x, the sweep
    being the per-x reference: the per-(P, u) check of level 1 against the
    scan refuses them."""
    monkeypatch.setattr(elliptic, "_x_orbits", wrong_orbits)
    monkeypatch.setattr(elliptic, "_x_preimages", reference_x_preimages)
    with pytest.raises(AssertionError, match=f"^{re.escape(WRONG_ORBIT_KEYS[name])}$"):
        verify_fpf_dichotomy(CURVES[name], (1, 2, 3))


WRONG_SWEEP_SCALING = {
    "F7_j0": "fibre polynomial of (P=(1,3)) has 1 rational roots, squarefree degree 3 and disc character 1",
    "F13_j1728": "fibre polynomial of (P=(0,0)) has 0 rational roots, squarefree degree 2 and disc character 1",
}


@pytest.mark.parametrize("name", ["F7_j0", "F13_j1728"])
def test_wrong_sweep_scaling_is_caught(monkeypatch, name):
    """Scale N/D along the orbits x -> w x in the sweep alone, the sizes
    being read off the right orbits: a fibre polynomial whose rational roots
    the sweep misreports is refused by its own degree check."""
    real = elliptic._x_preimages

    def wrong_sweep(E, N, D):
        with monkeypatch.context() as patch:
            patch.setattr(elliptic, "_x_orbits", wrong_orbits)
            return real(E, N, D)

    monkeypatch.setattr(elliptic, "_x_preimages", wrong_sweep)
    with pytest.raises(AssertionError, match=f"^{re.escape(WRONG_SWEEP_SCALING[name])}$"):
        verify_fpf_dichotomy(CURVES[name], (1, 2, 3))


class TestGenus1Finiteness:
    """The singleton bound against the certificates of the E-wide scan."""

    def test_generic_singleton_base_point(self):
        # on y^2 = x^3 + x + 1 over F5 (9 points, no 2-torsion) doubling is a
        # bijection, so each point is alone in its fibre under negation: the
        # only admissible automorphism of {O} is negation itself, and no
        # nontrivial translation is compatible with it
        O = ()
        scan = reference_scan(E_GENERIC)
        fixing = [(P, u) for (P, u), fixed in scan.items() if u != one(F5) and fixed == (O,)]
        assert fixing == [(O, 4)]
        assert reference_certificate(E_GENERIC, [O], scan) == 4
        assert max_singleton_bound(E_GENERIC) == 4

    @pytest.mark.parametrize("name,E", standard_test_curves(), ids=[n for n, _ in standard_test_curves()])
    def test_every_singleton_gets_a_bound(self, name, E):
        scan = reference_scan(E)
        bounds = [reference_certificate(E, [Q], scan) for Q in ec_points(E)]
        assert min(bounds) >= 2
        assert max_singleton_bound(E) == max(bounds)


class TestBaseChange:
    def test_level_one_is_the_curve_itself(self):
        # equal, not identical: an equal curve may already sit in the cache
        assert base_change(E_J1728, 1) == E_J1728

    def test_coefficients_are_embedded(self):
        E2 = base_change(E_J0, 2)
        assert E2.spec is extension_field(F7, 2)
        emb = _embedding_table(F7, E2.spec)
        assert (E2.a, E2.b) == (emb[E_J0.a], emb[E_J0.b])
        assert base_change(E_J0, 2) is E2

    def test_cap_refused_before_the_field_is_built(self):
        with pytest.raises(ValueError, match=r"capped at q\^r <= 10000, got 244140625"):
            base_change(E_GENERIC, 12)

    def test_bad_degree_is_a_usage_error(self):
        for r in (0, -1):
            with pytest.raises(ValueError, match="extension degree"):
                base_change(E_GENERIC, r)


def test_zero_scaling_factor_refused():
    # a scaling factor is the code of a nonzero element of the curve's field
    for E in (E_J1728, base_change(E_J1728, 2)):
        with pytest.raises(ValueError, match="nonzero"):
            _one_minus_sigma_fibres(E, 0)


def reference_certificate(E, S, scan):
    """The finiteness bound of the locus S from the E-wide scan (see
    reference_scan): the admissible automorphisms are the identity, every
    (P, u != 1) whose fixed set is nonempty and inside S, and per such
    (P, u) every translation R != O whose composite (P + R, u) still fixes a
    nonempty subset of S.  Returns 2 to their number."""
    S, unit = set(S), one(E.spec)

    def inside(P, u):
        return bool(scan[P, u]) and set(scan[P, u]) <= S

    fixing = [(P, u) for P, u in scan if u != unit and inside(P, u)]
    translations = {
        R for P, u in fixing for R in ec_points(E) if R and inside(reference_ec_add(E, P, R), u)
    }
    return 2 ** (1 + len(fixing) + len(translations))


CERTIFIED = [(F5, 1), (F5, 2), (F7, 1)]


@pytest.mark.parametrize("spec,r", CERTIFIED, ids=[f"{s.p}^{r}" for s, r in CERTIFIED])
def test_certificate_matches_the_e_wide_scan(spec, r):
    """The singleton bound is the largest singleton certificate, on every
    nonsingular curve over F5 at levels 1 and 2 and over F7 at level 1."""
    for E in _nonsingular_curves(spec):
        Er = base_change(E, r)
        scan = reference_scan(Er)
        want = max(reference_certificate(Er, [Q], scan) for Q in ec_points(Er))
        assert max_singleton_bound(Er) == want, render_curve(Er)


# ---------------------------------------------------------------------------
# the chord-tangent law on the log tables against the law one field
# operation at a time


def reference_ec_add(E, P1, P2):
    """The chord-tangent law (Silverman, The Arithmetic of Elliptic Curves,
    III.2) through the field's add, sub, mul and inverse table: the
    reference for _chord_tangent, which runs the same law on the logs."""
    if not P1:
        return P2
    if not P2:
        return P1
    spec = E.spec
    add, sub, mul, inverse = spec._tables.add, spec._tables.sub, spec._tables.mul, _inverse_cache(spec)
    (x1, y1), (x2, y2) = P1, P2
    if x1 == x2:
        if y1 != y2 or not y1:
            return ()  # vertical line
        three_x2 = mul(_int_code(spec, 3), mul(x1, x1))
        slope = mul(add(three_x2, E.a), inverse[mul(_int_code(spec, 2), y1)])
    else:
        slope = mul(sub(y2, y1), inverse[sub(x2, x1)])
    x3 = sub(sub(mul(slope, slope), x1), x2)
    y3 = sub(mul(slope, sub(x1, x3)), y1)
    return x3, y3


def reference_fibres(E, u):
    """The fibres of Q -> Q - sigma_u(Q), built with the reference law."""
    fibres = {}
    for Q in ec_points(E):
        fibres.setdefault(reference_ec_add(E, Q, neg(E, sigma(E, u, Q))), []).append(Q)
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
            assert code_sum(Er, P1, P2) == reference_ec_add(Er, P1, P2), (render_curve(Er), P1, P2)
        for u in aut0(Er):
            if u != one(Er.spec):
                assert _one_minus_sigma_fibres(Er, u) == reference_fibres(Er, u), (render_curve(Er), u)


def _law_cases(r, keep):
    """(curve, point) for every affine point of every nonsingular curve over
    F5 and F7, taken to level r, for which keep(E, Q) holds."""
    for spec in (F5, F7):
        for E in _nonsingular_curves(spec):
            Er = base_change(E, r)
            for Q in ec_points(Er):
                if Q and keep(Er, Q):
                    yield Er, Q


@pytest.mark.parametrize("r", [1, 2])
class TestCodeLawEdgeCases:
    """The branches of the code law, at r = 1 and in F_{q^2}, where the log
    indices of a sum or a quotient are negative or wrap past q - 1."""

    def test_horizontal_tangent(self, r):
        def flat(E, Q):  # 3x^2 + a = 0, so 2Q has slope 0
            x, y = Q
            t = E.spec._tables
            return y and not t.add(t.mul(_int_code(E.spec, 3), t.mul(x, x)), E.a)

        cases = list(_law_cases(r, flat))
        assert cases
        for E, Q in cases:
            # slope 0: 2Q = (-2x, -y)
            x, y = Q
            t = E.spec._tables
            expected = t.sub(0, t.add(x, x)), t.sub(0, y)
            assert code_sum(E, Q, Q) == expected == reference_ec_add(E, Q, Q)

    def test_two_torsion(self, r):
        cases = list(_law_cases(r, lambda E, Q: not Q[1]))
        assert cases
        for E, Q in cases:
            assert code_sum(E, Q, Q) == ()

    def test_points_on_x_zero(self, r):
        cases = list(_law_cases(r, lambda E, Q: not Q[0]))
        assert cases
        for E, Q in cases:
            for R in ec_points(E):
                assert code_sum(E, Q, R) == reference_ec_add(E, Q, R)
                assert code_sum(E, R, Q) == reference_ec_add(E, R, Q)

    def test_inverse_sums_to_o(self, r):
        cases = list(_law_cases(r, lambda E, Q: True))
        assert cases
        for E, Q in cases:
            assert code_sum(E, Q, neg(E, Q)) == ()

    def test_doubling_against_the_other_point_on_the_vertical(self, r):
        """Q + Q is the tangent, Q + (x, -y) the vertical line through Q."""
        cases = list(_law_cases(r, lambda E, Q: Q[1]))
        assert cases
        for E, Q in cases:
            twin = neg(E, Q)
            assert twin != Q and twin in ec_points(E)
            assert code_sum(E, Q, twin) == ()
            assert code_sum(E, Q, Q) == reference_ec_add(E, Q, Q) != ()


# ---------------------------------------------------------------------------
# the fixing check against the E x Aut_0 scan


@functools.lru_cache(maxsize=None)
def reference_scan(E):
    """Every automorphism (P, u) of E over its field, with the points it
    fixes in point order: the full scan of E x Aut_0 for sigma_u(Q) + P = Q
    through the reference law, with no fibre table.  Cached per curve: the
    fixing and certificate checks share it."""
    pts = ec_points(E)
    scan = {}
    for u in aut0(E):
        moved = [sigma(E, u, Q) for Q in pts]
        for P in pts:
            scan[P, u] = tuple(Q for Q, M in zip(pts, moved) if reference_ec_add(E, M, P) == Q)
    return scan


def reference_fixing(E, Q):
    """Every automorphism (P, u) fixing Q, read off the E x Aut_0 scan: the
    reference for fixing_witnesses, which reads the fibre tables of
    1 - sigma_u instead."""
    return tuple(sorted(aut for aut, fixed in reference_scan(E).items() if Q in fixed))


def fixing_witnesses(E):
    """The automorphisms fixing each point of E, grouped from the checked
    pairs of _fixing_pairs, one pass per u: a dict from Q to its witnesses
    (P, u), sorted as reference_fixing sorts them."""
    found = collections.defaultdict(list)
    for u in aut0(E):
        for Q, P in _fixing_pairs(E, u):
            found[Q].append((P, u))
    return {Q: tuple(sorted(witnesses)) for Q, witnesses in found.items()}


@pytest.mark.parametrize("spec,r", LAW_LEVELS, ids=[f"{s.p}^{r}" for s, r in LAW_LEVELS])
def test_fixing_matches_the_scan(spec, r):
    """Count and witnesses at every point of every nonsingular curve over F5
    and F7, at levels 1 and 2."""
    for E in _nonsingular_curves(spec):
        Er = base_change(E, r)
        witnesses = fixing_witnesses(Er)
        for Q in ec_points(Er):
            got = witnesses.pop(Q, ())
            want = reference_fixing(Er, Q)
            assert (len(got), got) == (len(want), want), (render_curve(Er), Q)
        assert not witnesses, render_curve(Er)


def test_fixing_check_reads_the_fibre_tables(monkeypatch):
    """Q removed from the fibre over its witness loses that witness and fails
    the check, for every u."""
    E, Q = E_J0, P(E_J0, 2, 3)
    real = elliptic._one_minus_sigma_fibres
    for u in aut0(E):
        def without_q(curve, v, u=u):
            fibres = real(curve, v)
            if v != u:
                return fibres
            return {image: tuple(R for R in fibre if R != Q) for image, fibre in fibres.items()}

        monkeypatch.setattr(elliptic, "_one_minus_sigma_fibres", without_q)
        assert Q not in (R for R, _ in _fixing_pairs(E, u))
        assert sorted(w for _, w in fixing_witnesses(E)[Q]) == [v for v in aut0(E) if v != u]
        assert fixing_counts_ok(E) is False
    monkeypatch.undo()
    assert len(fixing_witnesses(E)[Q]) == 6
    assert fixing_counts_ok(E) is True


# ---------------------------------------------------------------------------
# work counts: every stage of verify-genus1 is linear in the point count


def _counting(monkeypatch, name, key=lambda *args: None, module=elliptic):
    """Replace module.<name> by a wrapper that counts its calls by key."""
    calls = collections.Counter()
    real = getattr(module, name)

    def wrapper(*args):
        calls[key(*args)] += 1
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestWorkCounts:
    def test_dichotomy_factors_once_per_x(self, monkeypatch):
        calls = _counting(monkeypatch, "_fibre_sizes")
        sweeps = _counting(monkeypatch, "_x_preimages")
        # nothing factors: elliptic no longer imports the factoring routines,
        # and none of its gfq calls reaches them
        assert not hasattr(elliptic, "cpoly_ddf") and not hasattr(elliptic, "cpoly_powmod")
        factoring = [_counting(monkeypatch, name, module=gfq) for name in ("cpoly_ddf", "cpoly_powmod")]
        counts = {}
        for name, E in standard_test_curves():
            calls.clear()
            sweeps.clear()
            assert verify_fpf_dichotomy(E).ok
            mul, inverse = E.spec._tables.mul, _inverse_cache(E.spec)
            pairs = {frozenset((u, inverse[u])) for u in aut0(E) if u != one(E.spec)}
            orbits = {frozenset(mul(mul(w, w), Q[0]) for w in aut0(E)) for Q in ec_points(E) if Q}
            # one sweep of the field per pair {u, u^-1}, then one fibre
            # polynomial for the kernel and one per orbit x -> w^2 x of the
            # x-coordinates, so at most one per x-coordinate
            assert sweeps[None] == len(pairs)
            assert calls[None] == len(pairs) * (1 + len(orbits))
            counts[name] = (sweeps[None], calls[None])
        assert counts == {"F5_j1728": (2, 6), "F13_j1728": (2, 14), "F7_j0": (3, 12), "F5_generic": (1, 5)}
        assert not any(factoring)

    def test_torsion_scan_once_per_curve_and_order(self, monkeypatch):
        elliptic._orders.cache_clear()
        elliptic._subgroups.cache_clear()
        # the torsion walks call order(xy, add, None, 4) once per point, add
        # being the code sum through the curve's law, and n = 1 to 4 read
        # that one walk; their subgroups are read off one growth
        walks = _counting(monkeypatch, "order", key=lambda xy, add, O, n: (add.args[0], n))
        growths = _counting(monkeypatch, "subgroup_layers", key=lambda points, add, O, cap: (add.args[0], cap))
        assert main(["verify-genus1", "--curve", "7^1:a=0,b=1", "--ext", "2"], out=io.StringIO()) == 0
        Er = base_change(parse_curve("7^1:a=0,b=1"), 2)
        law = elliptic._chord_tangent(Er)
        assert walks == {(law, 4): len(ec_points(Er))}
        assert growths == {(law, 4): 1}

    @pytest.mark.parametrize("curve", ["5^1:a=1,b=0", "13^1:a=1,b=0", "7^1:a=0,b=1"])
    def test_no_per_point_certificate_or_witness(self, monkeypatch, curve):
        """The fixing check and the singleton bound are per-curve passes: no
        per-locus certificate exists to call, and there is one pass of
        _fixing_pairs per u at each level, not one per point."""
        from pglcensus import cli

        assert not any(hasattr(elliptic, name) for name in ("verify_genus1_finiteness", "ec_sub", "ECAut"))
        calls = collections.Counter()
        real = elliptic._fixing_pairs

        def counted(*args):
            calls["_fixing_pairs"] += 1
            return real(*args)

        monkeypatch.setattr(elliptic, "_fixing_pairs", counted)
        monkeypatch.setattr(cli, "_fixing_pairs", counted, raising=False)
        for ext in ("1", "2"):
            assert main(["verify-genus1", "--curve", curve, "--ext", ext], out=io.StringIO()) == 0
        E = parse_curve(curve)
        assert calls == {"_fixing_pairs": sum(len(aut0(base_change(E, r))) for r in (1, 2))}

    @pytest.mark.parametrize("curve", ["5^1:a=1,b=0", "7^1:a=0,b=1"])
    def test_law_calls_linear_in_the_points(self, monkeypatch, curve):
        elliptic._one_minus_sigma_fibres.cache_clear()
        elliptic._orders.cache_clear()
        elliptic._subgroups.cache_clear()
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
        # for the singleton bound; at most 3 sums per point for the one
        # order walk capped at 4; and the one growth over the at most 24
        # points of order <= 4 (3.3 and 2.9 |Aut_0| N here).  The E x Aut_0
        # scan alone made |Aut_0| N^2, here 32 or 48 |Aut_0| N.
        assert sum(calls.values()) <= 5 * n_aut * n_pts


# ---------------------------------------------------------------------------
# the per-curve passes of verify-genus1 against the per-point routes


def reference_torsion(E, n):
    """_torsion with one order walk per point through the reference law: the
    reference for the walks through the code law."""
    add, O = functools.partial(reference_ec_add, E), ()
    orders = ((Q, order(Q, add, O, n)) for Q in ec_points(E))
    return tuple((Q, k) for Q, k in orders if k is not None and n % k == 0)


def reference_spf_actions(E, n):
    """The subgroups of order n closed from every pair of n-torsion points
    through the reference law (a subgroup of E has at most two generators):
    the reference for the layered growth through the code law."""
    add = functools.partial(reference_ec_add, E)
    torsion = [Q for Q, _ in reference_torsion(E, n)]
    subs = {frozenset(close([A, B], add, {()})) for A in torsion for B in torsion}
    return sorted(tuple(sorted(H)) for H in subs if len(H) == n)


@pytest.mark.parametrize("spec,r", LAW_LEVELS, ids=[f"{s.p}^{r}" for s, r in LAW_LEVELS])
def test_per_curve_passes_match_the_per_point_routes(spec, r):
    """On every nonsingular curve over F5 and F7, at levels 1 and 2: the
    fixing check passes where the E x Aut_0 scan finds |Aut_0| automorphisms
    fixing each point, it agrees with fixing_witnesses at every point, and
    the torsion walks and closures on codes equal their bodies on points
    through the reference law."""
    for E in _nonsingular_curves(spec):
        Er = base_change(E, r)
        pts, size = ec_points(Er), len(aut0(Er))
        label = render_curve(Er)
        counts = collections.Counter(Q for fixed in reference_scan(Er).values() for Q in fixed)
        assert counts == {Q: size for Q in pts}, label
        assert fixing_counts_ok(Er) is True
        witnesses = fixing_witnesses(Er)
        assert all(len(witnesses[Q]) == size for Q in pts), label
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
    """A fibre table that drops a point fails the per-curve check."""
    E, Q = E_J0, P(E_J0, 2, 3)
    real = elliptic._one_minus_sigma_fibres

    def without_q(curve, v):
        return {image: tuple(R for R in fibre if R != Q) for image, fibre in real(curve, v).items()}

    monkeypatch.setattr(elliptic, "_one_minus_sigma_fibres", without_q)
    assert fixing_counts_ok(E) is False
