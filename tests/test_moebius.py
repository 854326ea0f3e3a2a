import collections
import functools
import itertools
import random
from functools import partial

import pytest

from pglcensus.closure import order
from pglcensus.gfq import (
    FieldSpec,
    _artin_schreier_table,
    _embedding_table,
    _int_code,
    _inverse_cache,
    _projection_table,
    _sqrt_table,
    cpoly_deriv,
    cpoly_divmod,
    cpoly_multiplicity,
    extension_field,
    field_elements,
    field_make,
    parse_element,
    parse_field_spec,
    poly_roots,
)
from pglcensus.moebius import (
    _code_fixed,
    _kernel,
    _pgl2_codes,
    _render_codes,
    mob_compose,
    mob_fixed_points,
    mob_from_three_points,
    mob_infinity_to,
    parse_moebius,
    parse_point_list,
    pp1_infinity,
    render_point,
    transporters,
)
from pglcensus.p1checks import RamPoint, poly_map_ramification, verify_p1fp


def div(spec, a, b):
    """a / b on element codes, b nonzero."""
    return spec._tables.mul(a, _inverse_cache(spec)[b])


def neg(spec, a):
    """-a on element codes."""
    return spec._tables.sub(0, a)


def parse_point(spec, text):
    """One point code: "inf", or the coefficients of an affine coordinate."""
    text = text.strip()
    if text == "inf":
        return pp1_infinity(spec)
    return parse_element(spec, text).code


def embed_point(P, spec, target):
    """The point code P of spec read over the extension target."""
    return target.q if P == spec.q else _embedding_table(spec, target)[P]


F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)
F5 = field_make(5, 1)
F7 = field_make(7, 1)
F8 = field_make(2, 3)
F9 = field_make(3, 2)


def mk(spec, a, b, c, d):
    """The entry codes of the map [[a,b],[c,d]], its entries integers mod p."""
    return _kernel(spec).normalize(*(_int_code(spec, v) for v in (a, b, c, d)))


def pt(spec, x):
    return _int_code(spec, x)


def act(spec, g, P):
    """The image of the point code P under the map g, both over spec."""
    return _kernel(spec).apply(g, P)


def embed(g, spec, target):
    """The map g of spec read over the extension target, entry by entry."""
    emb = _embedding_table(spec, target)
    return tuple(emb[x] for x in g)


def map_order(spec, g):
    """The order of g in PGL2(F_q), by its powers through mob_compose."""
    return order(g, partial(mob_compose, spec), _kernel(spec).identity, spec.q ** 3 - spec.q)


class TestMake:
    def test_identity(self):
        assert mk(F5, 1, 0, 0, 1) == _kernel(F5).identity

    def test_normalization_scales_first_nonzero_to_one(self):
        assert _render_codes(F5, mk(F5, 2, 0, 0, 1)) == "[1,0;0,3]"

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            mk(F5, 1, 1, 1, 1)

    def test_normalization_soundness_random_scalars(self):
        rng = random.Random(11)
        mul = F5._tables.mul
        for g in itertools.islice(_pgl2_codes(F5), 0, 120, 7):
            lam = rng.randrange(1, 5)
            rescaled = _kernel(F5).normalize(*(mul(x, lam) for x in g))
            assert rescaled == g


class TestIdentity:
    """A map is the tuple of its normalized entry codes and a point the code
    of x (q for infinity); neither carries a field."""

    def test_same_codes_over_different_moduli_are_equal(self):
        # codes carry no field, so the container of a map or a point (a
        # subgroup, a query, a witness) holds the field
        Fa = field_make(3, 2, [1, 0, 1])
        Fb = field_make(3, 2, [2, 1, 1])
        text = "[1,0,1,1;0,0,1,0]"
        assert parse_moebius(Fa, text) == parse_moebius(Fb, text)
        assert parse_point(Fa, "1,1") == parse_point(Fb, "1,1")
        assert pp1_infinity(Fa) == pp1_infinity(Fb) == 9

    def test_directly_built_spec_matches_field_make(self):
        shared = field_make(3, 2, [1, 0, 1])
        fresh = FieldSpec(3, 2, (1, 0, 1))
        assert fresh is shared and fresh == shared and hash(fresh) == hash(shared)
        text = "[1,2,0,1;1,1,2,2]"
        assert parse_moebius(shared, text) == parse_moebius(fresh, text)
        assert _kernel(fresh) is _kernel(shared)
        assert parse_point(shared, "2,1") == parse_point(fresh, "2,1")
        assert pp1_infinity(shared) == pp1_infinity(fresh)

    def test_other_types_never_compare_equal(self):
        P, x = pt(F5, 3), parse_element(F5, "3")
        assert P == x.code and P != x
        assert x.__eq__(P) is NotImplemented

    @pytest.mark.parametrize("spec", [F4, F5, F9, field_make(2, 4)], ids=["F4", "F5", "F9", "F16"])
    def test_sets_count_the_group_and_the_line(self, spec):
        # every map permutes the q + 1 point codes
        q = spec.q
        group = set(_pgl2_codes(spec))
        assert len(group) == q ** 3 - q
        apply = _kernel(spec).apply
        for g in itertools.islice(sorted(group), 0, None, q + 1):
            assert sorted(apply(g, x) for x in range(q + 1)) == list(range(q + 1))


class TestApply:
    def test_identity_everywhere(self):
        apply, ident = _kernel(F5).apply, _kernel(F5).identity
        for x in range(F5.q + 1):
            assert apply(ident, x) == x

    def test_translation_fixes_infinity(self):
        assert act(F2, mk(F2, 1, 1, 0, 1), pp1_infinity(F2)) == F2.q

    def test_swap_exchanges_zero_and_infinity(self):
        m = mk(F5, 0, 1, 1, 0)
        assert act(F5, m, pt(F5, 0)) == F5.q
        assert act(F5, m, pp1_infinity(F5)) == pt(F5, 0)

    def test_map_embedded_into_the_point_field(self):
        m = embed(mk(F2, 1, 1, 0, 1), F2, F4)  # x -> x + 1 over F2, read over F4
        image = act(F4, m, 1)  # t, the root of the modulus
        assert render_point(F4, image) == "1,1"  # t + 1

    def test_map_of_another_field_is_refused(self):
        # fields are never enlarged silently: F2's x -> x + 1 has entry
        # code 1, which is not F4's one, and read over F2 the embedded map
        # has codes past the field, so where the field lives, a subgroup's
        # closure and conjugation refuse them
        from pglcensus.stdgroups import close_generators, conjugate_subgroup, std_cyclic

        m = mk(F2, 1, 1, 0, 1)
        with pytest.raises(ValueError, match="not a normalized map"):
            close_generators(F4, [m])
        with pytest.raises(ValueError, match="not a normalized map"):
            close_generators(F2, [embed(m, F2, F4)])
        with pytest.raises(ValueError, match="not a normalized map"):
            conjugate_subgroup(std_cyclic(F4, 3), m)
        assert close_generators(F4, [embed(m, F2, F4)]).order == 2


class TestGroupLaw:
    def test_compose_identity(self):
        for m in _pgl2_codes(F3):
            assert mob_compose(F3, _kernel(F3).identity, m) == m

    def test_translation_inverse(self):
        assert _kernel(F5).inverse(mk(F5, 1, 1, 0, 1)) == mk(F5, 1, 4, 0, 1)

    def test_diagonal_scalars_multiply(self):
        assert mob_compose(F5, mk(F5, 1, 0, 0, 2), mk(F5, 1, 0, 0, 3)) == _kernel(F5).identity

    def test_compose_matches_pointwise_action(self):
        pts = [pt(F5, k) for k in range(5)] + [pp1_infinity(F5)]
        sample = list(itertools.islice(_pgl2_codes(F5), 0, 120, 11))
        for m1, m2 in itertools.product(sample, repeat=2):
            comp = mob_compose(F5, m1, m2)
            for P in pts:
                assert act(F5, comp, P) == act(F5, m1, act(F5, m2, P))

    def test_inverse_is_inverse(self):
        K = _kernel(F4)
        for m in _pgl2_codes(F4):
            assert mob_compose(F4, m, K.inverse(m)) == K.identity


def reference_normalized(spec, a, b, c, d):
    """The entry codes of [[a,b],[c,d]] scaled so that the first nonzero one
    is 1, entry by entry through the field's add, sub and mul, or None when
    the matrix is singular."""
    t = spec._tables
    if not t.sub(t.mul(a, d), t.mul(b, c)):
        return None
    lead = next(x for x in (a, b, c, d) if x)
    return tuple(div(spec, x, lead) for x in (a, b, c, d))


def reference_compose(spec, m1, m2):
    (a1, b1, c1, d1), (a2, b2, c2, d2) = m1, m2
    add, mul = spec._tables.add, spec._tables.mul
    return reference_normalized(
        spec,
        add(mul(a1, a2), mul(b1, c2)),
        add(mul(a1, b2), mul(b1, d2)),
        add(mul(c1, a2), mul(d1, c2)),
        add(mul(c1, b2), mul(d1, d2)),
    )


def reference_inverse(spec, m):
    a, b, c, d = m
    return reference_normalized(spec, d, neg(spec, b), neg(spec, c), a)


class TestCodeArithmetic:
    """PGL2 products, inverses and normalization run on the kernel's arrays;
    they must agree with the reference entry by entry through the field's
    add, sub and mul."""

    @pytest.mark.parametrize("spec", [F2, F3, F4, F5], ids=["F2", "F3", "F4", "F5"])
    def test_every_code_matrix_against_reference(self, spec):
        normalize = _kernel(spec).normalize
        for codes in itertools.product(range(spec.q), repeat=4):
            want = reference_normalized(spec, *codes)
            if want is None:
                with pytest.raises(ValueError, match="singular"):
                    normalize(*codes)
            else:
                assert normalize(*codes) == want, codes

    @pytest.mark.parametrize("spec", [F2, F3, F4, F5], ids=["F2", "F3", "F4", "F5"])
    def test_every_pair_against_reference(self, spec):
        # through mob_compose and through the code law it memoizes
        K = _kernel(spec)
        assert K.identity == (spec.q // spec.p, 0, 0, spec.q // spec.p)
        group = list(_pgl2_codes(spec))
        for m1 in group:
            assert K.inverse(m1) == reference_inverse(spec, m1)
            for m2 in group:
                want = reference_compose(spec, m1, m2)
                assert mob_compose(spec, m1, m2) == want
                assert K.law(m1, m2) == want

    @pytest.mark.parametrize(
        "p, n",
        [(3, 2), (2, 4), (5, 2), (7, 1), (2, 3), (3, 3), (2, 5), (7, 2)],
        ids=["F9", "F16", "F25", "F7", "F8", "F27", "F32", "F49"],
    )
    def test_seeded_pairs_against_reference(self, p, n):
        spec = field_make(p, n)
        K = _kernel(spec)
        assert K.identity == (spec.q // spec.p, 0, 0, spec.q // spec.p)
        rng = random.Random(p * 100 + n)
        group = list(_pgl2_codes(spec))
        for _ in range(400):
            m1, m2 = rng.choice(group), rng.choice(group)
            want = reference_compose(spec, m1, m2)
            assert mob_compose(spec, m1, m2) == want
            assert K.law(m1, m2) == want
            assert K.inverse(m1) == reference_inverse(spec, m1)

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
        law = _kernel(spec).law
        m1, m2 = mk(spec, *x), mk(spec, *y)
        got = law(m1, m2)
        assert got == reference_compose(spec, m1, m2)
        assert [i for i, e in enumerate(got) if not e] == list(zeros)

    def test_negation_in_characteristic_two(self):
        for spec in (F2, F4, F8):
            K = _kernel(spec)
            assert K.neg == list(range(spec.q))
            for m in _pgl2_codes(spec):
                assert K.inverse(m) == reference_inverse(spec, m)

    @pytest.mark.parametrize("spec", [F4, F5], ids=["F4", "F5"])
    def test_apply_and_frame_against_reference(self, spec):
        apply, frame = _kernel(spec).apply, _kernel(spec).frame
        points = range(spec.q + 1)
        for m in _pgl2_codes(spec):
            for P in points:
                assert apply(m, P) == reference_apply(spec, m, P)
        for z in itertools.permutations(points, 3):
            assert frame(*z) == reference_frame(spec, *z)

    @pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (2, 4)], ids=["F8", "F9", "F16"])
    def test_translation_groups_against_reference(self, p, n):
        from pglcensus.census import enum_additive_subgroups, gamma_to_unipotent
        from pglcensus.stdgroups import SubgroupPGL2

        spec = field_make(p, n)
        one, add, mul = spec.q // p, spec._tables.add, spec._tables.mul
        for rank in range(n + 1):
            for gamma in enum_additive_subgroups(spec, rank):
                # each combination of the basis, one reference-normalized
                # matrix per member
                members = []
                for combo in itertools.product(range(p), repeat=rank):
                    acc = 0
                    for c, b in zip(combo, gamma.basis):
                        acc = add(acc, mul(_int_code(spec, c), b))
                    members.append(acc)
                translations = [reference_normalized(spec, one, g, 0, one) for g in members]
                assert gamma.element_codes() == members
                codes = tuple(sorted(translations))
                assert gamma_to_unipotent(gamma) == SubgroupPGL2(spec, codes, f"Zp^{rank}")


class TestOrder:
    def test_identity_order_one(self):
        assert map_order(F5, _kernel(F5).identity) == 1

    @pytest.mark.parametrize("spec", [F2, F3, F5])
    def test_translation_has_order_p(self, spec):
        assert map_order(spec, mk(spec, 1, 1, 0, 1)) == spec.p

    def test_diagonal_root_of_unity_order(self):
        # diag(zeta_4, 1) over F5 with zeta_4 = 2
        assert map_order(F5, mk(F5, 2, 0, 0, 1)) == 4


class TestFixedPoints:
    def test_diagonal_fixes_zero_and_infinity(self):
        fixed = mob_fixed_points(F5, mk(F5, 2, 0, 0, 1), 2)
        keys = {render_point(extension_field(F5, 2), P) for P in fixed}
        assert keys == {"0,0", "inf"}  # rendered over F25

    def test_translation_fixes_only_infinity(self):
        assert mob_fixed_points(F5, mk(F5, 1, 1, 0, 1), 2) == [25]

    def test_inversion_fixes_square_roots_of_minus_one(self):
        fixed = mob_fixed_points(F5, mk(F5, 0, 1, 4, 0), 1)
        assert set(fixed) == {2, 3}

    def test_identity_signalled(self):
        with pytest.raises(ValueError, match="identity"):
            mob_fixed_points(F5, _kernel(F5).identity, 2)

    @pytest.mark.parametrize("spec", [F2, F3, F4, F5, F7, F8])
    def test_one_or_two_fixed_points_iff_order_p(self, spec):
        rep = verify_p1fp(spec)
        assert rep.ok, rep.violations
        assert rep.checked == spec.q ** 3 - spec.q - 1

    def test_scan_makes_no_map_product(self):
        # the scan multiplies entry codes through the kernel's law, off mob_compose's memo
        before = mob_compose.cache_info()
        assert verify_p1fp(F9).ok
        after = mob_compose.cache_info()
        assert after.hits + after.misses == before.hits + before.misses

    def test_violations_render_each_map(self, monkeypatch):
        # with no fixed point found, every map violates the count, and the
        # maps of order p the dichotomy too, in _pgl2_codes order
        import pglcensus.p1checks as p1checks

        monkeypatch.setattr(p1checks, "_code_fixed", lambda spec, r: lambda g: [])
        rep = verify_p1fp(F3)
        maps = [m for m in _pgl2_codes(F3) if m != _kernel(F3).identity]
        want = []
        for m in maps:
            want.append(f"{_render_codes(F3, m)}: 0 fixed points")
            if map_order(F3, m) == 3:
                want.append(f"{_render_codes(F3, m)}: order 3 with 0 fixed points")
        assert rep.violations == tuple(want) and rep.checked == len(maps) == 23

    @pytest.mark.parametrize("spec", [F2, F3, F4, F5, F7, F8, F9])
    def test_closed_form_matches_exhaustive_roots(self, spec):
        # infinity when c = 0, plus the roots poly_roots finds for c x^2 + (d-a) x - b
        ident = _kernel(spec).identity
        for r in (1, 2, 3) if spec.q <= 4 else (1, 2):
            ext = extension_field(spec, r)
            for m in _pgl2_codes(spec):
                if m == ident:
                    continue
                a, b, c, d = m
                quad = [neg(spec, b), spec._tables.sub(d, a), c]
                expected = [x for x, _ in poly_roots(spec, quad, r)]
                if not c:
                    expected.append(pp1_infinity(ext))
                assert mob_fixed_points(spec, m, r) == expected, _render_codes(spec, m)

    @pytest.mark.parametrize("spec", [F4, F5, F9])
    def test_rational_fixed_points_or_a_conjugate_pair_outside(self, spec):
        # a quadratic with one root in F_q has both there, so the level-1
        # fixed points are either all of them or none, and none exactly when
        # the level-2 ones are two points outside F_q
        ident = _kernel(spec).identity
        ext = extension_field(spec, 2)
        for m in _pgl2_codes(spec):
            if m == ident:
                continue
            level1, level2 = mob_fixed_points(spec, m, 1), mob_fixed_points(spec, m, 2)
            outside = [P for P in level2 if P != ext.q and P not in _projection_table(ext, spec)]
            assert (not level1) == (len(outside) == len(level2) == 2), _render_codes(spec, m)
            if level1:
                assert sorted(embed_point(P, spec, ext) for P in level1) == level2

    @pytest.mark.parametrize("spec", [F2, F3, F4, F5])
    def test_conjugation_covariance(self, spec):
        K = _kernel(spec)
        ext = extension_field(spec, 2)
        all_elems = list(_pgl2_codes(spec))
        fixed = {m: set(mob_fixed_points(spec, m, 2)) for m in all_elems if m != K.identity}
        for g in all_elems:
            g_ext = embed(g, spec, ext)  # the fixed points live over F_{q^2}
            g_inv = K.inverse(g)
            for m in all_elems:
                if m == K.identity:
                    continue
                conj = mob_compose(spec, mob_compose(spec, g, m), g_inv)
                moved = {act(ext, g_ext, P) for P in fixed[m]}
                assert moved == fixed[conj]


# The fixed-point route before the kernel on entry codes: the quadratic's
# (B, C), its roots in closed form over F_{q^r} from the square-root and
# Artin-Schreier tables, and a point per root, each step one field
# operation.  The kernel, stabilized_locus and irrational_locus_pairs must
# reproduce it.


def reference_quadratic(spec, m):
    a, b, c, d = m
    if not c:
        return None
    t, inv_c = spec._tables, _inverse_cache(spec)[c]
    return t.mul(t.sub(d, a), inv_c), neg(spec, t.mul(b, inv_c))


def reference_disc(spec, B, C):
    t = spec._tables
    return t.sub(t.mul(B, B), t.mul(_int_code(spec, 4), C))


def reference_quadratic_roots(spec, B, C):
    t = spec._tables
    if spec.p != 2:
        half = _int_code(spec, (spec.p + 1) // 2)
        roots = [t.mul(t.sub(s, B), half) for s in _sqrt_table(spec).get(reference_disc(spec, B, C), ())]
    elif not B:
        roots = _sqrt_table(spec)[C]
    else:
        v = div(spec, C, t.mul(B, B))
        roots = [t.mul(B, y) for y in _artin_schreier_table(spec).get(v, ())]
    return sorted(roots)


def reference_fixed_points(spec, m, r):
    ext = extension_field(spec, r)
    emb = _embedding_table(spec, ext)
    quadratic = reference_quadratic(spec, m)
    if quadratic is None:
        a, b, _, d = m
        d_minus_a = spec._tables.sub(d, a)
        if not d_minus_a:
            return [pp1_infinity(ext)]
        return [emb[div(spec, b, d_minus_a)], pp1_infinity(ext)]
    B, C = (emb[x] for x in quadratic)
    return reference_quadratic_roots(ext, B, C)


def _kernel_case(spec, m, r, fixed):
    """The branch of the kernel a map takes, for the coverage check."""
    a, _, c, d = m
    if not c:
        return "c = 0, d = a" if d == a else "c = 0, d != a"
    B, C = reference_quadratic(spec, m)
    if spec.p == 2:
        return "p = 2, B = 0" if not B else "p = 2, B != 0"
    if r == 2 and fixed and not reference_fixed_points(spec, m, 1):
        return "root embedded at r = 2"
    disc = reference_disc(spec, B, C)
    if not disc:
        return "disc = 0"
    return "nonsquare disc" if disc not in _sqrt_table(spec) else "square disc"


class TestFixedPointKernel:
    FIELDS = ["2^1", "3^1", "2^2", "5^1", "7^1", "2^3", "3^2", "11^1", "13^1", "2^4"]

    def test_every_map_against_reference(self):
        cases = set()
        for text in self.FIELDS:
            spec = parse_field_spec(text)
            ident = _kernel(spec).identity
            for r in (1, 2, 3):
                fixed = _code_fixed(spec, r)
                for m in _pgl2_codes(spec):
                    if m == ident:
                        continue
                    expected = reference_fixed_points(spec, m, r)
                    assert fixed(m) == expected, (text, r, _render_codes(spec, m))
                    assert mob_fixed_points(spec, m, r) == expected
                    cases.add(_kernel_case(spec, m, r, expected))
        assert cases == {
            "c = 0, d = a", "c = 0, d != a", "disc = 0", "nonsquare disc", "square disc",
            "p = 2, B = 0", "p = 2, B != 0", "root embedded at r = 2",
        }

    def test_root_tables_wait_for_a_map_with_c(self):
        # F_19 at r = 2: no other test reads the square roots of F_361
        spec = field_make(19, 1)
        fixed, inf = _code_fixed(spec, 2), spec.q ** 2
        ident = _kernel(spec).identity
        translations = [m for m in _pgl2_codes(spec) if not m[2] and m[0] == m[3] and m != ident]
        assert len(translations) == spec.q - 1
        misses = _sqrt_table.cache_info().misses
        for m in translations:
            assert fixed(m) == [inf]
        assert _sqrt_table.cache_info().misses == misses
        m = mk(spec, 0, 1, 1, 0)
        found = fixed(m)
        assert _sqrt_table.cache_info().misses == misses + 1
        assert found == reference_fixed_points(spec, m, 2)

    def test_quadratic_is_the_reference_one(self):
        for spec in (F4, F5, F9):
            quadratic = _kernel(spec).quadratic
            for m in _pgl2_codes(spec):
                if m[2]:
                    assert quadratic(m) == reference_quadratic(spec, m)


def reference_locus(H, r, complete=False):
    points = set()
    for m in H.codes:
        if m != _kernel(H.spec).identity:
            fixed = reference_fixed_points(H.spec, m, r)
            if complete and not fixed:
                return None
            points.update(fixed)
    return tuple(sorted(points))


def reference_pairs(H):
    quadratics = (reference_quadratic(H.spec, m) for m in H.codes)
    return {(B, C) for B, C in filter(None, quadratics) if not reference_quadratic_roots(H.spec, B, C)}


@pytest.mark.parametrize("text", ["2^2", "3^1", "5^1", "7^1", "2^3", "3^2"])
def test_loci_and_pairs_against_reference_on_seeded_subgroups(text):
    from pglcensus.stdgroups import _code_locus, close_generators, irrational_locus_pairs, stabilized_locus

    spec = parse_field_spec(text)
    rng = random.Random(spec.q)
    elems = list(_pgl2_codes(spec))
    identity = _kernel(spec).identity
    sizes, leaves = set(), set()
    for _ in range(12):
        H = close_generators(spec, rng.sample(elems, rng.choice((1, 1, 2))))
        sizes.add(H.order)
        leaves.add(_code_locus(H.codes, identity, _code_fixed(spec, 1), complete=True) is None)
        for r in (1, 2):
            assert stabilized_locus(H, r) == reference_locus(H, r), (H, r)
            whole = _code_locus(H.codes, identity, _code_fixed(spec, r), complete=True)
            assert whole == reference_locus(H, r, complete=True), (H, r)
        assert irrational_locus_pairs(H) == reference_pairs(H), H
    # groups of several orders, with loci inside F_q and leaving it
    assert len(sizes) > 2 and leaves == {False, True}


class TestThreePoints:
    def triple(self, spec, *xs):
        return tuple(pp1_infinity(spec) if x == "inf" else pt(spec, x) for x in xs)

    def test_identity_from_same_triple(self):
        tri = self.triple(F5, 0, 1, "inf")
        assert mob_from_three_points(F5, tri, tri) == _kernel(F5).identity

    def test_zero_one_inf_to_inf_one_zero_is_inversion(self):
        m = mob_from_three_points(F5, self.triple(F5, 0, 1, "inf"), self.triple(F5, "inf", 1, 0))
        assert act(F5, m, pt(F5, 0)) == F5.q
        assert act(F5, m, pt(F5, 1)) == pt(F5, 1)
        assert act(F5, m, pp1_infinity(F5)) == pt(F5, 0)
        assert m == mk(F5, 0, 1, 1, 0)

    # each case one input: a repeated source or destination point, and a
    # source or destination short of three points
    @pytest.mark.parametrize(
        "src, dst, match",
        [
            ((0, 1, "inf"), (1, 1, "inf"), "destination points must be pairwise distinct"),
            (("inf", 0, "inf"), (0, 1, "inf"), "source points must be pairwise distinct"),
            ((0, 1), (0, 1, "inf"), "exactly three"),
            ((0, 1, "inf"), (0, "inf"), "exactly three"),
        ],
        ids=["repeated-destination", "repeated-source", "two-sources", "two-destinations"],
    )
    def test_repeated_or_missing_point_rejected(self, src, dst, match):
        with pytest.raises(ValueError, match=match):
            mob_from_three_points(F5, self.triple(F5, *src), self.triple(F5, *dst))

    @pytest.mark.parametrize("spec", [F2, F3, F4, F5])
    def test_bijection_with_ordered_triples(self, spec):
        # the map m -> (m(0), m(1), m(inf)) is a bijection onto distinct triples
        base = self.triple(spec, 0, 1, "inf")
        images = {}
        for m in _pgl2_codes(spec):
            img = tuple(act(spec, m, P) for P in base)
            assert img not in images
            images[img] = m
            assert mob_from_three_points(spec, base, img) == m
        points = range(spec.q + 1)
        n_triples = len(points) * (len(points) - 1) * (len(points) - 2)
        assert len(images) == n_triples == spec.q ** 3 - spec.q


class TestTransporters:
    """transporters(L0, S) against a scan of PGL2(F_q) for every g with
    g(L0) = S, on seeded loci of each size k."""

    CASES = [(spec, k) for spec in (F3, F4, F5, F7) for k in sorted({2, 3, 4, spec.q + 1})]

    @staticmethod
    def loci(spec, k):
        rng = random.Random(1000 * spec.q + k)
        points = list(range(spec.q + 1))
        return [(rng.sample(points, k), rng.sample(points, k)) for _ in range(3)]

    @staticmethod
    def scanned(spec, L0, S):
        return [g for g in _pgl2_codes(spec) if {act(spec, g, P) for P in L0} == set(S)]

    @pytest.mark.parametrize("spec,k", CASES, ids=lambda c: str(getattr(c, "q", c)))
    def test_against_scan(self, spec, k):
        for L0, S in self.loci(spec, k):
            reps = list(transporters(spec, L0, S))
            expected = self.scanned(spec, L0, S)
            if k >= 3:
                assert len(reps) == len(set(reps))
                assert set(reps) == set(expected)
                continue
            # a pair: each transporter is g0 t for exactly one yielded g0
            # and one t fixing L0 pointwise
            assert set(reps) <= set(expected)
            fix = [t for t in _pgl2_codes(spec) if all(act(spec, t, P) == P for P in L0)]
            for g in expected:
                splits = [(g0, t) for g0 in reps for t in fix if mob_compose(spec, g0, t) == g]
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
        return H.codes, list(stabilized_locus(H, 1))

    @pytest.mark.parametrize("spec,tag", MODELS, ids=lambda c: str(getattr(c, "q", c)))
    def test_one_map_per_coset_of_the_model(self, spec, tag):
        H, L0 = self.model(spec, tag)
        rng = random.Random(1000 * spec.q + len(H))
        move = rng.choice(list(_pgl2_codes(spec)))
        moved = sorted({act(spec, move, P) for P in L0})
        for S in (moved, rng.sample(range(spec.q + 1), len(L0))):
            plain = list(transporters(spec, L0, S))
            reps = list(transporters(spec, L0, S, H))
            cosets = [{mob_compose(spec, g, h) for h in H} for g in reps]
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
        points = list(range(F7.q + 1))
        with pytest.raises(ValueError, match="stabilize"):
            list(transporters(F7, points[:4], points[:4], H))

    def test_sizes_must_agree(self):
        points = list(range(F5.q + 1))
        assert list(transporters(F5, points[:3], points[:4])) == []

    # each case one input: a repeated point in L0 or S, of a pair or of a
    # triple, and loci of one point
    @pytest.mark.parametrize(
        "L0, S, match",
        [
            ((0, 0), (1, 2), "source points must be pairwise distinct"),
            ((0, 1), (5, 5), "destination points must be pairwise distinct"),
            ((0, 1, 5), (2, 2, 3), "destination points must be pairwise distinct"),
            ((0,), (1,), "at least two points"),
        ],
        ids=["repeated-source-pair", "repeated-destination-pair", "repeated-destination-triple", "single-point"],
    )
    def test_repeated_or_too_few_points_rejected(self, L0, S, match):
        with pytest.raises(ValueError, match=match):
            list(transporters(F5, L0, S))


# transporters as it was before it ran on the kernel: the point-level body,
# with the three-point map and point action it used, one field operation at
# a time; each map is kept as its entry codes, as transporters yields them


def reference_apply(spec, m, P):
    a, b, c, d = m
    t = spec._tables
    if P == spec.q:
        return pp1_infinity(spec) if not c else div(spec, a, c)
    num = t.add(t.mul(a, P), b)
    den = t.add(t.mul(c, P), d)
    return pp1_infinity(spec) if not den else div(spec, num, den)


def reference_frame(spec, z1, z2, z3):
    """The unnormalized entries [[y1 d23, -x1 d23], [y3 d21, -x3 d21]] of the
    map sending z1, z2, z3 to 0, 1, inf, with z = [x:y] and inf = [1:0]."""
    t, one = spec._tables, spec.q // spec.p
    (x1, y1), (x2, y2), (x3, y3) = ((one, 0) if z == spec.q else (z, one) for z in (z1, z2, z3))
    d23 = t.sub(t.mul(x2, y3), t.mul(y2, x3))
    d21 = t.sub(t.mul(x2, y1), t.mul(y2, x1))
    return t.mul(y1, d23), neg(spec, t.mul(x1, d23)), t.mul(y3, d21), neg(spec, t.mul(x3, d21))


def reference_to_zero_one_inf(spec, z1, z2, z3):
    return reference_normalized(spec, *reference_frame(spec, z1, z2, z3))


def reference_from_three_points(spec, src, dst):
    back = reference_inverse(spec, reference_to_zero_one_inf(spec, *dst))
    return reference_compose(spec, back, reference_to_zero_one_inf(spec, *src))


def reference_transporters(spec, L0, S, H=()):
    if len(L0) != len(S):
        return
    if len(L0) == 2:
        src = (L0[0], L0[1], next(P for P in range(spec.q + 1) if P not in L0))
        third = next(P for P in range(spec.q + 1) if P not in S)
        for first, second in ((S[0], S[1]), (S[1], S[0])):
            yield reference_from_three_points(spec, src, (first, second, third))
        return
    where = {P: i for i, P in enumerate(L0)}
    perms = {tuple(where[reference_apply(spec, h, P)] for P in L0)[:3] for h in H}
    targets = set(S)
    covered = set()
    for dst in itertools.permutations(S, 3):
        if dst in covered:
            continue
        g = reference_from_three_points(spec, L0[:3], dst)
        image = list(dst)
        for P in L0[3:]:
            image.append(reference_apply(spec, g, P))
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
                return _kernel(spec).normalize(*(rng.choice(elems) for _ in range(4)))
            except ValueError:  # singular
                continue

    @pytest.mark.parametrize("field,tag,r", MODELS, ids=lambda c: str(c))
    def test_same_maps_in_the_same_order(self, field, tag, r):
        from pglcensus.census import _standard_models, parse_group_id
        from pglcensus.stdgroups import stabilized_locus, subgroup_embed

        spec = parse_field_spec(field)
        (H0,) = _standard_models(spec, *parse_group_id(tag))
        search = extension_field(spec, r)
        H, L0 = subgroup_embed(H0, search), list(stabilized_locus(H0, r))
        assert r == 1 or len(stabilized_locus(H0, 1)) < len(L0)
        rng = random.Random(f"{field}:{tag}")
        g = embed(self.random_map(rng, spec), spec, search)
        moved = sorted({act(search, g, P) for P in L0})
        for S in (moved, rng.sample(range(search.q + 1), len(L0))):
            for members in ((), H.codes):
                want = list(reference_transporters(search, L0, S, members))
                assert list(transporters(search, L0, S, members)) == want
        assert list(transporters(search, L0, moved, H.codes))  # g's coset at least


def reference_ramification(spec, f, r):
    """poly_map_ramification by the scan of every x0 in F_{q^r}: divide f by
    t - x0, and x0 ramifies with index 1 + its multiplicity in the quotient
    when that is at least 2.  The reference for the scan of the roots of f'.
    f is a code polynomial with a nonzero leading code."""
    deg = len(f) - 1
    ext = extension_field(spec, r)
    emb = _embedding_table(spec, ext)
    f = [emb[c] for c in f]
    one = ext.q // ext.p
    out = []
    for x0 in range(ext.q):
        g = cpoly_divmod(ext, f, [neg(ext, x0), one])[0]
        e = 1 + cpoly_multiplicity(ext, g, x0)
        if e > 1:
            out.append(RamPoint(x0, e, e % spec.p != 0))
    out.append(RamPoint(pp1_infinity(ext), deg, deg % spec.p != 0))
    return out


class TestRamification:
    def poly(self, spec, *ints):
        return [_int_code(spec, k) for k in ints]

    @pytest.mark.parametrize("spec", [F2, F3, F4], ids=["2^1", "3^1", "2^2"])
    def test_roots_of_the_derivative_match_the_scan(self, spec):
        """Every monic polynomial of degree 2 to 5, at levels 1 and 2: the
        same points, indices and tameness as the scan of every element, and
        the same refusal of an inseparable map.  The sample has wild affine
        points (p | e) at both levels."""
        wild = collections.Counter()
        for deg in range(2, 6):
            for low in itertools.product(field_elements(spec), repeat=deg):
                coeffs = [*low, spec.q // spec.p]
                if not cpoly_deriv(spec, coeffs):
                    with pytest.raises(ValueError, match="inseparable"):
                        poly_map_ramification(spec, coeffs, 1)
                    continue
                for r in (1, 2):
                    ram = poly_map_ramification(spec, coeffs, r)
                    assert ram == reference_ramification(spec, coeffs, r), (coeffs, r)
                    wild[r] += sum(not R.tame for R in ram[:-1])
        assert wild[1] and wild[2]

    def test_squaring_map(self):
        ram = poly_map_ramification(F5, self.poly(F5, 0, 0, 1), 1)
        assert [(render_point(F5, r.point), r.index, r.tame) for r in ram] == [
            ("0", 2, True),
            ("inf", 2, True),
        ]

    def test_frobenius_rejected(self):
        with pytest.raises(ValueError, match="[Ii]nseparable"):
            poly_map_ramification(F3, self.poly(F3, 0, 0, 0, 1), 1)

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            poly_map_ramification(F5, self.poly(F5, 1, 1), 1)
        with pytest.raises(ValueError, match="degree 0"):
            poly_map_ramification(F5, self.poly(F5, 1, 0, 0), 1)  # trailing zero codes are dropped

    def test_empty_coefficient_list_rejected(self):
        with pytest.raises(ValueError, match="at least one coefficient"):
            poly_map_ramification(F5, [], 1)

    def test_family_member_over_F3(self):
        # x^5 + x at level 2: infinity with index 5, four points of index 2
        ram = poly_map_ramification(F3, self.poly(F3, 0, 1, 0, 0, 0, 1), 2)
        inf = [r for r in ram if r.point == F9.q]
        fin = [r for r in ram if r.point != F9.q]
        assert len(inf) == 1 and inf[0].index == 5 and inf[0].tame
        assert len(fin) == 4 and all(r.index == 2 and r.tame for r in fin)
        # the finite points are exactly the fourth roots of unity in F9
        for r in fin:
            assert functools.reduce(F9._tables.mul, [r.point] * 4) == F9.q // F9.p

    @pytest.mark.parametrize("p", [3, 5])
    def test_family_locus_independent_of_t(self, p):
        spec = field_make(p, 1)
        loci = []
        for t_val in range(p):
            coeffs = [0] * (p + 3)
            coeffs[1] = 1          # x
            coeffs[p] = t_val      # t x^p
            coeffs[p + 2] = 1      # x^{p+2}
            ram = poly_map_ramification(spec, coeffs, 2)
            loci.append(tuple((render_point(extension_field(spec, 2), r.point), r.index, r.tame) for r in ram))
        assert len(set(loci)) == 1


class TestTextFormats:
    def test_moebius_round_trip_prime_field(self):
        for m in _pgl2_codes(F5):
            assert parse_moebius(F5, _render_codes(F5, m)) == m

    def test_moebius_round_trip_extension_field(self):
        for m in itertools.islice(_pgl2_codes(F4), 0, 60, 7):
            assert parse_moebius(F4, _render_codes(F4, m)) == m

    def test_point_list_mixed(self):
        pts = parse_point_list(F4, "0,1,1,1,inf")
        assert pts == [1, 3, 4] and [render_point(F4, P) for P in pts] == ["0,1", "1,1", "inf"]

    def test_point_round_trip(self):
        for P in range(F9.q + 1):
            assert parse_point(F9, render_point(F9, P)) == P
        assert parse_point(F9, "inf") == F9.q

    def test_sorted_with_infinity_last(self):
        pts = [pp1_infinity(F5)] + [pt(F5, k) for k in (3, 1)]
        assert [render_point(F5, P) for P in sorted(pts)] == ["1", "3", "inf"]


@pytest.mark.parametrize("spec", [F5, F8, F9], ids=["F5", "F8", "F9"])
def test_infinity_to_moves_infinity_onto_every_point(spec):
    for P in range(spec.q + 1):
        assert act(spec, mob_infinity_to(spec, P), pp1_infinity(spec)) == P
