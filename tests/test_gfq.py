import copy
import itertools
import math
import pickle
import random
import subprocess
import sys

import pytest

from pglcensus.closure import is_prime
from pglcensus.gfq import (
    FieldSpec,
    FqElem,
    _auto_modulus,
    _is_irreducible,
    cpoly_chi_disc,
    cpoly_chi_res,
    cpoly_ddf,
    cpoly_deriv,
    cpoly_divmod,
    cpoly_gcd,
    cpoly_mul,
    cpoly_powmod,
    field_elements,
    field_make,
    fp_echelon,
    fq_add,
    fq_embed,
    fq_from_coeffs,
    fq_from_int,
    fq_gen,
    fq_inv,
    fq_mul,
    fq_neg,
    fq_one,
    fq_pow,
    fq_project,
    fq_sub,
    fq_zero,
    extension_field,
    minimal_extension_for_unity,
    parse_element,
    parse_field_spec,
    poly_roots,
    primitive_root_of_unity,
    render_element,
    render_field_spec,
    roots_of_unity,
    subfield_elements,
)
from pglcensus.moebius import _code_fixed, _kernel

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)
F5 = field_make(5, 1)
F8 = field_make(2, 3)
F9 = field_make(3, 2)


def els(spec, *ints):
    return [fq_from_int(spec, k) for k in ints]


class TestFieldMake:
    def test_prime_field_auto_modulus_is_x(self):
        assert F2.modulus == (0, 1)

    def test_explicit_irreducible_modulus_accepted(self):
        spec = field_make(2, 2, [1, 1, 1])
        assert spec.modulus == (1, 1, 1)
        assert spec == F4  # auto picks the same polynomial

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError, match="reducible"):
            field_make(2, 2, [0, 0, 1])  # t^2 = t * t

    def test_nonprime_characteristic_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            field_make(6, 1)

    def test_q_derived(self):
        assert F9.q == 9 and F8.q == 8

    def test_auto_modulus_is_lexicographically_smallest(self):
        # oracle: filter the full candidate list
        for spec in (F4, F8, F9):
            p, n = spec.p, spec.n
            winner = None
            for tail in itertools.product(range(p), repeat=n):
                cand = tail + (1,)
                try:
                    FieldSpec(p, n, cand)
                except ValueError:
                    continue
                winner = cand
                break
            assert spec.modulus == winner


def fp_remainder(a, b, p):
    """The remainder of a by the monic b over F_p (int tuples, constant term
    first), by long division."""
    a = list(a)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        for j, d in enumerate(b):
            a[i + j] = (a[i + j] - c * d) % p
    return a[: len(b) - 1]


def trial_division_irreducible(f, p):
    """The reference: the monic f of degree n >= 1 is irreducible over F_p iff
    no monic polynomial of degree 1 to n/2 divides it."""
    n = len(f) - 1
    return not any(
        not any(fp_remainder(f, tail + (1,), p))
        for d in range(1, n // 2 + 1)
        for tail in itertools.product(range(p), repeat=d)
    )


def monic_polynomials(p, n):
    return [tail + (1,) for tail in itertools.product(range(p), repeat=n)]


def mobius_mu(n):
    primes = [l for l in range(2, n + 1) if n % l == 0 and is_prime(l)]
    if any(n % (l * l) == 0 for l in primes):
        return 0
    return (-1) ** len(primes)


# the largest degree checked over each small prime: 4,756 monic polynomials
IRREDUCIBILITY_DEGREES = {2: 9, 3: 6, 5: 4, 7: 3, 11: 3}


@pytest.mark.parametrize("p", sorted(IRREDUCIBILITY_DEGREES))
def test_irreducibility_against_trial_division_and_gauss(p):
    for n in range(1, IRREDUCIBILITY_DEGREES[p] + 1):
        irreducible = 0
        for f in monic_polynomials(p, n):
            got = _is_irreducible(f, p)
            assert got == trial_division_irreducible(f, p), (p, f)
            irreducible += got
        # Gauss: (1/n) sum_{d | n} mu(d) p^(n/d) monic irreducibles of degree n
        gauss = sum(mobius_mu(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
        assert irreducible == gauss, (p, n)


# every p^n <= 3^6
SMALL_PN = [(p, n) for p in range(2, 730) if is_prime(p) for n in range(1, 10) if p**n <= 3**6]


def test_auto_modulus_equals_the_full_lexicographic_search():
    """The search skips the candidates with c0 = 0 (divisible by x) for n >= 2."""
    for p, n in SMALL_PN:
        full = next(f for f in monic_polynomials(p, n) if trial_division_irreducible(f, p))
        assert _auto_modulus(p, n) == full, (p, n)
    assert len(SMALL_PN) == 152  # 129 primes and 23 proper powers


class TestInterning:
    """Each field is one FieldSpec object, so specs compare by identity."""

    def test_constructor_returns_the_field_make_spec(self):
        assert FieldSpec(3, 2, (1, 0, 1)) is field_make(3, 2, [1, 0, 1])

    def test_explicit_auto_modulus_is_the_auto_spec(self):
        assert field_make(2, 2, [1, 1, 1]) is field_make(2, 2)

    def test_extension_field_is_the_auto_spec(self):
        assert extension_field(field_make(2, 2), 2) is field_make(2, 4)

    def test_copies_are_the_spec(self):
        assert copy.deepcopy(F9) is F9 and pickle.loads(pickle.dumps(F9)) is F9

    def test_each_modulus_is_tested_once(self):
        """In a fresh process, field_make(2, 8) tests the auto modulus it
        returns once (the search interns its spec), and an unpickled spec with
        an explicit modulus is still tested, once."""
        script = (
            "import pickle, sys\n"
            "from pglcensus import gfq\n"
            "seen, test = [], gfq._is_irreducible\n"
            "gfq._is_irreducible = lambda f, p: seen.append(tuple(f)) or test(f, p)\n"
            "auto = gfq.field_make(2, 8)\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "print(seen.count(auto.modulus), seen.count(loaded.modulus))\n"
        )
        explicit = pickle.dumps(field_make(3, 2, [2, 1, 1]))
        run = subprocess.run([sys.executable, "-c", script], input=explicit, capture_output=True, check=True, timeout=60)
        assert run.stdout.split() == [b"1", b"1"]

    @pytest.mark.parametrize("name", ["p", "q", "modulus", "other"])
    def test_attributes_cannot_be_assigned(self, name):
        with pytest.raises(AttributeError):
            setattr(F9, name, 3)
        assert (F9.p, F9.n, F9.q, F9.modulus) == (3, 2, 9, (1, 0, 1))

    def test_reducible_modulus_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="reducible"):
                FieldSpec(2, 2, (0, 0, 1))
            with pytest.raises(ValueError, match="reducible"):
                field_make(2, 2, [0, 0, 1])

    @pytest.mark.parametrize("p, n, modulus", [(2, 2, [1, 1, 3]), (3, 2, [-2, 0, 1]), (5, 1, [5, 1])])
    def test_out_of_range_modulus_coefficients_are_rejected_not_reduced(self, p, n, modulus):
        with pytest.raises(ValueError, match=r"\[0, "):
            field_make(p, n, modulus)


class TestArithmeticExamples:
    def test_add_char2(self):
        t = fq_gen(F4)
        assert fq_add(t, t) == fq_zero(F4)

    def test_add_mod5(self):
        a, b = els(F5, 3, 4)
        assert fq_add(a, b) == fq_from_int(F5, 2)

    def test_add_basis(self):
        t = fq_gen(F4)
        assert fq_add(t, fq_one(F4)).coeffs == (1, 1)

    def test_mul_reduction(self):
        t = fq_gen(F4)
        assert fq_mul(t, fq_add(t, fq_one(F4))) == fq_one(F4)
        assert fq_mul(t, t).coeffs == (1, 1)  # t^2 = t + 1

    def test_mul_identity(self):
        for x in field_elements(F9):
            assert fq_mul(x, fq_one(F9)) == x

    def test_inv(self):
        t = fq_gen(F4)
        assert fq_inv(fq_one(F4)) == fq_one(F4)
        assert fq_inv(t).coeffs == (1, 1)
        with pytest.raises(ZeroDivisionError):
            fq_inv(fq_zero(F4))

    def test_spec_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            fq_add(fq_one(F4), fq_one(F5))


class TestFieldAxioms:
    @pytest.mark.parametrize("spec", [F2, F3, F4, F5, F8, F9], ids=lambda s: f"q{s.q}")
    def test_axioms_exhaustive(self, spec):
        xs = field_elements(spec)
        zero, one = fq_zero(spec), fq_one(spec)
        for a in xs:
            assert fq_add(a, zero) == a
            assert fq_mul(a, one) == a
            if not a.is_zero():
                assert fq_mul(a, fq_inv(a)) == one
        for a, b in itertools.product(xs, repeat=2):
            assert fq_add(a, b) == fq_add(b, a)
            assert fq_mul(a, b) == fq_mul(b, a)
        for a, b, c in itertools.product(xs, repeat=3):
            assert fq_add(fq_add(a, b), c) == fq_add(a, fq_add(b, c))
            assert fq_mul(fq_mul(a, b), c) == fq_mul(a, fq_mul(b, c))
            assert fq_mul(a, fq_add(b, c)) == fq_add(fq_mul(a, b), fq_mul(a, c))

    @pytest.mark.parametrize(
        "spec", [F2, F3, F4, F5, F8, F9, field_make(2, 4), field_make(2, 6), field_make(7, 1)],
        ids=lambda s: f"q{s.q}",
    )
    def test_frobenius_and_xq(self, spec):
        p, q = spec.p, spec.q
        xs = field_elements(spec)
        for a in xs:
            assert fq_pow(a, q) == a
        for a, b in itertools.product(xs, repeat=2):
            assert fq_pow(fq_add(a, b), p) == fq_add(fq_pow(a, p), fq_pow(b, p))
            assert fq_pow(fq_mul(a, b), p) == fq_mul(fq_pow(a, p), fq_pow(b, p))


class TestEmbeddings:
    def test_prime_subfield(self):
        assert fq_embed(fq_one(F2), F4) == fq_one(F4)

    def test_generator_goes_to_first_root(self):
        F16 = field_make(2, 4)
        t = fq_gen(F4)
        img = fq_embed(t, F16)
        # oracle: scan F16 for roots of t^2 + t + 1 in canonical order
        roots = [
            x
            for x in field_elements(F16)
            if fq_add(fq_add(fq_mul(x, x), x), fq_one(F16)).is_zero()
        ]
        assert img == roots[0]

    def test_incompatible_degrees_rejected(self):
        with pytest.raises(ValueError, match="does not divide"):
            fq_embed(fq_gen(F4), F8)
        with pytest.raises(ValueError, match="characteristic"):
            fq_embed(fq_one(F4), F9)

    @pytest.mark.parametrize("src,dst", [(F2, F4), (F4, field_make(2, 4)), (F3, F9)])
    def test_embedding_is_a_homomorphism(self, src, dst):
        for a, b in itertools.product(field_elements(src), repeat=2):
            assert fq_embed(fq_add(a, b), dst) == fq_add(fq_embed(a, dst), fq_embed(b, dst))
            assert fq_embed(fq_mul(a, b), dst) == fq_mul(fq_embed(a, dst), fq_embed(b, dst))

    def test_project_inverts_embed(self):
        F16 = field_make(2, 4)
        for a in field_elements(F4):
            assert fq_project(fq_embed(a, F16), F4) == a
        # an element outside the subfield projects to None
        outside = next(
            x for x in field_elements(F16) if fq_project(x, F4) is None
        )
        assert fq_pow(outside, 4) != outside

    def test_extension_field_levels(self):
        assert extension_field(F5, 1) == F5
        assert extension_field(F4, 2) == field_make(2, 4)


class TestRootsOfUnity:
    def test_mu3_in_F4(self):
        roots, primitive = roots_of_unity(F4, 3)
        assert {render_element(x) for x in roots} == {"1,0", "0,1", "1,1"}
        assert primitive

    def test_mu4_in_F5(self):
        roots, primitive = roots_of_unity(F5, 4)
        assert [x.coeffs[0] for x in roots] == [1, 2, 3, 4]
        assert primitive

    def test_mu1(self):
        for spec in (F4, F5, F9):
            roots, primitive = roots_of_unity(spec, 1)
            assert roots == [fq_one(spec)] and primitive

    def test_zero_n_rejected(self):
        with pytest.raises(ValueError):
            roots_of_unity(F5, 0)

    @pytest.mark.parametrize("spec", [F3, F4, F5, F8, F9])
    def test_cardinality_is_gcd(self, spec):
        for n in range(1, 13):
            roots, _ = roots_of_unity(spec, n)
            assert len(roots) == math.gcd(n, spec.q - 1)

    def test_primitive_root_errors_name_minimal_extension(self):
        with pytest.raises(ValueError) as err:
            primitive_root_of_unity(F5, 3)  # 3 | 25 - 1 but not 5 - 1
        assert str(err.value) == "no primitive root of unity of order 3 in F_5^1; minimal sufficient extension degree is 2"
        assert minimal_extension_for_unity(F5, 3) == 2
        with pytest.raises(ValueError) as err:
            primitive_root_of_unity(F5, 100000007)
        assert str(err.value) == (
            "no primitive root of unity of order 100000007 in F_5^1; "
            "minimal sufficient extension degree none up to degree 64"
        )
        assert minimal_extension_for_unity(F5, 100000007) is None
        with pytest.raises(ValueError, match="characteristic"):
            primitive_root_of_unity(F5, 5)


class TestPolyRoots:
    def test_quadratic_over_F5(self):
        f = els(F5, 1, 0, 1)  # x^2 + 1
        roots = poly_roots(f, 1)
        assert [(x.coeffs[0], m) for x, m in roots] == [(2, 1), (3, 1)]

    def test_double_root(self):
        f = [fq_zero(F5), fq_zero(F5), fq_one(F5)]  # x^2
        assert poly_roots(f, 1) == [(fq_zero(F5), 2)]

    def test_roots_appear_in_the_right_extension(self):
        f = els(F2, 1, 1, 1)  # x^2 + x + 1
        assert poly_roots(f, 1) == []
        roots = poly_roots(f, 2)
        assert {x.coeffs for x, _ in roots} == {(0, 1), (1, 1)}
        assert all(m == 1 for _, m in roots)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            poly_roots([fq_zero(F5)], 1)

    def test_multiplicities_sum_to_degree_when_split(self):
        # (x - 1)^2 (x - 2) over F5
        one, two = els(F5, 1, 2)
        f = els(F5, (-2) % 5, 5, (2 * 1 + 1 * 2 + 1 * 1) % 5, 1)
        # build honestly by multiplying out instead
        def polymul(a, b):
            out = [fq_zero(F5)] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    out[i + j] = fq_add(out[i + j], fq_mul(ai, bj))
            return out

        lin1 = [fq_sub(fq_zero(F5), one), fq_one(F5)]
        lin2 = [fq_sub(fq_zero(F5), two), fq_one(F5)]
        f = polymul(polymul(lin1, lin1), lin2)
        roots = dict((x.coeffs[0], m) for x, m in poly_roots(f, 1))
        assert roots == {1: 2, 2: 1}

    @pytest.mark.parametrize("spec", [F4, F5, F9], ids=render_field_spec)
    def test_known_roots_and_multiplicities(self, spec):
        """lead * prod (x - r)^m times a cubic with no root in F_{q^2}."""
        rng = random.Random(spec.q)
        one, ext = fq_one(spec).code, extension_field(spec, 2)
        cubics = [list(t) + [one] for t in itertools.product(range(spec.q), repeat=3)]
        cubics = [c for c in cubics if not scan_roots(spec, c, 2)]
        for _ in range(20):
            mults = {x: rng.randrange(1, 4) for x in rng.sample(field_elements(spec), rng.randrange(4))}
            lead = FqElem(spec, rng.randrange(1, spec.q))
            split = from_roots(spec, lead, [x for x, m in mults.items() for _ in range(m)])
            f = as_elems(spec, cpoly_mul(spec, split, rng.choice(cubics)))
            assert poly_roots(f, 1) == sorted(mults.items(), key=lambda xm: xm[0].code)
            embedded = [(fq_embed(x, ext), m) for x, m in mults.items()]
            assert poly_roots(f, 2) == sorted(embedded, key=lambda xm: xm[0].code)

    def test_coefficients_from_two_fields_rejected(self):
        with pytest.raises(ValueError, match="field mismatch"):
            poly_roots([fq_one(F4), fq_one(field_make(2, 4))], 1)


def quadratic_map(B, C):
    """A map over the field of B and C whose affine fixed points are the
    roots of x^2 + Bx + C: [a, -C; 1, B + a] for the least a with
    a(B + a) + C != 0, or None when every such matrix is singular."""
    spec = B.spec
    for a in field_elements(spec):
        if not fq_add(fq_mul(a, fq_add(B, a)), C).is_zero():
            return _kernel(spec).normalize(a.code, fq_neg(C).code, fq_one(spec).code, fq_add(B, a).code)
    return None


def kernel_roots(B, C, r=1):
    """The roots of x^2 + Bx + C in F_{q^r}, from the kernel's fixed points."""
    ext = extension_field(B.spec, r)
    return [field_elements(ext)[x] for x in _code_fixed(B.spec, r)(quadratic_map(B, C))]


class TestMonicQuadraticRoots:
    # the roots of a monic quadratic are the affine fixed points of a map,
    # which moebius._code_fixed finds in closed form from this module's
    # square-root and Artin-Schreier tables

    def test_double_root_in_odd_characteristic(self):
        assert kernel_roots(fq_zero(F5), fq_zero(F5)) == [fq_zero(F5)]  # x^2

    def test_unique_square_root_in_characteristic_two(self):
        assert kernel_roots(fq_zero(F4), fq_one(F4)) == [fq_one(F4)]  # x^2 + 1

    def test_irreducible_has_no_roots_until_extended(self):
        two = fq_from_int(F3, 2)
        minus_two = fq_sub(fq_zero(F3), two)
        assert kernel_roots(fq_zero(F3), minus_two) == []  # x^2 - 2
        roots = kernel_roots(fq_zero(F3), minus_two, 2)
        assert [fq_mul(x, x) for x in roots] == [fq_embed(two, F9)] * 2

    def test_two_roots_in_characteristic_two_with_linear_term(self):
        one = fq_one(F4)
        roots = kernel_roots(one, one)  # x^2 + x + 1
        assert [x.coeffs for x in roots] == [(0, 1), (1, 1)]

    @pytest.mark.parametrize("spec", [F2, F3, F4, F5, F8, F9])
    def test_matches_exhaustive_roots_on_every_monic_quadratic(self, spec):
        # x^2 + x over F2 is the one quadratic no map of PGL2 has: its fixed
        # points 0 and 1 force ad = 0
        skipped = []
        for B, C in itertools.product(field_elements(spec), repeat=2):
            if quadratic_map(B, C) is None:
                skipped.append((B.code, C.code))
                continue
            expected = [x for x, _ in poly_roots([C, B, fq_one(spec)], 1)]
            assert kernel_roots(B, C) == expected
        assert skipped == ([(1, 0)] if spec.q == 2 else [])


class TestEchelon:
    def test_canonical_form_is_span_invariant(self):
        rng = random.Random(7)
        p, n = 2, 4
        for _ in range(50):
            vecs = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(3)]
            base = fp_echelon(vecs, p)
            # a different spanning set: sums of pairs plus originals, shuffled
            alt = list(vecs) + [
                tuple((a + b) % p for a, b in zip(vecs[0], vecs[1])),
                tuple((a + b) % p for a, b in zip(vecs[1], vecs[2])),
            ]
            rng.shuffle(alt)
            assert fp_echelon(alt, p) == base

    def test_drops_zero_rows(self):
        assert fp_echelon([(0, 0), (1, 1)], 2) == ((1, 1),)


class TestTextFormats:
    @pytest.mark.parametrize("spec", [F2, F5, F4, F9, field_make(2, 2, [1, 1, 1])])
    def test_field_spec_round_trip(self, spec):
        assert parse_field_spec(render_field_spec(spec)) == spec

    def test_explicit_modulus_rendering(self):
        # a non-auto modulus must render explicitly
        spec = field_make(3, 2, [2, 1, 1])  # t^2 + t + 2 irreducible over F3
        text = render_field_spec(spec)
        assert "/" in text
        assert parse_field_spec(text) == spec

    @pytest.mark.parametrize("spec", [F5, F9])
    def test_element_round_trip(self, spec):
        for x in field_elements(spec):
            assert parse_element(spec, render_element(x)) == x

    def test_rendering_a_big_field_element_memoizes_it_alone(self):
        # the memo is filled on demand: one element of F_{2^40} costs O(n)
        # and one entry, and builds no table of the field
        spec = field_make(2, 40)
        x = FqElem(spec, 2 ** 39 + 2 ** 20 + 1)
        before = len(spec._texts)
        text = render_element(x)
        assert text == ",".join(str(c) for c in x.coeffs)
        assert len(spec._texts) == before + 1
        assert render_element(x) is text
        assert "_tables" not in vars(spec)

    def test_bad_element_width(self):
        with pytest.raises(ValueError):
            parse_element(F9, "1")

    @pytest.mark.parametrize("text", ["0,3", "3,0", "1,-1"])
    def test_out_of_range_coefficient_rejected(self, text):
        # "0,3" would read as the in-range code 3 = (1, 0) if only codes were checked
        with pytest.raises(ValueError, match="coefficients"):
            parse_element(F9, text)


# ---------------------------------------------------------------------------
# the tables against schoolbook coefficient-vector arithmetic


def ref_add(spec, a, b):
    return tuple((x + y) % spec.p for x, y in zip(a, b))


def ref_neg(spec, a):
    return tuple(-x % spec.p for x in a)


def ref_mul(spec, a, b):
    """Convolve, then reduce by the monic modulus from the top degree down."""
    p, n, mod = spec.p, spec.n, spec.modulus
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k] % p
        for j in range(n + 1):
            prod[k - n + j] -= c * mod[j]
    return tuple(x % p for x in prod[:n])


def ref_pow(spec, a, e):
    result = (1,) + (0,) * (spec.n - 1)
    while e:
        if e & 1:
            result = ref_mul(spec, result, a)
        a = ref_mul(spec, a, a)
        e >>= 1
    return result


def ref_order(spec, a):
    one = (1,) + (0,) * (spec.n - 1)
    x, k = a, 1
    while x != one:
        x, k = ref_mul(spec, x, a), k + 1
    return k


def ref_inverse(spec, a):
    one = (1,) + (0,) * (spec.n - 1)
    return next(b.coeffs for b in field_elements(spec) if ref_mul(spec, a, b.coeffs) == one)


def check_pair(spec, a, b):
    u, v = a.coeffs, b.coeffs
    assert fq_add(a, b).coeffs == ref_add(spec, u, v)
    assert fq_sub(a, b).coeffs == ref_add(spec, u, ref_neg(spec, v))
    assert fq_mul(a, b).coeffs == ref_mul(spec, u, v)


SMALL_FIELDS = [
    field_make(p, n) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61) for n in range(1, 7)
    if p**n <= 64
] + [
    parse_field_spec("2^4/1,1,1,1,1"),  # x has order 5, not 15
    parse_field_spec("3^2/1,0,1"),  # the auto modulus; x has order 4, not 8
    parse_field_spec("3^2/2,1,1"),
]


class TestTablesAgainstSchoolbook:
    @pytest.mark.parametrize("spec", SMALL_FIELDS, ids=render_field_spec)
    def test_every_pair_and_element(self, spec):
        xs = field_elements(spec)
        for a, b in itertools.product(xs, repeat=2):
            check_pair(spec, a, b)
        for a in xs:
            assert fq_neg(a).coeffs == ref_neg(spec, a.coeffs)
            for e in (0, 1, 2, 3, spec.p, spec.q - 2, spec.q + 1):
                assert fq_pow(a, e).coeffs == ref_pow(spec, a.coeffs, e)
            if not a.is_zero():
                assert fq_inv(a).coeffs == ref_inverse(spec, a.coeffs)
                assert fq_pow(a, -3) == fq_pow(fq_inv(a), 3)

    @pytest.mark.parametrize("text", ["7^4", "13^3", "2^12"])
    def test_seeded_pairs_in_larger_fields(self, text):
        spec = parse_field_spec(text)
        rng = random.Random(2024)
        xs = field_elements(spec)
        for _ in range(2000):
            a, b = rng.choice(xs), rng.choice(xs)
            check_pair(spec, a, b)
            e = rng.randrange(spec.q)
            assert fq_pow(a, e).coeffs == ref_pow(spec, a.coeffs, e)
            if not a.is_zero():
                assert ref_mul(spec, a.coeffs, fq_inv(a).coeffs) == fq_one(spec).coeffs

    def test_zero_has_no_inverse_or_order(self):
        with pytest.raises(ZeroDivisionError):
            fq_pow(fq_zero(F9), -1)
        assert fq_pow(fq_zero(F9), 0) == fq_one(F9)


class TestCodes:
    @pytest.mark.parametrize("spec", SMALL_FIELDS + [parse_field_spec("7^4")], ids=render_field_spec)
    def test_code_is_index_and_coeffs_round_trip(self, spec):
        xs = field_elements(spec)
        assert [x.coeffs for x in xs] == list(itertools.product(range(spec.p), repeat=spec.n))
        for k, x in enumerate(xs):
            assert x.code == k
            assert fq_from_coeffs(spec, x.coeffs) == x

    def test_elements_are_immutable(self):
        x = fq_one(F9)
        with pytest.raises(AttributeError):
            x.code = 0
        assert x == fq_one(F9)

    def test_out_of_range_code_rejected(self):
        with pytest.raises(ValueError, match="code"):
            FqElem(F9, 9)
        with pytest.raises(ValueError, match="code"):
            FqElem(F9, -1)


def scan_roots_of_unity(spec, n):
    """The exhaustive scan roots_of_unity used before the tables."""
    one = fq_one(spec)
    roots = [x for x in field_elements(spec) if not x.is_zero() and ref_pow(spec, x.coeffs, n) == one.coeffs]
    return roots, (spec.q - 1) % n == 0


def scan_primitive_root_of_unity(spec, n):
    """The exhaustive scan primitive_root_of_unity used before the tables."""
    for x in field_elements(spec):
        if not x.is_zero() and ref_order(spec, x.coeffs) == n:
            return x
    raise AssertionError("no primitive root")


class TestRootsOfUnityAgainstScans:
    @pytest.mark.parametrize("spec", SMALL_FIELDS, ids=render_field_spec)
    def test_equal_to_the_scans(self, spec):
        for n in range(1, 18):
            assert roots_of_unity(spec, n) == scan_roots_of_unity(spec, n)
            if (spec.q - 1) % n == 0:
                assert primitive_root_of_unity(spec, n) == scan_primitive_root_of_unity(spec, n)


# ---------------------------------------------------------------------------
# F_q[x] on codes against evaluation in FqElem arithmetic

F16 = field_make(2, 4)
CPOLY_FIELDS = [F5, F9, F16]


def as_elems(spec, a):
    return [FqElem(spec, c) for c in a] or [fq_zero(spec)]


def horner(coeffs, x):
    acc = fq_zero(x.spec)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def value(spec, a, x):
    return horner(as_elems(spec, a), x)


def elem_deriv(coeffs):
    """The derivative in FqElem arithmetic, trimmed to at least one term."""
    out = [fq_from_int(c.spec, i) * c for i, c in enumerate(coeffs)][1:] or [fq_zero(coeffs[0].spec)]
    while len(out) > 1 and out[-1].is_zero():
        out.pop()
    return out


def scan_roots(spec, a, r):
    """The distinct roots of a in F_{q^r}, by evaluating at every element."""
    ext = extension_field(spec, r)
    f = [fq_embed(c, ext) for c in as_elems(spec, a)]
    return [x for x in field_elements(ext) if horner(f, x).is_zero()]


def random_cpoly(rng, spec, degree):
    """A polynomial of the given degree (nonzero leading code)."""
    return [rng.randrange(spec.q) for _ in range(degree)] + [rng.randrange(1, spec.q)]


def from_roots(spec, lead, roots):
    """lead * prod (x - r) in FqElem arithmetic, as codes."""
    coeffs = [lead]
    for r in roots:
        shifted = [fq_zero(spec)] + coeffs  # x * coeffs
        coeffs = [fq_sub(c, fq_mul(r, d)) for c, d in zip(shifted, coeffs + [fq_zero(spec)])]
    return [c.code for c in coeffs]


@pytest.mark.parametrize("spec", CPOLY_FIELDS, ids=render_field_spec)
class TestCodePolynomials:
    def test_divmod(self, spec):
        # a - (quot * b + rem) has degree < q, so vanishing on F_q means zero
        rng = random.Random(spec.q)
        for _ in range(60):
            a = random_cpoly(rng, spec, rng.randrange(min(spec.q, 6)))
            b = random_cpoly(rng, spec, rng.randrange(len(a) + 1))
            quot, rem = cpoly_divmod(spec, a, b)
            assert len(rem) < len(b) and (not quot or quot[-1]) and (not rem or rem[-1])
            for x in field_elements(spec):
                assert value(spec, a, x) == value(spec, quot, x) * value(spec, b, x) + value(spec, rem, x)
        with pytest.raises(ZeroDivisionError):
            cpoly_divmod(spec, [1], [])

    def test_gcd_of_split_polynomials(self, spec):
        rng = random.Random(spec.q)
        pool = list(field_elements(spec))[:4]
        for _ in range(40):
            ma, mb = ([rng.randrange(3) for _ in pool] for _ in range(2))
            lead = FqElem(spec, rng.randrange(1, spec.q))
            a = from_roots(spec, lead, [r for r, k in zip(pool, ma) for _ in range(k)])
            b = from_roots(spec, fq_one(spec), [r for r, k in zip(pool, mb) for _ in range(k)])
            common = [r for r, i, j in zip(pool, ma, mb) for _ in range(min(i, j))]
            assert cpoly_gcd(spec, a, b) == cpoly_gcd(spec, b, a) == from_roots(spec, fq_one(spec), common)
        assert cpoly_gcd(spec, [], []) == []
        assert cpoly_gcd(spec, [0, 0, spec.q - 1], []) == [0, 0, fq_one(spec).code]

    def test_powmod_at_the_roots_of_the_modulus(self, spec):
        # the residue has degree < deg mod, so its values at deg mod distinct roots fix it
        rng = random.Random(spec.q)
        for e in (0, 1, 2, 7, spec.q, spec.q**3 - 1, 12345):
            for _ in range(8):
                roots = rng.sample(list(field_elements(spec)), rng.randrange(1, 5))
                mod = from_roots(spec, fq_one(spec), roots)
                a = random_cpoly(rng, spec, rng.randrange(6))
                got = cpoly_powmod(spec, a, e, mod)
                assert len(got) < len(mod)
                for r in roots:
                    assert value(spec, got, r) == fq_pow(value(spec, a, r), e)

    def test_deriv(self, spec):
        rng = random.Random(spec.q)
        for degree in range(7):
            a = random_cpoly(rng, spec, degree)
            assert as_elems(spec, cpoly_deriv(spec, a)) == elem_deriv(as_elems(spec, a))

    def test_distinct_degree_parts(self, spec):
        """Each part of degree k has all its roots, simple, in F_{q^k} and none
        in a smaller field of the tower; so h has sum_{k | r} deg(part_k)
        roots in F_{q^r}."""
        rng = random.Random(spec.q)
        top = 3 if spec.q > 9 else 4  # keeps F_{q^k} at most 6561 elements
        degrees = set()
        tried = 0
        while tried < 40:
            h = random_cpoly(rng, spec, rng.randrange(1, top + 1))
            h = cpoly_divmod(spec, h, [h[-1]])[0]  # monic
            if cpoly_gcd(spec, h, cpoly_deriv(spec, h)) != [fq_one(spec).code]:
                continue  # not squarefree
            tried += 1
            parts = cpoly_ddf(spec, h)
            assert list(parts) == sorted(parts)
            assert sum(len(g) - 1 for g in parts.values()) == len(h) - 1
            for k, g in parts.items():
                degrees.add(k)
                assert (len(g) - 1) % k == 0 and g[-1] == fq_one(spec).code
                # deg g distinct roots: all of them, each simple
                assert len(scan_roots(spec, g, k)) == len(g) - 1
                for d in range(1, k):
                    if k % d == 0:
                        assert scan_roots(spec, g, d) == []
            for r in range(1, top + 1):
                expected = sum(len(g) - 1 for k, g in parts.items() if r % k == 0)
                assert len(scan_roots(spec, h, r)) == expected
        assert degrees == set(range(1, top + 1))


# ---------------------------------------------------------------------------
# quadratic characters of resultants and discriminants, against products
# over the roots in an extension field

F7, F25, F27 = field_make(7, 1), field_make(5, 2), field_make(3, 3)


def euler_chi(x):
    """The quadratic character of x by Euler's criterion x^((q-1)/2)."""
    if x.is_zero():
        return 0
    return 1 if fq_pow(x, (x.spec.q - 1) // 2) == fq_one(x.spec) else -1


def conjugates(x, q):
    """x, x^q, x^(q^2), ... up to the first repeat: the roots of x's minimal
    polynomial over F_q."""
    orbit = [x]
    while (y := fq_pow(orbit[-1], q)) != x:
        orbit.append(y)
    return orbit


CHI_LEVELS = [(F5, 6), (F7, 3), (F7, 4), (F9, 2), (F9, 3), (F25, 2), (F25, 3), (F27, 2)]


@pytest.mark.parametrize("spec,r", CHI_LEVELS, ids=[f"{render_field_spec(s)} in F_q^{r}" for s, r in CHI_LEVELS])
def test_characters_of_resultant_and_discriminant(spec, r):
    """a = lc prod (x - alpha) over whole conjugate classes of F_{q^r}:
    chi(Res(a, b)) against chi(lc^deg b prod b(alpha)), chi(disc a) against
    chi(lc^(2n-2) prod_{i<j} (alpha_i - alpha_j)^2), both products taken in
    F_{q^r}, and for squarefree a against Stickelberger's (-1)^(n - #factors)."""
    ext = extension_field(spec, r)
    rng = random.Random(spec.q * 10 + r)
    # the elements of each field between F_q and F_{q^r}
    tower = [subfield_elements(ext, spec.n * d) for d in range(1, r + 1) if r % d == 0]
    outcomes = set()
    for _ in range(80):
        classes = []  # the roots of a, one conjugate class per irreducible factor
        for _ in range(rng.randrange(4)):
            orbit = conjugates(rng.choice(rng.choice(tower)), spec.q)
            if rng.randrange(4) == 0 and classes:
                orbit = classes[0]  # a repeated factor
            if sum(map(len, classes)) + len(orbit) <= 6:
                classes.append(orbit)
        roots = [x for orbit in classes for x in orbit]
        lead = FqElem(spec, rng.randrange(1, spec.q))
        lead_ext = fq_embed(lead, ext)
        a = [fq_project(FqElem(ext, c), spec).code for c in from_roots(ext, lead_ext, roots)]
        if classes and rng.randrange(3) == 0:  # shares the roots of a's first factor
            b = [fq_project(FqElem(ext, c), spec).code for c in from_roots(ext, lead_ext, classes[0])]
        else:
            b = random_cpoly(rng, spec, rng.randrange(5))
        b_ext = [fq_embed(c, ext) for c in as_elems(spec, b)]
        res = fq_pow(lead_ext, len(b) - 1)
        for x in roots:
            res = res * horner(b_ext, x)
        chi_res = cpoly_chi_res(spec, a, b)
        assert chi_res == euler_chi(fq_project(res, spec)), (a, b)
        outcomes.add(("res", chi_res))
        n = len(a) - 1
        if not n:
            continue
        disc = fq_pow(lead_ext, 2 * n - 2)
        for i, j in itertools.combinations(range(n), 2):
            disc = disc * fq_pow(roots[i] - roots[j], 2)
        chi_disc = cpoly_chi_disc(spec, a)
        assert chi_disc == euler_chi(fq_project(disc, spec)), a
        if len(set(roots)) == n:  # squarefree
            assert chi_disc == (-1) ** (n - len(classes))
        outcomes.add(("disc", chi_disc))
    every = {(kind, c) for kind in ("res", "disc") for c in (0, 1, -1)}
    # (-1)^(n - #factors) = -1 needs a factor of even degree
    assert outcomes == (every if r % 2 == 0 else every - {("disc", -1)})


@pytest.mark.parametrize("spec", [F5, F7, F9, F25, F27], ids=render_field_spec)
def test_resultant_character_edge_cases(spec):
    g, square = spec._tables.exp[1], spec._tables.exp[2]  # g generates F_q^*, a nonsquare
    assert euler_chi(FqElem(spec, g)) == -1
    one = fq_one(spec).code
    line, quadratic = [g, one], [g, 0, one]
    # constants: Res(c, d) = 1, Res(a, c) = c^deg a, Res(c, b) = c^deg b
    assert cpoly_chi_res(spec, [g], [g]) == 1
    assert cpoly_chi_res(spec, line, [g]) == cpoly_chi_res(spec, [g], line) == -1
    assert cpoly_chi_res(spec, quadratic, [g]) == cpoly_chi_res(spec, [g], quadratic) == 1
    assert cpoly_chi_res(spec, line, [square]) == 1
    # a zero operand, and a common root
    assert cpoly_chi_res(spec, [], line) == cpoly_chi_res(spec, line, []) == cpoly_chi_res(spec, [], []) == 0
    assert cpoly_chi_res(spec, line, line) == 0
    assert cpoly_chi_res(spec, cpoly_mul(spec, line, quadratic), cpoly_mul(spec, line, [one, one])) == 0
    # the discriminant of a linear polynomial is 1, of a square 0
    assert cpoly_chi_disc(spec, line) == 1
    assert cpoly_chi_disc(spec, cpoly_mul(spec, line, line)) == 0


@pytest.mark.parametrize("spec", [F2, F4, F8, F16], ids=render_field_spec)
def test_quadratic_characters_refuse_even_q(spec):
    for call in (lambda: cpoly_chi_res(spec, [1, 1], [0, 1]), lambda: cpoly_chi_disc(spec, [1, 0, 1])):
        with pytest.raises(ValueError, match="q odd"):
            call()
