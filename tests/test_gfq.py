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
    _code,
    _digits,
    _embedding_table,
    _int_code,
    _inverse_cache,
    _is_irreducible,
    _projection_table,
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


def one(spec):
    """The code of 1."""
    return spec.q // spec.p


def gen(spec):
    """The code of the residue x of the modulus (n >= 2)."""
    return spec.q // spec.p**2


def tpow(spec, a, e):
    """a^e on codes by the log and antilog tables (e >= 0 when a = 0)."""
    t = spec._tables
    if not a:
        return 0 if e else one(spec)
    return t.exp[t.log[a] * e % t.m]


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

    @pytest.mark.parametrize("name", ["p", "q", "one", "pgl2_order", "modulus", "other"])
    def test_attributes_cannot_be_assigned(self, name):
        with pytest.raises(AttributeError):
            setattr(F9, name, 3)
        assert (F9.p, F9.n, F9.q, F9.one, F9.pgl2_order, F9.modulus) == (3, 2, 9, 3, 720, (1, 0, 1))

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


ONE_FIELDS = ["2^1", "2^4", "3^2", "5^3", "2^4/1,1,1,1,1"]


@pytest.mark.parametrize("text", ONE_FIELDS)
def test_one_is_the_code_of_1(text):
    # 1 is the constant term, the most significant digit of a code
    spec = parse_field_spec(text)
    assert render_element(spec, spec.one) == ",".join(["1"] + ["0"] * (spec.n - 1))
    assert all(spec._tables.mul(spec.one, x) == x for x in range(spec.q))
    for how in (copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))):
        assert how(spec).one == spec.one


def test_one_survives_pickle_into_a_fresh_process():
    # there an unpickled spec is interned anew, and sets its one there
    specs = [parse_field_spec(text) for text in ONE_FIELDS]
    script = "import pickle, sys\nprint(*[spec.one for spec in pickle.loads(sys.stdin.buffer.read())])\n"
    run = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(specs), capture_output=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [str(spec.one).encode() for spec in specs] == [b"1", b"8", b"3", b"25", b"8"]


class TestArithmeticExamples:
    def test_add_char2(self):
        t = F4._tables
        assert t.add(gen(F4), gen(F4)) == 0

    def test_add_mod5(self):
        assert F5._tables.add(3, 4) == 2

    def test_add_basis(self):
        assert _digits(F4, F4._tables.add(gen(F4), one(F4))) == (1, 1)

    def test_mul_reduction(self):
        t, x = F4._tables, gen(F4)
        assert t.mul(x, t.add(x, one(F4))) == one(F4)
        assert _digits(F4, t.mul(x, x)) == (1, 1)  # x^2 = x + 1

    def test_mul_identity(self):
        for x in field_elements(F9):
            assert F9._tables.mul(x, one(F9)) == x

    def test_inv(self):
        inverse = _inverse_cache(F4)
        assert inverse[one(F4)] == one(F4)
        assert _digits(F4, inverse[gen(F4)]) == (1, 1)
        assert inverse[0] is None


class TestFieldAxioms:
    @pytest.mark.parametrize("spec", [F2, F3, F4, F5, F8, F9], ids=lambda s: f"q{s.q}")
    def test_axioms_exhaustive(self, spec):
        xs = field_elements(spec)
        t, inverse = spec._tables, _inverse_cache(spec)
        add, mul = t.add, t.mul
        for a in xs:
            assert add(a, 0) == a
            assert mul(a, one(spec)) == a
            if a:
                assert mul(a, inverse[a]) == one(spec)
        for a, b in itertools.product(xs, repeat=2):
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
        for a, b, c in itertools.product(xs, repeat=3):
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

    @pytest.mark.parametrize(
        "spec", [F2, F3, F4, F5, F8, F9, field_make(2, 4), field_make(2, 6), field_make(7, 1)],
        ids=lambda s: f"q{s.q}",
    )
    def test_frobenius_and_xq(self, spec):
        p, q = spec.p, spec.q
        add, mul = spec._tables.add, spec._tables.mul
        xs = field_elements(spec)
        for a in xs:
            assert tpow(spec, a, q) == a
        for a, b in itertools.product(xs, repeat=2):
            assert tpow(spec, add(a, b), p) == add(tpow(spec, a, p), tpow(spec, b, p))
            assert tpow(spec, mul(a, b), p) == mul(tpow(spec, a, p), tpow(spec, b, p))


class TestEmbeddings:
    def test_prime_subfield(self):
        assert _embedding_table(F2, F4)[1] == one(F4)

    def test_generator_goes_to_first_root(self):
        F16 = field_make(2, 4)
        t = F16._tables
        img = _embedding_table(F4, F16)[gen(F4)]
        # oracle: scan F16 for roots of t^2 + t + 1 in canonical order
        roots = [x for x in field_elements(F16) if not t.add(t.add(t.mul(x, x), x), one(F16))]
        assert img == roots[0]

    def test_incompatible_degrees_rejected(self):
        with pytest.raises(ValueError, match="does not divide"):
            _embedding_table(F4, F8)
        with pytest.raises(ValueError, match="characteristic"):
            _embedding_table(F4, F9)

    @pytest.mark.parametrize("src,dst", [(F2, F4), (F4, field_make(2, 4)), (F3, F9)])
    def test_embedding_is_a_homomorphism(self, src, dst):
        emb, s, d = _embedding_table(src, dst), src._tables, dst._tables
        for a, b in itertools.product(field_elements(src), repeat=2):
            assert emb[s.add(a, b)] == d.add(emb[a], emb[b])
            assert emb[s.mul(a, b)] == d.mul(emb[a], emb[b])

    @pytest.mark.parametrize("text", ["2^3", "2^4", "2^5", "3^2"])
    def test_a_field_embeds_into_itself_by_the_identity(self, text):
        # over F_8, F_16 and F_32 the first root of the modulus is a Frobenius
        # conjugate of x, so the root search would give an automorphism
        spec = parse_field_spec(text)
        assert _embedding_table(spec, spec) == tuple(range(spec.q))

    def test_project_inverts_embed(self):
        F16 = field_make(2, 4)
        emb, proj = _embedding_table(F4, F16), _projection_table(F16, F4)
        for a in field_elements(F4):
            assert proj[emb[a]] == a
        # an element outside the subfield has no projection
        outside = next(x for x in field_elements(F16) if x not in proj)
        assert tpow(F16, outside, 4) != outside

    def test_extension_field_levels(self):
        assert extension_field(F5, 1) == F5
        assert extension_field(F4, 2) == field_make(2, 4)


class TestRootsOfUnity:
    def test_mu3_in_F4(self):
        roots = roots_of_unity(F4, 3)
        assert {render_element(F4, x) for x in roots} == {"1,0", "0,1", "1,1"}

    def test_mu4_in_F5(self):
        assert roots_of_unity(F5, 4) == [1, 2, 3, 4]

    def test_mu1(self):
        for spec in (F4, F5, F9):
            assert roots_of_unity(spec, 1) == [one(spec)]

    def test_zero_n_rejected(self):
        with pytest.raises(ValueError):
            roots_of_unity(F5, 0)

    @pytest.mark.parametrize("spec", [F3, F4, F5, F8, F9])
    def test_cardinality_is_gcd(self, spec):
        for n in range(1, 13):
            assert len(roots_of_unity(spec, n)) == math.gcd(n, spec.q - 1)

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
        assert poly_roots(F5, [1, 0, 1], 1) == [(2, 1), (3, 1)]  # x^2 + 1

    def test_double_root(self):
        assert poly_roots(F5, [0, 0, 1], 1) == [(0, 2)]  # x^2

    def test_roots_appear_in_the_right_extension(self):
        f = [1, 1, 1]  # x^2 + x + 1 over F2
        assert poly_roots(F2, f, 1) == []
        roots = poly_roots(F2, f, 2)
        assert {_digits(F4, x) for x, _ in roots} == {(0, 1), (1, 1)}
        assert all(m == 1 for _, m in roots)

    def test_zero_polynomial_rejected(self):
        for f in ([], [0], [0, 0]):
            with pytest.raises(ValueError, match="zero polynomial"):
                poly_roots(F5, f, 1)

    def test_trailing_zero_codes_are_ignored(self):
        assert poly_roots(F5, [1, 0, 1, 0, 0], 1) == poly_roots(F5, [1, 0, 1], 1)

    def test_multiplicities_sum_to_degree_when_split(self):
        f = from_roots(F5, 1, [1, 1, 2])  # (x - 1)^2 (x - 2) over F5
        assert dict(poly_roots(F5, f, 1)) == {1: 2, 2: 1}

    @pytest.mark.parametrize("spec", [F4, F5, F9], ids=render_field_spec)
    def test_known_roots_and_multiplicities(self, spec):
        """lead * prod (x - r)^m times a cubic with no root in F_{q^2}."""
        rng = random.Random(spec.q)
        ext = extension_field(spec, 2)
        emb = _embedding_table(spec, ext)
        cubics = [list(t) + [one(spec)] for t in itertools.product(range(spec.q), repeat=3)]
        cubics = [c for c in cubics if not scan_roots(spec, c, 2)]
        for _ in range(20):
            mults = {x: rng.randrange(1, 4) for x in rng.sample(field_elements(spec), rng.randrange(4))}
            lead = rng.randrange(1, spec.q)
            split = from_roots(spec, lead, [x for x, m in mults.items() for _ in range(m)])
            f = cpoly_mul(spec, split, rng.choice(cubics))
            assert poly_roots(spec, f, 1) == sorted(mults.items())
            assert poly_roots(spec, f, 2) == sorted((emb[x], m) for x, m in mults.items())


def quadratic_map(spec, B, C):
    """A map over spec whose affine fixed points are the roots of
    x^2 + Bx + C (codes): [a, -C; 1, B + a] for the least a with
    a(B + a) + C != 0, or None when every such matrix is singular."""
    t = spec._tables
    for a in field_elements(spec):
        if t.add(t.mul(a, t.add(B, a)), C):
            return _kernel(spec).normalize(a, t.sub(0, C), one(spec), t.add(B, a))
    return None


def kernel_roots(spec, B, C, r=1):
    """The codes of the roots of x^2 + Bx + C in F_{q^r}, from the kernel's
    fixed points."""
    return _code_fixed(spec, r)(quadratic_map(spec, B, C))


class TestMonicQuadraticRoots:
    # the roots of a monic quadratic are the affine fixed points of a map,
    # which moebius._code_fixed finds in closed form from this module's
    # square-root and Artin-Schreier tables

    def test_double_root_in_odd_characteristic(self):
        assert kernel_roots(F5, 0, 0) == [0]  # x^2

    def test_unique_square_root_in_characteristic_two(self):
        assert kernel_roots(F4, 0, one(F4)) == [one(F4)]  # x^2 + 1

    def test_irreducible_has_no_roots_until_extended(self):
        minus_two = F3._tables.sub(0, 2)
        assert kernel_roots(F3, 0, minus_two) == []  # x^2 - 2
        roots = kernel_roots(F3, 0, minus_two, 2)
        assert [F9._tables.mul(x, x) for x in roots] == [_embedding_table(F3, F9)[2]] * 2

    def test_two_roots_in_characteristic_two_with_linear_term(self):
        roots = kernel_roots(F4, one(F4), one(F4))  # x^2 + x + 1
        assert [_digits(F4, x) for x in roots] == [(0, 1), (1, 1)]

    @pytest.mark.parametrize("spec", [F2, F3, F4, F5, F8, F9])
    def test_matches_exhaustive_roots_on_every_monic_quadratic(self, spec):
        # x^2 + x over F2 is the one quadratic no map of PGL2 has: its fixed
        # points 0 and 1 force ad = 0
        skipped = []
        for B, C in itertools.product(field_elements(spec), repeat=2):
            if quadratic_map(spec, B, C) is None:
                skipped.append((B, C))
                continue
            expected = [x for x, _ in poly_roots(spec, [C, B, one(spec)], 1)]
            assert kernel_roots(spec, B, C) == expected
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
            assert parse_element(spec, render_element(spec, x)) == FqElem(spec, x)

    def test_rendering_a_big_field_element_memoizes_it_alone(self):
        # the memo is filled on demand: one element of F_{2^40} costs O(n)
        # and one entry, and builds no table of the field
        spec = field_make(2, 40)
        x = 2 ** 39 + 2 ** 20 + 1
        before = len(spec._texts)
        text = render_element(spec, x)
        assert text == ",".join(format(x, "040b"))
        assert len(spec._texts) == before + 1
        assert render_element(spec, x) is text
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
    return next(_digits(spec, b) for b in field_elements(spec) if ref_mul(spec, a, _digits(spec, b)) == one)


def check_pair(spec, a, b):
    t, u, v = spec._tables, _digits(spec, a), _digits(spec, b)
    assert _digits(spec, t.add(a, b)) == ref_add(spec, u, v)
    assert _digits(spec, t.sub(a, b)) == ref_add(spec, u, ref_neg(spec, v))
    assert _digits(spec, t.mul(a, b)) == ref_mul(spec, u, v)


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
        inverse = _inverse_cache(spec)
        for a, b in itertools.product(xs, repeat=2):
            check_pair(spec, a, b)
        for a in xs:
            assert _digits(spec, spec._tables.sub(0, a)) == ref_neg(spec, _digits(spec, a))
            for e in (0, 1, 2, 3, spec.p, spec.q - 2, spec.q + 1):
                assert _digits(spec, tpow(spec, a, e)) == ref_pow(spec, _digits(spec, a), e)
            if a:
                assert _digits(spec, inverse[a]) == ref_inverse(spec, _digits(spec, a))
                assert tpow(spec, a, -3) == tpow(spec, inverse[a], 3)

    @pytest.mark.parametrize("text", ["7^4", "13^3", "2^12"])
    def test_seeded_pairs_in_larger_fields(self, text):
        spec = parse_field_spec(text)
        rng = random.Random(2024)
        xs = field_elements(spec)
        inverse = _inverse_cache(spec)
        for _ in range(2000):
            a, b = rng.choice(xs), rng.choice(xs)
            check_pair(spec, a, b)
            e = rng.randrange(spec.q)
            assert _digits(spec, tpow(spec, a, e)) == ref_pow(spec, _digits(spec, a), e)
            if a:
                assert ref_mul(spec, _digits(spec, a), _digits(spec, inverse[a])) == _digits(spec, one(spec))


class TestCodes:
    @pytest.mark.parametrize("spec", SMALL_FIELDS + [parse_field_spec("7^4")], ids=render_field_spec)
    def test_code_is_index_and_coeffs_round_trip(self, spec):
        xs = field_elements(spec)
        assert xs == range(spec.q)
        assert [_digits(spec, x) for x in xs] == list(itertools.product(range(spec.p), repeat=spec.n))
        for x in xs:
            assert _code(_digits(spec, x), spec.p) == x

    def test_the_integer_image(self):
        # Z -> F_p -> F_{p^n}: k mod p times the code of 1
        assert [_int_code(F9, k) for k in (0, 1, 2, 3, 4, -1)] == [0, 3, 6, 0, 3, 6]
        assert [_int_code(F5, k) for k in (4, 27, -2)] == [4, 2, 3]

    def test_elements_are_immutable(self):
        x = parse_element(F9, "1,0")
        with pytest.raises(AttributeError):
            x.code = 0
        assert x == FqElem(F9, 3)

    def test_out_of_range_code_rejected(self):
        with pytest.raises(ValueError, match="code"):
            FqElem(F9, 9)
        with pytest.raises(ValueError, match="code"):
            FqElem(F9, -1)


def scan_roots_of_unity(spec, n):
    """The exhaustive scan roots_of_unity used before the tables."""
    unit = _digits(spec, one(spec))
    return [x for x in field_elements(spec) if x and ref_pow(spec, _digits(spec, x), n) == unit]


def scan_primitive_root_of_unity(spec, n):
    """The exhaustive scan primitive_root_of_unity used before the tables."""
    for x in field_elements(spec):
        if x and ref_order(spec, _digits(spec, x)) == n:
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
# F_q[x] on codes against evaluation through the tables' add and mul

F16 = field_make(2, 4)
CPOLY_FIELDS = [F5, F9, F16]


def value(spec, a, x):
    """The code polynomial a at the code x, by Horner."""
    t, acc = spec._tables, 0
    for c in reversed(a):
        acc = t.add(t.mul(acc, x), c)
    return acc


def schoolbook_deriv(spec, a):
    """The derivative, coefficient by coefficient, trimmed."""
    out = [spec._tables.mul(_int_code(spec, i), c) for i, c in enumerate(a)][1:]
    while out and not out[-1]:
        out.pop()
    return out


def scan_roots(spec, a, r):
    """The distinct roots of a in F_{q^r}, by evaluating at every element."""
    ext = extension_field(spec, r)
    emb = _embedding_table(spec, ext)
    f = [emb[c] for c in a]
    return [x for x in field_elements(ext) if not value(ext, f, x)]


def random_cpoly(rng, spec, degree):
    """A polynomial of the given degree (nonzero leading code)."""
    return [rng.randrange(spec.q) for _ in range(degree)] + [rng.randrange(1, spec.q)]


def from_roots(spec, lead, roots):
    """lead * prod (x - r), coefficient by coefficient, as codes."""
    t, coeffs = spec._tables, [lead]
    for r in roots:
        shifted = [0] + coeffs  # x * coeffs
        coeffs = [t.sub(c, t.mul(r, d)) for c, d in zip(shifted, coeffs + [0])]
    return coeffs


@pytest.mark.parametrize("spec", CPOLY_FIELDS, ids=render_field_spec)
class TestCodePolynomials:
    def test_divmod(self, spec):
        # a - (quot * b + rem) has degree < q, so vanishing on F_q means zero
        rng = random.Random(spec.q)
        add, mul = spec._tables.add, spec._tables.mul
        for _ in range(60):
            a = random_cpoly(rng, spec, rng.randrange(min(spec.q, 6)))
            b = random_cpoly(rng, spec, rng.randrange(len(a) + 1))
            quot, rem = cpoly_divmod(spec, a, b)
            assert len(rem) < len(b) and (not quot or quot[-1]) and (not rem or rem[-1])
            for x in field_elements(spec):
                assert value(spec, a, x) == add(mul(value(spec, quot, x), value(spec, b, x)), value(spec, rem, x))
        with pytest.raises(ZeroDivisionError):
            cpoly_divmod(spec, [1], [])

    def test_gcd_of_split_polynomials(self, spec):
        rng = random.Random(spec.q)
        pool = list(field_elements(spec))[:4]
        for _ in range(40):
            ma, mb = ([rng.randrange(3) for _ in pool] for _ in range(2))
            lead = rng.randrange(1, spec.q)
            a = from_roots(spec, lead, [r for r, k in zip(pool, ma) for _ in range(k)])
            b = from_roots(spec, one(spec), [r for r, k in zip(pool, mb) for _ in range(k)])
            common = [r for r, i, j in zip(pool, ma, mb) for _ in range(min(i, j))]
            assert cpoly_gcd(spec, a, b) == cpoly_gcd(spec, b, a) == from_roots(spec, one(spec), common)
        assert cpoly_gcd(spec, [], []) == []
        assert cpoly_gcd(spec, [0, 0, spec.q - 1], []) == [0, 0, one(spec)]

    def test_powmod_at_the_roots_of_the_modulus(self, spec):
        # the residue has degree < deg mod, so its values at deg mod distinct roots fix it
        rng = random.Random(spec.q)
        for e in (0, 1, 2, 7, spec.q, spec.q**3 - 1, 12345):
            for _ in range(8):
                roots = rng.sample(list(field_elements(spec)), rng.randrange(1, 5))
                mod = from_roots(spec, one(spec), roots)
                a = random_cpoly(rng, spec, rng.randrange(6))
                got = cpoly_powmod(spec, a, e, mod)
                assert len(got) < len(mod)
                for r in roots:
                    assert value(spec, got, r) == tpow(spec, value(spec, a, r), e)

    def test_deriv(self, spec):
        rng = random.Random(spec.q)
        for degree in range(7):
            a = random_cpoly(rng, spec, degree)
            assert cpoly_deriv(spec, a) == schoolbook_deriv(spec, a)

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
            if cpoly_gcd(spec, h, cpoly_deriv(spec, h)) != [one(spec)]:
                continue  # not squarefree
            tried += 1
            parts = cpoly_ddf(spec, h)
            assert list(parts) == sorted(parts)
            assert sum(len(g) - 1 for g in parts.values()) == len(h) - 1
            for k, g in parts.items():
                degrees.add(k)
                assert (len(g) - 1) % k == 0 and g[-1] == one(spec)
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


def euler_chi(spec, x):
    """The quadratic character of the code x by Euler's criterion x^((q-1)/2)."""
    if not x:
        return 0
    return 1 if tpow(spec, x, (spec.q - 1) // 2) == one(spec) else -1


def conjugates(spec, x, q):
    """x, x^q, x^(q^2), ... up to the first repeat: the roots of x's minimal
    polynomial over F_q."""
    orbit = [x]
    while (y := tpow(spec, orbit[-1], q)) != x:
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
    emb, proj, t = _embedding_table(spec, ext), _projection_table(ext, spec), ext._tables
    rng = random.Random(spec.q * 10 + r)
    # the elements of each field between F_q and F_{q^r}
    tower = [subfield_elements(ext, spec.n * d) for d in range(1, r + 1) if r % d == 0]
    outcomes = set()
    for _ in range(80):
        classes = []  # the roots of a, one conjugate class per irreducible factor
        for _ in range(rng.randrange(4)):
            orbit = conjugates(ext, rng.choice(rng.choice(tower)), spec.q)
            if rng.randrange(4) == 0 and classes:
                orbit = classes[0]  # a repeated factor
            if sum(map(len, classes)) + len(orbit) <= 6:
                classes.append(orbit)
        roots = [x for orbit in classes for x in orbit]
        lead_ext = emb[rng.randrange(1, spec.q)]
        a = [proj[c] for c in from_roots(ext, lead_ext, roots)]
        if classes and rng.randrange(3) == 0:  # shares the roots of a's first factor
            b = [proj[c] for c in from_roots(ext, lead_ext, classes[0])]
        else:
            b = random_cpoly(rng, spec, rng.randrange(5))
        b_ext = [emb[c] for c in b]
        res = tpow(ext, lead_ext, len(b) - 1)
        for x in roots:
            res = t.mul(res, value(ext, b_ext, x))
        chi_res = cpoly_chi_res(spec, a, b)
        assert chi_res == euler_chi(spec, proj[res]), (a, b)
        outcomes.add(("res", chi_res))
        n = len(a) - 1
        if not n:
            continue
        disc = tpow(ext, lead_ext, 2 * n - 2)
        for i, j in itertools.combinations(range(n), 2):
            disc = t.mul(disc, tpow(ext, t.sub(roots[i], roots[j]), 2))
        chi_disc = cpoly_chi_disc(spec, a)
        assert chi_disc == euler_chi(spec, proj[disc]), a
        if len(set(roots)) == n:  # squarefree
            assert chi_disc == (-1) ** (n - len(classes))
        outcomes.add(("disc", chi_disc))
    every = {(kind, c) for kind in ("res", "disc") for c in (0, 1, -1)}
    # (-1)^(n - #factors) = -1 needs a factor of even degree
    assert outcomes == (every if r % 2 == 0 else every - {("disc", -1)})


@pytest.mark.parametrize("spec", [F5, F7, F9, F25, F27], ids=render_field_spec)
def test_resultant_character_edge_cases(spec):
    g, square = spec._tables.exp[1], spec._tables.exp[2]  # g generates F_q^*, a nonsquare
    assert euler_chi(spec, g) == -1
    unit = one(spec)
    line, quadratic = [g, unit], [g, 0, unit]
    # constants: Res(c, d) = 1, Res(a, c) = c^deg a, Res(c, b) = c^deg b
    assert cpoly_chi_res(spec, [g], [g]) == 1
    assert cpoly_chi_res(spec, line, [g]) == cpoly_chi_res(spec, [g], line) == -1
    assert cpoly_chi_res(spec, quadratic, [g]) == cpoly_chi_res(spec, [g], quadratic) == 1
    assert cpoly_chi_res(spec, line, [square]) == 1
    # a zero operand, and a common root
    assert cpoly_chi_res(spec, [], line) == cpoly_chi_res(spec, line, []) == cpoly_chi_res(spec, [], []) == 0
    assert cpoly_chi_res(spec, line, line) == 0
    assert cpoly_chi_res(spec, cpoly_mul(spec, line, quadratic), cpoly_mul(spec, line, [unit, unit])) == 0
    # the discriminant of a linear polynomial is 1, of a square 0
    assert cpoly_chi_disc(spec, line) == 1
    assert cpoly_chi_disc(spec, cpoly_mul(spec, line, line)) == 0


@pytest.mark.parametrize("spec", [F2, F4, F8, F16], ids=render_field_spec)
def test_quadratic_characters_refuse_even_q(spec):
    for call in (lambda: cpoly_chi_res(spec, [1, 1], [0, 1]), lambda: cpoly_chi_disc(spec, [1, 0, 1])):
        with pytest.raises(ValueError, match="q odd"):
            call()
