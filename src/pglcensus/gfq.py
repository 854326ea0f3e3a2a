"""Exact arithmetic in finite fields F_{p^n}.

An element is a polynomial in x of degree < n over F_p, taken modulo a fixed
monic irreducible polynomial, and is stored as one integer, its code: the
base-p number whose digits are the coefficients c0 (constant term, most
significant digit) to c_{n-1}.  Code order is therefore the lexicographic
order of coefficient vectors, and element k of the field is the one with
code k.  Each field builds, once and on first use, one _FieldTables: log
and antilog tables over a primitive element g, a Zech table k -> log(1 + g^k)
(K. Huber, IEEE Trans. Inf. Theory 36, 1990), and the field's one add, sub
and mul on codes: a product adds two logs, a sum or difference adds a Zech
log.  Every layer calls them on element codes: the FqElem that
parse_element returns is the one element object, and only its code goes
past the parse.  Inverses, roots of unity and subfields are index
arithmetic.  The tables take O(q) memory and time, which suits the desk
scale (q up to ~10^4).  Monic quadratics (the fixed-point equations of
PGL2) are solved in closed form from per-field square-root and
Artin-Schreier tables.

Polynomials over F_q are lists of element codes, and the cpoly_* helpers are
the one polynomial layer: they divide, take gcds and powers modulo a
polynomial, and split a squarefree polynomial by the degrees of its
irreducible factors, all over the field's own tables, which tells in which
F_{q^r} the roots lie without building F_{q^r}.  A modulus is tested for
irreducibility by that split over F_p (Ben-Or's test, polynomial in n), so
a field's spec costs only F_p's tables.  Roots (poly_roots) and the root
behind a subfield embedding are still found exhaustively, by trying every
element x of the field with division by t - x.

Conventions used throughout the package:

* elements are ordered lexicographically by coefficient vector, i.e. by code,
* a field element is its int code (1 is spec.one), with its spec beside
  it, as are points of P^1 (code q for infinity), PGL2 maps and
  elliptic-curve points, ints or tuples of codes (see moebius, elliptic).
  Subgroups, curves, queries, reports and parse_element's FqElem are
  Records of named fields, compared and hashed by exact type and field
  values.  No module imports dataclasses, whose import chain
  (inspect, ast, dis, tokenize) every CLI process would pay at start-up,
* the "auto" modulus of F_{p^n} is the lexicographically smallest monic
  irreducible polynomial of degree n over F_p,
* extension fields are never entered silently: any operation whose result may
  live outside the base field takes an explicit extension degree r, and the
  extension F_{q^r} is realized as the auto field of degree n*r over F_p.

Text formats (shared with the CLI): a field is "p^n" (auto modulus) or
"p^n/c0,c1,...,cn" (explicit modulus, constant term first); an element is
"c0,c1,...,c{n-1}".
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

from .closure import is_prime, order


# ---------------------------------------------------------------------------
# field specifications and elements


class FieldSpec:
    """A concrete presentation of F_{p^n}: prime p, degree n, monic irreducible
    modulus of degree n over F_p (constant term first, length n+1), q = p^n,
    and one = p^(n-1), the code of 1.  There is one spec per field: the
    constructor returns the stored spec of (p, n, modulus) when there is one,
    so specs compare and hash by identity.  The field's lookup tables hang
    off the spec and are built on first use."""

    _interned: dict = {}

    def __new__(cls, p: int, n: int, modulus: Sequence[int]):
        key = (p, n, tuple(modulus))
        spec = cls._interned.get(key)
        if spec is None:
            m = key[2]
            if not is_prime(p):
                raise ValueError(f"characteristic {p} is not prime")
            if n < 1:
                raise ValueError(f"extension degree must be >= 1, got {n}")
            if len(m) != n + 1:
                raise ValueError(f"modulus must have degree {n} (length {n + 1}), got {m}")
            if any(not (0 <= c < p) for c in m):
                raise ValueError(f"modulus coefficients must lie in [0, {p}), got {m}")
            if m[-1] != 1:
                raise ValueError(f"modulus must be monic, got {m}")
            if not _is_irreducible(m, p):
                raise ValueError(f"modulus {m} is reducible over F_{p}")
            spec = cls._intern(key)
        return spec

    @classmethod
    def _intern(cls, key: tuple) -> FieldSpec:
        """The stored spec of a checked (p, n, modulus), storing it if new."""
        spec = object.__new__(cls)
        p, n, m = key
        spec.__dict__.update(p=p, n=n, modulus=m, q=p**n, one=p ** (n - 1))
        return cls._interned.setdefault(key, spec)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: FieldSpec is immutable")

    def __reduce__(self):
        return FieldSpec, (self.p, self.n, self.modulus)

    @cached_property
    def _tables(self) -> _FieldTables:
        return _FieldTables(self)

    @cached_property
    def _texts(self) -> dict[int, str]:
        """render_element's memo, element code -> text, filled on demand."""
        return {}

    def __repr__(self) -> str:
        return f"FieldSpec({render_field_spec(self)})"


class Record:
    """An immutable value with named fields: the reports and the other
    values that are not one code.  A subclass declares its fields as class
    annotations, in order, and a class attribute of a field's name is its
    default.  It is built positionally or by keyword, then checked by its
    __post_init__ if it has one, and compared and hashed by exact type and
    field values, as a frozen dataclass is.  Copy and pickle restore the
    fields without __setattr__, and a cached_property stored beside them is
    no field: eq, hash, repr and replace ignore it."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [f for f in cls.__annotations__ if f not in cls._fields]
        cls._defaults = {**cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}
        cls._fields = fields = cls._fields + tuple(own)
        cls._values = operator.attrgetter(*fields)
        # one small __init__ per class, with the fields as its parameters: the
        # interpreter binds the arguments, and setting each field as an
        # attribute keeps the fast instance layout that a filled __dict__ loses
        params = ", ".join(f"{f}=_defaults[{f!r}]" if f in cls._defaults else f for f in fields)
        body = "".join(f"    _set(self, {f!r}, {f})\n" for f in fields)
        if hasattr(cls, "__post_init__"):
            body += "    self.__post_init__()\n"
        namespace = {"_set": object.__setattr__, "_defaults": cls._defaults}
        exec(f"def __init__(self, {params}):\n{body}", namespace)
        cls.__init__ = namespace["__init__"]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def replace(self, **changes):
        """A copy with the named fields changed, checked like a new value."""
        return type(self)(**{**{f: getattr(self, f) for f in self._fields}, **changes})


class FqElem(Record):
    """A parsed element of F_{p^n}: its spec and its code, the base-p number
    whose digits are the coefficients, constant term c0 most significant.
    It is what parse_element returns, and the code is all that any other
    function takes.  Its __post_init__ checks the code's range, once per
    element made, which is the hook that perfbench's tracer counts."""

    spec: FieldSpec
    code: int

    def __post_init__(self):
        if not 0 <= self.code < self.spec.q:
            raise ValueError(f"element code must lie in [0, {self.spec.q}), got {self.code}")

    def __repr__(self) -> str:
        return f"Fq({render_element(self.spec, self.code)} in {self.spec.p}^{self.spec.n})"


def _code(coeffs: Sequence[int], p: int) -> int:
    """The code of a coefficient vector, constant term first."""
    c = 0
    for d in coeffs:
        c = c * p + d
    return c


def _digits(spec: FieldSpec, code: int) -> tuple[int, ...]:
    """The coefficient vector of the element with this code, constant term
    first: the inverse of _code."""
    p, digits = spec.p, []
    for _ in range(spec.n):
        code, d = divmod(code, p)
        digits.append(d)
    return tuple(reversed(digits))


def _int_code(spec: FieldSpec, k: int) -> int:
    """The code of the image of the integer k under Z -> F_p -> F_{p^n}."""
    return k % spec.p * spec.one


@lru_cache(maxsize=None)
def _auto_modulus(p: int, n: int) -> tuple[int, ...]:
    # for n >= 2 the p^(n-1) candidates with c0 = 0 are divisible by x
    digits = [range(1 if n >= 2 else 0, p)] + [range(p)] * (n - 1)
    for tail in itertools.product(*digits):
        cand = tuple(tail) + (1,)
        if _is_irreducible(cand, p):
            # stored now, FieldSpec(p, n, cand) does not test it again
            FieldSpec._intern((p, n, cand))
            return cand
    raise AssertionError("no irreducible polynomial found (unreachable)")


def field_make(p: int, n: int, modulus="auto") -> FieldSpec:
    """Construct F_{p^n}.  modulus is "auto" (lexicographically smallest monic
    irreducible of degree n) or an explicit coefficient list, constant first."""
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if n < 1:
        raise ValueError(f"extension degree must be >= 1, got {n}")
    if isinstance(modulus, str):
        if modulus != "auto":
            raise ValueError(f"unknown modulus selector {modulus!r}")
        mod = _auto_modulus(p, n)
    else:
        mod = tuple(int(c) for c in modulus)
    return FieldSpec(p, n, mod)


# ---------------------------------------------------------------------------
# the per-field tables; schoolbook products only build them


@lru_cache(maxsize=None)
def _reduction_rows(spec: FieldSpec) -> tuple[tuple[int, ...], ...]:
    """x^k mod modulus for k = n .. 2n-2, as length-n coefficient rows."""
    fp, rows = field_make(spec.p, 1), []
    for k in range(spec.n, 2 * spec.n - 1):
        red = cpoly_divmod(fp, [0] * k + [1], spec.modulus)[1]
        rows.append(tuple(red) + (0,) * (spec.n - len(red)))
    return tuple(rows)


def _vec_mul(spec: FieldSpec, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Schoolbook product of two coefficient vectors, reduced by the modulus
    (cheap when a is sparse)."""
    n, p = spec.n, spec.p
    conv = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
    out = conv[:n]
    rows = _reduction_rows(spec)
    for k in range(n, 2 * n - 1):
        c = conv[k]
        if c:
            row = rows[k - n]
            for j in range(n):
                out[j] += c * row[j]
    return tuple(x % p for x in out)


def _vec_pow(spec: FieldSpec, a: Sequence[int], e: int) -> tuple[int, ...]:
    result = (1,) + (0,) * (spec.n - 1)
    while e:
        if e & 1:
            result = _vec_mul(spec, a, result)
        a = _vec_mul(spec, a, a)
        e >>= 1
    return result


def _primitive_element(spec: FieldSpec) -> tuple[int, ...]:
    """The first generator of the multiplicative group, by degree and then by
    coefficients, as a coefficient vector.  g generates iff g^((q-1)/l) != 1
    for every prime l dividing q - 1; the modulus's root x need not."""
    p, n, m = spec.p, spec.n, spec.q - 1
    one = (1,) + (0,) * (n - 1)
    exponents = [m // l for l in range(2, m + 1) if m % l == 0 and is_prime(l)]
    for t in range(1, spec.q):
        g = tuple(t // p**i % p for i in range(n))
        if all(_vec_pow(spec, g, e) != one for e in exponents):
            return g
    raise AssertionError("the multiplicative group of a finite field is cyclic (unreachable)")


class _FieldTables:
    """A field's one set of tables, over a primitive element g, m = q - 1:

    * log[c]: the k in [0, m) with g^k the element with code c (None for
      c = 0);
    * exp[k]: the code of g^k for 0 <= k < 3m (three logs add unreduced);
    * half: log(-1);
    * zech[k]: the Zech logarithm log(1 + g^k) (None where 1 + g^k = 0),
      kept for 0 <= k < 2m so that any -2m < k < 2m indexes it (Python wraps
      k < 0);
    * add, sub, mul: the field's arithmetic on element codes, over zech.
      Every layer calls them; moebius._kernel extends log and zech to a zero
      sentinel and runs PGL2 products on the arrays themselves.

    O(q) to build: one sparse product per power of g (g has low degree), and
    1 + g^k is the code of g^k plus p^(n-1), mod q.
    """

    __slots__ = ("log", "exp", "half", "m", "zech", "add", "sub", "mul")

    def __init__(self, spec: FieldSpec):
        p, q, one = spec.p, spec.q, spec.one
        m = q - 1
        g = _primitive_element(spec)
        log = [None] * q
        codes = []
        power = (1,) + (0,) * (spec.n - 1)
        for k in range(m):
            c = _code(power, p)
            codes.append(c)
            log[c] = k
            power = _vec_mul(spec, g, power)
        self.log = log
        self.exp = exp = codes * 3
        self.zech = zech = [log[(c + one) % q] for c in codes] * 2
        self.half = half = 0 if p == 2 else m // 2
        self.m = m

        def add(c, d):
            if not c:
                return d
            if not d:
                return c
            i = log[c]
            z = zech[log[d] - i]  # g^i + g^j = g^i (1 + g^(j-i))
            return 0 if z is None else exp[i + z]

        def sub(c, d):
            if not d:
                return c
            j = log[d] + half  # log(-d)
            if not c:
                return exp[j]
            i = log[c]
            z = zech[j - i]
            return 0 if z is None else exp[i + z]

        def mul(c, d):
            return exp[log[c] + log[d]] if c and d else 0

        self.add, self.sub, self.mul = add, sub, mul


@lru_cache(maxsize=None)
def _inverse_cache(spec: FieldSpec) -> list:
    """inv[c]: the code of the inverse of the element with code c (None for
    0), since log(1/x) = m - log(x)."""
    t = spec._tables
    return [None] + [t.exp[t.m - t.log[c]] for c in range(1, spec.q)]


@lru_cache(maxsize=None)
def field_elements(spec: FieldSpec) -> range:
    """The q element codes in canonical (lexicographic coefficient) order,
    range(q), which the scans of a whole field iterate.  It stays memoized
    so that a traced run reports how often those scans start."""
    return range(spec.q)


def subfield_elements(spec: FieldSpec, sub_degree: int) -> list[int]:
    """The codes of the p^d elements of the subfield F_{p^d} (d = sub_degree
    divides n) in canonical order: 0 and the powers of g^((q-1)/(p^d-1))."""
    if spec.n % sub_degree != 0:
        raise ValueError(f"subfield degree {sub_degree} does not divide {spec.n}")
    t = spec._tables
    step = t.m // (spec.p**sub_degree - 1)
    return sorted([0] + t.exp[: t.m : step])


# ---------------------------------------------------------------------------
# embeddings between compatible fields


@lru_cache(maxsize=None)
def _embedding_table(src: FieldSpec, dst: FieldSpec) -> tuple[int, ...]:
    """The code in dst of the image of each element of src, by code.
    Requires the same p and the degree of src dividing that of dst.

    A field embeds into itself by the identity.  Otherwise the src generator
    is sent to the first root (canonical element order) of the src modulus
    inside dst, which makes the embedding deterministic; the roots lie in
    the subfield of order src.q.
    """
    if src is dst:
        return tuple(range(src.q))
    if src.p != dst.p:
        raise ValueError(f"cannot embed: characteristic {src.p} != {dst.p}")
    if dst.n % src.n != 0:
        raise ValueError(f"cannot embed: degree {src.n} does not divide {dst.n}")
    one, t = dst.one, dst._tables
    modulus = [c * one for c in src.modulus]
    root = next((x for x in subfield_elements(dst, src.n) if cpoly_multiplicity(dst, modulus, x)), None)
    if root is None:
        raise AssertionError(f"no root of {src.modulus} in {dst!r} (unreachable for m | n)")
    powers = [one]
    for _ in range(src.n - 1):
        powers.append(t.mul(powers[-1], root))
    table = []
    # coefficient vectors in code order, constant term most significant
    for coeffs in itertools.product(range(src.p), repeat=src.n):
        acc = 0
        for c, w in zip(coeffs, powers):
            if c:
                acc = t.add(acc, t.mul(c * one, w))
        table.append(acc)
    return tuple(table)


@lru_cache(maxsize=None)
def _projection_table(src: FieldSpec, sub: FieldSpec) -> dict[int, int]:
    """Code in src -> the code of the element of the subfield sub that
    embeds onto it."""
    return {e: x for x, e in enumerate(_embedding_table(sub, src))}


def extension_field(spec: FieldSpec, r: int) -> FieldSpec:
    """The degree-r extension F_{q^r}, realized as the auto field of degree n*r."""
    if r < 1:
        raise ValueError(f"extension degree must be >= 1, got {r}")
    if r == 1:
        return spec
    return field_make(spec.p, spec.n * r, "auto")


# ---------------------------------------------------------------------------
# roots of unity: the powers of g^((q-1)/d)


def roots_of_unity(spec: FieldSpec, n: int):
    """The codes of all solutions of x^n = 1 in F_q, canonically sorted, plus
    a flag telling whether a primitive n-th root exists (equivalently
    n | q-1).  The root count is always gcd(n, q-1)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    t = spec._tables
    roots = sorted(t.exp[: t.m : t.m // math.gcd(n, t.m)])
    has_primitive = (spec.q - 1) % n == 0
    return roots, has_primitive


# Far past any field the tables can hold, so the search only words a message.
_UNITY_DEGREE_CAP = 64


def minimal_extension_for_unity(spec: FieldSpec, n: int) -> Optional[int]:
    """Smallest r with n | q^r - 1, i.e. the least level where a primitive
    n-th root of unity appears: the order of q mod n, or None past degree
    _UNITY_DEGREE_CAP.  Undefined when p | n."""
    if n % spec.p == 0:
        raise ValueError(f"no n-th roots of unity for p | n (p={spec.p}, n={n})")
    return order(spec.q % n, lambda a, b: a * b % n, 1 % n, _UNITY_DEGREE_CAP)


def primitive_root_of_unity(spec: FieldSpec, n: int) -> int:
    """The code of the canonically smallest element of exact multiplicative
    order n: the least g^(k(q-1)/n) with k prime to n."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if n % spec.p == 0:
        raise ValueError(f"characteristic {spec.p} divides {n}: no primitive root exists")
    if (spec.q - 1) % n != 0:
        r = minimal_extension_for_unity(spec, n)
        degree = f"is {r}" if r is not None else f"none up to degree {_UNITY_DEGREE_CAP}"
        raise ValueError(
            f"no primitive root of unity of order {n} in F_{spec.p}^{spec.n}; "
            f"minimal sufficient extension degree {degree}"
        )
    t = spec._tables
    step = t.m // n
    return min(t.exp[k * step] for k in range(n) if math.gcd(k, n) == 1)


# ---------------------------------------------------------------------------
# polynomials over F_q on codes: lists of element codes, constant term first,
# with no trailing zero (the zero polynomial is []).  The helpers run on the
# field's log, antilog and Zech tables.


def _cp_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _cp_monic(spec: FieldSpec, a: list) -> list:
    t = spec._tables
    shift = t.m - t.log[a[-1]]  # log of 1/lead
    return [t.exp[shift + t.log[c]] if c else 0 for c in a]


def cpoly_sub(spec: FieldSpec, a: Sequence[int], b: Sequence[int]) -> list:
    sub = spec._tables.sub
    return _cp_trim([sub(c, d) for c, d in itertools.zip_longest(a, b, fillvalue=0)])


def cpoly_mul(spec: FieldSpec, a: Sequence[int], b: Sequence[int]) -> list:
    if not a or not b:
        return []
    t = spec._tables
    add, log, exp = t.add, t.log, t.exp
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                if d:
                    out[i + j] = add(out[i + j], exp[log[c] + log[d]])
    return out


def cpoly_divmod(spec: FieldSpec, a: Sequence[int], b: Sequence[int]) -> tuple[list, list]:
    """The quotient and remainder of a by b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    t = spec._tables
    sub, log, exp = t.sub, t.log, t.exp
    db = len(b) - 1
    rem = list(a)
    quot = [0] * max(len(a) - db, 0)
    shift = t.m - log[b[-1]]  # log of 1/lead(b)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + db]
        if c:
            k = log[c] + shift  # log of the quotient term, < 2m
            quot[i] = exp[k]
            for j, d in enumerate(b):
                if d:
                    rem[i + j] = sub(rem[i + j], exp[k + log[d]])
    return _cp_trim(quot), _cp_trim(rem[:db])


def cpoly_gcd(spec: FieldSpec, a: Sequence[int], b: Sequence[int]) -> list:
    """The monic gcd of a and b, by Euclid ([] when both are zero)."""
    while b:
        a, b = b, cpoly_divmod(spec, a, b)[1]
    return _cp_monic(spec, a) if a else []


def cpoly_powmod(spec: FieldSpec, a: Sequence[int], e: int, mod: Sequence[int]) -> list:
    """a^e modulo mod (e >= 0), by square and multiply."""
    result = cpoly_divmod(spec, [spec.one], mod)[1]
    a = cpoly_divmod(spec, a, mod)[1]
    while e:
        if e & 1:
            result = cpoly_divmod(spec, cpoly_mul(spec, result, a), mod)[1]
        e >>= 1
        if e:
            a = cpoly_divmod(spec, cpoly_mul(spec, a, a), mod)[1]
    return result


def cpoly_deriv(spec: FieldSpec, a: Sequence[int]) -> list:
    mul = spec._tables.mul
    return _cp_trim([mul(_int_code(spec, i), a[i]) for i in range(1, len(a))])


def cpoly_ddf(spec: FieldSpec, h: Sequence[int]) -> dict[int, list]:
    """The distinct-degree factorization of a squarefree h: {k: the monic
    product of the irreducible factors of h of degree k}, for the k that
    occur, in increasing order.  The part of degree k is the gcd of what is
    left of h with x^(q^k) - x (D. G. Cantor and H. Zassenhaus, "A new
    algorithm for factoring polynomials over finite fields", Math. Comp. 36,
    1981)."""
    x = [0, spec.one]
    h = _cp_monic(spec, h) if h else []
    parts = {}
    w, k = x, 0
    while len(h) - 1 >= 2 * (k + 1):
        k += 1
        w = cpoly_powmod(spec, w, spec.q, h)
        g = cpoly_gcd(spec, h, cpoly_sub(spec, w, x))
        if len(g) > 1:
            parts[k] = g
            h = cpoly_divmod(spec, h, g)[0]  # the next powmod reduces w by it
    if len(h) > 1:
        parts[len(h) - 1] = h
    return parts


def cpoly_chi_res(spec: FieldSpec, a: Sequence[int], b: Sequence[int]) -> int:
    """chi(Res(a, b)), chi the quadratic character of F_q (q odd): 0 when a
    and b share a root or one of them is zero, else 1 or -1 as the resultant
    is a square or not.  Walks Euclid's remainder sequence, with
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r) for
    r = a mod b and Res(a, c) = c^(deg a) for a constant c, keeping only the
    parity of the product's log (R. G. Swan, "Factorization of polynomials
    over finite fields", Pacific J. Math. 12, 1962)."""
    if spec.p == 2:
        raise ValueError("the quadratic character needs q odd, got p = 2")
    log, half = spec._tables.log, spec._tables.half
    e = 0  # the log of the product so far, mod 2
    while a and b:
        m, n = len(a) - 1, len(b) - 1
        if not n:
            return -1 if (e + m * log[b[0]]) % 2 else 1
        r = cpoly_divmod(spec, a, b)[1]  # a itself when deg a < deg b
        e += half * m * n + (m - len(r) + 1) * log[b[-1]]
        a, b = b, r
    return 0


def cpoly_chi_disc(spec: FieldSpec, a: Sequence[int]) -> int:
    """chi(disc a) for a of degree n >= 1 (q odd), from
    disc a = (-1)^(n(n-1)/2) lc(a)^(n-2-deg a') Res(a, a'): 0 when a has a
    repeated root.  For a squarefree a with k irreducible factors it is
    (-1)^(n-k) (L. Stickelberger, 1897; Swan, 1962)."""
    n, d = len(a) - 1, cpoly_deriv(spec, a)
    chi = cpoly_chi_res(spec, a, d)  # 0 also when a' = 0 (a is a p-th power)
    half, log = spec._tables.half, spec._tables.log
    parity = half * (n * (n - 1) // 2) + (n - 1 - len(d)) * log[a[-1]] if chi else 0
    return -chi if parity % 2 else chi


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Whether the monic f over F_p (coefficients in [0, p), constant term
    first) is irreducible.  Degree 1 is, before any table is built, which
    ends the recursion through the prime field's own spec.  Of degree n >= 2,
    f is reducible iff it has an irreducible factor of degree <= n/2, which
    the first gcds of cpoly_ddf find whether or not f is squarefree; so f is
    irreducible iff its distinct-degree factorization is {n: f} (M. Ben-Or,
    "Probabilistic algorithms in finite fields", FOCS 1981)."""
    n = len(f) - 1
    return n == 1 or cpoly_ddf(field_make(p, 1), f) == {n: list(f)}


def cpoly_multiplicity(spec: FieldSpec, a: Sequence[int], x: int) -> int:
    """How many times t - x divides the nonzero a (x an element code): the
    multiplicity of x as a root, 0 when it is none."""
    line = [spec._tables.sub(0, x), spec.one]
    e = 0
    while True:
        quot, rem = cpoly_divmod(spec, a, line)
        if rem:
            return e
        a, e = quot, e + 1


def poly_roots(spec: FieldSpec, f: Sequence[int], r: int) -> list[tuple[int, int]]:
    """All roots in F_{q^r} of the polynomial with coefficient codes f over
    F_q (constant term first) with their multiplicities, as a list of (root
    code over F_{q^r}, multiplicity) pairs in code order.  The coefficients
    are embedded into F_{q^r}, and each element x of it is tried by dividing
    by t - x for as long as the remainder is zero."""
    f = _cp_trim(list(f))
    if not f:
        raise ValueError("zero polynomial has every element as a root")
    ext = extension_field(spec, r)
    emb = _embedding_table(spec, ext)
    f = [emb[c] for c in f]
    return [(x, e) for x in field_elements(ext) if (e := cpoly_multiplicity(ext, f, x))]


@lru_cache(maxsize=None)
def _sqrt_table(spec: FieldSpec) -> dict[int, list[int]]:
    """v -> the codes of the square roots of v, in code order."""
    table: dict = {}
    mul = spec._tables.mul
    for y in field_elements(spec):
        table.setdefault(mul(y, y), []).append(y)
    return table


@lru_cache(maxsize=None)
def _artin_schreier_table(spec: FieldSpec) -> dict[int, list[int]]:
    """v -> the codes of the solutions y of y^2 + y = v, in code order (p = 2)."""
    table: dict = {}
    add, mul = spec._tables.add, spec._tables.mul
    for y in field_elements(spec):
        table.setdefault(add(mul(y, y), y), []).append(y)
    return table


# ---------------------------------------------------------------------------
# F_p-linear algebra on coefficient vectors (shared by subfield bases and
# additive subgroup canonicalization)


def fp_echelon(vectors: Iterable[Sequence[int]], p: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over F_p; zero rows dropped.

    Two spanning sets of the same subspace yield identical output, so this is
    the canonical form used for every F_p-subspace in the package.
    """
    rows = [list(v) for v in vectors]
    if not rows:
        return ()
    ncols = len(rows[0])
    pivot_rows: list[list[int]] = []
    pivot_cols: list[int] = []
    for row in rows:
        for prow, pcol in zip(pivot_rows, pivot_cols):
            c = row[pcol]
            if c:
                for j in range(ncols):
                    row[j] = (row[j] - c * prow[j]) % p
        col = next((j for j, x in enumerate(row) if x % p), None)
        if col is None:
            continue
        inv = pow(row[col], p - 2, p)
        row = [(x * inv) % p for x in row]
        # clear the new pivot column in earlier rows
        for prow in pivot_rows:
            c = prow[col]
            if c:
                for j in range(ncols):
                    prow[j] = (prow[j] - c * row[j]) % p
        pivot_rows.append(row)
        pivot_cols.append(col)
    order = sorted(range(len(pivot_rows)), key=lambda i: pivot_cols[i])
    return tuple(tuple(pivot_rows[i]) for i in order)


# ---------------------------------------------------------------------------
# text formats


def render_field_spec(spec: FieldSpec) -> str:
    base = f"{spec.p}^{spec.n}"
    if spec.modulus == _auto_modulus(spec.p, spec.n):
        return base
    return base + "/" + ",".join(str(c) for c in spec.modulus)


def parse_field_spec(text: str) -> FieldSpec:
    """Parse "p^n" or "p^n/c0,c1,...,cn"."""
    text = text.strip()
    head, slash, tail = text.partition("/")
    p_str, _, n_str = head.partition("^")  # no "^" leaves n_str empty
    try:
        p, n = int(p_str), int(n_str)
        mod = [int(t) for t in tail.split(",")] if slash else "auto"
    except ValueError:
        raise ValueError(f"field spec must look like p^n or p^n/c0,c1,...,cn, with integers, got {text!r}") from None
    return field_make(p, n, mod)


def render_element(spec: FieldSpec, code: int) -> str:
    """The text "c0,c1,...,c{n-1}" of the element with this code.  A report
    renders the same few elements many times, so each text is kept in the
    field's memo once made; the memo holds only what was rendered, so one
    element of a big field costs O(n), with no table of the field."""
    text = spec._texts.get(code)
    if text is None:
        text = spec._texts[code] = ",".join(map(str, _digits(spec, code)))
    return text


def parse_element(spec: FieldSpec, text: str) -> FqElem:
    """Parse "c0,c1,...": n coefficients, each in [0, p) (out-of-range
    coefficients are rejected, not reduced)."""
    try:
        parts = [int(t) for t in text.strip().split(",")]
    except ValueError:
        parts = []
    if len(parts) != spec.n:
        raise ValueError(f"element of F_{spec.p}^{spec.n} needs {spec.n} integer coefficients, got {text!r}")
    if any(not (0 <= c < spec.p) for c in parts):
        raise ValueError(f"coefficients must lie in [0, {spec.p}), got {tuple(parts)}")
    return FqElem(spec, _code(parts, spec.p))
