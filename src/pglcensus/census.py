"""Census of group actions on P^1 with a prescribed stabilized locus.

The enumeration realizes the dichotomy at the heart of the package: for a
fixed finite field level and a fixed isomorphism type, the subgroups of
PGL2(F_{q^r}) with stabilized locus exactly S form

* a single conjugacy-transporter orbit when |S| >= 2 (finitely many matches,
  and the count is stable as the field grows): each match is g H0 g^{-1}
  with g(L0) = S for a model H0 with locus L0, one g per coset g.Fix(L0).H0
  sufficing (Fix(L0) the pointwise stabilizer of L0), or
* one match per rank-m additive subgroup of the field when the type is
  (Z/pZ)^m and |S| = 1 - a count that equals the Gaussian binomial
  [n choose m]_p and grows without bound along the field tower.

Every reported match is re-verified from scratch: its stabilized locus is
recomputed and compared with S, and its fingerprint is compared with the
model's.  An independent brute-force oracle (scan the stabilizer of the point
for maps g != 1 with g^p = 1, then grow subgroups from them by closure)
cross-checks the elementary-abelian counts with no classification knowledge.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .closure import is_prime, order, subgroups_of_order
from .gfq import (
    FieldSpec,
    FqElem,
    Record,
    by_code,
    extension_field,
    field_make,
    fp_echelon,
    fq_from_coeffs,
    fq_mul,
    render_field_spec,
)
from .moebius import (
    PP1,
    _code_law,
    _code_points,
    _entry_codes,
    _from_codes,
    mob_infinity_to,
    mob_inverse,
    parse_point_list,
    pp1_embed,
    pp1_infinity,
    render_moebius,
    render_point,
    transporters,
)
from .stdgroups import (
    Fingerprint,
    SubgroupPGL2,
    _make_subgroup,
    _translation_parts,
    conjugate_subgroup,
    fingerprint,
    irrational_locus_pairs,
    stabilized_locus,
    std_A4,
    std_A5,
    std_cyclic,
    std_dihedral,
    std_gamma_semidirect,
    std_PGL2,
    std_PSL2,
    std_S4,
    subgroup_embed,
    subgroup_project,
    subgroup_to_json,
)


# ---------------------------------------------------------------------------
# additive subgroups (F_p-subspaces of F_{p^n})


class AdditiveSubgroup(Record):
    """An F_p-subspace of F_{p^n} in reduced-echelon basis form.  Two equal
    subspaces always carry the identical basis tuple."""

    spec: FieldSpec
    basis: tuple[FqElem, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def element_codes(self) -> list[int]:
        """The codes of the p^rank members of the subspace, the sums
        c_1 b_1 + ... + c_r b_r over the basis with 0 <= c_i < p, in
        lexicographic order of (c_1, ..., c_r)."""
        add = self.spec._tables.add
        codes = [0]
        for b in self.basis:
            multiples = [0]
            for _ in range(self.spec.p - 1):
                multiples.append(add(multiples[-1], b.code))
            codes = [add(x, y) for x in codes for y in multiples]
        return codes

    def elements(self) -> list[FqElem]:
        """All p^rank members of the subspace, in element_codes order."""
        elems = self.spec._tables.elems
        return [elems[c] for c in self.element_codes()]

    def __repr__(self) -> str:
        basis = "; ".join(",".join(str(c) for c in b.coeffs) for b in self.basis)
        return f"AdditiveSubgroup(rank {self.rank}: {basis})"


def additive_subgroup(spec: FieldSpec, gens: Iterable[FqElem]) -> AdditiveSubgroup:
    """The F_p-span of the generators, canonicalized by echelon reduction."""
    rows = fp_echelon([g.coeffs for g in gens], spec.p)
    return AdditiveSubgroup(spec, tuple(fq_from_coeffs(spec, r) for r in rows))


def gaussian_binomial(n: int, m: int, p: int) -> int:
    """Number of m-dimensional F_p-subspaces of F_p^n."""
    if m < 0 or m > n:
        return 0
    num = den = 1
    for i in range(m):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def enum_additive_subgroups(spec: FieldSpec, m: int) -> list[AdditiveSubgroup]:
    """All rank-m F_p-subspaces of F_{p^n}, each in canonical echelon form.

    Enumerated directly as reduced echelon matrices: choose pivot columns,
    then fill the free positions (right of each pivot, outside pivot columns)
    in every possible way.  The count is the Gaussian binomial [n choose m]_p.
    """
    n, p = spec.n, spec.p
    if m < 0 or m > n:
        raise ValueError(f"rank must lie in [0, {n}], got {m}")
    if m == 0:
        return [AdditiveSubgroup(spec, ())]
    out = []
    for pivots in itertools.combinations(range(n), m):
        free = [
            (i, j)
            for i in range(m)
            for j in range(n)
            if j > pivots[i] and j not in pivots
        ]
        for values in itertools.product(range(p), repeat=len(free)):
            rows = [[0] * n for _ in range(m)]
            for i in range(m):
                rows[i][pivots[i]] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            out.append(
                AdditiveSubgroup(spec, tuple(fq_from_coeffs(spec, r) for r in rows))
            )
    out.sort(key=lambda G: tuple(b.code for b in G.basis))
    assert len(out) == gaussian_binomial(n, m, p)
    return out


def gamma_to_unipotent(gamma: AdditiveSubgroup) -> SubgroupPGL2:
    """The translation group {x -> x + g : g in gamma}, tagged Zp^m, built
    from the element codes of gamma: each [1,g;0,1] is already normalized."""
    spec = gamma.spec
    one = spec.q // spec.p
    elems = (_from_codes(spec, (one, g, 0, one)) for g in gamma.element_codes())
    return _make_subgroup(spec, elems, f"Zp^{gamma.rank}")


def unipotent_to_gamma(H: SubgroupPGL2) -> AdditiveSubgroup:
    """Inverse of gamma_to_unipotent; rejects groups that are not pure
    translation groups (i.e. do not fix infinity unipotently)."""
    parts = _translation_parts(H)
    if parts is None:
        raise ValueError(f"{H!r} is not a translation group: it is not unipotent on infinity")
    return additive_subgroup(H.spec, parts)


def scale_subgroup(gamma: AdditiveSubgroup, alpha: FqElem) -> AdditiveSubgroup:
    """The subspace alpha * gamma, re-canonicalized.  alpha must be nonzero."""
    if alpha.is_zero():
        raise ValueError("scaling by zero collapses the subgroup")
    if alpha.spec is not gamma.spec:
        raise ValueError("scalar lives in the wrong field")
    return additive_subgroup(gamma.spec, [fq_mul(alpha, b) for b in gamma.basis])


# ---------------------------------------------------------------------------
# census queries


class CensusQuery(Record):
    """Ask for all subgroups of PGL2(F_{q^r}) of a given classification tag
    whose stabilized locus is exactly the given point set."""

    spec: FieldSpec
    group_id: str
    locus: tuple[PP1, ...]
    r: int = 1


class CensusReport(Record):
    query: CensusQuery
    matches: tuple[SubgroupPGL2, ...]
    count: int
    verdict: str  # "finite" or "grows_with_field"
    notes: str = ""


class UnknownTagError(ValueError):
    pass


def parse_group_id(tag: str) -> tuple[str, tuple[int, ...]]:
    """Normalize a classification tag string to (kind, parameters).

    Grammar: cyclic:n | dihedral:n | A4 | S4 | A5 | PSL2:d | PGL2:d |
    Zp^m | gamma:m:n (rank m, unity order n; gamma:m:1 == Zp^m).  A
    parameter out of range raises ValueError, and so does gamma:0:n for
    n > 1, which is the group cyclic:n.
    """
    t = tag.strip()
    if t in ("A4", "S4", "A5"):
        return t, ()
    parsed = None
    for kind in ("cyclic", "dihedral", "PSL2", "PGL2"):
        if t.startswith(kind + ":"):
            parsed = kind, (int(t.split(":")[1]),)
    if t.startswith("Zp^"):
        parsed = "gamma", (int(t[3:]), 1)
    parts = t.split(":")
    if parts[0] == "gamma" and len(parts) == 3:
        parsed = "gamma", (int(parts[1]), int(parts[2]))
    if parsed is None:
        raise UnknownTagError(f"unknown group tag {tag!r}")
    kind, params = parsed
    # every parameter is at least 1, except the rank m of Zp^m and gamma:m:n
    least = (0, 1) if kind == "gamma" else (1,)
    if any(v < lo for v, lo in zip(params, least)):
        raise ValueError(f"group tag {tag!r} has a parameter out of range")
    if kind == "gamma" and params[0] == 0 and params[1] > 1:
        raise ValueError(f"group tag {tag!r} has rank 0: the group is cyclic:{params[1]}")
    return kind, params


# the constructor of each kind's one standard model, called as (ext, *params)
_MODEL_CONSTRUCTORS = {
    "cyclic": std_cyclic,
    "dihedral": std_dihedral,
    "A4": std_A4,
    "S4": std_S4,
    "A5": std_A5,
    "PSL2": std_PSL2,
    "PGL2": std_PGL2,
}


def _standard_models(ext: FieldSpec, kind: str, params: tuple[int, ...]) -> list[SubgroupPGL2]:
    """Standard models over the working field for a tag.  Most tags have one
    model; gamma tags with n > 1 have one per admissible additive subgroup."""
    if kind in _MODEL_CONSTRUCTORS:
        return [_MODEL_CONSTRUCTORS[kind](ext, *params)]
    if kind == "gamma":
        m, n = params
        models = []
        for gamma in enum_additive_subgroups(ext, m):
            try:
                models.append(std_gamma_semidirect(gamma, n))
            except ValueError:
                continue  # this gamma fails the containment/closure conditions
        return models
    raise UnknownTagError(f"unknown group kind {kind!r}")


def _elementary_abelian_fingerprint(ext: FieldSpec, m: int) -> Fingerprint:
    p = ext.p
    orders = ((1, 1),) if m == 0 else ((1, 1), (p, p ** m - 1))
    return Fingerprint(order=p ** m, element_orders=orders, abelian=True, p_regular=(m == 0))


def _subgroup_sort_key(H: SubgroupPGL2):
    return tuple(m.code for m in H.elements)


def _verified(
    candidates: Iterable[SubgroupPGL2],
    S: tuple[PP1, ...],
    expected_fp: Fingerprint,
) -> list[SubgroupPGL2]:
    """Keep candidates whose locus over the algebraic closure is exactly S,
    the queried locus over the census field F_{q^r}, sorted, and whose
    fingerprint equals the expected one; deduplicate by element set.  The
    locus is recomputed over F_{q^r} in one fixed-point pass, which also
    fails when some element has its fixed points outside F_{q^r}
    (stabilized_locus with complete=True): a rational S is then the whole
    locus, with no table of F_{q^{2r}} built."""
    seen = set()
    out = []
    for H in candidates:
        if H.elements in seen:
            continue
        seen.add(H.elements)
        if stabilized_locus(H, 1, complete=True) != S:
            continue
        if fingerprint(H) != expected_fp:
            continue
        out.append(H)
    out.sort(key=_subgroup_sort_key)
    return out


def enum_actions(query: CensusQuery) -> CensusReport:
    """Enumerate all subgroups of PGL2(F_{q^r}) matching the query.

    Strategy by locus size, after comparing it with the model's locus size:

    * |S| = 1, elementary-abelian tag: one subgroup per rank-m additive
      subgroup of F_{q^r}, conjugated so its stabilized point is the queried
      one.  This is the growing side of the dichotomy.
    * |S| >= 2: g H0 g^{-1} for each g from moebius.transporters(L0, S, H0),
      L0 the model's full locus: one g per coset g.Fix(L0).H0, Fix(L0) its
      pointwise stabilizer (trivial, or for |L0| = 2 the torus containing
      H0), since every map of a coset gives the same conjugate.  Over F_{q^r}
      if L0 is rational there, else over F_{q^{2r}}, keeping the conjugates
      inside PGL2(F_{q^r}).

    Loci are decided over the census field F_{q^r}.  A model's full locus
    has |stabilized_locus(H0, 1)| + 2 |irrational_locus_pairs(H0)| points
    (stdgroups), so a model of the wrong size is skipped without leaving
    F_{q^r}.  F_{q^{2r}} is built only for a model whose full locus has |S|
    points but leaves F_{q^r}.  Matches are deduplicated and sorted
    canonically, so the report is byte-deterministic.
    """
    ext = extension_field(query.spec, query.r)
    S = tuple(sorted({pp1_embed(P, ext) for P in query.locus}, key=by_code))
    # reports echo the normalized query: locus embedded into the working
    # field, deduplicated and sorted
    query = CensusQuery(query.spec, query.group_id, S, query.r)
    kind, params = parse_group_id(query.group_id)

    if kind == "gamma" and params[1] == 1:
        m = params[0]
        expected = _elementary_abelian_fingerprint(ext, m)
        if len(S) == 1 and m >= 1:
            move = mob_infinity_to(S[0])
            candidates = [
                conjugate_subgroup(gamma_to_unipotent(G), move)
                for G in enum_additive_subgroups(ext, m)
            ]
            matches = _verified(candidates, S, expected)
            verdict = "grows_with_field"
            notes = f"one action per rank-{m} additive subgroup of {render_field_spec(ext)}"
        elif len(S) == 0 and m == 0:
            # the trivial group is the unique subgroup with empty locus
            matches = [gamma_to_unipotent(AdditiveSubgroup(ext, ()))]
            verdict = "finite"
            notes = "the trivial action"
        else:
            matches = []
            verdict = "finite"
            notes = (
                "an elementary-abelian action has exactly one stabilized point"
                if m >= 1
                else "the trivial group stabilizes nothing"
            )
        return CensusReport(query, tuple(matches), len(matches), verdict, notes=notes)

    models = _standard_models(ext, kind, params)
    candidates: list[SubgroupPGL2] = []
    for H0 in models:
        L0 = stabilized_locus(H0, 1)
        # the full locus is L0 and two points per irrational_locus_pairs entry
        if len(L0) + 2 * len(irrational_locus_pairs(H0)) != len(S):
            continue
        if len(S) == 0:
            candidates.append(H0)  # only the trivial model has empty locus
        elif len(S) >= 2:
            # one transporter per coset g.Fix(L0).H0 is enough: g.t.h H0
            # (g.t.h)^{-1} = g H0 g^{-1} for h in H0 and t in Fix(L0), which is
            # trivial for |L0| >= 3 and for |L0| = 2 the abelian torus through
            # L0, which contains H0
            if len(L0) == len(S):  # L0 is the full locus, so every g is rational too
                model, locus, target = H0, L0, S
            else:
                ext2 = extension_field(ext, 2)
                model, locus = subgroup_embed(H0, ext2), stabilized_locus(H0, 2)
                target = tuple(sorted((pp1_embed(P, ext2) for P in S), key=by_code))
            maps = transporters(locus, target, model.elements)
            conjugates = (subgroup_project(conjugate_subgroup(model, g), ext) for g in maps)
            candidates.extend(H for H in conjugates if H is not None)
        # |S| <= 1 never matches a non-elementary-abelian model

    expected = fingerprint(models[0]) if models else None
    matches = _verified(candidates, S, expected) if expected is not None else []
    return CensusReport(query, tuple(matches), len(matches), "finite")


# ---------------------------------------------------------------------------
# independent oracle for the elementary-abelian census


# The most work one row of verify_main_theorem may take, in units of one
# uncached map composition: about 10 us in CPython 3.11 on one core of a
# 2-vCPU x86-64 container, so about 10 s a row.  Set from measured times of
# the oracle and the census; README lists the worst accepted cases.
WORK_BOUND = 1_000_000


def dichotomy_work(p: int, n: int, m: int, affine: bool = False) -> int:
    """Estimated cost of the (Z/pZ)^m oracle over F_{p^n} and of the census
    of the same subgroups, in uncached map compositions.  With q = p^n, each
    term fitted to measured times:

    * the oracle's scan: q(q - 1) maps, p - 1 compositions each for the power
      test, plus 3 for the conjugation (two products and an inverse) when
      the point is affine;
    * the first products of two order-p maps, (q - 1)^2, when m >= 2;
    * the growth, at a quarter since its compositions are mostly cache hits:
      [n choose k]_p subgroups of order p^k (k < m), each closed
      (q - p^k)/(p^(k+1) - p^k) times at (k + 1) p^(k+1) compositions;
    * the subgroups held, [n choose m]_p of p^m maps each: the oracle's
      final power test (p - 1 compositions a map, at a quarter), and 6 a
      map for the census that rebuilds and verifies each of them.
    """
    q = p ** n
    scan = q * (q - 1) * (p + 2 if affine else p - 1)
    pairs = (q - 1) ** 2 if m >= 2 else 0
    grow = sum(gaussian_binomial(n, k, p) * (k + 1) * (q - p ** k) for k in range(m))
    held = gaussian_binomial(n, m, p) * p ** m
    return scan + pairs + (grow + held * (p - 1)) // 4 + 6 * held


def _check_work(p: int, n: int, m: int, affine: bool = False) -> None:
    # the work is at least q = p^n >= 2^n, so a q over the bound is refused
    # first, and no huge q or work is raised to its power or printed
    q_over = n >= WORK_BOUND.bit_length() or p ** n > WORK_BOUND
    work = None if q_over else dichotomy_work(p, n, m, affine)
    if q_over or work > WORK_BOUND:
        estimate = f"at least q = {p}^{n}" if q_over else f"an estimated {work}"
        raise ValueError(
            f"(Z/{p}Z)^{m} over F_{{{p}^{n}}} would take {estimate} map compositions, "
            f"over the bound WORK_BOUND = {WORK_BOUND} (about 10 s)"
        )


@lru_cache(maxsize=None)
def _order_p_stabilizer(spec: FieldSpec, point: PP1) -> tuple[tuple[int, int, int, int], ...]:
    """The maps of order p that fix P, as entry-code tuples of the field's
    code law, in scan order.  The stabilizer of P is t Stab(inf) t^{-1} for
    any t with t(inf) = P, and Stab(inf) is the q(q - 1) maps [1,b;0,d],
    d != 0 (c = 0 is what fixing inf means).  Each conjugate is checked to
    fix P and kept when g != 1 and g^p = 1.  Cached per (field, point), so
    the ranks of one level share one scan."""
    law, _, ident = _code_law(spec)
    apply = _code_points(spec)[0]
    p, q, x = spec.p, spec.q, point.code
    stab = ((ident[0], b, 0, d) for b in range(q) for d in range(1, q))
    if not point.is_infinity:
        to_point = mob_infinity_to(point)
        conj, conj_inv = _entry_codes(to_point), _entry_codes(mob_inverse(to_point))
        stab = (law(law(conj, g), conj_inv) for g in stab)
    kept = []
    for g in stab:
        if apply(g, x) != x:
            raise AssertionError(f"{render_moebius(_from_codes(spec, g))} does not fix {render_point(point)}: t(inf) != P")
        if order(g, law, ident, p) == p:
            kept.append(g)
    return tuple(kept)


def oracle_enum_elem_abelian(spec: FieldSpec, m: int, point: PP1) -> list[SubgroupPGL2]:
    """Brute-force census of (Z/pZ)^m-subgroups of PGL2(F_q) fixing a point
    P of P^1(F_q), with no classification knowledge.  The maps of order p
    in the stabilizer of P (_order_p_stabilizer) generate subgroups of
    order p^m, grown by closing generator lists (`subgroups_of_order`); those
    of exponent p are returned.  Products run on entry codes through the
    field's code law, memoized per call, and maps are built only for the
    subgroups returned.  A point over another field raises ValueError (field
    mismatch), as does a field and rank whose dichotomy_work is over
    WORK_BOUND."""
    if point.spec is not spec:
        raise ValueError(f"field mismatch: point over {point.spec!r}, oracle over {spec!r}")
    _check_work(spec.p, spec.n, m, affine=not point.is_infinity)
    p = spec.p
    law, _, ident = _code_law(spec)
    op = lru_cache(maxsize=None)(law)
    found = [
        _make_subgroup(spec, (_from_codes(spec, g) for g in H), "unclassified")
        for H in subgroups_of_order(_order_p_stabilizer(spec, point), op, ident, p ** m)
        if all(order(g, op, ident, p) == p for g in H if g != ident)
    ]
    return sorted(found, key=_subgroup_sort_key)


# ---------------------------------------------------------------------------
# the finite/infinite dichotomy, within WORK_BOUND


class DichotomyRow(Record):
    n: int
    m: int
    census_count: int
    subspace_count: int
    oracle_count: int
    gaussian: int

    @property
    def ok(self) -> bool:
        return self.census_count == self.subspace_count == self.oracle_count == self.gaussian


class BoundedRow(Record):
    tag: str
    locus_text: str
    counts: tuple[tuple[int, int], ...]  # (n, count)
    constant: int

    @property
    def ok(self) -> bool:
        values = [c for _, c in self.counts]
        return all(v == values[0] for v in values)


class MainTheoremReport(Record):
    p: int
    n_values: tuple[int, ...]
    rows: tuple[DichotomyRow, ...]
    growth_ok: tuple[tuple[int, bool], ...]  # (m, strictly growing past n = m)
    bounded_rows: tuple[BoundedRow, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches()

    def mismatches(self) -> list[str]:
        out = []
        for r in self.rows:
            if not r.ok:
                out.append(
                    f"n={r.n} m={r.m}: census {r.census_count}, subspaces {r.subspace_count}, "
                    f"oracle {r.oracle_count}, gaussian {r.gaussian}"
                )
        for m, g in self.growth_ok:
            if not g:
                out.append(f"m={m}: counts do not strictly grow with the field level")
        for b in self.bounded_rows:
            if not b.ok:
                out.append(f"{b.tag} at {b.locus_text}: counts {b.counts} are not constant")
        return out


def check_main_theorem_run(p: int, top: int, m_values: Optional[Sequence[int]] = None) -> None:
    """Refuse, before any work, a verify_main_theorem run whose largest level
    is top: p not a prime, a rank outside 1..top, or a row over WORK_BOUND.
    It needs no other level, so a range of levels is refused unexpanded."""
    if p < 2:
        raise ValueError(f"p must be a prime, got {p}")
    bad_m = [m for m in m_values or () if not 1 <= m <= top]
    if bad_m:
        raise ValueError(f"rank m must lie in 1..{top} (the largest level), got {bad_m[0]}")
    # the work grows with the level, so the top level bounds every row
    for m in m_values if m_values is not None else range(1, top + 1):
        _check_work(p, top, m)
    # after the bound, which keeps p below about 100, so trial division is quick
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")


def verify_main_theorem(
    p: int,
    n_values: Sequence[int],
    m_values: Optional[Sequence[int]] = None,
    extra_queries: Sequence[tuple[str, str]] = (),
) -> MainTheoremReport:
    """Check the finite/infinite dichotomy across field levels F_{p^n}.

    For each level n and rank m: the census of (Z/pZ)^m-actions with one
    stabilized point, the additive-subgroup enumeration, and the element-scan
    oracle must agree and equal the Gaussian binomial [n choose m]_p; for each
    m the counts must strictly grow along the levels (the desk-scale witness
    that the class count is unbounded).  A requested rank m must lie in
    1..max(levels); levels below m are skipped.  Extra queries (tag,
    locus-text) are censused at every level and must return a
    level-independent constant; their locus points are written over the prime
    field (e.g. "0,inf") and embedded into each level.  Any prime p is
    accepted; a run with a row whose dichotomy_work is over WORK_BOUND is
    refused before any work.
    """
    n_values = tuple(sorted(set(n_values)))
    if not n_values or n_values[0] < 1:
        raise ValueError(f"levels must be at least 1, got {n_values}")
    check_main_theorem_run(p, n_values[-1], m_values)

    rows = []
    per_m_counts: dict[int, list[tuple[int, int]]] = {}
    for n in n_values:
        spec = field_make(p, n)
        inf = pp1_infinity(spec)
        ms = [m for m in (m_values if m_values is not None else range(1, n + 1)) if 1 <= m <= n]
        for m in ms:
            report = enum_actions(CensusQuery(spec, f"Zp^{m}", (inf,), r=1))
            subspaces = len(enum_additive_subgroups(spec, m))
            oracle = len(oracle_enum_elem_abelian(spec, m, inf))
            rows.append(
                DichotomyRow(
                    n=n,
                    m=m,
                    census_count=report.count,
                    subspace_count=subspaces,
                    oracle_count=oracle,
                    gaussian=gaussian_binomial(n, m, p),
                )
            )
            per_m_counts.setdefault(m, []).append((n, report.count))

    growth = [
        (m, all(c2 > c1 for (_, c1), (n2, c2) in zip(counts, counts[1:]) if n2 > m))
        for m, counts in sorted(per_m_counts.items())
    ]

    bounded = []
    prime = field_make(p, 1)
    for tag, locus_text in extra_queries:
        base_locus = parse_point_list(prime, locus_text)
        counts = []
        for n in n_values:
            spec = field_make(p, n)
            locus = tuple(pp1_embed(P, spec) for P in base_locus)
            report = enum_actions(CensusQuery(spec, tag, locus, r=1))
            counts.append((n, report.count))
        bounded.append(
            BoundedRow(tag=tag, locus_text=locus_text, counts=tuple(counts), constant=max(c for _, c in counts))
        )

    return MainTheoremReport(
        p=p,
        n_values=n_values,
        rows=tuple(rows),
        growth_ok=tuple(growth),
        bounded_rows=tuple(bounded),
    )


# ---------------------------------------------------------------------------
# serialization (the CLI's JSON payloads; a census match decodes back to its
# subgroup with stdgroups.subgroup_from_json)


def census_report_to_json(report: CensusReport) -> dict:
    # every match's locus was verified to be the query's, over the working
    # field, so that is rendered at level 1 (the census field itself)
    q = report.query
    return {
        "schema": "pglcensus/census/v2",
        "query": {
            "field": render_field_spec(q.spec),
            "group": q.group_id,
            "locus": [render_point(P) for P in q.locus],
            "ext": q.r,
            "locus_field": render_field_spec(extension_field(q.spec, q.r)),
        },
        "count": report.count,
        "verdict": report.verdict,
        "matches": [subgroup_to_json(H, 1, q.locus) for H in report.matches],
        "notes": report.notes,
    }


def main_theorem_report_to_json(report: MainTheoremReport) -> dict:
    return {
        "schema": "pglcensus/verify-main/v1",
        "p": report.p,
        "levels": list(report.n_values),
        "dichotomy": [
            {
                "n": r.n,
                "m": r.m,
                "census": r.census_count,
                "subspaces": r.subspace_count,
                "oracle": r.oracle_count,
                "gaussian": r.gaussian,
                "ok": r.ok,
            }
            for r in report.rows
        ],
        "growth": [{"m": m, "strictly_growing": g} for m, g in report.growth_ok],
        "bounded": [
            {
                "tag": b.tag,
                "locus": b.locus_text,
                "counts": [list(t) for t in b.counts],
                "constant": b.constant,
                "ok": b.ok,
            }
            for b in report.bounded_rows
        ],
        "ok": report.ok,
        "mismatches": report.mismatches(),
    }
