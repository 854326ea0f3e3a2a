"""The verify-main command: the finite/infinite dichotomy across field
levels, checked against an independent oracle.

For a prime p, each level n and each rank m, three counts of the
(Z/pZ)^m-actions with one stabilized point over F_{p^n} must agree and
equal the Gaussian binomial [n choose m]_p: the census (census.py), the
echelon bases of the rank-m subspaces, and a brute-force oracle with no
classification knowledge, which scans the stabilizer of the point for maps
g != 1 with g^p = 1 and grows subgroups from them by closure.  The counts
must grow strictly along the levels, while extra queries at two or more
points must give a constant count.  A row whose estimated work
(dichotomy_work) is over census.WORK_BOUND is refused before any work.

Only verify-main reaches this module, so a census process never compiles
it: the CLI imports it when the command runs, and the package serves
verify_main_theorem from it on first read.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

from . import census  # WORK_BOUND is read from census at each check, where it is set
from .census import CensusQuery, _echelon_bases, _translation_census, enum_actions, gaussian_binomial
from .closure import is_prime, order, subgroup_layers
from .gfq import FieldSpec, Record, field_make
from .moebius import (
    PP1,
    _kernel,
    _render_codes,
    mob_infinity_to,
    parse_point_list,
    pp1_embed,
    pp1_infinity,
    render_point,
)
from .stdgroups import SubgroupPGL2, _conjugator


# ---------------------------------------------------------------------------
# independent oracle for the elementary-abelian census


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
      (q - p^k)/(p^(k+1) - p^k) times at (k + 1) p^(k+1) compositions.
      The growth now closes each subgroup once, and the ranks of a level
      share it (_oracle_growth), so rank m grows only layer m, while this
      term charges every layer below m too: it overstates the cost more
      than before.  It is kept, as are the refusals it pins, since a refit
      changes which inputs are refused;
    * the subgroups held, [n choose m]_p of p^m maps each: the oracle's
      final power test (p - 1 compositions a map, at a quarter), and 6 a
      map for the census that rebuilds and verifies each of them.  The
      census closes each subgroup from its m basis maps and certifies it
      on them (census._basis_certified), with no generator search and no
      order per member, so this term over-counts its cost.  It is kept, as
      are the refusals it pins, until the work bound is refitted.
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
    q_over = n >= census.WORK_BOUND.bit_length() or p ** n > census.WORK_BOUND
    work = None if q_over else dichotomy_work(p, n, m, affine)
    if q_over or work > census.WORK_BOUND:
        estimate = f"at least q = {p}^{n}" if q_over else f"an estimated {work}"
        raise ValueError(
            f"(Z/{p}Z)^{m} over F_{{{p}^{n}}} would take {estimate} map compositions, "
            f"over the bound WORK_BOUND = {census.WORK_BOUND} (about 10 s)"
        )


@lru_cache(maxsize=None)
def _order_p_stabilizer(spec: FieldSpec, point: PP1) -> tuple[tuple[int, int, int, int], ...]:
    """The maps of order p that fix P, as entry-code tuples of the field's
    code law, in scan order.  The stabilizer of P is t Stab(inf) t^{-1} for
    any t with t(inf) = P, and Stab(inf) is the q(q - 1) maps [1,b;0,d],
    d != 0 (c = 0 is what fixing inf means).  Each conjugate is checked to
    fix P and kept when g != 1 and g^p = 1.  Cached per (field, point), so
    the ranks of one level share one scan."""
    K = _kernel(spec)
    law, ident, apply = K.law, K.identity, K.apply
    p, q, x = spec.p, spec.q, point.code
    stab = ((ident[0], b, 0, d) for b in range(q) for d in range(1, q))
    if not point.is_infinity:
        stab = map(_conjugator(spec, mob_infinity_to(point)), stab)
    kept = []
    for g in stab:
        if apply(g, x) != x:
            raise AssertionError(f"{_render_codes(spec, g)} does not fix {render_point(point)}: t(inf) != P")
        if order(g, law, ident, p) == p:
            kept.append(g)
    return tuple(kept)


class _OracleGrowth:
    """The layered growth (closure.subgroup_layers) of the subgroups that the
    maps of _order_p_stabilizer generate, through one memoized code law,
    shared by every rank asked at one (field, point).

    A subgroup X of order p^m is reached along a chain of subgroups of X, a
    p-group, so each step multiplies the order by at least p and X lies in
    one of the layers 0..m.  Rank m therefore draws the layers up to m, and
    a drawn layer k keeps only its subgroups with at least p^k members, the
    ones a rank >= k may need; the growth itself holds only its last layer.
    A rank below the last drawn layer starts the growth again, over the
    same memo."""

    def __init__(self, spec: FieldSpec, point: PP1):
        K = _kernel(spec)
        self.p, self.ident = spec.p, K.identity
        self.op = lru_cache(maxsize=None)(K.law)
        self.scanned = _order_p_stabilizer(spec, point)
        self.order_p = frozenset(self.scanned)
        self._start()

    def _start(self) -> None:
        self.layers = subgroup_layers(self.scanned, self.op, self.ident)
        self.drawn = -1
        self.held: dict[int, set] = {}  # order -> subgroups of the drawn layers

    def subgroups(self, m: int) -> list[frozenset]:
        """The subgroups of order p^m whose members other than the identity
        all have order p, which is membership in the scan: it kept every
        map of order p that fixes the point."""
        if m < self.drawn:
            self._start()
        while self.drawn < m:
            self.drawn += 1
            least = self.p ** self.drawn
            held = {size: Hs for size, Hs in self.held.items() if size >= least}
            for H in next(self.layers, ()):
                if len(H) >= least:
                    held.setdefault(len(H), set()).add(H)
            self.held = held
        return [H for H in self.held.get(self.p ** m, ()) if len(H & self.order_p) == len(H) - 1]


@lru_cache(maxsize=1)
def _oracle_growth(spec: FieldSpec, point: PP1) -> _OracleGrowth:
    """The oracle's growth at (spec, point): the ranks of one verify-main
    level share it, and the next level's growth drops it."""
    return _OracleGrowth(spec, point)


def _oracle_subgroups(spec: FieldSpec, m: int, point: PP1) -> list[frozenset]:
    """The oracle's subgroups of order p^m at the point, as frozensets of
    entry-code tuples in no fixed order, from the growth that the ranks at
    (spec, point) share with its law memo (_oracle_growth)."""
    return _oracle_growth(spec, point).subgroups(m)


def oracle_enum_elem_abelian(spec: FieldSpec, m: int, point: PP1) -> list[SubgroupPGL2]:
    """Brute-force census of (Z/pZ)^m-subgroups of PGL2(F_q) fixing a point
    P of P^1(F_q), with no classification knowledge.  The maps of order p
    in the stabilizer of P (_order_p_stabilizer) generate subgroups of
    order p^m, grown by closing generator lists (closure.subgroup_layers);
    those of exponent p are kept.  It runs on entry codes through the
    field's code law, memoized per (field, point) by the growth that the
    ranks there share (_oracle_subgroups, which verify_main_theorem counts),
    and each subgroup is returned as its sorted codes.  A point over another
    field raises ValueError (field mismatch), as does a field and rank whose
    dichotomy_work is over WORK_BOUND."""
    if point.spec is not spec:
        raise ValueError(f"field mismatch: point over {point.spec!r}, oracle over {spec!r}")
    _check_work(spec.p, spec.n, m, affine=not point.is_infinity)
    found = sorted(tuple(sorted(H)) for H in _oracle_subgroups(spec, m, point))
    return [SubgroupPGL2(spec, H, "unclassified") for H in found]


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


def parse_tag_queries(text: str) -> list[tuple[str, str]]:
    """The extra queries "tag@locus;tag@locus" as (tag, locus-text) pairs;
    empty entries are skipped."""
    extra = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        tag, _, locus_text = part.partition("@")
        if not locus_text:
            raise ValueError(f"--tags entries look like tag@locus, got {part!r}")
        extra.append((tag, locus_text))
    return extra


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
            # the census and the oracle on codes: the counts build no map
            bases = _echelon_bases(spec, m)
            census_count = len(_translation_census(spec, inf, bases))
            rows.append(
                DichotomyRow(
                    n=n,
                    m=m,
                    census_count=census_count,
                    subspace_count=len(bases),
                    oracle_count=len(_oracle_subgroups(spec, m, inf)),
                    gaussian=gaussian_binomial(n, m, p),
                )
            )
            per_m_counts.setdefault(m, []).append((n, census_count))

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
# serialization (the CLI's JSON payload)


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
