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

Every reported match is verified from scratch.  A transported match's
stabilized locus is recomputed and compared with S, and its fingerprint is
compared with the model's.  A (Z/pZ)^m match is certified from its m basis
maps (_basis_certified): their closure has p^m members, each has order p
and they commute pairwise, which makes the group elementary abelian of rank
m, the model's fingerprint; and the locus of every member is recomputed and
compared with S.  An independent brute-force oracle with no classification
knowledge cross-checks the elementary-abelian counts (dichotomy.py, the
verify-main command).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Collection, Iterable, Iterator, Sequence

from .closure import close, order
from .gfq import (
    FieldSpec,
    Record,
    _code,
    _digits,
    _embedding_table,
    extension_field,
    fp_echelon,
    render_element,
    render_field_spec,
)
from .moebius import _check_points, _code_fixed, _kernel, mob_infinity_to, render_point, transporters
from .stdgroups import (
    Fingerprint,
    SubgroupPGL2,
    _code_fingerprint,
    _code_generators,
    _code_locus,
    _conjugator,
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
    """An F_p-subspace of F_{p^n} in reduced-echelon basis form, the basis
    as element codes.  Two equal subspaces always carry the identical basis
    tuple."""

    spec: FieldSpec
    basis: tuple[int, ...]

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
                multiples.append(add(multiples[-1], b))
            codes = [add(x, y) for x in codes for y in multiples]
        return codes

    def __repr__(self) -> str:
        basis = "; ".join(render_element(self.spec, b) for b in self.basis)
        return f"AdditiveSubgroup(rank {self.rank}: {basis})"


def additive_subgroup(spec: FieldSpec, gens: Iterable[int]) -> AdditiveSubgroup:
    """The F_p-span of the generators (element codes), canonicalized by
    echelon reduction."""
    rows = fp_echelon([_digits(spec, g) for g in gens], spec.p)
    return AdditiveSubgroup(spec, tuple(_code(r, spec.p) for r in rows))


def gaussian_binomial(n: int, m: int, p: int) -> int:
    """Number of m-dimensional F_p-subspaces of F_p^n."""
    if m < 0 or m > n:
        return 0
    num = den = 1
    for i in range(m):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _check_rank(spec: FieldSpec, m: int) -> None:
    if m < 0 or m > spec.n:
        raise ValueError(f"rank must lie in [0, {spec.n}], got {m}")


def _echelon_runs(n: int, p: int, m: int) -> Iterator[Iterator[tuple[int, ...]]]:
    """The reduced echelon bases of the rank-m subspaces of F_p^n as codes
    (base-p digits), one sorted run per choice of pivot columns: each row
    has its pivot and any digits at later columns that are no pivot, so the
    rows vary independently, each over sorted codes."""
    place = [p ** (n - 1 - j) for j in range(n)]  # the code of the j-th unit vector
    for pivots in itertools.combinations(range(n), m):
        rows = []
        for i in pivots:
            codes = [place[i]]
            for j in range(i + 1, n):
                if j not in pivots:
                    codes = [c + v * place[j] for c in codes for v in range(p)]
            rows.append(codes)
        yield itertools.product(*rows)


def _echelon_bases(spec: FieldSpec, m: int) -> list[tuple[int, ...]]:
    """The reduced echelon bases of the rank-m F_p-subspaces of F_{p^n} as
    code tuples, in _echelon_runs order: [n choose m]_p of them."""
    _check_rank(spec, m)
    bases = list(itertools.chain.from_iterable(_echelon_runs(spec.n, spec.p, m)))
    assert len(bases) == gaussian_binomial(spec.n, m, spec.p)
    return bases


def enum_additive_subgroups(spec: FieldSpec, m: int) -> list[AdditiveSubgroup]:
    """All rank-m F_p-subspaces of F_{p^n}, in canonical echelon form and in
    the order of their basis codes: [n choose m]_p of them."""
    return [AdditiveSubgroup(spec, basis) for basis in sorted(_echelon_bases(spec, m))]


def gamma_to_unipotent(gamma: AdditiveSubgroup) -> SubgroupPGL2:
    """The translation group {x -> x + g : g in gamma}, tagged Zp^m, built
    from the element codes of gamma: each [1,g;0,1] is already normalized."""
    spec, one = gamma.spec, gamma.spec.one
    return SubgroupPGL2(spec, tuple(sorted((one, g, 0, one) for g in gamma.element_codes())), f"Zp^{gamma.rank}")


def scale_subgroup(gamma: AdditiveSubgroup, alpha: int) -> AdditiveSubgroup:
    """The subspace alpha * gamma, re-canonicalized, for the code alpha of a
    nonzero element of gamma's field."""
    if not alpha:
        raise ValueError("scaling by zero collapses the subgroup")
    mul = gamma.spec._tables.mul
    return additive_subgroup(gamma.spec, [mul(alpha, b) for b in gamma.basis])


# ---------------------------------------------------------------------------
# census queries


class CensusQuery(Record):
    """Ask for all subgroups of PGL2(F_{q^r}) of a given classification tag
    whose stabilized locus is exactly the given point set: the codes of its
    points over the census field F_{q^r} (q^r for infinity)."""

    spec: FieldSpec
    group_id: str
    locus: tuple[int, ...]
    r: int = 1


class CensusReport(Record):
    query: CensusQuery
    matches: tuple[SubgroupPGL2, ...]
    count: int
    verdict: str  # "finite" or "grows_with_field"
    notes: str = ""


# the form of each tag with parameters, keyed by the text before them
_TAG_FORMS = {
    "cyclic:": "cyclic:n",
    "dihedral:": "dihedral:n",
    "PSL2:": "PSL2:d",
    "PGL2:": "PGL2:d",
    "Zp^": "Zp^m",
    "gamma:": "gamma:m:n",
}


def parse_group_id(tag: str) -> tuple[str, tuple[int, ...]]:
    """Normalize a classification tag string to (kind, parameters).

    Grammar: cyclic:n | dihedral:n | A4 | S4 | A5 | PSL2:d | PGL2:d |
    Zp^m | gamma:m:n (rank m, unity order n; gamma:m:1 == Zp^m).  A tag
    whose parameters are not that many integers raises ValueError naming
    its form, and so do a parameter out of range and gamma:0:n for n > 1,
    which is the group cyclic:n.
    """
    t = tag.strip()
    if t in ("A4", "S4", "A5"):
        return t, ()
    head = next((h for h in _TAG_FORMS if t.startswith(h)), None)
    if head is None:
        raise ValueError(f"unknown group tag {tag!r}")
    form, fields = _TAG_FORMS[head], t[len(head) :].split(":")
    try:
        params = tuple(int(v) for v in fields)
    except ValueError:
        params = ()
    if len(params) != form.count(":", len(head)) + 1:
        raise ValueError(f"group tag {tag!r} must look like {form}, with integer parameters")
    if head == "Zp^":
        head, params = "gamma:", params + (1,)
    kind = head[:-1]
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


def _standard_models(ext: FieldSpec, kind: str, params: tuple[int, ...], first: bool = False) -> list[SubgroupPGL2]:
    """Standard models over the working field for a tag.  Most tags have one
    model; gamma tags with n > 1 have one per admissible additive subgroup,
    in enum_additive_subgroups order, or with first=True the first one, up
    to which a merge of the sorted _echelon_runs lists the bases.  Only a
    subspace that holds 1, as mu_n does, is tried: its echelon basis is 1
    and that of a rank-(m - 1) subspace of the other n - 1 coordinates."""
    if kind in _MODEL_CONSTRUCTORS:
        return [_MODEL_CONSTRUCTORS[kind](ext, *params)]
    if kind == "gamma":
        m, n = params
        if m == 0:  # gamma:0:1, the trivial group; mu_1 = {1} lies in no rank-0 gamma
            return [gamma_to_unipotent(AdditiveSubgroup(ext, ()))]
        _check_rank(ext, m)
        runs = _echelon_runs(ext.n - 1, ext.p, m - 1)
        if first:  # imported here, so that a census does not load heapq
            import heapq

            bases = heapq.merge(*runs)
        else:
            bases = sorted(itertools.chain.from_iterable(runs))
        models = []
        for basis in bases:
            try:
                models.append(std_gamma_semidirect(AdditiveSubgroup(ext, (ext.one, *basis)), n))
            except ValueError:
                continue  # this gamma fails the containment/closure conditions
            if first:
                break
        return models
    raise ValueError(f"unknown group kind {kind!r}")


def _verified(spec: FieldSpec, candidates: Iterable[Iterable[tuple]], S: tuple, expected_fp: Fingerprint) -> list:
    """(codes, generators) of the candidates (entry codes of subgroups over
    the census field spec = F_{q^r}), deduplicated, in code order, whose
    fingerprint is the expected one and whose locus over the algebraic
    closure is S, the sorted codes of the queried locus: one pass of
    _code_fixed at level 1 (_code_locus, complete=True), which fails when
    some fixed points leave F_{q^r}, so no table of F_{q^{2r}} is built.
    Generators and fingerprints run on the field's code law."""
    K, fixed = _kernel(spec), _code_fixed(spec, 1)
    law, identity = K.law, K.identity
    seen = set()
    out = []
    for codes in candidates:
        codes = tuple(sorted(codes))
        if codes in seen:
            continue
        seen.add(codes)
        if _code_locus(codes, identity, fixed, complete=True) != S:
            continue
        gens = _code_generators(codes, law, identity)
        if _code_fingerprint(spec, codes, gens, law, identity) == expected_fp:
            out.append((codes, gens))
    return sorted(out)


def _basis_certified(p: int, basis: Sequence[tuple], members: Collection[tuple], law, identity, fixed, S: tuple) -> bool:
    """Whether `members`, the closure of the m maps `basis` under the code
    law `law`, is a (Z/pZ)^m-subgroup whose locus over the algebraic closure
    is S, the sorted point codes of the query.  It has p^m members, every
    basis map has order p, and the basis maps commute pairwise: so the
    group is abelian of exponent p and rank m, which is the Zp^m
    fingerprint.  The level-1 locus pass (_code_locus, complete=True,
    `fixed` being _code_fixed at level 1) over every member gives exactly
    S."""
    return (
        len(members) == p ** len(basis)
        and all(order(g, law, identity, p) == p for g in basis)
        and all(law(x, y) == law(y, x) for x, y in itertools.combinations(basis, 2))
        and _code_locus(members, identity, fixed, complete=True) == S
    )


def _translation_census(spec: FieldSpec, point: int, bases: Sequence[tuple[int, ...]]) -> list[tuple]:
    """The (Z/pZ)^m-subgroups stabilizing only the point code `point`, as
    sorted entry codes in code order, one per echelon basis (code tuples,
    _echelon_bases): the translations [1,b;0,1] of its m vectors b,
    conjugated by a map taking inf to the point, closed under one memo of
    the code law and accepted by _basis_certified.  Each vector's map is
    built, and conjugated, once per census, and the candidates share one
    tuple per map."""
    K = _kernel(spec)
    identity, p, one = K.identity, spec.p, spec.one
    maps = {b: (one, b, 0, one) for b in {b for basis in bases for b in basis}}
    if point != spec.q:
        conjugate = _conjugator(spec, mob_infinity_to(spec, point))
        maps = {b: conjugate(g) for b, g in maps.items()}
    law = lru_cache(maxsize=None)(K.law)
    fixed, S = _code_fixed(spec, 1), (point,)
    found = []
    for basis in bases:
        gens = [maps[b] for b in basis]
        members = close(gens, law, (identity,), cap=p ** len(gens))
        if members is not None and _basis_certified(p, gens, members, law, identity, fixed, S):
            found.append(tuple(sorted(members)))
    return sorted(found)


def _matches(ext: FieldSpec, found: Sequence[tuple], tag: str) -> tuple[SubgroupPGL2, ...]:
    """The subgroups of _verified's (codes, generators), each seeded with the
    generating set its verification computed, which is what it renders."""
    matches = tuple(SubgroupPGL2(ext, codes, tag) for codes, _ in found)
    for H, (_, gens) in zip(matches, found):
        vars(H)["generators"] = gens
    return matches


def enum_actions(query: CensusQuery) -> CensusReport:
    """Enumerate all subgroups of PGL2(F_{q^r}) matching the query.

    Strategy by locus size, after comparing it with the model's locus size:

    * |S| = 1, elementary-abelian tag: one subgroup per rank-m additive
      subgroup of F_{q^r}, conjugated so its stabilized point is the queried
      one (_translation_census).  This is the growing side of the dichotomy.
    * |S| >= 2: g H0 g^{-1} for each g from moebius.transporters(L0, S, H0),
      L0 the model's full locus: one g per coset g.Fix(L0).H0, Fix(L0) its
      pointwise stabilizer (trivial, or for |L0| = 2 the torus containing
      H0), since every map of a coset gives the same conjugate.  Over F_{q^r}
      if L0 is rational there, else over F_{q^{2r}}, keeping the conjugates
      inside PGL2(F_{q^r}).

    Loci are decided over the census field F_{q^r}, whose point codes the
    query's locus holds: any other locus point raises ValueError.  A model's
    full locus has |stabilized_locus(H0, 1)| + 2 |irrational_locus_pairs(H0)|
    points (stdgroups), so a model of the wrong size is skipped without
    leaving F_{q^r}.  F_{q^{2r}} is built only for a model whose full locus
    has |S| points but leaves F_{q^r}.  Candidates are verified on entry
    codes, and the matches are sorted so the report is deterministic.
    """
    ext = extension_field(query.spec, query.r)
    _check_points(ext, query.locus, "locus")
    # reports echo the normalized query: locus deduplicated and sorted
    S = tuple(sorted(set(query.locus)))
    query = CensusQuery(query.spec, query.group_id, S, query.r)
    kind, params = parse_group_id(query.group_id)

    if kind == "gamma" and params[1] == 1:
        m = params[0]
        tag = f"Zp^{m}"
        if len(S) == 1 and m >= 1:
            # the generators of a match are computed when it is rendered
            found = _translation_census(ext, S[0], _echelon_bases(ext, m))
            matches = [SubgroupPGL2(ext, codes, tag) for codes in found]
            verdict = "grows_with_field"
            notes = f"one action per rank-{m} additive subgroup of {render_field_spec(ext)}"
        elif len(S) == 0 and m == 0:
            # the trivial group is the unique subgroup with empty locus
            matches = _standard_models(ext, kind, params)
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
    candidates: list[Iterable[tuple]] = []
    for H0 in models:
        L0 = stabilized_locus(H0, 1)
        # the full locus is L0 and two points per irrational_locus_pairs entry
        if len(L0) + 2 * len(irrational_locus_pairs(H0)) != len(S):
            continue
        if len(S) == 0:
            candidates.append(H0.codes)  # only the trivial model has empty locus
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
                emb = _embedding_table(ext, ext2)
                target = tuple(sorted(emb[x] if x < ext.q else ext2.q for x in S))
            for g in transporters(model.spec, locus, target, model.codes):
                H = conjugate_subgroup(model, g)
                if model.spec is not ext:
                    H = subgroup_project(H, ext)
                if H is not None:
                    candidates.append(H.codes)
        # |S| <= 1 never matches a non-elementary-abelian model

    if not models:
        return CensusReport(query, (), 0, "finite")
    found = _verified(ext, candidates, S, fingerprint(models[0]))
    return CensusReport(query, _matches(ext, found, models[0].tag), len(found), "finite")


# ---------------------------------------------------------------------------
# the work bound of verify-main, whose rows pglcensus.dichotomy checks
# against it; it stays here, where the command's help names it


# The most work one row of verify_main_theorem may take, in units of one
# uncached map composition: about 10 us in CPython 3.11 on one core of a
# 2-vCPU x86-64 container, so about 10 s a row.  Set from measured times of
# the oracle and the census; README lists the worst accepted cases.
WORK_BOUND = 1_000_000


# ---------------------------------------------------------------------------
# serialization (the CLI's JSON payloads; a census match decodes back to its
# subgroup with stdgroups.subgroup_from_json)


def census_report_to_json(report: CensusReport) -> dict:
    # every match's locus was verified to be the query's, over the working
    # field, so that is rendered at level 1 (the census field itself)
    q = report.query
    ext = extension_field(q.spec, q.r)
    return {
        "schema": "pglcensus/census/v2",
        "query": {
            "field": render_field_spec(q.spec),
            "group": q.group_id,
            "locus": [render_point(ext, x) for x in q.locus],
            "ext": q.r,
            "locus_field": render_field_spec(ext),
        },
        "count": report.count,
        "verdict": report.verdict,
        "matches": [subgroup_to_json(H, 1, q.locus) for H in report.matches],
        "notes": report.notes,
    }

