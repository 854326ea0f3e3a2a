"""Seeded inputs and independent answer checks for the three workloads.

An op is the argv list of one `pglcensus` command.  A pass is the list of
ops one fresh interpreter runs in order; `make_pass(workload, seed, index)`
builds pass `index` of a run deterministically from the seed.  Every pass of
a workload holds the same multiset of query shapes, so its cost depends
little on the seed; the seed picks conjugators, points, curves, the phase
of each query's `--jobs` alternation and bounded tags.  The op order is
fixed, so each pass's cold per-field tables are paid by the same ops.

Each op carries an `expect` record that `check` compares with the command's
JSON output.  Expected answers never come from the code under test:

* `Zp^m` at one point: the Gaussian binomial, computed here with integers;
* `cyclic:n` at two points: exactly one subgroup (the order-n subgroup of the
  torus fixing both points);
* `gamma:m:n` (n > 1) and `A4` at loci of the wrong size: none, because
  their stabilized loci have at least two and exactly fourteen points;
* a transported locus g.L0: the count at the model's own locus L0, recorded
  once in TRANSPORT below (conjugation by g is a bijection between the two
  censuses), and every match must stabilize exactly g.L0;
* `verify-*`: ok, exit 0, and every dichotomy row equal to the Gaussian
  binomial computed here.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("census-sweep", "dichotomy-tower", "genus1-suite")

# Auto moduli (constant term first), as `pglcensus field-info` prints them.
MODULI = {
    "2^4": (1, 0, 0, 1, 1),
    "3^2": (1, 0, 1),
    "3^3": (1, 0, 2, 1),
    "7^1": (0, 1),
}

# Triple-transport models: (field, tag, L0 = the model's stabilized locus,
# which is rational over the field, census count at L0).  Every L0 but the
# first is a proper subset of P^1(F_q), so a seeded g moves it.  The first is
# all of P^1(F_7), which every g fixes: that op times triple transport and a
# 28-match JSON report, and checks the recorded count only.  PSL2 in odd
# characteristic with a movable locus and a non-zero count needs F_81 or a
# bigger field, which costs minutes; PGL2:1 and PSL2:1 over F_27 (S4 and A4 at
# P^1(F_3)) move their locus and have no match there.
TRANSPORT = (
    ("7^1", "dihedral:3", ("0", "1", "2", "3", "4", "5", "6", "inf"), 28),
    ("2^4", "dihedral:3", ("0,0,0,0", "0,1,0,1", "1,0,0,0", "1,1,0,1", "inf"), 10),
    ("3^2", "dihedral:2", ("0,0", "0,1", "0,2", "1,0", "2,0", "inf"), 1),
    ("3^3", "PGL2:1", ("0,0,0", "1,0,0", "2,0,0", "inf"), 0),
    ("3^3", "PSL2:1", ("0,0,0", "1,0,0", "2,0,0", "inf"), 0),
)

# cyclic:n at a seeded pair of points: (field, n, ext).
CYCLIC_PAIRS = (
    ("7^1", 3, 1),
    ("5^1", 4, 1),
    ("3^2", 4, 1),
    ("2^4", 5, 1),
    ("5^1", 2, 1),
    ("7^1", 2, 1),
    ("3^2", 2, 1),
)

# Elementary-abelian and gamma tags at a seeded single point: (field, tag, ext).
SINGLE_POINT = (
    ("2^3", "Zp^2", 1),
    ("3^2", "Zp^1", 1),
    ("3^2", "Zp^2", 1),
    ("2^2", "Zp^1", 2),
    ("3^2", "gamma:1:2", 1),
    ("5^1", "gamma:1:4", 1),
    ("2^4", "gamma:2:3", 1),
    ("5^1", "gamma:1:2", 1),
    ("7^1", "gamma:1:2", 1),
)

# By typical latency, a census pass has 10 ops below 0.04 s, then `Zp^1` and
# `Zp^2` over F9 at about 0.05 s, then 10 slower ops.  So the median op
# latency of a run falls inside that pair's cluster of samples, not in a gap
# between two clusters.  Some of the slower ops are bimodal, and their fast
# samples land near 0.05 s too.

# A4 exists over F_13; its stabilized locus has 14 points, so a two-point
# locus has no A4 action.  A census at the model's own 14-point locus takes
# about 20 s, more than a whole pass, so the A4 triple path is not timed.
A4_PAIR_FIELD = "13^1"

# verify-main: (p, top level) and the pool of bounded tags with their
# constant count.  Each (level n, rank m) is its own op, `--levels n --m m`,
# in the order of the levels, so the first op of a level builds that field's
# tables cold.  Loci are written over the prime field and are rational at
# every level.
TOWER = ((2, 4), (3, 2), (5, 2))
BOUNDED_TAGS = {
    2: (("Zp^1@0,inf", 0), ("Zp^2@0,1,inf", 0), ("Zp^1@0,1,inf", 0), ("cyclic:1@0,inf", 0)),
    3: (("cyclic:2@0,inf", 1), ("cyclic:2@1,2", 1), ("cyclic:2@0,1", 1), ("Zp^1@0,inf", 0)),
    5: (("cyclic:2@0,inf", 1), ("cyclic:4@0,inf", 1), ("cyclic:4@1,3", 1), ("Zp^1@0,1", 0)),
}

# The versioned suite of `verify-genus1`, one op per curve, at its default
# levels.  As one op it would leave too few ops in a run for a tail latency.
STANDARD_CURVES = ("5^1:a=1,b=0", "13^1:a=1,b=0", "7^1:a=0,b=1", "5^1:a=1,b=1")

# Seeded curves per pass: (p, class, how many).  The class fixes the size of
# Aut_0 and so the cost: "generic" has a, b != 0; "j1728" has b = 0; "j0" has
# a = 0.  Levels 1-4 make the fixed-point check complete: the Frobenius acts
# on the 4 halves of a point through AGL(2, 2) ~ S4 (element orders 1-4), and
# on the 3 thirds through AGL(1, 3) (orders 1-3).  The default levels 1-3
# miss the halves of many points of curves with even order.
CURVES = ((7, "j0", 1), (7, "generic", 2), (5, "j1728", 1), (5, "generic", 2))
CURVE_LEVELS = "1-4"

# The S4 tag is probed apart from the timed ops: `census.py` calls std_S4
# without importing it, so these raise NameError at the parent commit.  Once
# fixed, S4 over F_13 has 6 + 8 + 12 = 26 stabilized points.
S4_PROBE = (
    (["locus", "--field", "13^1", "--group", "S4"], {"kind": "count", "count": 26}),
    (["census", "--field", "13^1", "--group", "S4", "--locus", "0,inf"], {"kind": "count", "count": 0}),
)


# ---------------------------------------------------------------------------
# plain-integer arithmetic: F_{p^n} elements are coefficient tuples, constant
# term first, reduced by the monic modulus


def _field(spec: str) -> tuple[int, int]:
    p, n = spec.split("^")
    return int(p), int(n)


def gaussian_binomial(n: int, m: int, p: int) -> int:
    if m < 0 or m > n:
        return 0
    num = den = 1
    for i in range(m):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def _mul(a, b, p, mod):
    n = len(mod) - 1
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        if c:
            for i in range(n + 1):
                prod[k - n + i] = (prod[k - n + i] - c * mod[i]) % p
    return tuple(prod[:n])


def _inv(a, p, mod):
    q = p ** (len(mod) - 1)
    out = (1,) + (0,) * (len(a) - 1)
    base, e = a, q - 2
    while e:
        if e & 1:
            out = _mul(out, base, p, mod)
        base = _mul(base, base, p, mod)
        e >>= 1
    return out


def _parse_point(text: str):
    return None if text == "inf" else tuple(int(c) for c in text.split(","))


def _render_point(P) -> str:
    return "inf" if P is None else ",".join(str(c) for c in P)


def _apply(g, P, p, mod):
    """x -> (a x + b) / (c x + d) on P^1, with None for infinity."""
    a, b, c, d = g
    zero = (0,) * len(a)
    if P is None:
        num, den = a, c
    else:
        num = _add(_mul(a, P, p, mod), b, p)
        den = _add(_mul(c, P, p, mod), d, p)
    if den == zero:
        return None
    return _mul(num, _inv(den, p, mod), p, mod)


def _random_elem(rng, p, n):
    return tuple(rng.randrange(p) for _ in range(n))


def _random_conjugator(rng, p, mod):
    n = len(mod) - 1
    zero = (0,) * n
    while True:
        g = tuple(_random_elem(rng, p, n) for _ in range(4))
        a, b, c, d = g
        det = _add(_mul(a, d, p, mod), tuple((-x) % p for x in _mul(b, c, p, mod)), p)
        if det != zero:
            return g


def _random_points(rng, p, n, k, affine=False):
    """k distinct points of P^1(F_{p^n}), or of the affine line."""
    q = p ** n
    picks = rng.sample(range(q if affine else q + 1), k)
    pts = []
    for v in picks:
        if v == q:
            pts.append(None)
        else:
            pts.append(tuple((v // p ** i) % p for i in range(n)))
    return pts


# ---------------------------------------------------------------------------
# pass construction


def _census_sweep(rng):
    ops = []
    for field, tag, L0, count in TRANSPORT:
        p, n = _field(field)
        mod = MODULI[field]
        g = _random_conjugator(rng, p, mod)
        S = sorted({_render_point(_apply(g, _parse_point(t), p, mod)) for t in L0})
        argv = ["census", "--field", field, "--group", tag, "--locus", ",".join(S)]
        ops.append(_op(argv, tag, field, 1, len(S), {"kind": "count", "count": count, "locus": S}))
    for field, order, ext in CYCLIC_PAIRS:
        p, n = _field(field)
        S = [_render_point(P) for P in _random_points(rng, p, n * ext, 2)]
        argv = ["census", "--field", field, "--group", f"cyclic:{order}", "--locus", ",".join(S), "--ext", str(ext)]
        ops.append(_op(argv, f"cyclic:{order}", field, ext, 2, {"kind": "count", "count": 1, "locus": sorted(S)}))
    for field, tag, ext in SINGLE_POINT:
        p, n = _field(field)
        # affine points only: a census at infinity skips the conjugation and
        # costs a fraction as much (verify-main times that case)
        S = [_render_point(P) for P in _random_points(rng, p, n * ext, 1, affine=True)]
        argv = ["census", "--field", field, "--group", tag, "--locus", S[0], "--ext", str(ext)]
        if tag.startswith("Zp^"):
            expect = {"kind": "count", "count": gaussian_binomial(n * ext, int(tag[3:]), p), "verdict": "grows_with_field"}
        else:
            expect = {"kind": "count", "count": 0}
        ops.append(_op(argv, tag, field, ext, 1, expect))
    p, n = _field(A4_PAIR_FIELD)
    S = [_render_point(P) for P in _random_points(rng, p, n, 2)]
    argv = ["census", "--field", A4_PAIR_FIELD, "--group", "A4", "--locus", ",".join(S)]
    ops.append(_op(argv, "A4", A4_PAIR_FIELD, 1, 2, {"kind": "count", "count": 0}))
    return ops


def _dichotomy_tower(rng):
    ops = []
    for p, top in TOWER:
        # the pass's two bounded tags of p ride on the m = 1 op of each level
        tags = rng.sample(BOUNDED_TAGS[p], 2)
        for n in range(1, top + 1):
            for m in range(1, n + 1):
                argv = ["verify-main", "--p", str(p), "--levels", str(n), "--m", str(m)]
                bounded = dict(tags) if m == 1 else {}
                if bounded:
                    argv += ["--tags", ";".join(bounded)]
                expect = {"kind": "verify-main", "p": p, "levels": [n], "rows": [[n, m]], "bounded": bounded}
                ops.append(_op(argv, f"verify-main:p{p}:m{m}", f"{p}^{n}", 1, 0, expect))
    return ops


def _curve_ab(rng, p, cls):
    while True:
        a = 0 if cls == "j0" else rng.randrange(1, p)
        b = 0 if cls == "j1728" else rng.randrange(1, p)
        if (4 * a ** 3 + 27 * b ** 2) % p:
            return a, b


def _genus1_suite(rng):
    # the order is fixed, so the same op of a pass pays for the cold tables
    # of each new field
    ops = []
    for spec in STANDARD_CURVES:
        p = int(spec.split("^")[0])
        ops.append(_op(["verify-genus1", "--curve", spec], "genus1:standard", f"{p}^1", 1, 0, {"kind": "verify", "curves": 1}))
    for p, cls, k in CURVES:
        seen = set()
        while len(seen) < k:
            seen.add(_curve_ab(rng, p, cls))
        for a, b in sorted(seen):
            argv = ["verify-genus1", "--curve", f"{p}^1:a={a},b={b}", "--levels", CURVE_LEVELS]
            ops.append(_op(argv, f"genus1:{cls}", f"{p}^1", 1, 0, {"kind": "verify", "curves": 1}))
    return ops


def _op(argv, tag, field, ext, locus_size, expect):
    """field is the census field ("p^n"), the top level of a verify-main
    tower, or None for the standard curve suite, which spans three fields."""
    q_r = None
    if field is not None:
        p, n = _field(field)
        q_r = p ** (n * ext)
    return {
        "argv": argv,
        "tag": tag,
        "q_r": q_r,
        "capture_q": None if q_r is None else q_r ** 2,
        "locus_size": locus_size,
        "jobs": 1,
        "expect": expect,
    }


_BUILDERS = {
    "census-sweep": _census_sweep,
    "dichotomy-tower": _dichotomy_tower,
    "genus1-suite": _genus1_suite,
}


def make_pass(workload: str, seed: int, index: int, single_job: bool = False) -> list[dict]:
    """single_job sends every census query with --jobs 1: two pool threads
    can both miss one lru-cache entry and both compute it, so only a
    single-job pass has call counts that repeat exactly."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    ops = _BUILDERS[workload](rng)
    if workload == "census-sweep":
        # each query alternates between --jobs 1 and 2 from pass to pass,
        # with a seeded phase, so a run of an even number of passes times
        # each query with both equally often
        phases = random.Random(f"{workload}:{seed}").choices((0, 1), k=len(ops))
        for op, phase in zip(ops, phases):
            op["jobs"] = 1 if single_job else 1 + (index + phase) % 2
            op["argv"] += ["--jobs", str(op["jobs"])]
    return ops


def s4_probe() -> list[dict]:
    return [_op(argv, "S4", "13^1", 1, 0, expect) for argv, expect in S4_PROBE]


# ---------------------------------------------------------------------------
# answer checks


def check(op: dict, record: dict) -> str:
    """Return "" when the op's output is right, else the reason it is not."""
    if record["exc"]:
        return record["exc"]
    if record["code"] != 0:
        return f"exit code {record['code']}: {record['stderr'].strip()}"
    try:
        out = json.loads(record["stdout"])
    except ValueError:
        return "output is not JSON"
    exp = op["expect"]
    kind = exp["kind"]
    if kind == "count":
        if out.get("count") != exp["count"]:
            return f"count {out.get('count')} != {exp['count']}"
        if "verdict" in exp and out.get("verdict") != exp["verdict"]:
            return f"verdict {out.get('verdict')} != {exp['verdict']}"
        if "matches" in out and len(out["matches"]) != exp["count"]:
            return "match list length differs from count"
        if "locus" in exp:
            if sorted(out["query"]["locus"]) != exp["locus"]:
                return "query locus echoed wrongly"
            for match in out["matches"]:
                if sorted(match["locus"]) != exp["locus"]:
                    return f"match stabilizes {match['locus']}, not the queried locus"
        return ""
    if kind == "verify":
        if out.get("ok") is not True or len(out.get("curves", ())) != exp["curves"]:
            return "verify-genus1 not ok"
        return ""
    if kind == "verify-main":
        return _check_main(exp, out)
    raise ValueError(f"unknown expectation {kind!r}")


def _check_main(exp: dict, out: dict) -> str:
    if out.get("ok") is not True or out.get("mismatches"):
        return f"verify-main not ok: {out.get('mismatches')}"
    p = exp["p"]
    want = [tuple(row) for row in exp["rows"]]
    got = [(r["n"], r["m"]) for r in out["dichotomy"]]
    if sorted(got) != want:
        return f"dichotomy rows {got} != {want}"
    for r in out["dichotomy"]:
        g = gaussian_binomial(r["n"], r["m"], p)
        if not r["census"] == r["subspaces"] == r["oracle"] == g:
            return f"row n={r['n']} m={r['m']} does not equal [{r['n']} choose {r['m']}]_{p} = {g}"
    if not all(g["strictly_growing"] for g in out["growth"]):
        return "counts do not grow with the level"
    bounded = {f"{b['tag']}@{b['locus']}": b for b in out["bounded"]}
    if sorted(bounded) != sorted(exp["bounded"]):
        return "bounded rows missing"
    for key, constant in exp["bounded"].items():
        counts = [c for _, c in bounded[key]["counts"]]
        if counts != [constant] * len(exp["levels"]):
            return f"{key}: counts {counts}, expected {constant} at every level"
    return ""
