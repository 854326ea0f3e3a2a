import collections
import itertools
import math
from functools import partial

import pytest

from pglcensus import closure
from pglcensus.closure import close, is_prime, order
from pglcensus.dichotomy import _order_p_stabilizer
from pglcensus.elliptic import _chord_tangent, _code_add, _torsion, standard_test_curves
from pglcensus.gfq import field_make
from pglcensus.moebius import _kernel, _pgl2_codes, mob_compose, pp1_infinity


def add_mod(n):
    return lambda a, b: (a + b) % n


def add_klein(a, b):
    return (a[0] ^ b[0], a[1] ^ b[1])


class TestClose:
    def test_generates_cyclic_subgroup(self):
        assert close([4], add_mod(12), {0}) == {0, 4, 8}

    def test_extends_a_subgroup_without_changing_it(self):
        H = frozenset({0, 6})
        assert close([*H, 4], add_mod(12), H) == {0, 2, 4, 6, 8, 10}
        assert H == {0, 6}

    def test_generator_already_inside(self):
        assert close([0, 6], add_mod(12), {0, 6}) == {0, 6}

    def test_cap(self):
        assert close([1], add_mod(12), {0}, cap=11) is None
        assert close([1], add_mod(12), {0}, cap=12) == set(range(12))


def power_loop_order(x, op, identity):
    """The order by plain repeated multiplication, with no cap."""
    power, k = x, 1
    while power != identity:
        power, k = op(power, x), k + 1
    return k


class TestOrder:
    def test_identity_has_order_one(self):
        assert order(0, add_mod(12), 0, 1) == 1
        assert order((0, 0), add_klein, (0, 0), 5) == 1

    def test_none_past_the_cap(self):
        assert order(1, add_mod(12), 0, 11) is None
        assert order(1, add_mod(12), 0, 12) == 12
        assert order(2, add_mod(12), 0, 5) is None

    def test_every_element_of_z12(self):
        for x in range(12):
            assert order(x, add_mod(12), 0, 12) == 12 // math.gcd(x, 12)

    @pytest.mark.parametrize("p,n", [(5, 1), (2, 3)], ids=["F5", "F8"])
    def test_pgl2_maps_against_a_power_loop(self, p, n):
        spec = field_make(p, n)
        ident, cap = _kernel(spec).identity, spec.q ** 3 - spec.q
        compose = partial(mob_compose, spec)
        for g in _pgl2_codes(spec):
            assert order(g, compose, ident, cap) == power_loop_order(g, compose, ident)


def compose_perm(a, b):
    """a after b, permutations of range(n) as tuples."""
    return tuple(a[i] for i in b)


S3 = list(itertools.permutations(range(3)))
# the symmetries of a square with corners 0, 1, 2, 3 in cyclic order
D4_ROTATION = (1, 2, 3, 0)
D4_REFLECTION = (0, 3, 2, 1)


def _d4():
    return sorted(close([D4_ROTATION, D4_REFLECTION], compose_perm, {(0, 1, 2, 3)}))


def brute_force_subgroups(elements, identity, order):
    """The subgroups generated by some subset of `elements`, of the given order."""
    out = set()
    for k in range(len(elements) + 1):
        for subset in itertools.combinations(elements, k):
            H = close(list(subset), compose_perm, {identity})
            if len(H) == order:
                out.add(frozenset(H))
    return out


def capped_layers_of_order(elements, op, identity, order):
    """The subgroups of exactly `order` members in the growth capped at
    `order`, as enum_spf_actions grows the subgroups of an n-torsion group."""
    return {H for layer in closure.subgroup_layers(elements, op, identity, cap=order) for H in layer if len(H) == order}


class TestNonAbelian:
    @pytest.mark.parametrize(
        "name,elements,orders",
        [
            ("S3", S3, (1, 2, 3, 6)),
            ("S3-transpositions", [(1, 0, 2), (2, 1, 0), (0, 2, 1)], (1, 2, 3, 6)),
            ("D4", _d4(), (1, 2, 4, 8)),
            ("D4-reflections", [g for g in _d4() if compose_perm(g, g) == (0, 1, 2, 3)], (1, 2, 4, 8)),
        ],
    )
    def test_against_subset_scan(self, name, elements, orders):
        identity = tuple(range(len(elements[0])))
        for order in orders:
            expected = brute_force_subgroups(elements, identity, order)
            assert capped_layers_of_order(elements, compose_perm, identity, order) == expected

    def test_known_counts(self):
        assert len(_d4()) == 8
        identity = (0, 1, 2, 3)
        counts = [len(capped_layers_of_order(_d4(), compose_perm, identity, k)) for k in (1, 2, 4, 8)]
        assert counts == [1, 5, 3, 1]
        assert [len(capped_layers_of_order(S3, compose_perm, (0, 1, 2), k)) for k in (1, 2, 3, 6)] == [1, 3, 1, 1]

    def test_s4_with_long_cycles_first(self):
        # From the trivial group a 4-cycle closes to a cyclic group of index 4,
        # which holds a double transposition; that step is not of prime index,
        # so the double transposition must still be tried on its own, or the
        # normal Klein four-group is never reached.  Every subgroup of S4 is
        # generated by two elements, so the pair scan is complete.
        S4 = list(itertools.permutations(range(4)))
        identity = (0, 1, 2, 3)

        elements = sorted(S4, key=lambda g: -order(g, compose_perm, identity, 24))
        pairs = {frozenset(close([a, b], compose_perm, {identity})) for a in S4 for b in S4}
        counts = []
        for k in (1, 2, 3, 4, 6, 8, 12, 24):
            found = capped_layers_of_order(elements, compose_perm, identity, k)
            assert found == {H for H in pairs if len(H) == k}
            counts.append(len(found))
        assert counts == [1, 9, 4, 7, 4, 3, 1, 1]


def _s4_long_cycles_first():
    identity = (0, 1, 2, 3)
    return sorted(itertools.permutations(range(4)), key=lambda g: -order(g, compose_perm, identity, 24))


class TestSubgroupLayers:
    @pytest.mark.parametrize(
        "name,elements,orders",
        [
            ("S3", S3, (1, 2, 3, 6)),
            ("D4", _d4(), (1, 2, 4, 8)),
            ("S4-long-cycles-first", _s4_long_cycles_first(), (1, 2, 3, 4, 6, 8, 12, 24)),
        ],
    )
    def test_against_subset_scan_per_order(self, name, elements, orders):
        # every layer, read per order, against the subset scan (for S4 the
        # pair scan, as every subgroup of S4 has two generators).  A step's
        # index need not be prime here, so a subgroup can recur in a later
        # layer, but each layer's generator list closes to its subgroup
        identity = tuple(range(len(elements[0])))
        by_order = {}
        for k, layer in enumerate(closure.subgroup_layers(elements, compose_perm, identity)):
            for H, gens in layer.items():
                assert len(gens) == k and close(list(gens), compose_perm, {identity}) == H
                by_order.setdefault(len(H), set()).add(H)
        assert sorted(by_order) == list(orders)
        if len(elements) == 24:
            pairs = {frozenset(close([a, b], compose_perm, {identity})) for a in elements for b in elements}
            expected = {k: {H for H in pairs if len(H) == k} for k in orders}
        else:
            expected = {k: brute_force_subgroups(elements, identity, k) for k in orders}
        assert by_order == expected

    def test_cap_drops_larger_subgroups_and_stops_at_the_cap(self):
        # Z/12 capped at 4: the subgroups of orders 1, 2, 3 and 4, and none
        # grown past a subgroup of exactly 4 members
        layers = list(closure.subgroup_layers(range(12), add_mod(12), 0, cap=4))
        assert [sorted(sorted(H) for H in layer) for layer in layers] == [
            [[0]],
            [[0, 3, 6, 9], [0, 4, 8], [0, 6]],
            [[0, 3, 6, 9]],
        ]

    def test_cap_grows_no_subgroup_past_half_the_cap(self, monkeypatch):
        # a proper supergroup has at least twice the members, so under cap 4
        # only the subgroups of orders 1 and 2 are grown: not {0, 4, 8}
        grown_from = collections.Counter()
        real = closure.close

        def counted(gens, op, seen, cap=None):
            grown_from[len(seen)] += 1
            return real(gens, op, seen, cap)

        monkeypatch.setattr(closure, "close", counted)
        list(closure.subgroup_layers(range(12), add_mod(12), 0, cap=4))
        assert sorted(grown_from) == [1, 2]

    def test_elementary_abelian_layers_are_the_orders(self):
        # (Z/2)^3: layer k is the subgroups of order 2^k, [3 choose k]_2 of them
        elements = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)][1:]

        def xor(x, y):
            return tuple(u ^ v for u, v in zip(x, y))

        layers = list(closure.subgroup_layers(elements, xor, (0, 0, 0)))
        assert [len(layer) for layer in layers] == [1, 7, 7, 1]
        assert all(len(H) == 2 ** k for k, layer in enumerate(layers) for H in layer)


def reference_subgroups_of_order(elements, op, identity, order):
    """The growth as it was before it indexed the next layer: each subgroup
    of a layer is regrown from every one of its maximal subgroups, and only
    the supergroups found from the same H are skipped."""
    layer = {frozenset((identity,)): ()}
    found = set()
    while layer:
        next_layer = {}
        for H, gens in layer.items():
            if len(H) == order:
                found.add(H)
                continue
            covered = set(H)
            for g in elements:
                if g in covered:
                    continue
                grown = closure.close([*gens, g], op, H, cap=order)
                if grown is None:
                    continue
                grown = frozenset(grown)
                next_layer.setdefault(grown, (*gens, g))
                if is_prime(len(grown) // len(H)):
                    covered |= grown
        layer = next_layer
    return found


def first_generator_lists(grow, elements, op, identity, order, monkeypatch):
    """What `grow` returns, each subgroup it closes mapped to the generator
    list of its first closure, and the number of closures."""
    first, calls = {}, [0]

    def counted(gens, op, seen, cap=None):
        calls[0] += 1
        grown = close(gens, op, seen, cap)
        if grown is not None:
            first.setdefault(frozenset(grown), tuple(gens))
        return grown

    with monkeypatch.context() as m:
        m.setattr(closure, "close", counted)
        found = grow(elements, op, identity, order)
    return found, first, calls[0]


ORACLE_CASES = [
    (p, n, at, m)
    for p, levels in ((2, 5), (3, 3), (5, 2))
    for n in range(1, levels + 1)
    for at in ("inf", "affine")
    for m in range(n + 1)
]
TORSION_CASES = [(name, n) for name, _ in standard_test_curves() for n in range(1, 5)]


def oracle_input(p, n, at, m):
    """The oracle's order-p stabilizer at infinity or at one affine point,
    with the growth arguments of dichotomy._OracleGrowth."""
    spec = field_make(p, n)
    law, ident = _kernel(spec).law, _kernel(spec).identity
    point = pp1_infinity(spec) if at == "inf" else spec.q - 1
    return _order_p_stabilizer(spec, point), law, ident, p ** m


def torsion_input(name, n):
    """The n-torsion points of a standard curve and its code law, a group of
    rank <= 2 such as enum_spf_actions grows its subgroups in."""
    E = dict(standard_test_curves())[name]
    return [Q for Q, _ in _torsion(E, n)], partial(_code_add, _chord_tangent(E)), (), n


class TestLatticeAgainstReference:
    def check(self, args, monkeypatch):
        found, first, calls = first_generator_lists(capped_layers_of_order, *args, monkeypatch)
        expected, expected_first, expected_calls = first_generator_lists(reference_subgroups_of_order, *args, monkeypatch)
        assert found == expected
        assert first == expected_first
        assert calls <= expected_calls

    @pytest.mark.parametrize("p,n,at,m", ORACLE_CASES)
    def test_oracle_stabilizers(self, p, n, at, m, monkeypatch):
        self.check(oracle_input(p, n, at, m), monkeypatch)

    @pytest.mark.parametrize("name,n", TORSION_CASES)
    def test_genus1_torsion(self, name, n, monkeypatch):
        self.check(torsion_input(name, n), monkeypatch)

    @pytest.mark.parametrize("long_cycles_first", [False, True])
    @pytest.mark.parametrize("k", [2, 3, 4, 6, 8, 12, 24])
    def test_s4_composite_index(self, k, long_cycles_first, monkeypatch):
        # a supergroup found earlier with composite index over H (D4 over a
        # subgroup of order 2) holds elements that generate a subgroup
        # strictly between the two, so it must not cover them
        identity = (0, 1, 2, 3)
        elements = list(itertools.permutations(range(4)))
        if long_cycles_first:
            elements.sort(key=lambda g: -order(g, compose_perm, identity, 24))
        self.check((elements, compose_perm, identity, k), monkeypatch)

    @pytest.mark.parametrize("p,n,m,closures", [(2, 4, 3, 65), (2, 6, 4, 2760)])
    def test_one_closure_per_subgroup(self, p, n, m, closures, monkeypatch):
        # 15 + 35 + 15 subspaces of F_2^4 of dimensions 1 to 3, and
        # 63 + 651 + 1395 + 651 of F_2^6 of dimensions 1 to 4
        _, first, calls = first_generator_lists(capped_layers_of_order, *oracle_input(p, n, "inf", m), monkeypatch)
        assert calls == len(first) == closures
