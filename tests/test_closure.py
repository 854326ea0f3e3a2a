from pglcensus.closure import close, subgroups_of_order


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


class TestSubgroupsOfOrder:
    def test_klein_four(self):
        elems = [(0, 1), (1, 0), (1, 1)]
        subs = subgroups_of_order(elems, add_klein, (0, 0), 2)
        assert sorted(sorted(H) for H in subs) == [[(0, 0), (0, 1)], [(0, 0), (1, 0)], [(0, 0), (1, 1)]]
        assert subgroups_of_order(elems, add_klein, (0, 0), 4) == {frozenset([(0, 0), *elems])}

    def test_trivial_order(self):
        assert subgroups_of_order([1, 2], add_mod(3), 0, 1) == {frozenset({0})}

    def test_order_not_reached(self):
        # Z/12 has one subgroup of each order dividing 12, reached here along
        # two chains ({0} < {0,3,6,9} and {0} < {0,6} < {0,3,6,9}), and none of order 5
        assert subgroups_of_order(range(12), add_mod(12), 0, 4) == {frozenset({0, 3, 6, 9})}
        assert subgroups_of_order(range(12), add_mod(12), 0, 5) == set()
