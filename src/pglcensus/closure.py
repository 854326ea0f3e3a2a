"""Closure of finite sets under a group law, layered subgroup growth, and
the order of one element.

These functions are generic: elements are any hashable values and `op` is
the group law, so the PGL2 constructors, the elementary-abelian oracle, the
genus-1 translation census and every order search (maps, curve points,
integers mod n) share one implementation.  The layered growth closes each
subgroup once where every step has prime index (an elementary abelian
group): a supergroup already found is not regrown from another of its
maximal subgroups.  The module imports nothing else from the package, so
every layer, the field layer included, can use it.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence, TypeVar

T = TypeVar("T", bound=Hashable)
# one layer of the subgroup growth: each subgroup and its generator list
Layer = dict[frozenset[T], tuple[T, ...]]


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def order(x: T, op: Callable[[T, T], T], identity: T, cap: int) -> Optional[int]:
    """The least k >= 1 with x^k = identity under `op`, or None when k would
    pass `cap`: at most cap - 1 products, and fewer when the order is small."""
    power, k = x, 1
    while power != identity:
        if k >= cap:
            return None
        power = op(power, x)
        k += 1
    return k


def close(gens: Sequence[T], op: Callable[[T, T], T], seen: Iterable[T], cap: Optional[int] = None) -> Optional[set[T]]:
    """The closure of `seen` and `gens` under left multiplication by `gens`.

    `seen` must already be closed (the identity alone, or a subgroup); it is
    copied, not modified.  In a finite group the result is the subgroup that
    `seen` and `gens` generate provided `seen` is generated by members of
    `gens` or is normalized by `gens`: the closure multiplies by `gens` on
    the left only, so it is the set of products w*s, w a word in `gens` and s
    in `seen`, which is a subgroup only under that condition.  Returns None
    as soon as the set has more than `cap` members.
    """
    seen = set(seen)
    boundary = [g for g in gens if g not in seen]
    seen.update(boundary)
    while boundary:
        fresh = []
        for g in gens:
            for h in boundary:
                prod = op(g, h)
                if prod not in seen:
                    seen.add(prod)
                    fresh.append(prod)
                    if cap is not None and len(seen) > cap:
                        return None
        boundary = fresh
    return seen


def subgroup_layers(elements: Sequence[T], op: Callable[[T, T], T], identity: T, cap: Optional[int] = None) -> Iterator[Layer]:
    """The subgroups that some of `elements` generate, grown one element at a
    time from the trivial group, one layer per step: layer k maps each
    subgroup closed from a list of k of `elements` to the first such list.
    Layer 0 is the trivial group, and the growth stops at the first empty
    layer, which it does not yield.  With a `cap`, subgroups of more than
    `cap` members are dropped, and those of more than cap/2 are not grown: a
    proper supergroup has at least twice their members (Lagrange).  Where
    some step has composite index a subgroup can recur in a later layer; in
    an elementary abelian p-group every step has index p, so layer k is the
    subgroups of order p^k.

    Each subgroup H of a layer keeps the generator list it was grown from,
    and H<g> is the closure of that list plus g over H: `close` then
    multiplies by len(gens) + 1 maps, not by |H| + 1, and is correct because
    H is generated by members of the list.  When a subgroup K of the next
    layer contains H with prime index, no subgroup lies strictly between
    them, so each g in K outside H gives K again and is skipped: H<g> lies
    in K and, by Lagrange, strictly above H.  That covers the K grown from H
    itself and, before any g is tried, the K already found from earlier
    subgroups of the layer, looked up among the K that hold H's last
    generator.  So where every step has prime index each subgroup is closed
    exactly once.  Only the last layer is held between two steps.
    """
    layer = {frozenset((identity,)): ()}
    while layer:
        yield layer
        layer = _next_layer(layer, elements, op, identity, cap)


def _next_layer(layer: Layer, elements: Sequence[T], op: Callable[[T, T], T], identity: T, cap: Optional[int]) -> Layer:
    """The layer after `layer` in subgroup_layers; its index of the grown
    subgroups by member is dropped on return."""
    next_layer, holding = {}, {}
    for H, gens in layer.items():
        if cap is not None and 2 * len(H) > cap:
            continue
        covered = set(H)
        for K in filter(H.issubset, holding.get(gens[-1] if gens else identity, ())):
            if is_prime(len(K) // len(H)):
                covered |= K
        # covered grows in the loop, and filterfalse tests each g when it
        # reaches it
        for g in filterfalse(covered.__contains__, elements):
            grown = close([*gens, g], op, H, cap=cap)
            if grown is None:
                continue
            grown = frozenset(grown)
            if grown not in next_layer:
                next_layer[grown] = (*gens, g)
                for x in grown:
                    holding.setdefault(x, []).append(grown)
            if is_prime(len(grown) // len(H)):
                covered |= grown
    return next_layer

