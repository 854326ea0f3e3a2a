"""Closure of finite sets under a group law, and layered subgroup growth.

Both functions are generic: elements are any hashable values and `op` is
the group law, so the PGL2 constructors, the elementary-abelian oracle and
the genus-1 translation census share one implementation.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Optional, Sequence, TypeVar

T = TypeVar("T", bound=Hashable)


def close(gens: Sequence[T], op: Callable[[T, T], T], seen: Iterable[T], cap: Optional[int] = None) -> Optional[set[T]]:
    """The closure of `seen` and `gens` under left multiplication by `gens`.

    `seen` must already be closed (the identity alone, or a subgroup); it is
    copied, not modified.  In a finite group the result is the subgroup that
    `seen` and `gens` generate.  Returns None as soon as the set has more
    than `cap` members.
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


def subgroups_of_order(elements: Sequence[T], op: Callable[[T, T], T], identity: T, order: int) -> set[frozenset[T]]:
    """Every subgroup with exactly `order` members that some of `elements`
    generate, grown one element at a time from the trivial group.  Subgroups
    that pass `order` on the way are dropped."""
    layer = {frozenset((identity,))}
    found = set()
    while layer:
        next_layer = set()
        for H in layer:
            if len(H) == order:
                found.add(H)
                continue
            for g in elements:
                if g in H:
                    continue
                grown = close([*H, g], op, H, cap=order)
                if grown is not None:
                    next_layer.add(frozenset(grown))
        layer = next_layer
    return found
