"""Worklists driving fixed-point solvers.

All lists deduplicate: pushing an item already queued is a no-op.  The
points-to solvers push nodes many times per fixed point, so membership checks
must be O(1).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, Generic, Iterable, List, Set, TypeVar

T = TypeVar("T")


class WorkList(Generic[T]):
    """LIFO worklist with O(1) dedup. Good default for constraint solving."""

    __slots__ = ("_items", "_member")

    def __init__(self, items: Iterable[T] = ()):
        self._items: List[T] = []
        self._member: Set[T] = set()
        for item in items:
            self.push(item)

    def push(self, item: T) -> bool:
        """Queue *item* unless already queued; return True if queued."""
        if item in self._member:
            return False
        self._member.add(item)
        self._items.append(item)
        return True

    def extend(self, items: Iterable[T]) -> None:
        for item in items:
            self.push(item)

    def pop(self) -> T:
        item = self._items.pop()
        self._member.discard(item)
        return item

    def __contains__(self, item: T) -> bool:
        return item in self._member

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)


class FIFOWorkList(Generic[T]):
    """FIFO worklist with O(1) dedup; round-robin order helps convergence
    on graphs with long chains (e.g. SVFG value-flow paths)."""

    __slots__ = ("_items", "_member")

    def __init__(self, items: Iterable[T] = ()):
        self._items: Deque[T] = deque()
        self._member: Set[T] = set()
        for item in items:
            self.push(item)

    def push(self, item: T) -> bool:
        if item in self._member:
            return False
        self._member.add(item)
        self._items.append(item)
        return True

    def extend(self, items: Iterable[T]) -> None:
        for item in items:
            self.push(item)

    def pop(self) -> T:
        item = self._items.popleft()
        self._member.discard(item)
        return item

    def __contains__(self, item: T) -> bool:
        return item in self._member

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    # ----------------------------------------------------------- persistence

    def snapshot(self) -> dict:
        """Queue order verbatim (items must be JSON-safe, e.g. ints)."""
        return {"items": list(self._items)}

    def restore(self, state: dict) -> None:
        """Reload :meth:`snapshot` output into this (empty) worklist."""
        self._items = deque(state["items"])
        self._member = set(self._items)


class PriorityWorkList(Generic[T]):
    """Priority worklist popping the item with the smallest key first.

    Processing nodes in (reverse) topological order of the flow graph
    reduces redundant propagation: the dense ICFG solver keys instructions
    callers-first and in program order within a function, so upstream
    maps mostly settle before their successors pop.  Keys should be
    unique; ties pop in no stable order.
    """

    __slots__ = ("_heap", "_member", "_key")

    def __init__(self, key: Callable[[T], int], items: Iterable[T] = ()):
        self._heap: List[tuple] = []
        self._member: Set[T] = set()
        self._key = key
        for item in items:
            self.push(item)

    def push(self, item: T) -> bool:
        if item in self._member:
            return False
        self._member.add(item)
        heapq.heappush(self._heap, (self._key(item), id(item), item))
        return True

    def extend(self, items: Iterable[T]) -> None:
        for item in items:
            self.push(item)

    def pop(self) -> T:
        __, __, item = heapq.heappop(self._heap)
        self._member.discard(item)
        return item

    def __contains__(self, item: T) -> bool:
        return item in self._member

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    # ----------------------------------------------------------- persistence

    def snapshot(self) -> dict:
        """Queued items in pop order."""
        return {"items": [item for __, __, item in sorted(self._heap)]}

    def restore(self, state: dict) -> None:
        """Replace the contents with :meth:`snapshot` output; items are
        re-keyed, so they pop in the same order as before the snapshot."""
        self._heap = []
        self._member = set()
        self.extend(state["items"])
