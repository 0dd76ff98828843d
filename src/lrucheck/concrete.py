"""Concrete LRU cache semantics and the exact (enumerating) oracle.

A cache set with associativity k holds at most k memory blocks, ordered from
most to least recently used.  A concrete state is that order: the tuple of
the cached blocks' positions in `StateSpace.blocks`, youngest first.  The age
of a block is its index in the tuple, or k when it is absent (not cached).
An access moves its block to the front; when the block was absent, the
oldest block falls off the end once the tuple would exceed k entries.

The oracle computes, per program point, the exact set of cache states an
execution can be in (a least fixpoint of the reachable-state equations), and
classifies accesses from it.  It walks the raw projection, sharing nothing
with the abstract domains or the focused search it checks.  Every state set
it holds is an explicit set of tuples, except where a point can be in every
state of an unknown initial cache: there it holds one lazy `AllStates`,
which no-access edges pass on as it is and whose access images are built
directly.  A (vertex, state) pair budget, counting every state of such a
point, guards against blowup, so the oracle is only usable on small
universes.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import deque
from collections.abc import Iterator, Mapping, Set
from functools import cached_property
from typing import Optional, Sequence

from .cfg import AccessId, Cfg, MemoryBlock, out_edges, reverse_post_order
from .verdict import Verdict

#: Concrete cache state: positions in StateSpace.blocks of the cached blocks,
#: youngest first, at most k of them.
ConcreteState = tuple[int, ...]

DEFAULT_ORACLE_BUDGET = 10**6


class OracleCapacityError(Exception):
    """The explicit-state oracle exceeded its (vertex, state) pair budget."""


class InitMode(enum.Enum):
    """Initial cache contents: known-empty, or entirely unknown."""

    EMPTY = "empty"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value


class StateSpace:
    """A fixed block universe plus associativity.

    Every analysis of a cache set refers to blocks by their position in
    `blocks`, so one shared object fixes the meaning of every state.
    """

    def __init__(self, k: int, blocks: tuple[MemoryBlock, ...]) -> None:
        if k < 1:
            raise ValueError(f"associativity must be >= 1, got {k}")
        if tuple(sorted(blocks)) != blocks:
            raise ValueError("blocks must be sorted")
        if len(set(blocks)) != len(blocks):
            raise ValueError("blocks must be distinct")
        self.k = k
        self.blocks = blocks

    @cached_property
    def _index(self) -> dict[MemoryBlock, int]:
        return {b: i for i, b in enumerate(self.blocks)}

    def index_of(self, block: MemoryBlock) -> int:
        return self._index[block]

    def count_states(self) -> int:
        """How many concrete states this universe has: Σ perm(n, c) for c ≤ k."""
        n = len(self.blocks)
        return sum(math.perm(n, c) for c in range(min(self.k, n) + 1))


class AllStates(Set[ConcreteState]):
    """Every state of `space`, enumerated lazily: an unknown cache.

    `len` counts the states from `count_states` without enumerating them.
    Iteration yields them by size, the empty cache first, each size in
    `itertools.permutations` order.  Membership accepts exactly the valid
    states: a tuple of at most k distinct positions in `space.blocks`.
    """

    def __init__(self, space: StateSpace) -> None:
        self.space = space

    def __len__(self) -> int:
        return self.space.count_states()

    def __iter__(self) -> Iterator[ConcreteState]:
        n = len(self.space.blocks)
        for c in range(min(self.space.k, n) + 1):
            yield from itertools.permutations(range(n), c)

    def __contains__(self, q: object) -> bool:
        n = len(self.space.blocks)
        return (
            isinstance(q, tuple)
            and len(q) <= self.space.k
            and len(set(q)) == len(q)
            and all(isinstance(p, int) and 0 <= p < n for p in q)
        )

    def image(self, i: int) -> set[ConcreteState]:
        """The states after an access to position i: i in front of any state
        of the other positions with fewer than k entries."""
        n = len(self.space.blocks)
        others = [p for p in range(n) if p != i]
        return {
            (i,) + q
            for c in range(min(self.space.k, n))
            for q in itertools.permutations(others, c)
        }


def _over_budget(g: Cfg, budget: int) -> OracleCapacityError:
    return OracleCapacityError(
        f"oracle needs more than {budget} (vertex, state) pairs on {g.name!r}"
    )


def collecting_semantics(
    g: Cfg,
    space: StateSpace,
    init: InitMode = InitMode.EMPTY,
    budget: int = DEFAULT_ORACLE_BUDGET,
    *,
    order: Optional[Sequence[str]] = None,
) -> dict[str, Set[ConcreteState]]:
    """Exact per-vertex reachable cache-state sets.

    Least fixpoint of: entry holds the initial states (the empty cache, or
    every state of `space`); each edge propagates the source vertex's states
    through its access (no-access edges propagate states unchanged).
    Vertices unreachable from the entry end up with the empty set.  A vertex
    that can be in every state holds one shared `AllStates`; every other
    vertex holds a frozenset.  Raises OracleCapacityError when the total
    number of (vertex, state) pairs, every state of an `AllStates` counted,
    exceeds `budget`.  `order`, when given, is the graph's
    `reverse_post_order`: the program's serves each of its projections.
    """
    # Check the seed count before any work: an unknown cache over a large
    # universe has more initial states than any budget can hold.
    total = 1 if init is InitMode.EMPTY else space.count_states()
    if total > budget:
        raise _over_budget(g, budget)
    k = space.k
    full = AllStates(space)
    adj = out_edges(g)
    index = space.index_of
    succ = {
        v: [(e.dst, None if e.block is None else index(e.block)) for e in edges]
        for v, edges in adj.items()
    }
    reach: dict[str, Set[ConcreteState]] = {v: set() for v in g.vertices}
    reach[g.entry] = {()} if init is InitMode.EMPTY else full

    if order is None:
        order = reverse_post_order(g, adj)
    work = deque(order)
    queued = set(order)
    while work:
        v = work.popleft()
        queued.discard(v)
        src_states = reach[v]
        if not src_states:
            continue
        for w, i in succ[v]:
            target = reach[w]
            if target is full:
                continue
            if src_states is full and i is None:
                # The target can now be in every state: it shares `full`.
                total += len(full) - len(target)
                if total > budget:
                    raise _over_budget(g, budget)
                reach[w] = full
                if w not in queued:
                    queued.add(w)
                    work.append(w)
                continue
            if src_states is full:
                image = full.image(i)
            elif i is None:
                image = src_states
            else:
                image = set()
                for q in src_states:
                    if i in q:
                        j = q.index(i)
                        image.add((i,) + q[:j] + q[j + 1:])
                    else:
                        image.add(((i,) + q)[:k])
            fresh = image - target
            if fresh:
                target |= fresh
                total += len(fresh)
                if total > budget:
                    raise _over_budget(g, budget)
                if w not in queued:
                    queued.add(w)
                    work.append(w)
    return {v: states if states is full else frozenset(states) for v, states in reach.items()}


def exact_classify(
    space: StateSpace,
    reach: Mapping[str, Set[ConcreteState]],
    access: AccessId,
) -> Verdict:
    """Ground-truth verdict for one access, given exact reachable states.

    Hits on every reachable state: always-hit.  Misses on every reachable
    state: always-miss.  Otherwise both behaviors are realized, so the access
    is definitely-unknown.  An access whose source is unreachable hits
    vacuously and is reported always-hit.  Each scan stops at the first
    state that decides it, so an `AllStates` (the empty cache first) is
    never enumerated.
    """
    states = reach[access.src]
    i = space.index_of(access.block)
    if all(i in q for q in states):
        return Verdict.ALWAYS_HIT
    if not any(i in q for q in states):
        return Verdict.ALWAYS_MISS
    return Verdict.DEFINITELY_UNKNOWN
