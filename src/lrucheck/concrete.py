"""Concrete LRU cache semantics and the exact (enumerating) oracle.

A cache set with associativity k holds at most k memory blocks, ordered from
most to least recently used.  A concrete state is that order: the tuple of
the cached blocks' positions in `StateSpace.blocks`, youngest first.  The age
of a block is its index in the tuple, or k when it is absent (not cached).
An access moves its block to the front; when the block was absent, the
oldest block falls off the end once the tuple would exceed k entries.

The oracle computes, per program point, the exact set of cache states an
execution can be in (a least fixpoint of the reachable-state equations), and
classifies accesses from it.  It enumerates states explicitly over the raw
projection, sharing nothing with the abstract domains or the focused search
it checks, so it is only usable on small universes; a (vertex, state) pair
budget guards against blowup.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .cfg import AccessId, MemoryBlock, ProjectedCfg, out_edges, reverse_post_order
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


@dataclass(frozen=True)
class StateSpace:
    """A fixed block universe plus associativity.

    Every analysis of a cache set refers to blocks by their position in
    `blocks`, so one shared object fixes the meaning of every state.
    """

    k: int
    blocks: tuple[MemoryBlock, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"associativity must be >= 1, got {self.k}")
        if tuple(sorted(self.blocks)) != self.blocks:
            raise ValueError("blocks must be sorted")
        if len(set(self.blocks)) != len(self.blocks):
            raise ValueError("blocks must be distinct")

    @cached_property
    def _index(self) -> dict[MemoryBlock, int]:
        return {b: i for i, b in enumerate(self.blocks)}

    def index_of(self, block: MemoryBlock) -> int:
        return self._index[block]

    def count_states(self) -> int:
        """How many concrete states this universe has: Σ perm(n, c) for c ≤ k."""
        n = len(self.blocks)
        return sum(math.perm(n, c) for c in range(min(self.k, n) + 1))


def _over_budget(g: ProjectedCfg, budget: int) -> OracleCapacityError:
    return OracleCapacityError(
        f"oracle needs more than {budget} (vertex, state) pairs on {g.name!r}"
    )


def collecting_semantics(
    g: ProjectedCfg,
    space: StateSpace,
    init: InitMode = InitMode.EMPTY,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> dict[str, frozenset[ConcreteState]]:
    """Exact per-vertex reachable cache-state sets.

    Least fixpoint of: entry holds the initial states (the empty cache, or
    every state of `space`); each edge propagates the source vertex's states
    through its access (no-access edges propagate states unchanged).
    Vertices unreachable from the entry end up with the empty set.  Raises
    OracleCapacityError when the total number of (vertex, state) pairs
    exceeds `budget`.
    """
    # Check the seed count before enumerating: an unknown cache over a large
    # universe has more initial states than any budget can hold.
    total = 1 if init is InitMode.EMPTY else space.count_states()
    if total > budget:
        raise _over_budget(g, budget)
    k, n = space.k, len(space.blocks)
    if init is InitMode.EMPTY:
        seeds = {()}
    else:
        seeds = {
            q for c in range(min(k, n) + 1) for q in itertools.permutations(range(n), c)
        }
    adj = out_edges(g)
    index = space.index_of
    succ = {
        v: [(e.dst, None if e.block is None else index(e.block)) for e in edges]
        for v, edges in adj.items()
    }
    reach: dict[str, set[ConcreteState]] = {v: set() for v in g.vertices}
    reach[g.entry] = seeds

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
            if i is None:
                image = src_states
            else:
                image = set()
                for q in src_states:
                    if i in q:
                        j = q.index(i)
                        image.add((i,) + q[:j] + q[j + 1:])
                    else:
                        image.add(((i,) + q)[:k])
            target = reach[w]
            fresh = image - target
            if fresh:
                target |= fresh
                total += len(fresh)
                if total > budget:
                    raise _over_budget(g, budget)
                if w not in queued:
                    queued.add(w)
                    work.append(w)
    return {v: frozenset(states) for v, states in reach.items()}


def exact_classify(
    space: StateSpace,
    reach: dict[str, frozenset[ConcreteState]],
    access: AccessId,
) -> Verdict:
    """Ground-truth verdict for one access, given exact reachable states.

    Hits on every reachable state: always-hit.  Misses on every reachable
    state: always-miss.  Otherwise both behaviors are realized, so the access
    is definitely-unknown.  An access whose source is unreachable hits
    vacuously and is reported always-hit.
    """
    states = reach[access.src]
    i = space.index_of(access.block)
    if all(i in q for q in states):
        return Verdict.ALWAYS_HIT
    if not any(i in q for q in states):
        return Verdict.ALWAYS_MISS
    return Verdict.DEFINITELY_UNKNOWN
