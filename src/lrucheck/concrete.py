"""Concrete LRU cache semantics and the exact (enumerating) oracle.

A cache set with associativity k is modeled by the age of every memory block:
age 0 is most recently used, ages grow with every access to a younger block,
and age k means "not cached".  Valid states keep at most k blocks cached, with
pairwise distinct cached ages forming an initial segment 0..c-1.

The oracle computes, per program point, the exact set of cache states an
execution can be in (a least fixpoint of the reachable-state equations), and
classifies accesses from it.  It enumerates states explicitly, so it is only
usable on small universes; a state-count budget guards against blowup.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .cfg import AccessId, MemoryBlock, ProjectedCfg, out_edges, reverse_post_order
from .verdict import Verdict

#: Concrete cache state: block ages aligned with StateSpace.blocks.
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
    """A fixed block universe plus associativity; home of all state operations.

    States are age tuples aligned with `blocks`.  Keeping the universe in one
    shared object makes states plain hashable tuples, cheap to store in sets.
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

    def age_of(self, q: ConcreteState, block: MemoryBlock) -> int:
        return q[self._index[block]]

    def empty_state(self) -> ConcreteState:
        return (self.k,) * len(self.blocks)

    def is_valid(self, q: ConcreteState) -> bool:
        """Check the LRU state invariant.

        At most k blocks cached; cached ages pairwise distinct and forming an
        initial segment {0, ..., c-1}; every age within 0..k.
        """
        if len(q) != len(self.blocks):
            return False
        if any(a < 0 or a > self.k for a in q):
            return False
        cached = sorted(a for a in q if a < self.k)
        return len(cached) <= self.k and cached == list(range(len(cached)))

    def count_states(self) -> int:
        """How many valid states `all_states` enumerates, without enumerating them."""
        n = len(self.blocks)
        return sum(math.perm(n, c) for c in range(min(self.k, n) + 1))

    def all_states(self) -> list[ConcreteState]:
        """Every valid state over this universe, in deterministic order."""
        n = len(self.blocks)
        out: list[ConcreteState] = []
        for c in range(min(self.k, n) + 1):
            for cached in itertools.permutations(range(n), c):
                ages = [self.k] * n
                for age, pos in enumerate(cached):
                    ages[pos] = age
                out.append(tuple(ages))
        return sorted(set(out))

    def update(self, q: ConcreteState, block: MemoryBlock) -> ConcreteState:
        """Age shift after accessing `block`.

        The accessed block becomes age 0.  Blocks at least as old keep their
        age, younger blocks age by one.  A younger block already at age k
        stays at k; that case cannot arise from a valid state (ages are capped
        at k, so nothing can be younger than an uncached block while itself
        being uncached) but the rule is total anyway.
        """
        i = self._index[block]
        age_b = q[i]
        k = self.k
        out = []
        for j, age in enumerate(q):
            if j == i:
                out.append(0)
            elif age >= age_b:
                out.append(age)
            elif age < k:
                out.append(age + 1)
            else:
                out.append(k)
        return tuple(out)


def initial_states(space: StateSpace, init: InitMode) -> frozenset[ConcreteState]:
    """Concrete states the cache may start in."""
    if init is InitMode.EMPTY:
        return frozenset({space.empty_state()})
    return frozenset(space.all_states())


def collecting_semantics(
    g: ProjectedCfg,
    space: StateSpace,
    init: InitMode = InitMode.EMPTY,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> dict[str, frozenset[ConcreteState]]:
    """Exact per-vertex reachable cache-state sets.

    Least fixpoint of: entry holds the initial states; each edge propagates
    the source vertex's states through its access (no-access edges propagate
    states unchanged).  Vertices unreachable from the entry end up with the
    empty set.  Raises OracleCapacityError when the total number of
    (vertex, state) pairs exceeds `budget`.
    """
    # Check the seed count before enumerating: an unknown cache over a large
    # universe has more initial states than any budget can hold.
    total = 1 if init is InitMode.EMPTY else space.count_states()
    if total > budget:
        raise OracleCapacityError(
            f"oracle needs more than {budget} (vertex, state) pairs on {g.name!r}"
        )
    adj = out_edges(g)
    reach: dict[str, set[ConcreteState]] = {v: set() for v in g.vertices}
    reach[g.entry] = set(initial_states(space, init))

    order = reverse_post_order(g, adj)
    from collections import deque

    work = deque(order)
    queued = set(order)
    # Updates repeat heavily across fixpoint rounds; memoize per (state, block).
    upd_cache: dict[tuple[ConcreteState, MemoryBlock], ConcreteState] = {}
    while work:
        v = work.popleft()
        queued.discard(v)
        src_states = reach[v]
        if not src_states:
            continue
        for e in adj[v]:
            if e.block is None:
                image = src_states
            else:
                image = set()
                for q in src_states:
                    key = (q, e.block)
                    q2 = upd_cache.get(key)
                    if q2 is None:
                        q2 = space.update(q, e.block)
                        upd_cache[key] = q2
                    image.add(q2)
            target = reach[e.dst]
            fresh = image - target
            if fresh:
                target |= fresh
                total += len(fresh)
                if total > budget:
                    raise OracleCapacityError(
                        f"oracle needs more than {budget} (vertex, state) pairs on {g.name!r}"
                    )
                if e.dst not in queued:
                    queued.add(e.dst)
                    work.append(e.dst)
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
    k = space.k
    i = space.index_of(access.block)
    if all(q[i] < k for q in states):
        return Verdict.ALWAYS_HIT
    if all(q[i] == k for q in states):
        return Verdict.ALWAYS_MISS
    return Verdict.DEFINITELY_UNKNOWN

