"""Abstract interpretation of LRU cache states: four age-bound domains.

All four domains attach one bound per memory block to every program point.

* must: upper bounds on ages that hold for every reachable state.  A bound
  below k proves the block is cached everywhere, so an access always hits.
* may: lower bounds on ages that hold for every reachable state.  A bound of
  k proves the block is cached nowhere, so an access always misses.
* exists-hit: upper bounds on the *minimum* age over the reachable states,
  paired with a must component.  A bound below k proves some execution hits.
* exists-miss: lower bounds on the *maximum* age over the reachable states,
  paired with a may component.  A bound of k proves some execution misses.

must/may speak about every state and answer "always?"; exists-hit/exists-miss
speak about the set of states as a whole and answer "can it happen?".  When an
access is neither always-hit nor always-miss but both a hit and a miss are
shown possible, it is definitely-unknown and exact model checking would be
wasted effort on it.

States are plain int tuples aligned with the state space's blocks.  A must or
may state is one bound per block.  An exists-hit state is its n bounds
followed by the n must bounds it carries; an exists-miss state is its n
bounds followed by the n carried may bounds.  The carried half equals the
standalone must (resp. may) fixpoint, so exists-hit and exists-miss alone
answer every question the four domains do.  None marks an unreachable vertex.
"""

from __future__ import annotations

from collections import deque, namedtuple
from dataclasses import dataclass
from typing import Optional

from .cfg import AccessId, Adjacency, AnyCfg, adjacency
from .concrete import InitMode, StateSpace
from .verdict import Verdict

#: Unreachable marker usable by every domain: join identity, fixed by transfer.
BOTTOM = None

#: An abstract state: one int per block (must, may) or two (exists-hit, exists-miss).
Bounds = tuple[int, ...]


def update_must(s: Bounds, i: int, k: int) -> Bounds:
    """Access transfer for must bounds; `i` is the accessed block's position.

    The accessed block gets bound 0.  Another block's bound grows by one only
    when it is strictly below the accessed block's bound; larger or equal
    bounds already cover the aged state.
    """
    m = s[i]
    out = [v + 1 if v < m else v for v in s]
    out[i] = 0
    return tuple(out)


def update_may(s: Bounds, i: int, k: int) -> Bounds:
    """Access transfer for may bounds.

    The accessed block gets bound 0.  Another block's bound grows by one when
    it does not exceed the accessed block's bound (equal cached bounds cannot
    be realized by one state twice, so aging is still guaranteed) and is not
    already k.
    """
    m = min(s[i] + 1, k)
    out = [v + 1 if v < m else v for v in s]
    out[i] = 0
    return tuple(out)


def update_eh(s: Bounds, i: int, k: int) -> Bounds:
    """Access transfer for exists-hit bounds and their carried must bounds.

    Whether the best state ages block b' depends on where the accessed block
    can be: if its must bound is at most b's bound, some witness state keeps
    b' unaged, otherwise every witness ages it (never past k, since the must
    bound is at most k).  The must half ages below the same bound.
    """
    n = len(s) >> 1
    m = s[n + i]
    out = [v + 1 if v < m else v for v in s]
    out[i] = 0
    out[n + i] = 0
    return tuple(out)


def update_em(s: Bounds, i: int, k: int) -> Bounds:
    """Access transfer for exists-miss bounds and their carried may bounds.

    Mirror of the exists-hit transfer: if the accessed block's may bound is
    strictly below b's bound, the worst state for b' need not age it;
    otherwise it is guaranteed to age (saturating at k).  The may half ages
    below the same bound.
    """
    n = len(s) >> 1
    m = min(s[n + i] + 1, k)
    out = [v + 1 if v < m else v for v in s]
    out[i] = 0
    out[n + i] = 0
    return tuple(out)


# Joins compare with `if`/`else` rather than map(min, ...): calling the
# min and max builtins per element costs about twice as much.


def join_must(s: Bounds, t: Bounds) -> Bounds:
    return tuple([a if a > b else b for a, b in zip(s, t)])


def join_may(s: Bounds, t: Bounds) -> Bounds:
    return tuple([a if a < b else b for a, b in zip(s, t)])


def join_eh(s: Bounds, t: Bounds) -> Bounds:
    n = len(s) >> 1
    return tuple(
        [a if a < b else b for a, b in zip(s[:n], t[:n])]
        + [a if a > b else b for a, b in zip(s[n:], t[n:])]
    )


def join_em(s: Bounds, t: Bounds) -> Bounds:
    n = len(s) >> 1
    return tuple(
        [a if a > b else b for a, b in zip(s[:n], t[:n])]
        + [a if a < b else b for a, b in zip(s[n:], t[n:])]
    )


def _seed_must(space: StateSpace, init: InitMode) -> Bounds:
    # Both an empty and an unknown cache promise nothing cached.
    return (space.k,) * len(space.blocks)


def _seed_may(space: StateSpace, init: InitMode) -> Bounds:
    if init is InitMode.EMPTY:
        return (space.k,) * len(space.blocks)
    return (0,) * len(space.blocks)


def _seed_eh(space: StateSpace, init: InitMode) -> Bounds:
    # No hit promised at entry, even for the unknown cache: weakest sound seed.
    return (space.k,) * len(space.blocks) + _seed_must(space, init)


def _seed_em(space: StateSpace, init: InitMode) -> Bounds:
    return _seed_may(space, init) * 2


#: An abstract domain bundled for the generic fixpoint engine.
#: `update(s, i, k)` transfers state s over an access to block position i.
Domain = namedtuple("Domain", ["name", "seed", "update", "join"])

MUST = Domain("must", _seed_must, update_must, join_must)
MAY = Domain("may", _seed_may, update_may, join_may)
EXISTS_HIT = Domain("exists-hit", _seed_eh, update_eh, join_eh)
EXISTS_MISS = Domain("exists-miss", _seed_em, update_em, join_em)

#: Per-vertex fixpoint result; None at unreachable vertices.
Fixpoint = dict[str, Optional[Bounds]]


def fixpoint(
    domain: Domain,
    g: AnyCfg,
    space: StateSpace,
    init: InitMode = InitMode.EMPTY,
    adj: Optional[Adjacency] = None,
) -> Fixpoint:
    """Least fixpoint of a domain over a graph.

    Entry starts at the domain's seed, every other vertex at BOTTOM.  Access
    edges apply the domain transfer, no-access edges propagate unchanged, and
    joins accumulate at edge targets.  Vertices are visited in reverse
    post-order with FIFO re-queuing, so an acyclic graph converges in one
    sweep.  Unreachable vertices stay BOTTOM.  `adj`, the graph's adjacency
    over `space.blocks`, is built when not given.
    """
    if adj is None:
        adj = adjacency(g, space.blocks)
    succ = adj.succ
    update, join, k = domain.update, domain.join, space.k
    state: Fixpoint = dict.fromkeys(g.vertices)
    state[g.entry] = domain.seed(space, init)

    work = deque(adj.order)
    queued = set(adj.order)
    while work:
        v = work.popleft()
        queued.discard(v)
        src = state[v]
        if src is None:
            continue
        for dst, i in succ[v]:
            moved = src if i < 0 else update(src, i, k)
            old = state[dst]
            if old is not None:
                if moved == old:
                    continue
                moved = join(old, moved)
                if moved == old:
                    continue
            state[dst] = moved
            if dst not in queued:
                queued.add(dst)
                work.append(dst)
    return state


def carried(fix: Fixpoint) -> Fixpoint:
    """The carried half of an exists-hit or exists-miss fixpoint, per vertex.

    That is the must (resp. may) fixpoint of the same graph.
    """
    return {v: None if s is None else s[len(s) >> 1:] for v, s in fix.items()}


@dataclass(frozen=True)
class AiClassification:
    """Outcome of the abstract phase for one access.

    `verdict` is None when the bounds cannot settle the access; the flags then
    say which half is already known possible, steering the model checker.
    """

    access: AccessId
    verdict: Optional[Verdict]
    exists_hit: bool
    exists_miss: bool


def ai_classify(
    space: StateSpace,
    access: AccessId,
    must: Fixpoint,
    may: Fixpoint,
    eh: Optional[Fixpoint] = None,
    em: Optional[Fixpoint] = None,
) -> AiClassification:
    """Combine the domains' answers at one access, cheapest proof first.

    must proves always-hit, may (bound k) proves always-miss.  Failing both,
    the exists-hit and exists-miss bounds decide definitely-unknown; when only
    one or neither of them is available or conclusive, the access stays
    unresolved with the flags recording which existential half is settled.
    An access whose source is unreachable hits vacuously: always-hit.  `eh`
    and `em` may be exists fixpoints, read through their first half.
    """
    v = access.src
    i = space.index_of(access.block)
    k = space.k
    must_s = must[v]
    if must_s is None:
        return AiClassification(access, Verdict.ALWAYS_HIT, False, False)
    if must_s[i] < k:
        return AiClassification(access, Verdict.ALWAYS_HIT, True, False)
    if may[v][i] == k:
        return AiClassification(access, Verdict.ALWAYS_MISS, False, True)
    # must is reachable here, so every domain is: no None checks needed.
    exists_hit = eh is not None and eh[v][i] < k
    exists_miss = em is not None and em[v][i] == k
    if exists_hit and exists_miss:
        return AiClassification(access, Verdict.DEFINITELY_UNKNOWN, True, True)
    return AiClassification(access, None, exists_hit, exists_miss)
