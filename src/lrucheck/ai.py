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
wasted effort on it.  `ai_classify` states that answer at one access as the
pipeline's own record, a `verdict.FinalVerdict` with provenance must, may or
eh-em, or unresolved when the bounds do not settle the access.

A state is one Python int holding a row of bounds aligned with the state
space's blocks.  A must or may state has n fields, one per block.  An
exists-hit state has 2n: its own n bounds, then the n must bounds it carries;
an exists-miss state likewise carries the n may bounds.  The carried half
equals the standalone must (resp. may) fixpoint, so exists-hit and exists-miss
alone answer every question the four domains do.  None marks an unreachable
vertex.

Layout: field j occupies bits [j*w, (j+1)*w) with w = `field_width(k)` =
k.bit_length() + 1, so bound j of state s is `(s >> j*w) & (2**w - 1)`; the
readers (`ai_classify`, `focused.simplify_for`) compute that shift and mask
once per access or focus.  A bound is at most k < 2**(w-1), which leaves the
top bit of every field, its guard bit, clear.  With L a 1 in the low bit of
every field and H = L << (w-1) the guard bits, one subtraction compares every
field at once:

    ge = ((a | H) - b) & H

has the guard bit of field j set exactly when a_j >= b_j (setting the guard
first keeps each field's difference non-negative, so no borrow crosses into
the next field).  b is either another state or a threshold m replicated into
every field as m*L.

* Transfer over an access to block i: the threshold m is carried field i for
  exists-hit, must field i for must, and that bound plus one, saturating at k,
  for may and exists-miss.  Every field below m ages by one, which is
  `s + ((ge ^ H) >> (w-1))` with ge computed against m*L (a field below
  m <= k stays at most k).  Then fields i and, in a paired state, n+i are
  cleared to 0.
* Join of old and moved: `sel = ge - (ge >> (w-1))` turns each set guard bit
  into all the value bits of its field, marking where old >= moved.  XOR-ing a
  per-domain constant inverts the mark on the fields that take the minimum, so
  `moved ^ ((old ^ moved) & sel)` keeps old where sel is set: the maximum for
  must bounds and carried must bounds, the minimum for may bounds, carried may
  bounds, exists-hit's own bounds; exists-miss's own bounds take the maximum.
"""

from __future__ import annotations

from collections import deque, namedtuple
from typing import Optional

from .cfg import AccessId, Adjacency, Cfg
from .concrete import InitMode, StateSpace
from .verdict import FinalVerdict, Provenance, Verdict

#: Unreachable marker usable by every domain: join identity, fixed by transfer.
BOTTOM = None


def field_width(k: int) -> int:
    """Bits per packed bound: 0..k plus a guard bit on top."""
    return k.bit_length() + 1


class Domain(namedtuple("Domain", ["name", "paired", "lower"])):
    """An abstract domain as data for the one fixpoint engine.

    `paired`: a state holds 2n fields, own bounds then carried bounds, and the
    aging threshold is the carried bound.  `lower`: the carried (or only)
    bounds are may-style lower bounds.  The threshold is then the bound plus
    one, saturating at k, those fields join by minimum and an unknown cache
    seeds them 0.  The own half of a paired state joins the other way.
    """

    __slots__ = ()

    def seed(self, space: StateSpace, init: InitMode) -> int:
        """The entry state: every bound k, except 0 for lower bounds of an
        unknown cache.  Upper bounds promise nothing cached at entry, even
        for the unknown cache: the weakest sound seed."""
        if self.lower and init is InitMode.UNKNOWN:
            return 0
        w = field_width(space.k)
        fields = 2 * len(space.blocks) if self.paired else len(space.blocks)
        return space.k * sum(1 << j * w for j in range(fields))


MUST = Domain("must", paired=False, lower=False)
MAY = Domain("may", paired=False, lower=True)
EXISTS_HIT = Domain("exists-hit", paired=True, lower=False)
EXISTS_MISS = Domain("exists-miss", paired=True, lower=True)

#: Per-vertex fixpoint result: a packed state, None at unreachable vertices.
Fixpoint = dict[str, Optional[int]]


def fixpoint(
    domain: Domain, g: Cfg, space: StateSpace, init: InitMode, adj: Adjacency
) -> Fixpoint:
    """Least fixpoint of a domain over a successor table of a graph.

    The vertices are those of the table, `adj.succ`: every vertex of `g` for
    its `adjacency`, the entry and the access sources for its `skeleton`,
    which the classification runs on.  Entry starts at the domain's seed,
    every other vertex at BOTTOM.  Access edges apply the domain transfer,
    no-access edges propagate unchanged, and joins accumulate at edge
    targets.  Vertices are visited in the table's reverse post-order,
    `adj.order` (for a skeleton, the program's order restricted to the kept
    vertices), with FIFO re-queuing, so an acyclic graph converges in one
    sweep.  The transfer reads the carried bound, so it is not monotone and
    the result depends on this order and on the table: every order is sound.
    Must and may are monotone, so their skeleton fixpoint equals the full
    one at every kept vertex.  Unreachable vertices stay BOTTOM.  `adj` must
    be built over `space.blocks`.
    """
    k = space.k
    n = len(space.blocks)
    w = field_width(k)
    top = w - 1
    fmask = (1 << w) - 1
    fields = 2 * n if domain.paired else n
    low = sum(1 << j * w for j in range(fields))
    guard = low << top
    values = guard - low
    base = n if domain.paired else 0
    # Threshold of a transfer, replicated into every field, by the bound it reads.
    thresh = [min(m + domain.lower, k) * low for m in range(k + 1)]
    shift = [(base + i) * w for i in range(n)]
    keep = []
    for i in range(n):
        mask = guard | values
        for j in (i, n + i) if domain.paired else (i,):
            mask ^= fmask << j * w
        keep.append(mask)
    # Fields joined by minimum: every field of lower bounds, then a paired
    # domain's own half (the first n fields) flips to the other side.
    own = sum(1 << j * w for j in range(n)) * (fmask >> 1)
    flip = (values if domain.lower else 0) ^ (own if domain.paired else 0)

    succ = adj.succ
    state: Fixpoint = dict.fromkeys(succ)
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
            if i < 0:
                moved = src
            else:
                ge = ((src | guard) - thresh[(src >> shift[i]) & fmask]) & guard
                moved = (src + ((ge ^ guard) >> top)) & keep[i]
            old = state[dst]
            if old is not None:
                if moved == old:
                    continue
                ge = ((old | guard) - moved) & guard
                moved ^= (old ^ moved) & ((ge - (ge >> top)) ^ flip)
                if moved == old:
                    continue
            state[dst] = moved
            if dst not in queued:
                queued.add(dst)
                work.append(dst)
    return state


def carried(fix: Fixpoint, space: StateSpace) -> Fixpoint:
    """The carried half of an exists-hit or exists-miss fixpoint, per vertex.

    That is the must (resp. may) fixpoint of the same graph.
    """
    shift = len(space.blocks) * field_width(space.k)
    return {v: None if s is None else s >> shift for v, s in fix.items()}


def ai_classify(
    space: StateSpace,
    access: AccessId,
    must: Fixpoint,
    may: Fixpoint,
    eh: Optional[Fixpoint] = None,
    em: Optional[Fixpoint] = None,
) -> FinalVerdict:
    """Combine the domains' answers at one access, cheapest proof first.

    must proves always-hit, may (bound k) proves always-miss.  Failing both,
    the exists-hit and exists-miss bounds decide definitely-unknown; when only
    one or neither of them is available or conclusive, the access stays
    unresolved (verdict None) with the flags recording which existential half
    is settled.  The provenance names the domain that decided: must, may,
    eh-em, or unresolved.  An access whose source is unreachable hits
    vacuously: always-hit by must.  `eh` and `em`, when given, are exists
    fixpoints, read through their own half.
    """
    v = access.src
    k = space.k
    w = field_width(k)
    shift = space.index_of(access.block) * w
    fmask = (1 << w) - 1
    must_s = must[v]
    if must_s is None:
        return FinalVerdict(access, Verdict.ALWAYS_HIT, Provenance.MUST, False, False)
    if (must_s >> shift) & fmask < k:
        return FinalVerdict(access, Verdict.ALWAYS_HIT, Provenance.MUST, True, False)
    if (may[v] >> shift) & fmask == k:
        return FinalVerdict(access, Verdict.ALWAYS_MISS, Provenance.MAY, False, True)
    # must is reachable here, so every domain is: no None checks needed.
    exists_hit = eh is not None and (eh[v] >> shift) & fmask < k
    exists_miss = em is not None and (em[v] >> shift) & fmask == k
    if exists_hit and exists_miss:
        return FinalVerdict(access, Verdict.DEFINITELY_UNKNOWN, Provenance.EH_EM, True, True)
    return FinalVerdict(access, None, Provenance.UNRESOLVED, exists_hit, exists_miss)
