"""Exact model checking of one block's cache behavior via a focused state model.

To decide whether accesses to one block `a` can hit or can miss, the full LRU
state is overkill: all that matters is the set of distinct blocks accessed
more recently than `a`.  The focused state is therefore either that set of
younger blocks (so `a` is cached and its age equals the set size), or the
single symbol epsilon meaning `a` is not cached.  This abstraction is exact
for every question about `a` alone: it commutes with the LRU update.

Explicit-state breadth-first search over (vertex, focused state) pairs then
answers always-hit and always-miss questions about `a` precisely.

A model (`FocusedModel`) is a cache set's successor table plus one focus.
Neither constructor builds the table or the state space: callers pass them.
The classification searches `unsimplified_model` over the set's access
skeleton (`cfg.skeleton`) that its abstract phase already ran on: the
entry and the access sources, with every chain of no-access edges between
them contracted to one edge.  A focused state changes only on access edges
and is read only at access sources, so the skeleton search finds the same
states there as a search of the full table, in far fewer pairs.

`simplify_for` is the paper's may-based pruning, for the SMV export, which
renders the full table for a symbolic model checker.  It relabels the
accesses to other blocks as no-access edges where the may bound proves `a`
uncached or the source unreachable.  Every focused state reachable there is
epsilon, which such an access leaves unchanged, so an explicit search of the
pruned model explores the same pairs in the same order: the classification
does not prune.

The test suite states the abstraction over frozensets of blocks and checks
the search against it.  The search encodes a state as an int.  A
younger-set is a bitmask over the cache
set's blocks: bit i stands for `StateSpace.blocks[i]`, the same positions the
per-set successor table (`cfg.adjacency`) labels its access edges with.
Epsilon is `EPSILON_MASK`, -1: OR-ing any bit into it leaves it -1, so the
transfer needs no case for it.  An access to the focus gives 0; any other
access ORs in the block's bit, and a mask of k or more bits becomes epsilon.

An unknown initial cache could hold the focus behind any younger-set of
fewer than k blocks, but the search starts from two seeds only, 0 and
epsilon (see `initial_focused`): the update is monotone under set inclusion,
so they reach every cached state and every epsilon that any seed reaches.

The search order is fixed, because the number of pairs a search explores
before its refutation goals are met is part of every report: the seeds come
first (0 before epsilon); the work list is FIFO; successors are visited in
edge order.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Iterable, NamedTuple, Optional, Sequence

from .cfg import AccessId, Adjacency, Cfg, Edge, MemoryBlock
from .ai import Fixpoint, field_width
from .concrete import InitMode, StateSpace
from .verdict import Verdict

DEFAULT_MC_BUDGET = 2**20


class FocusedCapacityError(Exception):
    """The focused reachability search exceeded its state budget."""


#: The search's encoding of the focused state "not cached" (epsilon); every
#: other state is a mask >= 0.
EPSILON_MASK = -1


def initial_focused(init: InitMode) -> tuple[int, ...]:
    """Seed masks of a search, in search order.

    An empty cache never holds the focus: the only seed is EPSILON_MASK.  An
    unknown cache holds it behind any younger set of fewer than k blocks, or
    not at all, but two seeds stand for all of them.  The focused update is
    monotone under set inclusion with epsilon on top, so along any path the
    image of 0 lies inside the image of every younger-set, which lies inside
    the image of epsilon.  A cached state therefore reaches a vertex from
    some seed exactly when one reaches it from 0, and epsilon reaches it from
    some seed exactly when it does from EPSILON_MASK; those two facts are all
    that `check_access`, the refutation goals and reachability read.
    """
    if init is InitMode.UNKNOWN:
        return (0, EPSILON_MASK)
    return (EPSILON_MASK,)


class FocusedModel(NamedTuple):
    """One block's model: the set's successor table plus the focus.

    `succ[v]` lists `(dst, i)` per outgoing edge of v, i the position in
    `blocks` of the accessed block or -1 for no access: the rows of the set's
    `cfg.adjacency` table (in `graph`'s edge order) or of its `cfg.skeleton`.
    A `simplify_for` model rewrites the full table's rows at the sources where
    the focus is provably uncached or that are unreachable; every other row
    is the table's.  `graph` is the projection the table was built from; its
    cache set is `focus.set_index`.

    The alphabet of younger sets is every block but the focus: `universe`.
    """

    graph: Cfg
    focus: MemoryBlock
    k: int
    blocks: tuple[MemoryBlock, ...]
    succ: dict[str, tuple[tuple[str, int], ...]]

    @property
    def focus_pos(self) -> int:
        return self.blocks.index(self.focus)

    @property
    def universe(self) -> tuple[MemoryBlock, ...]:
        return tuple(b for b in self.blocks if b != self.focus)

    def edges(self) -> list[Edge]:
        """The model's edges in `graph`'s edge order; `succ` must be the full table.

        No-access self-loops are dropped, like projection drops them; the
        rows keep the ones relabeling creates, where the search passes over
        them.
        """
        rows = {v: iter(row) for v, row in self.succ.items()}
        out: list[Edge] = []
        for e in self.graph.edges:
            dst, i = next(rows[e.src])
            if i < 0 and dst == e.src:
                continue
            out.append(Edge(e.src, None if i < 0 else self.blocks[i], dst))
        return out


def unsimplified_model(
    g: Cfg, focus: MemoryBlock, space: StateSpace, adj: Adjacency
) -> FocusedModel:
    """Focused model over the raw projection.

    `space.blocks` must be `block_universe(g)` and `adj` must be `g`'s
    `adjacency` over `space.blocks` or its `skeleton`.
    """
    return FocusedModel(graph=g, focus=focus, k=space.k, blocks=space.blocks, succ=adj.succ)


def simplify_for(
    g: Cfg,
    focus: MemoryBlock,
    may_fix: Fixpoint,
    space: StateSpace,
    adj: Adjacency,
) -> FocusedModel:
    """Shrink a projection to what can matter for the focused block, for export.

    An access edge whose source proves the focus uncached (may bound k) is
    relabeled to a no-access edge, unless it accesses the focus itself: from
    such a source the focused state is necessarily epsilon, which any other
    access preserves, exactly like a no-access edge.  The access edges of
    unreachable vertices (BOTTOM in the may fixpoint) are relabeled too; no
    state ever reaches them.

    `may_fix` holds packed may states (see `ai`) at least at the access
    sources, so a skeleton fixpoint serves.  `adj` must be `g`'s full
    `adjacency` over `space.blocks`: only the SMV export prunes, and it
    renders the full table.
    """
    k = space.k
    focus_i = space.index_of(focus)
    width = field_width(k)
    shift, fmask = focus_i * width, (1 << width) - 1

    succ = dict(adj.succ)
    for v in adj.accessing:
        s = may_fix[v]
        if s is None or (s >> shift) & fmask >= k:
            succ[v] = tuple([(w, i if i == focus_i else -1) for w, i in succ[v]])
    return FocusedModel(graph=g, focus=focus, k=k, blocks=space.blocks, succ=succ)


class FocusedReach(NamedTuple):
    """Reachable focused states per vertex, plus how the search went.

    `states[v]` holds masks (EPSILON_MASK or a younger-set over
    `model.blocks`), for every vertex v of `model.succ`.
    """

    states: dict[str, set[int]]
    explored: int
    partial: bool
    model: FocusedModel


#: Pending-goal flags of a vertex: which state would refute a check there.
_WANT_EPSILON = 1
_WANT_CACHED = 2


def _pending_goals(goals: Sequence[tuple[str, bool, bool]]) -> dict[str, int]:
    """Per source vertex, the flags of the states that would refute its checks.

    A pending always-hit check is refuted by an epsilon state at the source,
    a pending always-miss check by a cached state.
    """
    pending: dict[str, int] = {}
    for src, ex_hit, ex_miss in goals:
        if ex_hit and ex_miss:
            raise ValueError("access already definitely-unknown; no goal to refute")
        if ex_hit:
            want = _WANT_EPSILON
        elif ex_miss:
            want = _WANT_CACHED
        else:
            want = _WANT_EPSILON | _WANT_CACHED
        pending[src] = pending.get(src, 0) | want
    return pending


def _over_budget(model: FocusedModel, budget: int) -> FocusedCapacityError:
    return FocusedCapacityError(
        f"focused search needs more than {budget} (vertex, state) pairs "
        f"on {model.graph.name!r} block b{model.focus.index}"
    )


def focused_reach(
    model: FocusedModel,
    init: Iterable[int],
    goals: Optional[Sequence[tuple[str, bool, bool]]] = None,
    budget: int = DEFAULT_MC_BUDGET,
) -> FocusedReach:
    """Breadth-first reachability over (vertex, focused state) pairs.

    The vertices are those of `model.succ`, the entry `model.graph.entry`.
    `init` holds the seed masks in search order (see `initial_focused`).
    Each goal is (source vertex, exists_hit, exists_miss) for one access;
    with goals given, the search stops as soon as every pending check is
    refuted and marks the result partial.  Callers may then only rely on
    state *presence*, not absence.  Checks that end up holding universally
    never refute, so the search then runs to completion and stays usable for
    universal conclusions.  Raises FocusedCapacityError past `budget`
    discovered pairs.
    """
    succ = model.succ
    k = model.k
    focus_pos = model.focus_pos
    pending = {} if goals is None else _pending_goals(goals)
    left = sum(want.bit_count() for want in pending.values())
    reach: dict[str, set[int]] = {v: set() for v in succ}
    work: deque = deque()
    explored = 0

    entry = model.graph.entry
    at_entry = reach[entry]
    for s in init:
        if s in at_entry:
            continue
        at_entry.add(s)
        explored += 1
        if explored > budget:
            raise _over_budget(model, budget)
        work.append((entry, s))
        if goals is not None:
            want = pending.get(entry, 0)
            hit = _WANT_EPSILON if s < 0 else _WANT_CACHED
            if want & hit:
                pending[entry] = want & ~hit
                left -= 1
            # Checked after every seed: an empty goal list stops at the first pair.
            if not left:
                return FocusedReach(reach, explored, True, model)

    popleft, push = work.popleft, work.append
    while work:
        v, s = popleft()
        for w, i in succ[v]:
            if i < 0:
                t = s
            elif i == focus_pos:
                t = 0
            else:
                t = s | 1 << i
                if t.bit_count() >= k:
                    t = EPSILON_MASK
            bucket = reach[w]
            if t in bucket:
                continue
            bucket.add(t)
            explored += 1
            if explored > budget:
                raise _over_budget(model, budget)
            push((w, t))
            if pending:
                want = pending.get(w)
                if want:
                    hit = _WANT_EPSILON if t < 0 else _WANT_CACHED
                    if want & hit:
                        pending[w] = want & ~hit
                        left -= 1
                        if not left:
                            return FocusedReach(reach, explored, True, model)
    return FocusedReach(reach, explored, False, model)


def check_access(
    reach: FocusedReach,
    access: AccessId,
    exists_hit: bool = False,
    exists_miss: bool = False,
) -> Verdict:
    """Decide one access from a focused reachability result.

    The flags say which behavior is already known to occur, so at most one
    universal check remains: with a hit known, only always-hit can still hold;
    with a miss known, only always-miss.  With neither flag, the always-hit
    check runs first, then always-miss, and failing both the access is
    definitely-unknown.  Universal conclusions require a complete search;
    refutations are valid on partial ones too.
    """
    if exists_hit and exists_miss:
        raise ValueError("access already definitely-unknown; model checking is redundant")
    src_states = reach.states[access.src]
    saw_eps = EPSILON_MASK in src_states
    saw_cached = len(src_states) > (1 if saw_eps else 0)

    def complete() -> None:
        if reach.partial:
            raise ValueError(
                "universal conclusion from a partial search; early exit must only "
                "stop once every pending check is refuted"
            )

    if exists_hit:
        if saw_eps:
            return Verdict.DEFINITELY_UNKNOWN
        complete()
        return Verdict.ALWAYS_HIT
    if exists_miss:
        if saw_cached:
            return Verdict.DEFINITELY_UNKNOWN
        complete()
        return Verdict.ALWAYS_MISS
    if not saw_eps:
        complete()
        return Verdict.ALWAYS_HIT
    if not saw_cached:
        complete()
        return Verdict.ALWAYS_MISS
    return Verdict.DEFINITELY_UNKNOWN


# --- SMV export -------------------------------------------------------------


def smv_filename(name: str, set_index: int, block: MemoryBlock) -> str:
    return f"{name}.set{set_index}.block{block.index}.smv"


def _smv_location(i: int, vertex: str) -> str:
    clean = re.sub(r"[^A-Za-z0-9_]", "_", vertex)
    return f"L{i}_{clean}"


def export_smv(model: FocusedModel, init: InitMode, targets: Sequence[AccessId]) -> str:
    """Render a focused model as an SMV module.

    One enumerated location variable mirrors the graph, one boolean says
    whether the focused block is cached, and one boolean per universe block
    tracks membership in the younger set (all false whenever uncached, so
    states are canonical).  The transition relation enumerates the edges;
    vertices without successors stutter.  For every target access two
    INVARSPEC properties are emitted: the always-hit check (cached whenever
    control is at the access source) and the always-miss check (uncached
    there).  Variable and disjunct order is deterministic.
    """
    g = model.graph
    k = model.k
    focus = model.focus
    loc = {v: _smv_location(i, v) for i, v in enumerate(g.vertices)}
    bits = {b: f"y_{b.index}" for b in model.universe}
    bit_names = [bits[b] for b in model.universe]

    def all_next_zero() -> str:
        return " & ".join(f"!next({n})" for n in bit_names)

    def frame(skip: Optional[str] = None) -> str:
        return " & ".join(f"next({n}) = {n}" for n in bit_names if n != skip)

    def size_sum() -> str:
        if not bit_names:
            return "0"
        return " + ".join(f"toint({n})" for n in bit_names)

    lines: list[str] = []
    lines.append(f"-- focused LRU cache model: block b{focus.index}, cache set {focus.set_index}")
    lines.append(f"-- graph {g.name!r}; associativity {k}; initial cache {init.value}")
    lines.append("MODULE main")
    lines.append("VAR")
    lines.append("  loc : {" + ", ".join(loc[v] for v in g.vertices) + "};")
    lines.append("  cached : boolean;")
    for n in bit_names:
        lines.append(f"  {n} : boolean;")

    zero_bits = " & ".join(f"!{n}" for n in bit_names)
    uncached_init = "!cached" + (f" & {zero_bits}" if zero_bits else "")
    lines.append("INIT")
    if init is InitMode.EMPTY:
        lines.append(f"  loc = {loc[g.entry]} & {uncached_init}")
    else:
        lines.append(
            f"  loc = {loc[g.entry]} & (({uncached_init}) | (cached & ({size_sum()} <= {k - 1})))"
        )

    edges = model.edges()
    disjuncts: list[str] = []
    for e in edges:
        head = f"loc = {loc[e.src]} & next(loc) = {loc[e.dst]}"
        if e.block is None:
            body = "next(cached) = cached" + (f" & {frame()}" if bit_names else "")
        elif e.block == focus:
            zeros = all_next_zero()
            body = "next(cached)" + (f" & {zeros}" if zeros else "")
        else:
            bit = bits[e.block]
            zeros = all_next_zero()
            miss_stay = "!cached & !next(cached)" + (f" & {zeros}" if zeros else "")
            evict = f"!{bit} & ({size_sum()} = {k - 1})"
            evicted = f"cached & ({evict}) & !next(cached)" + (f" & {zeros}" if zeros else "")
            stay_frame = frame(skip=bit)
            grown = f"cached & !({evict}) & next(cached) & next({bit})" + (
                f" & {stay_frame}" if stay_frame else ""
            )
            body = f"(({miss_stay}) | ({evicted}) | ({grown}))"
        disjuncts.append(f"({head} & {body})")
    sources = {e.src for e in edges}
    for v in g.vertices:
        if v not in sources:
            head = f"loc = {loc[v]} & next(loc) = {loc[v]}"
            body = "next(cached) = cached" + (f" & {frame()}" if bit_names else "")
            disjuncts.append(f"({head} & {body})")
    lines.append("TRANS")
    lines.append("  " + "\n| ".join(disjuncts))

    for a in targets:
        lines.append(f"-- access {a.label}: always-hit check")
        lines.append(f"INVARSPEC (loc = {loc[a.src]}) -> cached;")
        lines.append(f"-- access {a.label}: always-miss check")
        lines.append(f"INVARSPEC (loc = {loc[a.src]}) -> !cached;")
    return "\n".join(lines) + "\n"
