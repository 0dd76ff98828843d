"""Exact model checking of one block's cache behavior via a focused state model.

To decide whether accesses to one block `a` can hit or can miss, the full LRU
state is overkill: all that matters is the set of distinct blocks accessed
more recently than `a`.  The focused state is therefore either that set of
younger blocks (so `a` is cached and its age equals the set size), or the
single symbol epsilon meaning `a` is not cached.  This abstraction is exact
for every question about `a` alone: it commutes with the LRU update.

Explicit-state breadth-first search over (vertex, focused state) pairs then
answers always-hit and always-miss questions about `a` precisely, on models
that stay small because states are subsets of the few blocks that can still
be cached at all (a may-analysis prunes the rest).
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .cfg import AccessId, Edge, MemoryBlock, ProjectedCfg, block_universe, out_edges
from .ai import Fixpoint
from .concrete import ConcreteState, InitMode, StateSpace
from .verdict import Verdict

DEFAULT_MC_BUDGET = 2**20


class FocusedCapacityError(Exception):
    """The focused reachability search exceeded its state budget."""


class _Epsilon:
    """The focused state meaning "the focused block is not cached"."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EPSILON"


EPSILON = _Epsilon()

#: Focused state: EPSILON, or the frozen set of blocks younger than the focus.
#: (A `|` union, not typing.Union; see cfg.AnyCfg.)
FocusedState = _Epsilon | frozenset


def alpha_focus(space: StateSpace, q: ConcreteState, focus: MemoryBlock) -> FocusedState:
    """Project a concrete cache state onto the focused view for `focus`."""
    age = space.age_of(q, focus)
    if age >= space.k:
        return EPSILON
    return frozenset(b for b in space.blocks if space.age_of(q, b) < age)


def update_focus(s: FocusedState, block: MemoryBlock, focus: MemoryBlock, k: int) -> FocusedState:
    """Focused transfer for an access.

    Accessing the focus empties its younger set.  Accessing anything else
    while the focus is out of cache keeps it out; otherwise the block joins
    the younger set, evicting the focus when the set would reach size k.
    """
    if block == focus:
        return frozenset()
    if s is EPSILON:
        return EPSILON
    grown = s | {block}
    if len(grown) >= k:
        return EPSILON
    return grown


def initial_focused(
    universe: Sequence[MemoryBlock], focus: MemoryBlock, k: int, init: InitMode
) -> frozenset:
    """Focused states the search starts from.

    An empty cache never holds the focus.  An unknown cache may hold it behind
    any younger set of fewer than k other blocks, or not hold it at all.
    """
    if init is InitMode.EMPTY:
        return frozenset({EPSILON})
    others = [b for b in universe if b != focus]
    states: set = {EPSILON}
    for size in range(min(k - 1, len(others)) + 1):
        for combo in itertools.combinations(others, size):
            states.add(frozenset(combo))
    return frozenset(states)


@dataclass(frozen=True)
class FocusedModel:
    """One block's model: the (possibly simplified) graph plus pruning facts.

    `live_blocks[v]` is the set of blocks that can be cached at all when
    control is at v; states reaching v only ever mention those.  `universe` is
    the union of the live sets minus the focus: the alphabet of younger sets.
    """

    graph: ProjectedCfg
    focus: MemoryBlock
    k: int
    live_blocks: dict[str, frozenset]
    universe: tuple[MemoryBlock, ...]
    simplified: bool


@dataclass(frozen=True)
class LiveFacts:
    """Which blocks can be cached where, for one projected graph.

    These facts do not depend on the focused block, so the models of every
    block of one graph share them.  `live_blocks[v]` holds the blocks that can
    be cached when control is at v; `blocks` is their union, sorted.
    """

    live_blocks: dict[str, frozenset]
    blocks: tuple[MemoryBlock, ...]


def all_live(g: ProjectedCfg) -> LiveFacts:
    """Facts without pruning: every accessed block live at every vertex."""
    blocks = block_universe(g)
    return LiveFacts(dict.fromkeys(g.vertices, frozenset(blocks)), blocks)


def live_facts(g: ProjectedCfg, may_fix: Fixpoint, space: StateSpace) -> LiveFacts:
    """Facts from the may bounds: a block is live at v unless its bound there is k.

    Unreachable vertices (BOTTOM in the may fixpoint) get empty live sets.
    """
    k = space.k
    by_bounds: dict = {None: frozenset()}
    live: dict[str, frozenset] = {}
    for v in g.vertices:
        s = may_fix[v]
        fs = by_bounds.get(s)
        if fs is None:
            fs = by_bounds[s] = frozenset(b for b, x in zip(space.blocks, s) if x < k)
        live[v] = fs
    return LiveFacts(live, tuple(sorted(set().union(*by_bounds.values()))))


def unsimplified_model(
    g: ProjectedCfg, focus: MemoryBlock, k: int, facts: Optional[LiveFacts] = None
) -> FocusedModel:
    """Focused model over the raw projection: every block live everywhere.

    `facts`, when given, must be `all_live(g)`.
    """
    if facts is None:
        facts = all_live(g)
    return FocusedModel(
        graph=g,
        focus=focus,
        k=k,
        live_blocks=facts.live_blocks,
        universe=tuple(b for b in facts.blocks if b != focus),
        simplified=False,
    )


def simplify_for(
    g: ProjectedCfg,
    focus: MemoryBlock,
    may_fix: Fixpoint,
    space: StateSpace,
    facts: Optional[LiveFacts] = None,
) -> FocusedModel:
    """Shrink a projection to what can matter for the focused block.

    Two reductions, both justified by the may analysis (lower age bounds):

    * an access edge whose source proves the focus uncached (may bound k) is
      relabeled to a no-access edge, unless it accesses the focus itself; from
      such a source the focused state is necessarily epsilon, which any other
      access preserves, exactly like a no-access edge;
    * per-vertex live sets drop every block whose may bound is k there, since
      no reachable cache state at that vertex holds it.

    Unreachable vertices (BOTTOM in the may fixpoint) get empty live sets and
    their access edges relabeled; no state ever reaches them.  Relabeling can
    create no-access self-loops, which are dropped like in projection.

    `facts`, when given, must be `live_facts(g, may_fix, space)`.  The
    universe is the union of the live sets minus the focus; it covers every
    block still accessed, since a kept access edge leaves a reachable source
    and so makes its block live at the target.
    """
    if facts is None:
        facts = live_facts(g, may_fix, space)
    k = space.k
    focus_i = space.index_of(focus)

    edges: list[Edge] = []
    for e in g.edges:
        if e.block is not None and e.block != focus:
            s = may_fix[e.src]
            if s is None or s[focus_i] >= k:
                e = Edge(e.src, None, e.dst)
        if e.block is None and e.src == e.dst:
            continue
        edges.append(e)
    graph = ProjectedCfg(
        entry=g.entry,
        vertices=g.vertices,
        edges=tuple(edges),
        set_index=g.set_index,
        name=g.name,
    )
    return FocusedModel(
        graph=graph,
        focus=focus,
        k=k,
        live_blocks=facts.live_blocks,
        universe=tuple(b for b in facts.blocks if b != focus),
        simplified=True,
    )


@dataclass
class FocusedReach:
    """Reachable focused states per vertex, plus how the search went."""

    focus: MemoryBlock
    states: dict[str, frozenset]
    explored: int
    partial: bool
    model: FocusedModel


def _state_sort_key(s: FocusedState):
    if s is EPSILON:
        return (1, ())
    return (0, tuple(sorted(b.index for b in s)))


def focused_reach(
    model: FocusedModel,
    init: frozenset,
    early_exit: Optional[Callable[[str, FocusedState], bool]] = None,
    budget: int = DEFAULT_MC_BUDGET,
) -> FocusedReach:
    """Breadth-first reachability over (vertex, focused state) pairs.

    `early_exit`, when given, sees every newly discovered pair; returning True
    stops the search and marks the result partial.  Callers may then only rely
    on state *presence*, not absence.  Raises FocusedCapacityError past
    `budget` discovered pairs.
    """
    g = model.graph
    k = model.k
    focus = model.focus
    adj = out_edges(g)
    reach: dict[str, set] = {v: set() for v in g.vertices}
    work: deque = deque()
    explored = 0
    partial = False

    def discover(v: str, s: FocusedState) -> bool:
        """Record a pair; returns True when the search should stop."""
        nonlocal explored, partial
        bucket = reach[v]
        if s in bucket:
            return False
        bucket.add(s)
        explored += 1
        if explored > budget:
            raise FocusedCapacityError(
                f"focused search needs more than {budget} (vertex, state) pairs "
                f"on {g.name!r} block b{focus.index}"
            )
        work.append((v, s))
        if early_exit is not None and early_exit(v, s):
            partial = True
            return True
        return False

    for s in sorted(init, key=_state_sort_key):
        if discover(g.entry, s):
            break
    while work and not partial:
        v, s = work.popleft()
        for e in adj[v]:
            t = s if e.block is None else update_focus(s, e.block, focus, k)
            if discover(e.dst, t):
                break
    return FocusedReach(
        focus=focus,
        states={v: frozenset(states) for v, states in reach.items()},
        explored=explored,
        partial=partial,
        model=model,
    )


@dataclass(frozen=True)
class McVerdict:
    """Result of model checking one access."""

    access: AccessId
    result: Verdict
    early_exit: bool


def check_access(
    reach: FocusedReach,
    access: AccessId,
    exists_hit: bool = False,
    exists_miss: bool = False,
) -> McVerdict:
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
    saw_eps = EPSILON in src_states
    saw_cached = len(src_states) > (1 if saw_eps else 0)

    def complete() -> None:
        if reach.partial:
            raise ValueError(
                "universal conclusion from a partial search; early exit must only "
                "stop once every pending check is refuted"
            )

    if exists_hit:
        if saw_eps:
            return McVerdict(access, Verdict.DEFINITELY_UNKNOWN, reach.partial)
        complete()
        return McVerdict(access, Verdict.ALWAYS_HIT, reach.partial)
    if exists_miss:
        if saw_cached:
            return McVerdict(access, Verdict.DEFINITELY_UNKNOWN, reach.partial)
        complete()
        return McVerdict(access, Verdict.ALWAYS_MISS, reach.partial)
    if not saw_eps:
        complete()
        return McVerdict(access, Verdict.ALWAYS_HIT, reach.partial)
    if not saw_cached:
        complete()
        return McVerdict(access, Verdict.ALWAYS_MISS, reach.partial)
    return McVerdict(access, Verdict.DEFINITELY_UNKNOWN, reach.partial)


def refutation_exit(
    goals: Sequence[tuple[str, bool, bool]],
) -> Callable[[str, FocusedState], bool]:
    """Early-exit predicate that fires once every pending check is refuted.

    Each goal is (source vertex, exists_hit, exists_miss) for one access.  A
    pending always-hit check is refuted by an epsilon state at the source, a
    pending always-miss check by a cached state.  Checks that end up holding
    universally never refute, so the search then runs to completion and stays
    usable for universal conclusions.
    """
    pending: set = set()
    for src, ex_hit, ex_miss in goals:
        if ex_hit and ex_miss:
            raise ValueError("access already definitely-unknown; no goal to refute")
        if ex_hit:
            pending.add((src, "eps"))
        elif ex_miss:
            pending.add((src, "cached"))
        else:
            pending.add((src, "eps"))
            pending.add((src, "cached"))

    def should_stop(v: str, s: FocusedState) -> bool:
        pending.discard((v, "eps" if s is EPSILON else "cached"))
        return not pending

    return should_stop


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
    lines.append(f"-- focused LRU cache model: block b{focus.index}, cache set {g.set_index}")
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

    adj = out_edges(g)
    disjuncts: list[str] = []
    for e in g.edges:
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
    for v in g.vertices:
        if not adj[v]:
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
