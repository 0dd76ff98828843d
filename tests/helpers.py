"""Shared builders and reference oracles for the test suite.

The age-vector functions are the specification of the concrete LRU
semantics: a state gives every block of a `StateSpace` its age, k meaning
"not cached".  The oracle (`concrete.collecting_semantics`) is tested against
them.  The update_*/join_* functions and `reference_fixpoint` state the four
abstract domains over bound tuples; the packed fixpoint (`ai.fixpoint`) is
tested against them.  The gamma_* functions are independent re-statements of what each
abstract domain's states mean in terms of concrete states, and
`alpha_focus`/`update_focus` state the focused abstraction over frozensets.
Tests check the production code against these by enumeration, so the two
formulations never share code.
"""

from __future__ import annotations

import itertools
import json
from collections import deque, namedtuple

from hypothesis import strategies as st

from lrucheck.ai import fixpoint
from lrucheck.cfg import (
    Adjacency,
    CacheConfig,
    Cfg,
    Edge,
    MemoryBlock,
    accesses_of,
    block_universe,
    out_edges,
    parse_cfg,
    reverse_post_order,
)
from lrucheck.classify import abstract_phase
from lrucheck.concrete import InitMode, StateSpace
from lrucheck.focused import EPSILON_MASK, simplify_for, unsimplified_model


def cfg_text(entry, vertices, edges, name=None):
    """Edges are (src, dst, address-or-None) triples."""
    doc = {
        "entry": entry,
        "vertices": list(vertices),
        "edges": [{"from": s, "to": d, "access": a} for s, d, a in edges],
    }
    if name:
        doc["name"] = name
    return json.dumps(doc)


def build_cfg(entry, vertices, edges, config, name=None) -> Cfg:
    return parse_cfg(cfg_text(entry, vertices, edges, name), config)


def small_config(k=2, sets=1, block=8) -> CacheConfig:
    return CacheConfig(associativity=k, num_sets=sets, block_size=block)


def loop_cfg(config) -> Cfg:
    """A loop whose body accesses two distinct blocks: v (addr 0), w (addr 8)."""
    return build_cfg(
        "a",
        ["a", "b", "c", "d", "exit"],
        [
            ("a", "b", None),
            ("b", "c", 0),
            ("c", "d", 8),
            ("d", "b", None),
            ("d", "exit", None),
        ],
        config,
        name="loop",
    )


def straightline_cfg(config) -> Cfg:
    """Five accesses x, y, a, v, w to five distinct blocks (block size 8)."""
    return build_cfg(
        "v0",
        ["v0", "v1", "v2", "v3", "v4", "v5"],
        [
            ("v0", "v1", 24),
            ("v1", "v2", 32),
            ("v2", "v3", 0),
            ("v3", "v4", 8),
            ("v4", "v5", 16),
        ],
        config,
        name="straightline",
    )


def blocks_for(n, sets=1) -> tuple[MemoryBlock, ...]:
    return tuple(MemoryBlock(i, i % sets) for i in range(n))


def space_for(n_blocks, k) -> StateSpace:
    return StateSpace(k=k, blocks=blocks_for(n_blocks))


def full_table(g, blocks):
    """A graph's full successor table over `blocks`, in the graph's own order.

    `succ[v]` lists `(dst, i)` per outgoing edge of v in edge order, i the
    position of the edge's block in `blocks` or -1 for no access: the table
    `cfg.skeleton` contracts, and the reference its tests compare with.
    """
    position = {b: i for i, b in enumerate(blocks)}
    succ = {
        v: tuple([(e.dst, -1 if e.block is None else position[e.block]) for e in edges])
        for v, edges in out_edges(g).items()
    }
    return Adjacency(succ=succ, order=tuple(reverse_post_order(g)))


def table_skeleton(adj, entry):
    """Reference for `cfg.skeleton`: contract a full successor table to its access skeleton.

    The kept vertices are `entry` and the vertices with an access edge in
    `adj`, in `adj.order`.  A kept vertex's row lists, for each of its edges
    `(dst, i)` in edge order, `(w, i)` for every kept vertex w reachable from
    dst through unkept vertices only (dst itself when it is kept), the w in
    order; a pair already in the row is not repeated.
    """
    kept = {v for v, row in adj.succ.items() if any(i >= 0 for _, i in row)} | {entry}
    order = tuple(v for v in adj.order if v in kept)
    rank = {v: r for r, v in enumerate(order)}
    # closure[u]: the kept vertices reachable from unkept u through unkept
    # vertices, as a mask over ranks; a least fixpoint of repeated sweeps.
    unkept = [v for v in reversed(adj.order) if v not in kept]
    closure = dict.fromkeys(unkept, 0)
    changed = True
    while changed:
        changed = False
        for u in unkept:
            old = new = closure[u]
            for w, _ in adj.succ[u]:
                r = rank.get(w)
                new |= closure[w] if r is None else 1 << r
            if new != old:
                closure[u] = new
                changed = True

    succ = {}
    for v in order:
        row = {}
        for w, i in adj.succ[v]:
            if w in rank:
                row[w, i] = None
                continue
            m = closure[w]
            while m:
                low = m & -m
                row[order[low.bit_length() - 1], i] = None
                m ^= low
        succ[v] = tuple(row)
    return Adjacency(succ=succ, order=order)


@st.composite
def random_programs(draw, sets=1):
    """Any multigraph of up to 7 vertices and 14 edges over up to 5 blocks, k <= 8.

    Blocks are 8 bytes apart, so with `sets` cache sets block x maps to set
    x % sets.
    """
    n = draw(st.integers(1, 7))
    blocks = draw(st.integers(1, 5))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(
        st.tuples(vertex, vertex, st.none() | st.integers(0, blocks - 1)), max_size=14
    ))
    config = small_config(k=draw(st.integers(1, 8)), sets=sets)
    return build_cfg(
        "v0", [f"v{i}" for i in range(n)],
        [(f"v{a}", f"v{b}", None if x is None else 8 * x) for a, b, x in edges],
        config,
    ), config


def analyze_set(pg, k, init, mode):
    """`classify.abstract_phase` of one projection, its edges, accesses and order built here."""
    return abstract_phase(
        pg, out_edges(pg), k, init, mode, accesses_of(pg), tuple(reverse_post_order(pg))
    )


def raw_model(pg, focus, k):
    """`unsimplified_model` over the projection's own state space and successor table."""
    space = StateSpace(k=k, blocks=block_universe(pg))
    return unsimplified_model(pg, focus, space, full_table(pg, space.blocks))


def solve(domain, pg, space, init=InitMode.EMPTY):
    """`ai.fixpoint` of `domain` over the full successor table, built here."""
    return fixpoint(domain, pg, space, init, full_table(pg, space.blocks))


def pruned_cfg(pg, focus, may, space):
    """The projection `pg` with the edges `simplify_for` prunes for `focus`."""
    return Cfg(pg.entry, pg.vertices, tuple(simplify_for(pg, focus, may, space)), pg.name)


def pruned_model(pg, focus, may, space):
    """`unsimplified_model` over the full table of `pruned_cfg`, built here."""
    pc = pruned_cfg(pg, focus, may, space)
    return unsimplified_model(pc, focus, space, full_table(pc, space.blocks))


# --- concrete semantics: the age-vector specification ------------------------


def age_of(space, q, block):
    return q[space.index_of(block)]


def empty_state(space):
    return (space.k,) * len(space.blocks)


def is_valid(space, q):
    """Check the LRU state invariant.

    At most k blocks cached; cached ages pairwise distinct and forming an
    initial segment {0, ..., c-1}; every age within 0..k.
    """
    if len(q) != len(space.blocks):
        return False
    if any(a < 0 or a > space.k for a in q):
        return False
    cached = sorted(a for a in q if a < space.k)
    return len(cached) <= space.k and cached == list(range(len(cached)))


def all_states(space):
    """Every valid state over the universe, in deterministic order."""
    n = len(space.blocks)
    out = []
    for c in range(min(space.k, n) + 1):
        for cached in itertools.permutations(range(n), c):
            ages = [space.k] * n
            for age, pos in enumerate(cached):
                ages[pos] = age
            out.append(tuple(ages))
    return sorted(set(out))


def update(space, q, block):
    """Age shift after accessing `block`.

    The accessed block becomes age 0.  Blocks at least as old keep their
    age, younger blocks age by one.  A younger block already at age k stays
    at k; that case cannot arise from a valid state (ages are capped at k, so
    nothing can be younger than an uncached block while itself being
    uncached) but the rule is total anyway.
    """
    i = space.index_of(block)
    age_b = q[i]
    k = space.k
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


def initial_states(space, init):
    """Age vectors the cache may start in."""
    if init is InitMode.EMPTY:
        return frozenset({empty_state(space)})
    return frozenset(all_states(space))


def age_vector(space, q):
    """The age vector of an oracle state (cached positions, youngest first)."""
    ages = [space.k] * len(space.blocks)
    for age, pos in enumerate(q):
        ages[pos] = age
    return tuple(ages)


def age_reach(space, reach):
    """An oracle result with every state decoded to its age vector."""
    return {v: frozenset(age_vector(space, q) for q in states) for v, states in reach.items()}


def reference_collecting(g, space, init):
    """Per-vertex reachable age vectors, by round-robin iteration to a fixpoint.

    Propagates every edge until nothing changes; shares only the edge lists
    with the oracle, not its worklist or its state encoding.
    """
    adj = out_edges(g)
    reach = {v: set() for v in g.vertices}
    reach[g.entry] = set(initial_states(space, init))
    changed = True
    while changed:
        changed = False
        for v in reverse_post_order(g, adj):
            for e in adj[v]:
                image = {q if e.block is None else update(space, q, e.block) for q in reach[v]}
                if not image <= reach[e.dst]:
                    reach[e.dst] |= image
                    changed = True
    return {v: frozenset(states) for v, states in reach.items()}


# --- abstract domains: the tuple specification ---------------------------------
#
# A spec state is a tuple of bounds aligned with `space.blocks`: one per block
# for must and may; for exists-hit and exists-miss its own n bounds followed
# by the n must (resp. may) bounds it carries.  `lrucheck.ai` packs the same
# row into one int: `pack` and `unpack` convert.


def field_bits(k):
    """The documented field width of a packed state: 0..k plus a guard bit."""
    return k.bit_length() + 1


def pack(bounds, k):
    """The packed int of a bound row (field j holds bounds[j])."""
    w = field_bits(k)
    return sum(b << j * w for j, b in enumerate(bounds))


def unpack(state, fields, k):
    """The bound row of a packed state with `fields` fields; None stays None."""
    if state is None:
        return None
    w = field_bits(k)
    return tuple((state >> j * w) & ((1 << w) - 1) for j in range(fields))


def unpack_fixpoint(domain, fix, space):
    """A packed fixpoint of `domain` over `space` with every state unpacked."""
    fields = len(space.blocks) * (2 if domain.paired else 1)
    return {v: unpack(s, fields, space.k) for v, s in fix.items()}


def update_must(s, i, k):
    """Access transfer for must bounds; `i` is the accessed block's position.

    The accessed block gets bound 0.  Another block's bound grows by one only
    when it is strictly below the accessed block's bound; larger or equal
    bounds already cover the aged state.
    """
    m = s[i]
    out = [v + 1 if v < m else v for v in s]
    out[i] = 0
    return tuple(out)


def update_may(s, i, k):
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


def update_eh(s, i, k):
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


def update_em(s, i, k):
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


def join_must(s, t):
    return tuple(max(a, b) for a, b in zip(s, t))


def join_may(s, t):
    return tuple(min(a, b) for a, b in zip(s, t))


def join_eh(s, t):
    n = len(s) >> 1
    return join_may(s[:n], t[:n]) + join_must(s[n:], t[n:])


def join_em(s, t):
    n = len(s) >> 1
    return join_must(s[:n], t[:n]) + join_may(s[n:], t[n:])


def seed_must(space, init):
    # Both an empty and an unknown cache promise nothing cached.
    return (space.k,) * len(space.blocks)


def seed_may(space, init):
    if init is InitMode.EMPTY:
        return (space.k,) * len(space.blocks)
    return (0,) * len(space.blocks)


def seed_eh(space, init):
    # No hit promised at entry, even for the unknown cache: weakest sound seed.
    return (space.k,) * len(space.blocks) + seed_must(space, init)


def seed_em(space, init):
    return seed_may(space, init) * 2


#: A domain of the spec: `update(s, i, k)` transfers state s over an access to
#: block position i.
SpecDomain = namedtuple("SpecDomain", ["name", "seed", "update", "join"])

SPEC = {
    d.name: d
    for d in (
        SpecDomain("must", seed_must, update_must, join_must),
        SpecDomain("may", seed_may, update_may, join_may),
        SpecDomain("exists-hit", seed_eh, update_eh, join_eh),
        SpecDomain("exists-miss", seed_em, update_em, join_em),
    )
}


def spec_carried(fix):
    """The carried half of a spec exists-hit or exists-miss fixpoint, per vertex."""
    return {v: None if s is None else s[len(s) >> 1:] for v, s in fix.items()}


def reference_fixpoint(domain, g, space, init, adj=None):
    """A spec domain's fixpoint, visiting vertices exactly as `ai.fixpoint` does.

    Over the successor table `adj` (default: the full table of `g`), whose
    vertices it covers.  Entry starts at the seed, every other vertex at
    None; the table's order with FIFO re-queuing, successors in edge order,
    the join applied as join(old, moved).  The exists transfers are not
    monotone, so the order is part of the specification.
    """
    if adj is None:
        adj = full_table(g, space.blocks)
    state = dict.fromkeys(adj.succ)
    state[g.entry] = domain.seed(space, init)
    work = deque(adj.order)
    queued = set(adj.order)
    while work:
        v = work.popleft()
        queued.discard(v)
        src = state[v]
        if src is None:
            continue
        for dst, i in adj.succ[v]:
            moved = src if i < 0 else domain.update(src, i, space.k)
            old = state[dst]
            if old is not None:
                if moved == old:
                    continue
                moved = domain.join(old, moved)
                if moved == old:
                    continue
            state[dst] = moved
            if dst not in queued:
                queued.add(dst)
                work.append(dst)
    return state


# --- abstract-domain meanings --------------------------------------------------


def gamma_must(space, bounds):
    """Valid states where every block's age is at most its bound."""
    return [
        q for q in all_states(space) if all(a <= b for a, b in zip(q, bounds))
    ]


def gamma_may(space, bounds):
    """Valid states where every block's age is at least its bound."""
    return [
        q for q in all_states(space) if all(a >= b for a, b in zip(q, bounds))
    ]


def eh_holds(states, bounds):
    """Exists-hit meaning: per block, some state keeps its age within the bound."""
    return all(
        min(q[i] for q in states) <= bounds[i] for i in range(len(bounds))
    )


def em_holds(states, bounds):
    """Exists-miss meaning: per block, some state pushes its age to the bound."""
    return all(
        max(q[i] for q in states) >= bounds[i] for i in range(len(bounds))
    )


def nonempty_subsets(states):
    for r in range(1, len(states) + 1):
        for combo in itertools.combinations(states, r):
            yield combo


def all_bounds(n_blocks, k):
    return itertools.product(range(k + 1), repeat=n_blocks)


# --- deterministic test corpus -------------------------------------------------


def corpus_specs(count, base_seed=0):
    """Deterministic varied generator specs, small enough for the oracle."""
    from lrucheck.bench import GenSpec

    specs = []
    for i in range(count):
        seed = base_seed + i
        loops = (1, 0, 2, 1)[i % 4]
        specs.append(
            GenSpec(
                vertices=4 + (i * 3) % 7 if loops == 0 else max(4 + (i * 3) % 7, 1 + 3 * loops),
                loops=loops,
                depth=1 + i % 2,
                branch_p=(0.2, 0.5, 0.35)[i % 3],
                blocks=1 + i % 5,
                access_p=(0.5, 0.8, 0.65, 0.9)[i % 4],
                seed=seed,
            )
        )
    return specs


def corpus_programs(count, base_seed=0, sets=1, block=8):
    """(name, config, cfg) triples cycling k over {1, 2, 4} and sets over {1, 2}."""
    from lrucheck.bench import generate

    out = []
    for i, spec in enumerate(corpus_specs(count, base_seed)):
        k = (1, 2, 4)[i % 3]
        n_sets = (1, 2)[i % 2] if sets is None else sets
        config = CacheConfig(associativity=k, num_sets=n_sets, block_size=block)
        g = generate(spec, config, name=f"gen{spec.seed}")
        out.append((g.name, config, g))
    return out


#: (k, blocks, initial cache) of the `search_corpus` shapes: more blocks than
#: ways, so the abstract phase leaves many blocks to the focused search.
SEARCH_SHAPES = (
    (2, 6, InitMode.UNKNOWN),
    (4, 8, InitMode.UNKNOWN),
    (8, 12, InitMode.EMPTY),
    (2, 8, InitMode.EMPTY),
    (4, 10, InitMode.EMPTY),
)


def search_corpus(seeds=40):
    """(name, config, init, cfg) per shape of `SEARCH_SHAPES` and seed, one cache set.

    20 to 59 vertices, 2 to 6 loops nested up to depth 3, small enough for
    the oracle at both initial caches.
    """
    from lrucheck.bench import GenSpec, generate

    out = []
    for k, blocks, init in SEARCH_SHAPES:
        config = CacheConfig(associativity=k, num_sets=1, block_size=8)
        for seed in range(seeds):
            spec = GenSpec(vertices=20 + seed, loops=2 + seed % 5, depth=3, blocks=blocks, seed=seed)
            name = f"k{k}b{blocks}-{init.value}-{seed}"
            out.append((name, config, init, generate(spec, config, name=name)))
    return out


def search_cases():
    """Corpus programs of both set counts plus four 120-vertex loop programs."""
    from lrucheck.bench import GenSpec, generate

    programs = corpus_programs(30, base_seed=300, sets=None)
    config = CacheConfig(associativity=4, num_sets=2, block_size=8)
    for seed in range(4):
        spec = GenSpec(vertices=120, loops=12, depth=3, blocks=10, seed=seed)
        programs.append((f"loops{seed}", config, generate(spec, config)))
    return programs


# --- focused states: the frozenset reference, and masks against it -------------


class _Epsilon:
    """The focused state meaning "the focused block is not cached"."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EPSILON"


#: A focused state is EPSILON or the frozenset of blocks younger than the focus.
EPSILON = _Epsilon()


def alpha_focus(space, q, focus):
    """Project an age vector onto the focused view for `focus`."""
    age = age_of(space, q, focus)
    if age >= space.k:
        return EPSILON
    return frozenset(b for b in space.blocks if age_of(space, q, b) < age)


def update_focus(s, block, focus, k):
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


def decode_mask(mask, blocks):
    """The reference state a search mask stands for; bit i is blocks[i]."""
    if mask == EPSILON_MASK:
        return EPSILON
    return frozenset(b for i, b in enumerate(blocks) if mask >> i & 1)


def encode_state(state, blocks):
    """The search mask of a reference state."""
    if state is EPSILON:
        return EPSILON_MASK
    return sum(1 << blocks.index(b) for b in state)


def decoded_states(reach):
    """A search's reachable masks per vertex, as sets of reference states."""
    blocks = reach.model.blocks
    return {v: frozenset(decode_mask(m, blocks) for m in ms) for v, ms in reach.states.items()}


def reference_seeds(universe, k, unknown):
    """Reference seed states in search order: sorted block-index tuples, EPSILON last."""
    states = []
    if unknown:
        for size in range(min(k - 1, len(universe)) + 1):
            states.extend(frozenset(c) for c in itertools.combinations(universe, size))
        states.sort(key=lambda s: tuple(sorted(b.index for b in s)))
    return states + [EPSILON]


def all_seed_masks(model, init):
    """Every younger-set seed of `model`'s search, as masks in reference order.

    The search itself starts from two seeds (`focused.initial_focused`); these
    are the initial states the two stand for, which `export-smv`'s INIT admits.
    """
    unknown = init is InitMode.UNKNOWN
    return [encode_state(s, model.blocks) for s in reference_seeds(model.universe, model.k, unknown)]


def reference_simplified_edges(pg, focus, may, k, space):
    """The may-based relabeling over the projection's edges, stated on its own.

    An access to a block other than the focus becomes a no-access edge when
    its source is unreachable or proves the focus uncached; no-access
    self-loops are dropped.  `may` is an unpacked may fixpoint.
    """
    fi = space.blocks.index(focus)
    out = []
    for e in pg.edges:
        block = e.block
        if block is not None and block != focus and (may[e.src] is None or may[e.src][fi] >= k):
            block = None
        if block is None and e.src == e.dst:
            continue
        out.append(Edge(e.src, block, e.dst))
    return out


def reference_reach(vertices, entry, edges, focus, k, seeds, goals=None):
    """Breadth-first search over (vertex, frozenset state) pairs.

    Seeds are discovered in the given order, the work list is FIFO and
    successors follow edge order.  With goals, (src, exists_hit, exists_miss)
    triples, the search stops once each pending check has met its refuting
    state: epsilon for always-hit, a cached state for always-miss.  Returns
    (states per vertex, explored, partial).
    """
    succ = {v: [] for v in vertices}
    for e in edges:
        succ[e.src].append(e)
    pending = None
    if goals is not None:
        pending = set()
        for src, ex_hit, ex_miss in goals:
            if not ex_miss:
                pending.add((src, True))
            if not ex_hit:
                pending.add((src, False))
    reach = {v: set() for v in vertices}
    work = deque()
    explored = 0

    def discover(v, s):
        nonlocal explored
        if s in reach[v]:
            return False
        reach[v].add(s)
        explored += 1
        work.append((v, s))
        if pending is None:
            return False
        pending.discard((v, s is EPSILON))
        return not pending

    stopped = any(discover(entry, s) for s in seeds)
    while work and not stopped:
        v, s = work.popleft()
        for e in succ[v]:
            t = s if e.block is None else update_focus(s, e.block, focus, k)
            if discover(e.dst, t):
                stopped = True
                break
    return {v: frozenset(ss) for v, ss in reach.items()}, explored, stopped
