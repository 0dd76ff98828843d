"""Focused per-block cache model: abstraction, search, and access checks."""

from __future__ import annotations

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    EPSILON,
    analyze_set,
    all_seed_masks,
    all_states,
    alpha_focus,
    blocks_for,
    build_cfg,
    corpus_programs,
    decode_mask,
    decoded_states,
    empty_state,
    encode_state,
    full_table,
    pruned_model,
    raw_model,
    reference_reach,
    reference_seeds,
    reference_simplified_edges,
    search_cases,
    small_config,
    solve,
    space_for,
    unpack_fixpoint,
    update,
    update_focus,
)
from test_ai import random_programs
from lrucheck.ai import MAY
from lrucheck.bench import GenSpec, generate
from lrucheck.cfg import (
    AccessId,
    CacheConfig,
    MemoryBlock,
    accesses_of,
    block_universe,
    project,
)
from lrucheck.classify import Mode, _model_check
from lrucheck.concrete import InitMode, StateSpace
from lrucheck.focused import (
    EPSILON_MASK,
    FocusedCapacityError,
    FocusedReach,
    check_access,
    focused_reach,
    initial_focused,
    simplify_for,
    unsimplified_model,
)
from lrucheck.verdict import FinalVerdict, Provenance, Verdict


def test_alpha_examples():
    space = space_for(3, k=2)
    b0, b1, b2 = space.blocks
    q = (0, 1, 2)
    assert alpha_focus(space, q, b2) is EPSILON
    assert alpha_focus(space, q, b0) == frozenset()
    assert alpha_focus(space, q, b1) == frozenset({b0})
    assert alpha_focus(space, (1, 0, 2), b0) == frozenset({b1})


def test_update_focus_cases():
    b0, b1, b2 = blocks_for(3)
    # accessing the focus always lands on the empty younger set
    assert update_focus(EPSILON, b0, b0, k=2) == frozenset()
    assert update_focus(frozenset({b1}), b0, b0, k=2) == frozenset()
    # epsilon absorbs every other access
    assert update_focus(EPSILON, b1, b0, k=2) is EPSILON
    # growth below capacity
    assert update_focus(frozenset(), b1, b0, k=3) == frozenset({b1})
    # re-accessing a younger block does not age the focus
    assert update_focus(frozenset({b1}), b1, b0, k=2) == frozenset({b1})
    # reaching k distinct younger blocks evicts
    assert update_focus(frozenset({b1}), b2, b0, k=2) is EPSILON
    assert update_focus(frozenset(), b1, b0, k=1) is EPSILON


def test_focus_abstraction_commutes_exhaustive():
    # alpha(update(q, b)) == update_focus(alpha(q), b) over all valid states
    for n in range(1, 4):
        for k in range(1, 3):
            space = space_for(n, k)
            for q in all_states(space):
                for focus in space.blocks:
                    fs = alpha_focus(space, q, focus)
                    for b in space.blocks:
                        lhs = alpha_focus(space, update(space, q, b), focus)
                        rhs = update_focus(fs, b, focus, k)
                        assert lhs == rhs, (n, k, q, focus, b)


def test_initial_focused_matches_alpha_image():
    # The all-seed reference is the alpha image of the initial states, and
    # the two seeds are its least and greatest elements: the empty younger
    # set and epsilon.
    for n in range(1, 4):
        for k in range(1, 3):
            space = space_for(n, k)
            for focus in space.blocks:
                for init in InitMode:
                    image = {
                        alpha_focus(space, q, focus)
                        for q in (
                            [empty_state(space)]
                            if init is InitMode.EMPTY
                            else all_states(space)
                        )
                    }
                    universe = tuple(b for b in space.blocks if b != focus)
                    ref = reference_seeds(universe, k, init is InitMode.UNKNOWN)
                    assert len(ref) == len(image)
                    assert frozenset(ref) == frozenset(image), (n, k, focus, init)
                    got = [decode_mask(m, space.blocks) for m in initial_focused(init)]
                    if init is InitMode.EMPTY:
                        assert got == [EPSILON]
                    else:
                        assert got == [frozenset(), EPSILON]
                        assert all(s is EPSILON or s >= got[0] for s in image)


def test_mask_transfer_matches_update_focus():
    # One access edge a -> b per block; every other block is accessed on an
    # unreachable self-loop so that it belongs to the universe.
    for n in range(1, 6):
        blocks = blocks_for(n)
        for k in range(1, 5):
            config = small_config(k=k)
            for focus in blocks:
                others = [b for b in blocks if b != focus]
                states = [EPSILON] + [
                    frozenset(c)
                    for size in range(min(k - 1, len(others)) + 1)
                    for c in itertools.combinations(others, size)
                ]
                for block in blocks:
                    edges = [("a", "b", 8 * block.index)]
                    edges += [("z", "z", 8 * b.index) for b in blocks if b != block]
                    pg = project(build_cfg("a", ["a", "b", "z"], edges, config), 0, config)
                    model = raw_model(pg, focus, k)
                    for state in states:
                        reach = focused_reach(model, [encode_state(state, model.blocks)])
                        want = update_focus(state, block, focus, k)
                        assert reach.states["b"] == {encode_state(want, model.blocks)}, (
                            n, k, focus, block, state,
                        )


def test_seeds_match_reference_order():
    # The two seeds are the first and the last of the reference order.
    for n in range(0, 7):
        blocks = blocks_for(n + 1)
        universe = blocks[1:]
        for k in range(1, 5):
            for init in InitMode:
                seeds = initial_focused(init)
                got = [decode_mask(m, blocks) for m in seeds]
                ref = reference_seeds(universe, k, init is InitMode.UNKNOWN)
                assert got == ([ref[0], ref[-1]] if init is InitMode.UNKNOWN else ref), (n, k)
                assert len(seeds) == len(got)


def test_seeds_are_counted_without_enumeration():
    # Two seeds whatever the universe: a 200-block unknown 8-way set, whose
    # reference seeds number Σ_{c<8} C(199, c), is searched at once.
    config = small_config(k=8)
    n = 200
    g = build_cfg(
        "v0", [f"v{i}" for i in range(n + 1)],
        [(f"v{i}", f"v{i + 1}", 8 * i) for i in range(n)], config,
    )
    pg = project(g, 0, config)
    t0 = time.perf_counter()
    seeds = initial_focused(InitMode.UNKNOWN)
    assert len(seeds) == 2
    reach = focused_reach(raw_model(pg, block_universe(pg)[-1], 8), seeds)
    assert reach.explored <= 2 * len(pg.vertices)
    assert time.perf_counter() - t0 < 1.0


def set_model(analysis, focus, pruned, table):
    """The focus's model over `table`, may-pruned by `simplify_for` when `pruned`."""
    if pruned:
        return simplify_for(analysis.graph, focus, analysis.may, analysis.space, table)
    return unsimplified_model(analysis.graph, focus, analysis.space, table)


@pytest.mark.parametrize("init", list(InitMode))
def test_mask_search_matches_reference_search(init):
    for name, config, g in search_cases():
        k = config.associativity
        for s in range(config.num_sets):
            pg = project(g, s, config)
            analysis = analyze_set(pg, k, init, Mode.AI_MC)
            if not analysis.accesses:
                continue
            space = analysis.space
            full = full_table(pg, space.blocks)
            residual = analysis.residual_by_block()
            for simplified in (False, True):
                for focus in space.blocks:
                    model = set_model(analysis, focus, simplified, full)
                    if simplified:
                        may = unpack_fixpoint(MAY, analysis.may, space)
                        edges = reference_simplified_edges(pg, focus, may, k, space)
                    else:
                        edges = list(pg.edges)
                    assert model.edges() == edges, (name, s, focus)
                    goal_sets = [None]
                    if focus in residual:
                        goal_sets.append(
                            [(c.access.src, c.exists_hit, c.exists_miss) for c in residual[focus]]
                        )
                    # The production seeds, and every younger-set seed.
                    for seeds in (initial_focused(init), all_seed_masks(model, init)):
                        ref_seeds = [decode_mask(m, model.blocks) for m in seeds]
                        for goals in goal_sets:
                            reach = focused_reach(model, seeds, goals)
                            states, explored, partial = reference_reach(
                                pg.vertices, pg.entry, edges, focus, k, ref_seeds, goals
                            )
                            case = (name, s, focus, simplified, goals is not None, len(seeds))
                            assert (reach.explored, reach.partial) == (explored, partial), case
                            assert decoded_states(reach) == states, case


def skeleton_cases():
    """Corpus programs of 1 and 2 sets, generated ones of 4 and 8, and 120-vertex loops."""
    programs = corpus_programs(24, base_seed=700, sets=None)
    for sets in (4, 8):
        for seed in range(4):
            config = CacheConfig(associativity=(2, 4)[seed % 2], num_sets=sets, block_size=8)
            spec = GenSpec(vertices=60, loops=6, depth=2, blocks=3 * sets, seed=seed)
            programs.append((f"sets{sets}.{seed}", config, generate(spec, config)))
    config = CacheConfig(associativity=4, num_sets=2, block_size=8)
    for seed in range(4):
        spec = GenSpec(vertices=120, loops=12, depth=3, blocks=10, seed=seed)
        programs.append((f"loops{seed}", config, generate(spec, config)))
    return programs


def goal_cases(analysis):
    """Per block of an ai+mc set analysis, the goal checks to search it with.

    None (no goals); the ai+mc checks, the block's residual accesses with
    their known halves, unless there are none; and last the mc-only checks,
    every access to the block with nothing known.
    """
    residual = analysis.residual_by_block()
    for focus in analysis.space.blocks:
        checks = [(a, False, False) for a in analysis.accesses if a.block == focus]
        checks_ai = [(c.access, c.exists_hit, c.exists_miss) for c in residual.get(focus, [])]
        yield focus, [None] + [gs for gs in (checks_ai, checks) if gs]


def refutations(reach, goals):
    """The goals' refuting (source, state kind) pairs that a search has met.

    Epsilon refutes an always-hit check (pending unless a miss is known), a
    cached state an always-miss check (pending unless a hit is known).
    """
    met = set()
    for src, ex_hit, ex_miss in goals:
        states = reach.states[src]
        if not ex_miss and EPSILON_MASK in states:
            met.add((src, "epsilon"))
        if not ex_hit and any(m != EPSILON_MASK for m in states):
            met.add((src, "cached"))
    return met


@pytest.mark.parametrize("init", list(InitMode))
def test_skeleton_search_matches_raw_search(init):
    for name, config, g in skeleton_cases():
        k = config.associativity
        for s in range(config.num_sets):
            pg = project(g, s, config)
            analysis = analyze_set(pg, k, init, Mode.AI_MC)
            if not analysis.accesses:
                continue
            space = analysis.space
            full = full_table(pg, space.blocks)
            table = analysis.adj
            kept = full.accessing | {pg.entry}
            assert table.succ.keys() == kept
            for focus, goal_sets in goal_cases(analysis):
                raw_model = unsimplified_model(pg, focus, space, full)
                skel_model = unsimplified_model(pg, focus, space, table)
                seeds = initial_focused(init)
                for goal_checks in goal_sets:
                    goals = None
                    if goal_checks is not None:
                        goals = [(a.src, eh, em) for a, eh, em in goal_checks]
                    raw = focused_reach(raw_model, seeds, goals)
                    got = focused_reach(skel_model, seeds, goals)
                    case = (name, s, focus, init, goals)
                    assert got.partial == raw.partial, case
                    if raw.partial:
                        assert refutations(got, goals) == refutations(raw, goals), case
                    else:
                        assert got.states == {v: raw.states[v] for v in kept}, case
                        assert got.explored <= raw.explored, case
                    checks = goal_checks or goal_sets[-1]
                    for a, eh, em in checks:
                        if raw.partial or not (eh and em):
                            assert check_access(got, a, eh, em) == check_access(
                                raw, a, eh, em
                            ), case


@pytest.mark.parametrize("init", list(InitMode))
def test_pruned_search_matches_plain_search(init):
    """May-based pruning changes no search, which is why the classification skips it.

    On the full table and on the skeleton, with no goals, ai+mc goals and
    mc-only goals, a search of the `simplify_for` model finds the same states
    at every vertex as one of the `unsimplified_model` model, after exploring
    as many pairs, and stops at the same point.
    """
    for name, config, g in search_cases() + skeleton_cases():
        k = config.associativity
        for s in range(config.num_sets):
            pg = project(g, s, config)
            analysis = analyze_set(pg, k, init, Mode.AI_MC)
            if not analysis.accesses:
                continue
            tables = {"full": full_table(pg, analysis.space.blocks), "skeleton": analysis.adj}
            for focus, goal_sets in goal_cases(analysis):
                for table_name, table in tables.items():
                    plain = set_model(analysis, focus, False, table)
                    pruned = set_model(analysis, focus, True, table)
                    seeds = initial_focused(init)
                    for goal_checks in goal_sets:
                        goals = None
                        if goal_checks is not None:
                            goals = [(a.src, eh, em) for a, eh, em in goal_checks]
                        want = focused_reach(plain, seeds, goals)
                        got = focused_reach(pruned, seeds, goals)
                        case = (name, s, focus, table_name, goals)
                        assert got.states == want.states, case
                        assert (got.explored, got.partial) == (want.explored, want.partial), case


def seed_facts(reach):
    """Per vertex: reachable, epsilon present, and a cached state present."""
    return {
        v: (bool(ms), EPSILON_MASK in ms, any(m != EPSILON_MASK for m in ms))
        for v, ms in reach.states.items()
    }


def assert_two_seeds_match_all_seeds(pg, k, init, case):
    """The two-seed search against the all-seed reference, on every model of a set.

    Per block, on the full table and on the skeleton, plain and may-pruned:
    complete searches agree on reachability, epsilon-presence and
    cached-presence at every vertex, and goal-directed searches (the ai+mc
    residual checks and the mc-only checks) give every checked access the
    same verdict and flags.
    """
    analysis = analyze_set(pg, k, init, Mode.AI_MC)
    if not analysis.accesses:
        return
    tables = {"full": full_table(pg, analysis.space.blocks), "skeleton": analysis.adj}
    seeds = initial_focused(init)
    for focus, goal_sets in goal_cases(analysis):
        for (table_name, table), pruned in itertools.product(tables.items(), (False, True)):
            model = set_model(analysis, focus, pruned, table)
            every = all_seed_masks(model, init)
            where = (*case, k, init.value, focus.index, table_name, pruned)
            want = focused_reach(model, every)
            assert seed_facts(focused_reach(model, seeds)) == seed_facts(want), where
            for checks in goal_sets[1:]:
                goals = [(a.src, eh, em) for a, eh, em in checks]
                two = focused_reach(model, seeds, goals)
                ref = focused_reach(model, every, goals)
                for a, eh, em in checks:
                    fv = FinalVerdict(a, None, Provenance.UNRESOLVED, eh, em)
                    assert _model_check(two, fv) == _model_check(ref, fv), (*where, a.label)


@pytest.mark.parametrize("init", list(InitMode))
def test_two_seed_search_matches_all_seed_search(init):
    # Each program at its own associativity and at k = 8; the last four put
    # 10 blocks in one set, so the reference starts from up to 502 seeds.
    cases = search_cases() + corpus_programs(8, base_seed=900, sets=4)
    config = CacheConfig(associativity=4, num_sets=1, block_size=8)
    for seed in range(4):
        spec = GenSpec(vertices=60, loops=6, depth=2, blocks=10, seed=seed)
        cases.append((f"wide{seed}", config, generate(spec, config)))
    for name, config, g in cases:
        for k in sorted({config.associativity, 8}):
            geometry = CacheConfig(k, config.num_sets, config.block_size)
            for s in range(config.num_sets):
                assert_two_seeds_match_all_seeds(project(g, s, geometry), k, init, (name, s))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(random_programs(), st.sampled_from(list(InitMode)))
def test_two_seed_search_matches_all_seed_search_on_random_graphs(program, init):
    g, config = program
    pg = project(g, 0, config)
    assert_two_seeds_match_all_seeds(pg, config.associativity, init, ("random",))


def test_initial_focused_unknown_count():
    blocks = blocks_for(3)
    got = initial_focused(InitMode.UNKNOWN)
    # the empty younger set, then epsilon; the reference has each single
    # other block between them
    assert len(got) == 2
    assert list(got) == [0, EPSILON_MASK]
    assert [decode_mask(m, blocks) for m in got] == [frozenset(), EPSILON]
    assert reference_seeds(blocks[1:], 2, True) == [
        frozenset(), frozenset({blocks[1]}), frozenset({blocks[2]}), EPSILON,
    ]


def straight_model(k2_config, straight2, simplified):
    pg = project(straight2, 0, k2_config)
    focus = block_universe(pg)[0]
    if not simplified:
        return pg, raw_model(pg, focus, 2)
    space = StateSpace(k=2, blocks=block_universe(pg))
    may = solve(MAY, pg, space)
    return pg, pruned_model(pg, focus, may, space)


@pytest.mark.parametrize("simplified", [False, True])
def test_straightline_reach_golden(k2_config, straight2, simplified):
    pg, model = straight_model(k2_config, straight2, simplified)
    b = {blk.index: blk for blk in block_universe(pg)}
    reach = focused_reach(model, initial_focused(InitMode.EMPTY))
    assert not reach.partial
    states = decoded_states(reach)
    expected = {
        "v0": {EPSILON},
        "v1": {EPSILON},
        "v2": {EPSILON},
        "v3": {frozenset()},
        "v4": {frozenset({b[1]})},
        "v5": {EPSILON},
    }
    for v, want in expected.items():
        assert states[v] == frozenset(want), v
    assert reach.explored == 6


def test_straightline_simplification_shape(k2_config, straight2):
    pg, model = straight_model(k2_config, straight2, simplified=True)
    b = {blk.index: blk for blk in block_universe(pg)}
    # the first two accesses happen while the focus is provably uncached
    relabeled = [
        (e.src, e.dst) for e, raw in zip(model.edges(), pg.edges)
        if e.block is None and raw.block is not None
    ]
    assert relabeled == [("v0", "v1"), ("v1", "v2")]
    assert model.universe == (b[1], b[2], b[3], b[4])


def test_simplify_drops_new_noaccess_selfloops(k2_config):
    g = build_cfg(
        "e", ["e", "x", "u"],
        [("e", "x", 0), ("e", "u", 8), ("u", "u", 16)],
        k2_config,
    )
    pg = project(g, 0, k2_config)
    space = StateSpace(k=2, blocks=block_universe(pg))
    may = solve(MAY, pg, space)
    focus = space.blocks[0]
    model = pruned_model(pg, focus, may, space)
    pairs = [(e.src, e.dst, e.block) for e in model.edges()]
    assert pairs == [("e", "x", focus), ("e", "u", None)]


def test_simplify_handles_unreachable_vertices(k2_config):
    g = build_cfg(
        "a", ["a", "b", "dead"],
        [("a", "b", 0), ("dead", "b", 8)],
        k2_config,
    )
    pg = project(g, 0, k2_config)
    space = StateSpace(k=2, blocks=block_universe(pg))
    may = solve(MAY, pg, space)
    model = pruned_model(pg, space.blocks[0], may, space)
    assert model.universe == (space.blocks[1],)
    dead_edge = [e for e in model.edges() if e.src == "dead"][0]
    assert dead_edge.block is None


def loop_model(k2_config, loop2):
    pg = project(loop2, 0, k2_config)
    focus = block_universe(pg)[0]
    return pg, raw_model(pg, focus, 2)


def test_loop_reach_mixes_hit_and_miss(k2_config, loop2):
    pg, model = loop_model(k2_config, loop2)
    reach = focused_reach(model, initial_focused(InitMode.EMPTY))
    w = model.universe[0]
    states = decoded_states(reach)
    assert states["b"] == frozenset({EPSILON, frozenset({w})})
    assert states["c"] == frozenset({frozenset()})
    assert sum(len(s) for s in reach.states.values()) == reach.explored


def test_focused_budget_error(k2_config, loop2):
    pg, model = loop_model(k2_config, loop2)
    init = initial_focused(InitMode.EMPTY)
    with pytest.raises(FocusedCapacityError, match="more than 2"):
        focused_reach(model, init, budget=2)


def test_early_exit_stops_when_goals_refuted(k2_config, loop2):
    pg, model = loop_model(k2_config, loop2)
    init = initial_focused(InitMode.EMPTY)
    full = focused_reach(model, init)
    reach = focused_reach(model, init, goals=[("b", False, False)])
    assert reach.partial
    assert reach.explored <= full.explored
    # both behaviors were witnessed at b before stopping
    assert EPSILON_MASK in reach.states["b"]
    assert any(s != EPSILON_MASK for s in reach.states["b"])


def test_early_exit_never_fires_when_goal_holds(k2_config):
    g = build_cfg("a", ["a", "b", "c"], [("a", "b", 0), ("b", "c", 0)], k2_config)
    pg = project(g, 0, k2_config)
    focus = block_universe(pg)[0]
    model = raw_model(pg, focus, 2)
    init = initial_focused(InitMode.EMPTY)
    # the second access always hits: no epsilon ever shows up at b
    reach = focused_reach(model, init, goals=[("b", True, False)])
    assert not reach.partial
    verdict = check_access(reach, accesses_of(pg)[1], exists_hit=True)
    assert verdict is Verdict.ALWAYS_HIT


def tiny_reach(k2_config, src_states, partial=False):
    g = build_cfg("s", ["s", "t"], [("s", "t", 0)], k2_config)
    pg = project(g, 0, k2_config)
    model = raw_model(pg, block_universe(pg)[0], 2)
    blocks = (*model.blocks, MemoryBlock(1, 0))
    return FocusedReach(
        states={"s": {encode_state(s, blocks) for s in src_states}, "t": set()},
        explored=len(src_states),
        partial=partial,
        model=model,
    )


def test_check_access_dispatch_table(k2_config):
    b1 = MemoryBlock(1, 0)
    access = AccessId("s", "t", MemoryBlock(0, 0), 0)
    eps_only = [EPSILON]
    cached_only = [frozenset({b1})]
    both = [EPSILON, frozenset()]

    def run(states, partial=False, **flags):
        return check_access(tiny_reach(k2_config, states, partial), access, **flags)

    assert run(cached_only, exists_hit=True) is Verdict.ALWAYS_HIT
    assert run(both, exists_hit=True) is Verdict.DEFINITELY_UNKNOWN
    assert run(eps_only, exists_miss=True) is Verdict.ALWAYS_MISS
    assert run(both, exists_miss=True) is Verdict.DEFINITELY_UNKNOWN
    assert run(cached_only) is Verdict.ALWAYS_HIT
    assert run(eps_only) is Verdict.ALWAYS_MISS
    assert run(both) is Verdict.DEFINITELY_UNKNOWN
    # refutations stay valid on partial searches
    assert run(both, partial=True, exists_hit=True) is Verdict.DEFINITELY_UNKNOWN
    assert run(both, partial=True) is Verdict.DEFINITELY_UNKNOWN


def test_check_access_rejects_redundant_and_partial_universal(k2_config):
    access = AccessId("s", "t", MemoryBlock(0, 0), 0)
    with pytest.raises(ValueError, match="redundant"):
        check_access(
            tiny_reach(k2_config, [EPSILON]), access, exists_hit=True, exists_miss=True
        )
    with pytest.raises(ValueError, match="universal conclusion"):
        check_access(tiny_reach(k2_config, [frozenset()], partial=True), access,
                     exists_hit=True)
    with pytest.raises(ValueError, match="universal conclusion"):
        check_access(tiny_reach(k2_config, [EPSILON], partial=True), access,
                     exists_miss=True)
    with pytest.raises(ValueError, match="universal conclusion"):
        check_access(tiny_reach(k2_config, [EPSILON], partial=True), access)


def goal_search(k2_config, edges, goals):
    """Search from an empty cache with block 0 (address 0) as the focus."""
    vertices = sorted({v for e in edges for v in e[:2]} | {"e"})
    pg = project(build_cfg("e", vertices, edges, k2_config), 0, k2_config)
    model = raw_model(pg, MemoryBlock(0, 0), 2)
    return focused_reach(model, initial_focused(InitMode.EMPTY), goals)


def test_refutation_goals_stop_the_search(k2_config):
    # Discovery order: (v, eps), (w, {}), (v, {}), then (x, {}) if not stopped.
    edges = [("e", "v", None), ("e", "w", 0), ("w", "v", None), ("w", "x", None)]
    reach = goal_search(k2_config, edges, [("v", False, False)])
    # always-hit refuted by (v, eps), a cached state at w is the wrong vertex,
    # and (v, {}) refutes always-miss too: the search stops there
    assert reach.partial
    assert reach.states["v"] == {EPSILON_MASK, 0}
    assert reach.states["x"] == set()

    # Discovery order: (v, {}), (u, eps), (v, eps), then (y, eps) if not stopped.
    edges = [("e", "v", 0), ("e", "u", None), ("u", "v", None), ("u", "y", None)]
    reach = goal_search(k2_config, edges, [("v", True, False)])
    # a cached state cannot refute a hit goal; (v, eps) does
    assert reach.partial
    assert reach.states["v"] == {0, EPSILON_MASK}
    assert reach.states["y"] == set()

    with pytest.raises(ValueError, match="definitely-unknown"):
        goal_search(k2_config, edges, [("v", True, True)])
