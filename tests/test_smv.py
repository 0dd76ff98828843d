"""SMV export: deterministic text, and models that mean what the search computes."""

from __future__ import annotations

from collections import defaultdict

import pytest

from helpers import (
    EPSILON,
    build_cfg,
    corpus_programs,
    decoded_states,
    full_table,
    reference_reach,
    reference_seeds,
    small_config,
    solve,
)
from smv_eval import all_assignments, analyze, eval_expr, parse_module
from test_ai import exists_miss_only_cfg
from lrucheck.ai import MAY
from lrucheck.cfg import Cfg, MemoryBlock, accesses_of, block_universe, project
from lrucheck.concrete import InitMode, StateSpace
from lrucheck.focused import (
    export_smv,
    focused_reach,
    initial_focused,
    simplify_for,
    smv_filename,
    unsimplified_model,
)


def build_model(g, config, focus_index, simplified, init):
    """Set 0's projection, state space and focus, and the edges `export-smv` renders.

    Those are the edges `simplify_for` prunes if `simplified`, else the
    projection's own.
    """
    pg = project(g, 0, config)
    space = StateSpace(k=config.associativity, blocks=block_universe(pg))
    focus = space.blocks[focus_index]
    if simplified:
        edges = simplify_for(pg, focus, solve(MAY, pg, space, init), space)
    else:
        edges = list(pg.edges)
    return pg, space, focus, edges


def export(g, config, focus_index, simplified, init, targets=None):
    """The SMV text of `build_model`; targets default to the projection's accesses."""
    pg, space, focus, edges = build_model(g, config, focus_index, simplified, init)
    if targets is None:
        targets = accesses_of(pg)
    return export_smv(pg, edges, focus, space, init, targets)


def assert_model_matches_search(g, config, focus_index, simplified, init):
    pg, space, focus, edges = build_model(g, config, focus_index, simplified, init)
    k = config.associativity
    graph = Cfg(pg.entry, pg.vertices, tuple(edges), pg.name)
    model = unsimplified_model(graph, focus, space, full_table(graph, space.blocks))
    # The SMV INIT admits every initial state, so the model is compared with
    # the all-seed reference search, and that with the two-seed search.
    seeds = reference_seeds(model.universe, k, init is InitMode.UNKNOWN)
    states_at, _, _ = reference_reach(graph.vertices, graph.entry, edges, focus, k, seeds)
    reach = decoded_states(focused_reach(model, initial_focused(init)))
    for v in graph.vertices:
        assert (EPSILON in reach[v]) == (EPSILON in states_at[v]), (v, simplified, init)
        assert any(s is not EPSILON for s in reach[v]) == any(
            s is not EPSILON for s in states_at[v]
        ), (v, simplified, init)
    targets = [a for a in accesses_of(pg) if a.block == focus]
    text = export_smv(pg, edges, focus, space, init, targets)
    module, reached, truths = analyze(text)

    assert len(module.locations) == len(graph.vertices)
    vertex_of = dict(zip(module.locations, graph.vertices))
    bits = [n for n in module.booleans if n != "cached"]

    smv_by_vertex: dict = defaultdict(set)
    for env in reached:
        key = (env["cached"], frozenset(n for n in bits if env[n]))
        smv_by_vertex[vertex_of[env["loc"]]].add(key)
    for v in graph.vertices:
        encoded = set()
        for s in states_at[v]:
            if s is EPSILON:
                encoded.add((False, frozenset()))
            else:
                encoded.add((True, frozenset(f"y_{b.index}" for b in s)))
        assert smv_by_vertex.get(v, set()) == encoded, (v, simplified, init)

    assert len(truths) == 2 * len(targets)
    for i, a in enumerate(targets):
        states = states_at[a.src]
        always_hit = EPSILON not in states
        always_miss = not any(s is not EPSILON for s in states)
        assert truths[2 * i] == always_hit, a.label
        assert truths[2 * i + 1] == always_miss, a.label


def test_filename():
    assert smv_filename("prog", 3, MemoryBlock(7, 3)) == "prog.set3.block7.smv"


def test_export_deterministic(k2_config, loop2):
    pg, space, focus, edges = build_model(loop2, k2_config, 0, True, InitMode.EMPTY)
    targets = accesses_of(pg)
    once = export_smv(pg, edges, focus, space, InitMode.EMPTY, targets)
    again = export_smv(pg, edges, focus, space, InitMode.EMPTY, targets)
    assert once == again
    assert export(loop2, k2_config, 0, True, InitMode.EMPTY) == once


def test_export_golden_minimal(k2_config):
    g = build_cfg("a", ["a", "b"], [("a", "b", 0)], k2_config)
    text = export(g, k2_config, 0, False, InitMode.EMPTY)
    assert text == (
        "-- focused LRU cache model: block b0, cache set 0\n"
        "-- graph 'cfg'; associativity 2; initial cache empty\n"
        "MODULE main\n"
        "VAR\n"
        "  loc : {L0_a, L1_b};\n"
        "  cached : boolean;\n"
        "INIT\n"
        "  loc = L0_a & !cached\n"
        "TRANS\n"
        "  (loc = L0_a & next(loc) = L1_b & next(cached))\n"
        "| (loc = L1_b & next(loc) = L1_b & next(cached) = cached)\n"
        "-- access a->b:b0#0: always-hit check\n"
        "INVARSPEC (loc = L0_a) -> cached;\n"
        "-- access a->b:b0#0: always-miss check\n"
        "INVARSPEC (loc = L0_a) -> !cached;\n"
    )


def test_location_names_sanitized(k2_config):
    g = build_cfg("entry.0", ["entry.0", "x-y"], [("entry.0", "x-y", 0)], k2_config)
    module = parse_module(export(g, k2_config, 0, False, InitMode.EMPTY, []))
    assert module.locations == ["L0_entry_0", "L1_x_y"]


@pytest.mark.parametrize("init", list(InitMode))
@pytest.mark.parametrize("simplified", [False, True])
def test_loop_model_matches_search(k2_config, loop2, simplified, init):
    for focus_index in (0, 1):
        assert_model_matches_search(loop2, k2_config, focus_index, simplified, init)


@pytest.mark.parametrize("init", list(InitMode))
@pytest.mark.parametrize("simplified", [False, True])
def test_straightline_model_matches_search(k2_config, straight2, simplified, init):
    assert_model_matches_search(straight2, k2_config, 0, simplified, init)


@pytest.mark.parametrize("simplified", [False, True])
def test_join_noise_model_matches_search(k2_config, simplified):
    g = exists_miss_only_cfg(k2_config)
    assert_model_matches_search(g, k2_config, 0, simplified, InitMode.EMPTY)


def test_corpus_models_match_search():
    for i, (name, config, g) in enumerate(corpus_programs(6, base_seed=700)):
        init = InitMode.EMPTY if i % 2 == 0 else InitMode.UNKNOWN
        pg = project(g, 0, config)
        if not block_universe(pg):
            continue
        for simplified in (False, True):
            assert_model_matches_search(g, config, 0, simplified, init)


def test_unknown_init_predicate_matches_initial_states(k2_config):
    g = build_cfg(
        "a", ["a", "b", "c", "d"],
        [("a", "b", 0), ("b", "c", 8), ("c", "d", 16)],
        k2_config,
    )
    _, space, focus, _ = build_model(g, k2_config, 0, False, InitMode.UNKNOWN)
    universe = tuple(b for b in space.blocks if b != focus)
    module = parse_module(export(g, k2_config, 0, False, InitMode.UNKNOWN, []))
    bits = [n for n in module.booleans if n != "cached"]
    satisfying = {
        (env["loc"], env["cached"], frozenset(n for n in bits if env[n]))
        for env in all_assignments(module)
        if eval_expr(module.init, env, None)
    }
    entry_sym = module.locations[0]
    expected = set()
    for s in reference_seeds(universe, 2, True):
        if s is EPSILON:
            expected.add((entry_sym, False, frozenset()))
        else:
            expected.add((entry_sym, True, frozenset(f"y_{b.index}" for b in s)))
    assert satisfying == expected
