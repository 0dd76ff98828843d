"""Concrete LRU semantics and the enumerating oracle."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, strategies as st

from helpers import (
    blocks_for,
    build_cfg,
    loop_cfg,
    small_config,
    space_for,
    straightline_cfg,
)
from lrucheck.cfg import accesses_of, project
from lrucheck.concrete import (
    InitMode,
    OracleCapacityError,
    StateSpace,
    collecting_semantics,
    exact_classify,
    initial_states,
)
from lrucheck.verdict import Verdict


def ages(space, mapping):
    """Build a state tuple from {block_index: age}; unlisted blocks uncached."""
    return tuple(mapping.get(b.index, space.k) for b in space.blocks)


def test_update_loads_block_most_recently_used():
    space = space_for(3, k=2)
    b0, b1, b2 = space.blocks
    q = space.empty_state()
    q = space.update(q, b0)
    assert q == ages(space, {0: 0})
    q = space.update(q, b1)
    assert q == ages(space, {0: 1, 1: 0})
    # third distinct block evicts the oldest (capacity 2)
    q = space.update(q, b2)
    assert q == ages(space, {1: 1, 2: 0})


def test_update_reaccess_mru_is_identity():
    space = space_for(2, k=2)
    b0, b1 = space.blocks
    q = space.update(space.empty_state(), b0)
    assert space.update(q, b0) == q


def test_update_hit_rejuvenates_without_aging_older():
    space = space_for(3, k=4)
    b0, b1, b2 = space.blocks
    q = ages(space, {0: 0, 1: 1, 2: 2})
    q2 = space.update(q, b1)
    # b1 to the front; b0 (younger than b1) ages; b2 (older) keeps its age.
    assert q2 == ages(space, {0: 1, 1: 0, 2: 2})


def test_update_preserves_invariant_exhaustive():
    for n in range(1, 5):
        for k in range(1, 5):
            space = space_for(n, k)
            for q in space.all_states():
                assert space.is_valid(q)
                for b in space.blocks:
                    q2 = space.update(q, b)
                    assert space.is_valid(q2), (n, k, q, b, q2)


def test_update_truncation_case_unreachable_from_valid_states():
    # The transfer's final case (a block younger than the accessed one already
    # at age k) cannot fire on any valid state: age k is the maximum, so
    # nothing valid is simultaneously younger than another block and at k.
    for n in range(1, 5):
        for k in range(1, 4):
            space = space_for(n, k)
            for q in space.all_states():
                for b in space.blocks:
                    i = space.index_of(b)
                    assert not any(
                        age < q[i] and age >= k for j, age in enumerate(q) if j != i
                    )


def test_all_states_counts():
    # sum over c of n!/(n-c)! cached arrangements
    assert len(space_for(3, 2).all_states()) == 1 + 3 + 6
    assert len(space_for(5, 4).all_states()) == 1 + 5 + 20 + 60 + 120
    assert len(space_for(2, 4).all_states()) == 1 + 2 + 2


def test_initial_states_modes():
    space = space_for(3, 2)
    assert initial_states(space, InitMode.EMPTY) == frozenset({(2, 2, 2)})
    unknown = initial_states(space, InitMode.UNKNOWN)
    assert unknown == frozenset(space.all_states())


def test_collecting_loop_golden(k2_config, loop2):
    pg = project(loop2, 0, k2_config)
    space = StateSpace(k=2, blocks=blocks_for(2))
    reach = collecting_semantics(pg, space, InitMode.EMPTY)
    empty = (2, 2)
    after_w = (1, 0)  # v age 1, w age 0
    after_v = (0, 2)
    assert reach["a"] == frozenset({empty})
    assert reach["b"] == frozenset({empty, after_w})
    assert reach["c"] == frozenset({after_v, (0, 1)})
    assert reach["d"] == frozenset({after_w})
    assert reach["exit"] == frozenset({after_w})


def test_collecting_straightline_trace(k2_config, straight2):
    pg = project(straight2, 0, k2_config)
    space = StateSpace(k=2, blocks=blocks_for(5))
    reach = collecting_semantics(pg, space, InitMode.EMPTY)
    # distinct blocks only: each prefix yields exactly one state
    for v in pg.vertices:
        assert len(reach[v]) == 1
    (q5,) = reach["v5"]
    assert q5 == (2, 1, 0, 2, 2)  # a evicted, v age 1, w age 0, x and y evicted


def test_collecting_no_access_graph(k2_config):
    g = build_cfg("a", ["a", "b"], [("a", "b", None)], k2_config)
    pg = project(g, 0, k2_config)
    space = StateSpace(k=2, blocks=())
    reach = collecting_semantics(pg, space, InitMode.EMPTY)
    assert reach["a"] == reach["b"] == frozenset({()})


def test_collecting_unreachable_vertex_empty(k2_config):
    g = build_cfg("a", ["a", "b", "dead"], [("a", "b", 0), ("dead", "b", 8)], k2_config)
    pg = project(g, 0, k2_config)
    space = StateSpace(k=2, blocks=blocks_for(2))
    reach = collecting_semantics(pg, space, InitMode.EMPTY)
    assert reach["dead"] == frozenset()


def test_collecting_budget_error(k2_config, loop2):
    pg = project(loop2, 0, k2_config)
    space = StateSpace(k=2, blocks=blocks_for(2))
    with pytest.raises(OracleCapacityError, match="more than 3"):
        collecting_semantics(pg, space, InitMode.EMPTY, budget=3)


def test_count_states_matches_enumeration():
    for n, k in [(0, 2), (1, 1), (3, 2), (5, 4), (2, 4), (4, 3)]:
        space = space_for(n, k)
        assert space.count_states() == len(space.all_states()), (n, k)


def test_collecting_budget_checked_before_enumeration(k2_config):
    # An unknown 4-way cache over 40 blocks has 2,254,241 initial states;
    # the budget must refuse them without enumerating them.
    g = project(build_cfg("a", ["a", "b"], [("a", "b", None)], k2_config), 0, k2_config)
    space = StateSpace(k=4, blocks=blocks_for(40))
    assert space.count_states() == 2_254_241
    t0 = time.perf_counter()
    with pytest.raises(OracleCapacityError, match="more than 1000"):
        collecting_semantics(g, space, InitMode.UNKNOWN, budget=1000)
    assert time.perf_counter() - t0 < 1.0


def test_collecting_monotone_in_initial_states(k2_config, loop2):
    # every state reachable from the empty cache is reachable from unknown
    pg = project(loop2, 0, k2_config)
    space = StateSpace(k=2, blocks=blocks_for(2))
    empty_reach = collecting_semantics(pg, space, InitMode.EMPTY)
    unknown_reach = collecting_semantics(pg, space, InitMode.UNKNOWN)
    for v in pg.vertices:
        assert empty_reach[v] <= unknown_reach[v]


def test_exact_classify_loop_both_du(k2_config, loop2):
    pg = project(loop2, 0, k2_config)
    space = StateSpace(k=2, blocks=blocks_for(2))
    reach = collecting_semantics(pg, space, InitMode.EMPTY)
    for a in accesses_of(pg):
        assert exact_classify(space, reach, a) is Verdict.DEFINITELY_UNKNOWN


def test_exact_classify_hit_miss_and_vacuous(k2_config):
    g = build_cfg(
        "a", ["a", "b", "c", "dead", "x"],
        [("a", "b", 0), ("b", "c", 0), ("dead", "x", 0)],
        k2_config,
    )
    pg = project(g, 0, k2_config)
    space = StateSpace(k=2, blocks=blocks_for(1))
    reach = collecting_semantics(pg, space, InitMode.EMPTY)
    first, second, dead = accesses_of(pg)
    assert exact_classify(space, reach, first) is Verdict.ALWAYS_MISS
    assert exact_classify(space, reach, second) is Verdict.ALWAYS_HIT
    # unreachable source: vacuously always-hit
    assert exact_classify(space, reach, dead) is Verdict.ALWAYS_HIT


@given(st.integers(0, 120))
def test_collecting_fixpoint_is_stable(seed):
    # re-propagating every edge from the fixpoint adds nothing
    from helpers import corpus_programs
    from lrucheck.cfg import block_universe, out_edges

    name, config, g = corpus_programs(3, base_seed=seed)[seed % 3]
    pg = project(g, 0, config)
    space = StateSpace(k=config.associativity, blocks=block_universe(pg))
    reach = collecting_semantics(pg, space, InitMode.EMPTY)
    for v, edges in out_edges(pg).items():
        for e in edges:
            image = {
                space.update(q, e.block) if e.block is not None else q
                for q in reach[v]
            }
            assert image <= reach[e.dst]
    assert initial_states(space, InitMode.EMPTY) <= reach[pg.entry]
