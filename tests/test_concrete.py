"""Concrete LRU semantics and the enumerating oracle.

The age-vector functions of `helpers` specify the LRU semantics; the oracle
works over cached-position tuples and is checked against them, decoded.
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from helpers import (
    age_reach,
    age_vector,
    all_states,
    blocks_for,
    build_cfg,
    empty_state,
    initial_states,
    is_valid,
    loop_cfg,
    reference_collecting,
    small_config,
    space_for,
    straightline_cfg,
    update,
)
from lrucheck.bench import GenSpec, generate
from lrucheck.cfg import CacheConfig, accesses_of, block_universe, load_cfg, project
from lrucheck.concrete import (
    AllStates,
    InitMode,
    OracleCapacityError,
    StateSpace,
    collecting_semantics,
    exact_classify,
)
from lrucheck.verdict import Verdict

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


def ages(space, mapping):
    """Build a state tuple from {block_index: age}; unlisted blocks uncached."""
    return tuple(mapping.get(b.index, space.k) for b in space.blocks)


def test_update_loads_block_most_recently_used():
    space = space_for(3, k=2)
    b0, b1, b2 = space.blocks
    q = empty_state(space)
    q = update(space, q, b0)
    assert q == ages(space, {0: 0})
    q = update(space, q, b1)
    assert q == ages(space, {0: 1, 1: 0})
    # third distinct block evicts the oldest (capacity 2)
    q = update(space, q, b2)
    assert q == ages(space, {1: 1, 2: 0})


def test_update_reaccess_mru_is_identity():
    space = space_for(2, k=2)
    b0, b1 = space.blocks
    q = update(space, empty_state(space), b0)
    assert update(space, q, b0) == q


def test_update_hit_rejuvenates_without_aging_older():
    space = space_for(3, k=4)
    b0, b1, b2 = space.blocks
    q = ages(space, {0: 0, 1: 1, 2: 2})
    q2 = update(space, q, b1)
    # b1 to the front; b0 (younger than b1) ages; b2 (older) keeps its age.
    assert q2 == ages(space, {0: 1, 1: 0, 2: 2})


def test_update_preserves_invariant_exhaustive():
    for n in range(1, 5):
        for k in range(1, 5):
            space = space_for(n, k)
            for q in all_states(space):
                assert is_valid(space, q)
                for b in space.blocks:
                    q2 = update(space, q, b)
                    assert is_valid(space, q2), (n, k, q, b, q2)


def test_update_truncation_case_unreachable_from_valid_states():
    # The transfer's final case (a block younger than the accessed one already
    # at age k) cannot fire on any valid state: age k is the maximum, so
    # nothing valid is simultaneously younger than another block and at k.
    for n in range(1, 5):
        for k in range(1, 4):
            space = space_for(n, k)
            for q in all_states(space):
                for b in space.blocks:
                    i = space.index_of(b)
                    assert not any(
                        age < q[i] and age >= k for j, age in enumerate(q) if j != i
                    )


def test_all_states_counts():
    # sum over c of n!/(n-c)! cached arrangements
    assert len(all_states(space_for(3, 2))) == 1 + 3 + 6
    assert len(all_states(space_for(5, 4))) == 1 + 5 + 20 + 60 + 120
    assert len(all_states(space_for(2, 4))) == 1 + 2 + 2


def test_initial_states_modes():
    space = space_for(3, 2)
    assert initial_states(space, InitMode.EMPTY) == frozenset({(2, 2, 2)})
    unknown = initial_states(space, InitMode.UNKNOWN)
    assert unknown == frozenset(all_states(space))


def test_collecting_loop_golden(k2_config, loop2):
    pg = project(loop2, 0, k2_config)
    space = StateSpace(k=2, blocks=blocks_for(2))
    reach = age_reach(space, collecting_semantics(pg, space, InitMode.EMPTY))
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
    reach = age_reach(space, collecting_semantics(pg, space, InitMode.EMPTY))
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
        assert space.count_states() == len(all_states(space)), (n, k)


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


def test_collecting_unknown_cache_is_not_enumerated(k2_config):
    # The entry and the no-access successor hold every state of an unknown
    # 4-way cache over 40 blocks (2,254,241 each, 4.5M pairs within the
    # budget); only the access image, 56,356 states, may be enumerated.
    g = project(
        build_cfg("a", ["a", "b", "c"], [("a", "b", None), ("b", "c", 0)], k2_config),
        0,
        k2_config,
    )
    space = StateSpace(k=4, blocks=blocks_for(40))
    t0 = time.perf_counter()
    reach = collecting_semantics(g, space, InitMode.UNKNOWN, budget=10**7)
    assert time.perf_counter() - t0 < 1.0
    assert len(reach["a"]) == 2_254_241
    assert reach["b"] is reach["a"]
    assert len(reach["c"]) == 1 + 39 + 39 * 38 + 39 * 38 * 37


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
    from lrucheck.cfg import out_edges

    name, config, g = corpus_programs(3, base_seed=seed)[seed % 3]
    pg = project(g, 0, config)
    space = StateSpace(k=config.associativity, blocks=block_universe(pg))
    reach = age_reach(space, collecting_semantics(pg, space, InitMode.EMPTY))
    for v, edges in out_edges(pg).items():
        for e in edges:
            image = {
                update(space, q, e.block) if e.block is not None else q
                for q in reach[v]
            }
            assert image <= reach[e.dst]
    assert initial_states(space, InitMode.EMPTY) <= reach[pg.entry]


# --- the oracle against the age-vector specification -------------------------


def assert_oracle_matches_spec(pg, space, init):
    """Decoded oracle states equal the spec's at every vertex, and so do verdicts."""
    reach = collecting_semantics(pg, space, init)
    want = reference_collecting(pg, space, init)
    assert age_reach(space, reach) == want, (pg.name, space.blocks, space.k, init)
    k = space.k
    for a in accesses_of(pg):
        i = space.index_of(a.block)
        ages = [q[i] for q in want[a.src]]
        if all(age < k for age in ages):
            expected = Verdict.ALWAYS_HIT
        elif all(age == k for age in ages):
            expected = Verdict.ALWAYS_MISS
        else:
            expected = Verdict.DEFINITELY_UNKNOWN
        assert exact_classify(space, reach, a) is expected, (pg.name, a.label)


@pytest.mark.parametrize("k", (1, 2, 4))
@pytest.mark.parametrize("init", list(InitMode))
def test_oracle_matches_spec_on_examples(k, init):
    for sets in (1, 2):
        config = CacheConfig(associativity=k, num_sets=sets, block_size=8)
        for path in sorted(EXAMPLES.glob("*.json")):
            g = load_cfg(str(path), config)
            for s in range(sets):
                pg = project(g, s, config)
                assert_oracle_matches_spec(pg, StateSpace(k=k, blocks=block_universe(pg)), init)


@given(
    st.integers(0, 10_000),
    st.integers(1, 6),
    st.sampled_from((1, 2, 4)),
    st.sampled_from(list(InitMode)),
    st.integers(0, 2),
)
def test_oracle_matches_spec_on_generated(seed, n_blocks, k, init, loops):
    config = CacheConfig(associativity=k, num_sets=1, block_size=8)
    spec = GenSpec(vertices=4 + 3 * loops + seed % 6, loops=loops, depth=1 + seed % 2,
                   blocks=n_blocks, seed=seed)
    pg = project(generate(spec, config, name=f"gen{seed}"), 0, config)
    space = StateSpace(k=k, blocks=block_universe(pg))
    assert len(space.blocks) <= 6
    assert_oracle_matches_spec(pg, space, init)


def test_unknown_seeds_are_every_state():
    # The entry has no incoming edge, so its states are the seeds; every
    # block is accessed only on a self-loop of the unreachable vertex z.
    for n in range(0, 7):
        for k in range(1, 5):
            config = small_config(k=k)
            edges = [("a", "b", None)] + [("z", "z", 8 * i) for i in range(n)]
            pg = project(build_cfg("a", ["a", "b", "z"], edges, config), 0, config)
            space = StateSpace(k=k, blocks=block_universe(pg))
            reach = collecting_semantics(pg, space, InitMode.UNKNOWN)
            assert len(reach["a"]) == space.count_states(), (n, k)
            assert age_reach(space, reach)["a"] == initial_states(space, InitMode.UNKNOWN)


# --- the lazy every-state set of an unknown cache ----------------------------


def explicit_states(n, k):
    """Every state, listed: sizes 0..min(k, n), each in permutations order."""
    return [q for c in range(min(k, n) + 1) for q in itertools.permutations(range(n), c)]


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("k", range(1, 5))
def test_all_states_is_every_state(n, k):
    space = space_for(n, k)
    full = AllStates(space)
    seeds = explicit_states(n, k)
    assert len(full) == space.count_states() == len(seeds)
    listed = list(full)
    assert listed == seeds
    assert len(set(listed)) == len(listed)
    assert full == frozenset(seeds)
    assert frozenset(seeds) == full
    assert frozenset(age_vector(space, q) for q in full) == initial_states(space, InitMode.UNKNOWN)
    assert all(q in full for q in seeds)
    if n >= 1:
        assert list(range(n))[:k] not in full
    if n >= 2 and k >= 2:
        assert (0, 0) not in full
    if n > k:
        assert tuple(range(k + 1)) not in full
    assert (n,) not in full
    assert (-1,) not in full


def test_all_states_image_is_the_mapped_set():
    # An access from every state gives the same set as mapping every state.
    for n in range(1, 6):
        for k in range(1, 5):
            space = space_for(n, k)
            for i in range(n):
                mapped = set()
                for q in AllStates(space):
                    j = q.index(i) if i in q else len(q)
                    mapped.add(((i,) + q[:j] + q[j + 1:])[:k])
                assert AllStates(space).image(i) == mapped, (n, k, i)


#: Small graphs whose unknown-cache runs take each every-state path of the
#: oracle.  The unreachable vertex z accesses blocks 0-2 on self-loops, so
#: every universe has three blocks.
EVERY_STATE_GRAPHS = {
    "noaccess-chain-into-access": [
        ("a", "b", None), ("b", "c", None), ("c", "d", 0), ("d", "e", 8),
    ],
    "back-edge-into-entry": [
        ("a", "b", 0), ("b", "a", None), ("b", "c", 8), ("c", "a", 16),
    ],
    "access-self-loop-at-entry": [("a", "a", 0), ("a", "b", None), ("b", "c", 8)],
    # d gets explicit states from c before b passes every state on.
    "joined-explicit-then-every-state": [
        ("a", "b", None), ("a", "c", 0), ("b", "d", None), ("c", "d", 8), ("d", "e", 16),
    ],
    # d holds every state when c's explicit states arrive.
    "joined-every-state-then-explicit": [
        ("a", "c", 0), ("a", "b", None), ("b", "x", None), ("x", "d", None),
        ("c", "d", 8), ("d", "e", 16),
    ],
    # h is visited before u, and then gets every state back from u; its
    # access to e must run again from every state.
    "every-state-back-into-visited-vertex": [
        ("a", "h", 0), ("h", "u", 8), ("a", "u", None), ("u", "h", None), ("h", "e", 16),
    ],
}


def every_state_graph(name, config):
    edges = EVERY_STATE_GRAPHS[name] + [("z", "z", 8 * i) for i in range(3)]
    vertices = sorted({v for e in edges for v in e[:2]})
    return project(build_cfg("a", vertices, edges, config, name=name), 0, config)


@pytest.mark.parametrize("name", sorted(EVERY_STATE_GRAPHS))
@pytest.mark.parametrize("k", (1, 2, 4))
@pytest.mark.parametrize("init", list(InitMode))
def test_oracle_matches_spec_on_every_state_paths(name, k, init):
    pg = every_state_graph(name, small_config(k=k))
    space = StateSpace(k=k, blocks=block_universe(pg))
    assert len(space.blocks) == 3
    assert_oracle_matches_spec(pg, space, init)


@pytest.mark.parametrize("init", list(InitMode))
def test_budget_boundary_is_the_pair_count(init):
    config = CacheConfig(associativity=2, num_sets=1, block_size=8)
    graphs = [project(load_cfg(str(path), config), 0, config)
              for path in sorted(EXAMPLES.glob("*.json"))]
    graphs += [every_state_graph(name, config) for name in sorted(EVERY_STATE_GRAPHS)]
    for pg in graphs:
        space = StateSpace(k=2, blocks=block_universe(pg))
        pairs = sum(len(states) for states in reference_collecting(pg, space, init).values())
        with pytest.raises(OracleCapacityError) as exc:
            collecting_semantics(pg, space, init, budget=pairs - 1)
        assert str(exc.value) == (
            f"oracle needs more than {pairs - 1} (vertex, state) pairs on {pg.name!r}"
        )
        reach = collecting_semantics(pg, space, init, budget=pairs)
        assert sum(len(states) for states in reach.values()) == pairs
