"""Age-bound abstract domains: transfers, joins, fixpoints, classification."""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    SPEC,
    SpecDomain,
    all_bounds,
    all_states,
    build_cfg,
    corpus_programs,
    em_holds,
    eh_holds,
    full_table,
    gamma_may,
    gamma_must,
    join_eh,
    join_em,
    join_may,
    join_must,
    loop_cfg,
    nonempty_subsets,
    pack,
    random_programs,
    reference_fixpoint,
    search_cases,
    small_config,
    solve,
    space_for,
    spec_carried,
    table_skeleton,
    unpack_fixpoint,
    update,
    update_eh,
    update_em,
    update_may,
    update_must,
)
from lrucheck.ai import (
    BOTTOM,
    Domain,
    EXISTS_HIT,
    EXISTS_MISS,
    MAY,
    MUST,
    ai_classify,
    carried,
    fixpoint,
)
from lrucheck.bench import GenSpec, generate
from lrucheck.cfg import Cfg, CacheConfig, Edge, accesses_of, block_universe, project
from lrucheck.concrete import InitMode, StateSpace, collecting_semantics
from lrucheck.verdict import Verdict

DOMAINS = (MUST, MAY, EXISTS_HIT, EXISTS_MISS)


def halves(s):
    """(own bounds, carried bounds) of a flat exists-hit or exists-miss state."""
    n = len(s) // 2
    return s[:n], s[n:]


def loop_fixpoints(k):
    """The loop program's packed fixpoints, by domain name."""
    config = small_config(k=k)
    pg = project(loop_cfg(config), 0, config)
    space = StateSpace(k=k, blocks=block_universe(pg))
    return space, {d.name: solve(d, pg, space) for d in DOMAINS}


def unpacked_loop_fixpoints(k):
    space, fp = loop_fixpoints(k)
    return space, {d.name: unpack_fixpoint(d, fp[d.name], space) for d in DOMAINS}


@pytest.mark.parametrize("k", [2, 4])
def test_loop_fixpoint_golden(k):
    space, fp = unpacked_loop_fixpoints(k)
    expected = {
        # vertex: (must, may, exists-hit, exists-miss) bounds for (v, w)
        "a": ((k, k), (k, k), (k, k), (k, k)),
        "b": ((k, k), (1, 0), (1, 0), (k, k)),
        "c": ((0, k), (0, 1), (0, 1), (0, k)),
        "d": ((1, 0), (1, 0), (1, 0), (1, 0)),
        "exit": ((1, 0), (1, 0), (1, 0), (1, 0)),
    }
    for v, (must_b, may_b, eh_b, em_b) in expected.items():
        assert fp["must"][v] == must_b, v
        assert fp["may"][v] == may_b, v
        assert halves(fp["exists-hit"][v])[0] == eh_b, v
        assert halves(fp["exists-miss"][v])[0] == em_b, v


def test_loop_classification_definitely_unknown():
    space, fp = loop_fixpoints(2)
    config = small_config(k=2)
    pg = project(loop_cfg(config), 0, config)
    for a in accesses_of(pg):
        c = ai_classify(
            space, a, fp["must"], fp["may"], fp["exists-hit"], fp["exists-miss"]
        )
        assert c.verdict is Verdict.DEFINITELY_UNKNOWN
        assert c.exists_hit and c.exists_miss


def test_eh_component_tracks_must_and_em_tracks_may():
    space, fp = unpacked_loop_fixpoints(2)
    assert spec_carried(fp["exists-hit"]) == fp["must"]
    assert spec_carried(fp["exists-miss"]) == fp["may"]


@given(st.integers(0, 60))
def test_existential_bounds_bracket_universal_bounds(seed):
    # exists-hit bounds never exceed must bounds; exists-miss never fall
    # below may bounds; the carried components equal the standalone fixpoints.
    name, config, g = corpus_programs(3, base_seed=seed)[seed % 3]
    pg = project(g, 0, config)
    space = StateSpace(k=config.associativity, blocks=block_universe(pg))
    for init in InitMode:
        must, may, eh, em = (unpack_fixpoint(d, solve(d, pg, space, init), space) for d in DOMAINS)
        for v in pg.vertices:
            if must[v] is BOTTOM:
                assert may[v] is BOTTOM and eh[v] is BOTTOM and em[v] is BOTTOM
                continue
            eh_b, eh_must = halves(eh[v])
            em_b, em_may = halves(em[v])
            assert eh_must == must[v]
            assert em_may == may[v]
            assert all(e <= m for e, m in zip(eh_b, must[v]))
            assert all(e >= m for e, m in zip(em_b, may[v]))


@pytest.mark.parametrize("init", list(InitMode), ids=str)
def test_exists_fixpoints_carry_must_and_may(init):
    # Two fixpoints answer for four: at every vertex of every cache set, the
    # carried half of exists-hit is the must fixpoint and the carried half of
    # exists-miss is the may fixpoint.
    programs = corpus_programs(30, base_seed=700, sets=None)
    config = CacheConfig(associativity=4, num_sets=2, block_size=8)
    for seed in range(4):
        spec = GenSpec(vertices=120, loops=12, depth=3, blocks=12, seed=seed)
        programs.append((f"loops{seed}", config, generate(spec, config)))
    for name, config, g in programs:
        for s in range(config.num_sets):
            pg = project(g, s, config)
            space = StateSpace(k=config.associativity, blocks=block_universe(pg))
            eh = solve(EXISTS_HIT, pg, space, init)
            em = solve(EXISTS_MISS, pg, space, init)
            assert carried(eh, space) == solve(MUST, pg, space, init), (name, s)
            assert carried(em, space) == solve(MAY, pg, space, init), (name, s)


# --- transfer soundness against the concrete semantics ------------------------


def test_update_must_sound_exhaustive():
    for n, k in [(1, 1), (2, 2), (1, 3)]:
        space = space_for(n, k)
        for bounds in all_bounds(n, k):
            for i, b in enumerate(space.blocks):
                s2 = update_must(bounds, i, k)
                allowed = set(gamma_must(space, s2))
                for q in gamma_must(space, bounds):
                    assert update(space, q, b) in allowed, (bounds, b, q)


def test_update_may_sound_exhaustive():
    for n, k in [(1, 1), (2, 2), (1, 3)]:
        space = space_for(n, k)
        for bounds in all_bounds(n, k):
            for i, b in enumerate(space.blocks):
                s2 = update_may(bounds, i, k)
                allowed = set(gamma_may(space, s2))
                for q in gamma_may(space, bounds):
                    assert update(space, q, b) in allowed, (bounds, b, q)


def test_update_eh_sound_exhaustive():
    # The pair (bounds, must) describes the nonempty state sets drawn from
    # the must region whose per-block minimum age respects the bounds; the
    # transfer must preserve that reading under the concrete update.
    space = space_for(2, 2)
    for must_b in all_bounds(2, 2):
        pool = gamma_must(space, must_b)
        subsets = list(nonempty_subsets(pool))
        for eh_b in all_bounds(2, 2):
            s = eh_b + must_b
            fitting = [S for S in subsets if eh_holds(S, eh_b)]
            if not fitting:
                continue
            for i, b in enumerate(space.blocks):
                s2 = update_eh(s, i, space.k)
                for S in fitting:
                    S2 = [update(space, q, b) for q in S]
                    assert eh_holds(S2, halves(s2)[0]), (must_b, eh_b, b, S)


def test_update_em_sound_exhaustive():
    space = space_for(2, 2)
    for may_b in all_bounds(2, 2):
        pool = gamma_may(space, may_b)
        subsets = list(nonempty_subsets(pool))
        for em_b in all_bounds(2, 2):
            s = em_b + may_b
            fitting = [S for S in subsets if em_holds(S, em_b)]
            if not fitting:
                continue
            for i, b in enumerate(space.blocks):
                s2 = update_em(s, i, space.k)
                for S in fitting:
                    S2 = [update(space, q, b) for q in S]
                    assert em_holds(S2, halves(s2)[0]), (may_b, em_b, b, S)


def test_join_must_and_may_sound_exhaustive():
    space = space_for(2, 2)
    vecs = list(all_bounds(2, 2))
    for sb in vecs:
        for tb in vecs:
            jm = join_must(sb, tb)
            allowed = set(gamma_must(space, jm))
            assert set(gamma_must(space, sb)) <= allowed
            assert set(gamma_must(space, tb)) <= allowed
            jy = join_may(sb, tb)
            allowed = set(gamma_may(space, jy))
            assert set(gamma_may(space, sb)) <= allowed
            assert set(gamma_may(space, tb)) <= allowed


def test_join_eh_sound_exhaustive():
    # Sets flowing in from either side still satisfy the joined description.
    space = space_for(2, 1)
    vecs = list(all_bounds(2, 1))
    states = all_states(space)
    subsets = list(nonempty_subsets(states))
    for s_must in vecs:
        s_pool = set(gamma_must(space, s_must))
        for s_eh in vecs:
            s_sets = [S for S in subsets if set(S) <= s_pool and eh_holds(S, s_eh)]
            if not s_sets:
                continue
            s = s_eh + s_must
            for t_must in vecs:
                t_pool = set(gamma_must(space, t_must))
                for t_eh in vecs:
                    t_sets = [
                        S
                        for S in subsets
                        if set(S) <= t_pool and eh_holds(S, t_eh)
                    ]
                    if not t_sets:
                        continue
                    j_eh, j_must = halves(join_eh(s, t_eh + t_must))
                    pool = set(gamma_must(space, j_must))
                    for S in s_sets:
                        for T in t_sets:
                            u = set(S) | set(T)
                            assert u <= pool
                            assert eh_holds(list(u), j_eh)


def test_join_em_sound_exhaustive():
    space = space_for(2, 1)
    vecs = list(all_bounds(2, 1))
    subsets = list(nonempty_subsets(all_states(space)))
    for s_may in vecs:
        s_pool = set(gamma_may(space, s_may))
        for s_em in vecs:
            s_sets = [S for S in subsets if set(S) <= s_pool and em_holds(S, s_em)]
            if not s_sets:
                continue
            s = s_em + s_may
            for t_may in vecs:
                t_pool = set(gamma_may(space, t_may))
                for t_em in vecs:
                    t_sets = [
                        S
                        for S in subsets
                        if set(S) <= t_pool and em_holds(S, t_em)
                    ]
                    if not t_sets:
                        continue
                    j_em, j_may = halves(join_em(s, t_em + t_may))
                    pool = set(gamma_may(space, j_may))
                    for S in s_sets:
                        for T in t_sets:
                            u = set(S) | set(T)
                            assert u <= pool
                            assert em_holds(list(u), j_em)


# --- join algebra --------------------------------------------------------------

bound_vec = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


@given(bound_vec, bound_vec, bound_vec)
def test_join_algebra(a, b, c):
    for mk, join in [
        (lambda v: v, join_must),
        (lambda v: v, join_may),
        (lambda v: v + v, join_eh),
        (lambda v: v + v, join_em),
    ]:
        x, y, z = mk(a), mk(b), mk(c)
        assert join(x, x) == x
        assert join(x, y) == join(y, x)
        assert join(join(x, y), z) == join(x, join(y, z))


# --- fixpoint engine -----------------------------------------------------------


class CountingRows(dict):
    """A successor table that counts how often each row is read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = []

    def __getitem__(self, v):
        self.reads.append(v)
        return super().__getitem__(v)


def test_fixpoint_single_sweep_on_dag(k2_config, straight2):
    calls = []

    def counting_update(s, i, k):
        calls.append(i)
        return update_must(s, i, k)

    dom = SpecDomain("counting", SPEC["must"].seed, counting_update, join_must)
    diamond = build_cfg(
        "a", ["a", "l", "r", "m", "z"],
        [("a", "l", 0), ("a", "r", 8), ("l", "m", None), ("r", "m", 16),
         ("m", "z", 0)],
        k2_config,
    )
    for g, transfers in ((straight2, 5), (diamond, 4)):
        calls.clear()
        pg = project(g, 0, k2_config)
        space = StateSpace(k=2, blocks=block_universe(pg))
        reference_fixpoint(dom, pg, space, InitMode.EMPTY)
        assert len(calls) == transfers
        # The packed engine visits every vertex once: each successor row is
        # read once.
        adj = full_table(pg, space.blocks)
        rows = CountingRows(adj.succ)
        for d in DOMAINS:
            rows.reads.clear()
            fixpoint(d, pg, space, InitMode.EMPTY, adj._replace(succ=rows))
            assert sorted(rows.reads) == sorted(pg.vertices), d.name


def test_fixpoint_entry_and_unreachable(k2_config):
    g = build_cfg("a", ["a", "b", "dead"], [("a", "b", 0), ("dead", "b", 8)], k2_config)
    pg = project(g, 0, k2_config)
    space = StateSpace(k=2, blocks=block_universe(pg))
    fp = solve(MUST, pg, space)
    assert fp["dead"] is BOTTOM
    assert fp["a"] == MUST.seed(space, InitMode.EMPTY)


def test_bottom_is_a_singleton():
    # BOTTOM is None: one shared marker, distinct from every packed state.
    assert BOTTOM is None


# --- classification ------------------------------------------------------------


def all_fixpoints(g, config, init=InitMode.EMPTY):
    pg = project(g, 0, config)
    space = StateSpace(k=config.associativity, blocks=block_universe(pg))
    fps = [solve(d, pg, space, init) for d in DOMAINS]
    return pg, space, fps


def test_classify_always_hit_and_miss(k2_config):
    g = build_cfg("a", ["a", "b", "c"], [("a", "b", 0), ("b", "c", 0)], k2_config)
    pg, space, (must, may, eh, em) = all_fixpoints(g, k2_config)
    first, second = accesses_of(pg)
    c1 = ai_classify(space, first, must, may, eh, em)
    assert c1.verdict is Verdict.ALWAYS_MISS
    assert (c1.exists_hit, c1.exists_miss) == (False, True)
    c2 = ai_classify(space, second, must, may, eh, em)
    assert c2.verdict is Verdict.ALWAYS_HIT
    assert (c2.exists_hit, c2.exists_miss) == (True, False)


def test_classify_unreachable_source_vacuous_hit(k2_config):
    g = build_cfg("a", ["a", "b", "dead"], [("a", "b", 0), ("dead", "b", 8)], k2_config)
    pg, space, (must, may, eh, em) = all_fixpoints(g, k2_config)
    dead_access = accesses_of(pg)[1]
    c = ai_classify(space, dead_access, must, may, eh, em)
    assert c.verdict is Verdict.ALWAYS_HIT
    assert (c.exists_hit, c.exists_miss) == (False, False)


def test_classify_without_existential_domains(k2_config, loop2):
    pg = project(loop2, 0, k2_config)
    space = StateSpace(k=2, blocks=block_universe(pg))
    must = solve(MUST, pg, space)
    may = solve(MAY, pg, space)
    for a in accesses_of(pg):
        c = ai_classify(space, a, must, may)
        assert c.verdict is None
        assert (c.exists_hit, c.exists_miss) == (False, False)


def exists_hit_only_cfg(config):
    """Unknown initial cache: a hit witness survives the join, a miss does not
    become provable, so only the exists-hit half is settled."""
    return build_cfg(
        "e", ["e", "l", "r", "j", "x"],
        [("e", "l", 0), ("e", "r", 8), ("l", "j", None), ("r", "j", None),
         ("j", "x", 0)],
        config,
    )


def exists_miss_only_cfg(config):
    """Join noise inflates the must bounds, so repeated accesses to w age the
    exists-hit bound of a out of the cache even though a genuine hit path
    (skip the z arm twice) exists; may keeps a possibly cached, and
    exists-miss stays provable."""
    return build_cfg(
        "e", ["e", "f", "g", "d1", "d2", "h", "i", "j"],
        [("e", "f", 0), ("f", "g", 8), ("g", "d1", 16), ("d1", "d2", 24),
         ("d2", "h", None), ("g", "h", None), ("h", "i", 8), ("i", "j", 0)],
        config,
    )


def test_classify_residual_exists_hit_only(k2_config):
    g = exists_hit_only_cfg(k2_config)
    pg, space, (must, may, eh, em) = all_fixpoints(g, k2_config, InitMode.UNKNOWN)
    query = accesses_of(pg)[-1]
    assert query.src == "j"
    c = ai_classify(space, query, must, may, eh, em)
    assert c.verdict is None
    assert (c.exists_hit, c.exists_miss) == (True, False)


def test_classify_residual_exists_miss_only(k2_config):
    g = exists_miss_only_cfg(k2_config)
    pg, space, (must, may, eh, em) = all_fixpoints(g, k2_config)
    query = accesses_of(pg)[-1]
    assert (query.src, query.block.index) == ("i", 0)
    c = ai_classify(space, query, must, may, eh, em)
    assert c.verdict is None
    assert (c.exists_hit, c.exists_miss) == (False, True)


# --- packed states against the tuple specification -----------------------------


def seeded(domain, state):
    """`domain` with its entry state replaced by the packed `state`."""

    class Seeded(Domain):
        __slots__ = ()

        def seed(self, space, init):
            return state

    return Seeded(*domain)


@functools.lru_cache(maxsize=None)
def edge_graph(n, k, accesses):
    """Entry e with one edge to t per access position (-1: no access), in
    order, over n blocks; with its state space and successor table."""
    space = space_for(n, k)
    edges = tuple(Edge("e", None if i < 0 else space.blocks[i], "t") for i in accesses)
    g = Cfg(entry="e", vertices=("e", "t"), edges=edges)
    return g, space, full_table(g, space.blocks)


def packed_at_t(domain, n, k, s, accesses):
    """Run the packed engine from spec state `s` over `edge_graph`; unpacked at t."""
    g, space, adj = edge_graph(n, k, tuple(accesses))
    fix = fixpoint(seeded(domain, pack(s, k)), g, space, InitMode.EMPTY, adj)
    return unpack_fixpoint(domain, fix, space)["t"]


def spec_at_t(domain, s, accesses, k):
    """The spec's state at t: each edge's image of s, joined in edge order."""
    spec = SPEC[domain.name]
    images = [s if i < 0 else spec.update(s, i, k) for i in accesses]
    out = images[0]
    for moved in images[1:]:
        out = spec.join(out, moved)
    return out


def check_state(domain, k, s, both_orders=True):
    """Packed equals spec on `s`: every transfer (one edge) and every join of
    two edge images (two edges, no-access included), in both edge orders
    unless `both_orders` is false."""
    n = len(s) // 2 if domain.paired else len(s)
    for i in range(n):
        assert packed_at_t(domain, n, k, s, [i]) == spec_at_t(domain, s, [i], k), (s, i)
    for i in range(-1, n):
        for j in range(-1 if both_orders else i + 1, n):
            want = spec_at_t(domain, s, [i, j], k)
            assert packed_at_t(domain, n, k, s, [i, j]) == want, (s, i, j)


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.name)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_packed_matches_spec_exhaustive(domain, k):
    # Every state of up to 4 fields: n <= 4 blocks, n <= 2 for paired domains.
    for fields in range(2 if domain.paired else 1, 5, 2 if domain.paired else 1):
        for s in all_bounds(fields, k):
            check_state(domain, k, s, both_orders=False)


@st.composite
def packed_cases(draw, max_k):
    domain = draw(st.sampled_from(DOMAINS))
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(1, 5))
    fields = 2 * n if domain.paired else n
    s = tuple(draw(st.lists(st.integers(0, k), min_size=fields, max_size=fields)))
    return domain, k, s


@settings(max_examples=200, derandomize=True, deadline=None)
@given(packed_cases(max_k=4))
def test_packed_matches_spec_up_to_five_blocks(case):
    check_state(*case)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(packed_cases(max_k=16))
def test_packed_matches_spec_wide_fields(case):
    # k up to 16: fields of up to 6 bits, whose guard bit sits at bit 5.
    check_state(*case)


def test_packed_k16_saturates_without_borrow():
    # Bounds at k and 0 side by side, in both halves, at the widest field.
    k = 16
    for domain in DOMAINS:
        n = 5
        fields = 2 * n if domain.paired else n
        for s in [(k,) * fields, (0,) * fields, tuple((k, 0)[j % 2] for j in range(fields)),
                  tuple((k - 1, 1, k)[j % 3] for j in range(fields))]:
            check_state(domain, k, s)


def fixpoint_programs():
    """Corpus programs at 1, 2, 4 and 8 sets, plus four 120-vertex loop programs."""
    programs = []
    for sets, base in ((1, 900), (2, 920), (4, 940), (8, 960)):
        programs += corpus_programs(12, base_seed=base, sets=sets)
    config = CacheConfig(associativity=4, num_sets=2, block_size=8)
    for seed in range(4):
        spec = GenSpec(vertices=120, loops=12, depth=3, blocks=12, seed=seed)
        programs.append((f"loops{seed}", config, generate(spec, config)))
    return programs


@pytest.mark.parametrize("init", list(InitMode), ids=str)
def test_packed_fixpoint_equals_reference(init):
    # Same states at every vertex, for every domain, on the full table and
    # on its skeleton: the packed engine keeps the reference's visit order,
    # which the non-monotone exists transfers depend on.
    for name, config, g in fixpoint_programs():
        for s in range(config.num_sets):
            pg = project(g, s, config)
            space = StateSpace(k=config.associativity, blocks=block_universe(pg))
            full = full_table(pg, space.blocks)
            for adj in (full, table_skeleton(full, pg.entry)):
                for d in DOMAINS:
                    got = unpack_fixpoint(d, fixpoint(d, pg, space, init, adj), space)
                    want = reference_fixpoint(SPEC[d.name], pg, space, init, adj)
                    assert got == want, (name, s, d.name, len(adj.succ))


def check_skeleton_fixpoints(pg, space, init):
    """The abstract phase's fixpoints on the skeleton, against the full table and the oracle.

    Must and may are monotone: on the skeleton they equal the full-table
    fixpoints at every kept vertex.  The exists domains are not, so their
    skeleton bounds may differ; each must still be sound, checked against
    the exact reachable states: the own bound of exists-hit is at least the
    smallest age of its block there, that of exists-miss at most the largest.
    """
    k, n = space.k, len(space.blocks)
    full = full_table(pg, space.blocks)
    table = table_skeleton(full, pg.entry)
    for d in (MUST, MAY):
        want = fixpoint(d, pg, space, init, full)
        got = fixpoint(d, pg, space, init, table)
        assert got == {v: want[v] for v in table.succ}, d.name
    eh = fixpoint(EXISTS_HIT, pg, space, init, table)
    em = fixpoint(EXISTS_MISS, pg, space, init, table)
    assert carried(eh, space) == fixpoint(MUST, pg, space, init, table)
    assert carried(em, space) == fixpoint(MAY, pg, space, init, table)
    reach = collecting_semantics(pg, space, init)
    eh_bounds = unpack_fixpoint(EXISTS_HIT, eh, space)
    em_bounds = unpack_fixpoint(EXISTS_MISS, em, space)
    for v in table.succ:
        states = reach[v]
        assert (eh[v] is None) == (em[v] is None) == (not states), v
        if not states:
            continue
        for i in range(n):
            ages = [q.index(i) if i in q else k for q in states]
            assert min(ages) <= eh_bounds[v][i], (v, i)
            assert max(ages) >= em_bounds[v][i], (v, i)


@pytest.mark.parametrize("init", list(InitMode), ids=str)
def test_skeleton_fixpoints_on_search_cases(init):
    # Each program at its own associativity and at k = 8.
    for name, config, g in search_cases():
        for k in sorted({config.associativity, 8}):
            geometry = CacheConfig(k, config.num_sets, config.block_size)
            for s in range(config.num_sets):
                pg = project(g, s, geometry)
                space = StateSpace(k=k, blocks=block_universe(pg))
                if space.blocks:
                    check_skeleton_fixpoints(pg, space, init)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(random_programs(), st.sampled_from(list(InitMode)))
def test_skeleton_fixpoints_on_random_graphs(program, init):
    g, config = program
    pg = project(g, 0, config)
    space = StateSpace(k=config.associativity, blocks=block_universe(pg))
    if space.blocks:
        check_skeleton_fixpoints(pg, space, init)
