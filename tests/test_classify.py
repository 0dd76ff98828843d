"""End-to-end classification pipeline and its differential oracle check."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_cfg, corpus_programs, random_programs, search_corpus, small_config
from test_ai import exists_hit_only_cfg, exists_miss_only_cfg
from lrucheck.cfg import CacheConfig, accesses_of, project
from lrucheck.classify import (
    Mode,
    Provenance,
    accesses_by_set,
    classify_all,
    verify_against_oracle,
)
from lrucheck.concrete import InitMode
from lrucheck.verdict import Verdict

AH = Verdict.ALWAYS_HIT
AM = Verdict.ALWAYS_MISS
DU = Verdict.DEFINITELY_UNKNOWN


def by_label(result):
    return {fv.access.label: fv for fv in result.verdicts}


def conserved(stats):
    """Every access has exactly one verdict and one provenance."""
    return (
        sum(stats.verdict_counts.values()) == stats.n_accesses
        and sum(stats.provenance_counts.values()) == stats.n_accesses
    )


def test_loop_pipeline_golden(k2_config, loop2):
    result = classify_all(loop2, k2_config)
    got = by_label(result)
    for label in ("b->c:b0#0", "c->d:b1#0"):
        fv = got[label]
        assert fv.verdict is DU
        assert fv.provenance is Provenance.EH_EM
        assert (fv.exists_hit, fv.exists_miss) == (True, True)
    # provably undecidable accesses never reach the model checker
    assert result.stats.focused_runs == 0
    assert result.stats.mc_access_checks == 0
    assert result.stats.states_explored == 0
    assert result.stats.verdict_counts == {"definitely-unknown": 2}
    assert result.stats.provenance_counts == {"eh-em": 2}
    assert conserved(result.stats)


def test_exists_hit_residue_refuted_by_search(k2_config):
    # With an unknown initial cache the entry accesses are undecidable, and
    # the join access keeps only its hit half settled; the search refutes
    # always-hit, so everything lands on definitely-unknown.
    g = exists_hit_only_cfg(k2_config)
    result = classify_all(g, k2_config, InitMode.UNKNOWN)
    got = by_label(result)
    assert got["j->x:b0#0"].verdict is DU
    assert got["j->x:b0#0"].provenance is Provenance.MC_CHECK_AH
    assert got["e->l:b0#0"].provenance is Provenance.MC_REFUTED_BOTH
    assert got["e->r:b1#0"].provenance is Provenance.MC_REFUTED_BOTH
    assert result.stats.verdict_counts == {"definitely-unknown": 3}
    assert result.stats.focused_runs == 2  # one per residual block
    assert result.stats.mc_access_checks == 3


def test_exists_miss_residue_refuted_by_search(k2_config):
    g = exists_miss_only_cfg(k2_config)
    result = classify_all(g, k2_config)
    got = by_label(result)
    fv = got["i->j:b0#0"]
    assert fv.verdict is DU
    assert fv.provenance is Provenance.MC_CHECK_AM
    assert (fv.exists_hit, fv.exists_miss) == (True, True)
    assert result.stats.provenance_counts == {
        "may": 4, "eh-em": 1, "mc-check-am": 1,
    }
    assert result.stats.focused_runs == 1


def mc_confirms_miss_cfg(config):
    """Two join-noise diamonds leave may too weak to prove the final access a
    miss, yet every concrete path evicts a; the search confirms always-miss."""
    return build_cfg(
        "e", ["e", "f", "g1", "h", "i", "p1", "q", "r", "s"],
        [("e", "f", 0), ("f", "g1", 8), ("f", "h", None), ("g1", "h", None),
         ("h", "i", 8), ("i", "p1", 16), ("i", "q", None), ("p1", "q", None),
         ("q", "r", 16), ("r", "s", 0)],
        config,
    )


def test_exists_miss_residue_confirmed_by_search(k2_config):
    g = mc_confirms_miss_cfg(k2_config)
    result = classify_all(g, k2_config)
    fv = by_label(result)["r->s:b0#0"]
    assert fv.verdict is AM
    assert fv.provenance is Provenance.MC_CHECK_AM
    assert (fv.exists_hit, fv.exists_miss) == (False, True)
    assert result.stats.provenance_counts == {
        "may": 3, "eh-em": 2, "mc-check-am": 1,
    }
    assert result.stats.focused_runs == 1
    report = verify_against_oracle(g, k2_config)
    assert report.n_disagreements == 0
    assert report.n_mc_resolved == 1


def test_mc_only_confirms_hits_and_shares_runs(k2_config):
    g = build_cfg("a", ["a", "b", "c"], [("a", "b", 0), ("b", "c", 0)], k2_config)
    result = classify_all(g, k2_config, mode=Mode.MC_ONLY)
    first, second = result.verdicts
    assert (first.verdict, first.provenance) == (AM, Provenance.MC_CHECK_AM)
    assert (second.verdict, second.provenance) == (AH, Provenance.MC_CHECK_AH)
    # both accesses target the same block: one search serves them both
    assert result.stats.focused_runs == 1
    assert result.stats.mc_access_checks == 2


def test_focused_run_counts_per_mode(k2_config):
    g = exists_miss_only_cfg(k2_config)
    runs = {
        mode: classify_all(g, k2_config, mode=mode).stats.focused_runs
        for mode in (Mode.AI_MC, Mode.AI_MC_NO_DU, Mode.MC_ONLY)
    }
    assert runs[Mode.AI_MC] == 1  # block a only
    assert runs[Mode.AI_MC_NO_DU] == 2  # blocks a and w
    assert runs[Mode.MC_ONLY] == 4  # every accessed block
    assert runs[Mode.AI_MC] <= runs[Mode.AI_MC_NO_DU] <= runs[Mode.MC_ONLY]


def test_ai_only_leaves_residue_unresolved(k2_config):
    g = exists_miss_only_cfg(k2_config)
    result = classify_all(g, k2_config, mode=Mode.AI_ONLY)
    fv = by_label(result)["i->j:b0#0"]
    assert fv.verdict is None
    assert fv.provenance is Provenance.UNRESOLVED
    assert (fv.exists_hit, fv.exists_miss) == (False, True)
    assert result.stats.verdict_counts["unknown"] == 1
    assert result.stats.focused_runs == 0
    assert conserved(result.stats)


def test_unreachable_access_is_vacuously_hit_in_every_mode(k2_config):
    g = build_cfg(
        "a", ["a", "b", "dead"], [("a", "b", 0), ("dead", "b", 8)], k2_config
    )
    for mode in Mode:
        result = classify_all(g, k2_config, mode=mode)
        fv = by_label(result)["dead->b:b1#0"]
        assert fv.verdict is AH, mode
        assert (fv.exists_hit, fv.exists_miss) == (False, False), mode
        report = verify_against_oracle(g, k2_config, mode=mode)
        assert report.n_disagreements == 0, mode


def test_verdict_order_matches_program_order(k2_config):
    config = small_config(k=2, sets=2)
    g = build_cfg(
        "a", ["a", "b", "c"],
        [("a", "b", 0), ("b", "c", 8), ("c", "a", 16)],
        config,
    )
    result = classify_all(g, config)
    assert [fv.access for fv in result.verdicts] == list(accesses_of(g))
    # accesses land in their own sets
    assert [fv.access.block.set_index for fv in result.verdicts] == [0, 1, 0]


def test_no_access_program(k2_config):
    g = build_cfg("a", ["a", "b"], [("a", "b", None)], k2_config)
    result = classify_all(g, k2_config)
    assert result.verdicts == []
    assert result.stats.n_accesses == 0
    assert conserved(result.stats)


def settled_map(result):
    return {
        fv.access: (fv.verdict, fv.exists_hit, fv.exists_miss)
        for fv in result.verdicts
    }


@pytest.mark.parametrize("init", list(InitMode))
def test_modes_agree_on_corpus(init):
    for name, config, g in corpus_programs(20, base_seed=200, sets=None):
        reference = classify_all(g, config, init, Mode.AI_MC)
        ref = settled_map(reference)
        for mode in (Mode.MC_ONLY, Mode.AI_MC_NO_DU):
            other = classify_all(g, config, init, mode)
            assert settled_map(other) == ref, (name, mode)
        ai_only = classify_all(g, config, init, Mode.AI_ONLY)
        for fv in ai_only.verdicts:
            if fv.verdict is not None:
                assert ref[fv.access][0] is fv.verdict, name


@pytest.mark.parametrize("init", list(InitMode))
def test_focused_run_ordering_on_corpus(init):
    for name, config, g in corpus_programs(20, base_seed=400, sets=None):
        runs = {
            mode: classify_all(g, config, init, mode).stats.focused_runs
            for mode in (Mode.AI_MC, Mode.AI_MC_NO_DU, Mode.MC_ONLY)
        }
        assert runs[Mode.AI_MC] <= runs[Mode.AI_MC_NO_DU] <= runs[Mode.MC_ONLY], name


def test_oracle_report_carries_its_classification(k2_config, loop2):
    report = verify_against_oracle(loop2, k2_config, mode=Mode.MC_ONLY)
    direct = classify_all(loop2, k2_config, mode=Mode.MC_ONLY)
    assert report.classification.verdicts == direct.verdicts
    assert report.classification.stats.states_explored == direct.stats.states_explored


@pytest.mark.parametrize("mode", list(Mode))
def test_verify_projects_each_set_once(monkeypatch, mode):
    import lrucheck.classify
    from lrucheck.cfg import CacheConfig, project

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return project(*args, **kwargs)

    monkeypatch.setattr(lrucheck.classify, "project", counting)
    name, config, g = corpus_programs(4, base_seed=300, sets=None)[0]
    config = CacheConfig(associativity=2, num_sets=4, block_size=8)
    report = verify_against_oracle(g, config, InitMode.UNKNOWN, mode)
    assert report.n_checked > 0
    # The oracle projects only the sets some access maps to, in ascending
    # order, and the classification projects none.
    accessed = sorted({a.block.set_index for a in accesses_of(g)})
    assert len(accessed) < 4
    assert calls == accessed


@pytest.mark.parametrize("mode", list(Mode))
def test_focused_searches_share_the_set_successor_table(monkeypatch, mode):
    import lrucheck.cfg
    import lrucheck.classify
    import lrucheck.concrete

    tables, orders = [], []
    real_out_edges = lrucheck.cfg.out_edges
    real_order = lrucheck.cfg.reverse_post_order
    real_project = lrucheck.cfg.project

    def counting_out_edges(g):
        tables.append(g)
        return real_out_edges(g)

    def counting_order(g, adj=None):
        orders.append(type(g).__name__)
        return real_order(g, adj)

    def no_projection(*args, **kwargs):
        raise AssertionError("the classification builds no projection")

    for module in (lrucheck.cfg, lrucheck.classify):
        monkeypatch.setattr(module, "out_edges", counting_out_edges)
        monkeypatch.setattr(module, "reverse_post_order", counting_order)
        monkeypatch.setattr(module, "project", no_projection)
    monkeypatch.setattr(lrucheck.concrete, "reverse_post_order", counting_order)
    name, config, g = corpus_programs(3, base_seed=300, sets=None)[2]
    result = classify_all(g, config, InitMode.UNKNOWN, mode)
    if mode is not Mode.AI_ONLY:
        assert result.stats.focused_runs > 0
    # One walk of the program's edges and one order per program; every set's
    # skeleton, fixpoints and searches are built from them.
    assert orders == ["Cfg"]
    assert [id(t) for t in tables] == [id(g)]
    # The oracle of `verify` walks every projection in that same order.
    monkeypatch.setattr(lrucheck.classify, "project", real_project)
    orders.clear()
    report = verify_against_oracle(g, config, InitMode.UNKNOWN, mode)
    assert report.n_checked > 0
    assert orders == ["Cfg"]


def test_accesses_split_by_set_match_the_projections():
    # Parallel edges give ordinals above 0 in both sets of the hand-built graph.
    config = CacheConfig(associativity=2, num_sets=2, block_size=8)
    parallel = build_cfg(
        "a", ["a", "b"],
        [("a", "b", 0), ("a", "b", 8), ("a", "b", 0), ("b", "b", 8), ("a", "b", 8)],
        config,
    )
    cases = [("parallel", config, parallel)] + corpus_programs(24, base_seed=400, sets=None)
    cases += corpus_programs(6, base_seed=500, sets=4)
    for name, config, g in cases:
        accesses, by_set = accesses_by_set(g)
        assert accesses == accesses_of(g), name
        assert list(by_set) == sorted(by_set), name
        for s in range(config.num_sets):
            projected = accesses_of(project(g, s, config))
            assert by_set.get(s, []) == projected, (name, s)
            assert (s in by_set) == bool(projected), (name, s)


@pytest.mark.parametrize("mode", list(Mode))
def test_classify_walks_the_program_once_for_accesses(monkeypatch, mode):
    import lrucheck.classify

    calls = []
    real = lrucheck.classify.accesses_of

    def counting(g):
        calls.append(type(g).__name__)
        return real(g)

    monkeypatch.setattr(lrucheck.classify, "accesses_of", counting)
    name, config, g = corpus_programs(1, base_seed=300, sets=4)[0]
    classify_all(g, config, InitMode.UNKNOWN, mode)
    assert calls == ["Cfg"]


@pytest.mark.parametrize("mode", [Mode.AI_MC, Mode.AI_ONLY])
def test_oracle_agreement_on_corpus(mode):
    total = mc_resolved = 0
    for name, config, g in corpus_programs(12, base_seed=300, sets=None):
        for init in InitMode:
            report = verify_against_oracle(g, config, init, mode)
            assert report.n_disagreements == 0, (name, init, mode)
            assert report.n_checked == len(report.oracle) == len(accesses_of(g))
            assert [fv.access for fv in report.classification.verdicts] == accesses_of(g)
            total += report.n_checked
            mc_resolved += report.n_mc_resolved
    assert total > 0
    if mode is Mode.AI_ONLY:
        assert mc_resolved == 0


def assert_oracle_agrees_in_every_mode(g, config, init, case):
    """Zero oracle disagreements in every mode; equal verdicts in the three MC modes.

    Returns the number of focused searches `ai+mc` ran.
    """
    verdicts = {}
    for mode in Mode:
        report = verify_against_oracle(g, config, init, mode)
        assert report.n_disagreements == 0, (*case, init, mode)
        verdicts[mode] = [(fv.access, fv.verdict) for fv in report.classification.verdicts]
        if mode is Mode.AI_MC:
            runs = report.classification.stats.focused_runs
    mc_modes = (Mode.AI_MC, Mode.AI_MC_NO_DU, Mode.MC_ONLY)
    assert len({tuple(verdicts[mode]) for mode in mc_modes}) == 1, case
    return runs


def test_oracle_agreement_where_the_search_does_the_work():
    # More blocks than ways and nested loops: ai+mc leaves 629 blocks to the
    # focused search here, against 32 in the empty-cache acceptance corpus.
    runs = sum(
        assert_oracle_agrees_in_every_mode(g, config, init, (name,))
        for name, config, init, g in search_corpus()
    )
    assert runs >= 500


@settings(max_examples=300, derandomize=True, deadline=None)
@given(random_programs(), st.sampled_from(list(InitMode)))
def test_oracle_agreement_in_every_mode_on_random_graphs(program, init):
    g, config = program
    assert_oracle_agrees_in_every_mode(g, config, init, ("random",))


def test_stats_conserved_on_corpus():
    for name, config, g in corpus_programs(10, base_seed=500, sets=None):
        for mode in Mode:
            result = classify_all(g, config, mode=mode)
            assert conserved(result.stats), (name, mode)
            assert result.stats.n_accesses == len(accesses_of(g))
