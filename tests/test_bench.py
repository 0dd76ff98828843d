"""Synthetic program generator and benchmark harness."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from helpers import build_cfg, small_config
from lrucheck.bench import (
    CSV_COLUMNS,
    DEFAULT_CONFIG,
    ExperimentRow,
    GenError,
    GenSpec,
    generate,
    generate_json,
    geometric_mean,
    read_csv,
    row_from_result,
    run_experiment,
    summarize,
    write_csv,
)
from lrucheck.cfg import parse_cfg
from lrucheck.classify import Mode, classify_all


def dominators(g):
    preds = {v: set() for v in g.vertices}
    for e in g.edges:
        preds[e.dst].add(e.src)
    dom = {v: set(g.vertices) for v in g.vertices}
    dom[g.entry] = {g.entry}
    changed = True
    while changed:
        changed = False
        for v in g.vertices:
            if v == g.entry:
                continue
            sets = [dom[p] for p in preds[v]]
            new = (set.intersection(*sets) if sets else set()) | {v}
            if new != dom[v]:
                dom[v] = new
                changed = True
    return dom


def reachable_from_entry(g):
    adj = {v: [] for v in g.vertices}
    for e in g.edges:
        adj[e.src].append(e.dst)
    seen = {g.entry}
    stack = [g.entry]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def test_genspec_validation():
    with pytest.raises(ValueError, match="vertex budget"):
        GenSpec(vertices=1)
    with pytest.raises(ValueError, match="non-negative"):
        GenSpec(loops=-1)
    with pytest.raises(ValueError, match="block universe"):
        GenSpec(blocks=0)
    with pytest.raises(ValueError, match="branch_p"):
        GenSpec(branch_p=1.5)
    with pytest.raises(ValueError, match="access_p"):
        GenSpec(access_p=-0.1)


def test_generate_infeasible_loop_budget():
    with pytest.raises(GenError, match="need at least 7"):
        generate(GenSpec(vertices=5, loops=2))


def test_generate_deterministic():
    spec = GenSpec(vertices=9, loops=1, branch_p=0.5, blocks=3, seed=17)
    assert generate_json(spec) == generate_json(spec)
    g1, g2 = generate(spec), generate(spec)
    assert g1.vertices == g2.vertices
    assert g1.edges == g2.edges


def test_generate_different_seeds_differ():
    base = dict(vertices=10, loops=1, branch_p=0.5, blocks=4, access_p=0.6)
    docs = {generate_json(GenSpec(seed=s, **base)) for s in range(8)}
    assert len(docs) > 1


@given(st.integers(0, 200))
def test_generate_well_formed(seed):
    spec = GenSpec(
        vertices=4 + seed % 8,
        loops=(0, 1)[seed % 2],
        depth=1 + seed % 2,
        branch_p=0.4,
        blocks=1 + seed % 4,
        access_p=0.7,
        seed=seed,
    )
    g = generate(spec, DEFAULT_CONFIG)
    assert len(g.vertices) <= spec.vertices
    assert reachable_from_entry(g) == set(g.vertices)
    for e in g.edges:
        if e.block is not None:
            assert 0 <= e.block.index < spec.blocks


@pytest.mark.parametrize(
    "loops,depth,vertices", [(1, 1, 6), (2, 1, 9), (2, 2, 10), (3, 2, 12), (0, 1, 6)]
)
def test_generated_loops_are_natural(loops, depth, vertices):
    g = generate(GenSpec(vertices=vertices, loops=loops, depth=depth, seed=3))
    dom = dominators(g)
    back = [(e.src, e.dst) for e in g.edges if e.dst in dom[e.src]]
    assert len(back) == loops
    # each back edge closes a single-entry region
    for src, header in back:
        assert header in dom[src]


def test_loop_body_reuses_two_distinct_blocks():
    g = generate(GenSpec(vertices=4, loops=1, blocks=4, access_p=0.0, seed=5))
    labeled = [e for e in g.edges if e.block is not None]
    # access_p zero keeps only the forced loop-body accesses
    assert len(labeled) == 2
    assert labeled[0].block != labeled[1].block


def test_loop_body_single_block_universe():
    g = generate(GenSpec(vertices=4, loops=1, blocks=1, access_p=0.0, seed=5))
    labeled = [e for e in g.edges if e.block is not None]
    assert len(labeled) == 2
    assert labeled[0].block == labeled[1].block


def test_generate_json_roundtrip():
    spec = GenSpec(vertices=8, loops=1, blocks=3, seed=11)
    doc = generate_json(spec, DEFAULT_CONFIG, name="roundtrip")
    g = generate(spec, DEFAULT_CONFIG, name="roundtrip")
    parsed = parse_cfg(doc, DEFAULT_CONFIG)
    assert parsed.name == g.name == "roundtrip"
    assert parsed.entry == g.entry
    assert parsed.vertices == g.vertices
    assert parsed.edges == g.edges


def experiment_rows(tmp_path=None):
    config = small_config(k=2)
    programs = [
        (f"gen{s}", s, generate(GenSpec(vertices=7, loops=1, blocks=3, seed=s), config))
        for s in range(3)
    ]
    return run_experiment(programs, config, modes=(Mode.AI_MC, Mode.MC_ONLY))


def test_run_experiment_row_shape():
    rows, errors = experiment_rows()
    assert errors == []
    assert len(rows) == 6
    assert {r.mode for r in rows} == {"ai+mc", "mc-only"}
    for r in rows:
        assert r.n_ah + r.n_am + r.n_du == r.n_access
        assert r.prov_must + r.prov_may + r.prov_ehem + r.prov_mc == r.n_access
        assert (r.t_ai_ms, r.t_mc_ms) == (0.0, 0.0)  # timings off by default


def test_run_experiment_records_budget_errors():
    # Two chained accesses: the search over the access skeleton visits a and b,
    # one pair more than the budget.  (A single edge a -> b contracts to a
    # lone entry, one pair, which fits.)
    config = small_config(k=2)
    g = build_cfg("a", ["a", "b", "c"], [("a", "b", 0), ("b", "c", 8)], config)
    rows, errors = run_experiment(
        [("tiny", 0, g)], config, modes=(Mode.MC_ONLY, Mode.AI_ONLY), mc_budget=1
    )
    assert len(errors) == 1
    assert "tiny [mc-only]" in errors[0]
    assert [r.mode for r in rows] == ["ai-only"]


def test_run_experiment_propagates_crashes(monkeypatch):
    # Only budget errors are recorded and skipped; anything else is a bug.
    def crash(*args, **kwargs):
        raise RuntimeError("crash")

    monkeypatch.setattr("lrucheck.bench.classify_all", crash)
    config = small_config(k=2)
    g = build_cfg("a", ["a", "b"], [("a", "b", 0)], config)
    with pytest.raises(RuntimeError, match="crash"):
        run_experiment([("tiny", 0, g)], config, modes=(Mode.AI_MC,))


def test_timings_recorded_only_on_request():
    config = small_config(k=2)
    g = build_cfg("a", ["a", "b", "c"], [("a", "b", 0), ("b", "c", 0)], config)
    result = classify_all(g, config)
    quiet = row_from_result("p", 0, config, Mode.AI_MC, result)
    loud = row_from_result("p", 0, config, Mode.AI_MC, result, timings=True)
    assert (quiet.t_ai_ms, quiet.t_mc_ms) == (0.0, 0.0)
    assert loud.t_ai_ms > 0.0


def test_csv_roundtrip(tmp_path):
    rows, _ = experiment_rows()
    path = tmp_path / "rows.csv"
    write_csv(rows, str(path))
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert read_csv(str(path)) == rows


def test_read_csv_rejects_wrong_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("name,seed\np,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unexpected CSV columns"):
        read_csv(str(path))


def test_geometric_mean():
    assert geometric_mean([]) is None
    assert geometric_mean([0.0, 0.0]) is None
    assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    assert geometric_mean([1.0, 1.0, 1.0]) == pytest.approx(1.0)


def mk_row(name, mode, focused_runs, n_access=4, n_du=1):
    return ExperimentRow(
        name=name, seed=0, k=2, sets=1, block_size=8, mode=mode,
        n_access=n_access, n_ah=1, n_am=n_access - 1 - n_du, n_du=n_du,
        prov_must=1, prov_may=n_access - 1 - n_du, prov_ehem=n_du, prov_mc=0,
        focused_runs=focused_runs, states_explored=focused_runs * 3,
        t_ai_ms=0.0, t_mc_ms=0.0,
    )


def test_summarize_ratios_and_totals():
    rows = [
        mk_row("p1", "ai+mc", 2), mk_row("p1", "mc-only", 4),
        mk_row("p2", "ai+mc", 3), mk_row("p2", "mc-only", 3),
        mk_row("p3", "ai+mc", 0), mk_row("p3", "mc-only", 5),  # excluded from ratio
    ]
    summary = summarize(rows)
    assert summary["totals"]["mc-only"]["focused_runs"] == 12
    assert summary["totals"]["ai+mc"]["programs"] == 3
    assert summary["totals"]["ai+mc"]["n_access"] == 12
    ratio = summary["focused_run_ratio_vs_ai_mc"]["mc-only"]
    assert ratio == pytest.approx(math.sqrt(2.0))


def test_default_config_geometry():
    assert (DEFAULT_CONFIG.associativity, DEFAULT_CONFIG.num_sets,
            DEFAULT_CONFIG.block_size) == (4, 8, 32)
