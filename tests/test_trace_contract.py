"""The benchmark's tracer still reads what the focused layer and the oracle return.

`perfbench/tracing.py` wraps public lrucheck functions and extracts counts
from their return values; a metric whose extractor breaks is silently left
out of the traced summary.  These tests run the extractors on real return
values, and whole traced runs, so a refactor of the focused search or the
oracle cannot drop `focused.states`, `focused.universe_mean`,
`focused.init_states`, `focused.model_s`, `focused.check_s`,
`concrete.reach_s`, `concrete.classify_s` or `concrete.pairs` unnoticed, and
a refactor of the abstract phase cannot drop the per-domain fixpoint times
(split by `Domain.name`), `ai.classify_s` or `ai.settled_share`.
Every name the tracer wraps must still resolve: a renamed function would
otherwise drop its metrics without an error.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from helpers import full_table, reference_collecting
from lrucheck.cfg import CacheConfig, block_universe, load_cfg, project
from lrucheck.cli import main
from lrucheck.concrete import InitMode, StateSpace, collecting_semantics
from lrucheck.focused import focused_reach, initial_focused, unsimplified_model

REPO = Path(__file__).resolve().parent.parent
LOOP_JSON = REPO / "docs" / "examples" / "loop.json"
LOOP_ARGS = [str(LOOP_JSON), "--assoc", "2", "--sets", "1", "--block-size", "8", "--init", "unknown"]
FOCUSED_METRICS = ("focused.states", "focused.universe_mean", "focused.init_states")
ORACLE_METRICS = ("concrete.reach_s", "concrete.classify_s", "concrete.pairs")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_focused_extractors_read_real_values(tracing, k2_config, loop2):
    pg = project(loop2, 0, k2_config)
    space = StateSpace(k=2, blocks=block_universe(pg))
    model = unsimplified_model(pg, space.blocks[0], space, full_table(pg, space.blocks))
    seeds = initial_focused(InitMode.UNKNOWN)
    reach = focused_reach(model, seeds)

    assert tracing._EXTRACT["focused.initial_focused"](seeds) == {"states": len(list(seeds))}
    assert tracing._EXTRACT["focused.focused_reach"](reach) == {
        "explored": reach.explored,
        "partial": 0,
        "universe": len(model.universe),
    }


def reference_pairs(pg, space, init):
    """The (vertex, state) pair count of the age-vector specification."""
    return sum(len(states) for states in reference_collecting(pg, space, init).values())


def test_oracle_extractor_reads_real_values(tracing, k2_config, loop2):
    pg = project(loop2, 0, k2_config)
    space = StateSpace(k=2, blocks=block_universe(pg))
    reach = collecting_semantics(pg, space, InitMode.UNKNOWN)

    assert tracing._EXTRACT["concrete.collecting_semantics"](reach) == {
        "pairs": reference_pairs(pg, space, InitMode.UNKNOWN),
    }


def traced_main(tracing, argv):
    """Run the CLI under the tracer; every wrapped name must resolve."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    assert not tracer.broken
    return tracer


def traced_analyze(tracing, mode):
    """Run `analyze` on loop.json (k=2, unknown cache) under the tracer."""
    return traced_main(tracing, ["analyze", *LOOP_ARGS, "--mode", mode])


def test_traced_analysis_reports_focused_metrics(tracing):
    tracer = traced_analyze(tracing, "mc-only")
    summary = tracer.summary(passes=1)
    for metric in FOCUSED_METRICS:
        assert summary[metric][0] > 0, metric
    assert summary["focused.runs"][0] == 2


def test_traced_ai_mc_reports_model_and_check_times(tracing):
    tracer = traced_analyze(tracing, "ai+mc")
    summary = tracer.summary(passes=1)
    # The extractor reads the classification's counters; pin the share to the report's.
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["analyze", *LOOP_ARGS, "--mode", "ai+mc"]) == 0
    stats = json.loads(out.getvalue())["stats"]
    assert stats["mc_access_checks"] > 0
    assert summary["classify.residual_share"][0] == stats["mc_access_checks"] / stats["accesses"]
    assert "focused.model_s" in summary
    assert "focused.check_s" in summary
    calls = [sp.name for sp in tracer.spans]
    assert calls.count("focused.unsimplified_model") == 2
    assert calls.count("focused.simplify_for") == 0
    assert calls.count("focused.check_access") == 2


def test_traced_export_smv_reports_model_time(tracing, tmp_path):
    tracer = traced_main(tracing, ["export-smv", *LOOP_ARGS, "--outdir", str(tmp_path)])
    assert "focused.model_s" in tracer.summary(passes=1)
    calls = [sp.name for sp in tracer.spans]
    assert calls.count("focused.simplify_for") == 2


def test_traced_verify_reports_oracle_metrics(tracing):
    tracer = traced_main(tracing, ["verify", *LOOP_ARGS])
    summary = tracer.summary(passes=1)
    for metric in ORACLE_METRICS:
        assert metric in summary, metric
    config = CacheConfig(associativity=2, num_sets=1, block_size=8)
    pg = project(load_cfg(str(LOOP_JSON), config), 0, config)
    space = StateSpace(k=2, blocks=block_universe(pg))
    assert summary["concrete.pairs"][0] == reference_pairs(pg, space, InitMode.UNKNOWN)


@pytest.mark.parametrize(
    "mode, domains",
    [("ai+mc", ("exists-hit", "exists-miss")), ("ai+mc-no-du", ("must", "may"))],
)
def test_traced_abstract_phase_reports_domain_metrics(tracing, mode, domains):
    tracer = traced_analyze(tracing, mode)
    summary = tracer.summary(passes=1)
    fixpoints = [sp.name for sp in tracer.spans if sp.name.startswith("ai.fixpoint")]
    assert sorted(fixpoints) == sorted(f"ai.fixpoint.{d}" for d in domains)
    for d in domains:
        assert f"ai.fixpoint.{d}_s" in summary, d
    assert summary["ai.fixpoint_calls"][0] == 2
    classified = [sp for sp in tracer.spans if sp.name == "ai.ai_classify"]
    assert len(classified) == 2
    assert "ai.classify_s" in summary
    settled = sum(sp.counts["settled"] for sp in classified)
    assert summary["ai.settled_share"][0] == settled / 2
