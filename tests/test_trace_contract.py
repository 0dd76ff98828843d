"""The benchmark's tracer still reads what the focused layer returns.

`perfbench/tracing.py` wraps public lrucheck functions and extracts counts
from their return values; a metric whose extractor breaks is silently left
out of the traced summary.  These tests run the extractors on real return
values, and a whole traced analysis, so a refactor of the focused search
cannot drop `focused.states`, `focused.universe_mean` or
`focused.init_states` unnoticed.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from lrucheck.cfg import block_universe, project
from lrucheck.concrete import InitMode
from lrucheck.focused import focused_reach, initial_focused, unsimplified_model

REPO = Path(__file__).resolve().parent.parent
LOOP_JSON = REPO / "docs" / "examples" / "loop.json"
FOCUSED_METRICS = ("focused.states", "focused.universe_mean", "focused.init_states")


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
    model = unsimplified_model(pg, block_universe(pg)[0], 2)
    seeds = initial_focused(model.positions, 2, InitMode.UNKNOWN)
    reach = focused_reach(model, seeds)

    assert tracing._EXTRACT["focused.initial_focused"](seeds) == {"states": len(list(seeds))}
    assert tracing._EXTRACT["focused.focused_reach"](reach) == {
        "explored": reach.explored,
        "partial": 0,
        "universe": len(model.universe),
    }


def test_traced_analysis_reports_focused_metrics(tracing):
    from lrucheck.cli import main

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([
                "analyze", str(LOOP_JSON), "--assoc", "2", "--sets", "1", "--block-size", "8",
                "--mode", "mc-only", "--init", "unknown",
            ])
    finally:
        tracer.uninstall()
    assert code == 0
    assert not tracer.broken
    summary = tracer.summary(passes=1)
    for metric in FOCUSED_METRICS:
        assert summary[metric][0] > 0, metric
    assert summary["focused.runs"][0] == 2
