"""Command line interface: reports, exit codes, config files, determinism."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from helpers import cfg_text
from smv_eval import parse_module
from lrucheck.cli import build_parser, main
from lrucheck.classify import verify_against_oracle
from lrucheck.verdict import Verdict

REPO = Path(__file__).resolve().parent.parent
LOOP_JSON = REPO / "docs" / "examples" / "loop.json"
SCHEMA = json.loads((REPO / "docs" / "report.schema.json").read_text(encoding="utf-8"))

LOOP_FLAGS = ["--assoc", "2", "--sets", "1", "--block-size", "8"]

#: `verify --out` reports of docs/examples/NAME.json with LOOP_FLAGS, per
#: mode and initial cache, recorded (as `analyze --with-oracle` reports, which
#: had the same bytes) before the abstract phase moved to two fixpoints over
#: flat states; re-recorded when reports dropped `config.simplify` (schema
#: version 2), with no other byte changed, and when unknown-cache searches
#: started from two seeds, with only `states_explored` changed.
GOLDEN = REPO / "tests" / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def analyze_loop(capsys, *extra):
    code, out, err = run_cli(capsys, "analyze", str(LOOP_JSON), *LOOP_FLAGS, *extra)
    assert code == 0
    assert err == ""
    return json.loads(out)


def miss_graph_file(tmp_path):
    # join noise leaves one access for the model checker (see test_ai)
    text = cfg_text(
        "e", ["e", "f", "g", "d1", "d2", "h", "i", "j"],
        [("e", "f", 0), ("f", "g", 8), ("g", "d1", 16), ("d1", "d2", 24),
         ("d2", "h", None), ("g", "h", None), ("h", "i", 8), ("i", "j", 0)],
    )
    path = tmp_path / "miss.json"
    path.write_text(text, encoding="utf-8")
    return path


def test_analyze_report_shape_and_schema(capsys):
    doc = analyze_loop(capsys)
    jsonschema.validate(doc, SCHEMA)
    assert doc["schema_version"] == 2
    assert doc["tool"]["name"] == "lrucheck"
    assert doc["input"] == {"name": "loop", "vertices": 5, "edges": 5, "accesses": 2}
    assert doc["config"] == {
        "associativity": 2, "num_sets": 1, "block_size": 8,
        "init": "empty", "mode": "ai+mc",
    }
    verdicts = {a["id"]: a["verdict"] for a in doc["accesses"]}
    assert verdicts == {
        "b->c:b0#0": "definitely-unknown",
        "c->d:b1#0": "definitely-unknown",
    }
    assert all(a["provenance"] == "eh-em" for a in doc["accesses"])
    assert doc["stats"]["verdicts"]["definitely-unknown"] == 2
    assert doc["stats"]["focused_runs"] == 0
    assert doc["stats"]["timings_ms"] == {"ai": 0.0, "mc": 0.0}
    assert doc["oracle"] is None


def test_analyze_output_deterministic(capsys, tmp_path):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for f in (f1, f2):
        code, out, err = run_cli(
            capsys, "analyze", str(LOOP_JSON), *LOOP_FLAGS, "--out", str(f)
        )
        assert code == 0
        assert out == ""
    assert f1.read_bytes() == f2.read_bytes()
    stdout_doc = analyze_loop(capsys)
    assert json.loads(f1.read_text(encoding="utf-8")) == stdout_doc


def test_analyze_timings_flag(capsys):
    doc = analyze_loop(capsys, "--timings")
    assert doc["stats"]["timings_ms"]["ai"] > 0.0


def test_analyze_modes_agree(capsys, tmp_path):
    path = miss_graph_file(tmp_path)
    docs = {}
    for mode in ("ai+mc", "mc-only", "ai+mc-no-du"):
        code, out, err = run_cli(capsys, "analyze", str(path), *LOOP_FLAGS, "--mode", mode)
        assert code == 0
        docs[mode] = json.loads(out)
    verdict_sets = {
        mode: {a["id"]: a["verdict"] for a in doc["accesses"]}
        for mode, doc in docs.items()
    }
    assert verdict_sets["ai+mc"] == verdict_sets["mc-only"] == verdict_sets["ai+mc-no-du"]


def test_verify_ok(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "verify", str(LOOP_JSON), *LOOP_FLAGS, "--out", str(out_file)
    )
    assert code == 0
    assert out == "ok: 2 accesses checked, 0 disagreements, 0 resolved by model checking\n"
    doc = json.loads(out_file.read_text(encoding="utf-8"))
    jsonschema.validate(doc, SCHEMA)
    assert doc["oracle"]["checked"] == 2
    assert doc["oracle"]["n_disagreements"] == 0
    assert doc["oracle"]["disagreements"] == []
    assert doc["oracle"]["mc_resolved"] == []


def test_verify_counts_mc_resolutions(capsys, tmp_path):
    path = miss_graph_file(tmp_path)
    code, out, err = run_cli(capsys, "verify", str(path), *LOOP_FLAGS)
    assert code == 0
    assert out == "ok: 6 accesses checked, 0 disagreements, 1 resolved by model checking\n"


def test_verify_disagreement_exit_code(capsys, monkeypatch):
    def one_wrong(*args, **kwargs):
        report = verify_against_oracle(*args, **kwargs)
        return report._replace(oracle=[Verdict.ALWAYS_HIT, *report.oracle[1:]])

    monkeypatch.setattr("lrucheck.cli.verify_against_oracle", one_wrong)
    code, out, err = run_cli(capsys, "verify", str(LOOP_JSON), *LOOP_FLAGS)
    assert code == 1
    assert out.startswith("DISAGREE: 2 accesses checked, 1 disagreements")


@pytest.mark.parametrize("init", ["empty", "unknown"])
@pytest.mark.parametrize("mode", ["ai-only", "ai+mc", "mc-only", "ai+mc-no-du"])
@pytest.mark.parametrize("example", ["loop", "straightline"])
def test_golden_reports(capsys, tmp_path, example, mode, init):
    report = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "verify", str(REPO / "docs" / "examples" / f"{example}.json"),
        *LOOP_FLAGS, "--mode", mode, "--init", init, "--out", str(report),
    )
    assert (code, err) == (0, "")
    golden = (GOLDEN / f"{example}.{mode}.{init}.json").read_bytes()
    jsonschema.validate(json.loads(golden), SCHEMA)
    assert report.read_bytes() == golden


def test_oracle_runs_classify_once(capsys, monkeypatch, tmp_path):
    import lrucheck.classify

    calls = []
    real = lrucheck.classify.classify_all

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr("lrucheck.classify.classify_all", counting)
    monkeypatch.setattr("lrucheck.cli.classify_all", counting)
    path = miss_graph_file(tmp_path)
    code, _, _ = run_cli(
        capsys, "verify", str(path), *LOOP_FLAGS, "--out", str(tmp_path / "v.json")
    )
    assert (code, len(calls)) == (0, 1)


def test_export_smv_residual_blocks(capsys, tmp_path):
    path = miss_graph_file(tmp_path)
    outdir = tmp_path / "smv"
    code, out, err = run_cli(
        capsys, "export-smv", str(path), *LOOP_FLAGS, "--outdir", str(outdir)
    )
    assert code == 0
    # only block 0 stays unsettled by the abstract phase
    expected = outdir / "miss.set0.block0.smv"
    assert out == f"{expected}\n"
    module = parse_module(expected.read_text(encoding="utf-8"))
    assert len(module.specs) == 2  # one target access


def test_export_smv_block_override(capsys, tmp_path):
    path = miss_graph_file(tmp_path)
    outdir = tmp_path / "smv"
    code, out, err = run_cli(
        capsys, "export-smv", str(path), *LOOP_FLAGS, "--outdir", str(outdir),
        "--block", "1",
    )
    assert code == 0
    module = parse_module((outdir / "miss.set0.block1.smv").read_text(encoding="utf-8"))
    assert len(module.specs) == 4  # block 1 is accessed twice


def test_export_smv_walks_the_program_edges_once(capsys, monkeypatch, tmp_path):
    import lrucheck.cfg
    import lrucheck.cli

    calls = []
    real_out_edges = lrucheck.cfg.out_edges

    def counting_out_edges(g):
        calls.append(g)
        return real_out_edges(g)

    for module in (lrucheck.cfg, lrucheck.cli):
        monkeypatch.setattr(module, "out_edges", counting_out_edges)
    path = miss_graph_file(tmp_path)
    code, out, err = run_cli(
        capsys, "export-smv", str(path), "--assoc", "2", "--sets", "2", "--block-size", "8",
        "--mode", "mc-only", "--outdir", str(tmp_path / "smv"),
    )
    assert (code, err) == (0, "")
    assert len(out.split()) == 4  # blocks 0 and 2 in set 0, 1 and 3 in set 1
    # One walk of the program's edges, which every set's skeleton shares;
    # each model renders its projection's edges as they are.
    assert len(calls) == 1


def test_export_smv_unknown_block(capsys, tmp_path):
    path = miss_graph_file(tmp_path)
    code, out, err = run_cli(
        capsys, "export-smv", str(path), *LOOP_FLAGS, "--outdir", str(tmp_path),
        "--block", "9",
    )
    assert code == 2
    assert "accessed block indexes: 0, 1, 2, 3" in err


def test_export_smv_escapes_control_characters_in_comments(capsys, tmp_path):
    evil = "x\nINVARSPEC FALSE;"
    path = tmp_path / "evil.json"
    path.write_text(cfg_text("a", ["a", evil, "c"], [("a", evil, 0), (evil, "c", 8)]),
                    encoding="utf-8")
    outdir = tmp_path / "smv"
    code, out, err = run_cli(
        capsys, "export-smv", str(path), *LOOP_FLAGS, "--mode", "mc-only", "--outdir", str(outdir)
    )
    assert (code, err) == (0, "")
    labels = {"block0": "a->x\\nINVARSPEC FALSE;:b0#0", "block1": "x\\nINVARSPEC FALSE;->c:b1#0"}
    assert len(out.split()) == len(labels)
    for block, label in labels.items():
        text = (outdir / f"evil.set0.{block}.smv").read_text(encoding="utf-8")
        # one target access: its two checks, each under its escaped label
        assert len(parse_module(text).specs) == 2, text
        assert text.count(f"-- access {label}: always-") == 2, text


@pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", ".", "..", "nul\0"])
def test_export_smv_rejects_names_that_leave_outdir(capsys, tmp_path, name):
    path = tmp_path / "prog.json"
    path.write_text(cfg_text("a", ["a", "b"], [("a", "b", 0)], name=name), encoding="utf-8")
    outdir = tmp_path / "deep" / "out"
    code, out, err = run_cli(
        capsys, "export-smv", str(path), "--mode", "mc-only", "--sets", "1",
        "--outdir", str(outdir),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: program name ") and err.count("\n") == 1, err
    assert not (tmp_path / "deep").exists()
    # a report names no file after the program
    code, out, err = run_cli(capsys, "analyze", str(path), "--mode", "mc-only")
    assert (code, err) == (0, "")
    assert json.loads(out)["input"]["name"] == name


def test_gen_writes_programs(capsys, tmp_path):
    outdir = tmp_path / "corpus"
    code, out, err = run_cli(
        capsys, "gen", "--outdir", str(outdir), "--seed", "5", "--count", "3",
        "--gen-vertices", "8",
    )
    assert code == 0
    names = sorted(p.name for p in outdir.glob("*.json"))
    assert names == ["gen5.json", "gen6.json", "gen7.json"]
    assert out.splitlines() == [str(outdir / n) for n in names]
    from lrucheck.bench import DEFAULT_CONFIG
    from lrucheck.cfg import load_cfg

    for n in names:
        g = load_cfg(str(outdir / n), DEFAULT_CONFIG)
        assert g.name == n[:-5]


def test_gen_infeasible_spec(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "gen", "--outdir", str(tmp_path), "--gen-vertices", "4",
        "--gen-loops", "2",
    )
    assert code == 2
    assert err.startswith("error:")


def test_bench_end_to_end(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    code, _, _ = run_cli(
        capsys, "gen", "--outdir", str(corpus), "--seed", "0", "--count", "3",
        "--gen-vertices", "8", "--gen-blocks", "3",
    )
    assert code == 0
    csv1 = tmp_path / "b1.csv"
    args = ["bench", "--corpus", str(corpus), "--assoc", "2", "--sets", "1",
            "--block-size", "32", "--modes", "ai+mc,mc-only,ai-only"]
    code, out, err = run_cli(capsys, *args, "--out", str(csv1))
    assert code == 0
    assert f"wrote 9 rows to {csv1}" in out
    assert "ai+mc: 3 programs" in out

    with open(csv1, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    assert sorted({r["seed"] for r in rows}) == ["0", "1", "2"]  # seeds from file names
    assert all(r["k"] == "2" and r["sets"] == "1" for r in rows)

    csv2 = tmp_path / "b2.csv"
    code, out2, err = run_cli(capsys, *args, "--out", str(csv2))
    assert code == 0
    assert csv1.read_bytes() == csv2.read_bytes()


def test_bench_missing_corpus(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "bench", "--corpus", str(tmp_path / "nope"), "--out",
        str(tmp_path / "x.csv"),
    )
    assert code == 4


def test_bench_empty_corpus(capsys, tmp_path):
    corpus = tmp_path / "empty"
    corpus.mkdir()
    code, out, err = run_cli(
        capsys, "bench", "--corpus", str(corpus), "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert "no .json programs" in err


def test_bench_unknown_mode(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    run_cli(capsys, "gen", "--outdir", str(corpus), "--count", "1")
    code, out, err = run_cli(
        capsys, "bench", "--corpus", str(corpus), "--modes", "warp-speed",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "unknown mode" in err


def test_bench_repeated_mode(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    run_cli(capsys, "gen", "--outdir", str(corpus), "--count", "2")
    out_csv = tmp_path / "x.csv"
    code, out, err = run_cli(
        capsys, "bench", "--corpus", str(corpus), "--modes", "ai+mc,ai+mc,mc-only",
        "--out", str(out_csv),
    )
    assert (code, out) == (2, "")
    assert err == "error: --modes names ai+mc more than once\n"
    assert not out_csv.exists()


def test_bench_repeated_program_name(capsys, tmp_path):
    # Two files that carry the same JSON "name": the summary keys rows by
    # name, so one program would silently drop out of the focused-run ratio.
    corpus = tmp_path / "corpus"
    run_cli(capsys, "gen", "--outdir", str(corpus), "--count", "2")
    renamed = json.loads((corpus / "gen1.json").read_text(encoding="utf-8"))
    renamed["name"] = "gen0"
    (corpus / "gen1.json").write_text(json.dumps(renamed), encoding="utf-8")
    out_csv = tmp_path / "x.csv"
    code, out, err = run_cli(
        capsys, "bench", "--corpus", str(corpus), "--out", str(out_csv),
    )
    assert (code, out) == (2, "")
    first, second = corpus / "gen0.json", corpus / "gen1.json"
    assert err == f"error: {first} and {second} both name their program 'gen0'\n"
    assert not out_csv.exists()


def test_config_file_defaults_and_override(capsys, tmp_path):
    cfg = tmp_path / "defaults.conf"
    cfg.write_text(
        "# analysis defaults\nassoc = 2\nsets = 1\nblock-size = 8\nmode = mc-only\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(
        capsys, "analyze", str(LOOP_JSON), "--config", str(cfg)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["associativity"] == 2
    assert doc["config"]["mode"] == "mc-only"

    code, out, err = run_cli(
        capsys, "analyze", str(LOOP_JSON), "--config", str(cfg), "--mode", "ai+mc"
    )
    assert json.loads(out)["config"]["mode"] == "ai+mc"  # flags beat the file


def _smv_files(outdir):
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize("key", ["no-simplify", "timings"])
def test_boolean_config_values(capsys, tmp_path, key):
    """Boolean keys take 1/true/yes/on and 0/false/no/off in any case; a typo is exit 2."""
    straight = REPO / "docs" / "examples" / "straightline.json"

    def run(value, tag):
        conf = tmp_path / f"{tag}.conf"
        conf.write_text(f"{key} = {value}\n", encoding="utf-8")
        if key == "no-simplify":
            outdir = tmp_path / tag
            code, out, err = run_cli(capsys, "export-smv", str(straight), *LOOP_FLAGS,
                                     "--block", "0", "--outdir", str(outdir),
                                     "--config", str(conf))
            return code, err, (_smv_files(outdir) if code == 0 else None)
        code, out, err = run_cli(capsys, "analyze", str(LOOP_JSON), *LOOP_FLAGS,
                                 "--config", str(conf))
        if code != 0:
            return code, err, None
        return code, err, json.loads(out)["stats"]["timings_ms"]["ai"] > 0

    results = {}
    for i, value in enumerate(["1", "TRUE", "Yes", "on", "0", "False", "NO", "Off"]):
        code, err, seen = run(value, f"v{i}")
        assert (code, err) == (0, ""), value
        results.setdefault(value.lower() in ("1", "true", "yes", "on"), []).append(seen)
    for spelling in results.values():
        assert all(seen == spelling[0] for seen in spelling)
    assert results[True][0] != results[False][0]

    for typo in ("ture", "2", ""):
        code, err, _ = run(typo, "typo")
        dest = key.replace("-", "_")
        assert (code, err) == (2, f"error: config option {dest}: bad value {typo!r}\n"), typo
        assert not (tmp_path / "typo").exists()


def test_config_file_errors(capsys, tmp_path):
    bad_key = tmp_path / "bad_key.conf"
    bad_key.write_text("warp = 9\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", str(LOOP_JSON), "--config", str(bad_key))
    assert code == 2
    assert "unknown option" in err

    # only export-smv prunes its models
    no_simplify = tmp_path / "no_simplify.conf"
    no_simplify.write_text("no-simplify = true\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(LOOP_JSON), "--config", str(no_simplify))
    assert (code, out) == (2, "")
    assert err == f"error: {no_simplify}:1: unknown option 'no-simplify'\n"

    # a key of a flag the subcommand does not read is unknown too
    unread_key = tmp_path / "smv.conf"
    unread_key.write_text("budget-oracle = 5\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "export-smv", str(LOOP_JSON), "--config", str(unread_key),
                             "--outdir", str(tmp_path / "out"))
    assert code == 2
    assert out == ""
    assert err == f"error: {unread_key}:1: unknown option 'budget-oracle'\n"
    assert not (tmp_path / "out").exists()

    bad_value = tmp_path / "bad_value.conf"
    bad_value.write_text("assoc = abc\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", str(LOOP_JSON), "--config", str(bad_value))
    assert code == 2
    assert "bad value" in err

    bad_choice = tmp_path / "bad_choice.conf"
    bad_choice.write_text("mode = warp\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", str(LOOP_JSON), "--config", str(bad_choice))
    assert code == 2

    code, _, err = run_cli(
        capsys, "analyze", str(LOOP_JSON), "--config", str(tmp_path / "missing.conf")
    )
    assert code == 4

    not_utf8 = tmp_path / "not_utf8.conf"
    not_utf8.write_bytes(b"mode = ai+mc\n\xff\n")
    code, out, err = run_cli(capsys, "analyze", str(LOOP_JSON), "--config", str(not_utf8))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {not_utf8}: not valid UTF-8: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("analyze", "help", "1"),
        ("analyze", "config", "/nonexistent.conf"),
        ("analyze", "input", "x.json"),
        ("bench", "corpus", "corpus"),
    ],
)
def test_config_rejects_keys_a_default_cannot_set(capsys, tmp_path, command, key, value):
    """Only optional, non-required flags other than --help and --config are config keys."""
    conf = tmp_path / "bad.conf"
    conf.write_text(f"{key} = {value}\n", encoding="utf-8")
    out_file = tmp_path / "out.file"
    if command == "bench":
        argv = ["bench", "--corpus", str(REPO / "docs" / "examples"), "--out", str(out_file)]
    else:
        argv = ["analyze", str(LOOP_JSON), "--out", str(out_file)]
    code, out, err = run_cli(capsys, *argv, "--config", str(conf))
    assert (code, out) == (2, "")
    assert err == f"error: {conf}:1: option {key!r} cannot be set in a config file\n"
    assert not out_file.exists()


def test_budget_exit_codes(capsys, tmp_path):
    path = miss_graph_file(tmp_path)
    code, out, err = run_cli(
        capsys, "analyze", str(path), *LOOP_FLAGS, "--mode", "mc-only",
        "--budget-mc", "1",
    )
    assert code == 3
    assert "raise --budget-mc" in err

    code, out, err = run_cli(capsys, "verify", str(path), *LOOP_FLAGS, "--budget-oracle", "2")
    assert (code, out) == (3, "")
    assert "raise --budget-oracle" in err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("analyze", "--budget-mc", "0"),
        ("verify", "--budget-mc", "-5"),
        ("verify", "--budget-oracle", "0"),
        ("gen", "--count", "-3"),
        ("gen", "--count", "0"),
    ],
)
def test_budgets_and_counts_below_one_are_usage_errors(capsys, tmp_path, command, flag, value):
    out_path = str(tmp_path / "out")
    if command == "gen":
        argv = ["gen", "--outdir", out_path]
    else:
        argv = [command, str(LOOP_JSON), "--out", out_path]
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be at least 1, got {value}\n"
    assert not (tmp_path / "out").exists()


def test_focused_budget_bounds_unknown_seeds(capsys, tmp_path):
    # One 6-way set over 40 blocks: an unknown cache may hold each focus
    # behind any of Σ_{c<=5} C(39, c) = 667,928 younger-sets, but a search
    # starts from two seeds, 0 and epsilon, so the default budget finishes
    # at once, and a small budget still stops the search itself.
    run_cli(capsys, "gen", "--seed", "3", "--gen-vertices", "120", "--gen-loops", "10",
            "--gen-blocks", "40", "--outdir", str(tmp_path))
    argv = ["analyze", str(tmp_path / "gen3.json"), "--init", "unknown", "--sets", "1",
            "--assoc", "6", "--mode", "mc-only"]
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert (code, err) == (0, "")
    stats = json.loads(out)["stats"]
    assert stats["focused_runs"] == 39
    assert stats["states_explored"] < 39 * 2 * 120

    code, out, err = run_cli(capsys, *argv, "--budget-mc", "100")
    assert (code, out) == (3, "")
    assert err.startswith("error: focused search needs more than 100") and err.count("\n") == 1


def test_focused_budget_bounds_a_seed_deeper_than_the_stack(capsys, tmp_path):
    # A straight line of 1,100 distinct blocks in one 2048-way set, where the
    # old seed enumeration grew younger-sets deeper than Python's recursion
    # limit.  Each search now holds at most two states per vertex, so 5000
    # pairs suffice; 1000 stop the search with the budget error.
    n = 1100
    path = tmp_path / "line.json"
    path.write_text(cfg_text(
        "v0", [f"v{i}" for i in range(n + 1)], [(f"v{i}", f"v{i + 1}", 8 * i) for i in range(n)]
    ), encoding="utf-8")
    argv = ["analyze", str(path), "--assoc", "2048", "--sets", "1", "--block-size", "8",
            "--init", "unknown", "--mode", "mc-only", "--out", str(tmp_path / "line.report")]
    code, out, err = run_cli(capsys, *argv, "--budget-mc", "5000")
    assert (code, out, err) == (0, "", "")
    code, out, err = run_cli(capsys, *argv, "--budget-mc", "1000")
    assert (code, out) == (3, "")
    assert err.startswith("error: focused search needs more than 1000") and err.count("\n") == 1


def test_set_count_does_not_set_the_cost(capsys, tmp_path):
    # Only the sets some access maps to are visited: 2**30 sets cost what 1 does.
    t0 = time.perf_counter()
    code, out, err = run_cli(
        capsys, "analyze", str(LOOP_JSON), "--sets", str(2**30),
        "--out", str(tmp_path / "report.json"),
    )
    assert time.perf_counter() - t0 < 1.0
    assert (code, out, err) == (0, "", "")
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["config"]["num_sets"] == 2**30
    assert report["stats"]["accesses"] == 2


def test_deep_json_nesting_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out, err) == (2, "", "error: JSON nesting too deep\n")


#: `analyze` reports of three generated programs per mode and initial cache:
#: sha256 and `stats` block, recorded before the focused search moved to
#: int states, and re-recorded when unknown-cache searches started from two
#: seeds, with only `states_explored` changed.  Larger graphs than
#: docs/examples pin `states_explored`.
GENERATED = json.loads((GOLDEN / "generated.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def generated_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("generated")
    seeds = GENERATED["seeds"]
    code = main(["gen", "--seed", str(seeds[0]), "--count", str(len(seeds)),
                 *GENERATED["gen"], "--outdir", str(out)])
    assert code == 0
    return out


@pytest.mark.parametrize("key", sorted(GENERATED["reports"]))
def test_generated_golden_reports(capsys, generated_dir, key):
    capsys.readouterr()
    program, mode, init = key.split(".", 2)
    code, out, err = run_cli(
        capsys, "analyze", str(generated_dir / f"{program}.json"), *GENERATED["analyze"],
        "--mode", mode, "--init", init,
    )
    assert code == 0
    want = GENERATED["reports"][key]
    assert json.loads(out)["stats"] == want["stats"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want["sha256"]


#: sha256 of every `export-smv` file of docs/examples with LOOP_FLAGS, per
#: mode, initial cache and simplification, for the residual blocks and for
#: each `--block`, recorded before the focused models lost their live sets.
SMV = json.loads((GOLDEN / "smv.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("simplify", ["simplify", "no-simplify"])
@pytest.mark.parametrize("init", ["empty", "unknown"])
@pytest.mark.parametrize("mode", ["ai-only", "ai+mc", "mc-only", "ai+mc-no-du"])
@pytest.mark.parametrize("example", ["loop", "straightline"])
def test_golden_smv_exports(capsys, tmp_path, example, mode, init, simplify):
    case = f"{example}.{mode}.{init}.{simplify}"
    keys = [k for k in SMV["exports"] if k == case or k.startswith(case + ".block")]
    assert keys
    for key in keys:
        extra = ["--no-simplify"] if simplify == "no-simplify" else []
        if key != case:
            extra += ["--block", key.rsplit(".block", 1)[1]]
        outdir = tmp_path / key
        code, out, err = run_cli(
            capsys, "export-smv", str(REPO / "docs" / "examples" / f"{example}.json"),
            *SMV["export"], "--mode", mode, "--init", init, *extra, "--outdir", str(outdir),
        )
        assert (code, err) == (0, "")
        got = {
            Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for p in out.split()
        }
        assert got == SMV["exports"][key], key


def test_input_error_exit_codes(capsys, tmp_path):
    code, out, err = run_cli(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 4
    assert err.startswith("error:")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert err.startswith("error:")

    bad_config = tmp_path / "ok.json"
    bad_config.write_text(cfg_text("a", ["a"], []), encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(bad_config), "--assoc", "0")
    assert code == 2


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--gen-vertices", "1"),
        ("--gen-branch-p", "2"),
        ("--gen-access-p", "-0.5"),
        ("--gen-blocks", "0"),
        ("--block-size", "12"),
    ],
)
def test_gen_range_errors_are_usage_errors(capsys, tmp_path, flag, value):
    code, out, err = run_cli(capsys, "gen", "--outdir", str(tmp_path / "out"), flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists() or not os.listdir(tmp_path / "out")


#: The long options of each subcommand: exactly the flags it reads.
FLAG_SETS = {
    "analyze": {
        "--assoc", "--sets", "--block-size", "--init", "--budget-mc", "--config", "--mode",
        "--out", "--timings",
    },
    "verify": {
        "--assoc", "--sets", "--block-size", "--init", "--budget-mc", "--budget-oracle",
        "--config", "--mode", "--out",
    },
    "export-smv": {
        "--assoc", "--sets", "--block-size", "--init", "--config", "--mode", "--no-simplify",
        "--outdir", "--block",
    },
    "gen": {
        "--seed", "--count", "--outdir", "--gen-vertices", "--gen-loops", "--gen-depth",
        "--gen-branch-p", "--gen-blocks", "--gen-access-p", "--block-size", "--config",
    },
    "bench": {
        "--corpus", "--modes", "--assoc", "--sets", "--block-size", "--init", "--budget-mc",
        "--config", "--out", "--timings",
    },
}


def test_subcommand_flag_sets():
    _, commands = build_parser()
    accepted = {
        name: {
            flag for action in sub._actions for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        for name, sub in commands.items()
    }
    assert accepted == FLAG_SETS


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["export-smv", str(LOOP_JSON)], ["--budget-mc", "5"]),
        (["export-smv", str(LOOP_JSON)], ["--budget-oracle", "5"]),
        (["analyze", str(LOOP_JSON)], ["--with-oracle"]),
        (["analyze", str(LOOP_JSON)], ["--budget-oracle", "5"]),
        (["bench", "--corpus", str(LOOP_JSON.parent)], ["--budget-oracle", "5"]),
        (["gen"], ["--sets", "8"]),
        (["analyze", str(LOOP_JSON)], ["--no-simplify"]),
        (["verify", str(LOOP_JSON)], ["--no-simplify"]),
        (["bench", "--corpus", str(LOOP_JSON.parent)], ["--no-simplify"]),
    ],
    ids=["export-smv-budget-mc", "export-smv-budget-oracle", "analyze-with-oracle",
         "analyze-budget-oracle", "bench-budget-oracle", "gen-sets", "analyze-no-simplify",
         "verify-no-simplify", "bench-no-simplify"],
)
def test_flags_a_subcommand_does_not_read_are_rejected(
    capsys, tmp_path, monkeypatch, argv, unread
):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, *unread)
    assert (code, out) == (2, "")
    assert err == f"error: unrecognized arguments: {' '.join(unread)}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--gen-vertices", "x"], "argument --gen-vertices: invalid int value: 'x'"),
        (["analyze", "x.json", "--assoc", "x"], "argument --assoc: invalid int value: 'x'"),
        (["analyze", "x.json", "--mode", "warp"], "argument --mode: invalid choice: 'warp'"),
        (["verify"], "the following arguments are required: input"),
        (["analyze", "x.json", "--warp"], "unrecognized arguments: --warp"),
        ([], "the following arguments are required: command"),
    ],
)
def test_argparse_usage_errors_are_one_line(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_only_verify_reads_oracle_config_keys(capsys, tmp_path):
    for line in ("with-oracle = true", "budget-oracle = 5"):
        conf = tmp_path / "analyze.conf"
        conf.write_text(line + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", str(LOOP_JSON), "--config", str(conf))
        assert (code, out) == (2, "")
        assert err == f"error: {conf}:1: unknown option {line.split(' = ')[0]!r}\n"

    conf.write_text("budget-oracle = 5\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(LOOP_JSON), *LOOP_FLAGS,
                             "--config", str(conf))
    assert code == 3  # read, and too small for loop.json
    assert "raise --budget-oracle" in err


def test_log_level_variable(tmp_path):
    path = miss_graph_file(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "lrucheck.cli", "analyze", str(path), *LOOP_FLAGS],
        capture_output=True, text=True, env=dict(os.environ, LRUCHECK_LOG="debug"),
    )
    assert proc.returncode == 0
    assert "DEBUG lrucheck.classify: focused run" in proc.stderr


def test_bad_log_level_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("LRUCHECK_LOG", "verbose")
    code, out, err = run_cli(capsys, "analyze", str(LOOP_JSON), *LOOP_FLAGS)
    assert code == 2
    assert out == ""
    assert err == (
        "error: LRUCHECK_LOG='verbose' is not a log level; "
        "use warning, info, debug, 0, 1 or 2\n"
    )


def test_unknown_subcommand_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "frobnicate")
    assert code == 2
    assert out == ""
    assert err.startswith("error: argument command: invalid choice: 'frobnicate'")
    assert err.count("\n") == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lrucheck.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "usage: lrucheck" in proc.stdout


def test_package_entry_point_from_source_checkout():
    src = str(REPO / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "lrucheck", "--help"],
        capture_output=True, text=True, cwd=REPO, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: lrucheck")


def test_reimport_frees_previous_package():
    # Re-importing lrucheck must not keep the previous copy's classes alive
    # (module-level typing.Union aliases of them once did, through typing's
    # process-wide cache).
    code = (
        "import gc, importlib, sys, weakref\n"
        "def fresh():\n"
        "    for n in [n for n in sys.modules if n.split('.')[0] == 'lrucheck']:\n"
        "        del sys.modules[n]\n"
        "    importlib.import_module('lrucheck.cli')\n"
        "    return sys.modules\n"
        "mods = fresh()\n"
        "old = [weakref.ref(mods['lrucheck.cfg'].Cfg), weakref.ref(mods['lrucheck.focused'].FocusedModel)]\n"
        "fresh()\n"
        "gc.collect()\n"
        "sys.exit(sum(r() is not None for r in old))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
