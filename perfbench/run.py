"""Benchmark of the lrucheck CLI on pinned workloads.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-loops --seed 1 --seconds 60 --trace 0

The benchmark imports lrucheck from `src/` next to this directory and calls
`lrucheck.cli.main` in-process, one program at a time, in whole passes over
the workload's corpus (call order shuffled by `--seed`) until `--seconds` would
be exceeded.  After the timed loop it computes the exact oracle reference with
`concrete.collecting_semantics` and `exact_classify`, untimed (and cached per
corpus digest and lrucheck source), and compares every access of every
`--out` report against it.

`--trace 0` prints the end-to-end metrics: `program_s_p50` (median wall time
of one call), `accesses_per_s`, `peak_rss_mb` (peak resident memory of this
process) and `setup_s` (median of the set-ups, each importing lrucheck
afresh and generating the corpus: a few before the timed loop and one before
every pass, which the timed loop does not count).  `--trace 1` alternates untraced and traced
passes and prints the per-layer metrics of the traced passes, per corpus pass,
plus `trace.overhead_share`, the traced over the untraced pass time minus one.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Exit status 2 means the benchmark could
not run (no lrucheck sources, or a pinned corpus whose digest changed).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Optional

from tracing import Tracer
from workloads import ASSOCIATIVITY, BLOCK_SIZE, WORKLOADS, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

#: Set-ups before the timed loop; one more runs before every pass, so the
#: `setup_s` samples spread over the run and one cold import does not count.
SETUP_BEFORE = 4
#: (vertex, state) pair budget of the oracle reference, far above any workload.
ORACLE_BUDGET = 10**8


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Call:
    program: int
    traced: bool
    wall_s: float
    verdicts: Optional[tuple]  # None: the call exited non-zero or raised


def _import_cli():
    """Import lrucheck.cli from SRC, dropping any earlier import of the package."""
    for name in [n for n in sys.modules if n == "lrucheck" or n.startswith("lrucheck.")]:
        del sys.modules[name]
    cli = importlib.import_module("lrucheck.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"lrucheck was imported from {cli.__file__}, not from {SRC}")
    return cli


def _make_corpus(cli, wl: Workload, first_seed: int, corpus_dir: str) -> tuple[list[str], str]:
    """Generate the corpus with `lrucheck gen`; returns its paths and digest."""
    shutil.rmtree(corpus_dir, ignore_errors=True)
    argv = ["gen", "--seed", str(first_seed), "--count", str(wl.count), "--outdir", corpus_dir, *wl.gen]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise BenchError(f"lrucheck gen exited {rc}")
    digest = hashlib.sha256()
    paths = []
    for seed in range(first_seed, first_seed + wl.count):
        name = f"gen{seed}.json"
        path = os.path.join(corpus_dir, name)
        with open(path, "rb") as fh:
            digest.update(name.encode() + b"\n" + fh.read())
        paths.append(path)
    return paths, digest.hexdigest()


class Setup:
    """One set-up: import lrucheck afresh and generate the corpus; records each one's time.

    The digest of the first corpus must equal `pinned` when given; every later
    set-up must reproduce the first digest.
    """

    def __init__(self, wl: Workload, first_seed: int, work: str, pinned: Optional[str]):
        self.wl = wl
        self.first_seed = first_seed
        self.corpus_dir = os.path.join(work, "corpus")
        self.digest = pinned
        self.paths: list[str] = []
        self.times: list[float] = []

    def __call__(self):
        t0 = time.perf_counter()
        cli = _import_cli()
        self.paths, digest = _make_corpus(cli, self.wl, self.first_seed, self.corpus_dir)
        self.times.append(time.perf_counter() - t0)
        if self.digest is None:
            self.digest = digest
        if digest != self.digest:
            raise BenchError(f"corpus digest {digest} differs from the expected {self.digest}")
        return cli


def _cli_argv(wl: Workload, path: str, out: str) -> list[str]:
    argv = [wl.command, path, "--sets", str(wl.sets), "--init", wl.init]
    if wl.mode is not None:
        argv += ["--mode", wl.mode]
    return argv + ["--out", out]


def _read_verdicts(path: str) -> tuple:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return tuple((a["id"], a["verdict"]) for a in doc["accesses"])


def _timed_loop(setup: Setup, wl: Workload, work: str, seed: int, seconds: float,
                tracer: Optional[Tracer]) -> list[Call]:
    """Whole shuffled passes over the corpus, each after a fresh set-up.

    Only the passes count towards `seconds`.  Traced runs alternate untraced
    and traced passes.
    """
    rng = random.Random(seed)
    out = os.path.join(work, "report.json")
    interned: dict[tuple, tuple] = {}
    calls: list[Call] = []
    min_passes = 1 if tracer is None else 2
    passes = 0
    measured = 0.0
    with contextlib.redirect_stdout(io.StringIO()) as sink:
        while True:
            cli = setup()
            paths = setup.paths
            pass_start = time.perf_counter()
            traced = tracer is not None and passes % 2 == 1
            if traced:
                tracer.install()
            try:
                for i in rng.sample(range(len(paths)), len(paths)):
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(out)
                    argv = _cli_argv(wl, paths[i], out)
                    rc: Optional[int] = None
                    t0 = time.perf_counter()
                    try:
                        rc = tracer.call("cli.main", cli.main, argv) if traced else cli.main(argv)
                    except (Exception, SystemExit):  # a crash counts as a failed call
                        traceback.print_exc()
                    wall = time.perf_counter() - t0
                    verdicts = None
                    if rc == 0:
                        verdicts = _read_verdicts(out)
                        verdicts = interned.setdefault(verdicts, verdicts)
                    calls.append(Call(i, traced, wall, verdicts))
                    sink.seek(0)
                    sink.truncate()
            finally:
                if traced:
                    tracer.uninstall()
            measured += time.perf_counter() - pass_start
            passes += 1
            if passes >= min_passes and measured * (passes + 1) / passes > seconds:
                return calls


def _reference(path: str, wl: Workload) -> dict[str, str]:
    """Exact verdict of every access, label -> verdict, from the concrete oracle."""
    cfg = sys.modules["lrucheck.cfg"]
    concrete = sys.modules["lrucheck.concrete"]
    config = cfg.CacheConfig(associativity=ASSOCIATIVITY, num_sets=wl.sets, block_size=BLOCK_SIZE)
    init = concrete.InitMode(wl.init)
    g = cfg.load_cfg(path, config)
    ref = {}
    for s in range(wl.sets):
        pg = cfg.project(g, s, config)
        accesses = cfg.accesses_of(pg)
        if not accesses:
            continue
        space = concrete.StateSpace(k=ASSOCIATIVITY, blocks=cfg.block_universe(pg))
        reach = concrete.collecting_semantics(pg, space, init, budget=ORACLE_BUDGET)
        for a in accesses:
            ref[a.label] = concrete.exact_classify(space, reach, a).value
    return ref


def _references(paths: list[str], wl: Workload, digest: str, work: str) -> list[dict[str, str]]:
    """Oracle references for the corpus, cached per corpus digest and lrucheck source."""
    source = hashlib.sha256()
    package = os.path.join(SRC, "lrucheck")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                source.update(name.encode() + b"\n" + fh.read())
    cache = os.path.join(work, f"reference-{digest[:16]}-{source.hexdigest()[:16]}.json")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8") as fh:
            return json.load(fh)
    refs = [_reference(p, wl) for p in paths]
    with open(cache, "w", encoding="utf-8") as fh:
        json.dump(refs, fh)
    return refs


def _mismatches(verdicts: tuple, ref: dict[str, str]) -> int:
    got = dict(verdicts)
    return sum(got.get(label) != v for label, v in ref.items()) + sum(label not in ref for label in got)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="shuffles the call order")
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus-seed", type=int, default=None,
                    help="first generator seed (default: the workload's pinned seed)")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    first_seed = wl.first_seed if args.corpus_seed is None else args.corpus_seed
    work = os.path.join(WORK, wl.name)

    tracer = Tracer() if args.trace else None
    setup = Setup(wl, first_seed, work, wl.digest if args.corpus_seed is None else None)
    try:
        if not os.path.isfile(os.path.join(SRC, "lrucheck", "__init__.py")):
            raise BenchError(f"no lrucheck sources under {SRC}")
        sys.path.insert(0, SRC)
        os.makedirs(work, exist_ok=True)
        for _ in range(SETUP_BEFORE):
            setup()
        calls = _timed_loop(setup, wl, work, args.seed, args.seconds, tracer)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    paths, digest = setup.paths, setup.digest
    refs = _references(paths, wl, digest, work)
    mismatch_cache: dict[tuple[int, int], int] = {}
    mismatches = failed = 0
    for c in calls:
        if c.verdicts is None:
            failed += 1
            continue
        key = (c.program, id(c.verdicts))
        if key not in mismatch_cache:
            mismatch_cache[key] = _mismatches(c.verdicts, refs[c.program])
        mismatches += mismatch_cache[key]
        failed += mismatch_cache[key] > 0

    untraced = [c for c in calls if not c.traced]
    sys.stdout.write(
        f"{wl.name}: corpus {first_seed}..{first_seed + wl.count - 1} digest {digest[:12]}, "
        f"call-order seed {args.seed}; {len(calls)} calls ({len(untraced)} untraced samples); "
        f"verdict_mismatch {mismatches}, failed_share {failed / len(calls)}; "
        f"os.cpu_count() {os.cpu_count()}, Python {platform.python_version()}\n"
    )
    if tracer is None:
        wall = sum(c.wall_s for c in untraced)
        accesses = sum(len(c.verdicts) for c in untraced if c.verdicts is not None)
        metrics = {
            "program_s_p50": (statistics.median(c.wall_s for c in untraced), "s"),
            "accesses_per_s": (accesses / wall, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup.times), "s"),
        }
    else:
        traced = [c for c in calls if c.traced]
        n_traced = len(traced) // len(paths)
        n_untraced = len(untraced) // len(paths)
        overhead = (sum(c.wall_s for c in traced) / n_traced) / (sum(c.wall_s for c in untraced) / n_untraced) - 1
        metrics = tracer.summary(n_traced)
        metrics["trace.overhead_share"] = (overhead, "share")
        for name in sorted(tracer.missing):
            sys.stdout.write(f"traced function {name} not found; its metrics are absent\n")
        with open(os.path.join(work, f"spans-seed{args.seed}.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
