"""Synthetic program generation and the benchmark harness.

The generator builds connected control-flow graphs from a seeded RNG out of
three constructs (straight edges, branch diamonds, natural loops), so the same
GenSpec always yields the same graph.  Loop bodies re-access at least two
distinct blocks when the universe allows, which is the shape that makes cache
classification interesting: the second iteration hits where the first missed.
Each program is built once, as a CFG JSON document: `generate_json` writes
that document as built, and `generate` parses it into a `Cfg`.

The harness runs the classification pipeline over a corpus in several modes
and emits one CSV row per (program, mode) with verdict, provenance and work
counters, so modes can be compared program by program.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import random
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .cfg import CacheConfig, Cfg, parse_cfg
from .classify import ClassifyResult, Mode, Provenance, classify_all
from .concrete import InitMode
from .focused import DEFAULT_MC_BUDGET, FocusedCapacityError
from .report import dumps_indented

log = logging.getLogger(__name__)

#: Instruction-cache-like default geometry: 4 ways, 8 sets, 32-byte lines
#: (eight 4-byte instructions per line).
DEFAULT_CONFIG = CacheConfig(associativity=4, num_sets=8, block_size=32)


class GenError(Exception):
    """The generator budget cannot accommodate the requested shape."""


@dataclass(frozen=True)
class GenSpec:
    """Knobs for one synthetic program.

    vertices: total vertex budget (the generator never exceeds it).
    loops: how many natural loops to build (nested up to `depth`).
    depth: maximum loop nesting depth.
    branch_p: probability of a branch diamond at each step.
    blocks: size of the block universe accesses are drawn from.
    access_p: probability that a generated edge carries an access.
    seed: RNG seed; same spec, same graph.
    """

    vertices: int = 10
    loops: int = 1
    depth: int = 1
    branch_p: float = 0.3
    blocks: int = 4
    access_p: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vertices < 2:
            raise ValueError(f"vertex budget must be >= 2, got {self.vertices}")
        if self.loops < 0 or self.depth < 0:
            raise ValueError("loops and depth must be non-negative")
        if self.blocks < 1:
            raise ValueError(f"block universe must be >= 1, got {self.blocks}")
        for name, p in (("branch_p", self.branch_p), ("access_p", self.access_p)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {p}")


_LOOP_COST = 3  # header plus two body vertices


class _Builder:
    def __init__(self, spec: GenSpec, config: CacheConfig):
        self.spec = spec
        self.config = config
        self.rng = random.Random(spec.seed)
        self.vertices = ["v0"]
        self.edges: list[dict] = []

    def new_vertex(self) -> str:
        name = f"v{len(self.vertices)}"
        self.vertices.append(name)
        return name

    def add_edge(self, src: str, dst: str, block: Optional[int] = None, maybe: bool = True) -> None:
        if block is None and maybe and self.rng.random() < self.spec.access_p:
            block = self.rng.randrange(self.spec.blocks)
        access = None if block is None else block * self.config.block_size
        self.edges.append({"from": src, "to": dst, "access": access})

    def budget_left(self) -> int:
        return self.spec.vertices - len(self.vertices)

    def build_loop(self, cur: str, depth: int, loops_left: int) -> tuple[str, int]:
        """One natural loop: entry edge, body with two distinct accesses, back edge."""
        rng = self.rng
        b1 = rng.randrange(self.spec.blocks)
        b2 = rng.randrange(self.spec.blocks)
        if self.spec.blocks >= 2:
            while b2 == b1:
                b2 = rng.randrange(self.spec.blocks)
        header = self.new_vertex()
        self.add_edge(cur, header)
        t1 = self.new_vertex()
        self.add_edge(header, t1, block=b1)
        loops_left -= 1
        inner_end = t1
        if depth > 1 and loops_left > 0 and self.budget_left() >= _LOOP_COST + 1:
            inner_end, loops_left = self.build_loop(t1, depth - 1, loops_left)
        t2 = self.new_vertex()
        self.add_edge(inner_end, t2, block=b2)
        self.add_edge(t2, header)  # back edge; header dominates the whole body
        return t2, loops_left

    def build(self) -> None:
        spec = self.spec
        cur = "v0"
        loops_left = spec.loops
        while self.budget_left() > 0:
            budget = self.budget_left()
            if loops_left > 0 and budget >= _LOOP_COST and spec.depth > 0:
                cur, loops_left = self.build_loop(cur, spec.depth, loops_left)
            elif budget >= 3 and self.rng.random() < spec.branch_p:
                left, right, join = self.new_vertex(), self.new_vertex(), self.new_vertex()
                self.add_edge(cur, left)
                self.add_edge(cur, right)
                self.add_edge(left, join)
                self.add_edge(right, join)
                cur = join
            else:
                nxt = self.new_vertex()
                self.add_edge(cur, nxt)
                cur = nxt


def _document(spec: GenSpec, config: CacheConfig, name: Optional[str]) -> dict:
    """The CFG JSON document of one synthetic program.

    Raises GenError when the vertex budget cannot fit the requested loops.
    """
    if spec.loops > 0 and spec.vertices < 1 + _LOOP_COST * spec.loops:
        raise GenError(
            f"vertex budget {spec.vertices} cannot fit {spec.loops} loop(s); "
            f"need at least {1 + _LOOP_COST * spec.loops}"
        )
    builder = _Builder(spec, config)
    builder.build()
    return {
        "name": name or f"gen{spec.seed}",
        "entry": "v0",
        "vertices": builder.vertices,
        "edges": builder.edges,
    }


def generate(spec: GenSpec, config: CacheConfig = DEFAULT_CONFIG, name: Optional[str] = None) -> Cfg:
    """Build one synthetic program as a parsed Cfg.

    The program is parsed from the document `generate_json` writes, so
    generated corpora on disk hold exactly the programs built here.
    Raises GenError when the vertex budget cannot fit the requested loops.
    """
    return parse_cfg(json.dumps(_document(spec, config, name)), config)


def generate_json(spec: GenSpec, config: CacheConfig = DEFAULT_CONFIG, name: Optional[str] = None) -> str:
    """The JSON document of `generate`'s program, for writing corpora to disk.

    The document is written as built, without parsing it; only the block
    size of `config` is read.  Raises GenError like `generate`.
    """
    return dumps_indented(_document(spec, config, name)) + "\n"


class ExperimentRow(NamedTuple):
    """One (program, mode) measurement; the CSV schema, column for column."""

    name: str
    seed: int
    k: int
    sets: int
    block_size: int
    mode: str
    n_access: int
    n_ah: int
    n_am: int
    n_du: int
    prov_must: int
    prov_may: int
    prov_ehem: int
    prov_mc: int
    focused_runs: int
    states_explored: int
    t_ai_ms: float
    t_mc_ms: float


CSV_COLUMNS = list(ExperimentRow._fields)


def row_from_result(
    name: str,
    seed: int,
    config: CacheConfig,
    mode: Mode,
    result: ClassifyResult,
    timings: bool = False,
) -> ExperimentRow:
    st = result.stats
    prov = st.provenance_counts
    return ExperimentRow(
        name=name,
        seed=seed,
        k=config.associativity,
        sets=config.num_sets,
        block_size=config.block_size,
        mode=mode.value,
        n_access=st.n_accesses,
        n_ah=st.verdict_counts.get("always-hit", 0),
        n_am=st.verdict_counts.get("always-miss", 0),
        n_du=st.verdict_counts.get("definitely-unknown", 0),
        prov_must=prov.get(Provenance.MUST.value, 0),
        prov_may=prov.get(Provenance.MAY.value, 0),
        prov_ehem=prov.get(Provenance.EH_EM.value, 0),
        prov_mc=st.mc_access_checks,
        focused_runs=st.focused_runs,
        states_explored=st.states_explored,
        t_ai_ms=st.t_ai_ms if timings else 0.0,
        t_mc_ms=st.t_mc_ms if timings else 0.0,
    )


def run_experiment(
    programs: Sequence[tuple[str, int, Cfg]],
    config: CacheConfig = DEFAULT_CONFIG,
    modes: Sequence[Mode] = (Mode.AI_MC, Mode.MC_ONLY),
    init: InitMode = InitMode.EMPTY,
    *,
    mc_budget: int = DEFAULT_MC_BUDGET,
    timings: bool = False,
) -> tuple[list[ExperimentRow], list[str]]:
    """Classify every program under every mode.

    Returns the rows plus a list of error descriptions for runs that blew the
    focused search budget; those runs are skipped and the experiment
    continues.  Timings are recorded only when `timings` is set, keeping
    default output reproducible.
    """
    rows: list[ExperimentRow] = []
    errors: list[str] = []
    for name, seed, g in programs:
        for mode in modes:
            try:
                result = classify_all(g, config, init, mode, mc_budget=mc_budget)
            except FocusedCapacityError as exc:
                errors.append(f"{name} [{mode.value}]: {exc}")
                log.warning("skipping %s [%s]: %s", name, mode.value, exc)
                continue
            rows.append(row_from_result(name, seed, config, mode, result, timings))
    return rows, errors


def write_csv(rows: Sequence[ExperimentRow], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)


def geometric_mean(values: Sequence[float]) -> Optional[float]:
    """Geometric mean; None when no values remain.  Zeros are dropped."""
    kept = [v for v in values if v > 0]
    if not kept:
        return None
    return math.exp(sum(math.log(v) for v in kept) / len(kept))


def summarize(rows: Sequence[ExperimentRow]) -> dict:
    """Per-mode totals plus focused-run ratios relative to the full pipeline.

    Ratios compare, program by program, how many focused searches each mode
    needed against ai+mc; the geometric mean is taken over programs where both
    sides ran at least one search.
    """
    by_mode: dict[str, dict[str, ExperimentRow]] = {}
    totals: dict[str, dict[str, int]] = {}
    for row in rows:
        by_mode.setdefault(row.mode, {})[row.name] = row
        t = totals.setdefault(
            row.mode,
            {"programs": 0, "n_access": 0, "n_ah": 0, "n_am": 0, "n_du": 0, "focused_runs": 0},
        )
        t["programs"] += 1
        t["n_access"] += row.n_access
        t["n_ah"] += row.n_ah
        t["n_am"] += row.n_am
        t["n_du"] += row.n_du
        t["focused_runs"] += row.focused_runs
    summary: dict = {"totals": totals, "focused_run_ratio_vs_ai_mc": {}}
    base = by_mode.get(Mode.AI_MC.value, {})
    for mode_name, per_prog in by_mode.items():
        if mode_name == Mode.AI_MC.value:
            continue
        ratios = []
        for name, row in per_prog.items():
            ref = base.get(name)
            if ref is not None and ref.focused_runs > 0 and row.focused_runs > 0:
                ratios.append(row.focused_runs / ref.focused_runs)
        gm = geometric_mean(ratios)
        if gm is not None:
            summary["focused_run_ratio_vs_ai_mc"][mode_name] = gm
    return summary
