"""The full classification pipeline and its differential check against the oracle.

Per cache set: run the cheap abstract analyses first, keep only the accesses
they cannot settle, then decide those exactly with one focused reachability
search per remaining block.  The abstract exists-hit/exists-miss information
both filters out accesses that are provably undecidable (no point model
checking them) and halves the work for the rest.

Both phases run on the set's access skeleton (`cfg.skeleton`): the entry
and the access sources, the only vertices either phase reads, with each
chain of no-access edges contracted.  It is built once per set from the
program's reverse post-order, computed once per program.  Must and may reach
the same bounds there as on the full successor table; the exists domains,
whose transfer is not monotone, reach sound bounds that may differ (see
`ai.fixpoint`).  The focused searches use the skeleton as it is: the
may-based pruning of `focused.simplify_for` relabels only rows whose
reachable focused states are all epsilon, so it cannot change what an
explicit search explores, and only the SMV export applies it.
"""

from __future__ import annotations

import enum
import logging
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .ai import (
    EXISTS_HIT,
    EXISTS_MISS,
    MAY,
    MUST,
    AiClassification,
    Fixpoint,
    ai_classify,
    carried,
    fixpoint,
)
from .cfg import (
    AccessId,
    Adjacency,
    CacheConfig,
    Cfg,
    MemoryBlock,
    ProjectedCfg,
    accesses_of,
    adjacency,
    block_universe,
    project,
    reverse_post_order,
    skeleton,
)
from .concrete import (
    DEFAULT_ORACLE_BUDGET,
    InitMode,
    StateSpace,
    collecting_semantics,
    exact_classify,
)
from .focused import (
    DEFAULT_MC_BUDGET,
    check_access,
    focused_reach,
    initial_focused,
    unsimplified_model,
)
from .verdict import Verdict

log = logging.getLogger(__name__)


class Mode(enum.Enum):
    """How much of the pipeline runs.

    ai-only: abstract analyses only; unsettled accesses stay unresolved.
    ai+mc: abstract analyses, then focused model checking of the residue.
    mc-only: focused model checking for everything, no abstract phase.
    ai+mc-no-du: like ai+mc but without the exists-hit/exists-miss domains,
    so provably undecidable accesses still reach the model checker.
    """

    AI_ONLY = "ai-only"
    AI_MC = "ai+mc"
    MC_ONLY = "mc-only"
    AI_MC_NO_DU = "ai+mc-no-du"

    def __str__(self) -> str:
        return self.value


class Provenance(enum.Enum):
    """Which stage of the pipeline produced a verdict."""

    MUST = "must"
    MAY = "may"
    EH_EM = "eh-em"
    MC_CHECK_AH = "mc-check-ah"
    MC_CHECK_AM = "mc-check-am"
    MC_REFUTED_BOTH = "mc-refuted-both"
    UNRESOLVED = "unresolved"

    def __str__(self) -> str:
        return self.value


MC_PROVENANCES = frozenset(
    {Provenance.MC_CHECK_AH, Provenance.MC_CHECK_AM, Provenance.MC_REFUTED_BOTH}
)


@dataclass(frozen=True)
class FinalVerdict:
    """Pipeline outcome for one access.

    `verdict` is None only in ai-only mode, for accesses the abstract phase
    could not settle; the flags then carry what is known about them.
    """

    access: AccessId
    set_index: int
    verdict: Optional[Verdict]
    provenance: Provenance
    exists_hit: bool
    exists_miss: bool


@dataclass
class PhaseStats:
    """Work and outcome counters for one classification run."""

    n_accesses: int = 0
    verdict_counts: Counter = field(default_factory=Counter)
    provenance_counts: Counter = field(default_factory=Counter)
    focused_runs: int = 0
    mc_access_checks: int = 0
    states_explored: int = 0
    t_ai_ms: float = 0.0
    t_mc_ms: float = 0.0

    def count(self, fv: FinalVerdict) -> None:
        self.n_accesses += 1
        self.verdict_counts[fv.verdict.value if fv.verdict else "unknown"] += 1
        self.provenance_counts[fv.provenance.value] += 1

    def absorb(self, other: "PhaseStats") -> None:
        self.n_accesses += other.n_accesses
        self.verdict_counts.update(other.verdict_counts)
        self.provenance_counts.update(other.provenance_counts)
        self.focused_runs += other.focused_runs
        self.mc_access_checks += other.mc_access_checks
        self.states_explored += other.states_explored
        self.t_ai_ms += other.t_ai_ms
        self.t_mc_ms += other.t_mc_ms

    def conserved(self) -> bool:
        """Every access has exactly one verdict and one provenance."""
        return (
            sum(self.verdict_counts.values()) == self.n_accesses
            and sum(self.provenance_counts.values()) == self.n_accesses
        )


@dataclass
class ClassifyResult:
    """Verdicts in the program's access order, with the run's counters.

    `sets` holds each cache set's projected graph and state space, in set
    order, so the oracle can reuse them.
    """

    verdicts: list[FinalVerdict]
    stats: PhaseStats
    sets: list[tuple[ProjectedCfg, StateSpace]] = field(default_factory=list)


def _final_flags(verdict: Verdict, reachable: bool) -> tuple[bool, bool]:
    # A settled verdict implies its flags, except at unreachable sources where
    # no execution exists at all.
    if not reachable:
        return (False, False)
    if verdict is Verdict.ALWAYS_HIT:
        return (True, False)
    if verdict is Verdict.ALWAYS_MISS:
        return (False, True)
    return (True, True)


_AI_PROVENANCE = {
    Verdict.ALWAYS_HIT: Provenance.MUST,
    Verdict.ALWAYS_MISS: Provenance.MAY,
    Verdict.DEFINITELY_UNKNOWN: Provenance.EH_EM,
}


@dataclass
class SetAnalysis:
    """The abstract phase of one cache set, and what the focused phase needs of it.

    `settled` holds the accesses the abstract domains decide; `residual` the
    rest, in access order, with the existential halves already known.  `adj`
    is the skeleton of the graph's successor table over `space.blocks`, which
    both phases run on, None when nothing is accessed.  `may` is the may
    fixpoint at its vertices, None in mc-only mode; only the SMV export's
    pruning (`focused.simplify_for`) reads it.
    """

    graph: ProjectedCfg
    space: StateSpace
    accesses: list[AccessId]
    settled: dict[AccessId, FinalVerdict]
    residual: list[AiClassification]
    may: Optional[Fixpoint]
    adj: Optional[Adjacency]

    def residual_by_block(self) -> dict[MemoryBlock, list[AiClassification]]:
        """Residual accesses grouped by block, blocks in ascending order."""
        by_block: dict[MemoryBlock, list[AiClassification]] = {}
        for c in self.residual:
            by_block.setdefault(c.access.block, []).append(c)
        return {b: by_block[b] for b in sorted(by_block)}


def abstract_phase(
    pg: ProjectedCfg,
    k: int,
    init: InitMode,
    mode: Mode,
    accesses: list[AccessId],
    order: tuple[str, ...],
) -> SetAnalysis:
    """Run the abstract domains of `mode` over one projected graph's skeleton.

    `accesses` must be `accesses_of(pg)` (see `accesses_by_set`), and `order`
    the program's `reverse_post_order`.  ai+mc and ai-only run exists-hit and
    exists-miss only: their carried halves are the must and may fixpoints.
    ai+mc-no-du runs must and may.  mc-only runs nothing and leaves every
    access residual.  Every mode builds the skeleton the fixpoints and the
    focused search share.
    """
    space = StateSpace(k=k, blocks=block_universe(pg))
    settled: dict[AccessId, FinalVerdict] = {}
    adj = skeleton(adjacency(pg, space.blocks, order), pg.entry) if accesses else None
    if mode is Mode.MC_ONLY or not accesses:
        residual = [AiClassification(a, None, False, False) for a in accesses]
        return SetAnalysis(pg, space, accesses, settled, residual, None, adj)

    if mode is Mode.AI_MC_NO_DU:
        must = fixpoint(MUST, pg, space, init, adj)
        may = fixpoint(MAY, pg, space, init, adj)
        eh = em = None
    else:
        eh = fixpoint(EXISTS_HIT, pg, space, init, adj)
        em = fixpoint(EXISTS_MISS, pg, space, init, adj)
        must, may = carried(eh, space), carried(em, space)
    residual = []
    for a in accesses:
        c = ai_classify(space, a, must, may, eh, em)
        if c.verdict is not None:
            settled[a] = FinalVerdict(
                a, pg.set_index, c.verdict, _AI_PROVENANCE[c.verdict], c.exists_hit, c.exists_miss
            )
        else:
            residual.append(c)
    return SetAnalysis(pg, space, accesses, settled, residual, may, adj)


def accesses_by_set(g: Cfg, num_sets: int) -> tuple[list[AccessId], list[list[AccessId]]]:
    """`accesses_of(g)`, and the same accesses split by cache set.

    Projection keeps a set's access edges in order and with their identities,
    so the list of set s is `accesses_of(project(g, s, config))`.
    """
    accesses = accesses_of(g)
    by_set: list[list[AccessId]] = [[] for _ in range(num_sets)]
    for a in accesses:
        by_set[a.block.set_index].append(a)
    return accesses, by_set


def _classify_set(
    pg: ProjectedCfg,
    k: int,
    init: InitMode,
    mode: Mode,
    mc_budget: int,
    accesses: list[AccessId],
    order: tuple[str, ...],
) -> tuple[dict[AccessId, FinalVerdict], PhaseStats, StateSpace]:
    stats = PhaseStats()
    t0 = time.perf_counter()
    analysis = abstract_phase(pg, k, init, mode, accesses, order)
    if not analysis.accesses:
        return {}, stats, analysis.space
    results = dict(analysis.settled)
    stats.t_ai_ms = (time.perf_counter() - t0) * 1000.0

    t1 = time.perf_counter()
    if mode is Mode.AI_ONLY:
        for c in analysis.residual:
            results[c.access] = FinalVerdict(
                c.access, pg.set_index, None, Provenance.UNRESOLVED, c.exists_hit, c.exists_miss
            )
    elif analysis.residual:
        for block, group in analysis.residual_by_block().items():
            model = unsimplified_model(pg, block, analysis.space, analysis.adj)
            seeds = initial_focused(model.positions, k, init)
            goals = [(c.access.src, c.exists_hit, c.exists_miss) for c in group]
            reach = focused_reach(model, seeds, goals, budget=mc_budget)
            stats.focused_runs += 1
            stats.states_explored += reach.explored
            log.debug(
                "focused run: %s set %d block b%d: %d states%s",
                pg.name, pg.set_index, block.index, reach.explored,
                " (early exit)" if reach.partial else "",
            )
            for c in group:
                verdict = check_access(reach, c.access, c.exists_hit, c.exists_miss)
                stats.mc_access_checks += 1
                if c.exists_hit:
                    prov = Provenance.MC_CHECK_AH
                elif c.exists_miss:
                    prov = Provenance.MC_CHECK_AM
                elif verdict is Verdict.ALWAYS_HIT:
                    prov = Provenance.MC_CHECK_AH
                elif verdict is Verdict.ALWAYS_MISS:
                    prov = Provenance.MC_CHECK_AM
                else:
                    prov = Provenance.MC_REFUTED_BOTH
                reachable = bool(reach.states[c.access.src])
                eh_flag, em_flag = _final_flags(verdict, reachable)
                results[c.access] = FinalVerdict(
                    c.access, pg.set_index, verdict, prov, eh_flag, em_flag
                )
    stats.t_mc_ms = (time.perf_counter() - t1) * 1000.0

    for fv in results.values():
        stats.count(fv)
    return results, stats, analysis.space


def classify_all(
    g: Cfg,
    config: CacheConfig,
    init: InitMode = InitMode.EMPTY,
    mode: Mode = Mode.AI_MC,
    *,
    mc_budget: int = DEFAULT_MC_BUDGET,
) -> ClassifyResult:
    """Classify every access of a program, one cache set at a time.

    Results are merged in set order and reported in the program's access
    order.
    """
    accesses, by_set = accesses_by_set(g, config.num_sets)
    order = tuple(reverse_post_order(g))
    merged: dict[AccessId, FinalVerdict] = {}
    stats = PhaseStats()
    sets: list[tuple[ProjectedCfg, StateSpace]] = []
    for s in range(config.num_sets):
        pg = project(g, s, config)
        results, set_stats, space = _classify_set(
            pg, config.associativity, init, mode, mc_budget, by_set[s], order
        )
        merged.update(results)
        stats.absorb(set_stats)
        sets.append((pg, space))
    ordered = [merged[a] for a in accesses]
    return ClassifyResult(verdicts=ordered, stats=stats, sets=sets)


@dataclass(frozen=True)
class OracleEntry:
    """One access compared between the pipeline and the exact oracle."""

    access: AccessId
    set_index: int
    pipeline: Optional[Verdict]
    oracle: Verdict
    provenance: Provenance
    agree: bool
    mc_resolved: bool


@dataclass
class OracleReport:
    """The oracle comparison, plus the pipeline classification it compared.

    `classification` is None only in reports built by hand.
    """

    entries: list[OracleEntry]
    n_checked: int
    n_disagreements: int
    n_mc_resolved: int
    classification: Optional[ClassifyResult] = None


def verify_against_oracle(
    g: Cfg,
    config: CacheConfig,
    init: InitMode = InitMode.EMPTY,
    mode: Mode = Mode.AI_MC,
    *,
    mc_budget: int = DEFAULT_MC_BUDGET,
    oracle_budget: int = DEFAULT_ORACLE_BUDGET,
) -> OracleReport:
    """Compare pipeline verdicts against exhaustive concrete enumeration.

    A settled verdict that differs from the oracle is a disagreement.  An
    unresolved access (ai-only mode) is a disagreement only when one of its
    flags contradicts the oracle: a known-possible hit against always-miss, or
    a known-possible miss against always-hit.  The oracle reuses the
    projections and state spaces of the classification, one set at a time;
    entries follow the classification's access order.
    """
    result = classify_all(g, config, init, mode, mc_budget=mc_budget)
    by_set: list[list[AccessId]] = [[] for _ in result.sets]
    for fv in result.verdicts:
        by_set[fv.set_index].append(fv.access)
    truths: dict[AccessId, Verdict] = {}
    for (pg, space), accesses in zip(result.sets, by_set):
        if accesses:
            reach = collecting_semantics(pg, space, init, budget=oracle_budget)
            truths.update((a, exact_classify(space, reach, a)) for a in accesses)

    entries: list[OracleEntry] = []
    for fv in result.verdicts:
        truth = truths[fv.access]
        if fv.verdict is not None:
            agree = fv.verdict == truth
        else:
            agree = not (
                (fv.exists_hit and truth is Verdict.ALWAYS_MISS)
                or (fv.exists_miss and truth is Verdict.ALWAYS_HIT)
            )
        entries.append(
            OracleEntry(
                access=fv.access,
                set_index=fv.set_index,
                pipeline=fv.verdict,
                oracle=truth,
                provenance=fv.provenance,
                agree=agree,
                mc_resolved=fv.provenance in MC_PROVENANCES,
            )
        )
    return OracleReport(
        entries=entries,
        n_checked=len(entries),
        n_disagreements=sum(1 for e in entries if not e.agree),
        n_mc_resolved=sum(1 for e in entries if e.mc_resolved),
        classification=result,
    )
