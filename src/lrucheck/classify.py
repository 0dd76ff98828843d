"""The full classification pipeline and its differential check against the oracle.

Per cache set: run the cheap abstract analyses first, keep only the accesses
they cannot settle, then decide those exactly with one focused reachability
search per remaining block.  The abstract exists-hit/exists-miss information
both filters out accesses that are provably undecidable (no point model
checking them) and halves the work for the rest.

Each access has one record throughout, a `verdict.FinalVerdict`: the
abstract phase gives every access one, and the model-checking step replaces
only the unresolved ones.  Sets no access maps to are skipped.  The outcome
counters of `PhaseStats` are counted once from the final verdicts, and
`OracleReport` keeps the oracle's verdict next to each of them; its totals
are derived.

Both phases run on the set's access skeleton (`cfg.skeleton`): the entry
and the access sources, the only vertices either phase reads, with each
chain of no-access edges contracted.  It is built once per set straight from
the program's edges and reverse post-order, both computed once per program;
the classification never projects the program.  Must and may reach
the same bounds there as on the set's projection; the exists domains,
whose transfer is not monotone, reach sound bounds that may differ (see
`ai.fixpoint`).  The focused searches use the skeleton as it is: the
may-based pruning of `focused.simplify_for` relabels only edges whose
reachable focused states are all epsilon, so it cannot change what an
explicit search explores, and only the SMV export applies it.
"""

from __future__ import annotations

import enum
import logging
import time
from collections import Counter
from typing import NamedTuple, Optional

from .ai import EXISTS_HIT, EXISTS_MISS, MAY, MUST, Fixpoint, ai_classify, carried, fixpoint
from .cfg import (
    AccessId,
    Adjacency,
    CacheConfig,
    Cfg,
    Edge,
    MemoryBlock,
    accesses_of,
    block_universe,
    out_edges,
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
    FocusedReach,
    check_access,
    focused_reach,
    initial_focused,
    unsimplified_model,
)
from .verdict import MC_PROVENANCES, FinalVerdict, Provenance, Verdict

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


class PhaseStats:
    """Work and outcome counters for one classification run.

    `classify_all` fills the outcome counters (`n_accesses`, the two
    Counters, `mc_access_checks`) once, from the verdicts it returns; the
    per-set steps add up the work counters and times.
    """

    def __init__(self) -> None:
        self.n_accesses = 0
        self.verdict_counts: Counter = Counter()
        self.provenance_counts: Counter = Counter()
        self.focused_runs = 0
        self.mc_access_checks = 0
        self.states_explored = 0
        self.t_ai_ms = 0.0
        self.t_mc_ms = 0.0


class ClassifyResult(NamedTuple):
    """Verdicts in the program's access order, with the run's counters.

    `order` is the program's `reverse_post_order`, which serves every
    projection, so the oracle can reuse it: a projection only drops no-access
    self-loops, which the order's depth-first search never follows.
    """

    verdicts: list[FinalVerdict]
    stats: PhaseStats
    order: tuple[str, ...]


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


class SetAnalysis(NamedTuple):
    """The abstract phase of one cache set, and what the focused phase needs of it.

    `verdicts` holds one `FinalVerdict` per access of `accesses`, in order:
    settled by a domain, or unresolved (verdict None) with the existential
    halves already known, the `residual`.  `space` holds the sorted blocks of
    the accesses, and `adj` is the set's skeleton over them, which both
    phases run on; None when nothing is accessed.  `may` is the may fixpoint
    at its vertices, None in mc-only mode; only the SMV export's pruning
    (`focused.simplify_for`) reads it.
    """

    space: StateSpace
    accesses: list[AccessId]
    verdicts: list[FinalVerdict]
    may: Optional[Fixpoint]
    adj: Optional[Adjacency]

    @property
    def residual(self) -> list[FinalVerdict]:
        """The unresolved verdicts, in access order."""
        return [fv for fv in self.verdicts if fv.verdict is None]

    def residual_by_block(self) -> dict[MemoryBlock, list[FinalVerdict]]:
        """Residual accesses grouped by block, blocks in ascending order."""
        by_block: dict[MemoryBlock, list[FinalVerdict]] = {}
        for fv in self.residual:
            by_block.setdefault(fv.access.block, []).append(fv)
        return {b: by_block[b] for b in sorted(by_block)}


def abstract_phase(
    g: Cfg,
    out: dict[str, list[Edge]],
    k: int,
    init: InitMode,
    mode: Mode,
    accesses: list[AccessId],
    order: tuple[str, ...],
) -> SetAnalysis:
    """Run the abstract domains of `mode` over one cache set's skeleton.

    `out` and `order` must be the program's `out_edges` and
    `reverse_post_order`, and `accesses` the set's accesses (see
    `accesses_by_set`).  ai+mc and ai-only run exists-hit and exists-miss
    only: their carried halves are the must and may fixpoints.  ai+mc-no-du
    runs must and may.  mc-only runs nothing and leaves every access
    residual.  Every mode builds the skeleton the fixpoints and the focused
    search share.
    """
    space = StateSpace(k=k, blocks=tuple(sorted({a.block for a in accesses})))
    adj = skeleton(out, g.entry, order, space.blocks) if accesses else None
    if mode is Mode.MC_ONLY or not accesses:
        verdicts = [FinalVerdict(a, None, Provenance.UNRESOLVED, False, False) for a in accesses]
        return SetAnalysis(space, accesses, verdicts, None, adj)

    if mode is Mode.AI_MC_NO_DU:
        must = fixpoint(MUST, g, space, init, adj)
        may = fixpoint(MAY, g, space, init, adj)
        eh = em = None
    else:
        eh = fixpoint(EXISTS_HIT, g, space, init, adj)
        em = fixpoint(EXISTS_MISS, g, space, init, adj)
        must, may = carried(eh, space), carried(em, space)
    verdicts = [ai_classify(space, a, must, may, eh, em) for a in accesses]
    return SetAnalysis(space, accesses, verdicts, may, adj)


def accesses_by_set(g: Cfg) -> tuple[list[AccessId], dict[int, list[AccessId]]]:
    """`accesses_of(g)`, and the same accesses split by cache set.

    Only the sets some access maps to appear, in ascending order, so the
    cost follows the program, not the number of sets.  Projection keeps a
    set's access edges in order and with their identities, so the list of
    set s is `accesses_of(project(g, s, config))`.
    """
    accesses = accesses_of(g)
    by_set: dict[int, list[AccessId]] = {}
    for a in accesses:
        by_set.setdefault(a.block.set_index, []).append(a)
    return accesses, {s: by_set[s] for s in sorted(by_set)}


def _model_check(reach: FocusedReach, fv: FinalVerdict) -> FinalVerdict:
    """The verdict of a residual access, decided from its block's search."""
    access, exists_hit, exists_miss = fv.access, fv.exists_hit, fv.exists_miss
    verdict = check_access(reach, access, exists_hit, exists_miss)
    if exists_hit:
        prov = Provenance.MC_CHECK_AH
    elif exists_miss:
        prov = Provenance.MC_CHECK_AM
    elif verdict is Verdict.ALWAYS_HIT:
        prov = Provenance.MC_CHECK_AH
    elif verdict is Verdict.ALWAYS_MISS:
        prov = Provenance.MC_CHECK_AM
    else:
        prov = Provenance.MC_REFUTED_BOTH
    eh_flag, em_flag = _final_flags(verdict, bool(reach.states[access.src]))
    return FinalVerdict(access, verdict, prov, eh_flag, em_flag)


def classify_all(
    g: Cfg,
    config: CacheConfig,
    init: InitMode = InitMode.EMPTY,
    mode: Mode = Mode.AI_MC,
    *,
    mc_budget: int = DEFAULT_MC_BUDGET,
) -> ClassifyResult:
    """Classify every access of a program, one cache set at a time.

    Per set, the abstract phase gives every access a verdict, and one
    focused search per residual block replaces the unresolved ones (none in
    ai-only mode).  Results are merged in set order and reported in the
    program's access order; the outcome counters of `stats` are counted from
    them.
    """
    accesses, by_set = accesses_by_set(g)
    out = out_edges(g)
    order = tuple(reverse_post_order(g, out))
    merged: dict[AccessId, FinalVerdict] = {}
    stats = PhaseStats()
    for set_accesses in by_set.values():
        t0 = time.perf_counter()
        analysis = abstract_phase(g, out, config.associativity, init, mode, set_accesses, order)
        t1 = time.perf_counter()
        stats.t_ai_ms += (t1 - t0) * 1000.0
        merged.update((fv.access, fv) for fv in analysis.verdicts)
        if mode is not Mode.AI_ONLY:
            for block, group in analysis.residual_by_block().items():
                model = unsimplified_model(g, block, analysis.space, analysis.adj)
                goals = [(fv.access.src, fv.exists_hit, fv.exists_miss) for fv in group]
                reach = focused_reach(model, initial_focused(init), goals, budget=mc_budget)
                stats.focused_runs += 1
                stats.states_explored += reach.explored
                log.debug(
                    "focused run: %s set %d block b%d: %d states%s",
                    g.name, block.set_index, block.index, reach.explored,
                    " (early exit)" if reach.partial else "",
                )
                merged.update((fv.access, _model_check(reach, fv)) for fv in group)
        stats.t_mc_ms += (time.perf_counter() - t1) * 1000.0
    ordered = [merged[a] for a in accesses]
    stats.n_accesses = len(ordered)
    stats.verdict_counts.update(fv.verdict.value if fv.verdict else "unknown" for fv in ordered)
    stats.provenance_counts.update(fv.provenance.value for fv in ordered)
    stats.mc_access_checks = sum(stats.provenance_counts[p.value] for p in MC_PROVENANCES)
    return ClassifyResult(ordered, stats, order)


def agrees(fv: FinalVerdict, truth: Verdict) -> bool:
    """Whether a pipeline verdict is consistent with the oracle's.

    A settled verdict must equal it.  An unresolved one (ai-only mode)
    disagrees only when one of its flags contradicts it: a known-possible hit
    against always-miss, or a known-possible miss against always-hit.
    """
    if fv.verdict is not None:
        return fv.verdict == truth
    return not (
        (fv.exists_hit and truth is Verdict.ALWAYS_MISS)
        or (fv.exists_miss and truth is Verdict.ALWAYS_HIT)
    )


class OracleReport(NamedTuple):
    """The pipeline classification and the oracle's verdict of each access.

    `oracle` is aligned with `classification.verdicts`.
    """

    classification: ClassifyResult
    oracle: list[Verdict]

    @property
    def n_checked(self) -> int:
        return len(self.oracle)

    @property
    def n_mc_resolved(self) -> int:
        return self.classification.stats.mc_access_checks

    def disagreements(self) -> list[tuple[FinalVerdict, Verdict]]:
        """The (pipeline, oracle) verdict pairs that fail `agrees`, in access order."""
        return [
            (fv, truth)
            for fv, truth in zip(self.classification.verdicts, self.oracle)
            if not agrees(fv, truth)
        ]

    @property
    def n_disagreements(self) -> int:
        return len(self.disagreements())


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

    The oracle walks its own projection and state space of each set some
    access maps to, in ascending set order, sharing only the program order
    with the classification.  Whether a verdict is a disagreement is
    `agrees`'s answer.
    """
    result = classify_all(g, config, init, mode, mc_budget=mc_budget)
    by_set: dict[int, list[AccessId]] = {}
    for fv in result.verdicts:
        by_set.setdefault(fv.access.block.set_index, []).append(fv.access)
    truths: dict[AccessId, Verdict] = {}
    for s in sorted(by_set):
        pg = project(g, s, config)
        space = StateSpace(k=config.associativity, blocks=block_universe(pg))
        reach = collecting_semantics(pg, space, init, budget=oracle_budget, order=result.order)
        truths.update((a, exact_classify(space, reach, a)) for a in by_set[s])
    return OracleReport(result, [truths[fv.access] for fv in result.verdicts])
