"""Acceptance suite: one check per shipped guarantee.

Every test prints a single `acceptance check N [...]: PASS/FAIL` line (visible
with -s) and enforces the runtime bound stated in the label.  Checks 5 to 8
share one 500-program generated corpus.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

from helpers import (
    EPSILON,
    all_states,
    alpha_focus,
    analyze_set,
    cfg_text,
    decoded_states,
    full_table,
    join_eh,
    join_em,
    loop_cfg,
    raw_model,
    small_config,
    solve,
    space_for,
    straightline_cfg,
    unpack_fixpoint,
    update,
    update_eh,
    update_em,
    update_focus,
)
from lrucheck.ai import EXISTS_HIT, EXISTS_MISS, MAY, MUST
from lrucheck.bench import GenSpec, generate
from lrucheck.cfg import CacheConfig, block_universe, project
from lrucheck.classify import (
    Mode,
    Provenance,
    classify_all,
    verify_against_oracle,
)
from lrucheck.concrete import InitMode, StateSpace
from lrucheck.focused import focused_reach, initial_focused, simplify_for, unsimplified_model
from lrucheck.verdict import Verdict

INITS = (InitMode.EMPTY, InitMode.UNKNOWN)


def _report(num: int, label: str, ok: bool, elapsed: float, bound: float | None):
    within = bound is None or elapsed <= bound
    status = "PASS" if ok and within else "FAIL"
    suffix = f", bound {bound:g}s" if bound is not None else ""
    print(f"acceptance check {num} [{label}]: {status} ({elapsed:.2f}s{suffix})")
    return ok and within


@pytest.fixture(scope="session")
def corpus():
    """500 generated programs: <= 10 vertices, <= 5 blocks, k in {1, 2, 4}."""
    programs = []
    for i in range(500):
        loops = (0, 1, 1, 2)[i % 4]
        spec = GenSpec(
            vertices=max(4 + i % 7, 1 + 3 * loops),
            loops=loops,
            depth=1 + i % 2,
            branch_p=(0.2, 0.35, 0.5)[i % 3],
            blocks=1 + i % 5,
            access_p=(0.5, 0.65, 0.8, 0.9)[i % 4],
            seed=1000 + i,
        )
        config = CacheConfig(
            associativity=(1, 2, 4)[i % 3], num_sets=(1, 2)[i % 2], block_size=8
        )
        programs.append((config, generate(spec, config, name=f"acc{i}")))
    return programs


@pytest.fixture(scope="session")
def classified(corpus):
    """Memoized classify_all over the corpus, keyed by mode and init."""
    cache: dict = {}

    def run(i, mode, init):
        key = (i, mode, init)
        if key not in cache:
            config, g = corpus[i]
            cache[key] = classify_all(g, config, init, mode)
        return cache[key]

    return run


def test_check_1_loop_fixpoint_tables():
    t0 = time.perf_counter()
    failures = []
    expected = {
        "a": {"must": "kk", "may": "kk", "eh": "kk", "em": "kk"},
        "b": {"must": "kk", "may": "10", "eh": "10", "em": "kk"},
        "c": {"must": "0k", "may": "01", "eh": "01", "em": "0k"},
        "d": {"must": "10", "may": "10", "eh": "10", "em": "10"},
        "exit": {"must": "10", "may": "10", "eh": "10", "em": "10"},
    }
    for k in (2, 4):
        config = CacheConfig(associativity=k, num_sets=1, block_size=8)
        g = loop_cfg(config)
        pg = project(g, 0, config)
        space = StateSpace(k=k, blocks=block_universe(pg))
        fixes = {
            name: unpack_fixpoint(d, solve(d, pg, space), space)
            for name, d in (("must", MUST), ("may", MAY), ("eh", EXISTS_HIT), ("em", EXISTS_MISS))
        }
        digit = {"k": k, "0": 0, "1": 1}
        for v, table in expected.items():
            for name, code in table.items():
                want = tuple(digit[c] for c in code)
                got = fixes[name][v][: len(space.blocks)]  # exists states: own half first
                if got != want:
                    failures.append(f"k={k}: {name}[{v}] = {got}, want {want}")
        result = classify_all(g, config, InitMode.EMPTY, Mode.AI_MC)
        for fv in result.verdicts:
            if fv.verdict is not Verdict.DEFINITELY_UNKNOWN:
                failures.append(f"k={k}: {fv.access.label} -> {fv.verdict}")
            if fv.provenance is not Provenance.EH_EM:
                failures.append(f"k={k}: {fv.access.label} via {fv.provenance}")
        if result.stats.focused_runs != 0:
            failures.append(f"k={k}: {result.stats.focused_runs} focused runs")
    ok = _report(1, "loop fixpoint tables, k=2 and k=4", not failures,
                 time.perf_counter() - t0, 1.0)
    assert ok, failures


def test_check_2_straightline_focused_trace():
    t0 = time.perf_counter()
    config = small_config()
    g = straightline_cfg(config)
    pg = project(g, 0, config)
    by_index = {b.index: b for b in block_universe(pg)}
    focus = by_index[0]  # accessed third, then aged out by the last two accesses
    model = raw_model(pg, focus, 2)
    init = initial_focused(InitMode.EMPTY)
    reach = focused_reach(model, init)
    states = decoded_states(reach)
    expected = {
        "v0": {EPSILON},
        "v1": {EPSILON},
        "v2": {EPSILON},
        "v3": {frozenset()},
        "v4": {frozenset({by_index[1]})},
        "v5": {EPSILON},
    }
    failures = [
        f"{v}: {sorted(map(repr, states[v]))}, want {sorted(map(repr, want))}"
        for v, want in expected.items()
        if states[v] != frozenset(want)
    ]
    ok = _report(2, "straight-line focused state trace", not failures,
                 time.perf_counter() - t0, 1.0)
    assert ok, failures


def test_check_3_focused_commutation():
    t0 = time.perf_counter()
    checked = 0
    failures = []
    for m in range(1, 5):
        for k in range(1, 4):
            space = space_for(m, k)
            for q in all_states(space):
                for f in space.blocks:
                    a = alpha_focus(space, q, f)
                    for b in space.blocks:
                        lhs = alpha_focus(space, update(space, q, b), f)
                        rhs = update_focus(a, b, f, k)
                        checked += 1
                        if lhs != rhs:
                            failures.append((m, k, q, f.index, b.index))
    assert checked == sum(
        len(all_states(space_for(m, k))) * m * m
        for m in range(1, 5)
        for k in range(1, 4)
    )
    ok = _report(3, f"focused update commutes with the concrete update "
                    f"({checked} cases)", not failures,
                 time.perf_counter() - t0, 10.0)
    assert ok, failures[:10]


# --- check 4 helpers ----------------------------------------------------------
#
# Membership of a state set Q in an existential concretization depends only on
# the pool Q draws from (a per-state fact) and on Q's per-block min (resp. max)
# age vector.  Enumerating every nonempty subset of the pool as a bitmask and
# reducing it to that signature therefore covers all of gamma exactly.


def _submasks(mask):
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def _mask_tables(ages):
    """Per-block min and max vectors over the states selected by each bitmask."""
    size = 1 << len(ages)
    minv: list = [None] * size
    maxv: list = [None] * size
    for mask in range(1, size):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        if rest == 0:
            minv[mask] = maxv[mask] = ages[low]
        else:
            minv[mask] = tuple(map(min, ages[low], minv[rest]))
            maxv[mask] = tuple(map(max, ages[low], maxv[rest]))
    return minv, maxv


def _pool_mask(states, bounds, keep):
    mask = 0
    for j, q in enumerate(states):
        if all(keep(a, v) for a, v in zip(q, bounds)):
            mask |= 1 << j
    return mask


def _existential_update_violations(space, hit_side):
    """Exhaustive transfer consistency for one existential domain.

    For every abstract state s, block b, and Q in gamma(s): the elementwise
    concrete update of Q must lie in gamma(update(s, b)).  hit_side selects
    the min-age domain (over must pools) or the max-age one (over may pools).
    """
    k, blocks = space.k, space.blocks
    n = len(blocks)
    states = all_states(space)
    src_min, src_max = _mask_tables(states)
    sigs = src_min if hit_side else src_max
    images = {b: [update(space, q, b) for q in states] for b in blocks}
    img_sigs = {
        b: _mask_tables(images[b])[0 if hit_side else 1] for b in blocks
    }
    bounds_list = list(itertools.product(range(k + 1), repeat=len(blocks)))
    checked = 0
    violations = []
    for pool_bounds in bounds_list:
        if hit_side:
            pool = _pool_mask(states, pool_bounds, lambda a, v: a <= v)
        else:
            pool = _pool_mask(states, pool_bounds, lambda a, v: a >= v)
        if pool == 0:
            continue
        subs = np.fromiter(_submasks(pool), dtype=np.int64)
        src = np.array([sigs[s] for s in subs], dtype=np.int16)
        for bi, b in enumerate(blocks):
            img = np.array([img_sigs[b][s] for s in subs], dtype=np.int16)
            bad_cache: dict = {}
            for ex in bounds_list:
                if hit_side:
                    s2 = update_eh(ex + pool_bounds, bi, k)
                    s2_bounds, pool2 = s2[:n], s2[n:]
                    valid = (src <= np.array(ex, dtype=np.int16)).all(axis=1)
                    sig_ok = (img <= np.array(s2_bounds, dtype=np.int16)).all(axis=1)
                    escaped = lambda q: any(a > v for a, v in zip(q, pool2))
                else:
                    s2 = update_em(ex + pool_bounds, bi, k)
                    s2_bounds, pool2 = s2[:n], s2[n:]
                    valid = (src >= np.array(ex, dtype=np.int16)).all(axis=1)
                    sig_ok = (img >= np.array(s2_bounds, dtype=np.int16)).all(axis=1)
                    escaped = lambda q: any(a < v for a, v in zip(q, pool2))
                if pool2 not in bad_cache:
                    bad = 0
                    for j in range(len(states)):
                        if (1 << j) & pool and escaped(images[b][j]):
                            bad |= 1 << j
                    bad_cache[pool2] = bad
                stays = (subs & bad_cache[pool2]) == 0
                n_bad = int(np.count_nonzero(valid & ~(sig_ok & stays)))
                checked += int(np.count_nonzero(valid))
                if n_bad:
                    violations.append((k, pool_bounds, ex, b.index, n_bad))
    return checked, violations


def _existential_join_violations(space, hit_side):
    """Exhaustive join consistency: Q1 in gamma(s1) and Q2 in gamma(s2) imply
    Q1 | Q2 in gamma(join(s1, s2)).

    The union's signature is the pointwise min (resp. max) of the two sides'
    signatures, and each side ranges over its achievable signatures
    independently, so per block only the extreme achievable signature can
    violate the joined bound.  Pool containment is checked per state; adding
    any pool state to a valid Q keeps it valid, so every pool state occurs.
    """
    k, blocks = space.k, space.blocks
    states = all_states(space)
    src_min, src_max = _mask_tables(states)
    bounds_list = list(itertools.product(range(k + 1), repeat=len(blocks)))
    pools = {}
    for pool_bounds in bounds_list:
        if hit_side:
            pool = _pool_mask(states, pool_bounds, lambda a, v: a <= v)
            sigset = {src_min[s] for s in _submasks(pool)}
        else:
            pool = _pool_mask(states, pool_bounds, lambda a, v: a >= v)
            sigset = {src_max[s] for s in _submasks(pool)}
        pools[pool_bounds] = (pool, sigset)

    realizable = []
    for pool_bounds in bounds_list:
        pool, sigset = pools[pool_bounds]
        for ex in bounds_list:
            if hit_side:
                good = [v for v in sigset if all(x <= y for x, y in zip(v, ex))]
                if not good:
                    continue
                extreme = tuple(max(col) for col in zip(*good))
                realizable.append((ex + pool_bounds, pool, extreme))
            else:
                good = [v for v in sigset if all(x >= y for x, y in zip(v, ex))]
                if not good:
                    continue
                extreme = tuple(min(col) for col in zip(*good))
                realizable.append((ex + pool_bounds, pool, extreme))

    n = len(blocks)
    checked = 0
    violations = []
    for s1, pool1, w1 in realizable:
        for s2, pool2, w2 in realizable:
            checked += 1
            if hit_side:
                j = join_eh(s1, s2)
                jpool = pools[j[n:]][0]
                sig_bad = any(x > e and y > e for x, y, e in zip(w1, w2, j[:n]))
            else:
                j = join_em(s1, s2)
                jpool = pools[j[n:]][0]
                sig_bad = any(x < e and y < e for x, y, e in zip(w1, w2, j[:n]))
            if (pool1 | pool2) & ~jpool:
                violations.append(("pool", s1, s2))
            elif sig_bad:
                violations.append(("signature", s1, s2))
    return checked, violations


def _existential_join_direct(space, hit_side):
    """Literal enumeration of all (Q1, Q2) pairs; cross-checks the signature
    reduction on a universe small enough to afford it."""
    k, blocks = space.k, space.blocks
    states = all_states(space)
    bounds_list = list(itertools.product(range(k + 1), repeat=len(blocks)))
    absts = []
    for pool_bounds in bounds_list:
        for ex in bounds_list:
            if hit_side:
                pool = [q for q in states if all(a <= v for a, v in zip(q, pool_bounds))]
                absts.append((ex + pool_bounds, pool))
            else:
                pool = [q for q in states if all(a >= v for a, v in zip(q, pool_bounds))]
                absts.append((ex + pool_bounds, pool))

    n = len(blocks)

    def in_gamma(qs, s):
        if hit_side:
            if any(any(a > v for a, v in zip(q, s[n:])) for q in qs):
                return False
            return all(min(q[i] for q in qs) <= s[i] for i in range(n))
        if any(any(a < v for a, v in zip(q, s[n:])) for q in qs):
            return False
        return all(max(q[i] for q in qs) >= s[i] for i in range(n))

    def valid_sets(s, pool):
        out = []
        for r in range(1, len(pool) + 1):
            for combo in itertools.combinations(pool, r):
                if in_gamma(combo, s):
                    out.append(set(combo))
        return out

    checked = 0
    violations = []
    for s1, pool1 in absts:
        sets1 = valid_sets(s1, pool1)
        if not sets1:
            continue
        for s2, pool2 in absts:
            sets2 = valid_sets(s2, pool2)
            j = join_eh(s1, s2) if hit_side else join_em(s1, s2)
            for q1 in sets1:
                for q2 in sets2:
                    checked += 1
                    if not in_gamma(list(q1 | q2), j):
                        violations.append((s1, s2, q1, q2))
    return checked, violations


def test_check_4_existential_local_consistency():
    t0 = time.perf_counter()
    failures = []
    total = 0
    for m in range(1, 4):
        for k in range(1, 3):
            space = space_for(m, k)
            for hit_side in (True, False):
                n, bad = _existential_update_violations(space, hit_side)
                total += n
                failures += [("update", hit_side, m) + v for v in bad]
                n, bad = _existential_join_violations(space, hit_side)
                total += n
                failures += [("join", hit_side, m, v) for v in bad]
    # the signature reduction itself, against brute force on a tiny universe
    for hit_side in (True, False):
        n, bad = _existential_join_direct(space_for(2, 1), hit_side)
        total += n
        failures += [("join-direct", hit_side, v) for v in bad]
    assert total > 5 * 10**5  # guards against a vacuous enumeration
    ok = _report(4, f"existential transfer and join consistency "
                    f"({total} cases)", not failures,
                 time.perf_counter() - t0, 60.0)
    assert ok, failures[:10]


def test_check_5_oracle_completeness(corpus):
    t0 = time.perf_counter()
    failures = []
    for config, g in corpus:
        for init in INITS:
            rep = verify_against_oracle(g, config, init, Mode.AI_MC)
            if rep.n_disagreements:
                failures.append((g.name, init.value, rep.n_disagreements))
    ok = _report(5, "zero oracle disagreements on 500 programs, both inits",
                 not failures, time.perf_counter() - t0, 300.0)
    assert ok, failures


def test_check_6_abstract_phase_soundness(corpus):
    t0 = time.perf_counter()
    failures = []
    for config, g in corpus:
        for init in INITS:
            rep = verify_against_oracle(g, config, init, Mode.AI_ONLY)
            if rep.n_disagreements:
                failures.append((g.name, init.value, rep.n_disagreements))
            if rep.n_mc_resolved:
                failures.append((g.name, init.value, "used the model checker"))
    ok = _report(6, "abstract verdicts sound without model checking",
                 not failures, time.perf_counter() - t0, 300.0)
    assert ok, failures


def test_check_7_mode_equivalence(corpus, classified):
    t0 = time.perf_counter()
    modes = (Mode.AI_MC, Mode.AI_MC_NO_DU, Mode.MC_ONLY)
    failures = []
    for i, (config, g) in enumerate(corpus):
        for init in INITS:
            res = {mode: classified(i, mode, init) for mode in modes}
            counts = [
                Counter(fv.verdict for fv in res[mode].verdicts) for mode in modes
            ]
            if not counts[0] == counts[1] == counts[2]:
                failures.append((g.name, init.value, "verdict multisets differ"))
            runs = [res[mode].stats.focused_runs for mode in modes]
            if not runs[0] <= runs[1] <= runs[2]:
                failures.append((g.name, init.value, f"focused runs {runs}"))
    ok = _report(7, "mode-equivalent verdicts, ordered focused-run counts",
                 not failures, time.perf_counter() - t0, 300.0)
    assert ok, failures


def test_check_8_pruning_changes_no_search(corpus):
    """The may-based pruning, kept for the SMV export, changes no focused search.

    Per ai+mc residual block, on the full table and on the skeleton, with and
    without the classification's goals, the `simplify_for` model's search
    finds the same states, explores as many pairs and stops at the same point
    as the `unsimplified_model` search the classification runs.
    """
    t0 = time.perf_counter()
    failures = []
    for config, g in corpus:
        k = config.associativity
        for s in range(config.num_sets):
            pg = project(g, s, config)
            for init in INITS:
                analysis = analyze_set(pg, k, init, Mode.AI_MC)
                if not analysis.residual:
                    continue
                space = analysis.space
                tables = (full_table(pg, space.blocks), analysis.adj)
                for block, group in analysis.residual_by_block().items():
                    goals = [(c.access.src, c.exists_hit, c.exists_miss) for c in group]
                    for table, goal_set in itertools.product(tables, (None, goals)):
                        runs = []
                        for model in (
                            unsimplified_model(pg, block, space, table),
                            simplify_for(pg, block, analysis.may, space, table),
                        ):
                            seeds = initial_focused(init)
                            r = focused_reach(model, seeds, goal_set)
                            runs.append((r.states, r.explored, r.partial))
                        if runs[0] != runs[1]:
                            failures.append((g.name, s, init.value, block.index, goal_set))
    ok = _report(8, "may-based pruning changes no focused search",
                 not failures, time.perf_counter() - t0, 300.0)
    assert ok, failures


def test_check_9_determinism(tmp_path):
    t0 = time.perf_counter()
    failures = []
    prog = tmp_path / "prog.json"
    prog.write_text(
        cfg_text(
            "e", ["e", "f", "g", "d1", "d2", "h", "i", "j"],
            [("e", "f", 0), ("f", "g", 8), ("g", "d1", 16), ("d1", "d2", 24),
             ("d2", "h", None), ("g", "h", None), ("h", "i", 8), ("i", "j", 0)],
        ),
        encoding="utf-8",
    )
    flags = ["--assoc", "2", "--sets", "1", "--block-size", "8"]

    def cli(run_tag, *argv):
        env = dict(os.environ, PYTHONHASHSEED=run_tag)
        proc = subprocess.run(
            [sys.executable, "-m", "lrucheck.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        if proc.returncode != 0:
            failures.append((argv[0], proc.stderr))
        return proc

    for tag in ("1", "2"):
        d = tmp_path / f"run{tag}"
        d.mkdir()
        cli(tag, "verify", str(prog), *flags, "--out", str(d / "report.json"))
        cli(tag, "export-smv", str(prog), *flags, "--outdir", str(d / "smv"))
        cli(tag, "gen", "--outdir", str(d / "gen"), "--seed", "42", "--count", "2")

    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    if (d1 / "report.json").read_bytes() != (d2 / "report.json").read_bytes():
        failures.append("analyze reports differ between runs")
    smv1 = sorted(p.name for p in (d1 / "smv").glob("*.smv"))
    smv2 = sorted(p.name for p in (d2 / "smv").glob("*.smv"))
    if not smv1 or smv1 != smv2:
        failures.append(f"smv file sets differ: {smv1} vs {smv2}")
    for name in smv1:
        if (d1 / "smv" / name).read_bytes() != (d2 / "smv" / name).read_bytes():
            failures.append(f"smv export {name} differs between runs")
    for name in ("gen42.json", "gen43.json"):
        if (d1 / "gen" / name).read_bytes() != (d2 / "gen" / name).read_bytes():
            failures.append(f"generated program {name} differs between runs")
    ok = _report(9, "byte-identical reports, exports, and generated programs",
                 not failures, time.perf_counter() - t0, None)
    assert ok, failures
