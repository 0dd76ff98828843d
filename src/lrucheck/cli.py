"""Command line interface.

Subcommands: analyze (classify and emit a JSON report), verify (differential
check against the exact oracle), export-smv (emit focused cache models for an
external model checker), gen (write synthetic programs), bench (run the
experiment harness over a corpus).

Reports and exports go to stdout or to files; stderr carries only diagnostics.
Exit codes: 0 success, 1 oracle disagreement, 2 input or usage error,
3 analysis budget exceeded, 4 input/output error.
"""

from __future__ import annotations

import argparse
import logging
import os
import re
import sys
from typing import Optional, Sequence

from .bench import (
    DEFAULT_CONFIG,
    GenError,
    GenSpec,
    generate_json,
    run_experiment,
    summarize,
    write_csv,
)
from .cfg import CacheConfig, CfgParseError, load_cfg, project
from .classify import Mode, abstract_phase, accesses_by_set, classify_all, verify_against_oracle
from .concrete import DEFAULT_ORACLE_BUDGET, InitMode
from .focused import DEFAULT_MC_BUDGET, export_smv, smv_filename
from .report import build_report, render_report

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_IO = 4

log = logging.getLogger(__name__)


def _add_cache_flags(p: argparse.ArgumentParser, *, budget_mc: bool) -> None:
    p.add_argument("--assoc", type=int, default=DEFAULT_CONFIG.associativity,
                   help="cache associativity (ways per set)")
    p.add_argument("--sets", type=int, default=DEFAULT_CONFIG.num_sets,
                   help="number of cache sets (power of two)")
    p.add_argument("--block-size", type=int, default=DEFAULT_CONFIG.block_size,
                   help="cache line size in bytes (power of two)")
    p.add_argument("--init", choices=[m.value for m in InitMode], default="empty",
                   help="initial cache contents")
    if budget_mc:
        p.add_argument("--budget-mc", type=int, default=DEFAULT_MC_BUDGET,
                       help="state budget per focused search")
    p.add_argument("--config", metavar="FILE", default=None,
                   help="key=value defaults file; command line flags win")


def _add_mode_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=[m.value for m in Mode], default="ai+mc",
                   help="pipeline mode")
    p.add_argument("--no-simplify", action="store_true",
                   help="model check on raw per-set graphs, skipping may-based pruning")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="lrucheck",
        description="Static always-hit/always-miss classification for LRU instruction caches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    p = sub.add_parser("analyze", help="classify every access and emit a JSON report")
    p.add_argument("input", help="CFG JSON file")
    _add_cache_flags(p, budget_mc=True)
    p.add_argument("--budget-oracle", type=int, default=None,
                   help="state budget for the exact oracle (with --with-oracle only)")
    _add_mode_flag(p)
    p.add_argument("--out", default=None, help="report file (default: stdout)")
    p.add_argument("--with-oracle", action="store_true",
                   help="also run the exact oracle and embed the comparison")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (makes output non-reproducible)")
    commands["analyze"] = p

    p = sub.add_parser("verify", help="check pipeline verdicts against the exact oracle")
    p.add_argument("input", help="CFG JSON file")
    _add_cache_flags(p, budget_mc=True)
    p.add_argument("--budget-oracle", type=int, default=DEFAULT_ORACLE_BUDGET,
                   help="state budget for the exact oracle")
    _add_mode_flag(p)
    p.add_argument("--out", default=None, help="write the differential report as JSON")
    commands["verify"] = p

    p = sub.add_parser("export-smv", help="emit focused cache models in SMV syntax")
    p.add_argument("input", help="CFG JSON file")
    _add_cache_flags(p, budget_mc=False)
    _add_mode_flag(p)
    p.add_argument("--outdir", default=".", help="directory for .smv files")
    p.add_argument("--block", type=int, default=None,
                   help="export this block index only, targeting all its accesses")
    commands["export-smv"] = p

    p = sub.add_parser("gen", help="generate synthetic CFG JSON programs")
    p.add_argument("--seed", type=int, default=0, help="seed of the first program")
    p.add_argument("--count", type=int, default=1, help="how many programs (consecutive seeds)")
    p.add_argument("--outdir", default=".", help="directory for generated files")
    p.add_argument("--gen-vertices", type=int, default=10)
    p.add_argument("--gen-loops", type=int, default=1)
    p.add_argument("--gen-depth", type=int, default=1)
    p.add_argument("--gen-branch-p", type=float, default=0.3)
    p.add_argument("--gen-blocks", type=int, default=4)
    p.add_argument("--gen-access-p", type=float, default=0.7)
    p.add_argument("--block-size", type=int, default=DEFAULT_CONFIG.block_size)
    p.add_argument("--config", metavar="FILE", default=None)
    commands["gen"] = p

    p = sub.add_parser("bench", help="run the pipeline over a corpus and write a CSV")
    p.add_argument("--corpus", required=True, help="directory of CFG JSON files")
    p.add_argument("--modes", default="ai+mc,mc-only",
                   help="comma-separated pipeline modes to run")
    _add_cache_flags(p, budget_mc=True)
    p.add_argument("--no-simplify", action="store_true")
    p.add_argument("--out", default="bench.csv", help="CSV output path")
    p.add_argument("--timings", action="store_true",
                   help="record wall-clock timings (makes output non-reproducible)")
    commands["bench"] = p

    return parser, commands


def _load_config_file(path: str, sub: argparse.ArgumentParser) -> dict:
    """Read `key = value` defaults; keys are long option names without dashes."""
    valid = {a.dest for a in sub._actions}
    overrides: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CfgParseError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            dest = key.replace("-", "_")
            if dest not in valid:
                raise CfgParseError(f"{path}:{lineno}: unknown option {key!r}")
            overrides[dest] = value
    return overrides


def _coerce_config_values(sub: argparse.ArgumentParser, overrides: dict) -> dict:
    coerced = {}
    for action in sub._actions:
        if action.dest in overrides:
            raw = overrides[action.dest]
            if action.type is not None:
                try:
                    coerced[action.dest] = action.type(raw)
                except ValueError as exc:
                    raise CfgParseError(
                        f"config option {action.dest}: bad value {raw!r}"
                    ) from exc
            elif isinstance(action.const, bool) or isinstance(action.default, bool):
                coerced[action.dest] = raw.lower() in ("1", "true", "yes", "on")
            else:
                coerced[action.dest] = raw
            if action.choices and coerced[action.dest] not in action.choices:
                raise CfgParseError(
                    f"config option {action.dest}: {raw!r} not one of {sorted(action.choices)}"
                )
    return coerced


def _cache_config(args: argparse.Namespace) -> CacheConfig:
    return _checked(
        CacheConfig, associativity=args.assoc, num_sets=args.sets, block_size=args.block_size
    )


def _checked(cls, **values):
    """Construct `cls`, turning its range check's ValueError into a usage error."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise CfgParseError(str(exc)) from exc


#: Options that count something and must be at least 1, with their flags.
_POSITIVE = (
    ("budget_mc", "--budget-mc"),
    ("budget_oracle", "--budget-oracle"),
    ("count", "--count"),
)


def _check_positive(args: argparse.Namespace) -> None:
    """Reject a budget or count below 1 as a usage error."""
    for dest, flag in _POSITIVE:
        value = getattr(args, dest, None)
        if value is not None and value < 1:
            raise CfgParseError(f"{flag} must be at least 1, got {value}")


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.budget_oracle is not None and not args.with_oracle:
        raise CfgParseError("--budget-oracle is read only with --with-oracle")
    config = _cache_config(args)
    g = load_cfg(args.input, config)
    init = InitMode(args.init)
    mode = Mode(args.mode)
    oracle = None
    if args.with_oracle:
        oracle = verify_against_oracle(
            g, config, init, mode,
            simplify=not args.no_simplify,
            mc_budget=args.budget_mc,
            oracle_budget=(
                DEFAULT_ORACLE_BUDGET if args.budget_oracle is None else args.budget_oracle
            ),
        )
        result = oracle.classification
    else:
        result = classify_all(
            g, config, init, mode, simplify=not args.no_simplify, mc_budget=args.budget_mc,
        )
    doc = build_report(
        g, config, init, mode, result,
        simplify=not args.no_simplify, timings=args.timings, oracle=oracle,
    )
    _write_text(args.out, render_report(doc))
    if oracle is not None and oracle.n_disagreements:
        log.error("oracle disagreements: %d", oracle.n_disagreements)
        return EXIT_DISAGREE
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    config = _cache_config(args)
    g = load_cfg(args.input, config)
    init = InitMode(args.init)
    mode = Mode(args.mode)
    oracle = verify_against_oracle(
        g, config, init, mode,
        simplify=not args.no_simplify,
        mc_budget=args.budget_mc, oracle_budget=args.budget_oracle,
    )
    if args.out:
        doc = build_report(
            g, config, init, mode, oracle.classification,
            simplify=not args.no_simplify, oracle=oracle,
        )
        _write_text(args.out, render_report(doc))
    status = "ok" if oracle.n_disagreements == 0 else "DISAGREE"
    sys.stdout.write(
        f"{status}: {oracle.n_checked} accesses checked, "
        f"{oracle.n_disagreements} disagreements, "
        f"{oracle.n_mc_resolved} resolved by model checking\n"
    )
    return EXIT_OK if oracle.n_disagreements == 0 else EXIT_DISAGREE


def cmd_export_smv(args: argparse.Namespace) -> int:
    config = _cache_config(args)
    g = load_cfg(args.input, config)
    init = InitMode(args.init)
    mode = Mode(args.mode)
    os.makedirs(args.outdir, exist_ok=True)

    written: list[str] = []
    known_blocks: set[int] = set()
    _, by_set = accesses_by_set(g, config.num_sets)
    for s in range(config.num_sets):
        analysis = abstract_phase(
            project(g, s, config), config.associativity, init, mode, by_set[s]
        )
        if not analysis.accesses:
            continue
        known_blocks.update(b.index for b in analysis.space.blocks)

        if args.block is not None:
            targets_by_block: dict = {}
            for a in analysis.accesses:
                if a.block.index == args.block:
                    targets_by_block.setdefault(a.block, []).append(a)
        else:
            targets_by_block = {
                block: [c.access for c in group]
                for block, group in analysis.residual_by_block().items()
            }

        for block, targets in targets_by_block.items():
            model = analysis.model(block, not args.no_simplify, analysis.adj)
            text = export_smv(model, init, targets)
            path = os.path.join(args.outdir, smv_filename(g.name, s, block))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            written.append(path)

    if args.block is not None and args.block not in known_blocks:
        valid = ", ".join(str(i) for i in sorted(known_blocks)) or "none"
        raise CfgParseError(
            f"block {args.block} is never accessed; accessed block indexes: {valid}"
        )
    for path in written:
        sys.stdout.write(path + "\n")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    config = _checked(
        CacheConfig,
        associativity=DEFAULT_CONFIG.associativity,
        num_sets=DEFAULT_CONFIG.num_sets,
        block_size=args.block_size,
    )
    os.makedirs(args.outdir, exist_ok=True)
    for seed in range(args.seed, args.seed + args.count):
        spec = _checked(
            GenSpec,
            vertices=args.gen_vertices,
            loops=args.gen_loops,
            depth=args.gen_depth,
            branch_p=args.gen_branch_p,
            blocks=args.gen_blocks,
            access_p=args.gen_access_p,
            seed=seed,
        )
        text = generate_json(spec, config)
        path = os.path.join(args.outdir, f"gen{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        sys.stdout.write(path + "\n")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    config = _cache_config(args)
    init = InitMode(args.init)
    try:
        modes = [Mode(m.strip()) for m in args.modes.split(",") if m.strip()]
    except ValueError as exc:
        raise CfgParseError(f"unknown mode in --modes: {exc}") from exc
    if not modes:
        raise CfgParseError("--modes must name at least one mode")

    names = sorted(n for n in os.listdir(args.corpus) if n.endswith(".json"))
    if not names:
        raise CfgParseError(f"no .json programs found in {args.corpus!r}")
    programs = []
    for n in names:
        g = load_cfg(os.path.join(args.corpus, n), config)
        m = re.search(r"(\d+)$", os.path.splitext(n)[0])
        programs.append((g.name, int(m.group(1)) if m else -1, g))

    rows, errors = run_experiment(
        programs, config, modes, init,
        simplify=not args.no_simplify, mc_budget=args.budget_mc, timings=args.timings,
    )
    write_csv(rows, args.out)
    for err in errors:
        log.warning("%s", err)
    summary = summarize(rows)
    sys.stdout.write(f"wrote {len(rows)} rows to {args.out}\n")
    for mode_name, totals in sorted(summary["totals"].items()):
        sys.stdout.write(
            f"  {mode_name}: {totals['programs']} programs, {totals['n_access']} accesses, "
            f"AH {totals['n_ah']} / AM {totals['n_am']} / DU {totals['n_du']}, "
            f"{totals['focused_runs']} focused runs\n"
        )
    for mode_name, ratio in sorted(summary["focused_run_ratio_vs_ai_mc"].items()):
        sys.stdout.write(f"  focused-run ratio {mode_name} vs ai+mc: {ratio:.2f}x (geomean)\n")
    return EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "export-smv": cmd_export_smv,
    "gen": cmd_gen,
    "bench": cmd_bench,
}


#: Accepted values of the LRUCHECK_LOG environment variable (case-insensitive).
_LOG_LEVELS = {"": logging.WARNING, "0": logging.WARNING, "1": logging.INFO, "2": logging.DEBUG,
               "warning": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> Optional[str]:
    """Log to stderr at the LRUCHECK_LOG level; returns an error for an unknown level."""
    raw = os.environ.get("LRUCHECK_LOG", "")
    level = _LOG_LEVELS.get(raw.strip().lower())
    if level is None:
        return (f"LRUCHECK_LOG={raw!r} is not a log level; "
                "use warning, info, debug, 0, 1 or 2")
    logging.basicConfig(
        stream=sys.stderr,
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    log_error = _setup_logging()
    if log_error is not None:
        sys.stderr.write(f"error: {log_error}\n")
        return EXIT_USAGE
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()

    # Config files supply defaults, so they must be applied before parsing.
    if argv and argv[0] in commands:
        sub = commands[argv[0]]
        config_path = None
        for i, a in enumerate(argv):
            if a == "--config" and i + 1 < len(argv):
                config_path = argv[i + 1]
            elif a.startswith("--config="):
                config_path = a.split("=", 1)[1]
        if config_path is not None:
            try:
                overrides = _load_config_file(config_path, sub)
                sub.set_defaults(**_coerce_config_values(sub, overrides))
            except OSError as exc:
                sys.stderr.write(f"error: cannot read config file: {exc}\n")
                return EXIT_IO
            except CfgParseError as exc:
                sys.stderr.write(f"error: {exc}\n")
                return EXIT_USAGE

    args = parser.parse_args(argv)
    from .concrete import OracleCapacityError
    from .focused import FocusedCapacityError

    try:
        _check_positive(args)
        return _COMMANDS[args.command](args)
    except CfgParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except GenError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OracleCapacityError as exc:
        sys.stderr.write(f"error: {exc} (raise --budget-oracle to allow more states)\n")
        return EXIT_BUDGET
    except FocusedCapacityError as exc:
        sys.stderr.write(f"error: {exc} (raise --budget-mc to allow more states)\n")
        return EXIT_BUDGET
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
