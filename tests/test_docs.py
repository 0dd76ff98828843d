"""The README's tables agree with the code.

The Command reference table agrees with the argument parser, and the `verify`
rows of the Work and precision table with the `bench` CSVs that the README's
own commands produce.
"""

from __future__ import annotations

import collections
import csv
import re
import shlex
from pathlib import Path

import pytest

from lrucheck.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"
HEADER = "| flag | default | accepted by | meaning |"


def flag_rows():
    """(flag, default cell, accepted-by cell) per row of the flag table."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(HEADER) + 2  # skip the header and its separator
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        flag = re.match(r"`(--[a-z-]+)", cells[0]).group(1)
        rows.append((flag, cells[1], cells[2]))
    return rows


def documented_default(cell):
    """The parser value a default cell names: `off`, `none`, `2^20`, a number or a word."""
    if cell == "off":
        return False
    if cell == "none":
        return None
    power = re.fullmatch(r"(\d+)\^(\d+)", cell)
    if power:
        return int(power.group(1)) ** int(power.group(2))
    if cell.isdigit():
        return int(cell)
    return cell


def documented_commands(cell, commands):
    if cell == "every subcommand":
        return set(commands)
    return {name for name in re.findall(r"`([a-z-]+)`", cell) if name in commands}


def test_flag_table_is_found():
    flags = [flag for flag, _, _ in flag_rows()]
    assert len(flags) == len(set(flags)) >= 9
    assert "--budget-mc" in flags


@pytest.mark.parametrize("flag, default, accepted", flag_rows(), ids=lambda v: str(v)[:20])
def test_flag_row_matches_the_parser(flag, default, accepted):
    _, commands = build_parser()
    defining = {
        name for name, sub in commands.items()
        if any(flag in action.option_strings for action in sub._actions)
    }
    assert documented_commands(accepted, commands) == defining, flag
    want = documented_default(default)
    for name in sorted(defining):
        action = next(a for a in commands[name]._actions if flag in a.option_strings)
        assert action.default == want, (name, flag)


def precision_section():
    text = README.read_text(encoding="utf-8")
    return text.split("## Work and precision", 1)[1].split("\n## ", 1)[0]


def readme_commands(section):
    """The `lrucheck` commands of the section's shell block, continuation lines joined."""
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line.strip())[1:] for line in block.splitlines()
            if line.strip().startswith("lrucheck ")]


def csv_sums(path):
    """Per mode, the sum of each integer column the table reads."""
    columns = ("n_access", "prov_must", "prov_may", "prov_ehem", "prov_mc",
               "focused_runs", "states_explored")
    totals = collections.defaultdict(collections.Counter)
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            totals[row["mode"]].update({c: int(row[c]) for c in columns})
    return totals


def table_cells(totals):
    """The cells of one table row after `corpus | init`, as the README writes them."""
    modes = ("ai+mc", "ai+mc-no-du", "mc-only")
    first = totals["ai+mc"]
    per_mode = [" / ".join(f"{totals[m][c]:,}" for m in modes)
                for c in ("prov_mc", "focused_runs", "states_explored")]
    return [f"{first['n_access']:,}", f"{first['prov_must'] + first['prov_may']:,}",
            f"{first['prov_ehem']:,}", *per_mode]


@pytest.mark.parametrize("init", ["empty", "unknown"])
def test_precision_table_verify_rows_match_bench(capsys, tmp_path, monkeypatch, init):
    section = precision_section()
    commands = readme_commands(section)
    gen = next(c for c in commands if c[0] == "gen" and c[-2:] == ["--outdir", "verify"])
    bench = next(c for c in commands if c[:3] == ["bench", "--corpus", "verify"])
    monkeypatch.chdir(tmp_path)
    assert main(gen) == 0
    argv = [init if arg == "$init" else arg for arg in bench]
    assert argv[-2] == "--out"
    assert main(argv) == 0
    capsys.readouterr()
    totals = csv_sums(tmp_path / argv[-1])
    assert sorted(totals) == ["ai+mc", "ai+mc-no-du", "mc-only"]
    # must and may settle the same accesses with or without the exists domains
    no_du = totals["ai+mc-no-du"]
    assert no_du["prov_must"] + no_du["prov_may"] == (
        totals["ai+mc"]["prov_must"] + totals["ai+mc"]["prov_may"]
    )
    row = next(line for line in section.splitlines()
               if line.startswith(f"| `verify` | {init} |"))
    cells = [c.strip() for c in row.strip("|").split("|")]
    assert cells[2:] == table_cells(totals)
