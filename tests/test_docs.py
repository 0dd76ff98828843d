"""The README's Command reference table agrees with the argument parser."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from lrucheck.cli import build_parser
from lrucheck.concrete import DEFAULT_ORACLE_BUDGET

README = Path(__file__).resolve().parent.parent / "README.md"
HEADER = "| flag | default | accepted by | meaning |"

#: (subcommand, flag) pairs whose parser default is None because the
#: subcommand reads the flag only together with another one; it then falls
#: back to the documented default.
UNSET_UNTIL_READ = {("analyze", "--budget-oracle"): DEFAULT_ORACLE_BUDGET}


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
        if (name, flag) in UNSET_UNTIL_READ:
            assert action.default is None, (name, flag)
            assert UNSET_UNTIL_READ[name, flag] == want, (name, flag)
        else:
            assert action.default == want, (name, flag)
