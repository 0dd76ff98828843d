"""The exit-code contract under hostile input: seeded mutations through `cli.main`.

Every call must return 0, 2, 3 or 4 (1 means an oracle disagreement, which
no mutation of a program can cause), write exactly one `error:` line to
stderr when it fails, and never raise.  The mutations start from the
programs in docs/examples: truncation, byte flips, deep nesting, huge
integers, values of the wrong type and duplicate keys.  Flags take cheap
extreme values: a huge set count, a 2048-way unknown cache, a budget of 1,
and associativities past the 4096 limit.  `gen` gets loops nested too deep
for its builder and a vertex budget too large to hold.
Every program keeps a handful of blocks, so no call can allocate much.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from lrucheck.bench import GenSpec
from lrucheck.cli import main

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "docs" / "examples").glob("*.json"))
ALLOWED = {0, 2, 3, 4}

#: Values that replace a value of a parsed program, whatever its type.
WRONG_VALUES = [None, True, -1, 0, 1.5, 10**30, "x", "", [], {}, [1], {"a": 1}, ["a", None]]

#: Flag values; each call draws a few of them.
FLAG_CHOICES = [
    ("--assoc", ["1", "2", "4", "2048"]),
    ("--sets", ["1", "2", str(2**30)]),
    ("--block-size", ["1", "8", str(2**20)]),
    ("--init", ["empty", "unknown"]),
    ("--mode", ["ai-only", "ai+mc", "mc-only", "ai+mc-no-du"]),
    ("--budget-mc", ["1", "10"]),
]


def truncate(rng, data):
    return data[: rng.randrange(len(data))]


def flip_bytes(rng, data):
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        out[rng.randrange(len(out))] = rng.randrange(256)
    return bytes(out)


def deep_nesting(rng, data):
    depth = rng.choice([50, 2000, 200_000])
    at = data.find(b'"access": 0')
    nested = b"[" * depth + b"0" + b"]" * depth
    if at < 0 or rng.random() < 0.5:
        return nested
    return data[:at] + b'"access": ' + nested + data[at + len(b'"access": 0'):]


def huge_integer(rng, data):
    digits = rng.choice([20, 400, 5000])
    number = str(rng.randrange(1, 10)).encode() + b"7" * (digits - 1)
    at = data.find(b'"access": ')
    head = data[: at + len(b'"access": ')]
    rest = data[len(head):]
    end = min(i for i in (rest.find(b","), rest.find(b"}")) if i >= 0)
    return head + number + rest[end:]


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _paths(v, path + (key,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _paths(v, path + (i,))


def wrong_type(rng, data):
    doc = json.loads(data)
    path = rng.choice(list(_paths(doc))[1:])
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = rng.choice(WRONG_VALUES)
    return json.dumps(doc).encode()


def duplicate_key(rng, data):
    doc = json.loads(data)
    key = rng.choice(sorted(doc))
    value = json.dumps(rng.choice(WRONG_VALUES + [doc[key]]))
    # The decoder keeps the last of two equal keys; put the copy first or last.
    body = json.dumps(doc)[1:-1]
    pair = f"{json.dumps(key)}: {value}"
    text = f"{{{pair}, {body}}}" if rng.random() < 0.5 else f"{{{body}, {pair}}}"
    return text.encode()


MUTATIONS = [truncate, flip_bytes, deep_nesting, huge_integer, wrong_type, duplicate_key]


def call(capsys, argv):
    """Run the CLI; check the exit code and the stderr contract."""
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:  # any escape breaks the contract
        pytest.fail(f"{argv} raised {type(exc).__name__}: {exc}")
    err = capsys.readouterr().err
    assert code in ALLOWED, (argv, code, err)
    if code != 0:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert err.count("error:") == 1, (argv, err)
    return code


def draw_flags(rng, command):
    flags = []
    for flag, values in FLAG_CHOICES:
        if rng.random() < 0.4:
            if command == "export-smv" and flag == "--budget-mc":
                continue
            if command == "bench" and flag == "--mode":
                continue
            flags += [flag, rng.choice(values)]
    return flags


@pytest.mark.parametrize("seed", range(4))
def test_mutated_programs_keep_the_exit_code_contract(capsys, tmp_path, seed):
    rng = random.Random(seed)
    sources = [p.read_bytes() for p in EXAMPLES]
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    codes = set()
    for i in range(150):
        mutate = MUTATIONS[i % len(MUTATIONS)]
        data = mutate(rng, rng.choice(sources))
        program = corpus / "prog0.json"
        program.write_bytes(data)
        command = rng.choice(["analyze", "verify", "export-smv", "bench"])
        if command == "bench":
            argv = ["bench", "--corpus", str(corpus), "--out", str(tmp_path / "bench.csv")]
        elif command == "export-smv":
            argv = ["export-smv", str(program), "--outdir", str(tmp_path / "smv")]
        else:
            argv = [command, str(program), "--out", str(tmp_path / "report.json")]
        codes.add(call(capsys, argv + draw_flags(rng, command)))
    assert codes >= {0, 2}


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.stem)
@pytest.mark.parametrize(
    "flags, want",
    [
        (["--sets", str(2**30)], 0),
        (["--assoc", "2048", "--init", "unknown"], 0),
        (["--budget-mc", "1", "--mode", "mc-only"], 3),
        (["--sets", "3"], 2),
        (["--assoc", "0"], 2),
        (["--block-size", str(2**64)], 0),
        (["--assoc", "4097"], 2),
        (["--assoc", str(2**64)], 2),
    ],
    ids=["sets-2^30", "assoc-2048-unknown", "budget-mc-1", "sets-3", "assoc-0", "block-2^64",
         "assoc-4097", "assoc-2^64"],
)
def test_extreme_flags_keep_the_exit_code_contract(capsys, tmp_path, example, flags, want):
    for command in ("analyze", "verify"):
        argv = [command, str(example), "--out", str(tmp_path / "report.json"), *flags]
        assert call(capsys, argv) == want, argv


@pytest.mark.parametrize(
    "knobs",
    [{"vertices": 4000, "loops": 990, "depth": 990}, {"vertices": 10**12}],
    ids=["depth-990", "vertices-10^12"],
)
def test_gen_rejects_shapes_it_cannot_build(capsys, tmp_path, knobs):
    # Nesting 990 loops deep overflowed the builder's recursion, and a
    # 10**12-vertex budget allocated without bound.  The spec is checked
    # first, so a missing range check fails here instead of building.
    with pytest.raises(ValueError):
        GenSpec(**knobs)
    flags = [f"--gen-{knob}={value}" for knob, value in knobs.items()]
    assert call(capsys, ["gen", "--outdir", str(tmp_path), *flags]) == 2
    assert not any(tmp_path.iterdir())
