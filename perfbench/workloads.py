"""The pinned workloads of the lrucheck benchmark.

Each workload is a closed loop: one caller analyses one program at a time
through `lrucheck.cli.main`, from a single process.  A workload names the CLI
subcommand, its cache sets, initial cache and mode (`None`: the CLI default;
the CLI defaults stand for every other flag, `--jobs` included), the
`lrucheck gen` flags of its corpus, the generator seeds, and the SHA-256
digest of the corpus those seeds produce.  The benchmark refuses
to run a pinned corpus whose digest differs, so a change to the generator
cannot silently change a workload.

BENCHMARK.json lists the workloads every check runs and why each exists;
`analyze-loops-mc-only` runs only on request.  README.md says why, and which
layers each workload should move and which it must leave unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Workload:
    """One pinned workload: CLI call, corpus generator flags, seeds, corpus digest."""

    name: str
    command: str
    sets: int
    init: str
    mode: Optional[str]
    gen: tuple[str, ...]
    first_seed: int
    count: int
    digest: str


#: Cache geometry the CLI uses by default and the oracle reference assumes.
ASSOCIATIVITY = 4
BLOCK_SIZE = 32

# The ROADMAP baseline corpus: 10 programs, default geometry (k=4, 32 B lines).
_LOOPS_GEN = ("--gen-vertices", "400", "--gen-loops", "40", "--gen-depth", "3", "--gen-blocks", "64")
_LOOPS_DIGEST = "f37e0db6b42a4861bfe9f839532f4aa46cb89b83b79567eb5de91b742a04d092"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="analyze-loops",
            command="analyze",
            sets=8,
            init="empty",
            mode=None,
            gen=_LOOPS_GEN,
            first_seed=0,
            count=10,
            digest=_LOOPS_DIGEST,
        ),
        Workload(
            name="analyze-loops-mc-only",
            command="analyze",
            sets=8,
            init="empty",
            mode="mc-only",
            gen=_LOOPS_GEN,
            first_seed=0,
            count=10,
            digest=_LOOPS_DIGEST,
        ),
        Workload(
            name="verify-unknown",
            command="verify",
            sets=2,
            init="unknown",
            mode=None,
            gen=("--gen-vertices", "200", "--gen-loops", "20", "--gen-depth", "3", "--gen-blocks", "32"),
            first_seed=0,
            count=5,
            digest="1ff454a0d4e285c892ffd5dcf0bad990e896ba45639b1e63801264d4fdf2eccb",
        ),
    )
}
