"""The one record of what the pipeline knows about an access.

Every stage speaks in `FinalVerdict`s: the abstract phase returns one per
access (`ai.ai_classify`), with provenance `unresolved` when its bounds do not
settle the access, and the model-checking step replaces only those.  The
record says the verdict, the stage that proved it, and whether a hit and a
miss are each known possible.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:
    from .cfg import AccessId


class Verdict(enum.Enum):
    """Final judgement about one memory access.

    ALWAYS_HIT: the access hits in cache on every execution reaching it.
    ALWAYS_MISS: the access misses on every execution reaching it.
    DEFINITELY_UNKNOWN: both a hitting and a missing execution exist, so
    no amount of extra analysis effort can sharpen the answer.
    """

    ALWAYS_HIT = "always-hit"
    ALWAYS_MISS = "always-miss"
    DEFINITELY_UNKNOWN = "definitely-unknown"

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


class FinalVerdict(NamedTuple):
    """What is known about one access, and which stage proved it.

    `verdict` is None exactly when the provenance is `unresolved`: the
    abstract phase could not settle the access, and in ai-only mode nothing
    else tries.  The flags say whether a hit and a miss are each known
    possible; for an unresolved access they steer the model checker.  The
    access's cache set is `access.block.set_index`.
    """

    access: AccessId
    verdict: Optional[Verdict]
    provenance: Provenance
    exists_hit: bool
    exists_miss: bool
