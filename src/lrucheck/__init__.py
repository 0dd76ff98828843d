"""Static hit/miss classification for LRU instruction caches.

Classifies every memory access of a control-flow graph as always-hit,
always-miss or definitely-unknown, using cheap abstract interpretation for
the bulk of the accesses and an exact focused model checker for the rest.
"""

__version__ = "0.1.0"

from .cfg import (  # noqa: F401
    AccessId,
    CacheConfig,
    Cfg,
    CfgError,
    CfgParseError,
    Edge,
    MemoryBlock,
    accesses_of,
    parse_cfg,
    project,
)
from .classify import (  # noqa: F401
    ClassifyResult,
    FinalVerdict,
    Mode,
    PhaseStats,
    Provenance,
    classify_all,
    verify_against_oracle,
)
from .concrete import InitMode, OracleCapacityError, StateSpace  # noqa: F401
from .focused import FocusedCapacityError  # noqa: F401
from .verdict import Verdict  # noqa: F401
