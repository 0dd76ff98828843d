"""JSON report documents for analysis results.

Reports are dictionaries with a fixed key layout (see docs/report.schema.json)
and deterministic content: no timestamps, no filesystem paths, and timing
fields zeroed unless explicitly requested, so the same input always renders to
the same bytes.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import __version__
from .cfg import CacheConfig, Cfg
from .classify import ClassifyResult, Mode, OracleReport
from .concrete import InitMode
from .verdict import MC_PROVENANCES

SCHEMA_VERSION = 2

_VERDICT_KEYS = ["always-hit", "always-miss", "definitely-unknown", "unknown"]
_PROVENANCE_KEYS = [
    "must",
    "may",
    "eh-em",
    "mc-check-ah",
    "mc-check-am",
    "mc-refuted-both",
    "unresolved",
]


def build_report(
    g: Cfg,
    config: CacheConfig,
    init: InitMode,
    mode: Mode,
    result: ClassifyResult,
    *,
    timings: bool = False,
    oracle: Optional[OracleReport] = None,
) -> dict:
    """Assemble the report document for one analysis run."""
    st = result.stats
    accesses = []
    for fv in result.verdicts:
        a = fv.access
        accesses.append(
            {
                "id": a.label,
                "from": a.src,
                "to": a.dst,
                "block": a.block.index,
                "set": a.block.set_index,
                "ordinal": a.ordinal,
                "verdict": fv.verdict.value if fv.verdict else "unknown",
                "provenance": fv.provenance.value,
                "exists_hit": fv.exists_hit,
                "exists_miss": fv.exists_miss,
            }
        )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "lrucheck", "version": __version__},
        "input": {
            "name": g.name,
            "vertices": len(g.vertices),
            "edges": len(g.edges),
            "accesses": len(result.verdicts),
        },
        "config": {
            "associativity": config.associativity,
            "num_sets": config.num_sets,
            "block_size": config.block_size,
            "init": init.value,
            "mode": mode.value,
        },
        "accesses": accesses,
        "stats": {
            "accesses": st.n_accesses,
            "verdicts": {key: st.verdict_counts.get(key, 0) for key in _VERDICT_KEYS},
            "provenance": {key: st.provenance_counts.get(key, 0) for key in _PROVENANCE_KEYS},
            "focused_runs": st.focused_runs,
            "mc_access_checks": st.mc_access_checks,
            "states_explored": st.states_explored,
            "timings_ms": {
                "ai": st.t_ai_ms if timings else 0.0,
                "mc": st.t_mc_ms if timings else 0.0,
            },
        },
        "oracle": _oracle_section(oracle),
    }
    return doc


def _oracle_section(oracle: Optional[OracleReport]) -> Optional[dict]:
    if oracle is None:
        return None
    disagreements = oracle.disagreements()
    return {
        "checked": oracle.n_checked,
        "disagreements": [
            {
                "id": fv.access.label,
                "set": fv.access.block.set_index,
                "pipeline": fv.verdict.value if fv.verdict else "unknown",
                "oracle": truth.value,
                "provenance": fv.provenance.value,
            }
            for fv, truth in disagreements
        ],
        "n_disagreements": len(disagreements),
        "mc_resolved": [
            fv.access.label
            for fv in oracle.classification.verdicts
            if fv.provenance in MC_PROVENANCES
        ],
    }


def render_report(doc: dict) -> str:
    return dumps_indented(doc) + "\n"


#: Encoders of JSON scalars by exact type, as `json.dumps` writes them.
_SCALAR = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: json.dumps,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda v: "null",
}


def dumps_indented(doc: object) -> str:
    """`json.dumps(doc, indent=2)`, byte for byte, for documents with string keys.

    With `indent`, the json module runs its pure-Python encoder.  This writer
    encodes each scalar with the C encoder's primitives and joins each
    container's items once.  Other types go to `json.dumps` as they are:
    subclasses of the scalars encode as their base, and anything else raises
    its TypeError.
    """
    return _indented(doc, "\n")


def _indented(doc: object, nl: str) -> str:
    """`dumps_indented` of a value whose own lines start with `nl`."""
    scalar = _SCALAR.get(type(doc))
    if scalar is not None:
        return scalar(doc)
    inner = nl + "  "
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = []
        for key, value in doc.items():
            scalar = _SCALAR.get(type(value))
            text = scalar(value) if scalar is not None else _indented(value, inner)
            items.append(encode_basestring_ascii(key) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        items = []
        for value in doc:
            scalar = _SCALAR.get(type(value))
            items.append(scalar(value) if scalar is not None else _indented(value, inner))
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    return json.dumps(doc)
