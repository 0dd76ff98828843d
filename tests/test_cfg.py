"""Parsing, projection and access identity."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from helpers import build_cfg, cfg_text, full_table, loop_cfg, small_config
from lrucheck.cfg import (
    AccessId,
    CacheConfig,
    CfgParseError,
    MemoryBlock,
    accesses_of,
    block_universe,
    parse_cfg,
    project,
    reverse_post_order,
    skeleton,
)


def test_cache_config_validation():
    CacheConfig(associativity=1, num_sets=1, block_size=1)
    with pytest.raises(ValueError):
        CacheConfig(associativity=0)
    with pytest.raises(ValueError):
        CacheConfig(associativity=2, num_sets=3)
    with pytest.raises(ValueError):
        CacheConfig(associativity=2, num_sets=2, block_size=24)


def test_address_to_block_and_set():
    config = CacheConfig(associativity=2, num_sets=4, block_size=16)
    assert config.block_index_of(0x40) == 4
    assert config.block_for_address(0x40) == MemoryBlock(4, 0)
    assert config.block_for_address(0x47) == MemoryBlock(4, 0)  # same 16-byte window
    assert config.block_for_address(0x50).set_index == 1


def test_parse_loop_shape(k2_config, loop2):
    assert loop2.entry == "a"
    assert len(loop2.vertices) == 5
    assert len(loop2.edges) == 5
    assert [e.block.index for e in loop2.edges if e.block is not None] == [0, 1]
    assert loop2.name == "loop"


def test_parse_rejects_bom(k2_config):
    with pytest.raises(CfgParseError, match="BOM|byte order"):
        parse_cfg("﻿{}", k2_config)


def test_parse_syntax_error_carries_position(k2_config):
    with pytest.raises(CfgParseError, match=r"line \d+ column \d+"):
        parse_cfg('{"entry": "a",,}', k2_config)


def test_parse_rejects_unknown_fields(k2_config):
    text = cfg_text("a", ["a"], [])
    bad = text[:-1] + ', "extra": 1}'
    with pytest.raises(CfgParseError, match="unknown top-level"):
        parse_cfg(bad, k2_config)
    with pytest.raises(CfgParseError, match="unknown fields"):
        parse_cfg(
            '{"entry": "a", "vertices": ["a", "b"],'
            ' "edges": [{"from": "a", "to": "b", "access": null, "weight": 3}]}',
            k2_config,
        )


def test_parse_rejects_dangling_vertex(k2_config):
    with pytest.raises(CfgParseError, match="undeclared vertex"):
        build_cfg("a", ["a"], [("a", "ghost", None)], k2_config)


def test_parse_rejects_missing_entry(k2_config):
    with pytest.raises(CfgParseError, match="missing required field 'entry'"):
        parse_cfg('{"vertices": ["a"], "edges": []}', k2_config)
    with pytest.raises(CfgParseError, match="not a declared vertex"):
        parse_cfg('{"entry": "z", "vertices": ["a"], "edges": []}', k2_config)


def test_parse_rejects_bad_access_values(k2_config):
    for access in ('-8', 'true', '"0"', '1.5'):
        with pytest.raises(CfgParseError):
            parse_cfg(
                '{"entry": "a", "vertices": ["a", "b"],'
                f' "edges": [{{"from": "a", "to": "b", "access": {access}}}]}}',
                k2_config,
            )


def test_parse_rejects_duplicate_vertices(k2_config):
    with pytest.raises(CfgParseError, match="duplicate vertex"):
        parse_cfg('{"entry": "a", "vertices": ["a", "a"], "edges": []}', k2_config)


def _doc(**fields):
    """A valid two-vertex document with `fields` replaced; None drops a field."""
    doc = {"entry": "a", "vertices": ["a", "b"], "edges": [{"from": "a", "to": "b", "access": 0}]}
    doc.update(fields)
    return json.dumps({k: v for k, v in doc.items() if v is not None})


def _edge(**fields):
    edge = {"from": "a", "to": "b", "access": 0}
    edge.update(fields)
    return _doc(edges=[{k: v for k, v in edge.items() if v != "DROP"}])


@pytest.mark.parametrize(
    "text, message",
    [
        ("\ufeff{}", "byte order mark not allowed; input must be plain UTF-8"),
        ('{"entry": "a",,}',
         "invalid JSON at line 1 column 15: Expecting property name enclosed in double quotes"),
        ("[]", "top-level value must be an object"),
        (_doc(zz=1, extra=2), "unknown top-level fields: ['extra', 'zz']"),
        (_doc(entry=None), "missing required field 'entry'"),
        (_doc(vertices=None), "missing required field 'vertices'"),
        (_doc(edges=None), "missing required field 'edges'"),
        (_doc(name=""), "name must be a non-empty string"),
        (_doc(name=7), "name must be a non-empty string"),
        (_doc(vertices=[]), "vertices must be a non-empty array"),
        (_doc(vertices="ab"), "vertices must be a non-empty array"),
        (_doc(vertices=["a", 3]), "vertex names must be non-empty strings, got 3"),
        (_doc(vertices=["a", ""]), "vertex names must be non-empty strings, got ''"),
        (_doc(vertices=["a", "b", "a"]), "duplicate vertex 'a'"),
        (_doc(entry=1), "entry must be a string"),
        (_doc(entry="z"), "entry 'z' is not a declared vertex"),
        (_doc(edges={}), "edges must be an array"),
        (_doc(edges=[1]), "edge 0: must be an object"),
        (_edge(weight=3, cost=1), "edge 0: unknown fields: ['cost', 'weight']"),
        (_edge(access="DROP"), "edge 0: missing field 'access'"),
        (_edge(to="DROP"), "edge 0: missing field 'to'"),
        (_edge(**{"from": 1}), "edge 0: 'from' must be a string"),
        (_edge(to=None), "edge 0: 'to' must be a string"),
        (_doc(edges=[{"from": "a", "to": "b", "access": None},
                     {"from": "ghost", "to": "b", "access": None}]),
         "edge 1: 'from' names undeclared vertex 'ghost'"),
        (_edge(to="ghost"), "edge 0: 'to' names undeclared vertex 'ghost'"),
        *[
            (_edge(access=bad), "edge 0: 'access' must be null or a non-negative integer address")
            for bad in (-8, True, "0", 1.5)
        ],
    ],
)
def test_parse_error_messages(k2_config, text, message):
    with pytest.raises(CfgParseError) as exc:
        parse_cfg(text, k2_config)
    assert str(exc.value) == message


def test_parse_deterministic(k2_config):
    text = cfg_text("a", ["a", "b"], [("a", "b", 0)], name="t")
    assert parse_cfg(text, k2_config) == parse_cfg(text, k2_config)


def test_accesses_of_loop(loop2):
    ids = accesses_of(loop2)
    assert [a.label for a in ids] == ["b->c:b0#0", "c->d:b1#0"]


def test_parallel_edges_get_distinct_ordinals(k2_config):
    g = build_cfg("a", ["a", "b"], [("a", "b", 0), ("a", "b", 0)], k2_config)
    ids = accesses_of(g)
    assert len(ids) == 2 and len(set(ids)) == 2
    assert [a.ordinal for a in ids] == [0, 1]


def test_projection_partitions_accesses():
    config = CacheConfig(associativity=2, num_sets=2, block_size=8)
    g = build_cfg(
        "a",
        ["a", "b", "c", "d"],
        [("a", "b", 0), ("b", "c", 8), ("c", "d", 16), ("d", "a", None)],
        config,
    )
    all_ids = accesses_of(g)
    projected = []
    for s in range(config.num_sets):
        pg = project(g, s, config)
        ids = accesses_of(pg)
        assert all(a.block.set_index == s for a in ids)
        projected.extend(ids)
    # Same multiset: every access appears in exactly one set's projection,
    # with its identity unchanged.
    assert sorted(projected) == sorted(all_ids)


def test_projection_relabels_and_drops_self_loops():
    config = CacheConfig(associativity=2, num_sets=2, block_size=8)
    g = build_cfg(
        "a",
        ["a", "b"],
        [("a", "b", 0), ("b", "b", 8), ("a", "a", None), ("b", "a", None)],
        config,
    )
    p0 = project(g, 0, config)
    # set 0: the b->b access (block 1, set 1) relabels to no-access and then
    # drops as a self-loop; the plain a->a self-loop drops too.
    assert len(p0.edges) == 2
    assert [e.block.index if e.block else None for e in p0.edges] == [0, None]
    p1 = project(g, 1, config)
    assert [(e.src, e.dst) for e in p1.edges if e.block is not None] == [("b", "b")]
    assert p0.vertices == g.vertices and p1.vertices == g.vertices


def test_projection_rejects_bad_set_index(k2_config, loop2):
    with pytest.raises(ValueError):
        project(loop2, 1, k2_config)


@given(st.integers(0, 400))
def test_generated_projection_partition_property(seed):
    from helpers import corpus_programs

    name, config, g = corpus_programs(1, base_seed=seed, sets=2)[0]
    merged = []
    for s in range(config.num_sets):
        merged.extend(accesses_of(project(g, s, config)))
    assert sorted(merged) == sorted(accesses_of(g))


def test_reverse_post_order_covers_all_vertices(loop2):
    order = reverse_post_order(loop2)
    assert sorted(order) == sorted(loop2.vertices)
    assert order[0] == "a"
    # b precedes its loop body in reverse post-order
    assert order.index("b") < order.index("c") < order.index("d")


def test_reverse_post_order_appends_unreachable(k2_config):
    g = build_cfg("a", ["a", "b", "zzz"], [("a", "b", None)], k2_config)
    order = reverse_post_order(g)
    assert order[-1] == "zzz"


def skeleton_of(g):
    return skeleton(full_table(g, block_universe(g)), g.entry)


def test_skeleton_contracts_noaccess_paths(k2_config):
    # Kept: the entry e and the access sources a and b.  u3 <-> u4 is a cycle
    # of unkept vertices; e reaches a over two paths; b -> b is an access
    # self-loop.
    g = build_cfg(
        "e",
        ["e", "u1", "u2", "u5", "a", "b", "u3", "u4", "exit"],
        [
            ("e", "u1", None), ("u1", "a", None), ("u1", "u2", None), ("u2", "b", None),
            ("e", "u5", None), ("u5", "a", None),
            ("a", "u3", 0), ("a", "b", 0), ("b", "u3", 8), ("b", "b", 0),
            ("u3", "u4", None), ("u4", "u3", None), ("u4", "a", None), ("u4", "exit", None),
        ],
        k2_config,
    )
    adj = full_table(g, block_universe(g))
    sk = skeleton(adj, g.entry)
    assert sk.order == ("e", "a", "b") == tuple(v for v in adj.order if v in "eab")
    assert sk.accessing == adj.accessing == {"a", "b"}
    assert sk.succ == {
        "e": (("a", -1), ("b", -1)),
        "a": (("a", 0), ("b", 0)),
        "b": (("a", 1), ("b", 0)),
    }


def test_skeleton_drops_unkept_sinks_and_keeps_access_rows(loop2, straight2):
    # Straight line: every edge accesses, so the rows stay, except that the
    # sink v5 is not kept and the last access edge leads to no kept vertex.
    adj = full_table(straight2, block_universe(straight2))
    assert skeleton_of(straight2).succ == {
        **{v: row for v, row in adj.succ.items() if v not in ("v4", "v5")},
        "v4": (),
    }
    # Loop: d's no-access edges lead back to b and out to the sink exit.
    assert skeleton_of(loop2).succ == {"a": (("b", -1),), "b": (("c", 0),), "c": (("b", 1),)}


def test_skeleton_of_unreachable_and_sink_vertices(k2_config):
    g = build_cfg(
        "e",
        ["e", "sink", "z", "zz"],
        [("e", "sink", None), ("z", "zz", None), ("zz", "z", 0)],
        k2_config,
    )
    sk = skeleton_of(g)
    # The unreachable access source zz is kept; its no-access successor z
    # leads back to it.
    assert sk.succ == {"e": (), "zz": (("zz", 0),)}
    assert sk.order == ("e", "zz")


def test_block_universe_sorted(straight2):
    assert [b.index for b in block_universe(straight2)] == [0, 1, 2, 3, 4]


def test_access_id_labels_stable():
    a = AccessId("x", "y", MemoryBlock(3, 1), 2)
    assert a.label == "x->y:b3#2"
