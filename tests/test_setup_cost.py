"""What a fresh import of lrucheck costs, and the record shapes that keep it low."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import lrucheck
from lrucheck.cfg import AccessId, Edge, MemoryBlock


def test_no_class_is_a_dataclass():
    """The package defines no dataclass.

    The dataclass decorator generates and compiles the methods of its class
    at every fresh import, and the benchmark imports the package afresh
    before every corpus pass.  A record is a `typing.NamedTuple`, whose
    class is built without that work, or a plain class whose few methods
    are written out.
    """
    found = set()
    for info in pkgutil.iter_modules(lrucheck.__path__):
        module = importlib.import_module(f"lrucheck.{info.name}")
        for name, obj in vars(module).items():
            if (
                inspect.isclass(obj)
                and obj.__module__ == module.__name__
                and dataclasses.is_dataclass(obj)
            ):
                found.add(f"{info.name}.{name}")
    assert found == set()


def test_access_keys_hash_and_sort_like_their_field_tuples():
    """Blocks, edges and access identities hash and sort as the frozen
    dataclasses they replaced did, so set orders and sorted output stay put."""
    blocks = [MemoryBlock(i, i % 3) for i in (7, 0, 12, 3, 5, 1)]
    for b in blocks:
        assert hash(b) == hash((b.index, b.set_index))
    assert sorted(blocks) == [MemoryBlock(*t) for t in sorted(tuple(b) for b in blocks)]
    assert [tuple(b) for b in set(blocks)] == list({tuple(b) for b in blocks})
    assert [repr(b) for b in blocks[:2]] == ["b7", "b0"]

    edges = [Edge("a", blocks[0], "b"), Edge("b", None, "a"), Edge("a", None, "a")]
    for e in edges:
        assert hash(e) == hash((e.src, e.block, e.dst))

    ids = [
        AccessId("b", "c", blocks[1], 0), AccessId("a", "c", blocks[2], 1),
        AccessId("a", "c", blocks[2], 0), AccessId("a", "b", blocks[0], 0),
    ]
    for a in ids:
        assert hash(a) == hash((a.src, a.dst, a.block, a.ordinal))
    want = sorted((a.src, a.dst, (a.block.index, a.block.set_index), a.ordinal) for a in ids)
    assert [(a.src, a.dst, tuple(a.block), a.ordinal) for a in sorted(ids)] == want
    assert ids[0].label == "b->c:b0#0"
