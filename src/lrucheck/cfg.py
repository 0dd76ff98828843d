"""Control-flow graphs over memory accesses, and their per-cache-set projections.

A program is a directed multigraph: vertices are program points, edges carry
either one memory access (a block) or no access at all.  A set-associative
cache splits into independent cache sets, so the analyses never look at the
whole graph: they look at one projection per set, where every access to a
block of a different set is blanked out.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence


class CfgError(Exception):
    """Base class for CFG construction and parsing problems."""


class CfgParseError(CfgError):
    """Raised when CFG input text is not syntactically or semantically valid."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class _Geometry(NamedTuple):
    associativity: int
    num_sets: int = 1
    block_size: int = 16


class CacheConfig(_Geometry):
    """Cache geometry: `associativity` ways, `num_sets` sets, lines of `block_size` bytes.

    `num_sets` and `block_size` must be powers of two; `associativity` must be
    at least one.  Construction checks them (`_replace` does not).  Addresses
    map to memory blocks by dropping the offset bits, and blocks map to sets
    by block index modulo `num_sets`.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "CacheConfig":
        self = super().__new__(cls, *args, **kwargs)
        if self.associativity < 1:
            raise ValueError(f"associativity must be >= 1, got {self.associativity}")
        if not _is_power_of_two(self.num_sets):
            raise ValueError(f"num_sets must be a power of two, got {self.num_sets}")
        if not _is_power_of_two(self.block_size):
            raise ValueError(f"block_size must be a power of two, got {self.block_size}")
        return self

    def block_index_of(self, address: int) -> int:
        return address // self.block_size

    def set_of_block(self, block_index: int) -> int:
        return block_index % self.num_sets

    def block_for_address(self, address: int) -> "MemoryBlock":
        idx = self.block_index_of(address)
        return MemoryBlock(idx, self.set_of_block(idx))


class MemoryBlock(NamedTuple):
    """One cache-line-sized block of memory, identified by its block index.

    Blocks, edges and access identities are tuples of their fields: they hash
    and sort like those tuples, and equal a plain tuple with the same fields.
    """

    index: int
    set_index: int

    def __repr__(self) -> str:
        return f"b{self.index}"


class Edge(NamedTuple):
    """A CFG edge.  `block` is the accessed memory block, or None for no access."""

    src: str
    block: Optional[MemoryBlock]
    dst: str


class Cfg:
    """A control-flow graph: a parsed program, or its projection onto one cache set.

    Edge order is the declaration order.
    """

    def __init__(
        self, entry: str, vertices: tuple[str, ...], edges: tuple[Edge, ...], name: str = "cfg"
    ) -> None:
        self.entry = entry
        self.vertices = vertices
        self.edges = edges
        self.name = name

    def _key(self) -> tuple:
        return (self.entry, self.vertices, self.edges, self.name)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Cfg:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return "Cfg(entry=%r, vertices=%r, edges=%r, name=%r)" % self._key()

    @cached_property
    def blanked(self) -> tuple[Edge, ...]:
        """Every edge as a no-access edge, in edge order.

        Built once, so the projections of every cache set share these objects.
        """
        return tuple(e if e.block is None else Edge(e.src, None, e.dst) for e in self.edges)


class AccessId(NamedTuple):
    """Stable identity of one access edge.

    `ordinal` disambiguates parallel edges that access the same block between
    the same pair of vertices.  Identities are computed from declaration order
    and survive projection unchanged.
    """

    src: str
    dst: str
    block: MemoryBlock
    ordinal: int

    @property
    def label(self) -> str:
        return f"{self.src}->{self.dst}:b{self.block.index}#{self.ordinal}"


_TOP_LEVEL_KEYS = {"entry", "vertices", "edges", "name"}
_EDGE_KEYS = {"from", "to", "access"}


def parse_cfg(text: str, config: CacheConfig, name: str = "cfg") -> Cfg:
    """Parse CFG JSON into a Cfg, resolving access addresses to memory blocks.

    The document is an object with keys `entry` (vertex name), `vertices`
    (array of distinct names), `edges` (array of `{from, to, access}` where
    `access` is a byte address or null) and optional `name`.  Unknown keys are
    rejected.  Syntax errors carry the offending position, and nesting too
    deep for the JSON decoder is an error too.  Each check builds its message
    only when it fails.
    """
    if text.startswith("\ufeff"):
        raise CfgParseError("byte order mark not allowed; input must be plain UTF-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CfgParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise CfgParseError("JSON nesting too deep") from exc

    if not isinstance(doc, dict):
        raise CfgParseError("top-level value must be an object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise CfgParseError(f"unknown top-level fields: {sorted(unknown)}")
    for key in ("entry", "vertices", "edges"):
        if key not in doc:
            raise CfgParseError(f"missing required field {key!r}")

    if "name" in doc:
        if not (isinstance(doc["name"], str) and doc["name"]):
            raise CfgParseError("name must be a non-empty string")
        name = doc["name"]

    raw_vertices = doc["vertices"]
    if not (isinstance(raw_vertices, list) and raw_vertices):
        raise CfgParseError("vertices must be a non-empty array")
    seen: set[str] = set()
    for v in raw_vertices:
        if not (isinstance(v, str) and v):
            raise CfgParseError(f"vertex names must be non-empty strings, got {v!r}")
        if v in seen:
            raise CfgParseError(f"duplicate vertex {v!r}")
        seen.add(v)
    vertices = tuple(raw_vertices)

    entry = doc["entry"]
    if not isinstance(entry, str):
        raise CfgParseError("entry must be a string")
    if entry not in seen:
        raise CfgParseError(f"entry {entry!r} is not a declared vertex")

    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise CfgParseError("edges must be an array")
    edges: list[Edge] = []
    for i, raw in enumerate(raw_edges):
        if not isinstance(raw, dict):
            raise CfgParseError(f"edge {i}: must be an object")
        unknown = raw.keys() - _EDGE_KEYS
        if unknown:
            raise CfgParseError(f"edge {i}: unknown fields: {sorted(unknown)}")
        for key in ("from", "to", "access"):
            if key not in raw:
                raise CfgParseError(f"edge {i}: missing field {key!r}")
        src, dst, access = raw["from"], raw["to"], raw["access"]
        if not isinstance(src, str):
            raise CfgParseError(f"edge {i}: 'from' must be a string")
        if not isinstance(dst, str):
            raise CfgParseError(f"edge {i}: 'to' must be a string")
        if src not in seen:
            raise CfgParseError(f"edge {i}: 'from' names undeclared vertex {src!r}")
        if dst not in seen:
            raise CfgParseError(f"edge {i}: 'to' names undeclared vertex {dst!r}")
        block: Optional[MemoryBlock] = None
        if access is not None:
            if not (isinstance(access, int) and not isinstance(access, bool) and access >= 0):
                raise CfgParseError(
                    f"edge {i}: 'access' must be null or a non-negative integer address"
                )
            block = config.block_for_address(access)
        edges.append(Edge(src, block, dst))

    return Cfg(entry=entry, vertices=vertices, edges=tuple(edges), name=name)


def load_cfg(path: str, config: CacheConfig) -> Cfg:
    """Read a CFG JSON file.  The file stem becomes the default graph name."""
    import os

    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CfgParseError(f"{path}: not valid UTF-8: {exc}") from exc
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_cfg(text, config, name=stem)


def project(g: Cfg, set_index: int, config: CacheConfig) -> Cfg:
    """Project a Cfg onto one cache set: the graph that set sees.

    Access edges whose block belongs to a different set become no-access
    edges; no-access self-loops are removed (they cannot change any cache
    state).  Vertices, entry, name and all remaining edge identities are
    preserved.  The result does not record its set; every block it accesses
    does.
    """
    if not 0 <= set_index < config.num_sets:
        raise ValueError(f"set_index {set_index} out of range for {config.num_sets} sets")
    kept: list[Edge] = []
    for e, blank in zip(g.edges, g.blanked):
        if e.block is None or e.block.set_index != set_index:
            if e.src == e.dst:
                continue
            e = blank
        kept.append(e)
    return Cfg(entry=g.entry, vertices=g.vertices, edges=tuple(kept), name=g.name)


def accesses_of(g: Cfg) -> list[AccessId]:
    """Enumerate the access edges of a graph as stable AccessIds, in edge order."""
    counts: dict[tuple[str, str, MemoryBlock], int] = {}
    out: list[AccessId] = []
    for e in g.edges:
        if e.block is None:
            continue
        key = (e.src, e.dst, e.block)
        ordinal = counts.get(key, 0)
        counts[key] = ordinal + 1
        out.append(AccessId(e.src, e.dst, e.block, ordinal))
    return out


def block_universe(g: Cfg) -> tuple[MemoryBlock, ...]:
    """Distinct blocks accessed anywhere in the graph, sorted by block index."""
    return tuple(sorted({e.block for e in g.edges if e.block is not None}))


def out_edges(g: Cfg) -> dict[str, list[Edge]]:
    """Adjacency map vertex -> outgoing edges, in edge order."""
    adj: dict[str, list[Edge]] = {v: [] for v in g.vertices}
    for e in g.edges:
        adj[e.src].append(e)
    return adj


def reverse_post_order(g: Cfg, adj: Optional[dict[str, list[Edge]]] = None) -> list[str]:
    """Vertices reachable from the entry in reverse post-order.

    Unreachable vertices are appended afterwards in declaration order so the
    result is always a total ordering of `g.vertices`.  `adj`, when given, is
    the graph's `out_edges` map, saving its rebuild.
    """
    if adj is None:
        adj = out_edges(g)
    visited: set[str] = set()
    post: list[str] = []
    # Iterative DFS; successor edges are explored in declaration order.
    stack: list[tuple[str, Iterable[Edge]]] = [(g.entry, iter(adj[g.entry]))]
    visited.add(g.entry)
    while stack:
        vertex, it = stack[-1]
        advanced = False
        for e in it:
            if e.dst not in visited:
                visited.add(e.dst)
                stack.append((e.dst, iter(adj[e.dst])))
                advanced = True
                break
        if not advanced:
            post.append(vertex)
            stack.pop()
    order = list(reversed(post))
    order.extend(v for v in g.vertices if v not in visited)
    return order


class Adjacency(NamedTuple):
    """A graph's successor lists with blocks as universe positions, plus its vertex order.

    `succ[v]` lists `(dst, i)` per outgoing edge of v in edge order, where i is
    the accessed block's position in the universe the map was built for, or -1
    for a no-access edge.  `order` is the reverse post-order of the vertices
    of `succ`.  `accessing` holds the vertices with at least one outgoing
    access edge.
    """

    succ: dict[str, tuple[tuple[str, int], ...]]
    order: tuple[str, ...]
    accessing: frozenset[str]


def adjacency(g: Cfg, blocks: Sequence[MemoryBlock], order: Sequence[str]) -> Adjacency:
    """Build the Adjacency of a graph over the block universe `blocks`.

    `order` must be the graph's `reverse_post_order`.  A projection only
    drops no-access self-loops, which a depth-first search never follows, so
    the program's order serves every one of its projections.
    """
    adj = out_edges(g)
    position = {b: i for i, b in enumerate(blocks)}
    succ = {}
    accessing = []
    for v, edges in adj.items():
        succ[v] = tuple([(e.dst, -1 if e.block is None else position[e.block]) for e in edges])
        for e in edges:
            if e.block is not None:
                accessing.append(v)
                break
    return Adjacency(succ=succ, order=tuple(order), accessing=frozenset(accessing))


def skeleton(adj: Adjacency, entry: str) -> Adjacency:
    """Contract a successor table to its access skeleton.

    The kept vertices are `entry` and `adj.accessing`, in `adj.order`.  Every
    edge of an unkept vertex is a no-access edge, so a chain of them passes
    any state on unchanged.  A kept vertex's row therefore lists, for each of
    its edges `(dst, i)` in edge order, `(w, i)` for every kept vertex w
    reachable from dst through unkept vertices only (dst itself when it is
    kept), the w in `order`; a pair already in the row is not repeated.

    A search whose states change only on access edges, and which reads its
    states only at access sources and the entry, finds the same states at
    every kept vertex in the skeleton as in `adj`.
    """
    kept = adj.accessing | {entry}
    order = tuple(v for v in adj.order if v in kept)
    rank = {v: r for r, v in enumerate(order)}
    # closure[u]: the kept vertices reachable from unkept u through unkept
    # vertices, as a mask over ranks.  A least fixpoint; sweeping in post-order
    # reads most successors' final closures, so only cycles need more sweeps.
    unkept = [v for v in reversed(adj.order) if v not in kept]
    closure = dict.fromkeys(unkept, 0)
    changed = True
    while changed:
        changed = False
        for u in unkept:
            old = new = closure[u]
            for w, _ in adj.succ[u]:
                r = rank.get(w)
                new |= closure[w] if r is None else 1 << r
            if new != old:
                closure[u] = new
                changed = True

    succ = {}
    for v in order:
        row: dict[tuple[str, int], None] = {}
        for w, i in adj.succ[v]:
            if w in rank:
                row[w, i] = None
                continue
            m = closure[w]
            while m:
                low = m & -m
                row[order[low.bit_length() - 1], i] = None
                m ^= low
        succ[v] = tuple(row)
    return Adjacency(succ=succ, order=order, accessing=adj.accessing)
