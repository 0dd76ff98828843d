"""Layer spans for the traced benchmark run, recorded from outside lrucheck.

The tracer replaces public functions of the lrucheck modules with wrappers
wherever the package binds them (the defining module and every module that
imported the name), records one span per call, and restores the originals on
`uninstall`.  A span holds its name, wall and thread-CPU start and end, its
thread and its parent.  Self time is thread CPU time minus the thread CPU time
of children on the same thread, so spans that overlap on pool threads add up.

Spans opened on a thread with nothing open (the CLI's thread-pool workers)
attach to the innermost open `classify_all` span.  Each pool task is itself a
`classify.task` span, so the work a worker does outside the wrapped functions
is still charged to the classify layer.

A function that does not exist (renamed or deleted) is skipped, and every
metric that depends only on it is left out of the summary.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# Wrapped functions, by layer module.  Count extractors read return values.
TRACED = {
    "cfg": ("load_cfg", "project", "out_edges", "reverse_post_order"),
    "ai": ("fixpoint", "ai_classify"),
    "focused": ("simplify_for", "unsimplified_model", "initial_focused", "focused_reach", "check_access"),
    "classify": ("classify_all", "verify_against_oracle"),
    "concrete": ("collecting_semantics", "exact_classify"),
    "report": ("build_report", "render_report"),
}

FIXPOINT_DOMAINS = ("must", "may", "exists-hit", "exists-miss")

_EXTRACT = {
    "ai.ai_classify": lambda r: {"settled": int(r.verdict is not None)},
    "focused.focused_reach": lambda r: {
        "explored": r.explored,
        "partial": int(r.partial),
        "universe": len(r.model.universe),
    },
    "focused.initial_focused": lambda r: {"states": len(r)},
    "classify.classify_all": lambda r: {
        "accesses": r.stats.n_accesses,
        "residual": r.stats.mc_access_checks,
    },
    "concrete.collecting_semantics": lambda r: {"pairs": sum(len(s) for s in r.values())},
}

# metric -> (kind, span names).  kind "self": summed self time per pass;
# "calls": spans per pass; ("sum", field): field total per pass;
# ("ratio", num, den): field total over field total (den None: over calls).
METRICS = {
    "cli.self_s": ("self", ("cli.main",)),
    "cfg.load_s": ("self", ("cfg.load_cfg",)),
    "cfg.project_s": ("self", ("cfg.project",)),
    "cfg.adjacency_s": ("self", ("cfg.out_edges", "cfg.reverse_post_order")),
    "cfg.out_edges_calls": ("calls", ("cfg.out_edges",)),
    "cfg.rpo_calls": ("calls", ("cfg.reverse_post_order",)),
    "ai.fixpoint_s": ("self", ("ai.fixpoint",)),
    **{f"ai.fixpoint.{d}_s": ("self", (f"ai.fixpoint.{d}",)) for d in FIXPOINT_DOMAINS},
    "ai.fixpoint_calls": ("calls", ("ai.fixpoint",)),
    "ai.classify_s": ("self", ("ai.ai_classify",)),
    "ai.settled_share": (("ratio", "settled", None), ("ai.ai_classify",)),
    "focused.model_s": ("self", ("focused.simplify_for", "focused.unsimplified_model")),
    "focused.reach_s": ("self", ("focused.focused_reach",)),
    "focused.check_s": ("self", ("focused.check_access",)),
    "focused.runs": ("calls", ("focused.focused_reach",)),
    "focused.states": (("sum", "explored"), ("focused.focused_reach",)),
    "focused.universe_mean": (("ratio", "universe", None), ("focused.focused_reach",)),
    "focused.early_exit_share": (("ratio", "partial", None), ("focused.focused_reach",)),
    "focused.init_s": ("self", ("focused.initial_focused",)),
    "focused.init_states": (("sum", "states"), ("focused.initial_focused",)),
    "classify.self_s": (
        "self",
        ("classify.classify_all", "classify.verify_against_oracle", "classify.task"),
    ),
    "classify.wait_s": ("wait", ("classify.classify_all",)),
    "classify.calls": ("calls", ("classify.classify_all",)),
    "classify.residual_share": (("ratio", "residual", "accesses"), ("classify.classify_all",)),
    "concrete.reach_s": ("self", ("concrete.collecting_semantics",)),
    "concrete.classify_s": ("self", ("concrete.exact_classify",)),
    "concrete.pairs": (("sum", "pairs"), ("concrete.collecting_semantics",)),
    "report.build_s": ("self", ("report.build_report",)),
    "report.render_s": ("self", ("report.render_report",)),
}


class Span:
    __slots__ = ("name", "parent", "thread", "t0", "t1", "c0", "c1", "child_cpu", "counts", "prev")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.child_cpu = 0.0
        self.counts = None
        self.prev = None
        self.t0 = time.perf_counter()
        self.c0 = time.thread_time()

    @property
    def cpu(self) -> float:
        return self.c1 - self.c0

    @property
    def self_cpu(self) -> float:
        return self.cpu - self.child_cpu


class Tracer:
    """Records spans of the wrapped lrucheck functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.found: set[str] = {"cli.main", "classify.task"}
        self.missing: set[str] = set()
        self.broken: set[str] = set()
        self._local = threading.local()
        self._classify_open = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._classify_open
        sp = Span(name, parent, threading.get_ident())
        stack.append(sp)
        if name == "classify.classify_all":
            sp.prev = self._classify_open
            self._classify_open = sp
        return sp

    def _close(self, sp: Span) -> None:
        sp.c1 = time.thread_time()
        sp.t1 = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        if stack and sp.parent is stack[-1]:
            stack[-1].child_cpu += sp.cpu
        if sp.name == "classify.classify_all":
            self._classify_open = sp.prev
        self.spans.append(sp)

    def call(self, name: str, fn, *args, **kwargs):
        """Run `fn` inside a span named `name`."""
        sp = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sp)

    # -- patching ------------------------------------------------------------

    def _wrapper(self, name: str, fn):
        tracer = self
        extract = _EXTRACT.get(name)
        by_domain = name == "ai.fixpoint"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            domain = getattr(args[0], "name", None) if by_domain and args else None
            span_name = f"{name}.{domain}" if domain else name
            sp = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sp)
            if extract is not None:
                try:
                    sp.counts = extract(result)
                except (AttributeError, TypeError):
                    tracer.broken.add(name)
            return result

        return wrapper

    def install(self, package: str = "lrucheck") -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"{package}.{layer}")
            for fname in names:
                name = f"{layer}.{fname}"
                original = getattr(home, fname, None)
                if not callable(original):
                    self.missing.add(name)
                    continue
                self.found.add(name)
                wrapper = self._wrapper(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        classify = sys.modules.get(f"{package}.classify")
        pool = getattr(classify, "ThreadPoolExecutor", None)
        if pool is not None:
            self._patch(classify, "ThreadPoolExecutor", self._traced_pool(pool))

    def _traced_pool(self, pool_cls):
        tracer = self

        class TracedPool(pool_cls):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.call, "classify.task", fn, *args, **kwargs)

        return TracedPool

    def _patch(self, mod, attr: str, value) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- summary -------------------------------------------------------------

    def summary(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per corpus pass: name -> (value, unit)."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        fields: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        wait = 0.0
        task_cpu: dict[int, float] = defaultdict(float)
        for sp in self.spans:
            if sp.name == "classify.task" and sp.parent is not None:
                task_cpu[id(sp.parent)] += sp.cpu
        for sp in self.spans:
            names = [sp.name]
            if sp.name.startswith("ai.fixpoint."):
                names.append("ai.fixpoint")
            for n in names:
                calls[n] += 1
                self_s[n] += sp.self_cpu
                for key, value in (sp.counts or {}).items():
                    fields[n][key] += value
            if sp.name == "classify.classify_all":
                wait += (sp.t1 - sp.t0) - sp.cpu - task_cpu[id(sp)]

        out: dict[str, tuple[float, str]] = {}
        for metric, (kind, sources) in METRICS.items():
            bases = {s if not s.startswith("ai.fixpoint.") else "ai.fixpoint" for s in sources}
            if not bases & self.found or bases & self.broken:
                continue
            if kind == "self":
                out[metric] = (sum(self_s[s] for s in sources) / passes, "s")
            elif kind == "wait":
                out[metric] = (wait / passes, "s")
            elif kind == "calls":
                out[metric] = (sum(calls[s] for s in sources) / passes, "count")
            elif kind[0] == "sum":
                out[metric] = (sum(fields[s][kind[1]] for s in sources) / passes, "count")
            else:
                _, num, den = kind
                n = sum(fields[s][num] for s in sources)
                d = sum(calls[s] if den is None else fields[s][den] for s in sources)
                out[metric] = (n / d if d else 0.0, "count" if metric.endswith("_mean") else "share")
        return out

    def dump(self) -> list:
        """Spans as plain rows: name, parent row, thread, wall and CPU bounds, counts."""
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        return [
            [sp.name, index.get(id(sp.parent)), sp.thread, sp.t0, sp.t1, sp.c0, sp.c1, sp.counts]
            for sp in self.spans
        ]
