"""In-memory span tracer for the traced benchmark runs.

The program under test carries no instrumentation, so the benchmark
records spans from its own side: :meth:`Tracer.install` replaces public
functions and methods of ``repro`` with wrappers that open a span around
each call (and optionally bump counters from its arguments or result),
and :meth:`Tracer.uninstall` puts the originals back.  Spans nest on one
stack (the workloads are single-threaded), and each span's time is split
into

* **busy** -- wall time of the outermost span of a name (a span nested
  inside a span of the same name is not counted twice), and
* **self** -- the span's duration minus the part covered by its direct
  child spans.

Only aggregates are kept: per name the call count, busy and self
nanoseconds, plus named counters and, for the few layers whose arguments
matter (fingerprints, for instance), the set of distinct values seen.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable


class Tracer:
    """Aggregating span stack; see the module docstring."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.calls: Counter[str] = Counter()
        self.busy_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.values: defaultdict[str, set] = defaultdict(set)
        # Open spans: [name, start_ns, child_ns]; depth per open name.
        self._stack: list[list] = []
        self._depth: Counter[str] = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def enter(self, name: str) -> None:
        self._depth[name] += 1
        self._stack.append([name, self.clock(), 0])

    def exit(self) -> None:
        end = self.clock()
        name, start, child_ns = self._stack.pop()
        duration = end - start
        self._depth[name] -= 1
        self.calls[name] += 1
        self.self_ns[name] += duration - child_ns
        if self._depth[name] == 0:
            self.busy_ns[name] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def span(self, name: str) -> "_Span":
        """``with tracer.span(name): ...``"""
        return _Span(self, name)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str | None,
        after: Callable[["Tracer", object, tuple, dict], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (``owner[attr]`` for a dict) by a traced
        wrapper.

        ``name=None`` records no span, only runs ``after`` (a counter
        hook).  ``after(tracer, result, args, kwargs)`` runs once the
        call returned.
        """
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if name is not None:
                tracer.enter(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.exit()
            else:
                result = original(*args, **kwargs)
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        _assign(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self, plan: Iterable[tuple]) -> None:
        """Apply ``(module, attribute path, span name[, after])`` entries;
        a path ``"Class.method"`` patches the method on the class."""
        for module_name, path, name, *after in plan:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            self.wrap(owner, attr, name, after[0] if after else None)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            _assign(owner, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data copy of every aggregate (JSON-serializable); a value
        set becomes the counter ``<name>.distinct``."""
        counters = dict(self.counters)
        counters.update(
            {f"{name}.distinct": len(v) for name, v in self.values.items()}
        )
        return {
            "calls": dict(self.calls),
            "busy_ns": dict(self.busy_ns),
            "self_ns": dict(self.self_ns),
            "counters": counters,
        }


def _assign(owner: object, attr: str, value: object) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def merge(snapshots: list[dict]) -> dict:
    """Sum the snapshots of several operations."""
    total = Tracer().snapshot()
    for snap in snapshots:
        for key, table in snap.items():
            for name, value in table.items():
                total[key][name] = total[key].get(name, 0) + value
    return total


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.tracer.enter(self.name)

    def __exit__(self, *exc) -> None:
        self.tracer.exit()


def table(snapshot: dict, wall_ns: float) -> list[dict]:
    """The per-layer table of a snapshot, busiest layer first: calls, busy
    and self milliseconds, and busy time as a share of ``wall_ns``."""
    rows = [
        {
            "layer": name,
            "calls": calls,
            "busy_ms": snapshot["busy_ns"].get(name, 0) / 1e6,
            "self_ms": snapshot["self_ns"].get(name, 0) / 1e6,
            "share": snapshot["busy_ns"].get(name, 0) / wall_ns,
        }
        for name, calls in snapshot["calls"].items()
    ]
    return sorted(rows, key=lambda row: -row["busy_ms"])
