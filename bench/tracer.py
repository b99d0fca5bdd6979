"""Per-layer tracing from outside the package: wrap functions, time spans.

Each wrapped function records a span per call: its calls and its self
time (the span's duration minus the time its child spans cover).  Spans
nest through a stack, so a span's parent is whichever wrapped function was
running when it started.  Generator functions are timed over consumption:
every resumption is a span of its own, so the work a generator does while
the caller iterates is charged to it, not to the caller.

The package's modules import each other by name (``from .core import
build_graph``), so a function is rebound in every ``eotile`` module
namespace that holds it.  Recursion through a module global (``_cover``)
therefore passes through the wrapper on every level.

Only aggregates are kept in memory: per-function counters and the few
ratios the benchmark reports.  A function missing from its module (deleted
or renamed by a later change) is reported as absent, with zero counts.
"""

from __future__ import annotations

import functools
import math
import sys
import types
from collections import defaultdict
from time import perf_counter

# Layer (module) -> functions whose spans the traced run records.
LAYERS: dict[str, tuple[str, ...]] = {
    "core": (
        "build_graph",
        "induced_subgraph",
        "canonical_code",
        "canonical_form",
        "enumerate_orderings",
        "order_isomorphisms",
        "chromatic_number",
    ),
    "canonical": ("canonical_clique", "star_canonical_clique", "star_subclique_matches"),
    "embed": (
        "find_embedding",
        "find_monotone_path",
        "verify_embedding",
        "find_star_canonical_subclique",
    ),
    "characterize": ("is_turanable", "is_tileable"),
    "tiling": (
        "perfect_tiling_exact",
        "_spanning_sets",
        "_cover",
        "tile_dense_paths",
        "_absorber_block",
        "_greedy_piece",
        "verify_tiling",
    ),
    "necessity": ("scan_classes", "necessity_witness"),
    "cli": ("run_experiment",),
}

TRACED = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)

# Functions whose non-None results count as hits.
HIT_RATIO_KEYS = ("embed.find_embedding", "canonical.star_subclique_matches")

DENSE = "tiling.tile_dense_paths"
EXACT = "tiling.perfect_tiling_exact"
DENSE_PHASES = ("greedy_only", "window_exact", "full_exact")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


class _Frame:
    __slots__ = ("key", "start", "child", "host", "phase")

    def __init__(self, key: str, start: float) -> None:
        self.key = key
        self.start = start
        self.child = 0.0
        self.host = None
        self.phase = "greedy_only"


class Tracer:
    """Install with :meth:`install`; only spans started while ``active`` count."""

    def __init__(self) -> None:
        self.active = False
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.hits: dict[str, int] = defaultdict(int)
        self.yielded: dict[str, int] = defaultdict(int)
        self.witness_sets = 0
        self.subsets_tried = 0
        self.dense_phase: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[_Frame] = []
        self._restore: list[tuple[types.ModuleType, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every loaded ``eotile`` module."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "eotile" or name.startswith("eotile."))
        ]
        for key in TRACED:
            module_name, func_name = key.split(".", 1)
            home = sys.modules.get(f"eotile.{module_name}")
            original = getattr(home, func_name, None) if home is not None else None
            if not callable(original):
                self.absent.append(key)
                continue
            wrapper = self._wrap(key, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    # -- spans -------------------------------------------------------------

    def _enter(self, key: str) -> _Frame:
        frame = _Frame(key, perf_counter())
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        duration = perf_counter() - frame.start
        popped = self._stack.pop()
        assert popped is frame, "span stack out of order"
        self.self_s[frame.key] += duration - frame.child
        if self._stack:
            self._stack[-1].child += duration

    def _wrap(self, key: str, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            tracer.calls[key] += 1
            parent = tracer._stack[-1] if tracer._stack else None
            frame = tracer._enter(key)
            if key == DENSE:
                frame.host = _arg(args, kwargs, 0, "host")
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if key == DENSE:
                tracer.dense_phase[frame.phase] += 1
            elif key == EXACT and parent is not None and parent.key == DENSE:
                on_host = _arg(args, kwargs, 0, "host") is parent.host
                parent.phase = "full_exact" if on_host else "window_exact"
            elif key in HIT_RATIO_KEYS and result is not None:
                tracer.hits[key] += 1
            elif key == "tiling._spanning_sets":
                host, piece = _arg(args, kwargs, 0, "host"), _arg(args, kwargs, 1, "piece")
                tracer.witness_sets += len(result)
                tracer.subsets_tried += math.comb(host.n, piece.n)
            if isinstance(result, types.GeneratorType):
                return tracer._consume(key, result)
            return result

        return wrapper

    def _consume(self, key: str, inner):
        """Re-yield ``inner``, timing each resumption as a span of ``key``."""
        try:
            while True:
                if not self.active:
                    yield from inner
                    return
                frame = self._enter(key)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit(frame)
                self.yielded[key] += 1
                yield item
        finally:
            inner.close()

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Counters and ratios by metric name; a ratio with no base reads 0."""

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for key in TRACED:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = self.self_s[key]
        for key in HIT_RATIO_KEYS:
            out[f"{key}.hit_ratio"] = ratio(self.hits[key], self.calls[key])
        out["tiling._spanning_sets.witness_ratio"] = ratio(
            self.witness_sets, self.subsets_tried
        )
        out["core.canonical_code.calls_per_class"] = ratio(
            self.calls["core.canonical_code"], self.yielded["core.enumerate_orderings"]
        )
        for phase in DENSE_PHASES:
            out[f"tiling.dense.{phase}"] = self.dense_phase[phase]
        out["trace.absent_functions"] = len(self.absent)
        return out
