"""Per-layer tracing for the end-to-end benchmark, installed from outside.

A traced process calls :meth:`Tracer.install`, which replaces the
binding each caller looks up at call time (a module global such as
``repro.experiments.runner.make_trace``, or a class attribute such as
``Simulator.run``) with a wrapper that records a span around the call.
The wrappers return exactly what the wrapped function returns, so a
traced run produces the same bytes as an untraced one, and
:meth:`Tracer.uninstall` puts every original object back.

Per layer the tracer keeps the calls made, the busy time (outermost
entry only, so a layer re-entered through a delegate is not counted
twice) and the self time (busy time minus the time of nested spans of
other layers).  Garbage-collector pauses are recorded through
``gc.callbacks``; they overlap the layer spans rather than being
subtracted from them.
"""

from __future__ import annotations

import functools
import gc
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class _Frame:
    __slots__ = ("layer", "child")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.child = 0.0


class Tracer:
    """Span totals per layer, plus counters measured at the same calls."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Duration of every ``ExperimentService.handle_render`` call, in
        #: call order (the client pairs them with its request latencies).
        self.handler_ms: List[float] = []
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._convert_inputs: set = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._gc_start: Optional[float] = None

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, layer: str) -> Tuple[_Frame, bool]:
        stack = self._stack()
        reentered = any(frame.layer == layer for frame in stack)
        frame = _Frame(layer)
        stack.append(frame)
        return frame, reentered

    def _exit(self, frame: _Frame, reentered: bool, elapsed: float) -> None:
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.self_s[frame.layer] += elapsed - frame.child
            if not reentered:
                self.busy[frame.layer] += elapsed
                self.calls[frame.layer] += 1
        if stack:
            stack[-1].child += elapsed

    def timed(self, layer: str, fn: Callable[..., Any],
              after: Optional[Callable[[tuple, Any, float], None]] = None
              ) -> Callable[..., Any]:
        """``fn`` wrapped in a span of ``layer``; ``after(args, result,
        seconds)`` runs once the span has closed."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame, reentered = self._enter(layer)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._exit(frame, reentered, elapsed)
            if after is not None:
                after(args, result, elapsed)
            return result

        return wrapper

    def span(self, layer: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Call ``fn(*args)`` inside a span of ``layer``."""
        return self.timed(layer, fn)(*args)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _timed_generator(self, layer: str, fn: Callable[..., Iterator[Any]]
                         ) -> Callable[..., Iterator[Any]]:
        """Wrap a generator function: only the time inside ``next()`` is
        the layer's, the consumer's time between items is not.

        The layer calls no other layer, so its busy time is its self time;
        it is charged to the enclosing span once, when the generator ends.
        """

        @functools.wraps(fn)
        def wrapper(converter: Any, source: Any) -> Iterator[Any]:
            self._note_convert_input(converter, source)
            items = fn(converter, source)
            busy = 0.0
            produced = 0
            try:
                while True:
                    start = perf_counter()
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        busy += perf_counter() - start
                    produced += 1
                    yield item
            finally:
                stack = self._stack()
                if stack:
                    stack[-1].child += busy
                with self._lock:
                    self.busy[layer] += busy
                    self.self_s[layer] += busy
                    self.calls[layer] += 1
                    self.counts[layer + ".records"] += produced

        return wrapper

    def _note_convert_input(self, converter: Any, source: Any) -> None:
        # Identify the input by content, not object id: the service
        # re-synthesizes a trace per request, and ids are reused.
        try:
            n = len(source)
            probe = (n, source[0].pc, source[n // 2].pc, source[-1].pc) if n else (0,)
        except TypeError:
            probe = (id(source),)
        with self._lock:
            self._convert_inputs.add((probe, converter.improvements.value))

    # ------------------------------------------------------------------
    # garbage collector
    # ------------------------------------------------------------------

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> "Tracer":
        """Wrap every layer's entry points; returns ``self``."""
        from repro.core.convert import Converter
        from repro.experiments import report, runner
        from repro.experiments.cache import ResultCache
        from repro.service import fleet
        from repro.service.fleet import Fleet
        from repro.service.http import ExperimentService
        from repro.service.store import BlobStore
        from repro.sim import simulator
        from repro.sim.engine import Engine
        from repro.sim.simulator import Simulator
        from repro.sim.vector_engine import VectorEngine

        if self._patches:
            raise RuntimeError("tracer already installed")

        def synth_done(args: tuple, result: Any, _: float) -> None:
            self.count("synth.records", len(result))

        self._patch(runner, "make_trace",
                    lambda f: self.timed("synth", f, synth_done))
        self._patch(runner, "characterize",
                    lambda f: self.timed("cvp.characterize", f))
        self._patch(Converter, "convert",
                    lambda f: self._timed_generator("core.convert", f))
        self._patch(Simulator, "run", self._wrap_simulator_run)
        self._patch(simulator, "decode_trace",
                    lambda f: self.timed("sim.decode", f))
        self._patch(simulator, "columnarize",
                    lambda f: self.timed("sim.columnarize", f))
        self._patch(Engine, "run", lambda f: self.timed("sim.engine", f))
        self._patch(VectorEngine, "run", lambda f: self.timed("sim.engine", f))
        for name in sorted(vars(report)):
            if name.startswith("render_"):
                self._patch(report, name,
                            lambda f: self.timed("experiments.render", f))
        self._patch(fleet, "run_experiment",
                    lambda f: self.timed("experiments", f))
        for owner in (ResultCache, BlobStore):
            self._patch(owner, "load",
                        lambda f: self.timed("service.store.load", f, self._load_done))
            self._patch(owner, "store",
                        lambda f: self.timed("service.store.store", f))
        self._patch(Fleet, "execute",
                    lambda f: self.timed("service.fleet.execute", f))
        self._patch(ExperimentService, "handle_render",
                    lambda f: self.timed("service.http.handler", f, self._handler_done))
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        """Restore every patched binding (in reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _wrap_simulator_run(self, run: Callable[..., Any]) -> Callable[..., Any]:
        timed_run = self.timed("sim", run)

        @functools.wraps(run)
        def wrapper(sim: Any, trace: Any, *args: Any, **kwargs: Any) -> Any:
            cache = sim.decode_cache
            hits = cache.hits if cache is not None else 0
            misses = cache.misses if cache is not None else 0
            stats = timed_run(sim, trace, *args, **kwargs)
            self.count("sim.instructions", len(trace))
            if cache is not None:
                self.count("sim.decode_cache.hits", cache.hits - hits)
                self.count("sim.decode_cache.misses", cache.misses - misses)
            return stats

        return wrapper

    def _load_done(self, args: tuple, result: Any, _: float) -> None:
        kind = getattr(args[0], "kind", None)
        if kind is None:
            return  # a ResultCache: the BlobStore it delegates to counts it
        self.count(f"load.{kind.name}.{'hit' if result is not None else 'miss'}")

    def _handler_done(self, args: tuple, result: Any, seconds: float) -> None:
        with self._lock:
            self.handler_ms.append(seconds * 1000.0)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Everything recorded so far, JSON-safe."""
        with self._lock:
            return {
                "busy": dict(self.busy),
                "self": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "convert_distinct": len(self._convert_inputs),
                "handler_ms": list(self.handler_ms),
                "gc_pause_s": self.gc_pause_s,
                "gc_collections": self.gc_collections,
            }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: Dict[str, Any], reps: int,
                  simulations: float) -> Dict[str, float]:
    """The per-layer metrics of ``snap``, per repetition of the workload.

    Totals are divided by ``reps``; ratios are taken over the whole
    snapshot, so redundant work across repetitions still shows.
    """
    busy, calls, counts = snap["busy"], snap["calls"], snap["counts"]

    def b(layer: str) -> float:
        return float(busy.get(layer, 0.0)) / reps

    def c(name: str) -> float:
        return float(calls.get(name, 0)) / reps

    def n(name: str) -> float:
        return float(counts.get(name, 0)) / reps

    run_hits, run_misses = n("load.runs.hit"), n("load.runs.miss")
    art_hits, art_misses = n("load.artifacts.hit"), n("load.artifacts.miss")
    dc_hits = n("sim.decode_cache.hits")
    dc_total = dc_hits + n("sim.decode_cache.misses")
    return {
        "synth.calls": c("synth"),
        "synth.busy_s": b("synth"),
        "synth.records": n("synth.records"),
        "core.convert.calls": c("core.convert"),
        "core.convert.busy_s": b("core.convert"),
        "core.convert.records": n("core.convert.records"),
        "core.convert.distinct_ratio": _ratio(
            snap["convert_distinct"], calls.get("core.convert", 0)),
        "cvp.characterize.calls": c("cvp.characterize"),
        "cvp.characterize.busy_s": b("cvp.characterize"),
        "sim.runs": c("sim"),
        "sim.busy_s": b("sim"),
        "sim.instructions": n("sim.instructions"),
        "sim.decode.busy_s": b("sim.decode"),
        "sim.columnarize.busy_s": b("sim.columnarize"),
        "sim.engine.busy_s": b("sim.engine"),
        "sim.decode_cache.hit_ratio": _ratio(dc_hits, dc_total),
        "experiments.self_s": float(snap["self"].get("experiments", 0.0)) / reps,
        "experiments.render.busy_s": b("experiments.render"),
        "experiments.simulations": float(simulations) / reps,
        "service.store.load.calls": c("service.store.load"),
        "service.store.load.busy_s": b("service.store.load"),
        "service.store.hit_ratio": _ratio(run_hits, run_hits + run_misses),
        "service.store.store.calls": c("service.store.store"),
        "service.store.store.busy_s": b("service.store.store"),
        "service.artifact_hit_ratio": _ratio(art_hits, art_hits + art_misses),
        "service.fleet.execute.busy_s": b("service.fleet.execute"),
        "process.gc.pause_s": float(snap["gc_pause_s"]) / reps,
        "process.gc.collections": float(snap["gc_collections"]) / reps,
    }


def covered_s(snap: Dict[str, Any]) -> float:
    """Seconds inside a named layer below the orchestration: the sum of
    self times, without ``experiments`` (run_experiment's own time)."""
    return float(sum(v for k, v in snap["self"].items() if k != "experiments"))
