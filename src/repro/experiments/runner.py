"""Convert-and-simulate driver with memoisation and parallel fan-out.

Every experiment reduces to: generate a synthetic CVP-1 trace, convert it
with some improvement set, simulate the conversion under some simulator
configuration, and read statistics.  :class:`ExperimentRunner` memoises
each stage so that e.g. Figure 1's ten configurations share one
generation per trace, and Figures 2-5 reuse Figure 1's runs outright.

The convert+decode prefix of the pipeline depends only on the
(trace, improvements) pair, not on the simulator config, so the runner
keeps the last pair's decoded instructions in a single-slot memo and
:meth:`ExperimentRunner.run_batch` runs its misses grouped by pair
(:func:`pair_ordered`): Table 3's nine prefetcher configs of one pair
convert and decode the trace once.

:meth:`ExperimentRunner.run_batch` is the one orchestration path: it
probes the in-process memo, then the optional
:class:`~repro.experiments.journal.SweepJournal` and
:class:`~repro.experiments.cache.ResultCache`, and hands the misses to
:func:`~repro.experiments.parallel.run_tasks` — inline on this runner at
``jobs<=1``, across worker processes otherwise — checkpointing each
completion as it lands.  Retries, quarantine and fault injection behave
the same at every ``jobs`` value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.champsim.branch_info import BranchRules
from repro.core.convert import ConversionStats, Converter
from repro.core.improvements import Improvement
from repro.cvp.analysis import TraceCharacterization, characterize
from repro.cvp.record import CvpRecord
from repro.experiments.parallel import RunTask, default_jobs, execute_task, run_tasks
from repro.sim.config import SimConfig
from repro.sim.decoded import DecodedInstr
from repro.sim.simulator import Simulator
from repro.sim.stats import SimStats
from repro.synth.generator import make_trace
from repro.synth.suite import IPC1_TO_CVP1, cvp1_public_trace_names, ipc1_trace_names

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.experiments.cache import ResultCache
    from repro.experiments.journal import SweepJournal
    from repro.faults.retry import RetryPolicy

#: A (trace, improvements, config) request, as accepted by ``run_batch``.
RunSpec = Tuple[str, Improvement, Optional[SimConfig]]

#: The (trace, improvements) pair that fixes a run's convert+decode prefix.
Pair = Tuple[str, Improvement]

#: A memoised pipeline prefix: ``(pair, decoded, rules, conversion stats)``.
_Prefix = Tuple[Pair, List[DecodedInstr], BranchRules, ConversionStats]

_T = TypeVar("_T")


def pair_ordered(items: Iterable[_T], pair: Callable[[_T], Pair]) -> List[_T]:
    """``items`` stably grouped by ``pair(item)``, pairs in order of first
    appearance.

    Run in this order, every config of a pair follows its first one, so
    the runner's single-slot prefix memo converts each pair once.
    """
    first: Dict[Pair, int] = {}
    items = list(items)
    for item in items:
        first.setdefault(pair(item), len(first))
    return sorted(items, key=lambda item: first[pair(item)])


@dataclass
class RunResult:
    """One (trace, improvements, config) simulation outcome."""

    trace: str
    improvements: Improvement
    config_name: str
    stats: SimStats
    conversion: ConversionStats


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (0 on empty input)."""
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


class ExperimentRunner:
    """Shared generation/conversion/simulation cache for the experiments.

    Args:
        instructions: Synthetic trace length (per trace).
        limit: Keep only the first N suite traces (after ``stride``).
        stride: Sample every stride-th trace of a suite — benchmarks use
            this to keep runtime bounded while preserving the suite's
            category diversity.
        cache: Optional on-disk :class:`ResultCache`; hits skip the whole
            convert+simulate pipeline across process boundaries.
        jobs: Default worker count for :meth:`run_many`/:meth:`run_batch`
            (1 = inline on this runner, ``None`` = all cores; individual
            calls can override).
        engine: Override ``SimConfig.engine`` on every run (``None``
            keeps each config's own choice).  The vector engine is
            bit-identical to the scalar reference, but the override is
            part of the memo/cache key, so switching engines never
            aliases previously cached results.
        journal: Optional :class:`~repro.experiments.journal.SweepJournal`
            checkpointing each completed task as it finishes; journalled
            results are replayed (before the disk cache) so an
            interrupted sweep resumes where it died.
        retry_policy: Optional :class:`~repro.faults.retry.RetryPolicy`
            governing task retries, inline and in the pool (``None`` =
            the supervisor default: two attempts, no backoff).
        task_timeout: Per-task wall-clock bound (seconds) in the
            parallel fan-out; hung workers are killed and their pool
            restarted.  ``None`` disables the bound.
    """

    def __init__(
        self,
        instructions: int = 12_000,
        limit: Optional[int] = None,
        stride: int = 1,
        cache: Optional["ResultCache"] = None,
        jobs: Optional[int] = 1,
        engine: Optional[str] = None,
        journal: Optional["SweepJournal"] = None,
        retry_policy: Optional["RetryPolicy"] = None,
        task_timeout: Optional[float] = None,
    ) -> None:
        self.instructions = instructions
        self.limit = limit
        self.stride = stride
        self.cache = cache
        self.jobs = jobs
        self.engine = engine
        self.journal = journal
        self.retry_policy = retry_policy
        self.task_timeout = task_timeout
        #: Convert+simulate executions actually performed by this process
        #: (cache/memo hits do not count) — the warm-sweep assertions key
        #: off this staying at zero.
        self.simulations = 0
        self._traces: Dict[str, List[CvpRecord]] = {}
        self._characterizations: Dict[str, TraceCharacterization] = {}
        #: Memo keyed by the *full* config identity (the frozen SimConfig
        #: itself), not just (config.name, l1i_prefetcher): two configs
        #: sharing a name but differing in any field must not alias.
        self._runs: Dict[Tuple[str, Improvement, SimConfig], RunResult] = {}
        #: Single-slot memo of the last executed pair's prefix.
        self._prefix: Optional[_Prefix] = None

    # ------------------------------------------------------------------
    # suites
    # ------------------------------------------------------------------

    def _sample(self, names: Sequence[str]) -> List[str]:
        names = list(names)[:: self.stride]
        if self.limit is not None:
            names = names[: self.limit]
        return names

    def public_trace_names(self) -> List[str]:
        """Sampled CVP-1 public suite names."""
        return self._sample(cvp1_public_trace_names())

    def ipc1_trace_names(self) -> List[str]:
        """Sampled IPC-1 suite names (Table 2 order)."""
        return self._sample(ipc1_trace_names())

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------

    def trace(self, name: str) -> List[CvpRecord]:
        """The CVP-1 records for ``name`` (generated once)."""
        if name not in self._traces:
            generator_name = IPC1_TO_CVP1.get(name, name)
            self._traces[name] = make_trace(generator_name, self.instructions)
        return self._traces[name]

    def characterization(self, name: str) -> TraceCharacterization:
        """Structural characterisation of the CVP-1 trace."""
        if name not in self._characterizations:
            self._characterizations[name] = characterize(self.trace(name))
        return self._characterizations[name]

    def _normalize_config(self, config: Optional[SimConfig]) -> SimConfig:
        """Default to ``SimConfig.main()`` and apply the engine override."""
        from dataclasses import replace

        config = config or SimConfig.main()
        if self.engine is not None and config.engine != self.engine:
            config = replace(config, engine=self.engine)
        return config

    def _cache_key(self, name: str, improvements: Improvement, config: SimConfig) -> str:
        from repro.experiments.cache import run_key

        return run_key(name, improvements, config, self.instructions)

    def _convert_and_decode(
        self, name: str, improvements: Improvement, simulator: Simulator
    ) -> _Prefix:
        """Convert and decode ``(name, improvements)`` into the memo."""
        from repro import obs

        # Drop the old pair first: two decoded traces are never alive
        # at once.
        self._prefix = None
        converter = Converter(improvements)
        with obs.span("convert", trace=name, improvements=improvements.value):
            instrs = list(converter.convert(self.trace(name)))
        rules = converter.required_branch_rules
        decoded = simulator.decode(instrs, rules)
        prefix = ((name, improvements), decoded, rules, converter.stats)
        self._prefix = prefix
        if obs.enabled():
            obs.counter(
                "repro_experiment_conversions_total",
                "Trace conversions performed (prefix-memo misses).",
            ).inc()
        return prefix

    def _execute(
        self, name: str, improvements: Improvement, config: SimConfig
    ) -> RunResult:
        """Simulate, unconditionally (no run memo, no cache, no count).

        Converts and decodes only when ``(name, improvements)`` differs
        from the previous execution's pair.
        """
        from repro import obs

        prefix = self._prefix
        if prefix is not None and prefix[0] != (name, improvements):
            prefix = None
        with obs.span(
            "experiment.run",
            trace=name,
            improvements=improvements.value,
            config=config.name,
            prefix="miss" if prefix is None else "hit",
        ) as run_span:
            simulator = Simulator(config)
            if prefix is None:
                prefix = self._convert_and_decode(name, improvements, simulator)
            _, decoded, rules, conversion = prefix
            stats = simulator.run(decoded, rules)
            run_span.set(instructions=stats.instructions, ipc=stats.ipc)
        if obs.enabled():
            obs.counter(
                "repro_experiment_runs_total",
                "Convert+simulate executions actually performed.",
            ).inc()
        return RunResult(
            trace=name,
            improvements=improvements,
            config_name=config.name,
            stats=stats,
            # Results share no mutable counters with the memo or with
            # each other.
            conversion=replace(
                conversion, branch_counts=dict(conversion.branch_counts)
            ),
        )

    def run(
        self,
        name: str,
        improvements: Improvement,
        config: Optional[SimConfig] = None,
    ) -> RunResult:
        """Convert + simulate one run (a batch of one; see :meth:`run_batch`)."""
        return self.run_batch([(name, improvements, config)])[0]

    def run_many(
        self,
        names: Sequence[str],
        improvements: Improvement,
        config: Optional[SimConfig] = None,
        jobs: Optional[int] = None,
    ) -> List[RunResult]:
        """One improvement/config across many traces, fanned out.

        Results come back in ``names`` order and are bit-identical to the
        serial ``[self.run(n, improvements, config) for n in names]``
        (asserted by the differential tests).
        """
        return self.run_batch(
            [(name, improvements, config) for name in names], jobs=jobs
        )

    def sweep(
        self,
        names: Sequence[str],
        improvement_sets: Sequence[Improvement],
        config: Optional[SimConfig] = None,
        jobs: Optional[int] = None,
    ) -> List[RunResult]:
        """Cross product of traces x improvement sets as one fan-out."""
        return self.run_batch(
            [
                (name, improvements, config)
                for improvements in improvement_sets
                for name in names
            ],
            jobs=jobs,
        )

    def run_batch(
        self,
        specs: Sequence[RunSpec],
        jobs: Optional[int] = None,
    ) -> List[RunResult]:
        """Run arbitrary (trace, improvements, config) specs as one fan-out.

        Memo, journal, and disk-cache hits are resolved up front; only
        the misses (deduplicated, grouped by :func:`pair_ordered`) go to
        :func:`~repro.experiments.parallel.run_tasks`, under this
        runner's retry policy and task timeout.  With ``jobs<=1`` (or a
        single miss) they execute inline on this runner, which keeps the
        prefix memo; otherwise in worker processes.  Each completion is
        cached and journalled *as it arrives* (not after the batch), so
        a sweep killed mid-flight checkpoints everything that finished.
        """
        resolved: Dict[int, RunResult] = {}
        pending: Dict[Tuple[str, Improvement, SimConfig], List[int]] = {}
        for index, (name, improvements, config) in enumerate(specs):
            config = self._normalize_config(config)
            key = (name, improvements, config)
            if key in self._runs:
                resolved[index] = self._runs[key]
                continue
            if key in pending:
                pending[key].append(index)
                continue
            cache_key = self._cache_key(name, improvements, config)
            cached = None
            if self.journal is not None:
                cached = self.journal.lookup(cache_key)
            if cached is None and self.cache is not None:
                cached = self.cache.load(cache_key)
            if cached is not None:
                self._runs[key] = cached
                resolved[index] = cached
            else:
                pending[key] = [index]

        if pending:
            jobs = self.jobs if jobs is None else jobs
            jobs = default_jobs() if jobs is None else max(1, jobs)
            keys = pair_ordered(pending, lambda key: (key[0], key[1]))
            tasks = [
                RunTask(
                    name=name,
                    improvements=improvements,
                    config=config,
                    instructions=self.instructions,
                )
                for name, improvements, config in keys
            ]

            def _inline(task: RunTask) -> RunResult:
                return self._execute(task.name, task.improvements, task.config)

            def _checkpoint(task_index: int, task: object, result: RunResult) -> None:
                # Every completion, inline or from a worker, counts as
                # one of this runner's simulations, so a warm-cache
                # sweep is 0 regardless of jobs.
                self.simulations += 1
                key = keys[task_index]
                self._runs[key] = result
                cache_key = self._cache_key(*key)
                if self.cache is not None:
                    self.cache.store(cache_key, result)
                if self.journal is not None:
                    self.journal.record(cache_key, result)

            results = run_tasks(
                tasks,
                jobs=jobs,
                task_fn=_inline if jobs <= 1 or len(tasks) <= 1 else execute_task,
                policy=self.retry_policy,
                timeout=self.task_timeout,
                on_result=_checkpoint,
            )
            for key, result in zip(keys, results):
                for index in pending[key]:
                    resolved[index] = result

        return [resolved[index] for index in range(len(specs))]

    # ------------------------------------------------------------------
    # derived helpers
    # ------------------------------------------------------------------

    def ipc_variation(
        self,
        name: str,
        improvements: Improvement,
        config: Optional[SimConfig] = None,
    ) -> float:
        """Relative IPC change of ``improvements`` vs the original converter."""
        base = self.run(name, Improvement.NONE, config).stats.ipc
        improved = self.run(name, improvements, config).stats.ipc
        if base == 0:
            return 0.0
        return improved / base - 1.0

    def geomean_variation(
        self,
        names: Sequence[str],
        improvements: Improvement,
        config: Optional[SimConfig] = None,
    ) -> float:
        """Geomean-IPC variation across ``names`` (the Figure 1 metric)."""
        base = geomean(self.run(n, Improvement.NONE, config).stats.ipc for n in names)
        improved = geomean(self.run(n, improvements, config).stats.ipc for n in names)
        if base == 0:
            return 0.0
        return improved / base - 1.0

    def describe(self) -> str:
        """One-line description of the runner's sampling parameters."""
        return (
            f"instructions={self.instructions} stride={self.stride} "
            f"limit={self.limit if self.limit is not None else 'all'} "
            f"jobs={self.jobs if self.jobs is not None else 'all'} "
            f"cache={'on' if self.cache is not None else 'off'}"
        )
