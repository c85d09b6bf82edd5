"""Sweep execution: one queued sweep to the text ``repro-experiment`` prints.

The fleet turns one queued sweep (``SweepParams``) into the exact output
``repro-experiment`` would print, byte for byte: it builds one
:class:`~repro.experiments.runner.ExperimentRunner` over the store's
result cache (and the sweep's journal) and calls the *same*
:func:`~repro.experiments.registry.run_experiment` the CLI calls.  The
runner's ``run_batch`` probes the store, dispatches the misses through
the hardened :func:`~repro.experiments.parallel.run_tasks` supervisor
(retries, timeouts, pool recovery, graceful degradation) and
checkpoints each completion to the store as it lands; the experiment
then renders from the runner's memo.

Rendered text is then persisted in the artifact store under the sweep's
content fingerprint, so a repeat query skips even the rendering — the
warm path is a single blob load with zero simulations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments import registry
from repro.experiments.cache import CACHE_SCHEMA, ResultCache
from repro.experiments.journal import SweepJournal
from repro.experiments.registry import run_experiment
from repro.experiments.runner import ExperimentRunner, RunSpec
from repro.faults.retry import RetryPolicy
from repro.service.store import ArtifactStore, artifact_key

#: The experiments the service accepts (the paper's figures and tables;
#: ablations stay CLI-only for now).
SERVICE_EXPERIMENTS: Tuple[str, ...] = registry.PAPER_EXPERIMENTS


def _positive_int(value: Any) -> bool:
    """A JSON integer above zero (``bool`` subclasses ``int``: not one)."""
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


@dataclass(frozen=True)
class SweepParams:
    """Everything that identifies one sweep's inputs (the job key)."""

    experiment: str
    instructions: int = 12_000
    stride: int = 3
    limit: Optional[int] = None
    engine: Optional[str] = None

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SweepParams":
        """Validated params from an untrusted JSON payload.

        Raises ``ValueError`` with a client-facing message on anything
        malformed — the HTTP layer maps that to a 400.
        """
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        unknown = set(payload) - {
            "experiment", "instructions", "stride", "limit", "engine",
        }
        if unknown:
            raise ValueError(f"unknown field(s): {', '.join(sorted(unknown))}")
        experiment = payload.get("experiment")
        if experiment not in SERVICE_EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {experiment!r}; "
                f"expected one of {', '.join(SERVICE_EXPERIMENTS)}"
            )
        instructions = payload.get("instructions", 12_000)
        stride = payload.get("stride", 3)
        limit = payload.get("limit")
        engine = payload.get("engine")
        if not _positive_int(instructions):
            raise ValueError("instructions must be a positive integer")
        if not _positive_int(stride):
            raise ValueError("stride must be a positive integer")
        if limit is not None and not _positive_int(limit):
            raise ValueError("limit must be a positive integer or null")
        if engine is not None and engine not in ("scalar", "vector"):
            raise ValueError("engine must be 'scalar', 'vector', or null")
        return cls(
            experiment=experiment,
            instructions=instructions,
            stride=stride,
            limit=limit,
            engine=engine,
        )

    def fingerprint(self) -> Dict[str, Any]:
        """The content identity of this sweep's rendered output.

        Folds in the result-cache schema: a schema bump changes every
        run key, so it must change the artifact key too (otherwise a
        stale render would outlive the results it was computed from).
        """
        return {
            "experiment": self.experiment,
            "instructions": self.instructions,
            "stride": self.stride,
            "limit": self.limit,
            "engine": self.engine,
            "result_schema": CACHE_SCHEMA,
        }

    def key(self) -> str:
        """SHA-256 over the canonical fingerprint (job dedup identity)."""
        canonical = json.dumps(
            self.fingerprint(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def runner(
        self,
        cache: Optional[ResultCache] = None,
        journal: Optional[SweepJournal] = None,
        jobs: Optional[int] = 1,
        retry_policy: Optional[RetryPolicy] = None,
        task_timeout: Optional[float] = None,
    ) -> ExperimentRunner:
        """A runner over ``cache`` with these sampling params."""
        return ExperimentRunner(
            instructions=self.instructions,
            limit=self.limit,
            stride=self.stride,
            cache=cache,
            jobs=jobs,
            engine=self.engine,
            journal=journal,
            retry_policy=retry_policy,
            task_timeout=task_timeout,
        )


def sweep_specs(experiment: str, runner: ExperimentRunner) -> List[RunSpec]:
    """The runs ``experiment`` requests (its registry declaration)."""
    return registry.experiment(experiment).runs(runner)


@dataclass
class FleetOutcome:
    """What one sweep execution did (the job's result summary)."""

    experiment: str
    text: str
    artifact_key: str
    #: Simulations actually performed by this execution (0 on any warm
    #: path — the differential gate and CI smoke assert on this).
    simulations: int
    #: True when the rendered artifact itself was already stored.
    warm_artifact: bool

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (the job's ``result`` field; no text body —
        clients fetch that from the figure/table/artifact endpoints)."""
        return {
            "experiment": self.experiment,
            "artifact_key": self.artifact_key,
            "simulations": self.simulations,
            "warm_artifact": self.warm_artifact,
        }


class Fleet:
    """Executes sweeps against one artifact store.

    Args:
        store: The artifact store shared with the one-shot CLIs.
        jobs: Worker processes per sweep (1 = inline in the calling
            thread; ``None`` = all cores).
        retry_policy: Task retry policy (``None`` = the supervisor's
            default).
        task_timeout: Per-task wall-clock bound in seconds (pool mode).
        journal_dir: When set, each sweep checkpoints completions to
            ``<journal_dir>/<sweep-key>.jsonl`` and replays it on the
            next attempt — a service killed mid-sweep resumes where it
            died even if the store write raced.
    """

    def __init__(
        self,
        store: ArtifactStore,
        jobs: Optional[int] = 1,
        retry_policy: Optional[RetryPolicy] = None,
        task_timeout: Optional[float] = None,
        journal_dir: Optional[Path] = None,
    ) -> None:
        self.store = store
        self.jobs = jobs
        self.retry_policy = retry_policy
        self.task_timeout = task_timeout
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None

    def _journal(self, params: SweepParams) -> Optional[SweepJournal]:
        if self.journal_dir is None:
            return None
        path = self.journal_dir / f"{params.key()}.jsonl"
        return SweepJournal(path, resume=path.exists())

    def execute(self, params: SweepParams) -> FleetOutcome:
        """Run one sweep to a rendered artifact (the job body).

        Raises what the supervisor raises —
        :class:`~repro.experiments.parallel.TaskFailure` /
        :class:`~repro.experiments.parallel.PoolRecoveryError` — and the
        queue worker maps those to a failed job.
        """
        from repro import obs

        key = artifact_key(params.experiment, params.fingerprint())
        artifacts = self.store.artifacts()
        stored = artifacts.load(key)
        if stored is not None:
            return FleetOutcome(
                experiment=params.experiment,
                text=stored["text"],
                artifact_key=key,
                simulations=0,
                warm_artifact=True,
            )

        journal = self._journal(params)
        try:
            with obs.span(
                "service.sweep",
                experiment=params.experiment,
                instructions=params.instructions,
            ) as sweep_span:
                runner = params.runner(
                    cache=self.store.result_cache(),
                    journal=journal,
                    jobs=self.jobs,
                    retry_policy=self.retry_policy,
                    task_timeout=self.task_timeout,
                )
                # The exact function the CLI uses: byte-identical output
                # by construction.
                text = run_experiment(params.experiment, runner)
                sweep_span.set(simulations=runner.simulations)
        finally:
            if journal is not None:
                journal.close()
        artifacts.store(
            key,
            {
                "experiment": params.experiment,
                "params": params.fingerprint(),
                "text": text,
            },
        )
        return FleetOutcome(
            experiment=params.experiment,
            text=text,
            artifact_key=key,
            simulations=runner.simulations,
            warm_artifact=False,
        )
