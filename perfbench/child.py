"""Child processes of the end-to-end benchmark (see ``run.py``).

Each workload repetition runs in a fresh interpreter so that its peak RSS
and its set-up time belong to it alone.  Modes:

``cold``   regenerate a list of experiments into an empty result store,
           after a ``ready``/``go`` handshake on stdin/stdout (the parent
           times spawn-to-ready as set-up; ``exit`` instead of ``go``
           ends a set-up-only child);
``fill``   warm a service store: every served experiment through
           ``Fleet.execute``, then (for one of the stores) the local
           ``run_experiment`` renders the served text must equal;
``serve``  ``repro-serve`` itself, with the layer wrappers installed
           first when traced; on exit it prints its peak RSS and spans.

Every mode prints one JSON object as its last line of stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _peak_rss_mib() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _simulated_instructions(runner: Any, experiments: List[str]) -> int:
    """Instructions fed to the simulator by every distinct run the
    experiments request (all memo or store hits by now)."""
    from repro.service.fleet import sweep_specs

    seen = set()
    total = 0
    for name in experiments:
        for trace, improvements, config in sweep_specs(name, runner):
            if (trace, improvements, config) not in seen:
                seen.add((trace, improvements, config))
                result = runner.run(trace, improvements, config)
                total += result.conversion.instructions_out
    return total


def make_runner(params: Dict[str, Any], store: str) -> Any:
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import ExperimentRunner

    return ExperimentRunner(
        instructions=params["instructions"],
        stride=params["stride"],
        limit=params["limit"],
        cache=ResultCache(store),
        jobs=1,
    )


def cold(params: Dict[str, Any], store: str, traced: bool) -> Optional[Dict[str, Any]]:
    from repro.experiments.cli import run_experiment

    runner = make_runner(params, store)
    tracer = None
    if traced:
        from layers import Tracer

        tracer = Tracer().install()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return None
    latencies: Dict[str, float] = {}
    digests: Dict[str, str] = {}
    start = perf_counter()
    for name in params["experiments"]:
        began = perf_counter()
        if tracer is not None:
            text = tracer.span("experiments", run_experiment, name, runner)
        else:
            text = run_experiment(name, runner)
        latencies[name] = perf_counter() - began
        digests[name] = digest(text)
    wall = perf_counter() - start
    result: Dict[str, Any] = {
        "wall_s": wall,
        "latency_s": latencies,
        "digests": digests,
        "simulations": runner.simulations,
        "peak_rss_mib": _peak_rss_mib(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.snapshot()
    result["sim_instructions"] = _simulated_instructions(runner, params["experiments"])
    return result


def fill(params: Dict[str, Any], store: str, miss_limit: int) -> Dict[str, Any]:
    """Warm ``store``; print ``filled`` when the fleet is done (the parent
    times spawn-to-filled as set-up).  With ``miss_limit`` set, then render
    every experiment locally, at no limit and at ``miss_limit``."""
    from repro.experiments.cli import run_experiment
    from repro.service.fleet import SERVICE_EXPERIMENTS, Fleet, SweepParams
    from repro.service.store import ArtifactStore

    fleet = Fleet(ArtifactStore(store))
    simulations = 0
    served: Dict[str, str] = {}
    start = perf_counter()
    for name in SERVICE_EXPERIMENTS:
        outcome = fleet.execute(SweepParams(
            experiment=name,
            instructions=params["instructions"],
            stride=params["stride"],
        ))
        simulations += outcome.simulations
        served[name] = digest(outcome.text)
    fleet_s = perf_counter() - start
    print("filled", flush=True)
    texts: Dict[str, str] = {}
    mismatched: List[str] = []
    local_simulations = 0
    for name in SERVICE_EXPERIMENTS if miss_limit else ():
        runner = make_runner(dict(params, limit=None), store)
        texts[name] = run_experiment(name, runner)
        # A limit past the sampled count selects the same traces, so the
        # artifact-miss requests must render the very same text.
        wide = make_runner(dict(params, limit=miss_limit), store)
        if run_experiment(name, wide) != texts[name]:
            mismatched.append(name)
        local_simulations += runner.simulations + wide.simulations
    return {
        "fleet_s": fleet_s,
        "simulations": simulations,
        "local_simulations": local_simulations,
        "sim_instructions": _simulated_instructions(
            make_runner(dict(params, limit=None), store), list(SERVICE_EXPERIMENTS)
        ),
        "served_digests": served,
        "texts": texts,
        "miss_text_mismatch": mismatched,
    }


def serve(store: str, traced: bool) -> Dict[str, Any]:
    from repro.service import cli

    tracer = None
    if traced:
        from layers import Tracer

        tracer = Tracer().install()
    code = cli.main(["--port", "0", "--store", store, "--jobs", "1"])
    result: Dict[str, Any] = {"exit": code, "peak_rss_mib": _peak_rss_mib()}
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.snapshot()
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["cold", "fill", "serve"])
    parser.add_argument("--store", required=True)
    parser.add_argument("--params", default="{}", help="workload parameters (JSON)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--miss-limit", type=int, default=0)
    args = parser.parse_args()
    params = json.loads(args.params)
    if args.mode == "cold":
        result = cold(params, args.store, bool(args.trace))
        if result is None:
            return 0
    elif args.mode == "fill":
        result = fill(params, args.store, args.miss_limit)
    else:
        result = serve(args.store, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
