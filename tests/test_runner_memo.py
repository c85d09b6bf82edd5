"""The runner's (trace, improvements) prefix memo.

Every simulator config of one pair reuses one conversion and one decode.
These tests pin that the memo changes nothing observable: the same
statistics and conversion counters as converting afresh for every run,
results in request order, no counters shared between results, and
exactly one conversion per distinct pair on the serial runner and on the
service fleet.
"""

from __future__ import annotations

import random

import pytest

from repro.core.convert import Converter
from repro.core.improvements import Improvement
from repro.experiments import parallel
from repro.experiments.runner import ExperimentRunner, pair_ordered
from repro.experiments.tables import FIXED_TRACE_IMPROVEMENTS
from repro.service.fleet import Fleet, LocalPoolBackend, SweepParams
from repro.service.store import ArtifactStore
from repro.sim.config import SimConfig
from repro.sim.simulator import Simulator

INSTRUCTIONS = 600
TRACES = ["client_001", "server_022"]
IMPROVEMENT_SETS = [Improvement.NONE, FIXED_TRACE_IMPROVEMENTS]
CONFIGS = [
    SimConfig.ipc1(),
    SimConfig.ipc1(l1i_prefetcher="PIPS"),
    SimConfig.ipc1(l1i_prefetcher="EPI"),
]


def tab3_specs():
    """Table 3's request order: config-major, so pairs interleave."""
    return [
        (name, imp, config)
        for imp in IMPROVEMENT_SETS
        for config in CONFIGS
        for name in TRACES
    ]


def fresh_run(runner, name, improvements, config):
    """The reference: convert and simulate with nothing memoised."""
    converter = Converter(improvements)
    instrs = list(converter.convert(runner.trace(name)))
    stats = Simulator(config).run(instrs, converter.required_branch_rules)
    return stats, converter.stats


@pytest.fixture
def count_conversions(monkeypatch):
    """Records the improvement set of every ``Converter.convert`` call."""
    calls = []
    original = Converter.convert

    def counting(self, records):
        calls.append(self.improvements)
        return original(self, records)

    monkeypatch.setattr(Converter, "convert", counting)
    return calls


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_memoised_sweep_matches_fresh_conversion(engine):
    runner = ExperimentRunner(instructions=INSTRUCTIONS, engine=engine)
    results = runner.run_batch(tab3_specs(), jobs=1)
    for (name, imp, config), result in zip(tab3_specs(), results):
        config = runner._normalize_config(config)
        stats, conversion = fresh_run(runner, name, imp, config)
        assert result.stats.to_dict() == stats.to_dict()
        assert result.conversion == conversion


def test_serial_batch_converts_each_pair_once(count_conversions):
    runner = ExperimentRunner(instructions=INSTRUCTIONS)
    runner.run_batch(tab3_specs(), jobs=1)
    assert len(count_conversions) == len(TRACES) * len(IMPROVEMENT_SETS)
    assert runner.simulations == len(tab3_specs())


def test_fleet_converts_each_pair_once(tmp_path, monkeypatch, count_conversions):
    # A clean process-local runner pool: the inline backend runs every
    # task through it, and a slot left by another test would hide a miss.
    monkeypatch.setattr(parallel, "_WORKER_RUNNERS", {})
    fleet = Fleet(ArtifactStore(tmp_path), backend=LocalPoolBackend(jobs=1))
    params = SweepParams(
        experiment="tab3", instructions=400, stride=25, limit=2
    )
    outcome = fleet.execute(params)
    traces = params.runner().ipc1_trace_names()
    assert len(traces) == 2
    assert outcome.dispatched == 9 * 2 * len(traces)
    assert len(count_conversions) == 2 * len(traces)


def test_interleaved_orders_return_request_order():
    reference = ExperimentRunner(instructions=INSTRUCTIONS)
    expected = {
        (name, imp, config): result.stats.to_dict()
        for (name, imp, config), result in zip(
            tab3_specs(), reference.run_batch(tab3_specs(), jobs=1)
        )
    }
    for seed in range(3):
        specs = tab3_specs()
        random.Random(seed).shuffle(specs)
        runner = ExperimentRunner(instructions=INSTRUCTIONS)
        results = runner.run_batch(specs, jobs=1)
        for spec, result in zip(specs, results):
            name, imp, config = spec
            assert (result.trace, result.improvements) == (name, imp)
            assert result.config_name == config.name
            assert result.stats.to_dict() == expected[spec]


def test_results_share_no_conversion_counters():
    runner = ExperimentRunner(instructions=INSTRUCTIONS)
    first, second = runner.run_batch(
        [("client_001", Improvement.ALL, config) for config in CONFIGS[:2]],
        jobs=1,
    )
    untouched = Converter(Improvement.ALL)
    list(untouched.convert(runner.trace("client_001")))
    assert first.conversion == second.conversion == untouched.stats

    assert first.conversion.branch_counts
    first.conversion.records_in += 1
    for category in list(first.conversion.branch_counts):
        first.conversion.branch_counts[category] += 1
    assert second.conversion == untouched.stats
    # The memo itself was not mutated either: a later config of the
    # same pair still reports the conversion's own counters.
    third = runner.run("client_001", Improvement.ALL, CONFIGS[2])
    assert third.conversion == untouched.stats


def test_pair_ordered_is_stable_by_first_appearance():
    items = [("a", 1), ("b", 1), ("a", 2), ("c", 1), ("b", 2), ("a", 3)]
    assert pair_ordered(items, lambda item: (item[0], Improvement.NONE)) == [
        ("a", 1), ("a", 2), ("a", 3), ("b", 1), ("b", 2), ("c", 1),
    ]
