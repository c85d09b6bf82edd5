"""The experiment registry is the one declaration of every experiment.

The CLI, the service and the HTTP routes read their experiment lists off
it, and each entry's declared runs are exactly what its build requests:
fanning them out first leaves nothing for the render to simulate.
"""

import pytest

from repro.experiments import registry
from repro.experiments.cli import build_parser, run_experiment
from repro.experiments.runner import ExperimentRunner
from repro.service.fleet import SERVICE_EXPERIMENTS, Fleet, sweep_specs
from repro.service.http import ExperimentService, ServiceError
from repro.service.store import ArtifactStore

PAPER = ("fig1", "fig2", "fig3", "fig4", "fig5", "tab1", "tab2", "tab3")
ABLATIONS = ("ablation-frontend", "ablation-overlap", "ablation-prf")


def _runner():
    return ExperimentRunner(instructions=800, stride=27, limit=2, jobs=1)


def test_cli_choices_are_the_registry_names_plus_all():
    parser = build_parser()
    (choices,) = [a.choices for a in parser._actions if a.dest == "experiment"]
    assert tuple(choices) == registry.NAMES + ("all",)
    assert registry.NAMES == PAPER + ABLATIONS


def test_service_lists_the_paper_entries_in_order(tmp_path):
    assert registry.PAPER_EXPERIMENTS == PAPER
    assert SERVICE_EXPERIMENTS == PAPER
    service = ExperimentService(Fleet(ArtifactStore(tmp_path)), start_worker=False)
    assert service.handle_status()["experiments"] == list(PAPER)
    assert registry.family("figures") + registry.family("tables") == PAPER
    for family, name in (("figures", "tab1"), ("tables", "fig1"),
                         ("figures", "ablation-prf")):
        with pytest.raises(ServiceError) as excinfo:
            service.handle_render(family, name, {})
        assert excinfo.value.status == 404


@pytest.mark.parametrize("name", registry.NAMES)
def test_declared_runs_cover_every_run_the_experiment_requests(name):
    runner = _runner()
    entry = registry.experiment(name)
    runner.run_batch(entry.runs(runner))
    declared = runner.simulations
    run_experiment(name, runner)
    assert runner.simulations == declared
    if name in PAPER:
        assert sweep_specs(name, runner) == entry.runs(runner)


def test_tab1_declares_no_runs():
    runner = _runner()
    assert registry.experiment("tab1").runs(runner) == []


def test_unknown_experiment_raises_value_error():
    with pytest.raises(ValueError, match="fig9"):
        registry.experiment("fig9")
    with pytest.raises(ValueError, match="fig9"):
        run_experiment("fig9", _runner())
