"""One declaration per experiment: its runs, its data, its text.

Every figure, table and ablation the repository regenerates is one
:class:`Experiment` entry here, in paper order.  An entry names three
parts that already live beside the experiment's code:

- ``runs(runner)`` — the (trace, improvements, config) runs it needs,
  the same list its ``build`` fans out first;
- ``build(runner)`` — the data (figure series, table rows);
- ``render(data)`` — the text ``repro-experiment`` prints.

The CLI's choices, ``all``, the service's experiment list and its HTTP
figure/table families are all read off this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments import ablation, figures, report, tables
from repro.experiments.runner import ExperimentRunner, RunSpec


@dataclass(frozen=True)
class Experiment:
    """One registry entry (see the module docstring)."""

    name: str
    runs: Callable[[ExperimentRunner], List[RunSpec]]
    build: Callable[[ExperimentRunner], Any]
    render: Callable[[Any], str]
    #: HTTP family (``"figures"``/``"tables"``) of a paper experiment;
    #: ``None`` for an ablation, which only the CLI runs.
    family: Optional[str] = None


# Renderers are looked up on ``report`` at call time, so a wrapper bound
# there (a profiler's) sees every render.
EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment("fig1", figures.figure1_runs, figures.figure1,
               lambda data: report.render_figure1(data), "figures"),
    Experiment("fig2", figures.figure1_runs, figures.figure2,
               lambda data: report.render_figure2(data), "figures"),
    Experiment("fig3", figures.figure3_runs, figures.figure3,
               lambda data: report.render_figure3(data), "figures"),
    Experiment("fig4", figures.figure4_runs, figures.figure4,
               lambda data: report.render_figure4(data), "figures"),
    Experiment("fig5", figures.figure5_runs, figures.figure5,
               lambda data: report.render_figure5(data), "figures"),
    Experiment("tab1", tables.table1_runs, tables.table1,
               lambda data: report.render_table1(data), "tables"),
    Experiment("tab2", tables.table2_runs, tables.table2,
               lambda data: report.render_table2(data), "tables"),
    Experiment("tab3", tables.table3_runs, tables.table3,
               lambda data: report.render_table3(data), "tables"),
    Experiment("ablation-frontend", ablation.frontend_runs,
               ablation.decoupled_frontend_study,
               ablation.render_frontend_ablation),
    Experiment("ablation-overlap", ablation.interaction_runs,
               ablation.improvement_interaction_study,
               ablation.render_interaction),
    Experiment("ablation-prf", ablation.prf_runs, ablation.finite_prf_study,
               ablation.render_prf_study),
)

_BY_NAME: Dict[str, Experiment] = {entry.name: entry for entry in EXPERIMENTS}

#: Every experiment name, in registry order.
NAMES: Tuple[str, ...] = tuple(_BY_NAME)

#: The paper's eight figures and tables, in paper order (``all``).
PAPER_EXPERIMENTS: Tuple[str, ...] = tuple(
    entry.name for entry in EXPERIMENTS if entry.family is not None
)


def family(name: str) -> Tuple[str, ...]:
    """The experiments served under the HTTP family ``name``."""
    return tuple(entry.name for entry in EXPERIMENTS if entry.family == name)


def experiment(name: str) -> Experiment:
    """The entry for ``name``; ``ValueError`` when there is none."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown experiment {name!r}") from None


def run_experiment(name: str, runner: ExperimentRunner) -> str:
    """Produce the rendered text for one experiment."""
    entry = experiment(name)
    return entry.render(entry.build(runner))
