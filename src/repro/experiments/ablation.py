"""Ablation studies for the design choices the paper discusses.

Two studies back the paper's discussion sections:

- :func:`decoupled_frontend_study` — Section 4.4 cites Ishii et al.
  [49, 50]: evaluating instruction prefetchers on a simulator *without*
  a decoupled front-end (as IPC-1 did) overstates their benefit, because
  fetch-directed instruction prefetching in the baseline already hides
  most L1I misses.  The study reruns the prefetcher evaluation with the
  decoupled front-end enabled and reports how much the speedups shrink.

- :func:`improvement_interaction_study` — Section 4.1 notes that the
  performance impacts of ``branch-regs`` and ``flag-reg`` overlap when
  applied together.  The study measures each alone and both combined, so
  the sub-additivity is visible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from repro.core.improvements import Improvement
from repro.experiments.runner import ExperimentRunner, RunSpec, geomean
from repro.experiments.tables import FIXED_TRACE_IMPROVEMENTS
from repro.sim.config import SimConfig
from repro.sim.prefetch.ipc1 import IPC1_PREFETCHERS


@dataclass
class FrontendAblationRow:
    prefetcher: str
    #: Geomean speedup on the IPC-1 setup (coupled front-end).
    speedup_coupled: float
    #: Geomean speedup with a decoupled front-end + FDIP in the baseline.
    speedup_decoupled: float

    @property
    def reduction(self) -> float:
        """How much of the coupled-front-end gain the decoupled FE absorbs."""
        coupled_gain = self.speedup_coupled - 1.0
        decoupled_gain = self.speedup_decoupled - 1.0
        if coupled_gain <= 0:
            return 0.0
        return 1.0 - decoupled_gain / coupled_gain


def _frontend_bases() -> Tuple[SimConfig, SimConfig]:
    """The coupled (IPC-1) and decoupled front-end baseline configs."""
    decoupled = SimConfig.ipc1(decoupled_frontend=True, fdip_lookahead=12)
    return SimConfig.ipc1(), replace(decoupled, name="ipc1-decoupled")


def _prefetcher_configs(config_base: SimConfig) -> Dict[str, SimConfig]:
    return {
        prefetcher: replace(
            config_base,
            name=f"{config_base.name}+{prefetcher}",
            l1i_prefetcher=prefetcher,
        )
        for prefetcher in IPC1_PREFETCHERS
    }


def frontend_runs(
    runner: ExperimentRunner, improvements: Improvement = FIXED_TRACE_IMPROVEMENTS
) -> List[RunSpec]:
    """Each front-end baseline and its eight prefetcher configs."""
    names = runner.ipc1_trace_names()
    return [
        (n, improvements, config)
        for base in _frontend_bases()
        for config in [base, *_prefetcher_configs(base).values()]
        for n in names
    ]


def _speedups(
    runner: ExperimentRunner, config_base: SimConfig, improvements: Improvement
) -> Dict[str, float]:
    names = runner.ipc1_trace_names()
    prefetcher_configs = _prefetcher_configs(config_base)
    baseline = {
        n: runner.run(n, improvements, config_base).stats.ipc for n in names
    }
    out: Dict[str, float] = {}
    for prefetcher in IPC1_PREFETCHERS:
        config = prefetcher_configs[prefetcher]
        out[prefetcher] = geomean(
            runner.run(n, improvements, config).stats.ipc / baseline[n]
            for n in names
            if baseline[n] > 0
        )
    return out


def decoupled_frontend_study(
    runner: ExperimentRunner,
    improvements: Improvement = FIXED_TRACE_IMPROVEMENTS,
) -> List[FrontendAblationRow]:
    """Prefetcher speedups: coupled (IPC-1) vs decoupled front-end.

    Expectation (Ishii et al., echoed by the paper): the decoupled
    column's speedups are much closer to 1.
    """
    runner.run_batch(frontend_runs(runner, improvements))
    coupled_base, decoupled_base = _frontend_bases()
    coupled = _speedups(runner, coupled_base, improvements)
    decoupled = _speedups(runner, decoupled_base, improvements)
    rows = [
        FrontendAblationRow(
            prefetcher=name,
            speedup_coupled=coupled[name],
            speedup_decoupled=decoupled[name],
        )
        for name in IPC1_PREFETCHERS
    ]
    rows.sort(key=lambda r: r.speedup_coupled, reverse=True)
    return rows


@dataclass
class InteractionRow:
    """Geomean IPC variation for one improvement combination."""

    label: str
    variation: float


#: The interaction study's combinations, in row order.
_COMBOS = (
    ("imp_branch-regs", Improvement.BRANCH_REGS),
    ("imp_flag-regs", Improvement.FLAG_REG),
    ("both", Improvement.BRANCH_REGS | Improvement.FLAG_REG),
)


def interaction_runs(runner: ExperimentRunner) -> List[RunSpec]:
    names = runner.public_trace_names()
    return [
        (n, improvements, None)
        for improvements in [Improvement.NONE] + [imp for _, imp in _COMBOS]
        for n in names
    ]


def improvement_interaction_study(
    runner: ExperimentRunner,
) -> List[InteractionRow]:
    """branch-regs / flag-reg in isolation vs combined (Section 4.1).

    The combined effect is expected to be *less* negative than the sum of
    the isolated effects: flag-reg routes all conditionals through the
    flag register, and branch-regs then replaces exactly the dependencies
    flag-reg would otherwise have created for cb(n)z-style branches.
    """
    runner.run_batch(interaction_runs(runner))
    names = runner.public_trace_names()
    return [
        InteractionRow(label, runner.geomean_variation(names, improvements))
        for label, improvements in _COMBOS
    ]


@dataclass
class PrfRow:
    """mem-regs IPC variation at one physical-register-file size."""

    prf_size: int  # 0 = unlimited
    variation: float


def _prf_configs(sizes: Sequence[int]) -> Dict[int, SimConfig]:
    return {
        size: replace(SimConfig.main(prf_size=size), name=f"main-prf{size}")
        for size in sizes
    }


def prf_runs(
    runner: ExperimentRunner, sizes: Sequence[int] = (0, 96, 48)
) -> List[RunSpec]:
    names = runner.public_trace_names()
    return [
        (n, improvements, config)
        for config in _prf_configs(sizes).values()
        for improvements in (Improvement.NONE, Improvement.MEM_REGS)
        for n in names
    ]


def finite_prf_study(
    runner: ExperimentRunner, sizes: Sequence[int] = (0, 96, 48)
) -> List[PrfRow]:
    """Section 4.2's hypothesis: with a finite physical register file,
    the register-forging/dropping inaccuracies of the original converter
    start to matter, so mem-regs gains value.

    Returns the geomean IPC variation of mem-regs vs the original
    converter at each PRF size (0 = ChampSim's unlimited renaming).
    """
    runner.run_batch(prf_runs(runner, sizes))
    names = runner.public_trace_names()
    configs = _prf_configs(sizes)
    rows: List[PrfRow] = []
    for size in sizes:
        config = configs[size]
        rows.append(
            PrfRow(
                prf_size=size,
                variation=runner.geomean_variation(
                    names, Improvement.MEM_REGS, config
                ),
            )
        )
    return rows


def render_prf_study(rows: List[PrfRow]) -> str:
    lines = [
        "Ablation — mem-regs under a finite physical register file",
        f"{'PRF size':>9s} {'mem-regs IPC variation':>24s}",
        "-" * 36,
    ]
    for row in rows:
        label = "unlimited" if row.prf_size == 0 else str(row.prf_size)
        lines.append(f"{label:>9s} {100 * row.variation:+23.2f}%")
    return "\n".join(lines)


def render_frontend_ablation(rows: List[FrontendAblationRow]) -> str:
    lines = [
        "Ablation — instruction-prefetcher speedups vs front-end style",
        f"{'prefetcher':12s} {'coupled':>8s} {'decoupled':>10s} {'reduction':>10s}",
        "-" * 46,
    ]
    for row in rows:
        lines.append(
            f"{row.prefetcher:12s} {row.speedup_coupled:8.4f} "
            f"{row.speedup_decoupled:10.4f} {100 * row.reduction:9.1f}%"
        )
    return "\n".join(lines)


def render_interaction(rows: List[InteractionRow]) -> str:
    lines = [
        "Ablation — branch-regs / flag-reg overlap",
        f"{'combination':16s} {'geomean IPC variation':>22s}",
        "-" * 40,
    ]
    for row in rows:
        lines.append(f"{row.label:16s} {100 * row.variation:+21.2f}%")
    return "\n".join(lines)
