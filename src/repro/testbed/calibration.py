"""Calibration procedures: processing-speed and channel-delay estimation.

Before running its comparative experiments the paper calibrates the model:

* Fig. 1 — empirical pdfs of the per-task processing time on both nodes are
  estimated and approximated by exponential laws (1.08 and 1.86 tasks/s);
* Fig. 2 — the per-task transfer delay pdf is estimated from channel-probing
  experiments and the *mean* transfer delay is regressed against the number
  of tasks per batch, giving ≈ 0.02 s per task.

This module reproduces both procedures on the emulated test-bed, producing
the fitted rates that feed :func:`repro.core.parameters.paper_parameters`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.empirical import EmpiricalDensity, empirical_density
from repro.analysis.fitting import ExponentialFit, fit_exponential
from repro.analysis.linfit import LinearFit, fit_linear
from repro.cluster.network import sample_batch_delay
from repro.core.parameters import SystemParameters, TransferDelayModel
from repro.sim.rng import RandomStreams, SeedLike
from repro.testbed.application import ApplicationLayer, MatrixWorkloadGenerator


@dataclass
class CalibrationResult:
    """Everything the calibration workflow produces."""

    processing_fits: Dict[int, ExponentialFit]
    processing_densities: Dict[int, EmpiricalDensity]
    delay_fit: ExponentialFit
    delay_density: EmpiricalDensity
    mean_delay_regression: LinearFit
    probe_sizes: np.ndarray
    probe_mean_delays: np.ndarray

    @property
    def estimated_service_rates(self) -> Tuple[float, ...]:
        """Fitted processing rates, in node order (Fig. 1 solid curves)."""
        return tuple(
            self.processing_fits[node].rate for node in sorted(self.processing_fits)
        )

    @property
    def estimated_delay_per_task(self) -> float:
        """Slope of the mean-delay regression (Fig. 2, bottom)."""
        return self.mean_delay_regression.slope


def estimate_processing_rates(
    params: SystemParameters,
    tasks_per_node: int = 500,
    seed: SeedLike = 0,
    execute_real: bool = False,
    bins: int = 30,
) -> Tuple[Dict[int, ExponentialFit], Dict[int, EmpiricalDensity]]:
    """Measure per-task processing times on every emulated node (Fig. 1).

    Parameters
    ----------
    params:
        System parameters (true node speeds being estimated).
    tasks_per_node:
        Number of calibration tasks executed per node.
    seed:
        Seed of the calibration workload.
    execute_real:
        Also run the real NumPy row-by-matrix multiplication for each task
        (slower; exercises the genuine computation path).
    bins:
        Histogram resolution of the returned empirical densities.
    """
    if tasks_per_node < 2:
        raise ValueError("tasks_per_node must be at least 2")
    streams = RandomStreams(seed)
    generator = MatrixWorkloadGenerator()
    rng = streams.stream("calibration.workload")
    sizes = generator.generate([tasks_per_node] * params.num_nodes, rng)

    fits: Dict[int, ExponentialFit] = {}
    densities: Dict[int, EmpiricalDensity] = {}
    for index in range(params.num_nodes):
        application = ApplicationLayer(params.node(index).service_rate, generator)
        exec_rng = streams.stream(f"calibration.node-{index}")
        times: List[float] = []
        for size in sizes[index]:
            if execute_real:
                application.execute_real(size, exec_rng)
            times.append(application.execution_time(size))
        fits[index] = fit_exponential(times)
        densities[index] = empirical_density(times, bins=bins)
    return fits, densities


def estimate_delay_model(
    params: SystemParameters,
    probe_sizes: Optional[Sequence[int]] = None,
    probes_per_size: int = 30,
    seed: SeedLike = 0,
    bins: int = 30,
) -> Tuple[ExponentialFit, EmpiricalDensity, LinearFit, np.ndarray, np.ndarray]:
    """Channel-probing estimation of the transfer-delay model (Fig. 2).

    Sends ``probes_per_size`` batches of every size in ``probe_sizes`` over
    the emulated channel, fits an exponential to the per-task delay and
    regresses the mean batch delay against the batch size.
    """
    if probes_per_size < 2:
        raise ValueError("probes_per_size must be at least 2")
    sizes = np.asarray(
        probe_sizes if probe_sizes is not None else np.arange(10, 101, 10), dtype=int
    )
    if np.any(sizes < 1):
        raise ValueError("probe sizes must be >= 1")
    streams = RandomStreams(seed)
    rng = streams.stream("calibration.channel")
    model: TransferDelayModel = params.delay_model(0, min(1, params.num_nodes - 1))

    per_task_delays: List[float] = []
    mean_delays = np.empty(len(sizes))
    for i, size in enumerate(sizes):
        batch_delays = np.array(
            [sample_batch_delay(model, int(size), rng) for _ in range(probes_per_size)]
        )
        mean_delays[i] = batch_delays.mean()
        per_task_delays.extend(batch_delays / size)

    delay_fit = fit_exponential(per_task_delays)
    delay_density = empirical_density(per_task_delays, bins=bins)
    regression = fit_linear(sizes.astype(float), mean_delays)
    return delay_fit, delay_density, regression, sizes, mean_delays


def calibrate(
    params: SystemParameters,
    tasks_per_node: int = 500,
    probes_per_size: int = 30,
    seed: SeedLike = 0,
) -> CalibrationResult:
    """Run the full calibration workflow of Section 4 (Figs. 1 and 2)."""
    fits, densities = estimate_processing_rates(
        params, tasks_per_node=tasks_per_node, seed=seed
    )
    delay_fit, delay_density, regression, sizes, mean_delays = estimate_delay_model(
        params, probes_per_size=probes_per_size, seed=seed
    )
    return CalibrationResult(
        processing_fits=fits,
        processing_densities=densities,
        delay_fit=delay_fit,
        delay_density=delay_density,
        mean_delay_regression=regression,
        probe_sizes=sizes,
        probe_mean_delays=mean_delays,
    )
