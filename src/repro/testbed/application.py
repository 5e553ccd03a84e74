"""The application layer: randomised matrix-row multiplication tasks.

In the paper "one task is defined as the multiplication of one row by a
static matrix duplicated on all nodes", and the arithmetic precision of each
row element is drawn from an exponential distribution so that task sizes —
and therefore per-task execution times — are random (Section 3, Fig. 1).

The emulation keeps the same structure, with a task represented by its size
(abstract work units) alone:

* :class:`MatrixWorkloadGenerator` draws the task sizes, exponential with
  mean ``mean_size``;
* a node with service rate ``λ_d`` executes a task of size ``s`` in
  ``s / (mean_size · λ_d)`` emulated seconds, so the per-task execution
  time is exponential with rate ``λ_d`` — exactly the law the paper fits in
  Fig. 1;
* optionally, :meth:`ApplicationLayer.execute_real` really multiplies a row
  block by a static matrix (NumPy) with a row length proportional to the
  task size, which the calibration example uses to demonstrate the full
  measurement-to-model pipeline on genuine computation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.sim.distributions import Exponential


class MatrixWorkloadGenerator:
    """Generates matrix-row task sizes, exponentially distributed.

    Parameters
    ----------
    mean_size:
        Mean abstract size of a task (the unit in which node service rates
        are expressed: a node with ``λ_d`` tasks/s processes ``λ_d`` units of
        mean-size work per second).
    base_row_length:
        Row length corresponding to a task of size 1 when materialising real
        matrix rows (only used by the real-execution path).
    """

    def __init__(self, mean_size: float = 1.0, base_row_length: int = 256) -> None:
        if mean_size <= 0:
            raise ValueError(f"mean_size must be positive, got {mean_size!r}")
        if base_row_length < 1:
            raise ValueError(f"base_row_length must be >= 1, got {base_row_length!r}")
        self.mean_size = float(mean_size)
        self.base_row_length = int(base_row_length)
        self._size_distribution = Exponential.from_mean(mean_size)

    def generate(
        self, counts: Sequence[int], rng: np.random.Generator
    ) -> List[List[float]]:
        """Draw the task sizes of every node for the initial ``counts``.

        The sizes are drawn node by node, one per task, and are at least
        ``1e-9``.
        """
        counts = [int(count) for count in counts]
        if any(count < 0 for count in counts):
            raise ValueError("task counts must be non-negative")
        sizes = np.maximum(
            self._size_distribution.sample_many(rng, sum(counts)), 1e-9
        ).tolist()
        per_node = []
        start = 0
        for count in counts:
            per_node.append(sizes[start : start + count])
            start += count
        return per_node

    def row_length(self, size: float) -> int:
        """Row length used when actually materialising a task of ``size``."""
        return max(1, int(round(size * self.base_row_length)))


class ApplicationLayer:
    """Executes tasks on behalf of one emulated node.

    Parameters
    ----------
    service_rate:
        The node's processing speed ``λ_d`` in tasks (of mean size) per
        second.
    generator:
        The workload generator (defines the mean size and how abstract size
        maps to real rows).
    matrix_size:
        Number of columns of the static matrix used by the real execution
        path.
    """

    def __init__(
        self,
        service_rate: float,
        generator: Optional[MatrixWorkloadGenerator] = None,
        matrix_size: int = 64,
    ) -> None:
        if service_rate <= 0:
            raise ValueError(f"service_rate must be positive, got {service_rate!r}")
        self.service_rate = float(service_rate)
        self.generator = generator or MatrixWorkloadGenerator()
        self.matrix_size = int(matrix_size)
        self._static_matrix: Optional[np.ndarray] = None

    def execution_time(self, size: float) -> float:
        """Emulated execution time of a task of ``size`` on this node.

        A task of size ``s`` (exponential with mean ``mean_size``) takes
        ``s / (λ_d · mean_size)`` seconds, so the per-task execution time is
        exponential with rate ``λ_d`` — the behaviour measured in Fig. 1 of
        the paper.
        """
        return size / (self.service_rate * self.generator.mean_size)

    def _matrix(self, rng: np.random.Generator) -> np.ndarray:
        if self._static_matrix is None:
            # The static matrix is duplicated on all nodes in the paper; its
            # content is irrelevant to timing, only its shape matters.
            self._static_matrix = rng.standard_normal(
                (self.matrix_size, self.matrix_size)
            )
        return self._static_matrix

    def execute_real(self, size: float, rng: np.random.Generator) -> np.ndarray:
        """Actually multiply a random row block by the static matrix.

        The result is returned so callers can verify the computation; the
        wall-clock duration is *not* the emulation's time (the emulated
        execution time is :meth:`execution_time`), this path exists to
        exercise a genuine computation in the calibration example.
        """
        matrix = self._matrix(rng)
        rows = max(1, self.generator.row_length(size) // self.matrix_size)
        block = rng.standard_normal((rows, self.matrix_size))
        return block @ matrix
