"""Shared constants of the paper's evaluation section.

All experiment drivers draw their parameters from here, so the whole
reproduction is driven by a single description of the paper's set-up.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.parameters import SystemParameters, paper_parameters

#: The workload highlighted in Fig. 3, Fig. 4 and Table 3: node 1 (Crusoe)
#: starts with 100 tasks, node 2 (P4) with 60.
PRIMARY_WORKLOAD: Tuple[int, int] = (100, 60)

#: The five initial workloads of Tables 1 and 2.
TABLE_WORKLOADS: Tuple[Tuple[int, int], ...] = (
    (200, 200),
    (200, 100),
    (100, 200),
    (200, 50),
    (50, 200),
)

#: The two workloads of the CDF figure (Fig. 5).
CDF_WORKLOADS: Tuple[Tuple[int, int], ...] = ((50, 0), (25, 50))

#: Per-task delays swept in Table 3 (seconds).
TABLE3_DELAYS: Tuple[float, ...] = (0.01, 0.5, 1.0, 2.0, 3.0)

#: Gain grid used by the paper's sweeps (Fig. 3 is plotted on this grid).
#: Kept numpy-free (this module sits on the scenario registry's import
#: path); the values are bit-identical to ``np.round(np.arange(0, 1.0001,
#: 0.05), 2)``.
GAIN_GRID: Tuple[float, ...] = tuple(round(i * 0.05, 2) for i in range(21))

#: Number of realisations used by the paper for its various estimates.
PAPER_MC_REALISATIONS = 500
PAPER_EXPERIMENT_REALISATIONS_TABLE1 = 20
PAPER_EXPERIMENT_REALISATIONS_LBP2 = 60

#: Reference values reported in the paper: the ``PAPER_*`` constants below
#: are where the paper's numbers live (used for shape and tolerance checks,
#: never to "fit" results).
PAPER_FIG3_OPTIMAL_GAIN_FAILURE = 0.35
PAPER_FIG3_OPTIMAL_GAIN_NO_FAILURE = 0.45
PAPER_FIG3_MIN_COMPLETION_TIME = 117.0
PAPER_LBP2_MC_COMPLETION_TIME = 112.43
PAPER_LBP2_EXPERIMENT_COMPLETION_TIME = 109.17
PAPER_PROCESSING_RATES = (1.08, 1.86)
PAPER_DELAY_PER_TASK = 0.02
PAPER_TABLE1 = {
    (200, 200): {"gain": 0.15, "theory": 274.95, "experiment": 264.72, "no_failure": 141.94},
    (200, 100): {"gain": 0.35, "theory": 210.13, "experiment": 207.32, "no_failure": 106.93},
    (100, 200): {"gain": 0.15, "theory": 210.13, "experiment": 229.19, "no_failure": 106.93},
    (200, 50): {"gain": 0.5, "theory": 177.09, "experiment": 172.56, "no_failure": 89.32},
    (50, 200): {"gain": 0.25, "theory": 177.09, "experiment": 215.66, "no_failure": 89.32},
}
PAPER_TABLE2 = {
    (200, 200): {"gain": 1.00, "mc": 277.9, "experiment": 263.4},
    (200, 100): {"gain": 1.00, "mc": 202.4, "experiment": 188.8},
    (100, 200): {"gain": 0.80, "mc": 203.07, "experiment": 212.9},
    (200, 50): {"gain": 1.00, "mc": 170.81, "experiment": 171.42},
    (50, 200): {"gain": 0.95, "mc": 189.72, "experiment": 177.6},
}
PAPER_TABLE3 = {
    0.01: {"lbp1": 116.82, "lbp2": 112.43},
    0.5: {"lbp1": 117.76, "lbp2": 115.94},
    1.0: {"lbp1": 120.99, "lbp2": 122.25},
    2.0: {"lbp1": 127.62, "lbp2": 133.02},
    3.0: {"lbp1": 131.64, "lbp2": 142.86},
}


def default_parameters(**kwargs) -> SystemParameters:
    """The paper's two-node system (wrapper around :func:`paper_parameters`)."""
    return paper_parameters(**kwargs)
