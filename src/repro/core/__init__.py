"""Core library: the paper's load-balancing policies and stochastic analysis.

This package implements the primary contribution of

    S. Dhakal, M. M. Hayat, J. E. Pezoa, C. T. Abdallah, J. D. Birdwell and
    J. Chiasson, "Load Balancing in the Presence of Random Node Failure and
    Recovery", IPDPS 2006.

namely

* :mod:`repro.core.parameters` — the parameterisation of a distributed
  system of computing elements with exponential service, failure, recovery
  and load-transfer-delay laws;
* :mod:`repro.core.policies` — the preemptive policy **LBP-1**, the
  reactive (act-on-failure) policy **LBP-2**, and baseline policies;
* :mod:`repro.core.completion_time` — regeneration-theory solvers for the
  expected overall completion time of the two-node system (eq. (4) of the
  paper), with a reference recursion, a vectorised sweep and a sparse
  absorbing-CTMC formulation;
* :mod:`repro.core.distribution` — solvers for the distribution function of
  the overall completion time (eq. (5));
* :mod:`repro.core.nofailure` — the no-failure special case used to select
  the initial gain of LBP-2;
* :mod:`repro.core.optimize` — optimal-gain and sender/receiver selection;
* :mod:`repro.core.multinode` — the n-node generalisation (the paper notes
  the extension is straightforward; it is carried out here);
* :mod:`repro.core.arrivals` — dynamic variants with external workload
  arrivals (sketched in the paper's conclusion).
"""

# Lazily re-exported (PEP 562): the solver stack pulls scipy, which costs
# close to a second of import time, while frequent consumers (the scenario
# spec/cache layer, the CLI's cached paths) only need the parameter
# dataclasses.  Attribute access resolves and memoises on first use.
from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.core.parameters": (
        "NodeParameters",
        "SystemParameters",
        "TransferDelayModel",
        "paper_parameters",
    ),
    "repro.core.policies": (
        "LBP1",
        "LBP2",
        "LoadBalancingPolicy",
        "NoBalancing",
        "ProportionalOneShot",
        "SendAllOnFailure",
        "Transfer",
    ),
    "repro.core.completion_time": (
        "CompletionTimeSolver",
        "expected_completion_time",
        "expected_completion_time_lbp1",
    ),
    "repro.core.distribution": (
        "completion_time_cdf",
        "completion_time_cdf_lbp1",
    ),
    "repro.core.nofailure": ("expected_completion_time_no_failure",),
    "repro.core.optimize": (
        "GainOptimizationResult",
        "optimal_gain_lbp1",
        "optimal_gain_no_failure",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
