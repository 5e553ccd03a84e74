"""Emulation of the paper's distributed-computing test-bed (Section 3).

The original evaluation ran on two physical hosts connected by an IEEE
802.11b/g wireless LAN, with an ANSI-C software stack organised in three
layers: *application* (randomised matrix–row multiplication tasks),
*communication* (UDP state-information exchange + TCP data transfer) and
*load-balancing / failure*.  That hardware is not available here, so this
package re-creates the same architecture as a next-event loop, like the
model's simulators:

* :mod:`repro.testbed.application` — the matrix-multiplication application
  layer with randomised task sizes (and an optional real NumPy execution
  path used in the calibration example);
* :mod:`repro.testbed.experiment` — complete experiments (the "Exp."
  columns of Tables 1 and 2): one loop whose clocks stand for the
  application, communication and load-balancing/failure layers and the
  failure injector;
* :mod:`repro.testbed.calibration` — the channel-probing and
  processing-speed estimation procedures behind Figs. 1 and 2.

The emulation deliberately differs from the clean Monte-Carlo model of
:mod:`repro.cluster` in the same ways the physical test-bed differs from the
analytical model: balancing decisions rely on delayed and occasionally lost
state messages, data transfers share one wireless medium, and there is a
per-transfer protocol overhead.  This is what makes the "experimental"
columns of the reproduced tables distinct from (yet close to) the
Monte-Carlo columns, as in the paper.
"""

from repro.testbed.application import ApplicationLayer, MatrixWorkloadGenerator
from repro.testbed.experiment import TestbedConfig, TestbedExperiment, TestbedResult
from repro.testbed.calibration import (
    CalibrationResult,
    estimate_delay_model,
    estimate_processing_rates,
)

__all__ = [
    "ApplicationLayer",
    "CalibrationResult",
    "MatrixWorkloadGenerator",
    "TestbedConfig",
    "TestbedExperiment",
    "TestbedResult",
    "estimate_delay_model",
    "estimate_processing_rates",
]
