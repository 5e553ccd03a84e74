"""Statistical analysis utilities: empirical pdfs, exponential fits, reporting.

Used by the test-bed calibration workflow (Figs. 1 and 2 of the paper: the
empirical processing-time and transfer-delay histograms and their
exponential approximations) and by the experiment drivers to render the
paper's tables as plain text.

Re-exports are lazy (PEP 562): rendering a table through
:mod:`repro.analysis.reporting` loads neither the fits nor scipy.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.analysis.empirical": (
        "EmpiricalDensity",
        "empirical_density",
        "histogram_pdf",
    ),
    "repro.analysis.fitting": ("ExponentialFit", "fit_exponential"),
    "repro.analysis.linfit": ("LinearFit", "fit_linear"),
    "repro.analysis.reporting": ("format_series", "format_table"),
    "repro.analysis.tables": ("Table",),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
