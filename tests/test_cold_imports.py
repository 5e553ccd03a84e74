"""What a cold process imports: scipy loads only where a scipy function runs.

Each test runs a fresh interpreter with ``scipy.stats`` blocked in
``sys.modules``, so a module that imports it again fails with a traceback
naming the importer.  Block runtimes (pool slots, ``repro worker``, a
delay-sweep point) must load no scipy module at all; an engine run that
reports an interval loads ``scipy.special`` at its merge, not
``scipy.stats``.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]

#: Prepended to every probe: a later ``import scipy.stats`` raises.
BLOCK_SCIPY_STATS = "import sys\nsys.modules['scipy.stats'] = None\n"

#: Fails the probe if any real scipy module got loaded.
NO_SCIPY = (
    "loaded = sorted(name for name, module in sys.modules.items()\n"
    "                if module is not None and name.partition('.')[0] == 'scipy')\n"
    "assert not loaded, loaded\n"
)


def probe(code, tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO / "src"),
        REPRO_CACHE_DIR=str(tmp_path / "cache"),
        REPRO_HISTORY_DIR=str(tmp_path / "history"),
    )
    proc = subprocess.run(
        [sys.executable, "-c", BLOCK_SCIPY_STATS + code],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def cli(argv):
    """Probe code running ``python -m repro *argv`` in-process, exit 0."""
    return (
        "import runpy\n"
        f"sys.argv = ['repro', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as exit:\n"
        "    assert not exit.code, exit.code\n"
    )


def test_warm_block_runtime_loads_no_scipy(tmp_path):
    probe(
        "from repro.backends.base import backend_names, get_backend\n"
        "from repro.distributed.work import warm_block_runtime\n"
        "warm_block_runtime()\n"
        # The warm-up skips a backend that fails to import; none may.
        "for name in backend_names():\n"
        "    get_backend(name)\n" + NO_SCIPY,
        tmp_path,
    )


def test_cold_smoke_run_needs_no_scipy_stats(tmp_path):
    out = probe(cli(["scenario", "run", "smoke"]), tmp_path)
    assert "smoke" in out.stdout.splitlines()[0]


def test_cold_delay_sweep_point_loads_no_scipy(tmp_path):
    out = probe(
        cli(["scenario", "run", "delay-sweep/d=0.5", "--quick"]) + NO_SCIPY,
        tmp_path,
    )
    assert "winner" in out.stdout


def test_rendering_a_table_loads_no_scipy_stats(tmp_path):
    probe(
        "from repro.analysis import Table, format_table\n"
        "assert 'repro.analysis.fitting' not in sys.modules\n",
        tmp_path,
    )


def test_mean_and_dispersion_of_an_estimate_load_no_scipy(tmp_path):
    # Only the confidence interval needs the t quantile.
    probe(
        "from repro.montecarlo.statistics import RunningStatistics, summarize\n"
        "for summary in (summarize([1.0, 2.0, 4.0]),\n"
        "                RunningStatistics.from_values([1.0, 2.0, 4.0]).to_summary()):\n"
        "    assert (summary.n, summary.mean) == (3, 7.0 / 3.0)\n"
        "    assert summary.std > 0 and summary.standard_error > 0\n" + NO_SCIPY
        + "assert summary.ci_low < summary.mean < summary.ci_high\n"
        "assert 'scipy.special' in sys.modules\n",
        tmp_path,
    )
