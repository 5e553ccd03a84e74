"""Correctness checks of the benchmark's operations.

Every function returns ``None`` when the output is right and a one-line
reason when it is not; the workloads count each failure against the
operations attempted.  Statistical checks allow :data:`Z_TOLERANCE`
standard errors, so a correct build fails one by chance with probability
below one in a million per check.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Standard errors a Monte-Carlo mean may sit from its analytic value.
Z_TOLERANCE = 5.0


def mean_matches_theory(
    mean: float, std: float, n: int, theory: float, label: str
) -> Optional[str]:
    """A Monte-Carlo mean within ``Z_TOLERANCE`` standard errors of theory."""
    if n < 2 or not math.isfinite(mean) or not math.isfinite(std) or std <= 0:
        return f"{label}: degenerate estimate (n={n}, mean={mean}, std={std})"
    z = (mean - theory) / (std / math.sqrt(n))
    if abs(z) > Z_TOLERANCE:
        return (
            f"{label}: mean {mean:.4f} is {z:+.1f} SE from theory {theory:.4f} "
            f"(tolerance {Z_TOLERANCE:g} SE)"
        )
    return None


def regroup_matches(
    cold: Tuple[float, float], regrouped: Tuple[float, float], label: str
) -> Optional[str]:
    """Merged mean and std of a regrouped re-run ``==`` the cold run's."""
    if tuple(regrouped) != tuple(cold):
        return (
            f"{label}: regrouped (mean, std) {tuple(regrouped)!r} != cold "
            f"{tuple(cold)!r}"
        )
    return None


def cache_hit_matches(
    expected_scalars: Dict[str, Any], from_cache: bool, scalars: Dict[str, Any], label: str
) -> Optional[str]:
    """A re-run served from the result cache with the computed scalars."""
    if not from_cache:
        return f"{label}: re-run was recomputed, not served from the cache"
    if scalars != expected_scalars:
        return f"{label}: cached scalars differ from the computed ones"
    return None


def cli_output_matches(stdout: str, expected: Sequence[Tuple[str, str]]) -> Optional[str]:
    """CLI output: one ``=== name (..., cached) ===`` block per expected
    ``(name, rendered)`` pair, in order, each with the rendered body."""
    blocks: List[Tuple[str, List[str]]] = []
    for line in stdout.splitlines():
        if line.startswith("=== "):
            blocks.append((line, []))
        elif blocks:
            blocks[-1][1].append(line)
    if len(blocks) != len(expected):
        return f"cli: {len(blocks)} result blocks, expected {len(expected)}"
    for (header, body), (name, rendered) in zip(blocks, expected):
        if not header.startswith(f"=== {name} (") or not header.endswith(", cached) ==="):
            return f"cli: header {header!r} is not a cached run of {name}"
        if "\n".join(body).strip("\n") != rendered.strip("\n"):
            return f"cli: body of {name} differs from the computed result"
    return None


def resubmit_matches(
    fresh: Sequence[Dict[str, Any]], state: str, cached: Sequence[Dict[str, Any]], label: str
) -> Optional[str]:
    """An identical re-submission answered ``done`` with the fresh job's
    content hashes and headlines."""
    if state != "done":
        return f"{label}: re-submission answered {state!r}, not 'done'"
    want = [(p["content_hash"], p["headline"]) for p in fresh]
    got = [(p["content_hash"], p["headline"]) for p in cached]
    if got != want:
        return f"{label}: re-submission returned {got!r}, fresh job had {want!r}"
    return None
