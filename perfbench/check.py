"""Correctness check of one seed-run, from what is observable outside it.

Inputs are plain Python data so the check can be fed doctored runs:
``calls`` is every objective call in order as ``(point, value)``, ``grids``
the value list of each dimension, and ``rows`` the convergence trace as
``(evals, best_value)``.
"""

from __future__ import annotations

import math

MAX_REPORTED = 5


def check_run(calls, grids, rows, max_evals: int) -> list[str]:
    """Every way the run broke its contract; empty when it is correct."""
    problems: list[str] = []
    if len(calls) != max_evals:
        problems.append(f"objective called {len(calls)} times, "
                        f"expected {max_evals}")

    lookup = [{v: i for i, v in enumerate(g)} for g in grids]
    seen: set[tuple[int, ...]] = set()
    for k, (point, _) in enumerate(calls):
        idx = tuple(table.get(x) for table, x in zip(lookup, point))
        if len(point) != len(grids) or None in idx:
            problems.append(f"call {k} is off the grid: {tuple(point)}")
        elif idx in seen:
            problems.append(f"call {k} repeats grid point {idx}")
        seen.add(idx)

    evals = [e for e, _ in rows]
    bests = [b for _, b in rows]
    if not rows:
        problems.append("trace is empty")
    elif evals[-1] != max_evals:
        problems.append(f"trace ends at {evals[-1]} evals, expected {max_evals}")
    for k in range(1, len(rows)):
        if evals[k] <= evals[k - 1]:
            problems.append(f"row {k}: evals {evals[k]} after {evals[k - 1]}")
        if bests[k] > bests[k - 1]:
            problems.append(f"row {k}: best_value rose to {bests[k]!r} "
                            f"from {bests[k - 1]!r}")

    # Running minimum of the finite objective values, by number of calls.
    running = []
    best = math.inf
    for _, value in calls:
        if math.isfinite(value):
            best = min(best, value)
        running.append(best)
    for k, (e, b) in enumerate(rows):
        expected = running[e - 1] if 0 < e <= len(running) else None
        if expected != b:
            problems.append(f"row {k}: best_value {b!r} but the minimum of "
                            f"the first {e} values is {expected!r}")

    if len(problems) > MAX_REPORTED:
        extra = len(problems) - MAX_REPORTED
        problems = problems[:MAX_REPORTED] + [f"... and {extra} more"]
    return problems
