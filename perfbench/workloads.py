"""The benchmark workloads: one closed-loop optimizer run per seed.

Each workload is a fixed ``RunConfig`` (method, problem, budget, batch size)
plus the target used for ``evals_to_target``. The optimizer seeds of one
benchmark run are drawn from the benchmark's ``--seed``; everything else is
fixed here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# setup_s is the median of at least this many fresh-process set-ups.
MIN_SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    config: dict          # keyword arguments of scorebo.cli.RunConfig
    target: float         # best value that counts as "reached" for evals_to_target
    seed_run_s: float     # nominal wall time of one seed-run child, with set-up
    min_seeds: int = 1    # fewest seed-runs that keep the run's p90 steady

    def seeds_per_run(self, seconds: float) -> int:
        """Seed-runs that fill ``seconds``, but never fewer than ``min_seeds``."""
        return max(self.min_seeds, round(seconds / self.seed_run_s))


WORKLOADS = {
    # Per-step latency: 280 small steps, fixed per-step overhead dominates.
    "score-ackley10-b1": Workload(
        config=dict(method="score", problem="ackley", dims=10, n_init=20,
                    batch_size=1, max_evals=300),
        target=1.0, seed_run_s=2.6),
    # Wide batches: 45 steps of 200 projection fits; the surrogate dominates.
    # Three seeds (135 steps) left the p90 of one seed set 13 % off the next.
    "score-ackley200-b10": Workload(
        config=dict(method="score", problem="ackley", dims=200, n_init=50,
                    batch_size=10, max_evals=500),
        target=1.0, seed_run_s=7.5, min_seeds=4),
    # Ragged grids (41/61/41/41/31) and the only costly objective and build.
    # Not in BENCHMARK.json: its step cost depends on the seed's trajectory
    # (per-seed p90 from 4 to 13 ms, each repeatable within 3 %), so the
    # pooled p90 of ~12 seeds moves by ~30 % between seed sets. Run it by
    # name to check ragged-grid changes.
    "score-sdm-b1": Workload(
        config=dict(method="score", problem="sdm", n_init=150, batch_size=1,
                    max_evals=500),
        target=0.02, seed_run_s=2.3),
    # Joint-GP baseline: never touches the projection surrogate. With two
    # seeds its p90 spread by 9 % between seed sets.
    "bo-ackley10": Workload(
        config=dict(method="bo", problem="ackley", dims=10, n_init=20,
                    max_evals=300),
        target=1.0, seed_run_s=14.0, min_seeds=3),
}


def optimizer_seeds(bench_seed: int, count: int) -> list[int]:
    """The optimizer seeds of one benchmark run; the same seed gives the same list."""
    rng = random.Random(bench_seed)
    return [rng.randrange(2**31) for _ in range(count)]
