"""Pinned solver outputs on seeded random problems.

``pinned_solvers.json`` holds, for each seed, the fact ids, utility,
rows processed and facts evaluated of G-B, G-P, G-O (with planning
forced, so it prunes) and E. A change to how the kernels read the fact
lattice must leave every one of these values bit-identical: the fact
ids fix the speech, the counters fix the cost the benchmark reports.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import planner
from repro.core.exact import exact_summary
from repro.core.facts import enumerate_facts
from repro.core.greedy import greedy_summary
from repro.core.model import Problem
from repro.core.pruning import naive_plan

PINNED = json.loads(Path(__file__).with_name("pinned_solvers.json").read_text())


def pinned_problem(seed: int) -> tuple[Problem, int]:
    """A random problem over 1-4 dimensions of 1-8 values (some columns
    constant, some with gapped codes) and its ``max_extra_dims``."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    n = int(rng.integers(10, 300))
    codes = rng.integers(0, rng.integers(1, 9, d), (n, d)) * rng.integers(1, 3, d)
    y = np.round(rng.gamma(2.0, 10.0, n) + rng.integers(0, 200) * (codes[:, 0] > 0), 1)
    labels = [np.arange(codes[:, j].max() + 1).astype(str) for j in range(d)]
    problem = Problem([f"d{j}" for j in range(d)], codes, labels, y, prior=float(y.mean()))
    return problem, int(rng.integers(1, 4))


def solve_all(problem: Problem, extra: int) -> dict[str, list]:
    fs = enumerate_facts(problem, max_extra_dims=extra)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "PLANNING_THRESHOLD", 0)
        go_plan = planner.opt_prune(fs)
    runs = {
        "G-B": greedy_summary(problem, fs, 3),
        "G-P": greedy_summary(problem, fs, 3, plan=naive_plan(fs)),
        "G-O": greedy_summary(problem, fs, 3, plan=go_plan),
        "E": exact_summary(problem, fs, 2),
    }
    return {
        k: [r.extra["fact_ids"], r.utility, r.rows_processed, r.facts_evaluated]
        for k, r in runs.items()
    }


@pytest.mark.parametrize("seed", range(30))
def test_solvers_match_pinned_values(seed):
    assert solve_all(*pinned_problem(seed)) == PINNED[str(seed)]
