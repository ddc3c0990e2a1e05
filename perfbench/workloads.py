"""The benchmark's workloads: one input, config, method and probe kind each.

Why each workload exists is in BENCHMARK.json and README.md. Sizes are
chosen so that one ``preprocess_all`` pass takes 5-8 s on ``local[4]``:
a run then fits a cold set-up, four timed passes and the lookup rounds
into about 50 s.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.datasets import FLIGHTS_SPEC
from repro.pipeline.config import Config

# The L=2 workload leaves out the 52-value ``origin_state`` column: its
# ~2,100 two-predicate queries of a few rows each make one E pass take
# 27-40 s (Algorithm 1 is slowest on exactly those tiny many-fact
# problems), too long to time several passes in one run.
_DIMS5 = tuple(d for d in FLIGHTS_SPEC.dims if d != "origin_state")


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    sf: float
    config: Config
    method: str
    probes: str  # "exact": stored keys; "fallback": L + 2 predicates

    @property
    def targets(self) -> tuple[str, ...]:
        return self.config.targets


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="flights-large-go",
            dataset="flights",
            sf=5e-3,
            config=Config(dims=FLIGHTS_SPEC.dims, targets=FLIGHTS_SPEC.targets, max_query_len=1),
            method="G-O",
            probes="fallback",
        ),
        Workload(
            name="flights-exact",
            dataset="flights",
            sf=1e-4,
            config=Config(dims=_DIMS5, targets=("delay_minutes",), max_query_len=2),
            method="E",
            probes="exact",
        ),
    )
}
