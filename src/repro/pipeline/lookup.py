"""Run-time speech lookup (Section III).

At run time a voice query is mapped to a target column and a set of
equality predicates ``Q``. If a speech was pre-generated for exactly
``Q``, it is returned; otherwise, among all speeches for the target,
the one describing the *most specific* data subset containing the
query's subset is used: predicates ``S`` with ``S ⊆ Q`` maximizing
``|S ∩ Q|`` (= ``|S|`` given containment).

Because stored subsets are themselves predicate sets, the fallback is a
walk over the subsets of ``Q`` from largest to smallest — at most
``2^|Q|`` dictionary probes, microseconds for voice-sized queries. This
is the entire run-time cost of the paper's approach (Figure 10's
near-zero latency bar).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import pandas as pd

from .config import encode_key


@dataclass
class Answer:
    """A resolved voice answer."""

    speech: str
    matched_predicates: dict[str, str]
    exact: bool
    utility: float
    normalized: float


class SpeechIndex:
    """In-memory index over the materialized speeches table."""

    def __init__(self, speeches: pd.DataFrame):
        required = {"query_key", "target", "speech", "utility", "normalized"}
        missing = required - set(speeches.columns)
        if missing:
            raise ValueError(f"speeches table missing columns: {sorted(missing)}")
        # {target: {query_key: (speech, utility, normalized)}}
        self._by_target: dict[str, dict[str, tuple[str, float, float]]] = {}
        for target, key, speech, utility, normalized in zip(
            speeches["target"].tolist(),
            speeches["query_key"].tolist(),
            speeches["speech"].tolist(),
            speeches["utility"].tolist(),
            speeches["normalized"].tolist(),
        ):
            self._by_target.setdefault(target, {})[key] = (
                speech,
                float(utility),
                float(normalized),
            )

    @property
    def targets(self) -> list[str]:
        return sorted(self._by_target)

    def __len__(self) -> int:
        return sum(len(d) for d in self._by_target.values())

    def query(self, target: str, predicates: dict[str, str]) -> Answer | None:
        """Resolve a voice query; None if the target is unknown."""
        table = self._by_target.get(target)
        if table is None:
            return None
        preds = {d: str(v) for d, v in predicates.items()}
        items = sorted(preds.items())
        for size in range(len(items), -1, -1):
            # deterministic order over equally-specific subsets
            for subset in combinations(items, size):
                hit = table.get(encode_key(dict(subset)))
                if hit is not None:
                    speech, utility, normalized = hit
                    return Answer(
                        speech=speech,
                        matched_predicates=dict(subset),
                        exact=(size == len(items)),
                        utility=utility,
                        normalized=normalized,
                    )
        return None
