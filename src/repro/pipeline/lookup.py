"""Run-time speech lookup (Section III).

At run time a voice query is mapped to a target column and a set of
equality predicates ``Q``. If a speech was pre-generated for exactly
``Q``, it is returned; otherwise, among all speeches for the target,
the one describing the *most specific* data subset containing the
query's subset is used: predicates ``S`` with ``S ⊆ Q`` maximizing
``|S ∩ Q|`` (= ``|S|`` given containment).

Because stored subsets are themselves predicate sets, the fallback is a
walk over the subsets of ``Q`` from largest to smallest, starting at the
longest stored key (``L``) — at most ``Σ_{l≤L} C(|Q|, l)`` dictionary
probes, microseconds for voice-sized queries. This is the entire
run-time cost of the paper's approach (Figure 10's near-zero latency
bar).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import pandas as pd

from .config import KEY_SEP, KV_SEP


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
        # longest stored key per target: the fallback walk starts there
        self._max_len = {
            t: max(k.count(KEY_SEP) + 1 if k else 0 for k in keys)
            for t, keys in self._by_target.items()
        }

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
        # (dim, value, "dim=value") sorted by dim: joining the parts of
        # any subset in this order gives its canonical key
        items = sorted([(d, str(v), d + KV_SEP + str(v)) for d, v in predicates.items()])
        for size in range(min(len(items), self._max_len[target]), -1, -1):
            # deterministic order over equally-specific subsets
            for subset in combinations(items, size):
                hit = table.get(KEY_SEP.join([part for _, _, part in subset]))
                if hit is not None:
                    speech, utility, normalized = hit
                    return Answer(
                        speech=speech,
                        matched_predicates={d: v for d, v, _ in subset},
                        exact=(size == len(items)),
                        utility=utility,
                        normalized=normalized,
                    )
        return None
