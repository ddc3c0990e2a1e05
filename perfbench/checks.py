"""Correctness checks of the speech table and the lookups.

Each check returns a list of failure messages, each prefixed with the
check's name, so a caller (and the smoke test) can tell which one fired.
"""
from __future__ import annotations

import hashlib
import json
from itertools import combinations
from pathlib import Path

import numpy as np
import pandas as pd

from repro.pipeline.config import Config, encode_key

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def speech_digest(table: pd.DataFrame) -> str:
    """SHA-256 over the sorted ``(target, query_key, speech)`` rows."""
    rows = sorted(zip(table["target"], table["query_key"], table["speech"]))
    h = hashlib.sha256()
    for row in rows:
        h.update("\x1f".join(map(str, row)).encode())
        h.update(b"\n")
    return h.hexdigest()


def expected_keys(data: pd.DataFrame, config: Config) -> set[str]:
    """Every query the problem generator must produce for ``data``: one
    per value combination present on each dimension subset of size ≤ L."""
    strs = data[list(config.dims)].astype(str)
    keys = {""}  # the whole-table query
    for size in range(1, config.max_query_len + 1):
        for subset in combinations(config.dims, size):
            combos = strs[list(subset)].drop_duplicates().itertuples(index=False)
            keys.update(encode_key(dict(zip(subset, c))) for c in combos)
    return keys


def check_queries(
    table: pd.DataFrame, config: Config, keys: set[str]
) -> tuple[int, list[str]]:
    """query-count: each expected query has exactly one speech row per
    target and no other row exists. Returns the number of failed
    (target, query) pairs and the failure messages."""
    failed, out = 0, []
    for target in config.targets:
        counts = table.loc[table["target"] == target, "query_key"].value_counts()
        bad = sum(1 for k in keys if counts.get(k, 0) != 1)
        extra = set(counts.index) - keys
        failed += bad + len(extra)
        if bad or extra:
            out.append(
                f"query-count: target {target}: {len(counts)} queries, expected "
                f"{len(keys)} ({bad} without exactly one row, {len(extra)} unexpected)"
            )
    return failed, out


def utility_bounds(data: pd.DataFrame, config: Config) -> dict[tuple[str, str], float]:
    """{(target, query_key): the sum of the m best single-fact utilities}.

    Utility is monotone and submodular, so no speech of m facts beats
    this sum. It is computed here, independently of ``repro.core``, over
    the same candidate facts: on the query's rows, one fact per value
    combination of up to ``max_extra_dims`` free dimensions (the empty
    combination included), valued at the combination's mean target,
    against the prior = the mean target of the query's rows."""
    strs = data[list(config.dims)].astype(str)
    codes = {d: pd.factorize(strs[d], sort=True)[0] for d in config.dims}
    sizes = {d: int(codes[d].max()) + 1 for d in config.dims}
    queries = [("", np.arange(len(data)), ())]
    for size in range(1, config.max_query_len + 1):
        for subset in combinations(config.dims, size):
            for vals, idx in strs.groupby(list(subset), sort=True).indices.items():
                vals = vals if isinstance(vals, tuple) else (vals,)
                queries.append((encode_key(dict(zip(subset, vals))), idx, subset))
    out = {}
    for target in config.targets:
        y_all = data[target].to_numpy(dtype=np.float64)
        for key, idx, subset in queries:
            y = y_all[idx]
            dev = np.abs(y - y.mean())
            free = [d for d in config.dims if d not in subset]
            gains = []
            for size in range(min(config.max_extra_dims, len(free)) + 1):
                for group in combinations(free, size):
                    fact = np.zeros(len(idx), dtype=np.int64)
                    for d in group:
                        fact = fact * sizes[d] + codes[d][idx]
                    fact = np.unique(fact, return_inverse=True)[1].ravel()
                    value = np.bincount(fact, weights=y) / np.bincount(fact)
                    gain = np.maximum(dev - np.abs(value[fact] - y), 0.0)
                    gains.append(np.bincount(fact, weights=gain))
            best = np.sort(np.concatenate(gains))[::-1][: config.speech_length]
            out[(target, key)] = float(best.sum())
    return out


def utility_ratios(
    table: pd.DataFrame, bounds: dict[tuple[str, str], float]
) -> tuple[list[float], list[str]]:
    """utility-bound: each speech's utility ÷ its bound (1.0 when the
    bound is 0); a utility above its bound fails. Rows of unexpected
    queries are left to the query-count check."""
    ratios, out = [], []
    for target, key, utility in zip(table["target"], table["query_key"], table["utility"]):
        bound = bounds.get((target, key))
        if bound is None:
            continue
        if utility > bound * (1 + 1e-9) + 1e-9:
            out.append(f"utility-bound: {target} {key!r} utility {utility} > bound {bound}")
        ratios.append(utility / bound if bound > 0 else 1.0)
    return ratios, out


def check_digest(digest: str, workload: str, sf: float, seed: int) -> list[str]:
    """digest: at a (workload, sf, seed) recorded in digests.json, the
    speeches must not change. Other inputs have no digest and pass."""
    for entry in json.loads(DIGESTS.read_text()):
        if (entry["workload"], entry["sf"], entry["seed"]) == (workload, sf, seed):
            if entry["sha256"] != digest:
                return [f"digest: speech table digest {digest} != recorded {entry['sha256']}"]
    return []


def check_lookup(answer, target: str, probe: dict[str, str], by_key: dict, max_len: int) -> str | None:
    """lookup: an answer must exist, match a subset of the probe, carry the
    stored speech of that subset, and be the most specific stored subset
    (every probe value occurs in the data, so that is min(|probe|, L))."""
    if answer is None:
        return f"lookup: no answer for {target} {probe}"
    matched = answer.matched_predicates
    if not matched.items() <= {k: str(v) for k, v in probe.items()}.items():
        return f"lookup: matched {matched} is not a subset of {probe}"
    if by_key.get((target, encode_key(matched))) != answer.speech:
        return f"lookup: speech for {target} {matched} differs from the table"
    if len(matched) != min(len(probe), max_len):
        return f"lookup: matched {matched} is not the most specific subset of {probe}"
    return None


def check_replay(table: pd.DataFrame, replayed: dict[tuple[str, str], tuple]) -> list[str]:
    """replay: the in-process kernels chose the same fact scopes and
    rendered the same speech as the Spark job, for every query."""
    out = []
    for target, key, facts_json, speech in zip(
        table["target"], table["query_key"], table["facts_json"], table["speech"]
    ):
        got = replayed.get((target, key))
        scopes = [sorted(f["scope"].items()) for f in json.loads(facts_json)]
        if got is None:
            out.append(f"replay: no local result for {target} {key!r}")
        elif got != (scopes, speech):
            out.append(f"replay: {target} {key!r} differs: spark {speech!r} local {got[1]!r}")
    return out
