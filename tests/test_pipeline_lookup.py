"""Tests for the run-time most-specific-subset speech lookup."""
from itertools import combinations

import numpy as np
import pandas as pd
import pytest

from repro.pipeline.config import encode_key
from repro.pipeline.lookup import Answer, SpeechIndex


def make_table():
    rows = []
    for preds, speech in [
        ({}, "overall"),
        ({"season": "Winter"}, "winter"),
        ({"airline": "AirA"}, "aira"),
        ({"airline": "AirA", "season": "Winter"}, "aira-winter"),
    ]:
        rows.append(
            {
                "query_key": encode_key(preds),
                "target": "delay",
                "speech": speech,
                "utility": 1.0,
                "normalized": 0.9,
            }
        )
    rows.append(
        {
            "query_key": "",
            "target": "cancelled",
            "speech": "cancel-overall",
            "utility": 2.0,
            "normalized": 0.8,
        }
    )
    return pd.DataFrame(rows)


@pytest.fixture()
def index():
    return SpeechIndex(make_table())


class TestExactLookup:
    def test_exact_match(self, index):
        ans = index.query("delay", {"season": "Winter"})
        assert ans.speech == "winter" and ans.exact

    def test_exact_two_predicates(self, index):
        ans = index.query("delay", {"airline": "AirA", "season": "Winter"})
        assert ans.speech == "aira-winter" and ans.exact

    def test_whole_table_query(self, index):
        ans = index.query("delay", {})
        assert ans.speech == "overall" and ans.exact


class TestFallback:
    def test_most_specific_containing_subset(self, index):
        """Query {airline: AirA, season: Summer}: no exact speech; the
        most specific stored S ⊆ Q is {airline: AirA}."""
        ans = index.query("delay", {"airline": "AirA", "season": "Summer"})
        assert ans.speech == "aira" and not ans.exact
        assert ans.matched_predicates == {"airline": "AirA"}

    def test_falls_back_to_overall(self, index):
        ans = index.query("delay", {"airline": "AirZ"})
        assert ans.speech == "overall" and not ans.exact

    def test_unseen_values_three_predicates(self, index):
        ans = index.query(
            "delay", {"airline": "AirZ", "season": "Fall", "daytime": "am"}
        )
        assert ans.speech == "overall"

    def test_prefers_larger_intersection(self, index):
        ans = index.query(
            "delay", {"airline": "AirA", "season": "Winter", "daytime": "am"}
        )
        assert ans.speech == "aira-winter"


class TestEdgeCases:
    def test_unknown_target(self, index):
        assert index.query("nope", {}) is None

    def test_per_target_separation(self, index):
        assert index.query("cancelled", {}).speech == "cancel-overall"

    def test_len_and_targets(self, index):
        assert len(index) == 5
        assert index.targets == ["cancelled", "delay"]

    def test_numeric_predicate_values_coerced(self, index):
        tbl = make_table()
        tbl.loc[len(tbl)] = {
            "query_key": encode_key({"month": "2"}),
            "target": "delay",
            "speech": "feb",
            "utility": 1.0,
            "normalized": 0.5,
        }
        idx = SpeechIndex(tbl)
        assert idx.query("delay", {"month": 2}).speech == "feb"

    def test_missing_columns_rejected(self):
        with pytest.raises(ValueError):
            SpeechIndex(pd.DataFrame({"query_key": [""]}))


class TestAnswerFields:
    """Full answers on the toy table, field by field and with their types."""

    @pytest.mark.parametrize(
        "target, predicates, want",
        [
            ("delay", {"season": "Winter"}, ("winter", {"season": "Winter"}, True, 1.0, 0.9)),
            ("delay", {}, ("overall", {}, True, 1.0, 0.9)),
            ("cancelled", {}, ("cancel-overall", {}, True, 2.0, 0.8)),
            (
                "delay",
                {"airline": "AirA", "season": "Summer"},
                ("aira", {"airline": "AirA"}, False, 1.0, 0.9),
            ),
            (
                "delay",
                {"airline": "AirA", "season": "Winter", "daytime": "am"},
                ("aira-winter", {"airline": "AirA", "season": "Winter"}, False, 1.0, 0.9),
            ),
            (
                "delay",
                {"airline": "AirZ", "season": "Fall", "daytime": "am"},
                ("overall", {}, False, 1.0, 0.9),
            ),
            ("cancelled", {"season": "Winter"}, ("cancel-overall", {}, False, 2.0, 0.8)),
        ],
    )
    def test_exact_and_fallback_answers(self, index, target, predicates, want):
        ans = index.query(target, predicates)
        got = (ans.speech, ans.matched_predicates, ans.exact, ans.utility, ans.normalized)
        assert got == want
        assert type(ans.speech) is str and type(ans.exact) is bool
        assert type(ans.utility) is float and type(ans.normalized) is float


def reference_query(index, target, predicates):
    """The uncapped walk: every subset of the query from |Q| predicates
    down, keys built by ``encode_key``."""
    table = index._by_target.get(target)
    if table is None:
        return None
    items = sorted({d: str(v) for d, v in predicates.items()}.items())
    for size in range(len(items), -1, -1):
        for subset in combinations(items, size):
            hit = table.get(encode_key(dict(subset)))
            if hit is not None:
                speech, utility, normalized = hit
                return Answer(speech, dict(subset), size == len(items), utility, normalized)
    return None


@pytest.mark.parametrize("max_len", [0, 1, 2, 3])
def test_capped_walk_matches_full_walk(max_len):
    """Starting the walk at the longest stored key changes no answer, on
    random tables (some without the whole-table key) and random probes
    of 0-4 predicates, some with values that are not stored."""
    rng = np.random.default_rng(max_len)
    dims = ["a", "b", "c", "d", "e"]
    for _ in range(20):
        rows = []
        for target in ("t1", "t2"):
            for size in range(max_len + 1):
                for subset in combinations(dims, size):
                    for _ in range(int(rng.integers(0, 4))):
                        preds = {d: f"v{rng.integers(3)}" for d in subset}
                        rows.append((encode_key(preds), target))
        rows.append(("", "t1"))
        table = pd.DataFrame(rows, columns=["query_key", "target"]).drop_duplicates()
        table["speech"] = [f"s{i}" for i in range(len(table))]
        table["utility"] = rng.random(len(table))
        table["normalized"] = rng.random(len(table))
        index = SpeechIndex(table)
        for _ in range(50):
            target = ("t1", "t2", "t3")[int(rng.integers(3))]
            size = int(rng.integers(0, 5))
            cols = rng.choice(len(dims), size, replace=False)
            probe = {dims[c]: f"v{rng.integers(4)}" for c in cols}
            assert index.query(target, probe) == reference_query(index, target, probe)
