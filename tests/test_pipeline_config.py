"""Tests for the Configuration model and query-key encoding."""
import pytest

from repro.pipeline.config import Config, decode_key, encode_key


class TestConfig:
    def test_defaults_match_paper(self):
        c = Config(dims=("a", "b"), targets=("t",))
        assert c.max_query_len == 2  # queries: up to two predicates
        assert c.max_extra_dims == 2  # facts: up to two extra dims
        assert c.speech_length == 3  # three facts per speech

    def test_rejects_empty_dims(self):
        with pytest.raises(ValueError):
            Config(dims=(), targets=("t",))

    def test_rejects_dim_target_overlap(self):
        with pytest.raises(ValueError):
            Config(dims=("a",), targets=("a",))

    def test_rejects_duplicate_dims(self):
        with pytest.raises(ValueError):
            Config(dims=("a", "a"), targets=("t",))

    def test_rejects_duplicate_targets(self):
        with pytest.raises(ValueError, match="duplicate target"):
            Config(dims=("a",), targets=("t", "t"))

    @pytest.mark.parametrize("length", ["max_query_len", "max_extra_dims", "speech_length"])
    def test_rejects_negative_lengths(self, length):
        with pytest.raises(ValueError, match="non-negative"):
            Config(dims=("a", "b"), targets=("t",), **{length: -1})


class TestKeyEncoding:
    def test_empty(self):
        assert encode_key({}) == ""
        assert decode_key("") == {}

    def test_roundtrip(self):
        preds = {"season": "Winter", "airline": "AirlineA"}
        assert decode_key(encode_key(preds)) == preds

    def test_canonical_order(self):
        a = encode_key({"b": "2", "a": "1"})
        b = encode_key({"a": "1", "b": "2"})
        assert a == b == "a=1|b=2"

    def test_value_with_spaces(self):
        preds = {"age_group": "young adults"}
        assert decode_key(encode_key(preds)) == preds
