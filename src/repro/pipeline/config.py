"""The system's Configuration file (Section III).

A configuration references a table and specifies the dimension columns
on which equality predicates may be placed, the target columns, the
maximal query length (number of equality predicates, paper default 2),
the number of additional dimensions a fact may restrict beyond the
query predicates (paper default 2), and the speech length (paper
default 3 facts — user retention drops sharply after three facts [27]).
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Config:
    dims: tuple[str, ...]
    targets: tuple[str, ...]
    max_query_len: int = 2
    max_extra_dims: int = 2
    speech_length: int = 3

    def __post_init__(self) -> None:
        if min(self.max_query_len, self.max_extra_dims, self.speech_length) < 0:
            raise ValueError("lengths must be non-negative")
        if not self.dims or not self.targets:
            raise ValueError("need at least one dimension and one target")
        if len(set(self.dims)) != len(self.dims):
            raise ValueError("duplicate dimension columns")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("duplicate target columns")
        if set(self.dims) & set(self.targets):
            raise ValueError("a column cannot be both dimension and target")


# ---- query-key encoding shared by the pipeline and the lookup ----------
# A query (data subset) is encoded as "dim=value|dim=value|..." with
# dimensions sorted by name; the empty string is the whole-table query.

KEY_SEP = "|"
KV_SEP = "="


def encode_key(predicates: dict[str, str]) -> str:
    """Canonical string key for a set of equality predicates."""
    return KEY_SEP.join(f"{d}{KV_SEP}{v}" for d, v in sorted(predicates.items()))


def decode_key(key: str) -> dict[str, str]:
    """Inverse of :func:`encode_key`."""
    if not key:
        return {}
    out: dict[str, str] = {}
    for part in key.split(KEY_SEP):
        d, _, v = part.partition(KV_SEP)
        out[d] = v
    return out
