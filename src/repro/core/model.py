"""Problem model (Section II of the paper).

A :class:`Problem` is a *speech summarization problem instance*
``<R, F, m>``: a relation ``R`` with dimension columns and one numeric
target column, to be summarized by up to ``m`` facts. Dimension values
are integer-coded so the solver kernels are pure NumPy; labels are kept
for speech rendering.

The *prior* is the constant user expectation before listening
(Definition 4). The paper's experiments use the average value of the
target column as the prior (Section VIII-A); :meth:`Problem.from_pandas`
defaults to that.

A :class:`Problem` may also be a batch: several problems over the same
dimensions, each a contiguous run of rows (``bounds``). The queries
that fix one dimension subset partition the input, so the pipeline
solves all of them together. A single problem is the batch of one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def encode_column(
    values: pd.Series | pa.Array | pa.ChunkedArray,
) -> tuple[np.ndarray, np.ndarray]:
    """Dictionary-encode one dimension column: int32 codes in the sorted
    order of the string labels, and those labels. The code order is the
    fact order, so it also decides which of two equal-gain facts a
    solver picks.

    An Arrow string column is encoded as it is; any other column is
    keyed by its values as strings (pandas ``astype(str)``). Arrow
    dictionary-encodes in first-seen order, and the codes are then
    renumbered by the labels' sort order: UTF-8 byte order, which is
    code point order, the order of Python's ``sorted``."""
    if isinstance(values, (pa.Array, pa.ChunkedArray)) and not pa.types.is_string(values.type):
        values = values.to_pandas()
    if isinstance(values, pd.Series):
        values = pa.array(values.astype(str), type=pa.string())
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    encoded = values.dictionary_encode()
    order = pc.array_sort_indices(encoded.dictionary).to_numpy()
    rank = np.empty(order.shape[0], dtype=np.int32)
    rank[order] = np.arange(order.shape[0], dtype=np.int32)
    codes = rank[encoded.indices.to_numpy()]
    return codes, encoded.dictionary.take(order).to_numpy(zero_copy_only=False)


@dataclass(frozen=True)
class Fact:
    """A fact ``<D, v>`` (Definition 2): a scope mapping dimension names
    to values plus the average target value within that scope."""

    scope: tuple[tuple[str, str], ...]  # sorted (dim, value) pairs
    value: float

    @property
    def scope_dict(self) -> dict[str, str]:
        return dict(self.scope)

    def __str__(self) -> str:  # compact debugging form
        preds = ", ".join(f"{d}={v}" for d, v in self.scope) or "overall"
        return f"[{preds}: {self.value:.4g}]"


@dataclass
class Problem:
    """A batch of summarization problems over the same integer-coded
    dimensions, their rows stacked: problem ``i`` holds rows
    ``bounds[i]:bounds[i+1]``, in input order. ``bounds`` defaults to
    ``[0, n]``, one problem over every row.

    ``dim_matrix[r, j]`` is the code of row ``r`` in dimension ``j``;
    ``dim_labels[j][c]`` maps code ``c`` back to the original value.
    ``prior`` holds one prior per problem, a float for a problem of one;
    it defaults to each problem's mean target value, computed over its
    own rows (``np.mean`` of its slice), so a problem's prior is the
    same alone and among others, bit for bit.

    Raises ``ValueError`` on mismatched shapes, a problem without rows,
    or a NaN or infinite target value or prior: such a problem has no
    well-defined utility.
    """

    dim_names: list[str]
    dim_matrix: np.ndarray  # (n, d) int32
    dim_labels: list[np.ndarray]  # per-dim array of original values
    target: np.ndarray  # (n,) float64
    prior: float | np.ndarray | None = None  # per problem; None = each one's mean
    target_name: str = "target"
    bounds: np.ndarray | None = None  # (problems+1,) int64 row offsets

    def __post_init__(self) -> None:
        self.dim_matrix = np.ascontiguousarray(self.dim_matrix, dtype=np.int32)
        self.target = np.ascontiguousarray(self.target, dtype=np.float64)
        n = self.target.shape[0]
        if self.dim_matrix.shape[0] != n:
            raise ValueError("dim_matrix and target row counts differ")
        if self.dim_matrix.shape[1] != len(self.dim_names):
            raise ValueError("dim_matrix width != number of dimension names")
        self.bounds = np.asarray([0, n] if self.bounds is None else self.bounds, dtype=np.int64)
        if self.bounds[0] != 0 or self.bounds[-1] != n:
            raise ValueError("bounds must run from 0 to the number of rows")
        if self.n_problems < 1 or (self.sizes <= 0).any():
            raise ValueError("cannot summarize an empty relation")
        if not np.isfinite(self.target).all():
            raise ValueError("a target value is NaN or infinite")
        if self.prior is None:
            b = self.bounds.tolist()
            priors = np.array([np.mean(self.target[i:j]) for i, j in zip(b[:-1], b[1:])])
        else:
            priors = np.asarray(self.prior, dtype=np.float64).reshape(-1)
        if priors.shape[0] != self.n_problems:
            raise ValueError("need one prior per problem")
        if not np.isfinite(priors).all():
            raise ValueError("a prior is NaN or infinite")
        self.prior = float(priors[0]) if self.n_problems == 1 else priors

    @property
    def n_rows(self) -> int:
        return self.target.shape[0]

    @property
    def n_dims(self) -> int:
        return len(self.dim_names)

    @property
    def n_problems(self) -> int:
        return self.bounds.shape[0] - 1

    @cached_property
    def sizes(self) -> np.ndarray:
        """Rows per problem."""
        return np.diff(self.bounds)

    @property
    def priors(self) -> np.ndarray:
        """``(problems,)``: each problem's prior."""
        return np.atleast_1d(self.prior)

    def prior_deviation(self) -> np.ndarray:
        """Per-row deviation ``|P(r) - v_r|`` under the empty speech, ``P``
        the prior of the row's own problem."""
        prior = self.prior if self.n_problems == 1 else np.repeat(self.prior, self.sizes)
        return np.abs(self.target - prior)

    @classmethod
    def from_pandas(
        cls,
        df: pd.DataFrame,
        dims: list[str],
        target: str,
        prior: float | None = None,
    ) -> "Problem":
        """Build one problem from a pandas frame; prior defaults to the
        average target value over ``df`` (the paper's constant prior)."""
        mat = np.empty((len(df), len(dims)), dtype=np.int32)
        labels: list[np.ndarray] = []
        for j, d in enumerate(dims):
            mat[:, j], uniques = encode_column(df[d])
            labels.append(uniques)
        return cls(
            dim_names=list(dims),
            dim_matrix=mat,
            dim_labels=labels,
            target=df[target].to_numpy(dtype=np.float64),
            prior=prior,
            target_name=target,
        )


@dataclass
class SpeechResult:
    """Result of one solver run: the selected facts plus bookkeeping.

    ``utility`` is absolute utility ``U(F*)`` (Definition 6);
    ``normalized`` divides by ``D(∅)`` so 1.0 means a perfect
    approximation (the paper scales utility to one per instance).
    ``rows_processed`` counts rows scanned by utility/bound
    aggregations — a machine-independent cost proxy for the paper's
    Postgres query costs.
    """

    facts: list[Fact]
    utility: float
    normalized: float
    rows_processed: int = 0
    facts_evaluated: int = 0
    extra: dict = field(default_factory=dict)
