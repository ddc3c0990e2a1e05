"""Problem model (Section II of the paper).

A :class:`Problem` is one *speech summarization problem instance*
``<R, F, m>``: a relation ``R`` with dimension columns and one numeric
target column, to be summarized by up to ``m`` facts. Dimension values
are integer-coded so the solver kernels are pure NumPy; labels are kept
for speech rendering.

The *prior* is the constant user expectation before listening
(Definition 4). The paper's experiments use the average value of the
target column as the prior (Section VIII-A); :meth:`Problem.from_pandas`
defaults to that.

A :class:`Batch` stacks problems over the same dimensions, each a
contiguous run of rows: the queries that fix one dimension subset
partition the input, so the pipeline solves all of them together. A
single problem is the batch of one (:meth:`Batch.of`).
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
    """One summarization problem over an integer-coded relation.

    ``dim_matrix[i, j]`` is the code of row ``i`` in dimension ``j``;
    ``dim_labels[j][c]`` maps code ``c`` back to the original value.
    """

    dim_names: list[str]
    dim_matrix: np.ndarray  # (n, d) int32
    dim_labels: list[np.ndarray]  # per-dim array of original values
    target: np.ndarray  # (n,) float64
    prior: float
    target_name: str = "target"

    def __post_init__(self) -> None:
        self.dim_matrix = np.ascontiguousarray(self.dim_matrix, dtype=np.int32)
        self.target = np.ascontiguousarray(self.target, dtype=np.float64)
        if self.dim_matrix.shape[0] != self.target.shape[0]:
            raise ValueError("dim_matrix and target row counts differ")
        if self.dim_matrix.shape[1] != len(self.dim_names):
            raise ValueError("dim_matrix width != number of dimension names")

    @property
    def n_rows(self) -> int:
        return self.target.shape[0]

    @property
    def n_dims(self) -> int:
        return len(self.dim_names)

    def prior_deviation(self) -> np.ndarray:
        """Per-row deviation ``|P(r) - v_r|`` under the empty speech."""
        return np.abs(self.target - self.prior)

    @classmethod
    def from_pandas(
        cls,
        df: pd.DataFrame,
        dims: list[str],
        target: str,
        prior: float | None = None,
    ) -> "Problem":
        """Build a problem from a pandas frame; prior defaults to the
        average target value over ``df`` (the paper's constant prior)."""
        if len(df) == 0:
            raise ValueError("cannot summarize an empty relation")
        mat = np.empty((len(df), len(dims)), dtype=np.int32)
        labels: list[np.ndarray] = []
        for j, d in enumerate(dims):
            mat[:, j], uniques = encode_column(df[d])
            labels.append(uniques)
        tgt = df[target].to_numpy(dtype=np.float64)
        return cls(
            dim_names=list(dims),
            dim_matrix=mat,
            dim_labels=labels,
            target=tgt,
            prior=float(np.mean(tgt)) if prior is None else float(prior),
            target_name=target,
        )


@dataclass
class Batch:
    """Problems over the same dimensions with their rows stacked:
    problem ``i`` holds rows ``bounds[i]:bounds[i+1]``, in input order,
    and has prior ``priors[i]``. ``priors`` defaults to each problem's
    mean target value, computed over its own rows (``np.mean`` of its
    slice), so it is bit-identical to the prior of the problem alone."""

    dim_names: list[str]
    dim_matrix: np.ndarray  # (n, d) int32
    dim_labels: list[np.ndarray]
    target: np.ndarray  # (n,) float64
    bounds: np.ndarray  # (problems+1,) int64 row offsets
    priors: np.ndarray | None = None  # (problems,) float64
    target_name: str = "target"

    def __post_init__(self) -> None:
        self.dim_matrix = np.ascontiguousarray(self.dim_matrix, dtype=np.int32)
        self.target = np.ascontiguousarray(self.target, dtype=np.float64)
        self.bounds = np.asarray(self.bounds, dtype=np.int64)
        if self.bounds[0] != 0 or self.bounds[-1] != self.target.shape[0]:
            raise ValueError("bounds must run from 0 to the number of rows")
        if (self.sizes <= 0).any():
            raise ValueError("every problem of a batch needs at least one row")
        if self.priors is None:
            self.priors = np.array([np.mean(self.target[a:b]) for a, b in self.slices()])

    @classmethod
    def of(cls, problem: Problem) -> "Batch":
        """The batch of one: ``problem``'s arrays, not copied."""
        return cls(
            dim_names=problem.dim_names,
            dim_matrix=problem.dim_matrix,
            dim_labels=problem.dim_labels,
            target=problem.target,
            bounds=np.array([0, problem.n_rows]),
            priors=np.array([problem.prior]),
            target_name=problem.target_name,
        )

    @property
    def n_rows(self) -> int:
        return self.target.shape[0]

    @property
    def n_problems(self) -> int:
        return self.bounds.shape[0] - 1

    @cached_property
    def sizes(self) -> np.ndarray:
        """Rows per problem."""
        return np.diff(self.bounds)

    def slices(self) -> list[tuple[int, int]]:
        """``(start, stop)`` of each problem's rows."""
        b = self.bounds.tolist()
        return list(zip(b[:-1], b[1:]))

    def problem(self, i: int) -> Problem:
        """Problem ``i`` alone, on views of its rows."""
        a, b = self.bounds[i], self.bounds[i + 1]
        return Problem(
            dim_names=self.dim_names,
            dim_matrix=self.dim_matrix[a:b],
            dim_labels=self.dim_labels,
            target=self.target[a:b],
            prior=float(self.priors[i]),
            target_name=self.target_name,
        )

    def prior_deviation(self) -> np.ndarray:
        """Per-row deviation from the row's own problem's prior."""
        return np.abs(self.target - np.repeat(self.priors, self.sizes))


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
