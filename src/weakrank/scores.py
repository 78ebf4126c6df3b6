"""Dense per-model relevance score matrices, their on-disk forms, and
``ensemble_scores``, the one combine: of the scorers' aggregate, of the
rankers' ensemble every evaluation ranks, and of the TSV ``score`` serves."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ioutil import atomic_write, load_arrays, save_arrays


def min_max_rows(values: np.ndarray) -> np.ndarray:
    """Each row scaled to [0, 1] by its min and max; constant rows become all 0.5."""
    lo = values.min(axis=1, keepdims=True)
    span = values.max(axis=1, keepdims=True) - lo
    scaled = (values - lo) / np.where(span == 0.0, 1.0, span)
    scaled[span[:, 0] == 0.0] = 0.5
    return scaled


def ensemble_scores(matrices, normalize: bool) -> np.ndarray:
    """Entrywise mean of (queries x candidates) score matrices, each row
    first min-max scaled over all candidates (``min_max_rows``) unless
    ``normalize`` is off; a member constant on a row contributes 0.5 there.
    The members are added in place, in order, then divided by their count:
    bitwise ``np.mean`` over the stacked matrices, without the stack, and
    always a new array."""
    if not matrices:
        raise ValueError("ensemble needs at least one model")
    scale = min_max_rows if normalize else np.array  # each a new array
    total = scale(matrices[0])
    for m in matrices[1:]:
        total += min_max_rows(m) if normalize else m
    total /= len(matrices)
    return total


@dataclass
class ScoreMatrix:
    """One model's relevance score for every (query, candidate) pair."""

    model_name: str
    query_ids: tuple[str, ...]
    candidate_ids: tuple[str, ...]
    values: np.ndarray  # shape (n_queries, n_candidates)

    def __post_init__(self):
        self.query_ids = tuple(self.query_ids)
        self.candidate_ids = tuple(self.candidate_ids)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.query_ids), len(self.candidate_ids)):
            raise ValueError(
                f"score matrix shape {self.values.shape} does not match "
                f"{len(self.query_ids)} queries x {len(self.candidate_ids)} candidates"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"score matrix {self.model_name!r} contains non-finite entries")
        self._qrow = {q: i for i, q in enumerate(self.query_ids)}
        self._ccol = {c: j for j, c in enumerate(self.candidate_ids)}
        for role, ids, position in (("query", self.query_ids, self._qrow),
                                    ("candidate", self.candidate_ids, self._ccol)):
            if len(position) != len(ids):
                duplicate = next(i for n, i in enumerate(ids) if position[i] != n)
                raise ValueError(f"score matrix {self.model_name!r} has duplicate "
                                 f"{role} id {duplicate!r}")

    def in_order(self, query_ids, candidate_ids) -> "ScoreMatrix":
        """The same scores with rows and columns in the given id order,
        e.g. a corpus's, however the matrix came in. Ids the matrix lacks
        are an error; ids it has beyond those given are dropped."""
        try:
            rows = [self._qrow[q] for q in query_ids]
            cols = [self._ccol[c] for c in candidate_ids]
        except KeyError as exc:
            raise ValueError(f"score matrix {self.model_name!r} has no row or column "
                             f"for id {exc.args[0]!r}") from None
        return ScoreMatrix(self.model_name, query_ids, candidate_ids,
                           self.values[np.ix_(rows, cols)])

    def save_csv(self, path: str | Path) -> None:
        """First row = candidate ids, first column = query ids; each value
        in its shortest round-trip ``repr``."""
        with atomic_write(path) as fh:
            fh.write("," + ",".join(self.candidate_ids) + "\n")
            for qid, row in zip(self.query_ids, self.values):
                fh.write(qid + "," + ",".join(map(repr, row.tolist())) + "\n")

    @classmethod
    def load_csv(cls, path: str | Path, model_name: str | None = None) -> "ScoreMatrix":
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            candidate_ids = tuple(header[1:])
            query_ids, rows = [], []
            for line in fh:
                parts = line.rstrip("\n").split(",")
                if len(parts) != len(candidate_ids) + 1:
                    raise ValueError(f"{path}: ragged row for query {parts[0]!r}")
                query_ids.append(parts[0])
                try:
                    rows.append([float(v) for v in parts[1:]])
                except ValueError as exc:
                    raise ValueError(f"{path}: row for query {parts[0]!r}: {exc}") from None
                bad = [v for v, x in zip(parts[1:], rows[-1]) if not math.isfinite(x)]
                if bad:
                    raise ValueError(f"{path}: row for query {parts[0]!r}: "
                                     f"non-finite score {bad[0]!r}")
        name = model_name if model_name is not None else Path(path).stem
        return cls(name, tuple(query_ids), candidate_ids, np.array(rows, dtype=np.float64))

    def save_cache(self, path: str | Path) -> None:
        save_arrays(
            path,
            {"values": self.values},
            meta={
                "model_name": self.model_name,
                "query_ids": list(self.query_ids),
                "candidate_ids": list(self.candidate_ids),
            },
        )

    @classmethod
    def load_cache(cls, path: str | Path) -> "ScoreMatrix":
        arrays, meta = load_arrays(path)
        return cls(
            meta["model_name"],
            tuple(meta["query_ids"]),
            tuple(meta["candidate_ids"]),
            arrays["values"],
        )
