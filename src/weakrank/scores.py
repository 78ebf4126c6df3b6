"""Dense per-model relevance score matrices and their on-disk forms."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ioutil import load_arrays, save_arrays


def min_max_rows(values: np.ndarray) -> np.ndarray:
    """Each row scaled to [0, 1] by its min and max; constant rows become all 0.5."""
    lo = values.min(axis=1, keepdims=True)
    span = values.max(axis=1, keepdims=True) - lo
    scaled = (values - lo) / np.where(span == 0.0, 1.0, span)
    scaled[span[:, 0] == 0.0] = 0.5
    return scaled


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

    def score(self, query_id: str, candidate_id: str) -> float:
        return float(self.values[self._qrow[query_id], self._ccol[candidate_id]])

    def row(self, query_id: str) -> np.ndarray:
        return self.values[self._qrow[query_id]]

    def columns_for(self, candidate_ids) -> np.ndarray:
        return np.array([self._ccol[c] for c in candidate_ids], dtype=np.int64)

    def save_csv(self, path: str | Path) -> None:
        """First row = candidate ids, first column = query ids."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("," + ",".join(self.candidate_ids) + "\n")
            for qid, row in zip(self.query_ids, self.values):
                fh.write(qid + "," + ",".join(repr(float(v)) for v in row) + "\n")

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
                rows.append([float(v) for v in parts[1:]])
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
