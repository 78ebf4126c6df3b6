"""Document ingestion, tokenization, vocabulary indexing, and annotation splits.

A corpus holds two document roles: queries and candidates. Everything is
immutable after construction so downstream stages can share a corpus freely.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ioutil import atomic_write, canonical_json, read_json, stable_hash, write_json

QUERY = "query"
CANDIDATE = "candidate"
ROLES = (QUERY, CANDIDATE)

CORPUS_FORMAT_VERSION = 1

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop tokens shorter than 2."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if len(t) >= 2]


@dataclass(frozen=True)
class Document:
    """One query or candidate document with its retained token ids."""

    id: str
    role: str
    text: str
    token_ids: tuple[int, ...]

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown document role {self.role!r}")
        if not self.token_ids:
            raise ValueError(f"document {self.id!r} has no tokens after tokenization")


class Corpus:
    """Tokenized queries and candidates with a shared vocabulary.

    It owns the id <-> position map: query row i is ``query_ids[i]``,
    candidate column j is ``candidate_ids[j]``, and ``query_row`` /
    ``candidate_column`` map back. Inside a search every label, triple and
    eval list holds these positions, not ids.
    """

    def __init__(self, queries: list[Document], candidates: list[Document], vocab: list[str]):
        if not queries or not candidates:
            raise ValueError("corpus needs at least one query and one candidate")
        self.queries = tuple(queries)
        self.candidates = tuple(candidates)
        self.vocab = tuple(vocab)
        self._content_hash = None
        self.id_of_token = {t: i for i, t in enumerate(vocab)}
        if len(self.id_of_token) != len(vocab):
            raise ValueError("vocabulary contains duplicate tokens")

        self.query_ids = tuple(d.id for d in self.queries)
        self.candidate_ids = tuple(d.id for d in self.candidates)
        self.query_row = {qid: i for i, qid in enumerate(self.query_ids)}
        self.candidate_column = {cid: j for j, cid in enumerate(self.candidate_ids)}
        for role, ids, position in ((QUERY, self.query_ids, self.query_row),
                                    (CANDIDATE, self.candidate_ids, self.candidate_column)):
            if len(position) != len(ids):
                duplicate = next(i for n, i in enumerate(ids) if position[i] != n)
                raise ValueError(f"duplicate {role} id {duplicate!r}")
        for doc in self.queries + self.candidates:
            for tid in doc.token_ids:
                if not 0 <= tid < len(vocab):
                    raise ValueError(f"document {doc.id!r} has token id {tid} outside vocabulary")

    def document(self, role: str, doc_id: str) -> Document:
        docs, position = ((self.queries, self.query_row) if role == QUERY
                          else (self.candidates, self.candidate_column))
        try:
            return docs[position[doc_id]]
        except KeyError:
            raise KeyError(f"no {role} with id {doc_id!r}") from None

    def tokens(self, doc: Document) -> list[str]:
        return [self.vocab[tid] for tid in doc.token_ids]

    def to_dict(self) -> dict:
        return {
            "format_version": CORPUS_FORMAT_VERSION,
            "vocab": list(self.vocab),
            "queries": [
                {"id": d.id, "text": d.text, "tokens": list(d.token_ids)} for d in self.queries
            ],
            "candidates": [
                {"id": d.id, "text": d.text, "tokens": list(d.token_ids)} for d in self.candidates
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Corpus":
        if data.get("format_version") != CORPUS_FORMAT_VERSION:
            raise ValueError(f"unsupported corpus format_version {data.get('format_version')!r}")
        vocab = list(data["vocab"])
        queries = [
            Document(d["id"], QUERY, d["text"], tuple(d["tokens"])) for d in data["queries"]
        ]
        candidates = [
            Document(d["id"], CANDIDATE, d["text"], tuple(d["tokens"])) for d in data["candidates"]
        ]
        return cls(queries, candidates, vocab)

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "Corpus":
        return cls.from_dict(read_json(path))

    def content_hash(self) -> str:
        """Computed on the first call: a corpus does not change."""
        if self._content_hash is None:
            self._content_hash = stable_hash(self.to_dict())
        return self._content_hash


def build_corpus(raw_docs, max_query_len: int, max_candidate_len: int) -> Corpus:
    """Tokenize raw documents, truncate to the role maxima, and index them.

    ``raw_docs`` is an iterable of dicts with keys id, role, text. Documents
    that are empty after tokenization and truncation are rejected, as are
    duplicate (role, id) pairs. The vocabulary covers retained tokens only,
    in first-appearance order.
    """
    limits = {QUERY: max_query_len, CANDIDATE: max_candidate_len}
    vocab: list[str] = []
    token_id: dict[str, int] = {}
    docs = {QUERY: [], CANDIDATE: []}
    seen = set()
    for raw in raw_docs:
        doc_id, role, text = str(raw["id"]), str(raw["role"]), str(raw["text"])
        if role not in ROLES:
            raise ValueError(f"document {doc_id!r} has unknown role {role!r}")
        if (role, doc_id) in seen:
            raise ValueError(f"duplicate {role} id {doc_id!r}")
        seen.add((role, doc_id))
        tokens = tokenize(text)[: limits[role]]
        if not tokens:
            raise ValueError(f"document {doc_id!r} is empty after tokenization/truncation")
        ids = []
        for tok in tokens:
            if tok not in token_id:
                token_id[tok] = len(vocab)
                vocab.append(tok)
            ids.append(token_id[tok])
        docs[role].append(Document(doc_id, role, text, tuple(ids)))
    return Corpus(docs[QUERY], docs[CANDIDATE], vocab)


@dataclass(frozen=True)
class AnnotationSet:
    """Human labels for (query, candidate) pairs, tagged with their split."""

    pairs: tuple[tuple[str, str, int], ...]
    split: str  # "validation" | "test" | "all"

    def __post_init__(self):
        seen = set()
        for qid, cid, label in self.pairs:
            if label not in (0, 1):
                raise ValueError(f"label must be 0 or 1, got {label!r}")
            if (qid, cid) in seen:
                raise ValueError(f"duplicate annotation for pair ({qid!r}, {cid!r})")
            seen.add((qid, cid))

    @property
    def query_ids(self) -> list[str]:
        out, seen = [], set()
        for qid, _, _ in self.pairs:
            if qid not in seen:
                seen.add(qid)
                out.append(qid)
        return out

    def validate_against(self, corpus: Corpus) -> None:
        for qid, cid, _ in self.pairs:
            corpus.document(QUERY, qid)
            corpus.document(CANDIDATE, cid)


def split_annotations(annotations: AnnotationSet, seed: int) -> tuple[AnnotationSet, AnnotationSet]:
    """Partition annotated queries 50/50 into validation and test sets.

    The split is by query, so all pairs of a query land in one side; with an
    odd count the larger half goes to validation. Fails if any annotated
    query has no positive candidate.
    """
    qids = annotations.query_ids
    if len(qids) < 2:
        raise ValueError("need at least 2 annotated queries to split")
    positives = {q: 0 for q in qids}
    for qid, _, label in annotations.pairs:
        positives[qid] += label
    missing = [q for q, n in positives.items() if n == 0]
    if missing:
        raise ValueError(f"annotated queries without a positive candidate: {missing[:5]}")

    order = sorted(qids)
    rng = np.random.default_rng(seed)
    rng.shuffle(order)
    n_val = (len(order) + 1) // 2
    val_q, test_q = set(order[:n_val]), set(order[n_val:])
    val_pairs = tuple(p for p in annotations.pairs if p[0] in val_q)
    test_pairs = tuple(p for p in annotations.pairs if p[0] in test_q)
    return AnnotationSet(val_pairs, "validation"), AnnotationSet(test_pairs, "test")


def load_documents_jsonl(path: str | Path) -> list[dict]:
    """Read raw documents from JSON-lines: one {id, role, text} per line."""
    docs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object with "
                                 "id, role and text")
            for key in ("id", "role", "text"):
                if key not in obj:
                    raise ValueError(f"{path}:{lineno}: missing field {key!r}")
            docs.append(obj)
    return docs


def save_documents_jsonl(path: str | Path, docs) -> None:
    with atomic_write(path) as fh:
        for doc in docs:
            fh.write(canonical_json({"id": doc["id"], "role": doc["role"], "text": doc["text"]}))
            fh.write("\n")


def load_annotations_tsv(path: str | Path, split: str = "all") -> AnnotationSet:
    """Read tab-separated "query_id<TAB>candidate_id<TAB>label" lines."""
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
            try:
                label = int(parts[2])
            except ValueError:
                label = None
            if label not in (0, 1):
                raise ValueError(f"{path}:{lineno}: label of ({parts[0]!r}, {parts[1]!r}) "
                                 f"must be 0 or 1, not {parts[2]!r}")
            pairs.append((parts[0], parts[1], label))
    return AnnotationSet(tuple(pairs), split)


def save_annotations_tsv(path: str | Path, annotations: AnnotationSet) -> None:
    with atomic_write(path) as fh:
        for qid, cid, label in annotations.pairs:
            fh.write(f"{qid}\t{cid}\t{label}\n")
