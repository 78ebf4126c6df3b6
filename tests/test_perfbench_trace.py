"""One traced command through ``perfbench/child.py --trace``, in a subprocess.

``test_trace_targets`` only resolves the traced names, so a count hook that
no longer fits its function's arguments or result fails only inside a
traced benchmark run. This runs the hooks: a search on a tiny corpus whose
cache holds one of its scorers, traced in one process (``workers=1``; a
helper process's counts never reach the trace). Every metric of
``perfbench/run.py``'s ``COUNTS`` gets a value, and
``sageops.neighbor_matrix_bytes`` is the neighbor sample's bytes per build.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from weakrank.cli import main
from weakrank.corpus import Corpus
from weakrank.graph import build_graph
from weakrank.sageops import build_neighbor_matrix

ROOT = Path(__file__).resolve().parents[1]
CONFIG = (
    "corpus=data/corpus.json\nannotations=data/annotations.tsv\noutput_dir=run\nworkers=1\n"
    "sup_models=representation,interaction,graph-aggregation\nk_values=5\nepisodes=1\n"
    "eval_negatives=5\n"
    "episode_sup_epochs=1\nfinal_sup_epochs=1\nbackbone_epochs=1\nbackbone_dim=8\n"
    "hp.graph-walk.dim=8\nhp.graph-walk.n_walks=1\nhp.graph-walk.walk_len=5\n"
    "hp.graph-walk.epochs=1\n"
    "hp.graph-aggregation.hidden=8\nhp.graph-aggregation.out_dim=8\n"
    "hp.graph-aggregation.n_walks=1\nhp.graph-aggregation.walk_len=5\n"
    "hp.graph-aggregation.epochs=1\nhp.graph-aggregation.feature_epochs=1\n"
    "hp.graph-aggregation.feature_dim=8\n"
)


def _counts_table(monkeypatch) -> dict:
    """``perfbench/run.py``'s ``COUNTS``. The module imports its siblings by
    name, and its dataclasses look their module up in ``sys.modules``."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.COUNTS


def test_a_traced_search_fills_every_count(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["-q", "gen-synth", "--queries", "10", "--candidates", "30", "--topics", "2",
                 "--vocab-per-topic", "10", "--doc-len", "12", "--seed", "5",
                 "--out", "data"]) == 0
    # a first search caches bm25, so the traced one both hits and misses
    Path("prep.cfg").write_text(CONFIG + "unsup_models=bm25\n")
    assert main(["-q", "search", "--config", "prep.cfg"]) == 0
    for path in Path("run").iterdir():
        if path.name != "cache":
            shutil.rmtree(path) if path.is_dir() else path.unlink()
    Path("exp.cfg").write_text(
        CONFIG + "unsup_models=bm25,text-embedding,graph-walk,graph-aggregation\n")

    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--trace", "trace.json", "--",
         "-q", "search", "--config", "exp.cfg"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(Path("trace.json").read_text())
    counts = trace["counts"]
    table = _counts_table(monkeypatch)
    assert {name: counts.get(name, 0) > 0 for name in table} == dict.fromkeys(table, True)

    # every build samples the corpus graph at the default sample size
    builds = trace["stats"]["sageops.build_neighbor_matrix"]["calls"]
    graph = build_graph(Corpus.load("data/corpus.json"))
    sample = build_neighbor_matrix(graph, 10, np.random.default_rng(0))
    assert counts["sageops.neighbor_matrix_bytes"] == \
        builds * (sample.index.nbytes + sample.weight.nbytes)
    assert counts["graph.nodes"] == graph.n_nodes
