#!/usr/bin/env python3
"""End-to-end search on a synthetic planted-topic corpus.

Generates data, injects a pure-noise scorer through the external-matrix
interface, runs the reinforcement search, and prints the per-model
baselines next to the searched result. Everything lands under --out.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from weakrank.corpus import split_annotations
from weakrank.ioutil import derive_seed, write_json
from weakrank.metrics import build_eval_lists, mrr, score_lists_with_matrix
from weakrank.registry import (
    SupModelRegistry,
    SupModelSpec,
    UnsupModelRegistry,
    UnsupModelSpec,
)
from weakrank.scores import ScoreMatrix
from weakrank.synthetic import generate_synthetic
from weakrank.trainer import RunConfig, joint_train, pretrain_all
from weakrank.graph import build_graph


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/synthetic", help="output directory")
    parser.add_argument("--queries", type=int, default=100)
    parser.add_argument("--candidates", type=int, default=300)
    parser.add_argument("--topics", type=int, default=6)
    parser.add_argument("--vocab-per-topic", type=int, default=400)
    parser.add_argument("--doc-len", type=int, default=16)
    parser.add_argument("--noise-rate", type=float, default=0.3)
    parser.add_argument("--episodes", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--corpus-seed", type=int, default=2026)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    corpus, annotations = generate_synthetic(
        args.queries, args.candidates, args.topics, args.vocab_per_topic,
        args.doc_len, args.noise_rate, seed=args.corpus_seed,
    )
    corpus.save(out / "corpus.json")
    val, test = split_annotations(annotations, seed=args.corpus_seed + 1)

    unsup = [
        UnsupModelSpec("bm25", "bm25"),
        UnsupModelSpec("text-embedding", "text-embedding", {"dim": 32, "epochs": 10}),
        UnsupModelSpec("graph-proximity-1", "graph-proximity-1", {"dim": 32, "epochs": 30}),
        UnsupModelSpec("graph-proximity-2", "graph-proximity-2", {"dim": 32, "epochs": 30}),
    ]
    rng = np.random.default_rng(args.corpus_seed + 2)
    noise = ScoreMatrix("noise", corpus.query_ids, corpus.candidate_ids,
                        rng.random((len(corpus.queries), len(corpus.candidates))))
    noise_path = out / "noise_scores.csv"
    noise.save_csv(noise_path)
    unsup.append(UnsupModelSpec("noise", "external", {"path": str(noise_path)}))

    config = RunConfig(
        unsup_registry=UnsupModelRegistry(unsup),
        sup_registry=SupModelRegistry([
            SupModelSpec("representation", "representation"),
            SupModelSpec("interaction", "interaction"),
        ]),
        episodes=args.episodes,
        episode_sup_epochs=3,
        final_sup_epochs=15,
        backbone_epochs=10,
        seed=args.seed,
    )

    graph = build_graph(corpus)
    matrices = pretrain_all(corpus, graph, config.unsup_registry, out / "cache", config.seed,
                            config.workers)
    test_lists = build_eval_lists(test, corpus, seed=derive_seed(config.seed, "test-lists"),
                                  n_negatives=config.eval_negatives)
    baselines = {
        m.model_name: mrr(test_lists, score_lists_with_matrix(test_lists, m))
        for m in matrices
    }
    print("single-scorer test MRR:")
    for name, value in baselines.items():
        print(f"  {name:22s} {value:.4f}")

    result = joint_train(corpus, val, test, config, workdir=out / "search",
                         cache_dir=out / "cache")
    print(f"searched configuration: {result.best_config.to_dict()}")
    print(f"searched test metrics:  {result.test_metrics}")
    write_json(out / "baselines.json", baselines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
