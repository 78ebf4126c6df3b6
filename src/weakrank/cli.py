"""Command-line surface tying the pipeline stages into reproducible runs.

Every command is idempotent given identical inputs and seeds. Failures exit
non-zero with one machine-parsable line on stderr:
``error: <ExceptionName>: <message>``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .corpus import (
    Corpus,
    build_corpus,
    load_annotations_tsv,
    load_documents_jsonl,
    save_annotations_tsv,
    save_documents_jsonl,
    split_annotations,
)
from .controller import Configuration
from .embeddings import EmbeddingTable
from .graph import build_graph
from .ioutil import canonical_json, read_json, stable_hash, write_json
from .metrics import all_metrics, build_eval_lists, score_lists_with_matrix
from .registry import needs_graph
from .scores import ScoreMatrix
from .sup_rankers import ENSEMBLE_BLOCK, ensemble_scores, load_checkpoint
from .synthetic import generate_synthetic
from .trainer import (
    ablation_run,
    backbone_from_table,
    joint_train,
    pretrain,
    run_cache_dir,
    sweep_k,
)

MANIFEST_FORMAT_VERSION = 1


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override one configuration key (repeatable)",
    )


def _load_splits(config: ExperimentConfig, corpus: Corpus):
    """Validation/test annotation sets, either pre-split or split by seed."""
    if config.val_annotations:
        val = load_annotations_tsv(config.val_annotations, split="validation")
        test = None
        if config.test_annotations and Path(config.test_annotations).exists():
            loaded = load_annotations_tsv(config.test_annotations, split="test")
            test = loaded if loaded.pairs else None
    elif config.annotations:
        full = load_annotations_tsv(config.annotations)
        val, test = split_annotations(full, seed=config.split_seed)
    else:
        raise ValueError("need annotations or val_annotations in the configuration")
    val.validate_against(corpus)
    if test is not None:
        test.validate_against(corpus)
    return val, test


def _start_run(args):
    """A search's or an ablation's validated inputs and its run directory,
    holding ``config.cfg`` and ``manifest.json``: (run config, corpus,
    validation split, test split, run directory). Nothing is written until
    the configuration, corpus and splits have loaded."""
    config = ExperimentConfig.from_file(args.config, args.overrides)
    if not config.output_dir:
        raise ValueError(f"output_dir must be set for {args.command} runs")
    run_config = config.to_run_config()
    corpus = Corpus.load(config.corpus)
    val, test = _load_splits(config, corpus)
    workdir = Path(config.output_dir)
    workdir.mkdir(parents=True, exist_ok=True)
    config.save(workdir / "config.cfg")
    write_json(workdir / "manifest.json", {
        "format_version": MANIFEST_FORMAT_VERSION,
        "weakrank_version": __version__,
        "numpy_version": np.__version__,
        "corpus_hash": corpus.content_hash(),
        "config_hash": config.content_hash(),
    })
    return run_config, corpus, val, test, workdir


def cmd_gen_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus, annotations = generate_synthetic(
        n_queries=args.queries, n_candidates=args.candidates, n_topics=args.topics,
        vocab_per_topic=args.vocab_per_topic, doc_len=args.doc_len,
        noise_rate=args.noise_rate, seed=args.seed,
    )
    docs = [
        {"id": d.id, "role": d.role, "text": d.text}
        for d in corpus.queries + corpus.candidates
    ]
    save_documents_jsonl(out / "docs.jsonl", docs)
    save_annotations_tsv(out / "annotations.tsv", annotations)
    corpus.save(out / "corpus.json")
    print(f"wrote {out / 'docs.jsonl'}, {out / 'annotations.tsv'}, {out / 'corpus.json'}")
    return 0


def cmd_ingest(args) -> int:
    config = ExperimentConfig.from_file(args.config, args.overrides)
    docs_path = args.docs or config.documents
    if not docs_path:
        raise ValueError("no documents file given (--docs or documents=...)")
    corpus = build_corpus(
        load_documents_jsonl(docs_path),
        max_query_len=config.max_query_len,
        max_candidate_len=config.max_candidate_len,
    )
    if args.annotations:
        load_annotations_tsv(args.annotations).validate_against(corpus)
    corpus.save(args.out)
    print(f"wrote {args.out} ({len(corpus.queries)} queries, "
          f"{len(corpus.candidates)} candidates, vocab {len(corpus.vocab)})")
    return 0


def cmd_pretrain(args) -> int:
    """Fill the cache a search with this configuration reads: every scorer's
    score matrix and the backbone, keyed by the effective pretrain seed."""
    config = ExperimentConfig.from_file(args.config, args.overrides)
    if args.out:
        out = Path(args.out)
    elif config.output_dir:
        out = run_cache_dir(config.output_dir)
    else:
        raise ValueError("pretrain needs --out or output_dir (it fills <output_dir>/cache)")
    run_config = config.to_run_config()
    pretrain(Corpus.load(config.corpus), run_config, out)
    print(f"pretrained {len(run_config.unsup_registry)} models and the backbone into {out}")
    return 0


def cmd_search(args) -> int:
    run_config, corpus, val, test, workdir = _start_run(args)
    result = joint_train(corpus, val, test, run_config, workdir=workdir)
    print(f"best reward {result.best_reward:.4f} at episode {result.best_episode}; "
          f"report in {workdir / 'report.json'}")
    return 0


def cmd_ablate(args) -> int:
    sweep = args.mode == "fix-k" and args.sweep
    if not sweep and args.fixed is None:
        raise ValueError("--fixed is required unless sweeping")
    run_config, corpus, val, test, workdir = _start_run(args)
    if sweep:
        results = sweep_k(corpus, val, test, run_config, workdir=workdir)
        for k, result in sorted(results.items()):
            print(f"k={k}: best reward {result.best_reward:.4f}")
        return 0
    fixed = args.fixed
    if args.mode == "fix-k":
        fixed = int(fixed)
    elif "," in fixed:
        fixed = [tok.strip() for tok in fixed.split(",")]
    result = ablation_run(corpus, val, test, args.mode, fixed, run_config, workdir=workdir)
    print(f"best reward {result.best_reward:.4f}; report in {workdir / 'report.json'}")
    return 0


def cmd_eval(args) -> int:
    config = ExperimentConfig.from_file(args.config, args.overrides)
    corpus = Corpus.load(args.corpus or config.corpus)
    annotations = load_annotations_tsv(args.annotations)
    matrix = ScoreMatrix.load_csv(args.scores)
    lists = build_eval_lists(annotations, corpus, seed=args.seed,
                             n_negatives=config.eval_negatives)
    metrics = all_metrics(lists, score_lists_with_matrix(lists, matrix))
    payload = canonical_json(metrics)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    print(payload)
    return 0


def cmd_score(args) -> int:
    """Serve the rankers the search selected, refusing checkpoints written
    under another configuration."""
    run_dir = Path(args.run)
    config = ExperimentConfig.from_file(run_dir / "config.cfg", args.overrides)
    run_config = config.to_run_config()
    corpus = Corpus.load(args.corpus or config.corpus)
    best = Configuration.from_dict(read_json(run_dir / "best_config.json"))
    registry = run_config.sup_registry
    if len(best.sup_mask) != len(registry):
        raise ValueError(f"best_config.json selects from {len(best.sup_mask)} rankers, "
                         f"the configuration has {len(registry)}")
    specs = [spec for spec, keep in zip(registry, best.sup_mask) if keep]
    table = EmbeddingTable.load(run_dir / "checkpoints" / "backbone.bin")
    backbone = backbone_from_table(
        corpus, table, build_graph(corpus) if needs_graph(specs) else None, run_config)
    config_hash = stable_hash(run_config.signature())
    models = [load_checkpoint(run_dir / "checkpoints" / f"{spec.name}.ckpt", backbone,
                              config_hash=config_hash) for spec in specs]
    matrices = [m.score_matrix() for m in models]
    query_ids, candidate_ids = corpus.query_ids, corpus.candidate_ids
    cols = np.arange(len(candidate_ids))[None, :]
    out = Path(args.out)
    with open(out, "w", encoding="utf-8") as fh:
        for start in range(0, len(query_ids), ENSEMBLE_BLOCK):
            qids = query_ids[start:start + ENSEMBLE_BLOCK]
            block = ensemble_scores(matrices, np.arange(start, start + len(qids)), cols)
            for qid, scores in zip(qids, block):
                for cid, score in zip(candidate_ids, scores):
                    fh.write(f"{qid}\t{cid}\t{float(score)!r}\n")
    print(f"wrote {out} ({len(query_ids) * len(candidate_ids)} pairs "
          f"from {len(models)} models)")
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    episodes_path = run_dir / "episodes.jsonl"
    entries = []
    with open(episodes_path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                entries.append(json.loads(line))
    if not entries:
        raise ValueError(f"{episodes_path} holds no episodes")

    curve_path = run_dir / "reward_curve.csv"
    with open(curve_path, "w", encoding="utf-8") as fh:
        fh.write("episode,R,Ru,Rs,baseline,best_so_far\n")
        best = -np.inf
        for e in entries:
            best = max(best, e["R"])
            fh.write(f"{e['episode']},{e['R']!r},{e['Ru']!r},{e['Rs']!r},"
                     f"{e['baseline']!r},{best!r}\n")

    names_unsup = names_sup = None
    config_path = run_dir / "config.cfg"
    if config_path.exists():
        config = ExperimentConfig.from_file(config_path)
        try:
            names_unsup = config.build_unsup_registry().names
            names_sup = config.build_sup_registry().names
        except ValueError:
            pass
    n1 = len(entries[0]["I1"])
    n3 = len(entries[0]["I3"])
    if names_unsup is None or len(names_unsup) != n1:
        names_unsup = [f"unsup_{i}" for i in range(n1)]
    if names_sup is None or len(names_sup) != n3:
        names_sup = [f"sup_{i}" for i in range(n3)]

    freq_path = run_dir / "selection_frequencies.csv"
    with open(freq_path, "w", encoding="utf-8") as fh:
        fh.write("component,choice,frequency\n")
        n = len(entries)
        for i, name in enumerate(names_unsup):
            freq = sum(e["I1"][i] for e in entries) / n
            fh.write(f"unsupervised,{name},{freq!r}\n")
        k_seen = sorted({e["k"] for e in entries})
        for k in k_seen:
            freq = sum(1 for e in entries if e["k"] == k) / n
            fh.write(f"k,{k},{freq!r}\n")
        for i, name in enumerate(names_sup):
            freq = sum(e["I3"][i] for e in entries) / n
            fh.write(f"supervised,{name},{freq!r}\n")
    print(f"wrote {curve_path} and {freq_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakrank",
        description="Automated weak supervision for ranking: pretrain scorers, "
                    "search their combination, evaluate the result.",
    )
    parser.add_argument("--version", action="version", version=f"weakrank {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    parser.add_argument("-q", "--quiet", action="store_true", help="warnings only")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a planted-topic synthetic corpus")
    p.add_argument("--queries", type=int, required=True)
    p.add_argument("--candidates", type=int, required=True)
    p.add_argument("--topics", type=int, required=True)
    p.add_argument("--vocab-per-topic", type=int, default=40)
    p.add_argument("--doc-len", type=int, default=60)
    p.add_argument("--noise-rate", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("ingest", help="tokenize and index raw documents")
    _add_config_args(p)
    p.add_argument("--docs", help="documents JSONL")
    p.add_argument("--annotations", help="optional annotation TSV to validate")
    p.add_argument("--out", required=True, help="corpus container path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("pretrain", help="pretrain all unsupervised scorers into a cache")
    _add_config_args(p)
    p.add_argument("--out", help="cache directory (defaults to <output_dir>/cache, "
                                 "the cache search reads)")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("search", help="run the full reinforcement search")
    _add_config_args(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("ablate", help="search with one controller step fixed")
    _add_config_args(p)
    p.add_argument("--mode", required=True, choices=["fix-unsup", "fix-k", "fix-sup"])
    p.add_argument("--fixed", help="model name(s) or k value to clamp")
    p.add_argument("--sweep", action="store_true",
                   help="fix-k only: one run per k in k_values")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("eval", help="score an eval protocol from a score matrix CSV")
    _add_config_args(p)
    p.add_argument("--corpus", help="corpus container (defaults to config)")
    p.add_argument("--annotations", required=True)
    p.add_argument("--scores", required=True, help="score matrix CSV")
    p.add_argument("--seed", type=int, default=0, help="negative-sampling seed")
    p.add_argument("--out", help="also write the metrics JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("score", help="emit TSV scores from a run's checkpoints")
    p.add_argument("--run", required=True, help="search run directory")
    p.add_argument("--corpus", help="corpus container (defaults to the run's)")
    p.add_argument("--out", required=True, help="output TSV path")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("report", help="render episode logs into CSV time series")
    p.add_argument("--run", required=True, help="search run directory")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = os.environ.get("WEAKRANK_LOG", "INFO")
    if args.verbose:
        level = "DEBUG"
    elif args.quiet:
        level = "WARNING"
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports everything
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
