"""Runs one ``weakrank`` CLI command as a benchmark child process.

    python3 perfbench/child.py --mark FILE [--trace FILE] -- <weakrank arguments>

The checkout's ``src`` directory goes first on the import path, so the code
under test is the code in this checkout. ``--mark`` records the start and
end of the command, one timestamp at a search's set-up boundary, its first
episode, and the host-speed probes (see ``HostProbe``). ``--trace`` wraps
the public functions each module calls, at the place its caller looks the
name up, and writes per-name call counts, busy and self time, counts taken
from arguments and results, and the coarse spans. Both files are written
when the command ends, outside any run directory. A traced name that no
longer exists exits with ``EXIT_MISSING``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import signal
import sys
import time
from pathlib import Path

EXIT_MISSING = 97
PROBE_INTERVAL_S = 0.2
PROBE_ITERATIONS = 150
# A probe's time at the reference host speed: the fast mode of its times on
# the 2-core Xeon host of the seed-commit record, 2.33-2.42 ms (a contended
# host reads 3.8-5.5 ms).
PROBE_REF_S = 0.0024


def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def _skipgram_centres(counts, args, kwargs, result):
    sequences, epochs = args[1], args[2]  # (self, sequences, epochs)
    _add(counts, "embeddings.skipgram.centres",
         epochs * sum(len(s) for s in sequences if len(s) > 1))


def _walk_steps(counts, args, kwargs, result):
    _add(counts, "graph_embeddings.walk_steps", sum(len(w) - 1 for w in result))


def _triples(counts, args, kwargs, result):
    _add(counts, "pseudo_labels.triples", len(result))


def _eval_lists(counts, args, kwargs, result):
    _add(counts, "metrics.eval_lists", len(result))


def _ensemble_lists(counts, args, kwargs, result):
    _add(counts, "sup_rankers.score_lists_with_ensemble.lists", len(args[0]))


def _neighbor_bytes(counts, args, kwargs, result):
    _add(counts, "sageops.neighbor_matrix_bytes", result.nbytes)


def _graph_size(counts, args, kwargs, result):
    counts["graph.nodes"] = result.n_nodes
    counts["graph.edges"] = int(result.degrees.sum()) // 2


def _cache_miss(counts, args, kwargs, result):
    _add(counts, "scores.pretrain_cache_misses", 1)


def _cache_hit(counts, args, kwargs, result):
    _add(counts, "scores.pretrain_cache_hits", 1)


class _PhiCounter:
    """phi_features returns its cached array on a repeat call, so a new
    array object is a computed one."""

    def __init__(self):
        self.seen = []

    def __call__(self, counts, args, kwargs, result):
        if not any(result is s for s in self.seen):
            self.seen.append(result)
            _add(counts, "sup_rankers.phi_features.computed", 1)
            _add(counts, "sup_rankers.phi_bytes", result.nbytes)


def _scorer_label(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return f"registry.compute_score_matrix.{spec.name}"


# (label, lookup sites, options). A site is "module:attribute" or
# "module:Class.method", relative to the weakrank package. Labels start with
# the module that defines the function; self time is summed per module.
TARGETS = (
    ("corpus.Corpus.load", ["corpus:Corpus.load"], {}),
    ("graph.build_graph", ["trainer:build_graph", "cli:build_graph"], {"count": _graph_size}),
    ("trainer.joint_train", ["cli:joint_train", "trainer:joint_train"], {"span": True}),
    ("trainer.pretrain_all", ["trainer:pretrain_all"], {"span": True}),
    ("trainer.build_backbone", ["trainer:build_backbone"], {"span": True}),
    ("trainer.run_episode", ["trainer:run_episode"], {"span": True}),
    ("registry.compute_score_matrix", ["trainer:compute_score_matrix"],
     {"span": True, "namer": _scorer_label, "count": _cache_miss}),
    ("scores.ScoreMatrix.load_cache", ["scores:ScoreMatrix.load_cache"], {"count": _cache_hit}),
    ("scores.save", ["scores:ScoreMatrix.save_cache", "scores:ScoreMatrix.save_csv"], {}),
    ("embeddings.train_text_embeddings",
     ["trainer:train_text_embeddings", "registry:train_text_embeddings"], {"span": True}),
    ("embeddings.SkipGramTrainer.train", ["embeddings:SkipGramTrainer.train"],
     {"count": _skipgram_centres}),
    ("graph_embeddings.generate_walks", ["graph_embeddings:generate_walks"],
     {"count": _walk_steps}),
    ("graph_embeddings.EdgeProximityTrainer.train",
     ["graph_embeddings:EdgeProximityTrainer.train"], {}),
    ("graph_embeddings.AggregationTrainer.train",
     ["graph_embeddings:AggregationTrainer.train"], {}),
    ("sageops.build_neighbor_matrix",
     ["sup_rankers:build_neighbor_matrix", "graph_embeddings:build_neighbor_matrix"],
     {"count": _neighbor_bytes}),
    ("sageops.sage_forward", ["sup_rankers:sage_forward", "graph_embeddings:sage_forward"], {}),
    ("sageops.sage_backward", ["sup_rankers:sage_backward", "graph_embeddings:sage_backward"], {}),
    ("nncore.optimizer_step",
     ["sup_rankers:optimizer_step", "graph_embeddings:optimizer_step"], {}),
    ("nncore.zero_grads", ["sup_rankers:zero_grads", "graph_embeddings:zero_grads",
                           "trainer:zero_grads", "controller:zero_grads"], {}),
    ("metrics.build_eval_lists", ["trainer:build_eval_lists", "cli:build_eval_lists"],
     {"count": _eval_lists}),
    ("metrics.mrr", ["trainer:mrr"], {}),
    ("metrics.score_lists_with_matrix",
     ["trainer:score_lists_with_matrix", "cli:score_lists_with_matrix"], {}),
    ("metrics.all_metrics", ["trainer:all_metrics", "cli:all_metrics"], {}),
    ("pseudo_labels.aggregate", ["trainer:aggregate"], {}),
    ("pseudo_labels.top_k_labels", ["trainer:top_k_labels"], {}),
    ("pseudo_labels.sample_training_pairs", ["trainer:sample_training_pairs"],
     {"count": _triples}),
    ("controller.sample_configuration", ["trainer:sample_configuration"], {}),
    ("controller.action_log_prob", ["trainer:action_log_prob"], {}),
    ("sup_rankers.train_supervised", ["trainer:train_supervised"], {"span": True}),
    ("sup_rankers.create_sup_model",
     ["trainer:create_sup_model", "sup_rankers:create_sup_model"], {}),
    ("sup_rankers.score_lists_with_ensemble", ["trainer:score_lists_with_ensemble"],
     {"span": True, "count": _ensemble_lists}),
    ("sup_rankers.ensemble_scores", ["sup_rankers:ensemble_scores", "cli:ensemble_scores"], {}),
    ("sup_rankers.phi_features", ["sup_rankers:RankerBackbone.phi_features"],
     {"count": "phi"}),
    ("sup_rankers.load_checkpoint", ["cli:load_checkpoint"], {}),
    ("sup_rankers.save_checkpoint", ["trainer:save_checkpoint"], {}),
) + tuple(
    (f"sup_rankers.{kind}.{method}", [f"sup_rankers:{cls}.{method}"], {})
    for kind, cls in (("representation", "RepresentationRanker"),
                      ("interaction", "InteractionRanker"),
                      ("graph-aggregation", "GraphAggregationRanker"))
    for method in ("loss_and_grads", "score_pairs")
)


class MissingTarget(Exception):
    pass


class Tracer:
    """Folds every wrapped call into per-label totals; keeps coarse spans."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # label -> [calls, busy, self, last_end]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []  # (label, parent label, start, end)
        self._stack: list[list] = []  # [label, time spent in wrapped children]

    def wrap(self, fn, label, span=False, namer=None, count=None):
        stack, stats, counts, spans = self._stack, self.stats, self.counts, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer(args, kwargs) if namer is not None else label
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][1] += dt
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0, 0.0]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                st[3] = t1
                if span:
                    spans.append((name, stack[-1][0] if stack else None, t0, t1))
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "weakrank") -> None:
        phi = _PhiCounter()
        done: dict[int, object] = {}
        for label, sites, options in TARGETS:
            options = dict(options)
            if options.get("count") == "phi":
                options["count"] = phi
            for site in sites:
                module_name, _, path = site.partition(":")
                module = importlib.import_module(f"{package}.{module_name}")
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                raw = owner.__dict__.get(attr) if owner_name else getattr(module, attr, None)
                if raw is None:
                    raise MissingTarget(f"{package}.{module_name}.{path}")
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapped = done.get(id(fn))
                if wrapped is None:
                    wrapped = done[id(fn)] = self.wrap(fn, label, **options)
                setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "stats": {k: dict(zip(("calls", "busy_s", "self_s", "last_end"), v))
                      for k, v in self.stats.items()},
            "counts": self.counts,
            "spans": self.spans,
        }), encoding="utf-8")


class HostProbe:
    """Times a fixed NumPy loop every ``PROBE_INTERVAL_S`` of wall time, from
    a timer signal in the command's own process, so the benchmark can scale
    the command's time to a reference host speed.

    A shared host's speed drifts by up to half over tens of seconds. A probe
    run at the same moment, in the same process, tracks that drift; one run
    between commands does not. The loop uses no weakrank code, so a change
    to the program cannot move it. Each probe takes about 2% of an interval.
    """

    def __init__(self):
        import numpy

        self.np = numpy
        rng = numpy.random.default_rng(0)
        self.x = rng.standard_normal((64, 32))
        self.w = rng.standard_normal((32, 32))
        self.samples: list[tuple[float, float]] = []  # (end, seconds)

    def __call__(self, signum, frame) -> None:
        np, x, w = self.np, self.x, self.w.copy()
        t0 = time.monotonic()
        for _ in range(PROBE_ITERATIONS):
            g = np.tanh(x @ w).sum(axis=0)
            w -= 1e-3 * np.outer(g, g[::-1])
        t1 = time.monotonic()
        self.samples.append((t1, t1 - t0))

    def start(self) -> None:
        """One probe now, then one per interval: every command has some."""
        self(None, None)
        signal.signal(signal.SIGALRM, self)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self(None, None)


def _install_mark(marks: dict) -> None:
    """One timestamp at a search's set-up boundary: its first episode."""
    import weakrank.trainer as trainer

    original = trainer.run_episode

    def first_episode(*args, **kwargs):
        marks["setup_end"] = time.monotonic()
        trainer.run_episode = original
        return original(*args, **kwargs)

    trainer.run_episode = first_episode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mark", type=Path, help="write timestamps and probes here")
    parser.add_argument("--trace", type=Path, help="trace the command and write it here")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import weakrank.cli

    if Path(weakrank.cli.__file__).resolve().parent.parent != src:
        print(f"perfbench: imported weakrank from {weakrank.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    marks: dict = {"start": time.monotonic()}
    tracer = None
    if args.trace is not None:
        tracer = Tracer()
        try:
            tracer.install()
        except (MissingTarget, AttributeError, ImportError) as exc:
            print(f"traced name no longer exists: {exc}", file=sys.stderr)
            return EXIT_MISSING
    probe = None
    if args.mark is not None:
        _install_mark(marks)
        probe = HostProbe()
        probe.start()
    try:
        return weakrank.cli.main(argv)
    finally:
        marks["end"] = time.monotonic()
        if probe is not None:
            probe.stop()
            marks["probes"] = probe.samples
            args.mark.write_text(json.dumps(marks), encoding="utf-8")
        if tracer is not None:
            tracer.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main())
