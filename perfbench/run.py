"""The weakrank benchmark: times ``weakrank search`` and ``weakrank score``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It generates the workload's inputs from
the seed with ``weakrank gen-synth``, prepares what the workload needs
untimed, then repeats the timed commands serially, each as a fresh
single-threaded child process (see ``child.py``), until ``--seconds`` have
passed. Every repetition's outputs are checked. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``. Inputs and outputs go under ``.perfbench_work/``.

End-to-end times are at the reference host speed: each command's time, less
its host-speed probes (``child.HostProbe``), is scaled by the mean of
``PROBE_REF_S`` over each probe's time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from child import EXIT_MISSING, PROBE_REF_S
from workloads import SCORERS, WORKLOADS, Workload

CHILD = Path(__file__).resolve().parent / "child.py"
MIN_TRACED_REPS = 2  # one untraced, one traced
START_BY_S = 120  # start no repetition later than this into a run, so it ends in time
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Command:
    """One finished child process."""

    name: str
    returncode: int
    wall_s: float
    rss_mb: float
    setup_s: float | None
    trace: dict | None
    setup_end: float | None  # monotonic time of the set-up boundary
    probes: list[tuple[float, float]]  # (end, seconds) of each host-speed probe

    @property
    def host_speed(self) -> float:
        """The host's speed during the command, 1.0 at the reference and
        less on a slower host: the mean, over the probes, of PROBE_REF_S over
        a probe's time. Probes are evenly spaced in wall time, so this is the
        share of the command's time the reference host would have needed."""
        return statistics.fmean(PROBE_REF_S / seconds for _, seconds in self.probes)

    def corrected(self, seconds: float, until: float | None = None) -> float:
        """A span of the command that ends at ``until`` (its end if None),
        less the probes in it, at the reference host speed."""
        probe_s = sum(s for end, s in self.probes if until is None or end <= until)
        return (seconds - probe_s) * self.host_speed


@dataclass
class Rep:
    commands: dict[str, Command] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    traced: bool = False

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands.values())


def median(values) -> float:
    return float(statistics.median(values))


def tree_hash(path: Path) -> str:
    digest = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            digest.update(p.relative_to(path).as_posix().encode() + b"\0")
            digest.update(hashlib.sha256(p.read_bytes()).digest())
    return digest.hexdigest()


def checked(what: str, check, *args) -> list[str]:
    """Problems a check finds; output it cannot read is a problem too."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{what} unreadable: {type(exc).__name__}: {exc}"]


def file_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    def __init__(self, root: Path, workload: Workload, seed: int, work: Path):
        self.root = root
        self.wl = workload
        self.seed = seed
        self.work = work
        self.data = work / "data"
        self.run_dir = work / "run"
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env.update(BLAS_ENV)
        self.env["WEAKRANK_LOG"] = "INFO"
        self.first_hashes: dict[str, str] = {}

    # -- child processes ------------------------------------------------------

    def run(self, name: str, argv: list[str], out_dir: Path, traced: bool = False) -> Command:
        mark = out_dir / f"{name}.mark.json"
        trace = out_dir / f"{name}.trace.json"
        cmd = [sys.executable, str(CHILD), "--mark", str(mark)]
        if traced:
            cmd += ["--trace", str(trace)]
        cmd += ["--", *argv]
        with open(out_dir / f"{name}.log", "w", encoding="utf-8") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == EXIT_MISSING:
            raise BenchError((out_dir / f"{name}.log").read_text(encoding="utf-8").strip())
        marks = json.loads(mark.read_text(encoding="utf-8")) if mark.exists() else {}
        setup_end = marks.get("setup_end")
        return Command(
            name, proc.returncode, t1 - t0, usage.ru_maxrss / 1024.0,
            None if setup_end is None else setup_end - t0,
            json.loads(trace.read_text(encoding="utf-8")) if traced and trace.exists() else None,
            setup_end, [tuple(p) for p in marks.get("probes", [])],
        )

    def rel(self, path: Path) -> str:
        return path.relative_to(self.root).as_posix()

    # -- inputs ---------------------------------------------------------------

    def make_inputs(self) -> None:
        c = self.wl.corpus
        self.data.mkdir(parents=True)
        gen = self.run("gen-synth", [
            "gen-synth", "--queries", str(c["queries"]), "--candidates", str(c["candidates"]),
            "--topics", str(c["topics"]), "--vocab-per-topic", str(c["vocab_per_topic"]),
            "--doc-len", str(c["doc_len"]), "--noise-rate", str(c["noise_rate"]),
            "--seed", str(self.seed), "--out", self.rel(self.data),
        ], self.work)
        if gen.returncode != 0:
            raise BenchError(f"gen-synth failed; see {self.work / 'gen-synth.log'}")
        # A seeded query split: a small validation split keeps episodes
        # cheap, a large test split keeps the test MRR steady across seeds.
        rows = (self.data / "annotations.tsv").read_text(encoding="utf-8").splitlines()
        queries = sorted({r.split("\t")[0] for r in rows})
        random.Random(self.seed).shuffle(queries)
        val_queries = set(queries[: round(len(queries) * self.wl.val_share)])
        for name, keep in (("val", True), ("test", False)):
            part = [r for r in rows if (r.split("\t")[0] in val_queries) == keep]
            (self.data / f"{name}.tsv").write_text("\n".join(part) + "\n", encoding="utf-8")
        self.write_config(self.work / "search.cfg", self.wl.search)
        if self.wl.prep is not None:
            self.write_config(self.work / "prep.cfg", {**self.wl.search, **self.wl.prep})

    def write_config(self, path: Path, keys: dict) -> None:
        lines = {
            "corpus": self.rel(self.data / "corpus.json"),
            "val_annotations": self.rel(self.data / "val.tsv"),
            "test_annotations": self.rel(self.data / "test.tsv"),
            "output_dir": self.rel(self.run_dir),
            **keys,
        }
        for scorer, hp in SCORERS.items():
            for key, value in hp.items():
                lines[f"hp.{scorer}.{key}"] = value
        path.write_text("".join(f"{k}={v}\n" for k, v in lines.items()), encoding="utf-8")

    # -- commands and checks ----------------------------------------------------

    def search(self, config: Path, out_dir: Path, traced: bool = False) -> Command:
        """A search with the ranker decision clamped to the workload's rankers."""
        return self.run("search", [
            "ablate", "--config", self.rel(config), "--mode", "fix-sup",
            "--fixed", self.wl.search["sup_models"],
        ], out_dir, traced)

    def score(self, name: str, out_dir: Path, traced: bool = False) -> Command:
        return self.run(name, ["score", "--run", self.rel(self.run_dir),
                               "--out", self.rel(out_dir / f"{name}.tsv")], out_dir, traced)

    def check_search(self) -> list[str]:
        episodes = self.wl.search["episodes"]
        problems = []
        lines = (self.run_dir / "episodes.jsonl").read_text(encoding="utf-8").splitlines()
        if len(lines) != episodes:
            problems.append(f"episodes.jsonl has {len(lines)} lines, expected {episodes}")
        for line in lines:
            reward = json.loads(line)["R"]
            if not 0.0 <= reward <= 2.0:
                problems.append(f"episode reward {reward} outside [0, 2]")
        report = self.report()
        for split in ("validation", "test"):
            for key, value in report[split].items():
                if not math.isfinite(value):
                    problems.append(f"report.json {split}.{key} = {value}")
        return problems

    def check_score(self, tsv: Path) -> list[str]:
        c = self.wl.corpus
        expected = c["queries"] * c["candidates"]
        rows = tsv.read_text(encoding="utf-8").splitlines()
        problems = [] if len(rows) == expected else [
            f"score TSV has {len(rows)} rows, expected {expected}"]
        for row in rows:
            value = float(row.split("\t")[2])
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                problems.append(f"score {value} outside [0, 1]")
                break
        return problems

    def report(self) -> dict:
        return json.loads((self.run_dir / "report.json").read_text(encoding="utf-8"))

    def episode_log(self) -> list[dict]:
        text = (self.run_dir / "episodes.jsonl").read_text(encoding="utf-8")
        return [json.loads(line) for line in text.splitlines()]

    # -- the workload -----------------------------------------------------------

    def prepare(self) -> None:
        """Untimed: a warm workload's prior search fills the run's cache."""
        if self.wl.prep is not None:
            cmd = self.search(self.work / "prep.cfg", self.work)
            if cmd.returncode != 0:
                raise BenchError(f"preparatory search failed; see {self.work / 'search.log'}")

    def reset_run_dir(self) -> None:
        """Empty for a cold workload; everything but ``cache/`` for a warm one."""
        if self.wl.prep is None:
            shutil.rmtree(self.run_dir, ignore_errors=True)
        else:
            for p in self.run_dir.iterdir():
                if p.name != "cache":
                    shutil.rmtree(p) if p.is_dir() else p.unlink()

    def repetition(self, index: int, traced: bool, scores: int) -> Rep:
        """A search, then ``scores`` score commands on its result."""
        out_dir = self.work / f"rep-{index:02d}"
        out_dir.mkdir()
        self.reset_run_dir()
        rep = Rep(traced=traced)
        cmd = rep.commands["search"] = self.search(self.work / "search.cfg", out_dir, traced)
        if cmd.returncode != 0:
            rep.problems.append(f"search exited {cmd.returncode}")
            return rep
        rep.problems += checked("search output", self.check_search)
        rep.problems += self.same_as_first("run directory", tree_hash(self.run_dir))
        for i in range(scores):
            name = f"score-{i + 1}"
            cmd = rep.commands[name] = self.score(name, out_dir, traced)
            if cmd.returncode != 0:
                rep.problems.append(f"{name} exited {cmd.returncode}")
                return rep
            tsv = out_dir / f"{name}.tsv"
            rep.problems += checked("score TSV", self.check_score, tsv)
            if tsv.exists():
                rep.problems += self.same_as_first("score TSV", file_hash(tsv))
        return rep

    def same_as_first(self, what: str, digest: str) -> list[str]:
        first = self.first_hashes.setdefault(what, digest)
        return [] if digest == first else [f"{what} differs from the first repetition's"]

    def scorer_mrr(self) -> dict[str, float]:
        """MRR of every cached score matrix against all planted pairs, by
        ``weakrank eval``. Scorers never see labels, so every pair tests them."""
        sys.path.insert(0, str(self.root / "src"))
        from weakrank.cli import main as weakrank_main

        result = {}
        for scorer in SCORERS:
            found = sorted((self.run_dir / "cache").glob(f"unsup_{scorer}_*.csv"))
            if len(found) != 1:
                raise BenchError(f"expected one cached {scorer} matrix, found {len(found)}")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = weakrank_main([
                    "-q", "eval", "--corpus", self.rel(self.data / "corpus.json"),
                    "--annotations", self.rel(self.data / "annotations.tsv"),
                    "--scores", self.rel(found[0]), "--seed", str(self.seed),
                    "--set", f"eval_negatives={self.wl.search['eval_negatives']}",
                ])
            if code != 0:
                raise BenchError(f"weakrank eval failed for {scorer}")
            result[scorer] = json.loads(out.getvalue().splitlines()[-1])["mrr"]
        return result


# -- metrics --------------------------------------------------------------------


def end_to_end(bench: Bench, reps: list[Rep]) -> dict:
    pairs = bench.wl.corpus["queries"] * bench.wl.corpus["candidates"]
    report = bench.report()
    search = [r.commands["search"] for r in reps]
    score = [c for r in reps for c in r.commands.values() if c.name.startswith("score")]
    print(f"uncorrected medians: setup {median(c.setup_s for c in search):.4f} s, "
          f"search {median(c.wall_s for c in search):.4f} s, "
          f"score {median(c.wall_s for c in score):.4f} s; "
          f"host speed {median(c.host_speed for c in search + score):.4f}", file=sys.stderr)
    metrics = {
        "setup_s": (median(c.corrected(c.setup_s, c.setup_end) for c in search), "s"),
        "search_s": (median(c.corrected(c.wall_s) for c in search), "s"),
        "score_pairs_per_s": (median(pairs / c.corrected(c.wall_s) for c in score), "pairs/s"),
        "peak_rss_mb": (median(max(c.rss_mb for c in r.commands.values()) for r in reps), "MB"),
        "val_mrr": (report["validation"]["mrr"], "ratio"),
        "test_mrr": (report["test"]["mrr"], "ratio"),
    }
    for scorer, value in bench.scorer_mrr().items():
        metrics[f"scorer_mrr.{scorer}"] = (value, "ratio")
    return metrics


# Per-layer names, by module. Labels match child.TARGETS.
BUSY_AND_CALLS = [
    "trainer.run_episode", "sup_rankers.train_supervised",
    *(f"sup_rankers.{kind}.{method}"
      for kind in ("representation", "interaction", "graph-aggregation")
      for method in ("loss_and_grads", "score_pairs")),
    "sup_rankers.score_lists_with_ensemble", "sup_rankers.ensemble_scores",
    "nncore.optimizer_step", "nncore.zero_grads",
    "metrics.mrr", "metrics.score_lists_with_matrix",
    "pseudo_labels.aggregate", "pseudo_labels.top_k_labels",
    "pseudo_labels.sample_training_pairs",
    "controller.sample_configuration", "controller.action_log_prob",
    "embeddings.train_text_embeddings", "sageops.sage_forward", "sageops.sage_backward",
]
BUSY_ONLY = [
    "trainer.pretrain_all", "trainer.build_backbone",
    "sup_rankers.phi_features", "sup_rankers.create_sup_model",
    "sup_rankers.load_checkpoint", "sup_rankers.save_checkpoint",
    "metrics.build_eval_lists", "metrics.all_metrics",
    *(f"registry.compute_score_matrix.{scorer}" for scorer in SCORERS),
    "embeddings.SkipGramTrainer.train", "graph_embeddings.generate_walks",
    "graph_embeddings.EdgeProximityTrainer.train", "graph_embeddings.AggregationTrainer.train",
    "sageops.build_neighbor_matrix", "scores.ScoreMatrix.load_cache", "scores.save",
    "graph.build_graph", "corpus.Corpus.load",
]
COUNTS = {  # name -> (unit, better)
    "sup_rankers.score_lists_with_ensemble.lists": ("count", "lower"),
    "sup_rankers.phi_features.computed": ("count", "lower"),
    "sup_rankers.phi_bytes": ("bytes", "lower"),
    "metrics.eval_lists": ("count", "lower"),
    "pseudo_labels.triples": ("count", "lower"),
    "embeddings.skipgram.centres": ("count", "lower"),
    "graph_embeddings.walk_steps": ("count", "lower"),
    "sageops.neighbor_matrix_bytes": ("bytes", "lower"),
    "scores.pretrain_cache_hits": ("count", "higher"),
    "scores.pretrain_cache_misses": ("count", "lower"),
    "graph.nodes": ("count", "lower"),
    "graph.edges": ("count", "lower"),
}
DERIVED = {  # name -> (unit, better)
    "trainer.episodes_trained": ("count", "lower"),
    "trainer.reward_cache_hit_ratio": ("ratio", "higher"),
    "trainer.final_s": ("s", "lower"),
    "embeddings.skipgram.us_per_centre": ("us", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.outside_s": ("s", "lower"),
    "trace.host_speed": ("ratio", "higher"),
}
MODULES = ["corpus", "graph", "trainer", "registry", "scores", "embeddings", "graph_embeddings",
           "sageops", "nncore", "metrics", "pseudo_labels", "controller", "sup_rankers"]


def per_layer_catalogue() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    names = {}
    for label in BUSY_AND_CALLS:
        names[f"{label}.busy_s"] = ("s", "lower")
        names[f"{label}.calls"] = ("count", "lower")
    for label in BUSY_ONLY:
        names[f"{label}.busy_s"] = ("s", "lower")
    names.update(COUNTS)
    names.update(DERIVED)
    for module in MODULES:
        names[f"self_s.{module}"] = ("s", "lower")
    return names


def merge_traces(rep: Rep) -> tuple[dict, dict]:
    """Per-label stats and counts summed over a traced repetition's commands."""
    stats: dict[str, dict] = {}
    counts: dict[str, float] = {}
    for cmd in rep.commands.values():
        for label, st in cmd.trace["stats"].items():
            into = stats.setdefault(label, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += st[key]
        for key, value in cmd.trace["counts"].items():
            # Both commands build the same graph: its size is not a sum.
            combine = max if key in ("graph.nodes", "graph.edges") else sum
            counts[key] = combine((counts.get(key, 0), value))
    return stats, counts


def layer_values(bench: Bench, rep: Rep, untraced_wall_s: float) -> dict[str, float]:
    stats, counts = merge_traces(rep)
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    values = {}
    for label in BUSY_AND_CALLS + BUSY_ONLY:
        st = stats.get(label, zero)
        values[f"{label}.busy_s"] = st["busy_s"]
        values[f"{label}.calls"] = st["calls"]
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    log = bench.episode_log()
    distinct = len({json.dumps([e["I1"], e["k"], e["I3"]]) for e in log})
    values["trainer.episodes_trained"] = distinct
    values["trainer.reward_cache_hit_ratio"] = (len(log) - distinct) / len(log)
    search = rep.commands.get("search")
    final_s = 0.0
    if search is not None:
        st = search.trace["stats"]
        final_s = st["trainer.joint_train"]["last_end"] - st["trainer.run_episode"]["last_end"]
    values["trainer.final_s"] = final_s
    centres = counts.get("embeddings.skipgram.centres", 0)
    busy = values["embeddings.SkipGramTrainer.train.busy_s"]
    values["embeddings.skipgram.us_per_centre"] = 1e6 * busy / centres if centres else 0.0
    module_self = {m: 0.0 for m in MODULES}
    for label, st in stats.items():
        module_self[label.split(".", 1)[0]] += st["self_s"]
    for module, value in module_self.items():
        values[f"self_s.{module}"] = value
    values["trace.wall_s"] = rep.wall_s
    values["trace.untraced_wall_s"] = untraced_wall_s
    values["trace.overhead_s"] = rep.wall_s - untraced_wall_s
    values["trace.outside_s"] = rep.wall_s - sum(module_self.values())
    values["trace.host_speed"] = median(c.host_speed for c in rep.commands.values())
    return values


def per_layer(bench: Bench, reps: list[Rep]) -> tuple[dict, list[str]]:
    catalogue = per_layer_catalogue()
    untraced = median(r.wall_s for r in reps if not r.traced)
    samples = [layer_values(bench, r, untraced) for r in reps if r.traced]
    problems = []
    exact = list(COUNTS) + [n for n in catalogue if n.endswith(".calls")]
    for sample in samples[1:]:
        for name in exact:
            if sample[name] != samples[0][name]:
                problems.append(f"{name} differs between traced repetitions")
    metrics = {}
    for name, (unit, _) in catalogue.items():
        metrics[name] = (median(s[name] for s in samples), unit)
    return metrics, problems


# -- entry point --------------------------------------------------------------------


def environment(root: Path, seed: int, workload: str) -> dict:
    import numpy

    revision = "unknown (not a git checkout)"
    if (root / ".git").exists():
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                  text=True).stdout.strip() or revision
    return {
        "workload": workload, "seed": seed, "git_revision": revision,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), **BLAS_ENV,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="weakrank benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run_start = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "weakrank" / "cli.py").is_file():
        print("perfbench: run from a weakrank checkout: ./src/weakrank is missing",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(root, args.seed, args.workload)
    (work / "environment.json").write_text(json.dumps(env, indent=1) + "\n", encoding="utf-8")
    print("environment: " + json.dumps(env))

    bench = Bench(root, WORKLOADS[args.workload], args.seed, work)
    try:
        bench.make_inputs()
        bench.prepare()
        reps: list[Rep] = []
        min_reps = MIN_TRACED_REPS if args.trace else bench.wl.min_reps
        start = time.monotonic()
        rep_s = 0.0  # the last repetition's duration
        while True:
            now = time.monotonic()
            # Past the minimum, start only a repetition that, if as long as
            # the last, ends within --seconds.
            if len(reps) >= min_reps and now + rep_s - start > args.seconds:
                break
            if reps and now - run_start > START_BY_S:
                break
            # A traced run alternates untraced and traced repetitions, so the
            # tracing overhead is measured within the run.
            # It scores once a repetition, so traced and untraced ones match.
            rep = bench.repetition(len(reps), traced=bool(args.trace) and len(reps) % 2 == 1,
                                   scores=1 if args.trace else bench.wl.scores)
            rep_s = time.monotonic() - now
            reps.append(rep)
            print(f"rep {len(reps)}{' traced' if rep.traced else ''}: "
                  + ", ".join(f"{c.name} {c.wall_s:.3f} s"
                              + (f" (host speed {c.host_speed:.3f})" if c.probes else "")
                              for c in rep.commands.values())
                  + "".join(f"; FAILED: {p}" for p in rep.problems), file=sys.stderr)
        good = [r for r in reps if not r.problems]
        failed = len(reps) - len(good)
        if not any(not r.traced for r in good) or (
                args.trace and not any(r.traced for r in good)):
            raise BenchError("no repetition of a kind the metrics need succeeded")
        if args.trace:
            metrics, problems = per_layer(bench, good)
            failed += bool(problems)
            for problem in problems:
                print(f"FAILED: {problem}", file=sys.stderr)
            wanted = {m["name"] for m in declared["per_layer"]}
        else:
            metrics = end_to_end(bench, good)
            wanted = {m["name"] for m in declared["end_to_end"]}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != wanted:
        print(f"perfbench: metrics do not match BENCHMARK.json: {sorted(set(metrics) ^ wanted)}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
