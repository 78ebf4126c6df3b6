#!/usr/bin/env python3
"""Benchmark two revisions in alternating pairs, each run from a fresh copy.

    python scripts/bench_pairs.py BASE CHANGE --workload W --seeds A-B
        [--seconds S] [--work DIR] [--out FILE]

BASE and CHANGE are git tree-ishes: a commit, a branch, or the tree that
``git write-tree`` makes of the staged files. For each seed from A to B, both
revisions are extracted with ``git archive`` into new directories under
``--work`` (a temporary directory by default), and ``perfbench/run.py
--workload W --seed SEED --seconds S --trace 0`` runs in each, one at a
time: the base first on even pairs, the change first on odd ones. After each
pair the two final run directories (``cache/`` included) and the two first
score TSVs are compared byte for byte, then both copies are deleted.

Prints, for each end-to-end metric, each side's median and quartiles, the
pairs the change wins (in the direction ``BENCHMARK.json`` declares; ties
count for neither) and a verdict, the first of these that holds (the bound
is ``BENCHMARK.json``'s, a share of the parent's median):

- ``gain``: the change wins at least nine tenths of the pairs, and its
  median is better than the parent's by more than the parent's
  interquartile range;
- ``regression``: the change's median is worse than the parent's by more
  than the bound;
- ``unresolved``: the parent's interquartile range is wider than the bound;
- ``no change``.

A ``search_s`` gain whose uncorrected median (below) did not fall ends with
``(uncorrected not faster)``: the host-speed correction alone may make it.

It flags each quality metric (unit ``ratio``) that differs between the sides
on a seed, and writes every pair to ``--out`` as JSON, with each side's raw
timings (``raw_timings``). Each pair's line shows the uncorrected ``search_s``
median and the ratio of the search's host speed to the score's: a change
that loads the second core slows the search's host-speed probe, so its
corrected times read low, and this ratio falls.
Exits 1 when a run fails or reports a failed repetition, 0 otherwise.
Stopped by SIGTERM, it ends its running benchmark and deletes its copies.
"""

import argparse
import json
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_runs import compare  # noqa: E402


def _exit_on_sigterm(signum, frame):
    """SIGTERM unwinds like an exception, so ``main``'s ``finally`` runs."""
    raise SystemExit(128 + signum)


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def extract(rev: str, dest: Path) -> None:
    """The files of ``rev`` in the repository, written under ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                         capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def metrics_of(result_line: str) -> dict | None:
    """Each metric's value from perfbench's result line, or None when a
    repetition failed."""
    result = json.loads(result_line)
    if not result["correct"] or result["failed"]:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


_UNCORRECTED = re.compile(r"uncorrected medians: setup (\S+) s, search (\S+) s, "
                          r"score (\S+) s; host speed (\S+)")
_COMMAND = re.compile(r"\b(search|score)(?:-\d+)? [\d.]+ s \(host speed ([\d.]+)\)")


def raw_timings(stderr: str) -> dict:
    """What perfbench's standard error says before host-speed correction:
    its ``uncorrected medians`` line, as seconds and the median host speed,
    and the host speed of each repetition's search and score commands."""
    found = _UNCORRECTED.search(stderr)
    if found is None:
        raise ValueError("no 'uncorrected medians' line in perfbench's output")
    setup, search, score, speed = map(float, found.groups())
    raw = {"setup_s": setup, "search_s": search, "score_s": score, "host_speed": speed,
           "search_host_speeds": [], "score_host_speeds": []}
    for line in stderr.splitlines():
        if line.startswith("rep "):
            for command, command_speed in _COMMAND.findall(line):
                raw[f"{command}_host_speeds"].append(float(command_speed))
    return raw


def host_speed_ratio(raw: dict) -> float:
    """The median search host speed over the median score host speed."""
    return (statistics.median(raw["search_host_speeds"])
            / statistics.median(raw["score_host_speeds"]))


def _raw_median(pairs: list[dict], side: str, value=lambda raw: raw["search_s"]) -> float:
    """One side's median, over the pairs, of ``value`` of its ``raw_timings``:
    by default the uncorrected ``search_s``."""
    return statistics.median(value(p["raw"][side]) for p in pairs)


def raw_summary(pairs: list[dict]) -> str:
    """Each side's median, over the pairs, of the uncorrected ``search_s``
    and of ``host_speed_ratio``."""
    return ("uncorrected search_s: " + ", ".join(
        f"{side} {_raw_median(pairs, side):.4g}" for side in ("parent", "change"))
        + " s; search/score host speed: " + ", ".join(
        f"{side} {_raw_median(pairs, side, host_speed_ratio):.3f}"
        for side in ("parent", "change")))


def run_bench(copy: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The metrics and the ``raw_timings`` of one perfbench run in ``copy``;
    exits the script when the run fails."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    metrics = metrics_of(lines[-1]) if proc.returncode == 0 and lines else None
    if metrics is None:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"bench_pairs: the {copy.name} run failed on seed {seed}")
    return metrics, raw_timings(proc.stderr)


def same_bits(a: Path, b: Path, workload: str) -> list[str]:
    """Differences between two copies' final run directories and first
    score TSVs."""
    work_a, work_b = (p / ".perfbench_work" / workload for p in (a, b))
    lines, _ = compare(work_a / "run", work_b / "run")
    tsv = Path("rep-00") / "score-1.tsv"
    if (work_a / tsv).read_bytes() != (work_b / tsv).read_bytes():
        lines.append(f"differs: {tsv}")
    return lines


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return dict.fromkeys(("median", "q1", "q3"), values[0])
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def verdict(parent: dict, change: dict, wins: int, n_pairs: int, sign: int,
            bound: float) -> str:
    """The module docstring's verdict for one metric, from each side's
    ``_quartiles``; ``sign`` is 1 where higher is better, -1 where lower."""
    spread = parent["q3"] - parent["q1"]
    allowed = bound * abs(parent["median"])
    if 10 * wins >= 9 * n_pairs and sign * (change["median"] - parent["median"]) > spread:
        return "gain"
    if sign * (parent["median"] - change["median"]) > allowed:
        return "regression"
    if spread > allowed:
        return "unresolved"
    return "no change"


def summarize(pairs: list[dict], declared: list[dict]) -> tuple[list[str], list[str]]:
    """(one line per metric, one line per quality metric unequal on a seed).

    ``pairs`` holds one ``{"seed", "parent", "change"}`` per pair, each side
    a perfbench metrics dict of name to value, and a ``raw`` dict of each
    side's ``raw_timings`` where ``search_s`` is declared; ``declared`` is
    ``BENCHMARK.json``'s ``end_to_end`` list."""
    lines, unequal = [], []
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (c - b) > 0 for b, c in zip(parent, change))
        ps, cs = _quartiles(parent), _quartiles(change)
        said = verdict(ps, cs, wins, len(pairs), sign, metric["bound"])
        if (name == "search_s" and said == "gain"
                and _raw_median(pairs, "change") >= _raw_median(pairs, "parent")):
            said += " (uncorrected not faster)"
        lines.append(f"{name}: parent {ps['median']:.4g} [{ps['q1']:.4g}, {ps['q3']:.4g}] "
                     f"change {cs['median']:.4g} [{cs['q1']:.4g}, {cs['q3']:.4g}] {unit}; "
                     f"change better in {wins} of {len(pairs)} pairs; {said}")
        if unit == "ratio":
            unequal += [f"{name} differs on seed {p['seed']}: {b} -> {c}"
                        for p, b, c in zip(pairs, parent, change) if b != c]
    return lines, unequal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range, help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--work", type=Path, help="where the copies go")
    parser.add_argument("--out", type=Path, help="write every pair here as JSON")
    args = parser.parse_args(argv)
    declared = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    work = Path(tempfile.mkdtemp(prefix="bench_pairs_", dir=args.work))
    pairs = []
    try:
        for i, seed in enumerate(args.seeds):
            sides = [("parent", args.base), ("change", args.change)]
            pair = {"seed": seed, "first": sides[i % 2][0], "raw": {}}
            for side, rev in sides[i % 2:] + sides[:i % 2]:
                extract(rev, work / side)
                pair[side], pair["raw"][side] = run_bench(
                    work / side, args.workload, seed, args.seconds)
            pair["bit_differences"] = same_bits(work / "parent", work / "change", args.workload)
            raw = pair["raw"]
            print(f"seed {seed} ({pair['first']} first): " + ", ".join(
                f"{m} {pair['parent'][m]:.4g} -> {pair['change'][m]:.4g}"
                for m in ("setup_s", "search_s", "peak_rss_mb"))
                + f"; uncorrected search_s {raw['parent']['search_s']:.4g} -> "
                f"{raw['change']['search_s']:.4g}, search/score host speed "
                f"{host_speed_ratio(raw['parent']):.3f} -> {host_speed_ratio(raw['change']):.3f}"
                + f"; {len(pair['bit_differences'])} bit difference(s)", file=sys.stderr)
            pairs.append(pair)
            for side in ("parent", "change"):
                shutil.rmtree(work / side)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        signal.signal(signal.SIGTERM, previous)
    lines, unequal = summarize(pairs, declared)
    lines.append(raw_summary(pairs))
    for line in lines:
        print(line)
    for line in unequal:
        print(f"UNEQUAL: {line}")
    for pair in pairs:
        for line in pair["bit_differences"]:
            print(f"seed {pair['seed']}: {line}")
    if args.out is not None:
        args.out.write_text(json.dumps({
            "workload": args.workload, "base": args.base, "change": args.change,
            "seconds": args.seconds, "pairs": pairs, "summary": lines, "unequal": unequal,
        }, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
