import importlib.util
import json
import os
import signal
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

DECLARED = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "score_pairs_per_s", "unit": "pairs/s", "better": "higher", "bound": 0.25},
    {"name": "val_mrr", "unit": "ratio", "better": "higher", "bound": 0.25},
]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(setup_s, pairs_per_s, val_mrr, failed=0):
    """A perfbench result line, as its last line of standard output."""
    metrics = {"setup_s": (setup_s, "s"), "score_pairs_per_s": (pairs_per_s, "pairs/s"),
               "val_mrr": (val_mrr, "ratio")}
    return json.dumps({"correct": failed == 0, "attempted": 3, "failed": failed, "metrics": {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}})


def test_summary_counts_wins_in_the_declared_direction(bench_pairs):
    runs = [  # (seed, parent line, change line)
        (41, _line(2.0, 100.0, 0.9), _line(1.8, 110.0, 0.9)),
        (42, _line(2.2, 100.0, 0.8), _line(2.2, 90.0, 0.8)),  # a tie, and a loss
        (43, _line(1.9, 120.0, 0.7), _line(1.7, 130.0, 0.7)),
        (44, _line(2.1, 110.0, 0.6), _line(1.9, 120.0, 0.6)),
    ]
    pairs = [{"seed": seed, "parent": bench_pairs.metrics_of(parent),
              "change": bench_pairs.metrics_of(change)} for seed, parent, change in runs]
    lines, unequal = bench_pairs.summarize(pairs, DECLARED)
    assert lines == [
        "setup_s: parent 2.05 [1.975, 2.125] change 1.85 [1.775, 1.975] s; "
        "change better in 3 of 4 pairs; no change",
        "score_pairs_per_s: parent 105 [100, 112.5] change 115 [105, 122.5] pairs/s; "
        "change better in 3 of 4 pairs; no change",
        "val_mrr: parent 0.75 [0.675, 0.825] change 0.75 [0.675, 0.825] ratio; "
        "change better in 0 of 4 pairs; no change",
    ]
    assert unequal == []


PEAK = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]


def _verdict(bench_pairs, parent, change):
    """The verdict ``summarize`` prints for peak_rss_mb on these pairs."""
    pairs = [{"seed": i, "parent": {"peak_rss_mb": b}, "change": {"peak_rss_mb": c}}
             for i, (b, c) in enumerate(zip(parent, change))]
    (line,), _ = bench_pairs.summarize(pairs, PEAK)
    return line.rpartition("; ")[2]


# ten parent runs, median 47.0 MB, quartiles [46.925, 47.075]: an IQR of 0.15 MB
PARENT = [46.8, 46.9, 46.9, 47.0, 47.0, 47.0, 47.0, 47.1, 47.1, 47.2]


@pytest.mark.parametrize("change, expected", [
    # lower in 10 of 10 pairs, the median 1 MB lower: beyond the parent's IQR
    ([b - 1.0 for b in PARENT], "gain"),
    # lower in 9 of 10 pairs is still a gain
    ([b - 1.0 for b in PARENT[:9]] + [PARENT[9] + 0.1], "gain"),
    # lower in 8 of 10 pairs is not, whatever the medians
    ([b - 1.0 for b in PARENT[:8]] + [b + 0.1 for b in PARENT[8:]], "no change"),
    # lower in every pair, but the medians 0.1 MB apart: within the parent's IQR
    ([b - 0.1 for b in PARENT], "no change"),
    # 2.5 MB higher: more than 5% of the parent's median
    ([b + 2.5 for b in PARENT], "regression"),
    # 2.0 MB higher: worse, but within the bound
    ([b + 2.0 for b in PARENT], "no change"),
])
def test_verdict_follows_the_pair_rule_and_the_bound(bench_pairs, change, expected):
    assert _verdict(bench_pairs, PARENT, change) == expected


def test_verdict_unresolved_when_the_parent_spreads_beyond_the_bound(bench_pairs):
    parent = [40.0, 42.0, 44.0, 46.0, 48.0, 50.0, 52.0, 54.0, 56.0, 58.0]  # IQR 9.0, 18% of 49.0
    assert _verdict(bench_pairs, parent, [b + 0.5 for b in parent]) == "unresolved"
    # a regression beyond the bound is named as one, however wide the spread
    assert _verdict(bench_pairs, parent, [b + 10.0 for b in parent]) == "regression"
    # and a gain by the pair rule too
    assert _verdict(bench_pairs, parent, [b - 10.0 for b in parent]) == "gain"


def test_summary_flags_a_quality_metric_unequal_on_a_seed(bench_pairs):
    pairs = [{"seed": 7, "parent": bench_pairs.metrics_of(_line(2.0, 100.0, 0.9)),
              "change": bench_pairs.metrics_of(_line(1.0, 200.0, 0.91))}]
    _, unequal = bench_pairs.summarize(pairs, DECLARED)
    assert unequal == ["val_mrr differs on seed 7: 0.9 -> 0.91"]


def test_a_run_with_a_failed_repetition_has_no_metrics(bench_pairs):
    assert bench_pairs.metrics_of(_line(2.0, 100.0, 0.9, failed=1)) is None


def test_seed_ranges_are_inclusive(bench_pairs):
    assert bench_pairs.seed_range("41-46") == [41, 42, 43, 44, 45, 46]
    assert bench_pairs.seed_range("7") == [7]


def test_sigterm_deletes_the_copies(bench_pairs, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    extracted = []

    def stopped_extract(rev, dest):
        dest.mkdir(parents=True)
        extracted.append(dest)
        os.kill(os.getpid(), signal.SIGTERM)  # as `kill` or `pkill` would, mid-pair

    monkeypatch.setattr(bench_pairs, "extract", stopped_extract)
    handler = signal.getsignal(signal.SIGTERM)
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(["HEAD", "HEAD", "--workload", "search-warm", "--seeds", "1-2",
                          "--work", str(tmp_path)])
    assert stop.value.code == 128 + signal.SIGTERM
    assert len(extracted) == 1
    assert not list(tmp_path.glob("bench_pairs_*"))
    assert signal.getsignal(signal.SIGTERM) == handler  # restored


def test_runs_from_any_directory(bench_pairs, tmp_path, monkeypatch):
    """Started outside the repository, the script reads the repository's
    ``BENCHMARK.json`` and archives from the repository."""
    monkeypatch.chdir(tmp_path)  # holds no BENCHMARK.json and no repository
    declared = json.loads((_SCRIPT.parents[1] / "BENCHMARK.json").read_text())["end_to_end"]
    commands = []

    def recorded_run(command, **kwargs):
        commands.append(command)
        return subprocess.CompletedProcess(command, 0, stdout=b"")

    def bench(copy, workload, seed, seconds):
        metrics = {m["name"]: 1.0 for m in declared}
        raw = {"search_s": 1.0, "search_host_speeds": [1.0], "score_host_speeds": [1.0]}
        return metrics, raw

    monkeypatch.setattr(bench_pairs.subprocess, "run", recorded_run)
    monkeypatch.setattr(bench_pairs, "run_bench", bench)
    monkeypatch.setattr(bench_pairs, "same_bits", lambda a, b, workload: [])
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["HEAD", "HEAD~1", "--workload", "search-warm", "--seeds", "1",
                             "--work", str(tmp_path), "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["summary"]
    assert [line.partition(":")[0] for line in summary[:-1]] == [m["name"] for m in declared]
    archives = [c for c in commands if c[0] == "git"]
    assert archives == [["git", "-C", str(_SCRIPT.parents[1]), "archive", "--format=tar", rev]
                        for rev in ("HEAD", "HEAD~1")]


# perfbench's standard error on an untraced run, as it prints it
STDERR = """\
rep 1: search 0.986 s (host speed 0.840), score-1 0.338 s (host speed 0.586)
rep 2: search 1.498 s (host speed 0.551), score-1 0.432 s (host speed 0.561), \
score-2 0.401 s (host speed 0.600)
rep 3: search 1.485 s (host speed 0.558), score-1 0.405 s (host speed 0.537)
uncorrected medians: setup 0.3752 s, search 1.4853 s, score 0.4053 s; host speed 0.5597
"""


def test_raw_timings_read_the_uncorrected_medians_and_each_host_speed(bench_pairs):
    raw = bench_pairs.raw_timings(STDERR)
    assert raw == {"setup_s": 0.3752, "search_s": 1.4853, "score_s": 0.4053,
                   "host_speed": 0.5597, "search_host_speeds": [0.84, 0.551, 0.558],
                   "score_host_speeds": [0.586, 0.561, 0.6, 0.537]}
    assert bench_pairs.host_speed_ratio(raw) == pytest.approx(0.558 / ((0.561 + 0.586) / 2))


def test_raw_timings_refuse_output_without_the_uncorrected_line(bench_pairs):
    with pytest.raises(ValueError, match="uncorrected medians"):
        bench_pairs.raw_timings(STDERR.rpartition("uncorrected")[0])


def test_raw_summary_gives_each_side_its_median_over_the_pairs(bench_pairs):
    def raw(search_s, search_speed):
        return {"search_s": search_s, "search_host_speeds": [search_speed],
                "score_host_speeds": [0.5]}

    pairs = [{"raw": {"parent": raw(b, 0.5), "change": raw(c, 0.4)}}
             for b, c in ((0.9, 0.7), (0.8, 0.6), (1.0, 0.8))]
    assert bench_pairs.raw_summary(pairs) == (
        "uncorrected search_s: parent 0.9, change 0.7 s; "
        "search/score host speed: parent 1.000, change 0.800")


SEARCH = [{"name": "search_s", "unit": "s", "better": "lower", "bound": 0.2}]


@pytest.mark.parametrize("uncorrected_change, flagged", [(0.897, True), (0.836, True),
                                                         (0.801, False)])
def test_a_search_gain_the_uncorrected_times_do_not_show_is_flagged(
        bench_pairs, uncorrected_change, flagged):
    """Corrected 0.658 -> 0.609 s, better in 10 of 10 pairs, while the
    uncorrected median rises (0.836 -> 0.897 s), stays or falls."""
    pairs = [{"seed": i, "parent": {"search_s": 0.658 + d}, "change": {"search_s": 0.609 + d},
              "raw": {"parent": {"search_s": 0.836 + d},
                      "change": {"search_s": uncorrected_change + d}}}
             for i, d in enumerate((-0.004, -0.002, 0.0, 0.0, 0.002) * 2)]
    (line,), _ = bench_pairs.summarize(pairs, SEARCH)
    assert line.startswith("search_s: parent 0.658 [0.656, 0.658] change 0.609 [0.607, 0.609] s; "
                           "change better in 10 of 10 pairs; gain")
    assert line.endswith("; gain (uncorrected not faster)") == flagged
    assert line.endswith("; gain") != flagged
