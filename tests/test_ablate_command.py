"""``weakrank ablate`` is a search with one controller decision clamped: to
the ``--fixed`` choice, or with ``--sweep`` to each choice of the decision in
turn. Every run it leaves is one that ``weakrank score`` serves."""

import json
from collections import Counter

import pytest
from test_score_command import _sandbox

import weakrank.trainer as trainer
from weakrank.cli import main

# sub-run directories, and the logged choice each one clamps
SWEEPS = {
    "fix-k": {"k_5": ("k", 5), "k_10": ("k", 10)},
    "fix-unsup": {"bm25": ("I1", [1, 0]), "text-embedding": ("I1", [0, 1])},
    "fix-sup": {"representation": ("I3", [1, 0]), "interaction": ("I3", [0, 1])},
}


@pytest.fixture
def sandbox(tmp_path, monkeypatch):
    """Two trained scorers, two k values and two rankers, with pre-split
    validation and test annotations (``val_annotations``)."""
    _sandbox(tmp_path, unsup_models="bm25,text-embedding", external_scores="",
             k_values="5,10", workers="1")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _logged(run):
    return [json.loads(line) for line in (run / "episodes.jsonl").read_text().splitlines()]


@pytest.mark.parametrize("mode,fixed,key,value", [
    ("fix-unsup", "text-embedding", "I1", [0, 1]),
    ("fix-k", "10", "k", 10),
    ("fix-sup", "representation,interaction", "I3", [1, 1]),
])
def test_clamped_choice_is_constant_across_episodes(sandbox, mode, fixed, key, value):
    assert main(["ablate", "--config", "exp.cfg", "--set", "episodes=4",
                 "--mode", mode, "--fixed", fixed]) == 0
    episodes = _logged(sandbox / "run")
    assert len(episodes) == 4
    assert all(e[key] == value for e in episodes)
    assert json.loads((sandbox / "run" / "best_config.json").read_text())[key] == value


@pytest.mark.parametrize("mode", SWEEPS)
def test_sweep_sub_runs_share_one_cache_and_are_served(sandbox, monkeypatch, capsys, mode):
    trained = Counter()
    compute, train_table = trainer.compute_score_matrix, trainer._train_text_table

    def counting_compute(spec, *args):
        trained[spec.name] += 1
        return compute(spec, *args)

    def counting_table(*args):
        trained["text tables"] += 1
        return train_table(*args)

    monkeypatch.setattr(trainer, "compute_score_matrix", counting_compute)
    monkeypatch.setattr(trainer, "_train_text_table", counting_table)
    assert main(["ablate", "--config", "exp.cfg", "--mode", mode, "--sweep"]) == 0
    # one text table: the backbone's, which the text-embedding scorer scores with
    assert trained == {"bm25": 1, "text-embedding": 1, "text tables": 1}

    run, subs = sandbox / "run", SWEEPS[mode]
    assert sorted(p.name for p in run.iterdir()) == sorted(
        ["cache", "config.cfg", "manifest.json", *subs])
    lines = capsys.readouterr().out.splitlines()
    assert [line.partition(":")[0] for line in lines] == list(subs)
    assert all(", test mrr " in line for line in lines)
    for name, (key, value) in subs.items():
        sub = run / name
        assert all(e[key] == value for e in _logged(sub))
        for meta in ("config.cfg", "manifest.json"):
            assert (sub / meta).read_bytes() == (run / meta).read_bytes()
        assert main(["score", "--run", str(sub), "--out", f"{name}.tsv"]) == 0
        assert len((sandbox / f"{name}.tsv").read_text().splitlines()) == 12 * 60


def _outputs(run):
    """What a search wrote into ``run``, by relative path: all but its
    configuration, its manifest and its pretrain cache."""
    return {p.relative_to(run).as_posix(): p.read_bytes() for p in sorted(run.rglob("*"))
            if p.is_file() and p.relative_to(run).parts[0] not in (
                "cache", "config.cfg", "manifest.json")}


def test_sweep_sub_run_equals_its_single_choice_run(sandbox):
    # the sweep's second sub-run reads the scorers and backbone from the
    # cache its first one filled; the single run trains them afresh
    assert main(["ablate", "--config", "exp.cfg", "--mode", "fix-unsup", "--sweep"]) == 0
    assert main(["ablate", "--config", "exp.cfg", "--set", "output_dir=single",
                 "--mode", "fix-unsup", "--fixed", "text-embedding"]) == 0
    outputs = _outputs(sandbox / "single")
    assert {"episodes.jsonl", "best_config.json", "report.json",
            "checkpoints/backbone.bin"} < set(outputs)
    assert _outputs(sandbox / "run" / "text-embedding") == outputs
