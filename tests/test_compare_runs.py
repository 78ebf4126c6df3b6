import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py"


@pytest.fixture(scope="module")
def compare_runs():
    spec = importlib.util.spec_from_file_location("compare_runs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_dir(root: Path) -> Path:
    (root / "cache").mkdir(parents=True)
    (root / "report.json").write_text('{"mrr": 0.5}\n')
    (root / "cache" / "bm25_ab12.bin").write_bytes(b"\x00\x01\x02")
    return root


def test_identical_trees_exit_zero(tmp_path, compare_runs, capsys):
    a, b = _run_dir(tmp_path / "a"), _run_dir(tmp_path / "b")
    assert compare_runs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.strip() == "0 difference(s) in 2 file(s)"


def test_every_difference_is_listed_and_exits_one(tmp_path, compare_runs, capsys):
    a, b = _run_dir(tmp_path / "a"), _run_dir(tmp_path / "b")
    (b / "cache" / "bm25_ab12.bin").write_bytes(b"\x00\x01\x03")
    (a / "episodes.jsonl").write_text("{}\n")
    (b / "cache" / "extra.bin").write_bytes(b"")
    assert compare_runs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "differs: cache/bm25_ab12.bin",
        f"only in {b}: cache/extra.bin",
        f"only in {a}: episodes.jsonl",
        "3 difference(s) in 4 file(s)",
    ]


def test_missing_directory_is_an_error(tmp_path, compare_runs):
    a = _run_dir(tmp_path / "a")
    with pytest.raises(SystemExit) as exc:
        compare_runs.main([str(a), str(tmp_path / "absent")])
    assert exc.value.code == 2
