"""scripts/digest_diff.py: which pairs it compares and its exit status, with the digest runs replaced."""
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "digest_diff.py"
LINES = ["aaaa  exp-gaussian/summary.txt\n", "bbbb  robustness-table\n"]


@pytest.fixture
def script():
    spec = importlib.util.spec_from_file_location("digest_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(script, monkeypatch, capsys, changed=(), status=None):
    """main() on trees "old" and "new"; the runs in `changed` print another last line, and
    `status` maps runs to their exit status (0 by default)."""
    runs = []

    def digest(src, threads):
        runs.append((src, threads))
        last = "cccc  robustness-table\n" if (src, threads) in changed else LINES[-1]
        return LINES[:-1] + [last], (status or {}).get((src, threads), 0)

    monkeypatch.setattr(script, "digest", digest)
    code = script.main(["old", "new"])
    assert sorted(runs) == [("new", "1"), ("new", "2"), ("old", "1"), ("old", "2")]
    return code, capsys.readouterr().out


def test_equal_digests_exit_0_and_print_nothing(script, monkeypatch, capsys):
    assert _run(script, monkeypatch, capsys) == (0, "")


def test_old_against_new_at_each_thread_count(script, monkeypatch, capsys):
    code, out = _run(script, monkeypatch, capsys, changed={("new", "1"), ("new", "2")})
    assert code == 1
    assert out.count("-bbbb  robustness-table\n+cccc  robustness-table\n") == 2
    for threads in ("1", "2"):
        assert f"--- old OPENBLAS_NUM_THREADS={threads}\n+++ new OPENBLAS_NUM_THREADS={threads}\n" in out
    assert "--- new OPENBLAS_NUM_THREADS=1" not in out


def test_one_thread_against_two_on_the_new_tree(script, monkeypatch, capsys):
    code, out = _run(script, monkeypatch, capsys, changed={("old", "2"), ("new", "2")})
    assert code == 1
    assert out.startswith("--- new OPENBLAS_NUM_THREADS=1\n+++ new OPENBLAS_NUM_THREADS=2\n")
    assert "-bbbb  robustness-table\n+cccc  robustness-table\n" in out


def test_a_failed_digest_exits_1(script, monkeypatch, capsys):
    assert _run(script, monkeypatch, capsys, status={("old", "2"): 1}) == (1, "")
