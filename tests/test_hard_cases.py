"""tools/hard_cases.py: repeated timing of a case list and its flags."""

import importlib.util
import json
import os
import signal
import sys

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_spec = importlib.util.spec_from_file_location(
    "hard_cases", os.path.join(_ROOT, "tools", "hard_cases.py"))
hard_cases = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(hard_cases)


def test_straddles_flags_mixed_statuses_and_times_near_the_deadline():
    assert not hard_cases.straddles(["deadline"] * 3, [5.0, 5.1, 4.9])
    assert not hard_cases.straddles(["consistent"] * 2, [0.01, 1.49])
    assert hard_cases.straddles(["consistent"] * 2, [0.01, 1.5])
    assert hard_cases.straddles(["consistent"] * 2, [3.0, 0.2])
    assert hard_cases.straddles(["consistent", "deadline"], [0.9, 5.0])


def test_main_runs_a_case_list_given_by_argument(tmp_path, monkeypatch,
                                                 capsys):
    cases = [
        {"spec": {"datasets": [{"testset": {"class_counts": [2, 2]}}]},
         "scores": {"macro-sens": "0.75"}},
        {"spec": {"datasets": [{"testset": {"class_counts": [2, 2]}}]},
         "scores": {"macro-sens": "0.30"}},
    ]
    path = tmp_path / "cases.json"
    path.write_text(json.dumps(cases))
    monkeypatch.setattr(sys, "path", list(sys.path))
    handler = signal.getsignal(signal.SIGALRM)
    try:
        code = hard_cases.main(["--workload", "multiclass", "--repeats", "2",
                                "--root", _ROOT, "--cases", str(path)])
    finally:
        signal.signal(signal.SIGALRM, handler)
    out = capsys.readouterr().out
    assert code == 0, out
    lines = [line for line in out.splitlines() if line.startswith("case")]
    assert len(lines) == 2
    assert lines[0].count("consistent") == 2 and "inconsistent" not in lines[0]
    assert lines[1].count("inconsistent") == 2
    assert "0 cases flagged" in out
