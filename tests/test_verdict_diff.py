"""tools/verdict_diff.py: pairing two dumps and classifying what changed."""

import importlib.util
import json
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "verdict_diff.py")
_spec = importlib.util.spec_from_file_location("verdict_diff", _PATH)
verdict_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verdict_diff)


def _record(request_id, status, response=None, stratum="macro_plain"):
    return {"workload": "multiclass", "stratum": stratum, "id": request_id,
            "status": status, "response": response}


def test_compare_separates_flips_status_changes_and_fields():
    old = {
        "a": _record("m/1/000", "consistent",
                     {"inconsistency": False, "witness": {"matrix": [[1]]}}),
        "b": _record("m/1/001", "inconsistent", {"inconsistency": True}),
        "c": _record("m/1/002", "consistent", {"inconsistency": False}),
        "d": _record("m/1/003", "consistent", {"inconsistency": False}),
        "only_old": _record("m/1/004", "consistent", {}),
    }
    new = {
        "a": _record("m/2/010", "consistent",
                     {"inconsistency": False, "witness": {"matrix": [[2]]}}),
        "b": _record("m/2/011", "consistent", {"inconsistency": False}),
        "c": _record("m/2/012", "deadline"),
        "d": _record("m/2/013", "consistent", {"inconsistency": False}),
    }
    flips, statuses, fields = verdict_diff.compare(old, new)
    assert [(a["id"], b["id"]) for a, b in flips] == [("m/1/001", "m/2/011")]
    assert [(a["id"], b["status"]) for a, b in statuses] == \
        [("m/1/002", "deadline")]
    assert fields == {("multiclass", "macro_plain", "witness"): 1}


def test_main_exits_1_only_on_a_flip(tmp_path, capsys):
    same = {"k": _record("m/1/000", "inconsistent", {"inconsistency": True})}
    flipped = {"k": _record("m/1/000", "consistent", {"inconsistency": False})}
    paths = {}
    for name, dump in [("old", same), ("same", same), ("flipped", flipped)]:
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(dump))
    assert verdict_diff.main(["compare", str(paths["old"]),
                              str(paths["same"])]) == 0
    assert verdict_diff.main(["compare", str(paths["old"]),
                              str(paths["flipped"])]) == 1
    assert "FLIP inconsistent -> consistent: m/1/000" in capsys.readouterr().out


def test_main_prints_each_changed_count_with_its_stratum_size(tmp_path,
                                                               capsys):
    old = {key: _record(f"m/1/00{i}", "consistent",
                        {"inconsistency": False, "witness": {"trace": i}})
           for i, key in enumerate("abc")}
    old["d"] = _record("m/1/003", "consistent", {"inconsistency": False},
                       stratum="micro_plain")
    new = json.loads(json.dumps(old))
    new["a"]["response"]["witness"] = {"trace": 9}
    paths = []
    for name, dump in [("old", old), ("new", new)]:
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(dump))
    assert verdict_diff.main(["compare", *map(str, paths)]) == 0
    assert "changed witness: multiclass/macro_plain: 1 of 3\n" in \
        capsys.readouterr().out


def test_request_keys_pair_equal_texts_only():
    assert verdict_diff.request_key("{}") == verdict_diff.request_key("{}")
    assert verdict_diff.request_key("{}") != verdict_diff.request_key("{ }")


def test_a_reordered_response_counts_as_changed_bytes_only(tmp_path, capsys):
    """Two responses that parse to the same dict but differ in key order
    change no field, count as changed bytes and exit 0."""
    texts = ('{"inconsistency": false, "witness": {"tp": 1, "tn": 2}}',
             '{"witness": {"tn": 2, "tp": 1}, "inconsistency": false}')
    dumps = []
    for text in texts:
        record = _record("m/1/000", "consistent", json.loads(text))
        record["sha256"] = verdict_diff.response_digest(text)
        dumps.append({"k": record})
    assert dumps[0]["k"]["response"] == dumps[1]["k"]["response"]
    flips, statuses, fields = verdict_diff.compare(*dumps)
    assert (flips, statuses) == ([], [])
    assert fields == {("multiclass", "macro_plain", "bytes"): 1}
    paths = []
    for name, dump in zip(("old", "new"), dumps):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(dump))
    assert verdict_diff.main(["compare", *map(str, paths)]) == 0
    assert "changed bytes: multiclass/macro_plain: 1 of 1\n" in \
        capsys.readouterr().out
