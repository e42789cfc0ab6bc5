"""Command-line behavior: exit codes, deterministic JSON output, the
list subcommands, and schema validity of emitted verdicts."""

import json
from importlib import resources

import jsonschema
import pytest

from scoresleuth.cli import main

TEXTBOOK_SPEC = {
    "datasets": [
        {"testset": {"p": 100, "n": 1000}, "folding": {"kind": "none"}}
    ]
}
TEXTBOOK_SCORES = {"acc": "0.8464", "sens": "0.81", "f1": "0.4894"}


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_consistent_report_exits_zero(files, capsys):
    code, out = run(capsys, "check",
                    "--spec", files("spec.json", TEXTBOOK_SPEC),
                    "--scores", files("scores.json", TEXTBOOK_SCORES),
                    "--eps", "1e-4")
    assert code == 0
    payload = json.loads(out)
    assert payload["inconsistency"] is False
    assert payload["witness"] == {"tp": 81, "tn": 850}


def test_inconsistent_report_exits_one(files, capsys):
    scores = dict(TEXTBOOK_SCORES, acc="0.8474")
    code, out = run(capsys, "check",
                    "--spec", files("spec.json", TEXTBOOK_SPEC),
                    "--scores", files("scores.json", scores),
                    "--eps", "1e-4")
    assert code == 1
    assert json.loads(out)["inconsistency"] is True


def test_inferred_radius_from_decimal_text(files, capsys):
    code, _ = run(capsys, "check",
                  "--spec", files("spec.json", TEXTBOOK_SPEC),
                  "--scores", files("scores.json", TEXTBOOK_SCORES),
                  "--infer-eps")
    assert code == 0


def test_numeric_scores_cannot_infer_radius(files, capsys):
    code, _ = run(capsys, "check",
                  "--spec", files("spec.json", TEXTBOOK_SPEC),
                  "--scores", files("scores.json", {"acc": 0.8464}),
                  "--infer-eps")
    assert code == 2


def test_missing_eps_flag_is_a_usage_error(files, capsys):
    code, _ = run(capsys, "check",
                  "--spec", files("spec.json", TEXTBOOK_SPEC),
                  "--scores", files("scores.json", TEXTBOOK_SCORES))
    assert code == 2


def test_malformed_json_exits_two(tmp_path, files, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _ = run(capsys, "check", "--spec", str(broken),
                  "--scores", files("scores.json", TEXTBOOK_SCORES),
                  "--eps", "1e-4")
    assert code == 2


def test_unknown_bundle_exits_two(files, capsys):
    code, _ = run(capsys, "bundle", "--name", "drive",
                  "--scores", files("scores.json", {"acc": "0.9"}),
                  "--eps", "1e-2")
    assert code == 2


def test_bundle_check_matches_published_numbers(files, capsys):
    scores = {"acc": "0.7916", "sens": "0.2933", "spec": "0.9145"}
    code, out = run(capsys, "bundle", "--name", "isic2016",
                    "--scores", files("scores.json", scores),
                    "--eps", "1e-4")
    assert code == 0
    assert json.loads(out)["witness"] == {"tp": 22, "tn": 278}


def test_resource_limit_exits_three(files, capsys, monkeypatch):
    monkeypatch.setenv("SCORESLEUTH_CONFIG_CAP", "50")
    spec = {
        "datasets": [{"testset": {"p": 30, "n": 30},
                      "folding": {"kind": "unknown_folds_kfold", "k": 10}}],
        "fold_aggregation": "mean_of_scores",
    }
    code = main(["check", "--spec", files("spec.json", spec),
                 "--scores", files("scores.json", {"acc": "0.1234"}),
                 "--eps", "0"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""  # no verdict was reached
    assert "refused" in captured.err


def test_output_file_is_byte_deterministic(tmp_path, files, capsys):
    spec = files("spec.json", TEXTBOOK_SPEC)
    scores = files("scores.json", TEXTBOOK_SCORES)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["check", "--spec", spec, "--scores", scores,
                 "--eps", "1e-4", "--out", str(out_a)]) == 0
    assert main(["check", "--spec", spec, "--scores", scores,
                 "--eps", "1e-4", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    capsys.readouterr()


def test_unwritable_output_exits_two(tmp_path, files, capsys):
    """A verdict that cannot be written is a usage error, not a verdict."""
    out = tmp_path / "missing" / "verdict.json"
    code = main(["check", "--spec", files("spec.json", TEXTBOOK_SPEC),
                 "--scores", files("scores.json", TEXTBOOK_SCORES),
                 "--eps", "1e-4", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"cannot write {out}" in captured.err
    assert not out.parent.exists()


def test_timestamp_is_opt_in(files, capsys):
    spec = files("spec.json", TEXTBOOK_SPEC)
    scores = files("scores.json", TEXTBOOK_SCORES)
    _, plain = run(capsys, "check", "--spec", spec, "--scores", scores,
                   "--eps", "1e-4")
    _, stamped = run(capsys, "check", "--spec", spec, "--scores", scores,
                     "--eps", "1e-4", "--timestamp")
    assert "timestamp" not in json.loads(plain)
    assert "timestamp" in json.loads(stamped)


def test_verdicts_validate_against_shipped_schema(files, capsys):
    schema = json.loads(resources.files("scoresleuth.data.schemas")
                        .joinpath("consistency_result.schema.json")
                        .read_text())
    for acc in ("0.8464", "0.8474"):
        scores = dict(TEXTBOOK_SCORES, acc=acc)
        _, out = run(capsys, "check",
                     "--spec", files("spec.json", TEXTBOOK_SPEC),
                     "--scores", files(f"scores-{acc}.json", scores),
                     "--eps", "1e-4")
        jsonschema.validate(json.loads(out), schema)


def jsonlines(out):
    return [json.loads(line) for line in out.splitlines() if line]


AFFINE_IDS = {"acc", "err", "sens", "spec", "fpr", "fnr", "bacc", "youden"}


def test_list_scores(capsys):
    """One line per default score, in registry order: the data file's entry
    with the derived `linear` flag after `range`, true for exactly the
    eight affine scores."""
    code, out = run(capsys, "list", "--scores")
    assert code == 0
    entries = jsonlines(out)
    assert len(entries) == 20
    ids = {entry["id"] for entry in entries}
    assert {"acc", "sens", "spec", "f1", "mcc"} <= ids
    data = json.loads(resources.files("scoresleuth").joinpath(
        "data/scores.json").read_text("utf-8"))
    expected = []
    for entry in data["scores"]:
        if not entry["default"]:
            continue
        line = {key: entry[key] for key in ("id", "name", "formula", "range")}
        line["linear"] = entry["id"] in AFFINE_IDS
        line.update(monotone=entry["monotone"], default=True)
        expected.append(json.dumps(line) + "\n")
    assert out == "".join(expected)
    assert [e["id"] for e in entries] == [
        "acc", "err", "sens", "spec", "ppv", "npv", "fpr", "fnr", "fdr",
        "for", "f1", "fbeta", "fm", "gm", "bacc", "youden", "mk", "mcc",
        "kappa", "jac"]
    assert {e["id"] for e in entries if e["linear"]} == AFFINE_IDS


def test_list_bundles(capsys):
    code, out = run(capsys, "list", "--bundles")
    assert code == 0
    assert [b["id"] for b in jsonlines(out)] == ["isic2016"]


def test_list_procedures(capsys):
    code, out = run(capsys, "list", "--procedures")
    assert code == 0
    names = {p["id"] for p in jsonlines(out)}
    assert {"single_testset", "som_pooled", "mos_known_folds",
            "multiclass_micro", "multiclass_macro", "regression"} <= names
    assert len(names) == 11


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
