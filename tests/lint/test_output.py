"""Golden renderings, CLI exit-code semantics, and the api surface."""

import json
from pathlib import Path

import pytest

from repro import api
from repro.cli import main
from repro.io.netlist import load_netlist
from repro.lint import LintError, lint, lint_path
from repro.specs import CircuitSpec, ExperimentSpec, SpecError

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"
EXAMPLES = Path(__file__).parents[2] / "examples" / "netlists"


# --------------------------------------------------------------------------- #
# Golden output
# --------------------------------------------------------------------------- #


def test_golden_text():
    report = lint_path(GOLDEN / "bad_netlist.json", source="bad_netlist.json")
    expected = (GOLDEN / "bad_netlist.txt").read_text()
    assert report.render() + "\n" == expected


def test_golden_json():
    report = lint_path(GOLDEN / "bad_netlist.json", source="bad_netlist.json")
    expected = (GOLDEN / "bad_netlist.expected.json").read_text()
    assert report.to_json() + "\n" == expected
    # and the JSON form is loadable and consistent with the report
    data = json.loads(expected)
    assert data["ok"] is False
    assert data["counts"]["error"] == len(report.errors)
    assert [d["code"] for d in data["diagnostics"]] == [d.code for d in report]


def test_report_summary_pluralisation():
    clean = lint_path(FIXTURES / "REP001_pass.json")
    assert clean.summary() == "0 errors, 0 warnings, 0 info"
    one = lint_path(FIXTURES / "REP106_fail.json")
    assert one.summary().startswith(f"{len(one.errors)} error")


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #


def test_cli_clean_netlists_exit_zero(capsys):
    rc = main(["lint", str(EXAMPLES / "inverter_chain.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 errors, 0 warnings, 0 info" in out


def test_cli_error_findings_exit_one(capsys):
    rc = main(["lint", str(FIXTURES / "REP002_fail.json")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "REP002 error" in out


def test_cli_multiple_paths_worst_exit_wins(capsys):
    rc = main(
        [
            "lint",
            str(FIXTURES / "REP001_pass.json"),
            str(FIXTURES / "REP002_fail.json"),
        ]
    )
    capsys.readouterr()
    assert rc == 1


def test_cli_unreadable_input_exit_two(capsys):
    rc = main(["lint", str(FIXTURES / "does_not_exist.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err


def test_cli_invalid_json_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["lint", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "not valid JSON" in err


def test_cli_json_output(capsys):
    rc = main(["lint", "--json", str(FIXTURES / "REP106_fail.json")])
    out = capsys.readouterr().out
    assert rc == 1
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 1
    assert payload[0]["ok"] is False
    assert any(d["code"] == "REP106" for d in payload[0]["diagnostics"])


def test_cli_stdin(monkeypatch, capsys):
    import io

    doc = json.loads((FIXTURES / "REP106_fail.json").read_text())
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    rc = main(["lint", "-"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "<stdin>:" in out


def test_cli_stdin_invalid_json(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("]["))
    rc = main(["lint", "-"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "<stdin>" in err


# --------------------------------------------------------------------------- #
# api.lint and input coercion
# --------------------------------------------------------------------------- #


def test_api_lint_accepts_path_str():
    report = api.lint(str(EXAMPLES / "inverter_chain.json"))
    assert report.ok
    assert report.source == str(EXAMPLES / "inverter_chain.json")


def test_api_lint_accepts_netlist_and_specs():
    netlist = load_netlist(EXAMPLES / "inverter_chain.json")
    assert api.lint(netlist).ok
    assert api.lint(netlist.circuit).ok  # CircuitSpec
    assert api.lint(netlist.circuit.to_dict()).ok  # bare circuit dict
    assert api.lint(netlist.build()).ok  # live Circuit (via to_spec)
    spec = ExperimentSpec("theorem9", {"eta_plus": 0.05})
    assert api.lint(spec).ok
    assert api.lint({"kind": "theorem9", "eta_plus": 0.05}).ok


def test_api_lint_rejects_unlintable_objects():
    with pytest.raises(SpecError):
        api.lint(42)
    with pytest.raises(SpecError):
        api.lint({"neither": "circuit", "nor": "experiment"})


def test_validate_hook_raises_lint_error():
    doc = json.loads((FIXTURES / "REP002_fail.json").read_text())
    with pytest.raises(LintError) as excinfo:
        api.simulate(doc, {}, 1.0, validate=True)
    assert any(d.code == "REP002" for d in excinfo.value.report.errors)
    assert "lint failed" in str(excinfo.value)


def test_validate_hook_passes_clean_spec():
    netlist = load_netlist(EXAMPLES / "inverter_chain.json")
    execution = api.simulate(
        netlist.circuit, netlist.inputs, netlist.end_time, validate=True
    )
    assert execution.event_count > 0


def test_experiment_validate_hook():
    with pytest.raises(LintError) as excinfo:
        api.experiment("theorem9", {"not_a_param": 1}, validate=True)
    assert any(d.code == "REP502" for d in excinfo.value.report.errors)
    # A value of the wrong type for its default is the same rule's finding.
    report = api.lint({"kind": "theorem9", "end_time": "x"})
    assert [(d.code, d.path) for d in report.errors] == [("REP502", "/end_time")]


def test_warnings_do_not_fail_validation():
    report = lint_path(FIXTURES / "REP301_fail.json")
    assert report.warnings and report.ok


def test_example_netlists_and_experiment_defaults_are_clean():
    from repro.specs import experiment_kinds, get_experiment_kind

    for path in sorted(EXAMPLES.glob("*.json")):
        report = lint_path(path)
        assert report.ok, f"{path}: {report.render()}"
    for kind in experiment_kinds():
        doc = {"kind": kind, **get_experiment_kind(kind).defaults}
        report = lint(doc)
        assert report.ok and not report.warnings, f"{kind}: {report.render()}"
