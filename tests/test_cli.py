import json
import subprocess
import sys
from pathlib import Path

import pytest

import coxpres
from coxpres.checks import report_from_obj, report_to_obj, run_checks
from coxpres.cli import main
from coxpres.collineation import Params, cox_presentation
from coxpres.geometry import Cone, Fan
from coxpres.serialize import (cas_export, cone_from_obj, cone_to_obj,
                               fan_from_obj, fan_to_obj,
                               presentation_from_obj, presentation_to_obj)


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_present_json_counts(capsys):
    code, out = run_cli(capsys, "present", "--c", "3", "--d", "3",
                        "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["variables"]) == 16
    assert len(obj["relations"]) == 15
    assert len(obj["degrees"]) == 16
    assert all(len(col) == 3 for col in obj["degrees"].values())


def test_present_degenerate(capsys):
    code, out = run_cli(capsys, "present", "--c", "2", "--d", "2")
    assert code == 0
    assert "T_0" in out and "0 relations" in out


def test_present_invalid_params(capsys):
    code = main(["present", "--c", "1", "--d", "3"])
    assert code == 2


@pytest.mark.parametrize("command", ["present", "verify", "cones", "gitfan"])
def test_size_above_cap_is_usage_error(command, monkeypatch, capsys):
    import coxpres.cli as cli

    def no_work(c, d):
        raise AssertionError("parameters built past the size cap")

    # the cap is checked before Params, so nothing is built or run
    monkeypatch.setattr(cli.col, "Params", no_work)
    d = cli.MAX_C_PLUS_D - 1
    code = main([command, "--c", "2", "--d", str(d)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: c + d must be at most {cli.MAX_C_PLUS_D}, "
                            f"got {cli.MAX_C_PLUS_D + 1}\n")


def test_present_writes_file(tmp_path, capsys):
    out_path = tmp_path / "pres.json"
    code = main(["present", "--c", "3", "--d", "3", "--format", "json",
                 "--out", str(out_path)])
    assert code == 0
    obj = json.loads(out_path.read_text(encoding="utf-8"))
    assert obj["regime"] == "general"


def test_present_unwritable_out_is_usage_error(tmp_path, capsys):
    out_path = tmp_path / "missing" / "pres.txt"
    code = main(["present", "--c", "3", "--d", "3", "--out", str(out_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out_path) in err
    assert not out_path.exists()


def test_verify_all_pass(capsys):
    code, out = run_cli(capsys, "verify", "--c", "3", "--d", "3")
    assert code == 0
    assert "0 failed" in out


def test_verify_selected_checks_json(capsys):
    code, out = run_cli(capsys, "verify", "--c", "4", "--d", "5", "--checks",
                        "grading,gale,pullback,segre,mori,gitfan",
                        "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert {c["id"] for c in obj["checks"]} == {
        "grading", "gale", "pullback", "segre", "mori", "gitfan"}
    assert all(c["status"] == "pass" for c in obj["checks"])


def test_verify_budget_skips(capsys):
    code, out = run_cli(capsys, "verify", "--c", "3", "--d", "3",
                        "--checks", "dimension", "--budget", "1")
    assert code == 0
    assert "SKIP" in out


def test_verify_strict_turns_skip_into_failure(capsys):
    code, _ = run_cli(capsys, "verify", "--c", "3", "--d", "3",
                      "--checks", "dimension", "--budget", "1", "--strict")
    assert code == 1


def test_verify_unknown_check(capsys):
    code = main(["verify", "--c", "3", "--d", "3", "--checks", "nonsense"])
    assert code == 2
    assert capsys.readouterr().err == "error: unknown checks: nonsense\n"


def test_cones_output(capsys):
    code, out = run_cli(capsys, "cones", "--c", "3", "--d", "4",
                        "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["effective"]["generators"] == [[0, 0, 1], [1, -1, 0], [1, 1, -1]]
    assert obj["movable"]["generators"] == [[1, -1, 0], [1, 0, 0], [1, 1, -1]]
    assert obj["semiample"] == "movable"


def test_cones_refuses_degenerate(capsys):
    code = main(["cones", "--c", "2", "--d", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "c > 2" in captured.err


def test_cones_degenerate_writes_no_output(tmp_path, capsys):
    # neither stdout under --format json nor the --out file gets the message
    assert main(["cones", "--c", "2", "--d", "3", "--format", "json"]) == 2
    out_path = tmp_path / "cones.json"
    assert main(["cones", "--c", "2", "--d", "3", "--format", "json",
                 "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: ") == 2 and captured.err.count("\n") == 2
    assert not out_path.exists()


@pytest.mark.parametrize("selection", [",", "", " , "])
def test_verify_empty_check_selection_is_usage_error(selection, capsys):
    code = main(["verify", "--c", "3", "--d", "3", "--checks", selection])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --checks names no check\n"


def test_gitfan_output(capsys):
    code, out = run_cli(capsys, "gitfan", "--c", "3", "--d", "3",
                        "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["fan"]["rays"] == [[1, 1], [1, 0], [1, -1]]
    assert obj["fan"]["maximal_cones"] == [[0, 1], [1, 2]]
    assert all(w["residuals_all_zero"] for w in obj["witnesses"])


def _run_cli_with_budget(budget):
    """Run the CLI in a child with a minimal env, so that no outer COXPRES_*
    setting leaks in; PYTHONPATH points at the coxpres imported here."""
    return subprocess.run(
        [sys.executable, "-m", "coxpres.cli", "verify", "--c", "3", "--d", "3",
         "--checks", "dimension"],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1",
             "COXPRES_BUDGET": budget,
             "PYTHONPATH": str(Path(coxpres.__file__).parents[1])})


def test_env_budget_respected(tmp_path):
    env_out = _run_cli_with_budget("1")
    assert env_out.returncode == 0
    assert "SKIP" in env_out.stdout


def test_env_budget_not_an_integer_is_usage_error():
    env_out = _run_cli_with_budget("abc")
    assert env_out.returncode == 2
    assert env_out.stderr.startswith("error: ")
    assert "Traceback" not in env_out.stderr


def test_cas_export_structure(capsys):
    code, out = run_cli(capsys, "present", "--c", "3", "--d", "3",
                        "--format", "cas-export")
    assert code == 0
    assert "ring R = 0," in out and "dp;" in out
    assert "ideal I =" in out
    # largest variable first
    assert "x1 = Tinf" in out
    assert out.count("x") > 16


def test_cas_export_degenerate_zero_ideal():
    text = cas_export(cox_presentation(Params(2, 2)))
    assert "ideal I = 0;" in text


# -- JSON round trips


@pytest.mark.parametrize("c,d", [(3, 3), (3, 2), (2, 2), (4, 4)])
def test_presentation_round_trip(c, d):
    pres = cox_presentation(Params(c, d))
    obj = json.loads(json.dumps(presentation_to_obj(pres)))
    back = presentation_from_obj(obj)
    assert back == pres


def test_cone_round_trip():
    cone = Cone.from_generators(3, [(1, 1, -1), (1, 0, 0), (0, 0, 1)])
    assert cone_from_obj(json.loads(json.dumps(cone_to_obj(cone)))) == cone


def test_fan_round_trip():
    fan = Fan(2, ((1, 1), (1, 0), (1, -1)), ((0, 1), (1, 2)), simplicial=True)
    assert fan_from_obj(json.loads(json.dumps(fan_to_obj(fan)))) == fan


def test_report_round_trip():
    report = run_checks(Params(3, 3), ["grading", "gale"])
    obj = json.loads(json.dumps(report_to_obj(report)))
    assert report_from_obj(obj) == report


def test_verify_degenerate_params_skip_cleanly(capsys):
    # checks that need c,d > 2 report skipped, the rest pass
    code, out = run_cli(capsys, "verify", "--c", "2", "--d", "2")
    assert code == 0
    assert "0 failed" in out
    assert "SKIP" in out


def test_crashing_check_reports_failure(monkeypatch):
    import coxpres.checks as checks_mod

    def boom(p, budget):
        raise RuntimeError("deliberate")

    monkeypatch.setitem(checks_mod.CHECKS, "boom", boom)
    report = run_checks(Params(3, 3), ["boom"])
    assert report.results[0].status == "fail"
    assert "deliberate" in report.results[0].actual
    assert report.exit_code() == 1


def test_failing_check_exit_code(monkeypatch, capsys):
    import coxpres.checks as checks_mod

    def wrong(p, budget):
        return {"value": 1}, {"value": 2}

    monkeypatch.setitem(checks_mod.CHECKS, "wrong", wrong)
    code, out = run_cli(capsys, "verify", "--c", "3", "--d", "3",
                        "--checks", "wrong")
    assert code == 1
    assert "FAIL" in out
