"""Command-line front end: exit codes, seed resolution, output formats,
and the demo narratives."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from effectus import INSTANCES
from effectus.cli import main
from effectus.harness import DEFAULT_SEED, applicable_laws

FAST = ["--cases", "4"]

REPORT_KEYS = {"instance", "law", "cases", "failures", "witnesses",
               "max_residual", "seed"}


# ---------------------------------------------------------------------------
# check: exit codes.
# ---------------------------------------------------------------------------


def test_check_single_instance_passes(capsys):
    assert main(["check", "--instance", "sets"] + FAST) == 0
    out = capsys.readouterr().out
    assert "all laws hold" in out
    assert "FAIL" not in out


def test_check_dist_500_cases_seed_11():
    assert main(["check", "--instance", "dist", "--cases", "500",
                 "--seed", "11"]) == 0


def test_check_overtight_vn_tolerance_fails_gracefully(capsys):
    assert main(["check", "--instance", "vn", "--tolerance", "1e-15"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "LAW FAILURES DETECTED" in out


def test_check_unknown_instance_is_usage_error(capsys):
    assert main(["check", "--instance", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "unknown instance 'nosuch'" in err
    assert "sets" in err and "vn" in err


def test_check_unknown_law_is_usage_error(capsys):
    assert main(["check", "--law", "nosuch"]) == 2
    assert "unknown law" in capsys.readouterr().err


@pytest.mark.parametrize("instance,law", [("fp", "instrument"),
                                          ("sets", "cp-sanity")])
def test_check_law_foreign_to_the_instance_is_usage_error(instance, law, capsys):
    # such a run has no cases, so it must not read as all laws holding
    assert main(["check", "--instance", instance, "--law", law]) == 2
    captured = capsys.readouterr()
    assert "all laws hold" not in captured.out
    assert f"does not apply to instance {instance!r}" in captured.err
    laws = ", ".join(applicable_laws(INSTANCES[instance]))
    assert captured.err.rstrip().endswith(f"one of: {laws}")


@pytest.mark.parametrize("cases", ["-3", "0"])
def test_check_rejects_case_count_below_one(cases, capsys):
    assert main(["check", "--instance", "sets", f"--cases={cases}"]) == 2
    captured = capsys.readouterr()
    assert f"--cases must be at least 1, got {cases}" in captured.err
    assert "all laws hold" not in captured.out


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "-1e-9"])
def test_check_rejects_non_finite_or_negative_tolerance(tol, capsys):
    assert main(["check", "--instance", "sets", f"--tolerance={tol}"]
                + FAST) == 2
    captured = capsys.readouterr()
    assert "--tolerance must be finite and non-negative" in captured.err
    assert captured.out == ""


def test_check_accepts_zero_tolerance_on_exact_instance():
    assert main(["check", "--instance", "sets", "--tolerance", "0"]
                + FAST) == 0


# ---------------------------------------------------------------------------
# check: seed resolution.
# ---------------------------------------------------------------------------


def _reported_seeds(path):
    with open(path) as fh:
        result = json.load(fh)
    return result, {r["seed"] for r in result["reports"]}


def test_seed_defaults_to_fixed_constant(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("EFFECTUS_SEED", raising=False)
    out = tmp_path / "r.json"
    assert main(["check", "--instance", "sets", "--law", "kleisli-laws",
                 "--format", "json", "-o", str(out)] + FAST) == 0
    result, seeds = _reported_seeds(out)
    assert seeds == {DEFAULT_SEED}


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("EFFECTUS_SEED", "777")
    out = tmp_path / "r.json"
    assert main(["check", "--instance", "sets", "--law", "kleisli-laws",
                 "--format", "json", "-o", str(out)] + FAST) == 0
    _, seeds = _reported_seeds(out)
    assert seeds == {777}


def test_seed_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("EFFECTUS_SEED", "777")
    out = tmp_path / "r.json"
    assert main(["check", "--instance", "sets", "--law", "kleisli-laws",
                 "--seed", "31", "--format", "json", "-o", str(out)] + FAST) == 0
    _, seeds = _reported_seeds(out)
    assert seeds == {31}


def test_invalid_seed_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("EFFECTUS_SEED", "not-a-number")
    assert main(["check", "--instance", "sets"] + FAST) == 2
    assert "EFFECTUS_SEED" in capsys.readouterr().err


# random.Random(-3) draws as random.Random(3), so seed -3 would report -3
# and run seed 3's cases.
@pytest.mark.parametrize("flag", [["--seed", "-3"], ["--seed=-3"]])
def test_negative_seed_flag_is_usage_error(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--instance", "sets"] + flag + FAST)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --seed: must be an integer of at least 0, got '-3'" in captured.err
    assert captured.out == ""


def test_negative_seed_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("EFFECTUS_SEED", "-3")
    assert main(["check", "--instance", "sets"] + FAST) == 2
    captured = capsys.readouterr()
    assert "EFFECTUS_SEED must be an integer of at least 0, got '-3'" in captured.err
    assert captured.out == ""


def test_seed_zero_is_accepted(tmp_path, monkeypatch):
    monkeypatch.setenv("EFFECTUS_SEED", "0")
    out = tmp_path / "r.json"
    argv = ["check", "--instance", "sets", "--law", "kleisli-laws",
            "--format", "json", "-o", str(out)] + FAST
    assert main(argv) == 0
    assert _reported_seeds(out)[1] == {0}
    monkeypatch.delenv("EFFECTUS_SEED")
    assert main(argv + ["--seed", "0"]) == 0
    assert _reported_seeds(out)[1] == {0}


# ---------------------------------------------------------------------------
# check: output formats.
# ---------------------------------------------------------------------------


def test_json_report_file_matches_schema(tmp_path):
    out = tmp_path / "report.json"
    assert main(["check", "--instance", "ring", "--format", "json",
                 "-o", str(out)] + FAST) == 0
    result = json.loads(out.read_text())
    assert set(result) == {"ok", "reports"}
    assert result["ok"] is True
    assert result["reports"]
    for report in result["reports"]:
        assert set(report) == REPORT_KEYS
        assert report["instance"] == "ring"


def test_unwritable_report_file_is_usage_error(tmp_path, capsys, monkeypatch):
    # exit 1 means law failures, so a write error must not reach it; and
    # the path is found unwritable before the suite runs
    def no_suite(specs):
        raise AssertionError("the suite ran before the report file opened")

    monkeypatch.setattr("effectus.cli.run_suite", no_suite)
    out = tmp_path / "no" / "such" / "dir" / "r.json"
    assert main(["check", "--instance", "fp", "--law", "kleisli-laws",
                 "-o", str(out)] + FAST) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"effectus: cannot write {out}: "
                            "No such file or directory\n")


def test_json_stdout_matches_file_output(tmp_path, capsys):
    args = ["check", "--instance", "fp", "--format", "json"] + FAST
    assert main(args) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "r.json"
    assert main(args + ["-o", str(out)]) == 0
    assert printed.strip() == out.read_text().strip()


def test_human_report_lists_every_law(capsys):
    assert main(["check", "--instance", "hilb"] + FAST) == 0
    out = capsys.readouterr().out
    for law in ("kleisli-laws", "subst-functor", "truth-falsum",
                "quotient-adjunction", "comprehension-adjunction",
                "factorization", "coincidence", "sharpness"):
        assert law in out


def test_law_filter_runs_one_law(tmp_path):
    out = tmp_path / "r.json"
    assert main(["check", "--law", "kleisli-laws", "--format", "json",
                 "-o", str(out)] + FAST) == 0
    result = json.loads(out.read_text())
    assert {r["law"] for r in result["reports"]} == {"kleisli-laws"}
    assert len(result["reports"]) == 7


# ---------------------------------------------------------------------------
# list-instances.
# ---------------------------------------------------------------------------


def test_list_instances_human(capsys):
    assert main(["list-instances"]) == 0
    out = capsys.readouterr().out
    for name in ("sets", "nondet", "dist", "fp", "hilb", "ring", "vn"):
        assert name in out
    assert "laws:" in out


def test_list_instances_json(capsys):
    assert main(["list-instances", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["name"] for r in rows} == {"sets", "nondet", "dist", "fp",
                                         "hilb", "ring", "vn"}
    for row in rows:
        assert set(row) == {"name", "description", "exact", "laws"}
        assert "kleisli-laws" in row["laws"]


def test_list_instances_json_matches_golden(capsys):
    assert main(["list-instances", "--format", "json"]) == 0
    golden = Path(__file__).resolve().parent / "data" / "list_instances.json"
    assert capsys.readouterr().out == golden.read_text()


# ---------------------------------------------------------------------------
# explain.
# ---------------------------------------------------------------------------


def test_explain_all_laws(capsys):
    assert main(["explain"]) == 0
    out = capsys.readouterr().out
    assert "quotient-adjunction:" in out
    assert "cp-sanity:" in out


def test_explain_one_law(capsys):
    assert main(["explain", "sharpness"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sharpness:")
    assert "idempotent" in out


def test_explain_unknown_law(capsys):
    assert main(["explain", "nosuch"]) == 2
    assert "unknown law" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# demo.
# ---------------------------------------------------------------------------


def test_demo_all_sections(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    for header in ("sets:", "dist:", "ring:", "vn:"):
        assert header in out


def test_demo_sets_section(capsys):
    assert main(["demo", "sets"]) == 0
    out = capsys.readouterr().out
    assert "X = {1, 2, 3}" in out
    assert "side-effect free: True" in out
    assert "ring:" not in out


@pytest.mark.parametrize("scenario", ["sets", "dist", "ring"])
def test_demo_text_matches_golden(scenario, capsys):
    assert main(["demo", scenario]) == 0
    golden = Path(__file__).resolve().parent / "data" / f"demo_{scenario}.txt"
    assert capsys.readouterr().out == golden.read_text()


def test_demo_ring_decomposition(capsys):
    assert main(["demo", "ring"]) == 0
    out = capsys.readouterr().out
    assert "Z6" in out
    assert "Z2 x Z3" in out
    assert "decompose(5) = ((3,), (2,))" in out


def test_demo_vn_side_effects(capsys):
    assert main(["demo", "vn"]) == 0
    out = capsys.readouterr().out
    assert "side-effect free for diag(1, 1/2): False" in out
    assert "side-effect free for a rotated unsharp effect: False" in out
    assert "side-effect free for the scalar effect 0.3*I: True" in out


def test_demo_unknown_scenario(capsys):
    assert main(["demo", "nosuch"]) == 2
    assert "unknown demo scenario" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Entry point plumbing.
# ---------------------------------------------------------------------------


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "effectus.cli", "explain", "coincidence"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "coincidence:" in proc.stdout


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What pip writes into a console script, minus the shebang.
_CONSOLE_SCRIPT = """\
import sys
from importlib.metadata import EntryPoint
entry = EntryPoint(name="effectus", value={spec!r}, group="console_scripts")
func = entry.load()
sys.argv[0] = "effectus"
sys.exit(func())
"""


def _declared_script(name):
    """The ``[project.scripts]`` value this checkout declares for *name*."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def _run_console_script(spec, *args):
    """Run *spec* (``module:callable``) the way its console script would."""
    return subprocess.run(
        [sys.executable, "-c", _CONSOLE_SCRIPT.format(spec=spec), *args],
        capture_output=True, text=True)


def test_console_script_entry_point():
    proc = _run_console_script(_declared_script("effectus"), "list-instances")
    assert proc.returncode == 0
    assert "vn" in proc.stdout


@pytest.mark.parametrize("spec, error", [
    ("effectus.cli:no_such_callable",
     "AttributeError: module 'effectus.cli' has no attribute"
     " 'no_such_callable'"),
    ("effectus.no_such_module:main",
     "ModuleNotFoundError: No module named 'effectus.no_such_module'"),
])
def test_console_script_broken_entry_fails(spec, error):
    proc = _run_console_script(spec, "list-instances")
    assert proc.returncode != 0
    assert error in proc.stderr
