import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bipotkit
from bipotkit.bipotentials import embed_dual, embed_primal
from bipotkit.cli import _probe_stacks, main
from bipotkit.demos import DEMO_NAMES, build_antitone_law, build_sign_law, nonbic_cover
from bipotkit.formats import save_cover, save_law
from bipotkit.laws import LawGraph
from bipotkit.covers import norm_cover, quadratic_cover, separable_cover
from bipotkit.convex import Quadratic

from .exact import exact_cycle_sum


def v(*coords):
    return np.array([float(c) for c in coords])


@pytest.fixture
def files(tmp_path):
    paths = {}
    save_law(build_sign_law(), tmp_path / "sign.json")
    save_law(build_antitone_law(), tmp_path / "antitone.json")
    save_law(LawGraph([(v(0), v(-1)), (v(0), v(1))]), tmp_path / "nonbb.json")
    save_law(LawGraph([(v(0), v(0)), (v(1), v(1)), (v(2), v(2))]),
             tmp_path / "mono.json")
    save_law(LawGraph([(v(1.5), v(2.0))]), tmp_path / "single.json")
    save_cover(quadratic_cover(dim=1), tmp_path / "quad.json")
    save_cover(separable_cover(Quadratic(1.0, 1)), tmp_path / "sep.json")
    save_cover(nonbic_cover(), tmp_path / "nonbic.json")
    (tmp_path / "bad.json").write_text("{oops")
    for p in tmp_path.iterdir():
        paths[p.name.removesuffix(".json")] = str(p)
    paths["dir"] = tmp_path
    return paths


def assert_witness_is_exact(law, report, tol=1e-9):
    """A refusal's witness cycle sums exactly above 0, and its reported
    float sum lies above tol."""
    assert report["cycle_sum"] > tol
    assert exact_cycle_sum(law.xs, law.ys, report["witness_cycle"]) > 0


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check-law


def test_check_law_sign(files, capsys):
    code, out, _ = run(capsys, "check-law", files["sign"])
    assert code == 0
    report = json.loads(out)
    assert report["bb_report"]["is_bb_graph"]
    assert report["cycle_report"]["cyclically_monotone"]


def test_check_law_antitone_is_bb_with_cycle_witness(files, capsys):
    code, out, _ = run(capsys, "check-law", files["antitone"])
    assert code == 0
    report = json.loads(out)
    assert report["bb_report"]["is_bb_graph"]
    assert not report["cycle_report"]["cyclically_monotone"]
    assert report["cycle_report"]["witness_cycle"] == [0, 1]
    assert report["cycle_report"]["cycle_sum"] == 1.0
    assert_witness_is_exact(build_antitone_law(), report["cycle_report"])


def test_check_law_non_bb_exits_two(files, capsys):
    code, out, _ = run(capsys, "check-law", files["nonbb"])
    assert code == 2
    report = json.loads(out)
    assert report["bb_report"]["failing_slice"]["witness_midpoint"] == [0.0]


def test_check_law_malformed_json(files, capsys):
    code, out, err = run(capsys, "check-law", files["bad"])
    assert code == 1 and out == "" and "malformed" in err


def test_check_law_missing_file(capsys):
    code, _, err = run(capsys, "check-law", "no-such-file.json")
    assert code == 1 and err


def test_check_law_integer_beyond_float_range(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dimension": 1, "pairs": [[[10 ** 400], [1.0]]]}))
    code, out, err = run(capsys, "check-law", str(path))
    assert code == 1 and out == ""
    assert err == ("pair 0 x coordinate must be finite, "
                   "got an integer beyond the float range\n")


def test_check_law_hint_shape_that_is_not_a_string(tmp_path, capsys):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"dimension": 1, "pairs": [[[0.0], [0.0]]], "slice_hints": [
        {"at": [0.0], "shape": ["ball"], "params": {}}]}))
    code, out, err = run(capsys, "check-law", str(path))
    assert code == 1 and out == ""
    assert err == ("hint shape must be one of ['ball', 'ray', 'segment', 'singleton'], "
                   "got ['ball']\n")


def test_check_law_slice_hints_that_are_not_a_list(tmp_path, capsys):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"dimension": 1, "pairs": [[[0.0], [0.0]]],
                                "slice_hints": {"at": [0.0]}}))
    assert run(capsys, "check-law", str(path)) == (1, "", "slice_hints must be a list\n")


# ---------------------------------------------------------------------------
# reconstruct


def test_reconstruct_monotone_chain(files, capsys):
    code, out, _ = run(capsys, "reconstruct", files["mono"])
    assert code == 0
    report = json.loads(out)
    pieces = [(p["slope"][0], p["offset"]) for p in report["pieces"]]
    assert pieces == [(0.0, 0.0), (1.0, -1.0), (2.0, -3.0)]
    assert report["base_index"] == 0


def test_reconstruct_single_pair(files, capsys):
    code, out, _ = run(capsys, "reconstruct", files["single"])
    assert code == 0
    report = json.loads(out)
    assert report["pieces"] == [{"slope": [2.0], "offset": -3.0}]


def test_reconstruct_base_flag(files, capsys):
    code, out, _ = run(capsys, "reconstruct", files["mono"], "--base", "2")
    assert code == 0
    assert json.loads(out)["base_index"] == 2


def test_reconstruct_base_out_of_range(files, capsys):
    code, _, err = run(capsys, "reconstruct", files["mono"], "--base", "9")
    assert code == 1 and "out of range" in err


def test_reconstruct_antitone_exits_two_with_witness(files, capsys):
    code, out, err = run(capsys, "reconstruct", files["antitone"])
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "not-cyclically-monotone"
    assert report["witness_cycle"] == [0, 1]
    assert report["cycle_sum"] == 1.0
    assert_witness_is_exact(build_antitone_law(), report)


def test_reconstruct_output_is_deterministic(files, capsys):
    _, first, _ = run(capsys, "reconstruct", files["mono"])
    _, second, _ = run(capsys, "reconstruct", files["mono"])
    assert first == second


# ---------------------------------------------------------------------------
# build


def test_build_quadratic_probe_grid(files, capsys):
    code, out, _ = run(capsys, "build", files["quad"], "--probe-grid", "-1:1:3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,y,b,pairing"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 9
    for x, y, b, pairing in rows:
        assert float(b) == abs(float(x)) * abs(float(y))
        assert float(pairing) == float(x) * float(y)


def test_build_separable_value(files, capsys):
    code, out, _ = run(capsys, "build", files["sep"], "--probe-grid", "1:2:2")
    assert code == 0
    assert "1,2,2.5,2" in out.splitlines()


def test_build_rows_are_lexicographic(files, capsys):
    _, out, _ = run(capsys, "build", files["quad"], "--probe-grid", "-1:1:3")
    xs = [float(l.split(",")[0]) for l in out.splitlines()[1:]]
    assert xs == sorted(xs)


def test_build_analytic_on_tabulated_exits_three(files, capsys):
    code, out, err = run(capsys, "build", files["nonbic"])
    assert code == 3 and out == ""
    assert err == "tabulated families have no closed-form infimum; use mode='grid'\n"


def test_build_grid_mode_on_tabulated(files, capsys):
    code, out, _ = run(capsys, "build", files["nonbic"], "--mode", "grid",
                       "--probe-grid", "0:1:2")
    assert code == 0 and out.splitlines()[0] == "x,y,b,pairing"


@pytest.mark.parametrize("dim", [None, 2.7, "2", True])
def test_build_on_a_form_of_bad_dimension(tmp_path, capsys, dim):
    form = {"form": "quadratic", "scale": 1.0, "dimension": dim}
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"family": "tabulated", "entries": [
        {"lambda": 1.0, "potential": form, "conjugate": {"form": "quadratic", "scale": 1.0}}]}))
    code, out, err = run(capsys, "build", str(path), "--mode", "grid")
    assert (code, out) == (1, "")
    assert err == f"dimension must be an integer in [1, 3], got {dim!r}\n"


@pytest.mark.parametrize("spec", ["-2:2:9", "-0.0:-0.0:2", "-1e-300:3:4"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_probe_stacks_equal_the_embedded_probes_bit_for_bit(spec, dim):
    xs, ys = _probe_stacks(dim, spec)
    g = np.linspace(*map(float, spec.split(":")[:2]), int(spec.split(":")[2]))
    want_x = np.array([embed_primal(s, dim) for s in g])
    want_y = np.array([embed_dual(t, dim) for t in g])
    assert xs.shape == want_x.shape and xs.tobytes() == want_x.tobytes()
    assert ys.shape == want_y.shape and ys.tobytes() == want_y.tobytes()


def test_build_bad_probe_grid(files, capsys):
    code, _, err = run(capsys, "build", files["quad"], "--probe-grid", "oops")
    assert code == 1 and "lo:hi:count" in err


@pytest.mark.parametrize("flag", ["--probe-grid", "--lambda-grid"])
def test_grid_spanning_the_float_range_is_a_usage_error(files, capsys, flag):
    # both ends are finite, but hi - lo overflows, so the nodes would not be
    code, out, err = run(capsys, "build", files["quad"], "--mode", "grid",
                         f"{flag}=-1.7e308:1.7e308:3")
    assert code == 1 and out == ""
    assert err == f"{flag} nodes must be finite, got '-1.7e308:1.7e308:3'\n"


def test_build_lambda_grid_applies_to_grid_mode(files, capsys):
    code, out, _ = run(capsys, "build", files["quad"], "--mode", "grid",
                       "--probe-grid", "1:1:2", "--lambda-grid", "0.5:2:3")
    assert code == 0
    # grid {0.5, 1, 2} contains the exact minimizer lam = 1 for (1, 1)
    assert out.splitlines()[1] == "1,1,1,1"


def test_build_is_deterministic(files, capsys):
    _, first, _ = run(capsys, "build", files["quad"], "--probe-grid", "-2:2:9")
    _, second, _ = run(capsys, "build", files["quad"], "--probe-grid", "-2:2:9")
    assert first == second


# ---------------------------------------------------------------------------
# verify


def test_verify_law_sign(files, capsys):
    code, out, _ = run(capsys, "verify", "--law", files["sign"])
    assert code == 0
    report = json.loads(out)
    assert report["bb_report"]["is_bb_graph"]
    assert report["axioms"]["lower_bound_ok"]


def test_verify_law_non_bb_exits_two(files, capsys):
    code, out, _ = run(capsys, "verify", "--law", files["nonbb"])
    assert code == 2
    assert not json.loads(out)["bb_report"]["is_bb_graph"]


def test_verify_cover_non_bic_exits_two(files, capsys):
    code, out, _ = run(capsys, "verify", "--cover", files["nonbic"])
    assert code == 2
    report = json.loads(out)
    assert not report["bic"]["is_bic"]
    assert report["bic"]["counterexamples"]


def test_verify_cover_without_law_has_no_coverage(files, capsys):
    code, out, _ = run(capsys, "verify", "--cover", files["quad"])
    assert code == 0
    assert set(json.loads(out)) == {"bic", "axioms"}


def test_verify_cover_against_law_of_another_dimension(files, tmp_path, capsys):
    save_cover(quadratic_cover(dim=3), tmp_path / "quad3.json")
    code, out, err = run(capsys, "verify", "--cover", str(tmp_path / "quad3.json"),
                         "--law", files["sign"])
    assert code == 1 and out == ""
    assert err == "cover dimension 3 != law dimension 1\n"


def test_verify_cover_integer_beyond_float_range(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"family": "quadratic", "dimension": 1,
                                "lambda_domain": {"lo": 10 ** 400, "hi": "inf"}}))
    code, out, err = run(capsys, "verify", "--cover", str(path))
    assert code == 1 and out == ""
    assert err == ("lambda_domain.lo must be finite, "
                   "got an integer beyond the float range\n")


def test_verify_analytic_on_tabulated_exits_three(files, capsys):
    code, out, err = run(capsys, "verify", "--cover", files["nonbic"], "--mode", "analytic")
    assert code == 3 and out == "" and "grid" in err


def test_verify_demo_plasticity(capsys):
    code, out, _ = run(capsys, "verify", "--demo", "plasticity")
    assert code == 0
    report = json.loads(out)
    assert report["coverage"]["covered"] and report["bic"]["is_bic"]


def test_verify_demo_cauchy_quadratic(capsys):
    code, out, _ = run(capsys, "verify", "--demo", "cauchy-quadratic")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"coverage", "bic", "axioms"}


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_verify_demo_prints_the_demo_reports(name, tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--demo", name)
    assert code == 0
    assert run(capsys, "demo", name, "--out-dir", str(tmp_path))[0] == 0
    assert out == (tmp_path / "reports.json").read_text()


def test_verify_demo_unknown(capsys):
    code, _, err = run(capsys, "verify", "--demo", "mystery")
    assert code == 1 and "unknown demo" in err


def test_verify_requires_a_source(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 1 and "needs" in err


@pytest.mark.parametrize("extra", [
    ["--cover", "quad"], ["--law", "sign"], ["--mode", "grid"], ["--tol", "5"],
    ["--probe-grid", "0:1:2"], ["--lambda-grid", "0.1:10:5"],
])
def test_verify_demo_refuses_options_it_ignores(files, capsys, extra):
    extra = [files.get(a, a) for a in extra]
    code, out, err = run(capsys, "verify", "--demo", "separable", *extra)
    assert code == 1 and out == "" and extra[0] in err


def test_verify_demo_refuses_a_missing_cover_file(capsys):
    code, out, err = run(capsys, "verify", "--demo", "separable", "--tol", "5",
                         "--mode", "grid", "--probe-grid", "0:1:2", "--cover", "nonexist.json")
    assert code == 1 and out == ""
    assert all(flag in err for flag in ("--cover", "--mode", "--tol", "--probe-grid"))


@pytest.mark.parametrize("extra", [
    ["--mode", "grid"], ["--probe-grid", "0:1:2"], ["--lambda-grid", "0.1:10:5"],
])
def test_verify_law_without_cover_refuses_cover_options(files, capsys, extra):
    code, out, err = run(capsys, "verify", "--law", files["sign"], *extra)
    assert code == 1 and out == "" and extra[0] in err


def test_verify_law_takes_tol(files, capsys):
    code, _, _ = run(capsys, "verify", "--law", files["sign"], "--tol", "1e-6")
    assert code == 0


def test_verify_cover_probe_grid_defaults_to_21_points(files, capsys):
    # the non-BIC cover's axiom report lists probes, so the grid shows
    _, default, _ = run(capsys, "verify", "--cover", files["nonbic"])
    _, explicit, _ = run(capsys, "verify", "--cover", files["nonbic"], "--probe-grid", "-2:2:21")
    _, other, _ = run(capsys, "verify", "--cover", files["nonbic"], "--probe-grid", "-2:2:9")
    assert default == explicit != other


@pytest.mark.parametrize("command", [["check-law"], ["reconstruct"], ["verify", "--law"]],
                         ids=["check-law", "reconstruct", "verify"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9"])
def test_tol_must_be_finite_and_nonnegative(files, capsys, command, tol):
    # the antitone law is not cyclically monotone; a NaN or inf tolerance
    # used to accept it
    code, out, err = run(capsys, *command, files["antitone"], f"--tol={tol}")
    assert code == 1 and out == "" and "--tol" in err


# ---------------------------------------------------------------------------
# demo


def test_demo_unknown_name(tmp_path, capsys):
    code, out, _ = run(capsys, "demo", "mystery", "--out-dir", str(tmp_path / "x"))
    assert code == 1


def test_demo_unknown(tmp_path, capsys):
    # a usage error, on standard error as for verify --demo
    code, out, err = run(capsys, "demo", "mystery", "--out-dir", str(tmp_path / "x"))
    assert code == 1 and out == "" and "unknown demo" in err
    assert not (tmp_path / "x").exists()


def test_demo_separable(tmp_path, capsys):
    out_dir = tmp_path / "sep-demo"
    code, out, _ = run(capsys, "demo", "separable", "--out-dir", str(out_dir))
    assert code == 0
    assert (out_dir / "build.csv").exists()
    assert "max |b - (phi(x) + phi*(y))| = 0" in out


# ---------------------------------------------------------------------------
# flag parsing


def test_grid_flag_equals_form(files, capsys):
    code, out, _ = run(capsys, "build", files["quad"], "--probe-grid=-1:1:3")
    assert code == 0 and len(out.splitlines()) == 10


def test_grid_flag_split_form_with_dash(files, capsys):
    code, out, _ = run(capsys, "build", files["quad"], "--probe-grid", "-1:1:3")
    assert code == 0 and len(out.splitlines()) == 10


# ---------------------------------------------------------------------------
# one parser per process


def test_consecutive_calls_match_fresh_processes(files, capsys):
    # main builds its parser once; a call must not see an earlier call's
    # arguments or defaults
    calls = [["verify", "--demo", "separable", "--tol", "5"],
             ["verify", "--demo", "separable"],
             ["check-law", files["sign"]]]
    in_process = [run(capsys, *argv)[:2] for argv in calls]
    assert [code for code, _ in in_process] == [1, 0, 0]
    env = dict(os.environ, PYTHONPATH=str(Path(bipotkit.__file__).parents[1]))
    for argv, (code, out) in zip(calls, in_process):
        fresh = subprocess.run([sys.executable, "-m", "bipotkit.cli", *argv], env=env,
                               capture_output=True, text=True)
        assert (fresh.returncode, fresh.stdout) == (code, out)
