import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from bipotkit.bipotentials import (
    InfOfCoverBipotential,
    _contact_graph,
    certify,
    graph_of_bipotential,
    verify_axioms,
)
from bipotkit.demos import (
    DEMO_NAMES,
    build_antitone_law,
    build_cauchy_law,
    build_plasticity_law,
    build_sign_law,
    demo_setup,
    nonbic_cover,
    run_demo,
)
from bipotkit.formats import _probe_lines, dumps, probe_rows
from bipotkit.laws import bb_check, cyclic_monotonicity_check


def test_sign_law_is_bb_and_monotone():
    law = build_sign_law()
    assert bb_check(law).is_bb_graph
    assert cyclic_monotonicity_check(law).cyclically_monotone


def test_antitone_law_is_bb_but_not_monotone():
    law = build_antitone_law()
    assert bb_check(law).is_bb_graph
    report = cyclic_monotonicity_check(law)
    assert not report.cyclically_monotone
    assert report.cycle_sum == 1.0


def test_cauchy_law_is_bb():
    assert bb_check(build_cauchy_law()).is_bb_graph


def test_plasticity_law_is_bb_and_monotone():
    law = build_plasticity_law()
    assert bb_check(law).is_bb_graph
    assert cyclic_monotonicity_check(law).cyclically_monotone


def test_nonbic_cover_shape():
    cover = nonbic_cover()
    assert cover.family.lams() == [0.0, 1.0]
    assert cover.lsc_certificate == "assumed"


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demo_setup_keys(name):
    setup = demo_setup(name)
    assert {"law", "cover", "mode", "tol", "x_probes", "y_probes",
            "reference"} <= set(setup)
    assert setup["cover"].dim == setup["law"].dim


def test_run_demo_unknown_name(tmp_path, capsys=None):
    out = io.StringIO()
    assert run_demo("bogus", tmp_path / "out", out) == 1
    assert "unknown demo" in out.getvalue()


@pytest.mark.parametrize("name", ["separable", "plasticity"])
def test_run_demo_writes_artifacts(tmp_path, name):
    out = io.StringIO()
    code = run_demo(name, tmp_path / name, out)
    assert code == 0
    for artifact in ("law.json", "cover.json", "build.csv", "reports.json"):
        assert (tmp_path / name / artifact).exists()
    text = out.getvalue()
    assert "artifacts written to" in text


def test_separable_demo_reports_exact_agreement(tmp_path):
    out = io.StringIO()
    assert run_demo("separable", tmp_path / "s", out) == 0
    line = [l for l in out.getvalue().splitlines() if l.startswith("max |b -")][-1]
    assert line == "max |b - (phi(x) + phi*(y))| = 0"


def test_cauchy_norm_demo_reference_line(tmp_path):
    out = io.StringIO()
    assert run_demo("cauchy-norm", tmp_path / "n", out) == 0
    line = [l for l in out.getvalue().splitlines() if l.startswith("max |b -")][-1]
    # the norm sweep hits the indicator boundary, so the product is exact
    assert line == "max |b - ||x|| ||y||| = 0"


def test_cauchy_quadratic_demo_within_grid_tolerance(tmp_path):
    out = io.StringIO()
    assert run_demo("cauchy-quadratic", tmp_path / "q", out) == 0
    line = [l for l in out.getvalue().splitlines() if l.startswith("max |b -")][-1]
    worst = float(line.split("=")[1])
    assert 0 < worst <= 1e-3


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_run_demo_tabulates_the_probe_product_once(tmp_path, monkeypatch, name):
    calls = []
    table = InfOfCoverBipotential._table

    def counted(self, xg, yg):
        calls.append(self)
        return table(self, xg, yg)

    monkeypatch.setattr(InfOfCoverBipotential, "_table", counted)
    assert run_demo(name, tmp_path / name, io.StringIO()) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_certify_table_gives_what_the_public_functions_give(name):
    setup = demo_setup(name)
    xs, ys, tol = setup["x_probes"], setup["y_probes"], setup["tol"]
    report = certify(setup["cover"], xs, ys, law=setup["law"], mode=setup["mode"], tol=tol)
    b = report.bipotential
    assert dumps(report.axioms) == dumps(verify_axioms(b, xs, ys, tol))
    graph, public = _contact_graph(report.table, tol), graph_of_bipotential(b, xs, ys, tol)
    # the same pairs in the same row-major order
    assert np.array_equal(graph.xs, public.xs) and np.array_equal(graph.ys, public.ys)
    assert _probe_lines(report.table) == probe_rows(b, xs, ys)


def test_demo_runs_are_byte_identical(tmp_path):
    for d in ("a", "b"):
        assert run_demo("separable", tmp_path / d, io.StringIO()) == 0
    for artifact in ("law.json", "cover.json", "build.csv", "reports.json"):
        assert (tmp_path / "a" / artifact).read_bytes() == \
               (tmp_path / "b" / artifact).read_bytes()


PINS = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"
ARTIFACTS = ("law.json", "cover.json", "build.csv", "reports.json")


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demo_matches_benchmark_pins(tmp_path, name):
    # the byte-identity oracle: transcripts and artifacts pinned by sha256
    pins = json.loads(PINS.read_text())
    env = pins["baseline_env"]
    here = {"python": platform.python_version(), "numpy": np.__version__}
    if any(here[k] != env[k] for k in here):
        pytest.skip(f"pins recorded under python {env['python']}, numpy {env['numpy']}; "
                    f"this is python {here['python']}, numpy {here['numpy']}")
    out_dir = str(tmp_path / name)
    out = io.StringIO()
    assert run_demo(name, out_dir, out) == 0
    digests = {"transcript": out.getvalue().replace(out_dir, "<out-dir>").encode()}
    for artifact in ARTIFACTS:
        digests[artifact] = (tmp_path / name / artifact).read_bytes()
    got = {k: hashlib.sha256(v).hexdigest() for k, v in digests.items()}
    assert got == pins["demos"][name]
