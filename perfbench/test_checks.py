"""The harness must count forged outputs as failed jobs.

Run with ``python3 -m pytest perfbench/test_checks.py`` from the checkout
root. Each case runs a real job, forges one thing in its output (a witness,
an artifact, an exit code) and passes it through the same pass loop the
benchmark uses; the untouched output must pass and the forged one fail.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_library()

import workloads  # noqa: E402


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    pins = run.load_pins()["demos"]
    out = {}
    for name, build in (("refute", workloads.refute), ("certify", workloads.certify),
                        ("law", workloads.law)):
        for job in build(3, str(tmp_path_factory.mktemp(name)), pins):
            out[job.name] = job
    return out


def failures(job, forge=None):
    """Failed-job count of one pass over ``job`` with its output forged."""
    if forge is not None:
        orig = job
        job = workloads.Job(orig.name, lambda: forge(orig.run()), orig.check, orig.out_dir)
    return run.run_pass([job], None, lambda msg: None)[1]


def edit_report(fn):
    """Forge the JSON report a CLI job printed."""
    def forge(output):
        code, text = output
        rep = json.loads(text)
        fn(rep)
        return code, json.dumps(rep)
    return forge


def bump_cycle_sum(rep):
    rep["cycle_report"]["cycle_sum"] += 0.5


def move_midpoint(rep):
    fs = rep["bb_report"]["failing_slice"]
    fs["witness_midpoint"] = [v + 0.125 for v in fs["witness_midpoint"]]


def shrink_deficit(rep):
    rep["bic"]["counterexamples"][0]["deficit"] *= 0.5


def drop_axiom_witness(rep):
    rep["axioms"]["counterexamples"].pop()


def shift_offset(rep):
    rep["pieces"][0]["offset"] -= 1.0


CASES = [
    ("check-law:non-monotone-1.json", bump_cycle_sum),
    ("check-law:non-bb.json", move_midpoint),
    ("refute-cover:nonbic.json", shrink_deficit),
    ("refute-cover:nonbic.json", drop_axiom_witness),
    ("reconstruct:law-3.json", shift_offset),
]


@pytest.mark.parametrize("name,fn", CASES, ids=[f"{n}:{f.__name__}" for n, f in CASES])
def test_forged_witness_fails(jobs, name, fn):
    assert failures(jobs[name]) == 0
    assert failures(jobs[name], edit_report(fn)) == 1


def test_wrong_exit_code_fails(jobs):
    job = jobs["reconstruct-refusal:non-monotone-1.json"]
    assert failures(job) == 0
    assert failures(job, lambda out: (0, out[1])) == 1


@pytest.mark.parametrize("artifact", workloads.ARTIFACTS + ("transcript",))
def test_tampered_demo_output_fails(jobs, artifact):
    job = jobs["demo:separable"]
    assert failures(job) == 0

    def tamper(output):
        code, text = output
        if artifact == "transcript":
            return code, text.replace("pass", "pass ")
        with open(os.path.join(job.out_dir, artifact), "a") as fh:
            fh.write(" ")
        return output

    assert failures(job, tamper) == 1


def test_raising_job_fails(jobs):
    def boom():
        raise RuntimeError("boom")

    assert failures(workloads.Job("boom", boom, lambda out: [])) == 1
