"""The record contract: every exported record type is a frozen
``numerics.Record`` with its declared fields, one equality rule (arrays
entry by entry, lists and tuples item by item), a hash of the compared
values, the ``Name(field=...)`` repr, and a trusted builder whose records
equal their validated construction. Also the public API and its import
cost: the names of ``__all__``, and no dataclass anywhere."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bipotkit
from bipotkit import (
    INF,
    Affine,
    AxiomCounterexample,
    AxiomReport,
    Ball,
    BBReport,
    BICCounterexample,
    BICReport,
    CauchyProduct,
    CertificationReport,
    ClosedInterval,
    Cover,
    CoverageReport,
    CycleReport,
    FailingSlice,
    FenchelGapReport,
    FiniteSet,
    HalfLineRay,
    IndicatorBall,
    IndicatorPoint,
    MaxAffine,
    NoContactNote,
    NormFamily,
    Quadratic,
    QuadraticFamily,
    Sampled,
    ScaledNorm,
    Segment,
    SeparableFamily,
    Singleton,
    bic_check,
    default_probe_plan,
    quadratic_cover,
    verify_axioms,
)
from bipotkit.demos import nonbic_cover
from bipotkit.numerics import Record

# one bipotential for every certification report: bipotentials compare by
# identity, so two equal reports must hold the same one
CAUCHY = CauchyProduct(1)


def v(*coords):
    return np.array(coords, dtype=float)


def axiom_counterexample():
    return AxiomCounterexample("lower-bound", v(1.0), v(-1.0), 0.5)


def no_contact_note():
    return NoContactNote("primal", v(1.0), 0.25)


def axiom_report():
    return AxiomReport(False, True, True, [axiom_counterexample()], [no_contact_note()])


def bic_counterexample():
    return BICCounterexample("first", 0.5, v(1.0, 0.0), 2.0, v(-1.0, 0.0), 0.25, v(0.0, 0.5),
                             0.125)


def bic_report():
    return BICReport(False, [bic_counterexample()], 10)


def failing_slice():
    return FailingSlice("primal", v(0.0), v(0.5))


def domain():
    return ClosedInterval(0.0, 4.0, True, 16)


# a fresh instance of each exported record type per call, arrays included
EXAMPLES = {
    "Affine": lambda: Affine(v(1.0, -1.0), 2.0),
    "AxiomCounterexample": axiom_counterexample,
    "AxiomReport": axiom_report,
    "BBReport": lambda: BBReport(False, failing_slice()),
    "BICCounterexample": bic_counterexample,
    "BICProbePlan": lambda: default_probe_plan(quadratic_cover(2)),
    "BICReport": bic_report,
    "Ball": lambda: Ball(v(0.0, 1.0), 2.0),
    "CertificationReport": lambda: CertificationReport(
        CoverageReport(True, [], []), bic_report(), axiom_report(), CAUCHY,
        (v(1.0), v(2.0), np.ones((1, 1)), np.ones((1, 1)))),
    "ClosedInterval": domain,
    "Cover": lambda: Cover(domain(), QuadraticFamily(2)),
    "CoverageReport": lambda: CoverageReport(False, [(v(1.0), v(2.0))], [(0.5, v(1.0), v(0.0))]),
    "CycleReport": lambda: CycleReport(False, (0, 1), 1.0),
    "FailingSlice": failing_slice,
    "FenchelGapReport": lambda: FenchelGapReport(0.25, False, 1e-6),
    "FiniteSet": lambda: FiniteSet((1.0, 0.5, INF)),
    "HalfLineRay": lambda: HalfLineRay(v(0.0, 0.0), v(1.0, 1.0)),
    "IndicatorBall": lambda: IndicatorBall(1.5, 2),
    "IndicatorPoint": lambda: IndicatorPoint(v(1.0, 2.0), 0.5),
    "MaxAffine": lambda: MaxAffine(np.eye(2), v(0.0, 1.0)),
    "NoContactNote": no_contact_note,
    "NormFamily": lambda: NormFamily(2),
    "Quadratic": lambda: Quadratic(2.0, 2),
    "QuadraticFamily": lambda: QuadraticFamily(2),
    "Sampled": lambda: Sampled(v(0.0, 1.0, 2.0), v(0.0, 1.0, INF)),
    "ScaledNorm": lambda: ScaledNorm(1.5, 2),
    "Segment": lambda: Segment(v(0.0, 0.0), v(1.0, 2.0)),
    "SeparableFamily": lambda: SeparableFamily(Quadratic(1.0, 1), Quadratic(1.0, 1)),
    "Singleton": lambda: Singleton(v(1.0, 2.0)),
}

# the declared fields of each type, in declaration order: attribute names,
# positional order and the JSON writer's keys
FIELDS = {
    "Affine": ("slope", "offset"),
    "AxiomCounterexample": ("axiom", "x", "y", "violation"),
    "AxiomReport": ("lower_bound_ok", "separate_convexity_ok", "graph_equivalence_ok",
                    "counterexamples", "no_contact"),
    "BBReport": ("is_bb_graph", "failing_slice"),
    "BICCounterexample": ("argument", "lam1", "z1", "lam2", "z2", "alpha", "fixed", "deficit"),
    "BICProbePlan": ("lam_pairs", "alphas", "primal_points", "dual_points"),
    "BICReport": ("is_bic", "counterexamples", "tuples_checked"),
    "Ball": ("center", "radius"),
    "CertificationReport": ("coverage", "bic", "axioms", "bipotential", "table"),
    "ClosedInterval": ("lo", "hi", "includes_infinity", "grid_points", "grid_lo", "grid_hi"),
    "Cover": ("domain", "family"),
    "CoverageReport": ("covered", "missed_pairs", "spurious_pairs"),
    "CycleReport": ("cyclically_monotone", "witness_cycle", "cycle_sum"),
    "FailingSlice": ("which", "at", "witness_midpoint"),
    "FenchelGapReport": ("gap", "at_equality", "tol"),
    "FiniteSet": ("values",),
    "HalfLineRay": ("origin", "direction"),
    "IndicatorBall": ("radius", "dim"),
    "IndicatorPoint": ("point", "offset"),
    "MaxAffine": ("slopes", "offsets"),
    "NoContactNote": ("side", "at", "min_gap"),
    "NormFamily": ("dim",),
    "Quadratic": ("scale", "dim"),
    "QuadraticFamily": ("dim",),
    "Sampled": ("grid", "values"),
    "ScaledNorm": ("scale", "dim"),
    "Segment": ("a", "b"),
    "SeparableFamily": ("potential", "potential_star"),
    "Singleton": ("point",),
}

DEFAULTS = {
    "Affine": {"offset": 0.0},
    "BBReport": {"failing_slice": None},
    "BICReport": {"tuples_checked": 0},
    "ClosedInterval": {"includes_infinity": False, "grid_points": 512, "grid_lo": None,
                       "grid_hi": None},
    "CycleReport": {"witness_cycle": None, "cycle_sum": 0.0},
    "FenchelGapReport": {"tol": 1e-9},
    "IndicatorPoint": {"offset": 0.0},
}

HIDDEN = {"FenchelGapReport": ("tol",), "CertificationReport": ("table",)}

# records whose fields hold no array or list; a failing BB report holds arrays
HASHABLE = dict({name: EXAMPLES[name] for name in (
    "ClosedInterval", "Cover", "CycleReport", "FenchelGapReport", "FiniteSet", "NormFamily",
    "QuadraticFamily")}, BBReport=lambda: BBReport(True))

NAMES = sorted(EXAMPLES)


def test_the_examples_cover_every_exported_record_type():
    exported = {name for name in bipotkit.__all__
                if inspect.isclass(getattr(bipotkit, name))
                and issubclass(getattr(bipotkit, name), Record) and getattr(bipotkit, name)._fields}
    # the one field-less record type is the base of the convex forms
    assert issubclass(bipotkit.ConvexFunction, Record) and bipotkit.ConvexFunction._fields == ()
    assert exported == set(EXAMPLES) == set(FIELDS)
    assert len(exported) == 29


@pytest.mark.parametrize("name", NAMES)
def test_fields_defaults_and_hidden_fields(name):
    cls = getattr(bipotkit, name)
    assert cls._fields == FIELDS[name]
    assert cls._hidden == HIDDEN.get(name, ())
    assert {f: getattr(cls, f) for f in cls._fields if hasattr(cls, f)} == DEFAULTS.get(name, {})


@pytest.mark.parametrize("name", NAMES)
def test_two_equal_instances_compare_equal(name):
    a, b = EXAMPLES[name](), EXAMPLES[name]()
    assert a is not b
    assert a == b and not a != b
    assert a == a


@pytest.mark.parametrize("name", ["Singleton", "Segment", "Ball", "HalfLineRay", "FailingSlice",
                                  "AxiomCounterexample", "NoContactNote", "BICCounterexample",
                                  "BICProbePlan", "BBReport", "AxiomReport", "BICReport",
                                  "CoverageReport", "CertificationReport"])
def test_a_changed_array_entry_makes_records_unequal(name):
    a = EXAMPLES[name]()
    b = EXAMPLES[name]()
    # the first array field, reached through nested records, lists and tuples
    stack = [b]
    while stack:
        obj = stack.pop(0)
        if isinstance(obj, np.ndarray):
            obj.flat[0] += 1.0
            break
        if isinstance(obj, Record):
            stack += [getattr(obj, f) for f in obj._fields if f not in obj._hidden]
        elif isinstance(obj, (list, tuple)):
            stack += list(obj)
    else:
        pytest.fail(f"{name} holds no array")
    assert a != b


def test_arrays_of_other_shapes_and_other_types_are_unequal():
    assert Singleton(v(1.0)) != Singleton(v(1.0, 1.0))
    assert Segment(v(0.0), v(1.0)) != Segment(v(0.0), v(2.0))
    assert IndicatorPoint(v(1.0)) != Affine(v(1.0))
    assert QuadraticFamily(2) != NormFamily(2)
    assert QuadraticFamily(2) != 2
    assert CycleReport(False, (0, 1), 1.0) != CycleReport(False, [0, 1], 1.0)


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_raise(name):
    record = EXAMPLES[name]()
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", NAMES)
def test_repr_lists_the_shown_fields_in_declaration_order(name):
    record = EXAMPLES[name]()
    shown = [f for f in FIELDS[name] if f not in HIDDEN.get(name, ())]
    want = f"{name}(" + ", ".join(f"{f}={getattr(record, f)!r}" for f in shown) + ")"
    assert repr(record) == want


def test_hidden_fields_are_left_out_of_equality():
    assert FenchelGapReport(0.25, False, 1e-6) == FenchelGapReport(0.25, False, 1e-3)
    a = EXAMPLES["CertificationReport"]()
    b = CertificationReport(a.coverage, a.bic, a.axioms, a.bipotential, (v(5.0),))
    assert a == b
    assert CertificationReport(a.coverage, a.bic, a.axioms, CauchyProduct(1), a.table) != a


@pytest.mark.parametrize("name", sorted(HASHABLE))
def test_equal_hashable_records_hash_equal(name):
    a, b = HASHABLE[name](), HASHABLE[name]()
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_convex_forms_and_records_of_arrays_are_unhashable():
    for name in ("Quadratic", "Affine", "Sampled", "Singleton", "BICReport", "BBReport"):
        with pytest.raises(TypeError):
            hash(EXAMPLES[name]())


def test_hash_ignores_a_cached_sample_grid():
    a, b = domain(), domain()
    a.sample_grid  # cached on the instance
    assert a == b and hash(a) == hash(b)


def test_the_constructor_binds_positions_names_and_defaults():
    assert ClosedInterval(0.0, 4.0, grid_points=16, includes_infinity=True) == domain()
    assert Affine(slope=v(1.0)) == Affine(v(1.0), 0.0)
    assert FenchelGapReport(0.0, True).tol == 1e-9
    for bad in (lambda: Quadratic(1.0), lambda: Quadratic(1.0, 2, 3),
                lambda: Quadratic(1.0, 2, dim=2), lambda: Quadratic(1.0, 2, scope=1)):
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize("name", NAMES)
def test_trusted_rows_equal_their_validated_construction(name):
    want = EXAMPLES[name]()
    cls = type(want)
    (got,) = cls._records(*[[getattr(want, f)] for f in cls._fields])
    assert type(got) is cls and got == want and repr(got) == repr(want)
    assert cls._records() == []


def test_witness_records_equal_their_validated_construction():
    cover = nonbic_cover()
    report = bic_check(cover)
    assert report.counterexamples
    g = np.linspace(-1.0, 1.0, 5)
    axioms = verify_axioms(CauchyProduct(1), -g, g)
    for record in report.counterexamples + axioms.counterexamples + axioms.no_contact:
        assert record == type(record)(*[getattr(record, f) for f in record._fields])


def test_bic_check_builds_its_witnesses_without_the_constructor(monkeypatch):
    want = bic_check(nonbic_cover())

    def refuse(self, *args, **kwargs):
        raise AssertionError("a BIC witness went through the validating constructor")

    monkeypatch.setattr(BICCounterexample, "__init__", refuse)
    got = bic_check(nonbic_cover())
    assert got == want and len(got.counterexamples) == len(want.counterexamples) > 0


# ---------------------------------------------------------------------------
# the public API


ALL = [
    "ANALYTIC_TOL", "Affine", "AnalyticFormUnavailableError", "AxiomCounterexample",
    "AxiomReport", "BBReport", "BICCounterexample", "BICProbePlan", "BICReport",
    "BInfinityBipotential", "Ball", "Bipotential", "CandidateNotFoundError", "CauchyProduct",
    "CertificationReport", "ClosedInterval", "ConjugateDomainError", "ConvexFunction", "Cover",
    "CoverageReport", "CycleReport", "DimensionMismatchError", "FailingSlice",
    "FenchelGapReport", "FiniteSet", "FormatError", "HalfLineRay", "INF", "IndicatorBall",
    "IndicatorPoint", "InfOfCoverBipotential", "LawGraph", "MaxAffine", "MinusInfinityError",
    "NegativeFenchelGapError", "NoContactNote", "NormFamily", "NotBBGraphError",
    "NotCyclicallyMonotoneError", "PreconditionError", "Quadratic", "QuadraticFamily",
    "SAMPLED_TOL", "Sampled", "ScaledNorm", "Segment", "SeparableBipotential",
    "SeparableFamily", "Singleton", "TabulatedFamily", "bb_check", "bic_check",
    "build_b_infinity", "build_inf", "build_separable", "certify", "conjugate",
    "coverage_check", "cycle_sum", "cyclic_monotonicity_check", "default_probe_plan",
    "discrete_conjugate_values", "embed_dual", "embed_primal", "fenchel_gap", "graph_of",
    "graph_of_bipotential", "inner", "load_cover", "load_law", "norm_cover", "p1_candidate",
    "quadratic_cover", "rockafellar_reconstruct", "save_cover", "save_law", "separable_cover",
    "subdifferential_contains", "tabulated_cover", "verify_axioms", "weight_matrix",
]


def test_all_keeps_its_81_names():
    assert sorted(bipotkit.__all__) == ALL and len(ALL) == 81


def test_no_class_in_the_package_is_a_dataclass():
    import bipotkit.cli
    import bipotkit.demos  # noqa: F401

    modules = [m for name, m in sys.modules.items()
               if name == "bipotkit" or name.startswith("bipotkit.")]
    classes = [c for m in modules for c in vars(m).values() if inspect.isclass(c)]
    assert len(modules) >= 10 and classes
    assert [c for c in classes if "__dataclass_fields__" in dir(c)] == []


def test_the_cli_import_adds_no_dataclasses_module():
    # some numpy versions import dataclasses themselves: compare against the
    # modules present before the package import
    code = ("import sys, numpy; before = set(sys.modules); import bipotkit.cli; "
            "print(sorted({'dataclasses'} & (set(sys.modules) - before)))")
    src = str(Path(bipotkit.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
