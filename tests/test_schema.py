"""The file schemas pinned to their exact text: the analytic function
forms, a law with every slice-hint shape on both sides, a cover of each
family, the reconstruct output, and the message of each function-form
fault. Then what the writer leaves out (hidden record fields) and what a
cover file keeps (a custom lambda grid)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bipotkit
from bipotkit import cli
from bipotkit.bipotentials import CauchyProduct, build_inf
from bipotkit.convex import (
    Affine,
    FenchelGapReport,
    IndicatorBall,
    IndicatorPoint,
    MaxAffine,
    Quadratic,
    Sampled,
    ScaledNorm,
)
from bipotkit.covers import (
    ClosedInterval,
    Cover,
    NormFamily,
    norm_cover,
    quadratic_cover,
    separable_cover,
    tabulated_cover,
)
from bipotkit.formats import (
    FormatError,
    cover_from_data,
    cover_to_data,
    dumps,
    function_from_data,
    function_to_data,
    law_from_data,
    law_to_data,
    load_cover,
    save_cover,
    to_jsonable,
)
from bipotkit.laws import Ball, HalfLineRay, LawGraph, Segment, Singleton
from bipotkit.numerics import INF, Record

from .oracles import oracle_dumps

NAN = float("nan")
HUGE = 10 ** 400


def text(data):
    """The canonical text of plain data, as the standard library prints it."""
    return json.dumps(data, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# exact text of the writers


def test_a_quadratic_prints_its_fields_as_keys():
    assert dumps(function_to_data(Quadratic(2.0, 1))) == (
        '{\n  "dimension": 1,\n  "form": "quadratic",\n  "scale": 2.0\n}')


@pytest.mark.parametrize("phi, data", [
    (Quadratic(0.5, 3), {"form": "quadratic", "scale": 0.5, "dimension": 3}),
    (Quadratic(0.0, 2), {"form": "quadratic", "scale": 0.0, "dimension": 2}),
    (ScaledNorm(1.5, 2), {"form": "scaled-norm", "scale": 1.5, "dimension": 2}),
    (ScaledNorm(3.0, 1), {"form": "scaled-norm", "scale": 3.0, "dimension": 1}),
    (IndicatorBall(INF, 1), {"form": "indicator-ball", "radius": "inf", "dimension": 1}),
    (IndicatorBall(0.25, 3), {"form": "indicator-ball", "radius": 0.25, "dimension": 3}),
    (IndicatorPoint(np.array([1.0, -1.0])),
     {"form": "indicator-point", "point": [1.0, -1.0], "offset": 0.0}),
    (IndicatorPoint(np.array([0.5]), -2.5),
     {"form": "indicator-point", "point": [0.5], "offset": -2.5}),
    (Affine(np.array([2.0, 0.0, -3.0])),
     {"form": "affine", "slope": [2.0, 0.0, -3.0], "offset": 0.0}),
    (Affine(np.array([0.125]), 1.0), {"form": "affine", "slope": [0.125], "offset": 1.0}),
])
def test_analytic_forms_print_their_schema(phi, data):
    assert dumps(function_to_data(phi)) == text(data)
    assert function_from_data(data) == phi


def test_law_hints_of_every_shape_print_their_schema():
    law = LawGraph(
        [([0.0, 0.0], [1.0, 0.5]), ([1.0, 0.0], [0.0, 0.0]), ([2.0, 1.0], [2.0, 1.0]),
         ([0.0, 3.0], [-1.0, 2.0])],
        primal_hints={(0.0, 0.0): Singleton([1.0, 0.5]),
                      (1.0, 0.0): Segment([-1.0, 0.0], [1.0, 0.0]),
                      (2.0, 1.0): Ball([2.0, 1.0], INF),
                      (0.0, 3.0): HalfLineRay([-1.0, 2.0], [1.0, 0.0])},
        dual_hints={(1.0, 0.5): Singleton([0.0, 0.0]),
                    (0.0, 0.0): Segment([1.0, 0.0], [2.0, 0.0]),
                    (2.0, 1.0): Ball([2.0, 1.0], 0.5),
                    (-1.0, 2.0): HalfLineRay([0.0, 3.0], [0.0, -1.0])})
    hints = [
        ([0.0, 0.0], "primal", "singleton", {"point": [1.0, 0.5]}),
        ([1.0, 0.0], "primal", "segment", {"a": [-1.0, 0.0], "b": [1.0, 0.0]}),
        ([2.0, 1.0], "primal", "ball", {"center": [2.0, 1.0], "radius": "inf"}),
        ([0.0, 3.0], "primal", "ray", {"origin": [-1.0, 2.0], "direction": [1.0, 0.0]}),
        ([1.0, 0.5], "dual", "singleton", {"point": [0.0, 0.0]}),
        ([0.0, 0.0], "dual", "segment", {"a": [1.0, 0.0], "b": [2.0, 0.0]}),
        ([2.0, 1.0], "dual", "ball", {"center": [2.0, 1.0], "radius": 0.5}),
        ([-1.0, 2.0], "dual", "ray", {"origin": [0.0, 3.0], "direction": [0.0, -1.0]}),
    ]
    data = {"dimension": 2,
            "pairs": [[[0.0, 0.0], [1.0, 0.5]], [[1.0, 0.0], [0.0, 0.0]],
                      [[2.0, 1.0], [2.0, 1.0]], [[0.0, 3.0], [-1.0, 2.0]]],
            "slice_hints": [{"at": at, "side": side, "shape": shape, "params": params}
                            for at, side, shape, params in hints],
            "snap_tolerance": 0.25}
    assert dumps(law_to_data(law, 0.25)) == text(data)
    del data["slice_hints"], data["snap_tolerance"]
    assert dumps(law_to_data(LawGraph(law.pairs))) == text(data)
    assert law_from_data(law_to_data(law)).primal_hints == law.primal_hints


def interval(lo, hi, includes_infinity, grid_points):
    return {"lo": lo, "hi": hi, "includes_infinity": includes_infinity,
            "grid_points": grid_points}


@pytest.mark.parametrize("cover, data", [
    (quadratic_cover(2),
     {"family": "quadratic", "dimension": 2, "lambda_domain": interval(0.0, "inf", True, 512)}),
    (norm_cover(1, grid_points=64),
     {"family": "norm", "dimension": 1, "lambda_domain": interval(0.0, "inf", True, 64)}),
    (Cover(ClosedInterval(0.5, 2.0), NormFamily(3)),
     {"family": "norm", "dimension": 3, "lambda_domain": interval(0.5, 2.0, False, 512)}),
    (separable_cover(Quadratic(1.0, 1)),
     {"family": "separable", "potential": {"form": "quadratic", "scale": 1.0, "dimension": 1}}),
    (separable_cover(Affine(np.array([1.0, 2.0]), 0.5)),
     {"family": "separable", "potential": {"form": "affine", "slope": [1.0, 2.0], "offset": 0.5}}),
    (separable_cover(Sampled(np.array([-1.0, 0.0, 1.0]), np.array([1.0, 0.0, INF])),
                     dual_grid=np.array([[-2.0], [0.0], [2.0]])),
     {"family": "separable",
      "potential": {"form": "sampled", "grid": [[-1.0], [0.0], [1.0]], "values": [1.0, 0.0, "inf"]},
      "conjugate": {"form": "sampled", "grid": [[-2.0], [0.0], [2.0]], "values": [1.0, 0.0, 0.0]}}),
    (separable_cover(MaxAffine(np.array([[0.0], [1.0]]), np.array([0.0, -1.0])),
                     dual_grid=np.array([[0.0], [0.5], [1.0]]),
                     primal_grid=np.array([[-1.0], [0.0], [2.0]])),
     {"family": "separable",
      "potential": {"form": "max-affine", "pieces": [{"slope": [0.0], "offset": 0.0},
                                                     {"slope": [1.0], "offset": -1.0}]},
      "conjugate": {"form": "sampled", "grid": [[0.0], [0.5], [1.0]], "values": [0.0, 0.0, 1.0]}}),
    (tabulated_cover([(0.5, Quadratic(0.5, 1), Quadratic(2.0, 1)),
                      (INF, IndicatorPoint(np.array([0.0])), Affine(np.array([0.0])))]),
     {"family": "tabulated", "entries": [
         {"lambda": 0.5, "potential": {"form": "quadratic", "scale": 0.5, "dimension": 1},
          "conjugate": {"form": "quadratic", "scale": 2.0, "dimension": 1}},
         {"lambda": "inf", "potential": {"form": "indicator-point", "point": [0.0], "offset": 0.0},
          "conjugate": {"form": "affine", "slope": [0.0], "offset": 0.0}}]}),
])
def test_covers_of_each_family_print_their_schema(cover, data):
    assert dumps(cover_to_data(cover)) == text(data)


RECONSTRUCT_STDOUT = """\
{
  "base_index": 1,
  "dimension": 2,
  "form": "max-affine",
  "pieces": [
    {
      "offset": -1.25,
      "slope": [
        -1.0,
        0.5
      ]
    },
    {
      "offset": 0.0,
      "slope": [
        0.0,
        0.0
      ]
    },
    {
      "offset": -1.0,
      "slope": [
        0.0,
        1.0
      ]
    },
    {
      "offset": -1.0,
      "slope": [
        1.0,
        0.5
      ]
    },
    {
      "offset": -2.0,
      "slope": [
        1.0,
        1.5
      ]
    }
  ]
}
"""


def test_reconstruct_prints_its_pieces_sorted(tmp_path, capsys):
    law = {"dimension": 2, "pairs": [
        [[1.0, 1.0], [1.0, 1.5]], [[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [1.0, 0.5]],
        [[0.0, 1.0], [0.0, 1.0]], [[-1.0, 0.5], [-1.0, 0.5]]]}
    path = tmp_path / "law.json"
    path.write_text(json.dumps(law))
    assert cli.main(["reconstruct", str(path), "--base", "1"]) == 0
    out = capsys.readouterr()
    assert out.out == RECONSTRUCT_STDOUT
    assert out.err == ""


# ---------------------------------------------------------------------------
# function-form faults: each field missing, of the wrong type, non-finite
# and of the wrong length, then several faults in one form (the first field
# is named first, and every field is read before the form is built)


def form(name, **fields):
    base = {"quadratic": {"scale": 1.0, "dimension": 2},
            "scaled-norm": {"scale": 1.0, "dimension": 2},
            "indicator-ball": {"radius": 1.0, "dimension": 2},
            "indicator-point": {"point": [1.0, 2.0], "offset": 0.5},
            "affine": {"slope": [1.0, 2.0], "offset": 0.5}}[name]
    data = {"form": name, **base, **fields}
    return {k: v for k, v in data.items() if v is not ...}


def scale_faults(name):
    return [
        (form(name, scale=...), "scale must be a number, got None"),
        (form(name, scale="1"), "scale must be a number, got '1'"),
        (form(name, scale=True), "scale must be a number, got True"),
        (form(name, scale="inf"), "scale must be a number, got 'inf'"),
        (form(name, scale=[1.0]), "scale must be a number, got [1.0]"),
        (form(name, scale=NAN), "scale must be finite, got nan"),
        (form(name, scale=INF), "scale must be finite, got inf"),
        (form(name, scale=-INF), "scale must be finite, got -inf"),
        (form(name, scale=HUGE), "scale must be finite, got an integer beyond the float range"),
        (form(name, scale=-1.0), "scale must be nonnegative, got -1.0"),
    ]


def dimension_faults(name):
    return [(form(name, dimension=d), f"dimension must be an integer in [1, 3], got {d!r}")
            for d in ("2", 2.0, True, NAN, [2], [], 0, 4, None)]


def vector_faults(name, field):
    return [
        (form(name, **{field: ...}), f"{field} must be a nonempty list of numbers"),
        (form(name, **{field: "x"}), f"{field} must be a nonempty list of numbers"),
        (form(name, **{field: 1.0}), f"{field} must be a nonempty list of numbers"),
        (form(name, **{field: []}), f"{field} must be a nonempty list of numbers"),
        (form(name, **{field: [True, 1.0]}), f"{field} coordinate must be a number, got True"),
        (form(name, **{field: [1.0, "2"]}), f"{field} coordinate must be a number, got '2'"),
        (form(name, **{field: [NAN, 1.0]}), f"{field} coordinate must be finite, got nan"),
        (form(name, **{field: [1.0, INF]}), f"{field} coordinate must be finite, got inf"),
        (form(name, **{field: [HUGE]}),
         f"{field} coordinate must be finite, got an integer beyond the float range"),
        (form(name, **{field: [1.0, 2.0, 3.0, 4.0]}),
         "vector dimension must be between 1 and 3, got 4"),
    ]


def offset_faults(name):
    return [
        (form(name, offset="0"), "offset must be a number, got '0'"),
        (form(name, offset=False), "offset must be a number, got False"),
        (form(name, offset="inf"), "offset must be a number, got 'inf'"),
        (form(name, offset=[0.5]), "offset must be a number, got [0.5]"),
        (form(name, offset=NAN), "offset must be finite, got nan"),
        (form(name, offset=INF), "offset must be finite, got inf"),
        (form(name, offset=HUGE), "offset must be finite, got an integer beyond the float range"),
    ]


FORM_FAULTS = [
    *scale_faults("quadratic"), *dimension_faults("quadratic"),
    *scale_faults("scaled-norm"), *dimension_faults("scaled-norm"),
    (form("indicator-ball", radius=...), 'radius must be a number or "inf", got None'),
    (form("indicator-ball", radius="1"), 'radius must be a number or "inf", got \'1\''),
    (form("indicator-ball", radius=False), 'radius must be a number or "inf", got False'),
    (form("indicator-ball", radius="-inf"), 'radius must be a number or "inf", got \'-inf\''),
    (form("indicator-ball", radius=[1.0]), 'radius must be a number or "inf", got [1.0]'),
    (form("indicator-ball", radius=NAN), 'radius must be finite or the "inf" sentinel, got nan'),
    (form("indicator-ball", radius=INF), 'radius must be finite or the "inf" sentinel, got inf'),
    (form("indicator-ball", radius=HUGE),
     "radius must be finite, got an integer beyond the float range"),
    (form("indicator-ball", radius=-1.0), "radius must be nonnegative, got -1.0"),
    *dimension_faults("indicator-ball"),
    *vector_faults("indicator-point", "point"), *offset_faults("indicator-point"),
    *vector_faults("affine", "slope"), *offset_faults("affine"),
    # several faults in one form
    (form("quadratic", scale="x", dimension=7), "scale must be a number, got 'x'"),
    (form("scaled-norm", scale=NAN, dimension=...), "scale must be finite, got nan"),
    (form("quadratic", scale=-1.0, dimension=0), "dimension must be an integer in [1, 3], got 0"),
    (form("indicator-ball", radius=None, dimension=None),
     'radius must be a number or "inf", got None'),
    (form("indicator-ball", radius=-1, dimension=0),
     "dimension must be an integer in [1, 3], got 0"),
    (form("indicator-point", point=[1.0, NAN], offset="x"),
     "point coordinate must be finite, got nan"),
    (form("indicator-point", point=[NAN, "x"], offset=...),
     "point coordinate must be finite, got nan"),
    (form("indicator-point", point=[1.0, 2.0, 3.0, 4.0], offset=NAN),
     "offset must be finite, got nan"),
    (form("affine", slope=..., offset="x"), "slope must be a nonempty list of numbers"),
    (form("affine", slope=[1.0, 2.0, 3.0, 4.0], offset=NAN), "offset must be finite, got nan"),
    # the form itself
    (3, "a function descriptor must be a JSON object"),
    ([1.0], "a function descriptor must be a JSON object"),
    ({"form": "mystery"}, "unknown function form 'mystery'"),
    ({"scale": 1.0, "dimension": 1}, "unknown function form None"),
    ({"form": ["quadratic"], "scale": 1.0}, "unknown function form ['quadratic']"),
    # max-affine pieces and sampled value lists
    ({"form": "max-affine", "pieces": [1.0]}, "a max-affine piece must be a JSON object, got 1.0"),
    ({"form": "max-affine", "pieces": [{"slope": [1.0]}, "x"]},
     "a max-affine piece must be a JSON object, got 'x'"),
    ({"form": "sampled", "grid": [[0.0], [1.0]], "values": 3}, "sampled values must be a list, got 3"),
    ({"form": "sampled", "grid": [[0.0], [1.0]], "values": {"a": 1}},
     "sampled values must be a list, got {'a': 1}"),
    ({"form": "sampled", "grid": [[0.0], [1.0, 2.0]], "values": [0.0, 1.0]},
     "grid nodes must share one dimension"),
]


@pytest.mark.parametrize("data, message", FORM_FAULTS)
def test_function_form_faults_keep_their_messages(data, message):
    with pytest.raises(ValueError) as exc:
        function_from_data(data)
    assert str(exc.value) == message
    # a fault in a field is a file fault; a value the form refuses is the
    # constructor's ValueError
    constructor = message.endswith(("nonnegative, got -1.0", "between 1 and 3, got 4"))
    assert isinstance(exc.value, FormatError) != constructor


SAMPLED = {"form": "sampled", "grid": [[0.0], [1.0]], "values": [0.0, 1.0]}
QUADRATIC = {"form": "quadratic", "scale": 1.0}
# the node lists of a separable cover, read as the sampled grid is
COVER_FAULTS = [
    ({"potential": SAMPLED, "dual_grid": 3}, "dual grid must be a list of nodes, got 3"),
    ({"potential": QUADRATIC, "dual_grid": 3}, "dual grid must be a list of nodes, got 3"),
    ({"potential": SAMPLED, "dual_grid": [[0.0]], "primal_grid": 3},
     "primal grid must be a list of nodes, got 3"),
    ({"potential": QUADRATIC, "primal_grid": "ab"}, "primal grid must be a list of nodes, got 'ab'"),
    ({"potential": SAMPLED, "dual_grid": [[0.0], [1.0, 2.0]]}, "dual grid nodes must share one dimension"),
    ({"potential": SAMPLED, "dual_grid": [3]}, "dual grid node must be a nonempty list of numbers"),
    ({"potential": {"form": "max-affine", "pieces": [1.0]}},
     "a max-affine piece must be a JSON object, got 1.0"),
    ({"potential": {**SAMPLED, "values": 3}}, "sampled values must be a list, got 3"),
    # the inf member is in the domain only by a JSON boolean
    *[({"family": family, "lambda_domain": {"lo": 0.0, "hi": "inf", "includes_infinity": v}},
       f"lambda_domain.includes_infinity must be true or false, got {v!r}")
      for family, v in (("quadratic", "false"), ("quadratic", "no"), ("norm", 1.5),
                        ("norm", 1), ("quadratic", 0), ("quadratic", None))],
]


@pytest.mark.parametrize("data, message", COVER_FAULTS)
def test_cover_faults_are_format_errors(data, message, tmp_path, capsys):
    with pytest.raises(FormatError) as exc:
        cover_from_data({"family": "separable", **data})
    assert str(exc.value) == message
    # the CLI exits 1 with the message alone
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"family": "separable", **data}))
    assert cli.main(["verify", "--cover", str(path)]) == 1
    assert capsys.readouterr() == ("", message + "\n")


@pytest.mark.parametrize("data, phi", [
    ({"form": "quadratic", "scale": 1}, Quadratic(1.0, 1)),
    ({"form": "scaled-norm", "scale": 2.5}, ScaledNorm(2.5, 1)),
    ({"form": "indicator-ball", "radius": "inf"}, IndicatorBall(INF, 1)),
    ({"form": "indicator-point", "point": [1, 2]}, IndicatorPoint(np.array([1.0, 2.0]), 0.0)),
    ({"form": "affine", "slope": [0.5], "offset": -3}, Affine(np.array([0.5]), -3.0)),
])
def test_function_forms_take_their_defaults(data, phi):
    got = function_from_data(data)
    assert got == phi
    assert [type(getattr(got, name)) for name in got._fields] \
        == [type(getattr(phi, name)) for name in phi._fields]


# ---------------------------------------------------------------------------
# hidden fields and the bipotential's repr


class Noted(Record):
    value: float
    note: object = None
    _hidden = ("note",)


def test_hidden_fields_are_not_written():
    one = Noted(1.5, np.arange(3))
    assert dumps(one) == text({"value": 1.5})
    many = [Noted(0.5, "a"), Noted(INF, object())]
    assert dumps({"rs": many}) == oracle_dumps({"rs": many}) == text({"rs": [{"value": 0.5},
                                                                            {"value": "inf"}]})
    gap = FenchelGapReport(gap=0.0, at_equality=True, tol=1e-9)
    assert to_jsonable(gap) == {"gap": 0.0, "at_equality": True}


def test_a_bipotential_shows_its_class_and_provenance():
    assert repr(CauchyProduct(2)) == "<CauchyProduct closed-form>"
    b = build_inf(quadratic_cover(1), mode="grid")
    assert repr(b) == str(b) == "<InfOfCoverBipotential inf-of-cover/grid>"


REPORT_SCRIPT = """\
import numpy as np
from bipotkit import certify, quadratic_cover
from bipotkit.formats import dumps
g = np.linspace(-1, 1, 3)
print(dumps(certify(quadratic_cover(1), g, g, mode="analytic", tol=1e-9)))
"""


def test_a_whole_certification_report_dumps_the_same_in_every_process():
    src = str(Path(bipotkit.__file__).parents[1])
    texts = [subprocess.run([sys.executable, "-c", REPORT_SCRIPT], check=True, text=True,
                            capture_output=True, env=dict(os.environ, PYTHONPATH=src)).stdout
             for _ in range(2)]
    assert texts[0] == texts[1]
    data = json.loads(texts[0])
    assert "table" not in data and "0x" not in texts[0]
    assert data["bipotential"] == "<InfOfCoverBipotential inf-of-cover/analytic>"
    assert set(data) == {"coverage", "bic", "axioms", "bipotential"}


# ---------------------------------------------------------------------------
# the lambda grid of a cover file


def test_a_custom_lambda_grid_survives_the_round_trip(tmp_path):
    cover = quadratic_cover(1, grid_points=64, grid_lo=1e-2, grid_hi=1e2)
    path = tmp_path / "cover.json"
    save_cover(cover, path)
    back = load_cover(path)
    assert back == cover
    assert back.grid_infimum([1e-3], [1.0]) == cover.grid_infimum([1e-3], [1.0]) \
        == (0.00505, 100.0)
    lam = json.loads(path.read_text())["lambda_domain"]
    assert (lam["grid_lo"], lam["grid_hi"]) == (0.01, 100.0)


@pytest.mark.parametrize("dom, keys", [
    (ClosedInterval(0.0, INF, True), {}),
    (ClosedInterval(0.5, 2.0), {}),
    (ClosedInterval(0.5, 2.0, grid_lo=0.1, grid_hi=10.0), {}),  # clamped to [lo, hi]
    (ClosedInterval(0.0, INF, True, grid_lo=1e-4, grid_hi=10.0), {"grid_hi": 10.0}),
    (ClosedInterval(0.0, 3.0, grid_lo=0.5), {"grid_lo": 0.5}),
    (ClosedInterval(1.0, 1e6, grid_lo=2.0, grid_hi=3.0), {"grid_lo": 2.0, "grid_hi": 3.0}),
    # intervals whose own ends give no log grid
    (ClosedInterval(0.0, 1e-5, grid_lo=1e-6), {"grid_lo": 1e-6}),
    (ClosedInterval(2e4, INF, True, grid_hi=3e4), {"grid_hi": 3e4}),
])
def test_only_grid_ends_that_lo_and_hi_do_not_give_are_written(dom, keys):
    data = cover_to_data(Cover(dom, NormFamily(1)))
    assert {k: v for k, v in data["lambda_domain"].items() if k.startswith("grid_")} \
        == {"grid_points": 512, **keys}
    assert cover_from_data(data).domain == dom


@pytest.mark.parametrize("lam, message", [
    ({"grid_lo": None}, "lambda_domain.grid_lo must be a number, got None"),
    ({"grid_lo": "inf"}, "lambda_domain.grid_lo must be a number, got 'inf'"),
    ({"grid_hi": float("nan")}, "lambda_domain.grid_hi must be finite, got nan"),
    ({"grid_lo": 0.0}, "log grid needs 0 < grid_lo <= grid_hi < inf, got [0.0, 10000.0]"),
    ({"grid_lo": 5.0, "grid_hi": 2.0},
     "log grid needs 0 < grid_lo <= grid_hi < inf, got [5.0, 2.0]"),
])
def test_bad_grid_ends_are_format_errors(lam, message):
    data = {"family": "quadratic", "lambda_domain": {"lo": 0, "hi": "inf", **lam}}
    with pytest.raises(FormatError) as exc:
        cover_from_data(data)
    assert str(exc.value) == message
