import json
import math

import numpy as np
import pytest

from bipotkit.bipotentials import CauchyProduct
from bipotkit.convex import (
    Affine,
    IndicatorBall,
    IndicatorPoint,
    MaxAffine,
    Quadratic,
    Sampled,
    ScaledNorm,
)
from bipotkit.covers import TabulatedFamily, norm_cover, quadratic_cover, separable_cover, tabulated_cover
from bipotkit.demos import build_plasticity_law, build_sign_law
from bipotkit.formats import (
    FormatError,
    cover_from_data,
    cover_to_data,
    csv_header,
    dump_extended,
    dumps,
    fmt,
    function_from_data,
    function_to_data,
    law_from_data,
    law_to_data,
    load_cover,
    load_law,
    parse_extended,
    probe_rows,
    save_cover,
    save_law,
    to_jsonable,
)
from bipotkit.laws import LawGraph, Segment
from bipotkit.numerics import INF


def v(*coords):
    return np.array([float(c) for c in coords])


# ---------------------------------------------------------------------------
# extended scalars


def test_infinity_round_trips_as_string():
    assert dump_extended(INF) == "inf"
    assert dump_extended(1.5) == 1.5
    assert parse_extended("inf", "x") == INF
    assert parse_extended(2, "x") == 2.0


@pytest.mark.parametrize("bad", ["-inf", float("nan"), float("-inf"), True, "abc", None])
def test_extended_rejects_junk(bad):
    with pytest.raises(FormatError):
        parse_extended(bad, "x")


# ---------------------------------------------------------------------------
# law files


def test_law_round_trip_identity():
    law = build_sign_law()
    data = law_to_data(law)
    again = law_to_data(law_from_data(data))
    assert data == again
    assert json.loads(dumps(data)) == json.loads(dumps(again))


def test_plasticity_law_round_trip():
    law = build_plasticity_law()
    data = law_to_data(law)
    back = law_from_data(data)
    assert back.pair_keys() == law.pair_keys()
    assert law_to_data(back) == data


def test_law_parse_rejects_nonfinite_coordinates():
    with pytest.raises(FormatError):
        law_from_data({"dimension": 1, "pairs": [[["inf"], [0.0]]]})
    with pytest.raises(FormatError):
        law_from_data({"dimension": 1, "pairs": [[[float("nan")], [0.0]]]})


def test_law_parse_rejects_empty_pairs():
    with pytest.raises(FormatError):
        law_from_data({"dimension": 1, "pairs": []})


def test_law_parse_rejects_wrong_vector_length():
    with pytest.raises(FormatError):
        law_from_data({"dimension": 2, "pairs": [[[0.0], [0.0, 1.0]]]})


def test_law_parse_rejects_unknown_hint_shape():
    with pytest.raises(FormatError):
        law_from_data({"dimension": 1, "pairs": [[[0.0], [0.0]]],
                       "slice_hints": [{"at": [0.0], "shape": "torus", "params": {}}]})


def test_snap_tolerance_quantizes_coordinates():
    data = {"dimension": 1, "pairs": [[[0.5000000001], [1.0]]],
            "snap_tolerance": 1e-6}
    law = law_from_data(data)
    assert law.xs[0][0] == 0.5


def test_save_load_law(tmp_path):
    law = build_sign_law()
    path = tmp_path / "law.json"
    save_law(law, path)
    back = load_law(path)
    assert back.pair_keys() == law.pair_keys()
    assert set(back.primal_hints) == set(law.primal_hints)
    assert set(back.dual_hints) == set(law.dual_hints)


def test_load_law_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    with pytest.raises(FormatError):
        load_law(path)


def test_serialization_is_deterministic(tmp_path):
    law = build_sign_law()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_law(law, a)
    save_law(law, b)
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# function forms


@pytest.mark.parametrize("phi", [
    Quadratic(2.0, 2),
    ScaledNorm(1.5, 1),
    IndicatorBall(INF, 2),
    IndicatorBall(2.0, 1),
    IndicatorPoint(np.array([1.0, -1.0]), 0.5),
    Affine(np.array([2.0]), -1.0),
    MaxAffine(np.array([[0.0], [1.0]]), np.array([0.0, -1.0])),
    Sampled(np.array([-1.0, 0.0, 1.0]), np.array([1.0, 0.0, INF])),
])
def test_function_round_trips(phi):
    assert function_from_data(function_to_data(phi)) == phi


def test_function_rejects_unknown_form():
    with pytest.raises(FormatError):
        function_from_data({"form": "mystery"})


# ---------------------------------------------------------------------------
# cover files


def test_quadratic_cover_round_trip():
    cover = quadratic_cover(dim=2)
    data = cover_to_data(cover)
    assert data["family"] == "quadratic"
    assert data["lambda_domain"]["hi"] == "inf"
    back = cover_from_data(data)
    assert cover_to_data(back) == data
    assert back.dim == 2


def test_norm_cover_round_trip():
    data = cover_to_data(norm_cover(dim=1, grid_points=64))
    back = cover_from_data(data)
    assert back.domain.grid_points == 64
    assert cover_to_data(back) == data


def test_separable_cover_round_trip():
    cover = separable_cover(Quadratic(1.0, 1))
    data = cover_to_data(cover)
    back = cover_from_data(data)
    assert cover_to_data(back) == data
    assert back.f_eval(0.0, v(1), v(2)) == 2.5


def test_separable_cover_with_explicit_conjugate():
    phi = Sampled(np.array([-1.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0]))
    cover = separable_cover(phi, dual_grid=np.array([[-2.0], [0.0], [2.0]]))
    data = cover_to_data(cover)
    assert "conjugate" in data
    back = cover_from_data(data)
    assert cover_to_data(back) == data


def test_tabulated_cover_round_trip():
    cover = tabulated_cover([(0.5, Quadratic(0.5, 1), Quadratic(2.0, 1)),
                             (2.0, Quadratic(2.0, 1), Quadratic(0.5, 1))])
    data = cover_to_data(cover)
    back = cover_from_data(data)
    assert cover_to_data(back) == data
    assert isinstance(back.family, TabulatedFamily)


def test_cover_parse_rejects_unknown_family():
    with pytest.raises(FormatError):
        cover_from_data({"family": "wavelet"})


def test_save_load_cover(tmp_path):
    path = tmp_path / "cover.json"
    save_cover(quadratic_cover(dim=1), path)
    back = load_cover(path)
    assert back.dim == 1


# ---------------------------------------------------------------------------
# CSV probe tables


def test_fmt_significant_digits_and_negative_zero():
    assert fmt(1.0) == "1"
    assert fmt(-0.0) == "0"
    assert fmt(1 / 3) == "0.333333333333"
    assert fmt(INF) == "inf"


def test_csv_header_by_dimension():
    assert csv_header(1) == "x,y,b,pairing"
    assert csv_header(2) == "x1,x2,y1,y2,b,pairing"


def test_probe_rows_lexicographic():
    b = CauchyProduct(1)
    xs = np.array([[0.0], [1.0]])
    ys = np.array([[-1.0], [1.0]])
    rows = list(probe_rows(b, xs, ys))
    assert rows == ["0,-1,0,0", "0,1,0,0", "1,-1,1,-1", "1,1,1,1"]


# ---------------------------------------------------------------------------
# jsonable conversion


def test_to_jsonable_handles_reports_and_arrays():
    out = to_jsonable({"v": np.array([1.0, INF]), "s": np.float64(2.0)})
    assert out == {"v": [1.0, "inf"], "s": 2.0}


def test_to_jsonable_dataclasses():
    from bipotkit.laws import BBReport
    out = to_jsonable(BBReport(is_bb_graph=True, failing_slice=None))
    assert out == {"is_bb_graph": True, "failing_slice": None}
