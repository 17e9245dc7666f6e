import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bipotkit import cli
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
from bipotkit.demos import build_antitone_law, build_plasticity_law, build_sign_law, nonbic_cover
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
from bipotkit.laws import FailingSlice, LawGraph, Segment
from bipotkit.numerics import INF

from .oracles import oracle_dumps, reference_to_jsonable


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


@dataclasses.dataclass(frozen=True)
class Box:
    value: object
    label: str = "box"


ARRAY_SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=3)
JSON_LEAVES = st.one_of(
    st.floats(), st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.none(), st.text(max_size=3),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-5, 5).map(np.int64), st.booleans().map(np.bool_),
    hnp.arrays(np.float64, ARRAY_SHAPES, elements=st.floats()),
    hnp.arrays(np.float32, ARRAY_SHAPES, elements=st.floats(width=32)),
    hnp.arrays(np.int64, ARRAY_SHAPES, elements=st.integers(-9, 9)),
    hnp.arrays(np.bool_, ARRAY_SHAPES))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(st.one_of(st.text(max_size=2), st.integers(0, 3)), inner, max_size=3),
    inner.map(Box)), max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_to_jsonable_emits_the_bytes_of_the_reference(obj):
    # the round trip writes back to the same text
    assert dumps(to_jsonable(obj)) == oracle_dumps(obj)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example({0: "int key", "0": "str key", "True": 1, True: 2})  # the later key wins
def test_dumps_writes_the_stdlib_text_of_the_reference(obj):
    assert dumps(obj) == oracle_dumps(obj)


def emitted(monkeypatch, capsys, argv):
    """Exit code, the objects the CLI hands to the writer, and its stdout."""
    seen = []

    def record(obj):
        seen.append(obj)
        return dumps(obj)

    monkeypatch.setattr(cli, "dumps", record)
    code = cli.main(argv)
    return code, seen, capsys.readouterr().out


@pytest.fixture
def report_files(tmp_path):
    save_law(LawGraph([(v(0), v(-1)), (v(0), v(1))]), tmp_path / "nonbb.json")
    save_law(build_antitone_law(), tmp_path / "antitone.json")
    save_law(LawGraph([(v(0, 1), v(0, 1)), (v(1, 0), v(2, -1)), (v(2, 2), v(3, 1))]),
             tmp_path / "monotone.json")
    save_cover(nonbic_cover(), tmp_path / "nonbic.json")
    return tmp_path


def test_dumps_writes_the_stdlib_text_of_real_reports(monkeypatch, capsys, report_files):
    d = report_files
    code, seen, out = emitted(monkeypatch, capsys, ["check-law", str(d / "nonbb.json")])
    assert code == 2 and isinstance(seen[0]["bb_report"].failing_slice, FailingSlice)
    texts = [out]
    code, more, out = emitted(monkeypatch, capsys, ["check-law", str(d / "antitone.json")])
    assert type(more[0]["cycle_report"].witness_cycle) is tuple
    seen += more
    texts.append(out)
    code, more, out = emitted(monkeypatch, capsys, ["reconstruct", str(d / "antitone.json")])
    assert code == 2 and more[0]["error"] == "not-cyclically-monotone"
    seen += more
    texts.append(out)
    code, more, out = emitted(monkeypatch, capsys, ["reconstruct", str(d / "monotone.json")])
    assert code == 0 and type(more[0]["pieces"][0]["slope"][0]) is np.float64
    seen += more
    texts.append(out)
    code, more, out = emitted(monkeypatch, capsys, ["verify", "--cover", str(d / "nonbic.json")])
    assert code == 2 and not more[0]["bic"].is_bic and more[0]["bic"].counterexamples
    seen += more
    texts.append(out)
    assert "".join(texts) == "".join(oracle_dumps(obj) + "\n" for obj in seen)
    for obj in seen:
        assert to_jsonable(obj) == reference_to_jsonable(obj)


# ---------------------------------------------------------------------------
# the array loader: same errors, same arrays


def long_law(bad_index=None, bad_pair=None, dim=2, m=300):
    pairs = [[[0.25 * k, -1.0][:dim], [1.0, 0.5 * k][:dim]] for k in range(m)]
    if bad_index is not None:
        pairs[bad_index] = bad_pair
    return {"dimension": dim, "pairs": pairs}


@pytest.mark.parametrize("bad_pair, message", [
    ("x", "pair {k} must be [[x...], [y...]]"),
    ({"x": [1.0]}, "pair {k} must be [[x...], [y...]]"),
    ([[0.0, 1.0]], "pair {k} must be [[x...], [y...]]"),
    ([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]], "pair {k} must be [[x...], [y...]]"),
    ([[], [1.0, 2.0]], "pair {k} x must be a nonempty list of numbers"),
    ([[1.0, 2.0], []], "pair {k} y must be a nonempty list of numbers"),
    ([3.0, [1.0, 2.0]], "pair {k} x must be a nonempty list of numbers"),
    ([[True, 1.0], [1.0, 2.0]], "pair {k} x coordinate must be a number, got True"),
    ([[0.0, 1.0], [1.0, False]], "pair {k} y coordinate must be a number, got False"),
    ([[0.0, "1"], [1.0, 2.0]], "pair {k} x coordinate must be a number, got '1'"),
    ([[0.0, None], [1.0, 2.0]], "pair {k} x coordinate must be a number, got None"),
    ([[float("nan"), 1.0], [1.0, 2.0]], "pair {k} x coordinate must be finite, got nan"),
    ([[0.0, 1.0], [1.0, float("-inf")]], "pair {k} y coordinate must be finite, got -inf"),
    ([[0.0], [1.0, 2.0]], "pair {k} x has 1 coordinates, expected 2"),
    ([[0.0, 1.0], [1.0, 2.0, 3.0]], "pair {k} y has 3 coordinates, expected 2"),
    # within a pair: x before y, coordinates in order, values before the count
    ([[float("nan")], [1.0, 2.0]], "pair {k} x coordinate must be finite, got nan"),
    ([[float("nan"), "a"], [1.0, 2.0]], "pair {k} x coordinate must be finite, got nan"),
    ([[0.0, 1.0, 2.0], [float("nan"), 2.0]], "pair {k} x has 3 coordinates, expected 2"),
])
@pytest.mark.parametrize("k", [0, 7, 299])
def test_malformed_pairs_name_the_first_offending_pair(bad_pair, message, k):
    with pytest.raises(FormatError) as exc:
        law_from_data(long_law(k, bad_pair))
    assert str(exc.value) == message.format(k=k)


def test_the_earliest_of_several_bad_pairs_is_reported():
    data = long_law(250, [[0.0, 1.0], [1.0, True]])
    data["pairs"][40] = [[0.0, 1.0], [1.0, 2.0, 5.0]]
    data["pairs"][260] = "x"
    with pytest.raises(FormatError, match=r"^pair 40 y has 3 coordinates, expected 2$"):
        law_from_data(data)
    # a non-finite value late in the list does not hide an earlier bad type
    data = long_law(290, [[float("nan"), 0.0], [1.0, 2.0]])
    data["pairs"][120] = [[0.0, 1.0], ["2", 2.0]]
    with pytest.raises(FormatError, match=r"^pair 120 y coordinate must be a number, got '2'$"):
        law_from_data(data)
    # an integer beyond the float range fails where float() fails
    data = long_law(200, [[0.0, 10 ** 400], [1.0, 2.0]])
    data["pairs"][100] = [[0.0, float("inf")], [1.0, 2.0]]
    with pytest.raises(FormatError, match=r"^pair 100 x coordinate must be finite, got inf$"):
        law_from_data(data)
    with pytest.raises(FormatError, match=r"^pair 200 x coordinate must be finite, got an "
                                           r"integer beyond the float range$"):
        law_from_data(long_law(200, [[0.0, 10 ** 400], [1.0, 2.0]]))


@pytest.mark.parametrize("data, message", [
    ({"dimension": 1, "pairs": [[[0.0], [0.0]]], "snap_tolerance": -1.0},
     "snap_tolerance must be nonnegative, got -1.0"),
    ({"dimension": 1, "pairs": [[[0.0], [0.0]]], "snap_tolerance": True},
     "snap_tolerance must be a number, got True"),
    ({"dimension": 1, "pairs": [[[0.0], [0.0]]], "slice_hints": [3]},
     "slice hint 0 must be an object"),
    ({"dimension": 1, "pairs": [[[0.0], [0.0]]],
      "slice_hints": [{"at": [0.0], "side": "up", "shape": "ball"}]},
     "slice hint side must be primal or dual, got 'up'"),
    ({"dimension": 1, "pairs": [[[0.0], [0.0]]],
      "slice_hints": [{"at": [0.0, 1.0], "shape": "ball"}]},
     "slice hint 0 anchor has 2 coordinates, expected 1"),
    ({"dimension": 1, "pairs": [[[0.0], [0.0]]], "slice_hints": [{"at": [0.0], "shape": "ball"}]},
     "hint needs a params object"),
])
def test_malformed_snap_and_hints_keep_their_messages(data, message):
    with pytest.raises(FormatError) as exc:
        law_from_data(data)
    assert str(exc.value) == message


HINTED = {"dimension": 1, "pairs": [[[0.0], [-1.0]], [[0.0], [1.0]], [[2.0], [3.0]]]}


@pytest.mark.parametrize("hint, message", [
    ({"at": [5.0], "shape": "singleton", "params": {"point": [0.0]}},
     "primal hint anchored at (5.0,) but no pair has that x"),
    ({"at": [0.0], "shape": "segment", "params": {"a": [-0.5], "b": [1.0]}},
     "pair 0: y [-1.0] lies outside the declared primal slice hint at x [0.0]"),
    ({"at": [3.0], "side": "dual", "shape": "singleton", "params": {"point": [1.0]}},
     "pair 2: x [2.0] lies outside the declared dual slice hint at y [3.0]"),
    ({"at": [0.0], "shape": "ball", "params": {"center": [0.0], "radius": -1}},
     "ball radius must be nonnegative, got -1.0"),
    ({"at": [0.0], "shape": "ray", "params": {"origin": [0.0], "direction": [0.0]}},
     "ray direction must be nonzero"),
])
def test_bad_hints_keep_their_messages(hint, message):
    with pytest.raises(ValueError) as exc:
        law_from_data({**HINTED, "slice_hints": [hint]})
    assert str(exc.value) == message


def test_snapping_that_overflows_names_the_first_pair():
    data = {"dimension": 1, "snap_tolerance": 1e-300,
            "pairs": [[[1.0], [2.0]], [[1.0], [1e12]], [[1e10], [1.0]]]}
    with np.errstate(over="ignore"), pytest.raises(ValueError) as exc:
        law_from_data(data)
    assert str(exc.value) == "vector coordinates must be finite, got [inf]"


def reference_law(data):
    """The law that per-vector parsing and the checking constructor build."""
    snap = data.get("snap_tolerance", 0.0)

    def q(v):
        v = np.array([float(c) for c in v])
        return np.round(v / snap) * snap if snap > 0.0 else v

    return LawGraph([(q(x), q(y)) for x, y in data["pairs"]])


@pytest.mark.parametrize("snap", [None, 1e-6, 0.3])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_loaded_arrays_equal_the_checking_constructor(snap, dim):
    rng = np.random.default_rng(dim)
    pts = rng.normal(size=(50, 2, dim)) * 10.0 ** rng.uniform(-3, 3, size=(50, 1, 1))
    pairs = [[list(map(float, x)), list(map(float, y))] for x, y in pts]
    pairs[3] = [[-0.0] * dim, [0.0] * dim]
    pairs[4] = [[1] * dim, [2 ** 53 + 1] * dim]  # integers convert like float()
    data = {"dimension": dim, "pairs": pairs}
    if snap is not None:
        data["snap_tolerance"] = snap
    got, want = law_from_data(data), reference_law(data)
    for a, b in ((got.xs, want.xs), (got.ys, want.ys)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.flags.c_contiguous
        assert a.tobytes() == b.tobytes()
    assert got.primal_hints == {} and got.dual_hints == {}


def test_snapped_hint_anchors_key_like_vec_key():
    data = {"dimension": 1, "snap_tolerance": 0.25,
            "pairs": [[[-0.0], [-1.0]], [[0.0], [1.0]]],
            "slice_hints": [{"at": [0.1], "shape": "segment",
                             "params": {"a": [-1.0], "b": [1.0]}}]}
    law = law_from_data(data)
    assert list(law.primal_hints) == [(0.0,)]
    assert all(type(c) is float for c in next(iter(law.primal_hints)))
    assert law.contains([0.0], [0.5])
