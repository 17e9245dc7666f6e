import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bipotkit import cli
from bipotkit.bipotentials import (
    Bipotential,
    CauchyProduct,
    certify,
    embed_dual,
    embed_primal,
    verify_axioms,
)
from bipotkit.convex import (
    Affine,
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
    QuadraticFamily,
    TabulatedFamily,
    norm_cover,
    quadratic_cover,
    separable_cover,
    tabulated_cover,
)
from bipotkit.demos import build_antitone_law, build_plasticity_law, build_sign_law, nonbic_cover
from bipotkit.formats import (
    FormatError,
    _probe_lines,
    cover_from_data,
    cover_to_data,
    csv_header,
    dump_extended,
    dumps,
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
from bipotkit.laws import Ball, FailingSlice, HalfLineRay, LawGraph, Segment, Singleton
from bipotkit.numerics import INF, Record

from .oracles import oracle_dumps, oracle_fmt, reference_to_jsonable


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


def law_doc(dim):
    return {"dimension": dim, "pairs": [[[0.0], [0.0]]]}


def cover_doc(dim):
    return {"family": "norm", "dimension": dim, "lambda_domain": {"lo": 0, "hi": "inf"}}


def form_docs(dim):
    return [{"form": "quadratic", "scale": 1.0, "dimension": dim},
            {"form": "scaled-norm", "scale": 1.0, "dimension": dim},
            {"form": "indicator-ball", "radius": "inf", "dimension": dim}]


@pytest.mark.parametrize("dim", [True, False, 2.7, 2.0, "2", None, 0, 4, [2]])
def test_dimensions_parse_one_way(dim):
    message = f"dimension must be an integer in [1, 3], got {dim!r}"
    for parse, doc in [(law_from_data, law_doc(dim)), (cover_from_data, cover_doc(dim)),
                       *[(function_from_data, d) for d in form_docs(dim)]]:
        with pytest.raises(FormatError) as exc:
            parse(doc)
        assert str(exc.value) == message


def test_dimensions_default_where_the_schema_allows():
    for doc in form_docs(3):
        assert function_from_data(doc).dim == 3
        del doc["dimension"]
        assert function_from_data(doc).dim == 1
    doc = cover_doc(2)
    assert cover_from_data(doc).dim == 2
    del doc["dimension"]
    assert cover_from_data(doc).dim == 1
    with pytest.raises(FormatError, match=r"got None$"):
        law_from_data({"pairs": [[[0.0], [0.0]]]})


# the readers' rule, applied by every constructor that takes a dimension
CONSTRUCTED_DIMS = {
    "Quadratic": lambda d: Quadratic(1.0, d),
    "ScaledNorm": lambda d: ScaledNorm(1.0, d),
    "IndicatorBall": lambda d: IndicatorBall(1.0, d),
    "QuadraticFamily": QuadraticFamily,
    "NormFamily": NormFamily,
    "quadratic_cover": quadratic_cover,
    "CauchyProduct": CauchyProduct,
    "embed_primal": lambda d: embed_primal(1.0, d),
    "embed_dual": lambda d: embed_dual(1.0, d),
}


@pytest.mark.parametrize("make", sorted(CONSTRUCTED_DIMS))
@pytest.mark.parametrize("dim", [True, 0, 4, 2.7])
def test_constructors_refuse_dimensions_as_the_reader_does(make, dim):
    with pytest.raises(ValueError) as exc:
        CONSTRUCTED_DIMS[make](dim)
    assert str(exc.value) == f"dimension must be an integer in [1, 3], got {dim!r}"


@pytest.mark.parametrize("make", sorted(CONSTRUCTED_DIMS))
def test_constructors_take_numpy_integer_dimensions(make):
    made = CONSTRUCTED_DIMS[make](np.int64(2))
    dim = made.size if isinstance(made, np.ndarray) else made.dim
    assert dim == 2 and type(dim) is int


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


# covers as the constructors accept them, numpy scalars and clamped or
# degenerate grid ends included
ROUND_TRIP_COVERS = {
    "quadratic": lambda: quadratic_cover(np.int64(2)),
    "norm": lambda: norm_cover(3, grid_points=np.int64(16), grid_lo=1e-2, grid_hi=1e2),
    "numpy-flag": lambda: Cover(ClosedInterval(np.float64(0.5), INF, np.bool_(True)),
                                QuadraticFamily(1)),
    "clamped-ends": lambda: Cover(ClosedInterval(0.5, 2.0, grid_lo=0.1, grid_hi=10.0),
                                  NormFamily(1)),
    "zero-interval": lambda: Cover(ClosedInterval(0.0, 0.0, True, grid_lo=1.0, grid_hi=1.0),
                                   QuadraticFamily(2)),
    "separable": lambda: separable_cover(Quadratic(2.0, np.int64(3))),
    "separable-sampled": lambda: separable_cover(
        Sampled(np.array([-1.0, 0.0, 1.0]), np.array([1.0, 0.0, INF])),
        dual_grid=np.array([[-2.0], [0.0], [2.0]])),
    "tabulated": lambda: tabulated_cover([(0.5, ScaledNorm(0.5, 2), IndicatorBall(0.5, 2)),
                                          (INF, IndicatorPoint(np.zeros(2)), Affine(np.zeros(2)))]),
    "nonbic": nonbic_cover,
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_COVERS))
def test_constructed_covers_survive_save_and_load(tmp_path, name):
    cover = ROUND_TRIP_COVERS[name]()
    path = tmp_path / "cover.json"
    save_cover(cover, path)
    back = load_cover(path)
    assert dumps(cover_to_data(back)) == dumps(cover_to_data(cover))
    assert np.array_equal(back.domain.sample_grid, cover.domain.sample_grid)
    if not isinstance(cover.family, TabulatedFamily):
        assert back == cover


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
    assert oracle_fmt(1.0) == "1"
    assert oracle_fmt(-0.0) == "0"
    assert oracle_fmt(1 / 3) == "0.333333333333"
    assert oracle_fmt(INF) == "inf"


def test_csv_header_by_dimension():
    assert csv_header(1) == "x,y,b,pairing"
    assert csv_header(2) == "x1,x2,y1,y2,b,pairing"


def test_probe_rows_lexicographic():
    b = CauchyProduct(1)
    xs = np.array([[0.0], [1.0]])
    ys = np.array([[-1.0], [1.0]])
    rows = list(probe_rows(b, xs, ys))
    assert rows == ["0,-1,0,0", "0,1,0,0", "1,-1,1,-1", "1,1,1,1"]


CSV_SPECIALS = [-0.0, 0.0, INF, -INF, float("nan"), -float("nan"), 5e-324, -5e-324,
                1e308, -1e308, 1 / 3, 999999999999.5, 1e16, 0.1]
CSV_VALUES = st.one_of(st.sampled_from(CSV_SPECIALS), st.floats())


@st.composite
def probe_tables(draw):
    """Hand-made (xg, yg, B, P) tables of special values: 1 x 1, 1 x m,
    n x 1 and n x m, in dimensions 1 to 3."""
    n, m = draw(st.sampled_from([(1, 1), (1, 4), (4, 1), (3, 2)]))
    dim = draw(st.integers(1, 3))

    def stack(shape):
        return np.array(draw(st.lists(CSV_VALUES, min_size=shape[0] * shape[1],
                                      max_size=shape[0] * shape[1]))).reshape(shape)

    return stack((n, dim)), stack((m, dim)), stack((n, m)), stack((n, m))


@settings(max_examples=300, deadline=None)
@given(probe_tables())
@example((np.array([[-0.0]]), np.array([[5e-324]]), np.array([[float("nan")]]),
          np.array([[999999999999.5]])))
def test_probe_lines_print_each_value_as_the_reference(table):
    xg, yg, B, P = table
    coords = [[oracle_fmt(c) for c in p] for p in (*xg, *yg)]
    want = [",".join(coords[i] + coords[len(xg) + j] + [oracle_fmt(B[i, j]), oracle_fmt(P[i, j])])
            for i in range(len(xg)) for j in range(len(yg))]
    assert _probe_lines(table) == want


# ---------------------------------------------------------------------------
# jsonable conversion


def test_to_jsonable_handles_reports_and_arrays():
    out = to_jsonable({"v": np.array([1.0, INF]), "s": np.float64(2.0)})
    assert out == {"v": [1.0, "inf"], "s": 2.0}


def test_to_jsonable_dataclasses():
    from bipotkit.laws import BBReport
    out = to_jsonable(BBReport(is_bb_graph=True, failing_slice=None))
    assert out == {"is_bb_graph": True, "failing_slice": None}


class Box(Record):
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


class Triple(Record):
    a: object
    b: object
    c: object


# record lists: columns that take the fast paths (floats, strings, equal-length
# float arrays and float lists) and columns that do not (mixed values, unequal
# lengths, nested record lists), then one odd record or a reordered dict
FLOATS = st.one_of(st.floats(), st.sampled_from([INF, -INF, float("nan"), -0.0, 0.0, 1e-320]))
ANY_FLOAT = st.one_of(FLOATS, FLOATS.map(np.float64))
SCALARS = st.one_of(ANY_FLOAT, st.text(max_size=3), st.none(), st.booleans(),
                    st.integers(-2 ** 70, 2 ** 70))


def columns(n, nested):
    """Strategies of one field's values over ``n`` records."""
    rows = st.integers(0, 3)
    kinds = [
        st.lists(FLOATS, min_size=n, max_size=n),
        st.lists(ANY_FLOAT, min_size=n, max_size=n),
        st.lists(st.text(max_size=3), min_size=n, max_size=n),
        st.lists(SCALARS, min_size=n, max_size=n),
        rows.flatmap(lambda d: st.lists(hnp.arrays(np.float64, d, elements=FLOATS),
                                        min_size=n, max_size=n)),
        rows.flatmap(lambda d: st.lists(st.lists(ANY_FLOAT, min_size=d, max_size=d),
                                        min_size=n, max_size=n)),
        st.lists(hnp.arrays(np.float64, rows, elements=FLOATS), min_size=n, max_size=n),
        st.lists(st.lists(ANY_FLOAT, max_size=3).map(tuple), min_size=n, max_size=n),
        st.lists(hnp.arrays(np.float64, (2, 2), elements=FLOATS), min_size=n, max_size=n),
        st.lists(st.one_of(hnp.arrays(np.float32, 2), st.lists(SCALARS, min_size=2, max_size=2)),
                 min_size=n, max_size=n),
        st.sampled_from([np.int64, np.bool_, np.float32]).flatmap(
            lambda t: st.lists(hnp.arrays(t, 2), min_size=n, max_size=n)),
    ]
    if nested:
        kinds.append(st.lists(record_lists(nested=False), min_size=n, max_size=n))
    return st.one_of(kinds)


@st.composite
def record_lists(draw, nested=True):
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        cols = [draw(columns(n, nested)) for _ in range(3)]
        items = [Triple(*vals) for vals in zip(*cols)]
    else:
        keys = draw(st.lists(st.text(alphabet="ab%s\u00e9\"", max_size=3), min_size=1,
                             max_size=3, unique=True))
        cols = [draw(columns(n, nested)) for _ in keys]
        items = [dict(zip(keys, vals)) for vals in zip(*cols)]
        if len(keys) > 1 and draw(st.booleans()):
            k = draw(st.integers(0, n - 1))
            items[k] = dict(reversed(items[k].items()))
    if draw(st.integers(0, 3)) == 0:
        odd = draw(st.one_of(SCALARS, st.builds(Box, SCALARS), st.just({"a": 1.0}),
                             st.just({}), st.builds(Triple, SCALARS, SCALARS, SCALARS)))
        items[draw(st.integers(0, n - 1))] = odd
    return items if draw(st.booleans()) else tuple(items)


@settings(max_examples=400, deadline=None)
@given(record_lists())
@example([{"x": 1.0, "y": "a"}, {"y": "b", "x": 2.0}])  # keys in another order
@example([Box(np.array([1.0, 2.0])), Box(np.array([3.0]))])  # arrays of unequal length
@example([{"%s": INF, "%%": [np.float64(-0.0)]}, {"%s": 1.0, "%%": [float("nan")]}])
def test_record_lists_write_the_stdlib_text(items):
    assert dumps(items) == oracle_dumps(items)
    assert dumps({"r": items, "s": [items, items]}) == oracle_dumps({"r": items, "s": [items, items]})


def emitted(monkeypatch, capsys, argv):
    """Exit code, the objects the CLI hands to the writer, and its stdout."""
    seen = []

    def record(obj):
        seen.append(obj)
        return dumps(obj)

    monkeypatch.setattr(cli, "dumps", record)
    code = cli.main(argv)
    return code, seen, capsys.readouterr().out


class Formula(Bipotential):
    """A 1-d b from a plain function, tabulated pair by pair."""

    dim = 1

    def __init__(self, fn):
        self.fn = fn

    def value(self, x, y):
        return self.fn(x.tolist(), y.tolist())


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
    bic, axioms = more[0]["bic"], more[0]["axioms"]
    assert code == 2 and not bic.is_bic
    # record lists: BIC counterexamples, some with an infinite deficit, and
    # no-contact notes
    assert len(bic.counterexamples) > 1 and len(axioms.no_contact) > 1
    assert any(c.deficit == INF for c in bic.counterexamples)
    seen += more
    texts.append(out)
    # the refused report written directly, and axiom counterexamples
    report = certify(nonbic_cover(), np.linspace(-2, 2, 9)[:, None],
                     np.linspace(-2, 2, 9)[:, None], mode="grid", tol=1e-3).reports()
    bumpy = verify_axioms(Formula(lambda x, y: abs(x[0] * y[0]) + (x[0] ** 2 - 1) ** 2 - 0.3),
                          np.linspace(-2, 2, 9)[:, None], np.linspace(-2, 2, 9)[:, None])
    assert not report["bic"].is_bic and len(bumpy.counterexamples) > 1
    for obj in (report, bumpy):
        seen.append(obj)
        texts.append(dumps(obj) + "\n")
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


PAIR_FAULTS = [
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
]


@pytest.mark.parametrize("bad_pair, message", PAIR_FAULTS)
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
    """The law that per-vector parsing and the checking constructors build."""
    snap = data.get("snap_tolerance", 0.0)

    def q(v):
        v = np.array([float(c) for c in v])
        return np.round(v / snap) * snap if snap > 0.0 else v

    hints = {"primal": {}, "dual": {}}
    for h in data.get("slice_hints", []):
        hints[h.get("side", "primal")][tuple(q(h["at"]))] = reference_hint(h["shape"], h["params"])
    return LawGraph([(q(x), q(y)) for x, y in data["pairs"]],
                    primal_hints=hints["primal"], dual_hints=hints["dual"])


def reference_hint(shape, p):
    def vec(c):
        return np.array([float(t) for t in c])

    if shape == "singleton":
        return Singleton(vec(p["point"]))
    if shape == "segment":
        return Segment(vec(p["a"]), vec(p["b"]))
    if shape == "ball":
        return Ball(vec(p["center"]), INF if p["radius"] == "inf" else p["radius"])
    return HalfLineRay(vec(p["origin"]), vec(p["direction"]))


def assert_same_hints(got, want):
    """Same anchor keys (as floats, -0.0 kept) in the same order, and hints
    of the same shapes with bit-identical fields."""
    assert repr(list(got)) == repr(list(want))
    assert all(type(c) is float for key in got for c in key)
    for a, b in zip(got.values(), want.values()):
        assert type(a) is type(b)
        for name in b._fields:
            u, w = getattr(a, name), getattr(b, name)
            if isinstance(w, np.ndarray):
                assert u.dtype == w.dtype and u.shape == w.shape and u.flags.c_contiguous
                assert u.tobytes() == w.tobytes()
            else:
                assert type(u) is type(w) and u == w


def with_hints(data, rng):
    """``data`` with hints of every shape on both sides, each at a slice of
    one (snapped) pair, plus a replaced hint and an infinite ball at a
    zero anchor, which the -0.0 of pair 3 meets."""
    dim, snap = data["dimension"], data.get("snap_tolerance", 0.0)

    def q(v):
        v = np.array(v, dtype=float)
        return (np.round(v / snap) * snap if snap > 0.0 else v).tolist()

    sides = {"primal": [q(x) for x, _ in data["pairs"]],
             "dual": [q(y) for _, y in data["pairs"]]}
    hints = []
    for j, k in enumerate(range(4, len(data["pairs"]), 3)):
        side = ("primal", "dual")[j % 2]
        at, other = (0, 1) if side == "primal" else (1, 0)
        if sides[side].count(sides[side][k]) > 1:
            continue  # a slice of several pairs
        inside = q(data["pairs"][k][other])
        shape = ("singleton", "segment", "ball", "ray")[j // 2 % 4]
        params = {
            "singleton": {"point": inside},
            "segment": {"a": [c - 1.0 for c in inside], "b": [c + 2 for c in inside]},
            "ball": {"center": [c + 0.125 for c in inside], "radius": [1.0, 2, "inf"][j % 3]},
            "ray": {"origin": inside, "direction": rng.normal(size=dim).tolist()},
        }[shape]
        hints.append({"at": data["pairs"][k][at], "side": side, "shape": shape,
                      "params": params})
    for center in ([5.0] * dim, [-1] * dim):
        hints.append({"at": [0.0] * dim, "shape": "ball",
                      "params": {"center": center, "radius": "inf"}})
    return {**data, "slice_hints": hints}


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
    hinted = with_hints(data, rng)
    assert {h["shape"] for h in hinted["slice_hints"]} == {"singleton", "segment", "ball", "ray"}
    assert {h.get("side") for h in hinted["slice_hints"]} == {"primal", "dual", None}
    for doc in (data, hinted):
        got, want = law_from_data(doc), reference_law(doc)
        for a, b in ((got.xs, want.xs), (got.ys, want.ys)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.flags.c_contiguous
            assert a.tobytes() == b.tobytes()
        assert_same_hints(got.primal_hints, want.primal_hints)
        assert_same_hints(got.dual_hints, want.dual_hints)
        assert bool(got.primal_hints) == (doc is hinted)


def test_snapped_hint_anchors_key_like_vec_key():
    data = {"dimension": 1, "snap_tolerance": 0.25,
            "pairs": [[[-0.0], [-1.0]], [[0.0], [1.0]]],
            "slice_hints": [{"at": [0.1], "shape": "segment",
                             "params": {"a": [-1.0], "b": [1.0]}}]}
    law = law_from_data(data)
    assert list(law.primal_hints) == [(0.0,)]
    assert all(type(c) is float for c in next(iter(law.primal_hints)))
    assert law.contains([0.0], [0.5])


# ---------------------------------------------------------------------------
# the one-pass check: hints name their first fault as pairs do


def hinted_law(m=60):
    """long_law's 2-d pairs with a valid hint at every third pair: the four
    shapes in turn, primal and dual alternately."""
    data = long_law(m=m)
    hints = []
    for j, k in enumerate(range(0, m, 3)):
        x, y = data["pairs"][k]
        side = ("primal", "dual")[j % 2]
        at, inside = (x, y) if side == "primal" else (y, x)
        shape = ("singleton", "segment", "ball", "ray")[j // 2 % 4]
        params = {
            "singleton": {"point": inside},
            "segment": {"a": inside, "b": [c + 1.0 for c in inside]},
            "ball": {"center": [c + 0.25 for c in inside], "radius": [1.0, "inf"][j % 2]},
            "ray": {"origin": inside, "direction": [1.0, -1.0]},
        }[shape]
        hints.append({"at": at, "side": side, "shape": shape, "params": params})
    data["slice_hints"] = hints
    return data


def bad(shape="singleton", at=(0.0, -1.0), **params):
    return {"at": list(at), "shape": shape, "params": params}


SHAPES = "['ball', 'ray', 'segment', 'singleton']"
HINT_FAULTS = [
    (3, "slice hint {k} must be an object"),
    ([[0.0, -1.0], "singleton"], "slice hint {k} must be an object"),
    ({**bad(point=[1.0, 0.0]), "side": "up"}, "slice hint side must be primal or dual, got 'up'"),
    ({"shape": "singleton", "params": {"point": [1.0, 0.0]}},
     "slice hint {k} anchor must be a nonempty list of numbers"),
    (bad(at=[], point=[1.0, 0.0]), "slice hint {k} anchor must be a nonempty list of numbers"),
    (bad(at=[True, -1.0], point=[1.0, 0.0]),
     "slice hint {k} anchor coordinate must be a number, got True"),
    (bad(at=[0.0, "1"], point=[1.0, 0.0]),
     "slice hint {k} anchor coordinate must be a number, got '1'"),
    (bad(at=[0.0], point=[1.0, 0.0]), "slice hint {k} anchor has 1 coordinates, expected 2"),
    (bad(at=[0.0, float("nan")], point=[1.0, 0.0]),
     "slice hint {k} anchor coordinate must be finite, got nan"),
    (bad(at=[10 ** 400, 0.0], point=[1.0, 0.0]), "slice hint {k} anchor coordinate must be "
                                                 "finite, got an integer beyond the float range"),
    (bad(shape=["ball"], center=[0.0, 0.0], radius=1.0),
     f"hint shape must be one of {SHAPES}, got ['ball']"),
    (bad(shape="torus"), f"hint shape must be one of {SHAPES}, got 'torus'"),
    ({"at": [0.0, -1.0], "params": {}}, f"hint shape must be one of {SHAPES}, got None"),
    ({"at": [0.0, -1.0], "shape": "ball"}, "hint needs a params object"),
    ({"at": [0.0, -1.0], "shape": "ball", "params": [0.0]}, "hint needs a params object"),
    (bad(point="x"), "singleton point must be a nonempty list of numbers"),
    (bad(point=[]), "singleton point must be a nonempty list of numbers"),
    (bad(), "singleton point must be a nonempty list of numbers"),
    (bad(point=[None, 0.0]), "singleton point coordinate must be a number, got None"),
    (bad(point=[1.0, False]), "singleton point coordinate must be a number, got False"),
    (bad("segment", a=["1", 0.0], b=[1.0, 0.0]),
     "segment end a coordinate must be a number, got '1'"),
    (bad("segment", a=[1.0, 0.0], b=[0.0, float("-inf")]),
     "segment end b coordinate must be finite, got -inf"),
    (bad("segment", a=[1.0, 0.0], b=[0.0, 1.0, 2.0]), "segment end b has 3 coordinates, expected 2"),
    (bad("segment", b=[1.0, 0.0]), "segment end a must be a nonempty list of numbers"),
    (bad("ball", center=[False, 0.0], radius=1.0),
     "ball center coordinate must be a number, got False"),
    (bad("ball", center=[0.0, 0.0], radius=-1), "ball radius must be nonnegative, got -1.0"),
    (bad("ball", center=[0.0, 0.0], radius=-0.5), "ball radius must be nonnegative, got -0.5"),
    (bad("ball", center=[0.0, 0.0], radius=True), 'ball radius must be a number or "inf", got True'),
    (bad("ball", center=[0.0, 0.0], radius="-inf"),
     "ball radius must be a number or \"inf\", got '-inf'"),
    (bad("ball", center=[0.0, 0.0]), 'ball radius must be a number or "inf", got None'),
    (bad("ball", center=[0.0, 0.0], radius=float("nan")),
     'ball radius must be finite or the "inf" sentinel, got nan'),
    (bad("ball", center=[0.0, 0.0], radius=float("inf")),
     'ball radius must be finite or the "inf" sentinel, got inf'),
    (bad("ball", center=[0.0, 0.0], radius=10 ** 400),
     "ball radius must be finite, got an integer beyond the float range"),
    (bad("ray", origin=[0.0, 10 ** 400], direction=[1.0, 0.0]),
     "ray origin coordinate must be finite, got an integer beyond the float range"),
    (bad("ray", origin=[0.0, 0.0], direction=[0.0, 0.0]), "ray direction must be nonzero"),
    (bad("ray", origin=[0.0, 0.0], direction=[-0.0, 0]), "ray direction must be nonzero"),
    # a squared norm that underflows to 0 is a zero direction, as norm() has it
    (bad("ray", origin=[0.0, 0.0], direction=[1e-200, 0.0]), "ray direction must be nonzero"),
    (bad("ray", origin=[0.0, 0.0], direction=[1.0]), "ray direction has 1 coordinates, expected 2"),
    # within a hint: side, anchor, shape, params, then the fields in order
    ({**bad("torus", at=[True, 0.0]), "side": "up"},
     "slice hint side must be primal or dual, got 'up'"),
    (bad("torus", at=[True, 0.0]), "slice hint {k} anchor coordinate must be a number, got True"),
    ({"at": [0.0, 0.0], "shape": "torus", "params": 3},
     f"hint shape must be one of {SHAPES}, got 'torus'"),
    (bad("segment", a=[0.0], b=[True, 0.0]), "segment end a has 1 coordinates, expected 2"),
    (bad("segment", a=[float("nan"), "x"], b=[0.0, 0.0]),
     "segment end a coordinate must be finite, got nan"),
    (bad("ball", center=[float("nan"), 0.0], radius=-1),
     "ball center coordinate must be finite, got nan"),
    (bad("ball", center=[0.0, 0.0, 0.0], radius=-1), "ball center has 3 coordinates, expected 2"),
    (bad("ray", origin=[0.0], direction=[0.0, 0.0]), "ray origin has 1 coordinates, expected 2"),
]


@pytest.mark.parametrize("bad_hint, message", HINT_FAULTS)
@pytest.mark.parametrize("k", [0, 7, 19])
def test_malformed_hints_name_the_first_offending_hint(bad_hint, message, k):
    data = hinted_law()
    assert len(data["slice_hints"]) == 20
    data["slice_hints"][k] = bad_hint
    with pytest.raises(ValueError) as exc:
        law_from_data(data)
    assert str(exc.value) == message.format(k=k)


def test_the_hinted_law_loads():
    law = law_from_data(hinted_law())
    assert len(law.primal_hints) == len(law.dual_hints) == 10
    assert {type(h) for h in law.primal_hints.values()} == {Singleton, Segment, Ball, HalfLineRay}


@pytest.mark.parametrize("hints", [{"a": 1}, "ab", None, 3, ({"at": [0.0]},)])
def test_slice_hints_must_be_a_list(hints):
    data = {**hinted_law(), "slice_hints": hints}
    with pytest.raises(FormatError, match=r"^slice_hints must be a list$"):
        law_from_data(data)
    # a bad pair comes first
    data["pairs"][5] = "x"
    with pytest.raises(FormatError, match=r"^pair 5 must be"):
        law_from_data(data)


def test_the_earliest_fault_across_pairs_and_hints_is_reported():
    data = hinted_law()
    data["slice_hints"][0] = bad("torus")
    data["pairs"][40] = [[0.0, 1.0], [1.0, True]]
    with pytest.raises(FormatError, match=r"^pair 40 y coordinate must be a number, got True$"):
        law_from_data(data)
    data = hinted_law()
    data["slice_hints"][12] = bad(at=[0.0, 1.0, 2.0])
    data["slice_hints"][5] = bad("ray", origin=[0.0, 0.0], direction=[0.0, 0.0])
    data["slice_hints"][16] = 3
    with pytest.raises(ValueError, match=r"^ray direction must be nonzero$"):
        law_from_data(data)
    # a non-finite value in a late hint does not hide an earlier bad type
    data = hinted_law()
    data["slice_hints"][18] = bad(point=[float("nan"), 0.0])
    data["slice_hints"][9] = bad("ball", center=[0.0, 0.0], radius="1")
    with pytest.raises(FormatError, match=r"^ball radius must be a number or \"inf\", got '1'$"):
        law_from_data(data)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_injected_faults_report_the_earliest(data):
    law = hinted_law(m=30)
    m, n_hints = len(law["pairs"]), len(law["slice_hints"])
    # positions in file order: the pairs, then the hints
    spots = data.draw(st.lists(st.integers(0, m + n_hints - 1), min_size=1, max_size=3,
                               unique=True))
    messages = {}
    for spot in spots:
        if spot < m:
            fault, message = data.draw(st.sampled_from(PAIR_FAULTS))
            law["pairs"][spot] = fault
            messages[spot] = message.format(k=spot)
        else:
            fault, message = data.draw(st.sampled_from(HINT_FAULTS))
            law["slice_hints"][spot - m] = fault
            messages[spot] = message.format(k=spot - m)
    with pytest.raises(ValueError) as exc:
        law_from_data(law)
    assert str(exc.value) == messages[min(spots)]


def test_number_subclasses_load_like_their_values():
    class Count(int):
        pass

    data = {"dimension": 2, "pairs": [[[np.float64(0.5), Count(2)], [1.0, 2.0]]],
            "slice_hints": [{"at": [0.5, Count(2)], "shape": "singleton",
                             "params": {"point": [np.float64(1.0), 2]}}]}
    law = law_from_data(data)
    assert law.xs.tolist() == [[0.5, 2.0]] and list(law.primal_hints) == [(0.5, 2.0)]
    assert_same_hints(law.primal_hints, reference_law(data).primal_hints)
    data["pairs"][0][0][1] = True
    with pytest.raises(FormatError, match=r"^pair 0 x coordinate must be a number, got True$"):
        law_from_data(data)
