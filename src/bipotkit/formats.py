"""File formats: JSON law graphs and covers, CSV probe tables.

JSON has no infinity, so the +inf sentinel travels as the string "inf",
accepted only where the schema allows an extended value (radii, offsets,
sampled values, parameters, interval ends). Coordinates must be finite and
parse rejects NaN/Inf outright. All emission is deterministic: sorted JSON
keys, 12-significant-digit numbers in CSV, fixed row order.

Each analytic function form and slice-hint shape is stated once, as a
table entry from its file name to its record class: the reader and the
writer walk the class's ``_fields``, each field under its own name as key
(``dim`` as "dimension"), read and written by the rule for its name. A
quadratic or norm cover writes its log grid's ends, "grid_lo" and
"grid_hi", only where they differ from the ends its lo and hi give.

Every JSON document, file or report, comes from one writer, :func:`dumps`.
It takes report objects (records, arrays, numpy scalars, tuples) as well
as plain data and writes them in one pass; a record's hidden fields are
left out. Arrays and lists share one float rule: an array is written as
its nested lists, each float through the one text rule for floats.
:func:`to_jsonable` is its round trip, the plain data that the written
text parses back to.
"""

from __future__ import annotations

import functools
import json
import math
from contextlib import suppress
from itertools import chain, repeat
from operator import attrgetter, itemgetter

import numpy as np

from .bipotentials import _probe_table
from .convex import (
    Affine,
    IndicatorBall,
    IndicatorPoint,
    MaxAffine,
    Quadratic,
    Sampled,
    ScaledNorm,
)
from .covers import (
    DEFAULT_GRID_POINTS,
    ClosedInterval,
    Cover,
    FiniteSet,
    NormFamily,
    QuadraticFamily,
    SeparableFamily,
    TabulatedFamily,
    _ScaleFamily,
    _grid_ends,
    separable_cover,
    tabulated_cover,
)
from .laws import Ball, HalfLineRay, LawGraph, Segment, Singleton
from .numerics import INF, Record, _batch_norm2, as_vector, ensure_dimension


class FormatError(ValueError):
    """Structurally invalid law, cover, or function document."""


# ---------------------------------------------------------------------------
# extended-value sentinels


def dump_extended(v):
    """A float for JSON, +inf as the string sentinel."""
    v = float(v)
    return "inf" if v == INF else v


def _to_float(v, what):
    try:
        return float(v)
    except OverflowError:
        raise FormatError(f"{what} must be finite, got an integer beyond the float range") from None


def parse_extended(v, what):
    """Accept a finite number or the "inf" sentinel."""
    if v == "inf":
        return INF
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise FormatError(f"{what} must be a number or \"inf\", got {v!r}")
    out = _to_float(v, what)
    if out != out or out in (INF, -INF):
        raise FormatError(f"{what} must be finite or the \"inf\" sentinel, got {v!r}")
    return out


def parse_finite(v, what):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise FormatError(f"{what} must be a number, got {v!r}")
    out = _to_float(v, what)
    if not math.isfinite(out):
        raise FormatError(f"{what} must be finite, got {v!r}")
    return out


def _check_vector(v, what, dim=None):
    """The coordinates of a vector as floats, checked in order."""
    if not isinstance(v, (list, tuple)) or not v:
        raise FormatError(f"{what} must be a nonempty list of numbers")
    out = [parse_finite(c, f"{what} coordinate") for c in v]
    if dim is not None and len(out) != dim:
        raise FormatError(f"{what} has {len(out)} coordinates, expected {dim}")
    return out


def _parse_vector(v, what, dim=None):
    return np.array(_check_vector(v, what, dim))


def _parse_nodes(v, what):
    """A list of grid nodes of one dimension as an (n, dim) array, each
    node checked in order."""
    if not isinstance(v, list):
        raise FormatError(f"{what} must be a list of nodes, got {v!r}")
    nodes = [_check_vector(g, f"{what} node") for g in v]
    if len({len(g) for g in nodes}) > 1:
        raise FormatError(f"{what} nodes must share one dimension")
    return np.array(nodes)


# ---------------------------------------------------------------------------
# record schemas


# the analytic function forms and the slice-hint shapes, by their file
# names: each field of the record is one key, read and written by the rule
# for its name (see _parse_field and _fields_to_data)
_FORMS = {"quadratic": Quadratic, "scaled-norm": ScaledNorm, "indicator-ball": IndicatorBall,
          "indicator-point": IndicatorPoint, "affine": Affine}
_HINT_SHAPES = {"singleton": Singleton, "segment": Segment, "ball": Ball, "ray": HalfLineRay}
_NAMES = {cls: name for table in (_FORMS, _HINT_SHAPES) for name, cls in table.items()}
# the params of each shape are its fields: vectors, then a ball's radius
_HINT_VECTORS = {cls: tuple(name for name in cls._fields if name != "radius")
                 for cls in _HINT_SHAPES.values()}
_KEYS = {"dim": "dimension"}  # every other field is its own key
_DEFAULTS = {"dimension": 1, "offset": 0.0}
_HINT_LABELS = {"a": "end a", "b": "end b"}  # every other hint field names itself


def _parse_field(name, value, what, dim=None):
    """One field of a function form or slice hint, checked by its name."""
    if name == "dim":
        return ensure_dimension(value, FormatError)
    if name == "radius":
        return parse_extended(value, what)
    if name in ("scale", "offset"):
        return parse_finite(value, what)
    return _parse_vector(value, what, dim)


def _fields_to_data(record):
    """The keys of a function form's or slice hint's fields: arrays as lists,
    radii as extended values, the rest as they are."""
    return {_KEYS.get(name, name): list(v) if isinstance(v, np.ndarray)
            else dump_extended(v) if name == "radius" else v
            for name in record._fields for v in [getattr(record, name)]}


# ---------------------------------------------------------------------------
# law graphs


def _hint_to_data(hint):
    shape = _NAMES.get(type(hint))
    if shape not in _HINT_SHAPES:
        raise FormatError(f"unknown hint shape {type(hint).__name__}")
    return {"shape": shape, "params": _fields_to_data(hint)}


def _hint_from_data(k, data, dim):
    """Slice hint ``k`` checked field by field through the checking
    constructors, so the first fault in it is the one raised."""
    if not isinstance(data, dict):
        raise FormatError(f"slice hint {k} must be an object")
    side = data.get("side", "primal")
    if side not in ("primal", "dual"):
        raise FormatError(f"slice hint side must be primal or dual, got {side!r}")
    _check_vector(data.get("at"), f"slice hint {k} anchor", dim)
    shape = data.get("shape")
    if not isinstance(shape, str) or shape not in _HINT_SHAPES:
        raise FormatError(f"hint shape must be one of {sorted(_HINT_SHAPES)}, got {shape!r}")
    params = data.get("params")
    if not isinstance(params, dict):
        raise FormatError("hint needs a params object")
    cls = _HINT_SHAPES[shape]
    return cls(*[_parse_field(name, params.get(name),
                              f"{shape} {_HINT_LABELS.get(name, name)}", dim)
                 for name in cls._fields])


def law_to_data(law, snap_tolerance=None):
    """LawGraphFile document for a law graph."""
    data = {
        "dimension": law.dim,
        "pairs": [[list(x), list(y)] for x, y in law.pairs],
    }
    hints = [{"at": list(key), "side": side, **_hint_to_data(hint)}
             for side, table in (("primal", law.primal_hints), ("dual", law.dual_hints))
             for key, hint in table.items()]
    if hints:
        data["slice_hints"] = hints
    if snap_tolerance:
        data["snap_tolerance"] = float(snap_tolerance)
    return data


def _ball_radius(v):
    """The radius :func:`parse_extended` and :class:`Ball` accept, else None."""
    with suppress(FormatError):
        r = parse_extended(v, "ball radius")
        return r if r >= 0.0 else None


def _check_law(raw, hints, dim):
    """The pairs and slice hints of a law document, checked in one pass.

    Every vector (x sides, y sides, then each hint's anchor and vector
    params in field order) must be a list of ``dim`` numbers; all
    coordinates are type-checked in one map, converted in one array and
    tested for finiteness at once, with ball radii and ray directions
    checked beside them. Returns the (n, dim) float64 rows, pairs first,
    and one (side, shape class, anchor row, end row, radius or ()) entry
    per hint, the primal hints first, each side in file order.

    Each check that fails marks its faulty vectors; a pair or hint whose
    structure is faulty stands in with faulty vectors. The first item in
    file order (the pairs, then the hints) with a marked vector is then
    checked alone, by the per-item checks, which raise its first fault.
    """
    m = len(raw)
    pairs = raw if all(map(isinstance, raw, repeat((list, tuple)))) and set(map(len, raw)) == {2} \
        else [e if isinstance(e, (list, tuple)) and len(e) == 2 else (None, None) for e in raw]
    vectors = [e[0] for e in pairs] + [e[1] for e in pairs]
    layout = []
    for h in hints:
        start = len(vectors)
        shape, params, side = (h.get("shape"), h.get("params"), h.get("side", "primal")) \
            if isinstance(h, dict) else (None, None, None)
        cls = _HINT_SHAPES.get(shape) if isinstance(shape, str) else None
        ok = cls is not None and isinstance(params, dict) and side in ("primal", "dual")
        radius = (_ball_radius(params.get("radius")),) if ok and cls is Ball else ()
        vectors += [h.get("at"), *map(params.get, _HINT_VECTORS[cls])] \
            if ok and None not in radius else [None]  # a faulty structure: a faulty vector
        layout.append((side, cls, start, len(vectors), radius))

    bad = np.zeros(len(vectors), dtype=bool)  # the vectors a failed check marks
    if not (all(map(isinstance, vectors, repeat((list, tuple)))) and set(map(len, vectors)) == {dim}):
        shaped = [isinstance(v, (list, tuple)) and len(v) == dim for v in vectors]
        bad |= ~np.array(shaped)
        vectors = [v if ok else [0.0] * dim for v, ok in zip(vectors, shaped)]
    flat = list(chain.from_iterable(vectors))
    if not set(map(type, flat)) <= {int, float}:  # a bool, another type or a number's subclass
        number = np.array([isinstance(c, (int, float)) and not isinstance(c, bool) for c in flat])
        bad |= ~number.reshape(-1, dim).all(axis=1)
        flat = [c if ok else 0.0 for c, ok in zip(flat, number)]
    try:
        rows = np.array(flat, dtype=np.float64).reshape(-1, dim)
    except OverflowError:  # an integer that float() refuses, from 2**1024 - 2**970 up: NaN here
        rows = np.array([math.nan if isinstance(c, int) and abs(c) >= 2 ** 1024 - 2 ** 970
                         else c for c in flat], dtype=np.float64).reshape(-1, dim)
    if not np.isfinite(rows).all():
        bad |= ~np.isfinite(rows).all(axis=1)
    # HalfLineRay refuses a direction whose norm, accumulated in order, is 0
    directions = [stop - 1 for _, cls, _, stop, _ in layout if cls is HalfLineRay]
    if directions:
        bad[directions] |= _batch_norm2(rows[directions]) == 0.0
    if bad.any():
        at = np.flatnonzero(bad)
        k = int(np.where(at < 2 * m, at % m, m - 1 + np.searchsorted(
            [start for _, _, start, _, _ in layout], at, "right")).min())
        if k >= m:
            _hint_from_data(k - m, hints[k - m], dim)
        if pairs[k] is not raw[k]:  # a stand-in for a faulty structure
            raise FormatError(f"pair {k} must be [[x...], [y...]]")
        for v, side in zip(raw[k], "xy"):
            _check_vector(v, f"pair {k} {side}", dim)
    # "primal" > "dual", and a reversed sort keeps the file order of equal sides
    return rows, sorted(layout, key=itemgetter(0), reverse=True)


def law_from_data(data):
    """Law graph from a LawGraphFile document.

    The pairs and slice hints are checked in one pass (:func:`_check_law`),
    which raises the first fault in file order, naming its pair or hint; a
    ``slice_hints`` that is not a list comes after every pair. The hints
    are built from their checked rows without checking them again.

    A positive snap_tolerance quantizes every coordinate to its grid before
    slicing, so laws sampled with floating noise form exact slices; hint
    anchors are quantized the same way. A row that quantizing overflows is
    refused, the first of the x sides, the y sides, the primal anchors and
    then the dual anchors.
    """
    if not isinstance(data, dict):
        raise FormatError("a law file must be a JSON object")
    dim = _parse_field("dim", data.get("dimension"), "dimension")
    raw = data.get("pairs")
    if not isinstance(raw, list) or not raw:
        raise FormatError("pairs must be a nonempty list")
    snap = parse_finite(data.get("snap_tolerance", 0.0), "snap_tolerance")
    if snap < 0:
        raise FormatError(f"snap_tolerance must be nonnegative, got {snap}")
    hints = data.get("slice_hints", [])
    rows, layout = _check_law(raw, hints if isinstance(hints, list) else [], dim)
    if not isinstance(hints, list):
        raise FormatError("slice_hints must be a list")
    m = len(raw)
    xs, ys, anchors = rows[:m], rows[m:2 * m], rows[[start for _, _, start, _, _ in layout]]
    if snap > 0.0:
        with np.errstate(over="ignore"):  # a row that overflows is refused below
            xs, ys, anchors = (np.round(v / snap) * snap for v in (xs, ys, anchors))
        snapped = np.concatenate([xs, ys, anchors])
        # the first row that is not finite raises (row 0, finite, when none)
        as_vector(snapped[np.isfinite(snapped).all(axis=1).argmin()])
    by_side = {"primal": {}, "dual": {}}
    for (side, cls, start, stop, radius), key in zip(layout, map(tuple, anchors.tolist())):
        # one record of the checked fields, taken as they are
        by_side[side][key] = cls._records(*([f] for f in (*rows[start + 1:stop], *radius)))[0]
    return LawGraph._from_arrays(xs, ys, by_side["primal"], by_side["dual"])


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed JSON in {path}: {exc}") from exc


def _write_json(data, path):
    with open(path, "w") as fh:
        fh.write(dumps(data))
        fh.write("\n")


def load_law(path):
    return law_from_data(_read_json(path))


def save_law(law, path, snap_tolerance=None):
    _write_json(law_to_data(law, snap_tolerance), path)


# ---------------------------------------------------------------------------
# convex function descriptors


def function_to_data(phi):
    form = _NAMES.get(type(phi))
    if form in _FORMS:
        return {"form": form, **_fields_to_data(phi)}
    if isinstance(phi, MaxAffine):
        return {"form": "max-affine",
                "pieces": [{"slope": list(s), "offset": o}
                           for s, o in zip(phi.slopes, phi.offsets.tolist())]}
    if isinstance(phi, Sampled):
        return {"form": "sampled",
                "grid": [list(g) for g in phi.grid],
                "values": [dump_extended(v) for v in phi.values]}
    raise FormatError(f"cannot serialize {type(phi).__name__}")


def function_from_data(data):
    if not isinstance(data, dict):
        raise FormatError("a function descriptor must be a JSON object")
    form = data.get("form")
    cls = _FORMS.get(form) if isinstance(form, str) else None
    if cls is not None:
        return cls(*[_parse_field(name, data.get(key, _DEFAULTS.get(key)), key)
                     for name in cls._fields for key in [_KEYS.get(name, name)]])
    if form == "max-affine":
        pieces = data.get("pieces")
        if not isinstance(pieces, list) or not pieces:
            raise FormatError("max-affine needs a nonempty pieces list")
        parsed = []
        for p in pieces:
            if not isinstance(p, dict):
                raise FormatError(f"a max-affine piece must be a JSON object, got {p!r}")
            parsed.append((_parse_vector(p.get("slope"), "piece slope"),
                           parse_finite(p.get("offset", 0.0), "piece offset")))
        return MaxAffine.from_pieces(parsed)
    if form == "sampled":
        grid, values = data.get("grid"), data.get("values", [])
        if not isinstance(grid, list) or not grid:
            raise FormatError("sampled needs a nonempty grid")
        if not isinstance(values, list):
            raise FormatError(f"sampled values must be a list, got {values!r}")
        return Sampled(_parse_nodes(grid, "grid"),
                       np.array([parse_extended(v, "sampled value") for v in values]))
    raise FormatError(f"unknown function form {form!r}")


# ---------------------------------------------------------------------------
# covers


def cover_to_data(cover):
    """CoverFile document for a cover. The file holds a quadratic or norm
    family over an interval, and a separable or tabulated family over the
    parameters it implies: {0}, or the table's own; any other pairing would
    load as another cover, and is refused."""
    fam, dom = cover.family, cover.domain
    if isinstance(fam, _ScaleFamily) and isinstance(dom, ClosedInterval):
        lam = {"lo": dump_extended(dom.lo), "hi": dump_extended(dom.hi),
               "includes_infinity": dom.includes_infinity, "grid_points": dom.grid_points}
        # the log grid's ends, where they are not the ones lo and hi give
        for key, end in zip(("grid_lo", "grid_hi"), _grid_ends(dom.lo, dom.hi)):
            if getattr(dom, key) != end:
                lam[key] = getattr(dom, key)
        return {"family": "quadratic" if isinstance(fam, QuadraticFamily) else "norm",
                "dimension": fam.dim, "lambda_domain": lam}
    if isinstance(fam, SeparableFamily) and dom == FiniteSet((0.0,)):
        data = {"family": "separable", "potential": function_to_data(fam.potential)}
        if isinstance(fam.potential, (Sampled, MaxAffine)):
            data["conjugate"] = function_to_data(fam.potential_star)
        return data
    if isinstance(fam, TabulatedFamily) and dom == FiniteSet(tuple(fam.table)):
        return {
            "family": "tabulated",
            "entries": [{"lambda": dump_extended(lam),
                         "potential": function_to_data(phi),
                         "conjugate": function_to_data(star)}
                        for lam, (phi, star) in fam.table.items()],
        }
    raise FormatError(f"cannot serialize a cover of {type(fam).__name__} over {dom!r}")


def _as_format_error(build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ``ValueError`` it raises is raised again
    as a :class:`FormatError` with the same text."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def cover_from_data(data):
    if not isinstance(data, dict):
        raise FormatError("a cover file must be a JSON object")
    family = data.get("family")
    if family in ("quadratic", "norm"):
        dom_data = data.get("lambda_domain")
        if not isinstance(dom_data, dict):
            raise FormatError("quadratic and norm covers need a lambda_domain object")
        lo = parse_extended(dom_data.get("lo", 0.0), "lambda_domain.lo")
        hi = parse_extended(dom_data.get("hi", "inf"), "lambda_domain.hi")
        grid_points = dom_data.get("grid_points", DEFAULT_GRID_POINTS)
        if isinstance(grid_points, bool) or not isinstance(grid_points, int):
            raise FormatError("lambda_domain.grid_points must be an integer")
        include_inf = dom_data.get("includes_infinity", hi == INF)
        if not isinstance(include_inf, bool):
            raise FormatError("lambda_domain.includes_infinity must be true or false, "
                              f"got {include_inf!r}")
        grid_ends = [parse_finite(dom_data[key], f"lambda_domain.{key}") if key in dom_data
                     else None for key in ("grid_lo", "grid_hi")]
        dom = _as_format_error(ClosedInterval, lo, hi, include_inf, grid_points, *grid_ends)
        dim = _parse_field("dim", data.get("dimension", 1), "dimension")
        return Cover(dom, (QuadraticFamily if family == "quadratic" else NormFamily)(dim))
    if family == "separable":
        phi = function_from_data(data.get("potential"))
        dual_grid, primal_grid = (None if data.get(key) is None else
                                  _parse_nodes(data[key], key.replace("_", " "))
                                  for key in ("dual_grid", "primal_grid"))
        conj = data.get("conjugate")
        if conj is not None:
            fam = SeparableFamily(phi, function_from_data(conj))
            return Cover(FiniteSet((0.0,)), fam)
        return _as_format_error(separable_cover, phi, dual_grid=dual_grid, primal_grid=primal_grid)
    if family == "tabulated":
        entries = data.get("entries")
        if not isinstance(entries, list) or not entries:
            raise FormatError("a tabulated cover needs a nonempty entries list")
        rows = []
        for k, e in enumerate(entries):
            if not isinstance(e, dict):
                raise FormatError(f"entry {k} must be an object")
            rows.append((parse_extended(e.get("lambda"), f"entry {k} lambda"),
                         function_from_data(e.get("potential")),
                         function_from_data(e.get("conjugate"))))
        return _as_format_error(tabulated_cover, rows)
    raise FormatError(
        f"family must be quadratic, norm, separable or tabulated, got {family!r}")


def load_cover(path):
    return cover_from_data(_read_json(path))


def save_cover(cover, path):
    _write_json(cover_to_data(cover), path)


# ---------------------------------------------------------------------------
# deterministic emission


def dumps(obj):
    """Canonical JSON of a report or of plain data: sorted keys, two-space
    indent, ASCII strings.

    Records (``numerics.Record``) become objects of their fields, hidden
    fields left out; tuples and arrays become lists, numpy scalars become
    the Python numbers they hold, dict keys become ``str(k)`` (the later of
    two equal keys wins), non-finite floats become the sentinels "inf",
    "-inf" and "nan", and any other object becomes its ``str``. The text is
    the one ``json.dumps`` with ``indent=2, sort_keys=True`` prints for that
    plain data, written in one pass without building the plain data first.

    A list of records, two or more items that are all of one record type or
    all dicts with the same string keys in the same order, is written
    column by column: a column of floats (``np.float64`` included) takes
    one map of ``float.__repr__``, a column of strings one map of the string
    encoder, and a column of equal-length 1-d float64 arrays, or of float
    lists, one flat list and one row template; any other column is written
    value by value. Each record is then one ``%`` template over its columns.
    """
    return _text(obj, "\n")


_encode_str = json.encoder.encode_basestring_ascii
_FLOAT_TYPES = frozenset((float, np.float64))
_NON_FINITE = frozenset(("inf", "-inf", "nan"))  # float.__repr__ of the sentinels


def _float_text(v):
    if math.isfinite(v):
        return float.__repr__(v)
    if v == INF:
        return '"inf"'
    return '"-inf"' if v == -INF else '"nan"'


def _float_texts(values):
    """:func:`_float_text` of each float, in one map while all are finite."""
    texts = list(map(float.__repr__, values))
    return texts if _NON_FINITE.isdisjoint(texts) else list(map(_float_text, values))


def _write(obj, out, nl):
    """Append the JSON text of ``obj`` to ``out``; ``nl`` is the newline and
    indent of the line the value starts on."""
    kind = type(obj)
    if kind is float or kind is np.float64 or isinstance(obj, (float, np.floating)):
        out.append(_float_text(float(obj)))
    elif isinstance(obj, str):
        out.append(_encode_str(obj))
    elif kind is bool:
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, np.ndarray):
        _write(obj.tolist(), out, nl)
    elif isinstance(obj, Record):
        _write_members([(key, get(obj)) for key, get in _field_keys(kind)], out, nl)
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, out, nl)
    elif isinstance(obj, dict):
        fields = {str(k): v for k, v in obj.items()}
        _write_members([(_encode_str(k) + ": ", fields[k]) for k in sorted(fields)],
                       out, nl)
    else:
        out.append(_encode_str(str(obj)))


def _text(obj, nl):
    out = []
    _write(obj, out, nl)
    return "".join(out)


def _write_list(items, out, nl):
    if not items:
        out.append("[]")
        return
    inner = nl + "  "
    fields = _record_fields(items) if len(items) > 1 else None
    if fields is not None:
        out.append("[" + inner + ("," + inner).join(_record_texts(items, fields, inner))
                   + nl + "]")
        return
    sep = "[" + inner
    for v in items:
        out.append(sep)
        sep = "," + inner
        _write(v, out, inner)
    out.append(nl + "]")


def _write_members(members, out, nl):
    """An object from (written key and colon, value) pairs in key order."""
    if not members:
        out.append("{}")
        return
    inner = nl + "  "
    sep = "{" + inner
    for key, v in members:
        out.append(sep + key)
        sep = "," + inner
        _write(v, out, inner)
    out.append(nl + "}")


@functools.cache
def _field_keys(cls):
    """(written key and colon, getter) of a record type's fields, by name;
    hidden fields are left out, as repr and equality leave them out."""
    return tuple((_encode_str(name) + ": ", attrgetter(name))
                 for name in sorted(cls._fields) if name not in cls._hidden)


def _record_fields(items):
    """(written key and colon, getter) by key when ``items`` are records:
    all of one record type, or all dicts with the same string keys in the
    same order. None otherwise."""
    kind = type(items[0])
    if len(set(map(type, items))) != 1:
        return None
    if kind is not dict:
        return (_field_keys(kind) or None) if issubclass(kind, Record) else None
    keys = tuple(items[0])
    if not keys or not all(type(k) is str for k in keys) \
            or not all(map(keys.__eq__, map(tuple, items))):
        return None
    return tuple((_encode_str(k) + ": ", itemgetter(k)) for k in sorted(keys))


def _record_texts(items, fields, nl):
    """The text of each record in ``items``, which start on lines ``nl``:
    one column of value texts per field, then one template per record."""
    inner = nl + "  "
    template = "{" + inner + ("," + inner).join(key.replace("%", "%%") + "%s"
                                                 for key, _ in fields) + nl + "}"
    columns = [_column_texts(list(map(get, items)), inner) for _, get in fields]
    return [template % row for row in zip(*columns)]


def _column_texts(values, nl):
    """The texts of one record field's values, which start on lines ``nl``."""
    kinds = set(map(type, values))
    if kinds <= _FLOAT_TYPES:
        return _float_texts(values)
    if kinds == {str}:
        return list(map(_encode_str, values))
    flat = None
    if kinds == {np.ndarray}:
        if len(set(map(attrgetter("shape"), values))) == 1 and values[0].ndim == 1 \
                and set(map(attrgetter("dtype"), values)) == {np.dtype(np.float64)}:
            flat = np.concatenate(values).tolist()
    elif kinds <= {list, tuple} and len(set(map(len, values))) == 1:
        flat = list(chain.from_iterable(values))
        if not set(map(type, flat)) <= _FLOAT_TYPES:
            flat = None
    if flat is None:
        return [_text(v, nl) for v in values]
    size = len(flat) // len(values)
    if not size:
        return ["[]"] * len(values)
    inner = nl + "  "
    row = "[" + inner + ("," + inner).join(["%s"] * size) + nl + "]"
    texts = iter(_float_texts(flat))
    return [row % cells for cells in zip(*[texts] * size)]


def csv_header(dim):
    if dim == 1:
        return "x,y,b,pairing"
    xs = ",".join(f"x{k + 1}" for k in range(dim))
    ys = ",".join(f"y{k + 1}" for k in range(dim))
    return f"{xs},{ys},b,pairing"


def probe_rows(b, x_probes, y_probes):
    """CSV lines (no header) of b over the probe product, lexicographic in
    (x, y); probes are iterated in the given order, so pass sorted stacks.
    Values come from one batched table and one pairing matrix."""
    return _probe_lines(_probe_table(b, x_probes, y_probes))


def _probe_lines(table):
    """:func:`probe_rows` over an evaluated probe table. Every number prints
    as ``"%.12g"`` (inf, -inf and nan as Python spells them) after adding
    0.0, which turns -0.0 into 0; each probe's coordinates print once, and
    each x row's lines come from one template over its interleaved (b,
    pairing) values."""
    xg, yg, B, P = table
    coords = ",".join(["%.12g"] * xg.shape[1])
    xs = [coords % tuple(x) for x in (xg + 0.0).tolist()]
    tails = [f",{coords % tuple(y)},%.12g,%.12g" for y in (yg + 0.0).tolist()]
    values = np.empty((B.shape[0], 2 * B.shape[1]))
    values[:, 0::2] = B
    values[:, 1::2] = P
    values += 0.0
    lines = []
    for x, row in zip(xs, values.tolist()):
        lines += (x + ("\n" + x).join(tails) % tuple(row)).split("\n")
    return lines


def to_jsonable(obj):
    """The plain data that :func:`dumps` writes for ``obj``: records as
    objects, tuples and arrays as lists, non-finite floats as sentinels."""
    return json.loads(dumps(obj))
