"""Extended-real scalars, small fixed-dimension vectors, shared exceptions.

Values live in R union {+inf}. Plain floats carry the arithmetic; +inf is
absorbing under addition and max, which IEEE semantics already provide. The
one thing IEEE does not forbid is -inf, so every ingestion point goes through
:func:`ensure_extended` and anything that could silently produce -inf or nan
raises instead.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf

MAX_DIM = 3

# the default tolerance of the exact checks: pairing gaps, subgradient
# preconditions and axiom, BIC and law screens
DEFAULT_TOL = 1e-9

# most entries one batched loop holds at once; beyond it a loop's
# temporaries grow with its input, not its speed
SWEEP_CHUNK = 2 ** 15


class DimensionMismatchError(ValueError):
    """Vectors of different fixed dimensions met in one operation."""


class MinusInfinityError(ArithmeticError):
    """A computation produced -inf or nan, which the extended scale excludes."""


class NegativeFenchelGapError(RuntimeError):
    """A Fenchel gap came out below -tol; a conjugate implementation bug."""


def ensure_extended(value, what="value"):
    """Validate a scalar as a member of R union {+inf} and return it as float.

    -inf and nan are rejected; they have no meaning on this scale.
    """
    v = float(value)
    if math.isnan(v) or v == -INF:
        raise MinusInfinityError(f"{what} is {v}; only finite values and +inf are allowed")
    return v


def ensure_finite(value, what="value"):
    """Validate a scalar as finite and return it as float."""
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{what} must be finite, got {v}")
    return v


def ensure_dimension(value, error=ValueError):
    """Validate the dimension of a law, cover, form or probe stack: an
    integer in [1, 3], bools refused, numpy integers accepted; return it as
    int. The file reader applies the same rule, raising its own ``error``."""
    if type(value) is bool or not isinstance(value, (int, np.integer)) or not 0 < value <= MAX_DIM:
        raise error(f"dimension must be an integer in [1, {MAX_DIM}], got {value!r}")
    return int(value)


def ensure_tol(tol, what="tol", error=ValueError):
    """Validate a tolerance as finite and nonnegative and return it as given:
    a NaN or infinite tolerance would turn every screen into a pass. The CLI
    applies the same rule to --tol, raising its own ``error``."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise error(f"{what} must be finite and nonnegative, got {tol!r}")
    return tol


def as_vector(x, dim=None):
    """Coerce ``x`` to a 1-d float64 array of dimension 1..3 with finite coords.

    If ``dim`` is given, the result must have exactly that many components.
    """
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"a vector must be one-dimensional, got shape {v.shape}")
    if not 1 <= v.size <= MAX_DIM:
        raise ValueError(f"vector dimension must be between 1 and {MAX_DIM}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"vector coordinates must be finite, got {v.tolist()}")
    if dim is not None and v.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.size}")
    return v


def inner(x, y):
    """Duality pairing <x, y> = sum_i x_i y_i of two same-dimension vectors:
    :func:`_batch_inner` on one row."""
    xv = as_vector(x)
    yv = as_vector(y)
    if xv.size != yv.size:
        raise DimensionMismatchError(f"pairing needs equal dimensions, got {xv.size} and {yv.size}")
    return _batch_inner(xv, yv)[()]


def norm(x):
    """Euclidean norm sqrt(<x, x>): :func:`_batch_norm` on one row."""
    return float(_batch_norm(as_vector(x)))


def _batch_inner(xs, ys):
    """Pairings of two broadcastable stacks of trusted vectors along the last
    axis, accumulated coordinate by coordinate from 0.0 in index order, the
    one pairing loop of the package: :func:`inner`, ``kernels.pairing_matrix``
    and every trusted caller give its bits. A pairing beyond the float range
    is +inf or -inf."""
    out = np.zeros(np.broadcast_shapes(xs.shape[:-1], ys.shape[:-1]))
    with np.errstate(over="ignore"):
        for k in range(xs.shape[-1]):
            out += xs[..., k] * ys[..., k]
    return out


def _batch_norm2(vs):
    """Squared norms of a stack of trusted vectors, in :func:`inner`'s
    coordinate order."""
    return _batch_inner(vs, vs)


def _batch_norm(vs):
    """Norms of a stack of trusted vectors: the square roots of
    :func:`_batch_norm2`."""
    return np.sqrt(_batch_norm2(vs))


def _diff_inner(a, b, c=None):
    """``_batch_inner(a - b, c)``, or ``_batch_norm2(a - b)`` when ``c`` is
    None, with the same bits, for broadcastable stacks of trusted vectors.

    The differences are paired one coordinate plane at a time into a
    preallocated result, so no (..., dim) stack of differences is built:
    the working set is the result and one scratch plane of its shape.
    """
    shapes = [a.shape[:-1], b.shape[:-1]] + ([] if c is None else [c.shape[:-1]])
    out = np.zeros(np.broadcast_shapes(*shapes))
    plane = np.empty_like(out)
    with np.errstate(over="ignore"):
        for k in range(a.shape[-1]):
            np.subtract(a[..., k], b[..., k], out=plane)
            np.multiply(plane, plane if c is None else c[..., k], out=plane)
            out += plane
    return out


def _chunks(n, width):
    """Slices over n items of ``width`` entries each, at most about
    ``SWEEP_CHUNK`` entries per slice and one item at least; none when n is
    0. Every batched loop of the package takes its slices from here."""
    step = max(1, SWEEP_CHUNK // max(1, width))
    return [slice(s, s + step) for s in range(0, n, step)]


def _nonzero(mask):
    """``np.nonzero(mask)``: the index arrays of the true entries, in
    row-major order, through ``np.flatnonzero``, which on a mostly false
    N-d mask costs a fraction of ``np.nonzero``."""
    return np.unravel_index(np.flatnonzero(mask), mask.shape)


def _row_keys(a):
    """One opaque key per row of a float64 array; two keys are equal exactly
    when the rows are equal coordinate for coordinate (-0.0 meets 0.0)."""
    a = np.ascontiguousarray(a + 0.0)
    return a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).reshape(-1)


def _run_starts(a):
    """Mask of the entries of a nonempty sorted array that differ from the
    entry before them; the first entry always does."""
    return np.concatenate(([True], a[1:] != a[:-1]))


def _same(a, b):
    """Equality of two record values: arrays entry by entry, lists and
    tuples item by item, anything else by ``==``."""
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if type(a) is type(b) and isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return bool(a == b)


class Record:
    """A frozen record. A subclass declares its fields as annotated class
    attributes, a default as the attribute's value; ``_fields`` lists them,
    base fields first. The constructor binds its arguments to the fields and
    calls ``__post_init__``. Two records are equal when they have one type
    and equal fields (:func:`_same`), and a record hashes the same values;
    the fields named in ``_hidden`` are left out of both and of the repr."""

    _fields = _hidden = ()

    def __init_subclass__(cls):
        cls._fields += tuple(n for n in cls.__annotations__ if n not in cls._fields)

    def __init__(self, *args, **kwargs):
        cls, d = type(self), self.__dict__
        d.update(zip(cls._fields, args))
        for name in cls._fields[len(args):]:
            if name not in kwargs and not hasattr(cls, name):
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            d[name] = kwargs.pop(name) if name in kwargs else getattr(cls, name)
        if kwargs or len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes the fields {cls._fields}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __setattr__ = __delattr__ = _frozen

    def _compared(self):
        return tuple(getattr(self, n) for n in self._fields if n not in self._hidden)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _same(self._compared(), other._compared())

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self):
        shown = (f"{n}={getattr(self, n)!r}" for n in self._fields if n not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    @classmethod
    def _records(cls, *columns):
        """Records of ``cls``, one per row of the trusted field columns (in
        ``_fields`` order), taken as they are."""
        new = object.__new__
        out = []
        for values in zip(*columns):
            record = new(cls)
            record.__dict__.update(zip(cls._fields, values))
            out.append(record)
        return out


def vec_key(x):
    """Hashable exact-coordinate key for dictionaries of vectors."""
    v = as_vector(x)
    return tuple(float(c) for c in v)
