"""Vectors, vector families, and Gram matrices over R^d or C^d.

Everything downstream (norm machinery, the bound evaluators, the
verification harness) works with the three types defined here.  The
design goal is exactness where exactness is cheap: ``_inner_each`` assembles
each inner product from four real dot products so that ``inner(x, y)`` and
``inner(y, x)`` are conjugates *bitwise*, and Gram matrices are built by
mirroring a lower triangle so they are Hermitian by construction rather
than up to rounding.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DimensionError, DomainError, NotOrthonormalError, ShapeError

__all__ = [
    "Vector",
    "VectorFamily",
    "GramMatrix",
    "inner",
    "norm",
    "gram",
    "inner_each",
    "ORTHONORMAL_TOL",
]

ArrayLike = Union["Vector", Sequence, np.ndarray]

#: Tolerance for the Hermitian / diagonal checks on externally supplied Gram matrices,
#: relative to max(1, max |g_ij|): a float product Y·Yᴴ is Hermitian only to about
#: d·u·max ‖y_i‖² (Higham, Accuracy and Stability of Numerical Algorithms, §3.1).
#: Matrices built here satisfy both checks exactly.
HERMITIAN_TOL = 1e-12

#: Max-entry deviation from the identity below which a family counts as orthonormal.
ORTHONORMAL_TOL = 1e-10


#: The two fields a family, a spec, a random draw or an input document may name.
_FIELDS = ("real", "complex")

#: The largest dimension of a complex128 row that numpy can index: 16 bytes a coordinate.
_DIM_MAX = sys.maxsize // 16

#: Largest dimension and family size a verify.FamilySpec, and so random_specs and the verify command, may ask for.
_DIM_CAP = 16
_N_CAP = 32


def _check_int(name: str, value, low: int, high) -> int:
    """``value`` as an int in [low, high]; bools are not integers, and an int skips the slower ABC check."""
    if not (type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)) \
            or not low <= value <= high:
        interval = f"[{low}, {high}{')' if high == math.inf else ']'}"  # an unbounded range is open, as in _check_real
        raise DomainError(f"{name} must be an integer in {interval}, got {value!r}")
    return int(value)


def _real(value) -> float | None:
    """``value`` as a float if it is a real number within float range, else None.

    Bools and text are not numbers, and a float skips the slower ABC check.
    """
    if type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int beyond the largest float
            return None
    return None


def _check_real(name: str, value, high: float = math.inf, *, positive: bool = False) -> float:
    """``value`` as a float: a finite real number in [0, high], or in (0, high] when ``positive``.

    Finite, since a NaN tolerance fails every case and an infinite one passes all.
    """
    v = _real(value)
    if v is None or not (0.0 <= v <= high and v <= sys.float_info.max) or positive and v == 0.0:
        interval = f"{'(' if positive else '['}0, {high:g}{')' if high == math.inf else ']'}"
        raise DomainError(f"{name} must be a real number in {interval}, got {value!r}")
    return v


def _check_field(field, fields=_FIELDS) -> str:
    """``field`` if it is one of ``fields``, which the error lists."""
    if field not in fields:
        raise DomainError(f"field must be {', '.join(map(repr, fields[:-1]))} or {fields[-1]!r}, got {field!r}")
    return field


def _as_complex(
    data: ArrayLike, *, what: str = "vector", ndim: int = 1, allow_empty: bool = False,
    size: int | None = None, copy: bool = False,
) -> np.ndarray:
    """Coerce ``data`` to a complex128 array of finite numbers with ``ndim`` axes.

    The one coercion path for every input array: vectors, families, Gram
    matrices, coefficients, sequences and stacks.  Checks run in a fixed
    order: shape, emptiness of the last axis (rejected unless ``allow_empty``),
    dtype (bools and text are not numbers), length of the last axis (when
    ``size`` is given), finiteness.  With ``copy`` the result is a fresh array,
    for an object to keep; otherwise data is converted only if its dtype differs.
    """
    try:
        arr = data.coords if isinstance(data, Vector) else np.asarray(data)
    except ValueError as exc:  # numpy's error for a ragged nested sequence
        raise ShapeError(f"{what} must be a rectangular array, not a ragged sequence") from exc
    if arr.ndim != ndim:
        raise ShapeError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.shape[-1] == 0 and not allow_empty:
        raise ShapeError(f"{what} must have at least one coordinate")
    if arr.size and not np.issubdtype(arr.dtype, np.number):
        raise DomainError(f"{what} must be numeric, got dtype {arr.dtype}")
    if size is not None and arr.shape[-1] != size:
        raise ShapeError(f"got {arr.shape[-1]} {what} for a family of size {size}" if ndim == 1 else
                         f"in each {what} row, got {arr.shape[-1]} coefficients for a family of size {size}")
    out = arr.astype(np.complex128, copy=copy)
    if not np.isfinite(out).all():  # complex isfinite: both parts finite
        raise DomainError(f"{what} must be finite")
    return out


class Vector:
    """An element of R^d or C^d with immutable complex128 coordinates."""

    __slots__ = ("_coords",)

    def __init__(self, coords: ArrayLike):
        arr = _as_complex(coords, copy=True)
        arr.setflags(write=False)
        self._coords = arr

    @property
    def coords(self) -> np.ndarray:
        """Read-only coordinate array (complex128)."""
        return self._coords

    @property
    def dim(self) -> int:
        return self._coords.shape[0]

    def __repr__(self) -> str:
        return f"Vector({np.array2string(self._coords, separator=', ')})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.dim == other.dim and bool(np.all(self._coords == other._coords))

    def __hash__(self):
        return hash((self.dim, (self._coords + 0.0).tobytes()))  # + 0.0 turns -0.0 parts to +0.0, as == sees them


def inner(x: ArrayLike, y: ArrayLike) -> complex:
    """Inner product (x, y), conjugate-linear in the second argument.

    The batch of one of :func:`_inner_each`, which forms the four real dot
    products.
    """
    xa = _as_complex(x, what="first argument")
    ya = _as_complex(y, what="second argument")
    if xa.shape[0] != ya.shape[0]:
        raise DimensionError(
            f"dimension mismatch: {xa.shape[0]} vs {ya.shape[0]}"
        )
    return complex(_inner_each(ya[None], xa)[0])


def norm(x: ArrayLike) -> float:
    """Euclidean norm ||x|| = sqrt((x, x))."""
    # (x, x) is a sum of squares of real numbers; take it directly.
    return float(np.sqrt(_sum_sq(_as_complex(x))))


# The kernels below take any number of leading batch axes: one input is a batch
# of one.  A stacked matmul computes each slice with the kernel, and so the
# bits, that numpy picks for that slice on its own.


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Σ_k a_k b_k along the last axis, as the vector dot product numpy gives a @ b."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _sum_sq(v: np.ndarray) -> np.ndarray:
    """Σ |v_k|² along the last axis of a complex array, from two real dot products."""
    return _dot(v.real, v.real) + _dot(v.imag, v.imag)


def _inner_each(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(x, y_i) for the rows y_i of ``rows`` (..., n, d) and ``x`` (..., d), from four real dot products:

        re = x_re . y_re + x_im . y_im
        im = x_im . y_re - x_re . y_im

    Because IEEE subtraction is antisymmetric, swapping x and y negates ``im`` and fixes ``re``
    exactly, so conjugate symmetry holds bitwise, not merely to rounding.  The two parts are placed
    side by side, not added as re + 1j·im, whose 0·im would turn an overflowed im into a NaN real part.
    """
    xr, xi = x.real[..., None], x.imag[..., None]
    re = rows.real @ xr + rows.imag @ xi
    im = rows.real @ xi - rows.imag @ xr
    return np.concatenate((re, im), axis=-1).view(np.complex128)[..., 0]


def _products(rows: np.ndarray, cols: np.ndarray, re: np.ndarray, im: np.ndarray | None) -> None:
    """re = Re·Reᵀ + Im·Imᵀ and im = Im·Reᵀ − Re·Imᵀ, the real and imaginary parts of (y_i, y_j) for
    ``rows`` (..., r, d) by ``cols`` (..., n, d).

    ``im`` stages Im·Imᵀ before it takes its own parts, and Re·Imᵀ is a temporary of this call.  For
    real data ``im`` is None and Re·Reᵀ is all of re: the other products are zero, and adding +0.0
    changes no nonzero float.  The operands stay the strided ``.real``/``.imag`` views: one
    contiguous buffer as both operands of ``A @ A.T`` goes to BLAS syrk, whose bits differ from gemm's.
    """
    np.matmul(rows.real, cols.real.swapaxes(-1, -2), out=re)
    if im is not None:
        np.matmul(rows.imag, cols.imag.swapaxes(-1, -2), out=im)
        np.add(re, im, out=re)
        np.matmul(rows.imag, cols.real.swapaxes(-1, -2), out=im)
        np.subtract(im, rows.real @ cols.imag.swapaxes(-1, -2), out=im)


def _sq_norms(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """‖y_i‖² for the rows y_i of ``rows`` (..., n, d) and their sum, squaring each coordinate once."""
    sq = rows.real * rows.real
    per_row, total = sq.sum(axis=-1), sq.sum(axis=(-2, -1))
    np.multiply(rows.imag, rows.imag, out=sq)
    return per_row + sq.sum(axis=-1), total + sq.sum(axis=(-2, -1))


class _Scaled:
    """Rows (B, m) of nonnegative floats with each row's maximum factored out, for p-norms at many p.

    The maximum is factored out before powering, the scaling of Blue (ACM TOMS 4(1), 1978) and
    LAPACK dlassq (Anderson, ACM TOMS 44(1), 2017): q = p/(p-1) grows without bound as p -> 1
    (q = 11 already at p = 1.1), and raising raw magnitudes to such powers overflows long before
    the norm itself does.  The maxima are taken on first use and shared by every exponent; each
    exponent divides into a new array, powers it in place and drops it once summed.  The p-norm
    column of each exponent is kept.
    """

    def __init__(self, a: np.ndarray):
        self.a = a
        self._pnorms: dict = {}

    max = cached_property(lambda self: self.a.max(axis=-1, initial=0.0))
    # A row of zeros is divided by 1, not 0, and stays zero.
    _divisor = cached_property(lambda self: np.where(self.max > 0.0, self.max, 1.0)[:, None])

    def root_power_sum(self, pf: float, e: float) -> np.ndarray:
        """(Σ_i (a_i / max)^p)^e per row; 0 for a row of zeros.  The root is a Python float power:
        numpy's array power can round differently."""
        s = self.a / self._divisor
        np.power(s, pf, out=s)
        return np.array([v**e for v in s.sum(axis=-1).tolist()])

    def pnorm(self, pf: float) -> np.ndarray:
        """(Σ a_i^p)^(1/p) per row for a normalized p, kept per p; max at p = ∞; 0 for an empty row."""
        if pf not in self._pnorms:
            self._pnorms[pf] = (self.max if math.isinf(pf) else self.a.sum(axis=-1) if pf == 1.0
                                else self.max * self.root_power_sum(pf, 1.0 / pf))
        return self._pnorms[pf]


# Reductions of |G| without the n-by-n matrix.  Every ceiling reads the Gram matrix only
# through entrywise reductions of |g_ij|, so they are folded block by block from the Gram
# products; the complex G is built only when a caller asks for it.

#: Most |G| entries in one block: 1,024², so a family of n ≤ 1,024 is one block.
_BLOCK = 1 << 20
#: Most entries in one tile, the unit in which a block's products become |G|.
_TILE = 1 << 14


def _cuts(count: int, rows: int, cols: int, size: int) -> list[tuple[int, int, int, int]]:
    """Pieces (b, k, r0, r) of ``count`` matrices rows × cols, each of at most ``size`` entries or one row.

    A piece holds whole matrices b..b+k when one fits, so then how many inputs there are
    changes no piece's matrices; otherwise it holds rows r0..r0+r of matrix b.
    """
    per = rows * cols
    if per <= size:
        k = size // per if per else max(count, 1)
        return [(b, min(k, count - b), 0, rows) for b in range(0, count, k)]
    r = max(size // cols, 1)
    return [(b, 1, r0, min(r, rows - r0)) for b in range(count) for r0 in range(0, rows, r)]


def _mirror(re: np.ndarray, im: np.ndarray | None, r0: int) -> None:
    """Make Gram rows r0..r0+r of re, the real parts (k, r, n), and ``im``, the imaginary parts or
    None for real data, Hermitian in place: the one rule for G and |G| alike.

    An entry above the diagonal whose partner row is in the block takes the partner's conjugate
    (0 - x, not -x: a zero stays +0.0), the diagonal is real, and the others keep their products.
    The partners sit below the diagonal, which no step writes, so the tiles (at most _TILE entries,
    which bounds numpy's copy of an overlapping source) may run in any order.
    """
    k, r, _ = re.shape
    tiles = _cuts(k, r, r, _TILE)
    upper = np.arange(r) > np.arange(tiles[0][3])[:, None]  # column > row, over a tile's rows
    for j, kt, t0, t in tiles:
        to, partners = np.s_[j:j + kt, t0:t0 + t, r0 + t0:r0 + r], np.s_[j:j + kt, t0:, r0 + t0:r0 + t0 + t]
        np.copyto(re[to], re[partners].swapaxes(-1, -2), where=upper[:t, :r - t0])
        if im is not None:
            np.subtract(0.0, im[partners].swapaxes(-1, -2), out=im[to], where=upper[:t, :r - t0])
    if im is not None:
        im[:, range(r), range(r0, r0 + r)] = 0.0


def _abs_products(re: np.ndarray, im: np.ndarray | None) -> np.ndarray:
    """Overwrite the real parts re (k, r, n) with |g_ij| and return it; ``im`` holds the imaginary
    parts, None for real data.  A complex block goes through a complex copy of one tile at a time
    for np.abs, whose bits np.hypot does not share."""
    if im is None:
        return np.abs(re, out=re)
    k, r, n = re.shape
    for j, kt, t0, t in _cuts(k, r, n, _TILE):
        tile = re[j:j + kt, t0:t0 + t]
        z = np.empty(tile.shape, np.complex128)
        z.real, z.imag = tile, im[j:j + kt, t0:t0 + t]
        np.abs(z, out=tile)
    return re


def _gram_blocks(stacks: list, size: int = _BLOCK):
    """G of each input of the row stacks (B, n, d), all of one n, in blocks of at most ``size``
    entries: (b, r0, re, im).

    ``re`` (k, r, n) holds the real parts of rows r0..r0+r of G of inputs b..b+k, counted across the
    stacks, so whole matrices from several stacks share a block; ``im`` holds the imaginary parts,
    or is None when every input is real.  Both are made Hermitian by _mirror.  Two buffers, reused
    by every block, hold them; the second exists only if some input is complex, and then every
    block takes the four products for all its inputs: a real input's extra products are zeros.
    """
    n = stacks[0].shape[1]
    starts = list(itertools.accumulate(map(len, stacks), initial=0))
    pieces = _cuts(starts[-1], n, n, size)
    most = max((k * r * n for _, k, _, r in pieces), default=0)
    buf_re = np.empty(most)
    buf_im = np.empty(most) if any(rows.imag.any() for rows in stacks) else None
    for b, k, r0, r in pieces:
        parts = [(rows[max(b - lo, 0):b + k - lo], slice(max(lo - b, 0), hi - b))  # its inputs, their place
                 for rows, lo, hi in zip(stacks, starts, starts[1:]) if lo < b + k and b < hi]
        re = buf_re[:k * r * n].reshape(k, r, n)
        im = None if buf_im is None else buf_im[:k * r * n].reshape(k, r, n)
        for cols, at in parts:
            _products(cols[:, r0:r0 + r], cols, re[at], None if im is None else im[at])
        _mirror(re, im, r0)
        yield b, r0, re, im


def _fold(blocks, count: int, reads) -> dict:
    """Fold writable blocks (b, r0, block) of |G| into a (count,) column for each read in ``reads``
    and compute nothing else.  ``block`` (k, r, n) holds rows r0..r0+r of |G| of inputs b..b+k, as
    _gram_reductions takes them from _gram_blocks' mirrored products or _abs_reductions from a
    given G.  A read is a normalized q, for (Σ |g_ij|^q)^(1/q), the largest entry at q = ∞; "row",
    for max_i Σ_j |g_ij|, Bombieri's factor; or "eye", for max |G - I|, the orthonormality test.

    Each read takes one value per block, and one rule joins an input's blocks: a q-norm over
    blocks is the q-norm of the blocks' q-norms, and "row" and "eye" are maxima, the q-norm at
    q = ∞.  An input's first block (r0 = 0) sets its value and each later block joins it through
    _Scaled.pnorm, so every n ≤ 1,024, one block, has the bits of one pass over the whole |G|.
    "eye" is read last from each block, since it writes |g_ii - 1| over the block's diagonal.
    """
    columns = {read: np.zeros(count) for read in sorted(dict.fromkeys(reads), key=lambda read: read == "eye")}
    for b, r0, block in blocks:
        k, r, n = block.shape
        scaled = _Scaled(block.reshape(k, r * n))
        for read, column in columns.items():
            if read == "row":
                part, q = block.sum(axis=-1).max(axis=-1, initial=0.0), math.inf
            elif read == "eye":
                diagonal = (slice(None), range(r), range(r0, r0 + r))
                block[diagonal] = np.abs(block[diagonal] - 1.0)
                part, q = block.reshape(k, r * n).max(axis=-1, initial=0.0), math.inf
            else:
                part, q = scaled.pnorm(read), read
            column[b:b + k] = part if r0 == 0 else _Scaled(np.stack([column[b:b + k], part], -1)).pnorm(q)
    return {read: columns[read] for read in reads}


def _gram_reductions(stacks: list, reads) -> dict:
    """The reads of _fold for every input of the row stacks (B, n, d), all of one n, in order:
    one pass over the Gram products, in blocks of at most _BLOCK entries, and no n-by-n matrix
    beyond a block.  A block's |G| goes into its real parts."""
    blocks = ((b, r0, _abs_products(re, im)) for b, r0, re, im in _gram_blocks(stacks))
    return _fold(blocks, sum(len(rows) for rows in stacks), reads)


def _abs_reductions(entries: np.ndarray, reads) -> dict:
    """The same reads of one given G (n, n), its |G| taken in the same blocks, one at a time."""
    n = entries.shape[0]
    return _fold(((0, r0, np.abs(entries[None, r0:r0 + r])) for _, _, r0, r in _cuts(1, n, n, _BLOCK)), 1, reads)


class VectorFamily:
    """A finite ordered family (y_1, ..., y_n) in a common space.

    Stored as an (n, d) complex128 matrix, one member per row, and nothing
    else.  The Gram matrix is built only when gram() is called; the bounds and
    the orthonormality test read the Gram products through _gram_reductions
    instead.  Families are treated as immutable after construction.
    """

    __slots__ = ("_vectors", "_field")

    def __init__(
        self,
        members: Union[np.ndarray, Iterable[ArrayLike]],
        *,
        field: str = "complex",
        dim: int | None = None,
    ):
        _check_field(field)
        dim = None if dim is None else _check_int("dim", dim, 1, _DIM_MAX)

        if isinstance(members, np.ndarray):
            rows = _as_complex(members, what="family", ndim=2, copy=True)
        else:  # each member a view where it can be: np.vstack makes the one copy
            coerced = [_as_complex(m, what="family member") for m in members]
            if not coerced and dim is None:
                raise ShapeError("empty family needs an explicit dim")
            for k, v in enumerate(coerced):
                if v.shape[0] != coerced[0].shape[0]:
                    raise DimensionError(f"member {k} has dimension {v.shape[0]}, expected {coerced[0].shape[0]}")
            rows = np.vstack(coerced) if coerced else np.zeros((0, dim), dtype=np.complex128)
        if dim is not None and rows.shape[1] != dim:
            raise DimensionError(f"members have dimension {rows.shape[1]}, expected dim {dim}")

        if field == "real" and rows.size and np.any(rows.imag != 0.0):
            raise DomainError("field='real' but some member has a nonzero imaginary part")

        rows.setflags(write=False)
        self._vectors = rows
        self._field = field

    @property
    def vectors(self) -> np.ndarray:
        """(n, d) read-only matrix, one member per row."""
        return self._vectors

    @property
    def field(self) -> str:
        return self._field

    @property
    def size(self) -> int:
        """Number of members n (may be zero)."""
        return self._vectors.shape[0]

    @property
    def dim(self) -> int:
        """Ambient dimension d."""
        return self._vectors.shape[1]

    def __repr__(self) -> str:
        return f"VectorFamily(n={self.size}, dim={self.dim}, field={self._field!r})"

    def gram(self) -> "GramMatrix":
        """Gram matrix G with G[i, j] = (y_i, y_j), built anew on each call from one block of the products."""
        n = self.size
        (_, _, re, im), = _gram_blocks([self._vectors[None]], n * n)
        entries = np.empty((n, n), np.complex128)  # set by parts: re + 1j * im turns an imaginary -0.0 into +0.0
        entries.real, entries.imag = re[0], 0.0 if im is None else im[0]
        return GramMatrix(entries, _trust=True)

    def _identity_deviation(self) -> float:
        """max |G - I|, from one pass over the Gram products: no Gram matrix is built."""
        return float(_gram_reductions([self._vectors[None]], ("eye",))["eye"][0])

    def is_orthonormal(self, tol: float = ORTHONORMAL_TOL) -> bool:
        """Whether the Gram matrix is within ``tol`` of the identity (max-abs)."""
        return _check_real("tol", tol) >= self._identity_deviation()  # False on NaN

    def require_orthonormal(self, tol: float = ORTHONORMAL_TOL) -> None:
        tol = _check_real("tol", tol)
        if not (dev := self._identity_deviation()) <= tol:
            raise NotOrthonormalError(f"family is not orthonormal: max |G - I| entry is {dev:.3e} (tol {tol:.1e})")


class GramMatrix:
    """An n-by-n Hermitian matrix of pairwise inner products.

    Accepts any square array that is Hermitian with a nonnegative
    diagonal, within HERMITIAN_TOL · max(1, max |g_ij|); matrices produced by
    :meth:`VectorFamily.gram` satisfy both exactly and skip the checks.  Holds
    its checked entries and nothing else.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: np.ndarray, *, _trust: bool = False):
        # A trusted array is a fresh private complex128 array: take it as is.
        arr = entries if _trust else _as_complex(entries, what="Gram matrix", ndim=2, allow_empty=True, copy=True)
        if arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"Gram matrix must be square, got shape {arr.shape}")
        if not _trust and arr.size:
            tol = HERMITIAN_TOL * max(1.0, float(_abs_reductions(arr, (math.inf,))[math.inf][0]))
            dev = max(float(np.abs(arr[r0:r0 + r] - arr[:, r0:r0 + r].T.conj()).max())  # one row block at a time
                      for _, _, r0, r in _cuts(1, *arr.shape, _BLOCK))
            if dev > tol:
                raise DomainError(
                    f"matrix is not Hermitian: max |G - G*| entry is {dev:.3e}"
                )
            # Nonnegative diagonal, allowing the same slack.
            dmin = float(arr.diagonal().real.min())
            if dmin < -tol:
                raise DomainError(f"Gram diagonal has negative entry {dmin:.3e}")
        arr.setflags(write=False)
        self._entries = arr

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def size(self) -> int:
        return self._entries.shape[0]

    def __repr__(self) -> str:
        return f"GramMatrix(n={self.size})"


def gram(family: VectorFamily) -> GramMatrix:
    """Gram matrix of a family, built anew on each call: family.gram()."""
    return family.gram()


def _check_family(family, _cls=VectorFamily) -> VectorFamily:
    """The family argument of an evaluator, which must be a VectorFamily.  The class is bound
    here, so a wrapper later set in its place (a profiler's recorder) leaves the check as is."""
    if not isinstance(family, _cls):
        raise DomainError(f"family must be a VectorFamily, got {type(family).__name__}")
    return family


def _check_dim(x: np.ndarray, dim: int, what: str) -> np.ndarray:
    """``x``, a vector or an x stack, if its last axis has the family's dimension ``dim``."""
    if x.shape[-1] != dim:
        raise DimensionError(f"{what} dimension {x.shape[-1]} does not match family dimension {dim}")
    return x


def inner_each(x: ArrayLike, family: VectorFamily) -> np.ndarray:
    """Array of inner products ((x, y_1), ..., (x, y_n)).

    Conjugate-linear in the family members, matching :func:`inner`.
    """
    xa = _check_dim(_as_complex(x), _check_family(family).dim, "vector")
    return _inner_each(family.vectors, xa)
