"""Vectors, vector families, and Gram matrices over R^d or C^d.

Everything downstream (norm machinery, the bound evaluators, the
verification harness) works with the three types defined here.  The
design goal is exactness where exactness is cheap: the inner product is
assembled from four real dot products so that ``inner(x, y)`` and
``inner(y, x)`` are conjugates *bitwise*, and Gram matrices are built by
mirroring a lower triangle so they are Hermitian by construction rather
than up to rounding.
"""

from __future__ import annotations

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
]

ArrayLike = Union["Vector", Sequence, np.ndarray]

#: Tolerance for the Hermitian / diagonal checks on externally supplied
#: Gram matrices.  Matrices we build ourselves satisfy them exactly.
HERMITIAN_TOL = 1e-12


def _as_complex_1d(
    data: ArrayLike, *, what: str = "vector", allow_empty: bool = False, size: int | None = None
) -> np.ndarray:
    """Coerce ``data`` to a 1-D complex128 array of finite numbers.

    The one coercion path for vectors, coefficients and sequences.  Checks
    run in a fixed order: shape, emptiness (rejected unless ``allow_empty``),
    dtype, length (when ``size`` is given), finiteness.
    """
    arr = data.coords if isinstance(data, Vector) else np.asarray(data)
    if arr.ndim != 1:
        raise ShapeError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0 and not allow_empty:
        raise ShapeError(f"{what} must have at least one coordinate")
    if arr.size and not np.issubdtype(arr.dtype, np.number):
        raise DomainError(f"{what} must be numeric, got dtype {arr.dtype}")
    if size is not None and arr.shape[0] != size:
        raise ShapeError(f"got {arr.shape[0]} {what} for a family of size {size}")
    if isinstance(data, Vector):
        return arr  # finite complex128 by construction
    out = arr.astype(np.complex128, copy=True)
    if not np.isfinite(out).all():  # complex isfinite: both parts finite
        raise DomainError(f"{what} must be finite")
    return out


class Vector:
    """An element of R^d or C^d with immutable complex128 coordinates."""

    __slots__ = ("_coords",)

    def __init__(self, coords: ArrayLike):
        arr = _as_complex_1d(coords)
        arr.setflags(write=False)
        self._coords = arr

    @property
    def coords(self) -> np.ndarray:
        """Read-only coordinate array (complex128)."""
        return self._coords

    @property
    def dim(self) -> int:
        return self._coords.shape[0]

    @property
    def is_real(self) -> bool:
        """True when every coordinate has zero imaginary part."""
        return bool(np.all(self._coords.imag == 0.0))

    def __len__(self) -> int:
        return self.dim

    def __repr__(self) -> str:
        return f"Vector({np.array2string(self._coords, separator=', ')})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.dim == other.dim and bool(np.all(self._coords == other._coords))

    def __hash__(self):
        return hash((self.dim, self._coords.tobytes()))


def inner(x: ArrayLike, y: ArrayLike) -> complex:
    """Inner product (x, y), conjugate-linear in the second argument.

    Computed from four real dot products:

        re = x_re . y_re + x_im . y_im
        im = x_im . y_re - x_re . y_im

    Because IEEE subtraction is antisymmetric, swapping x and y negates
    ``im`` and fixes ``re`` exactly, so conjugate symmetry holds bitwise,
    not merely to rounding.
    """
    xa = _as_complex_1d(x, what="first argument")
    ya = _as_complex_1d(y, what="second argument")
    if xa.shape[0] != ya.shape[0]:
        raise DimensionError(
            f"dimension mismatch: {xa.shape[0]} vs {ya.shape[0]}"
        )
    re = float(xa.real @ ya.real) + float(xa.imag @ ya.imag)
    im = float(xa.imag @ ya.real) - float(xa.real @ ya.imag)
    return complex(re, im)


def norm(x: ArrayLike) -> float:
    """Euclidean norm ||x|| = sqrt((x, x))."""
    # (x, x) is a sum of squares of real numbers; take it directly.
    return float(np.sqrt(_sum_sq(_as_complex_1d(x))))


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
    """(x, y_i) for the rows y_i of ``rows`` (..., n, d) and ``x`` (..., d), as in :func:`inner`."""
    xr, xi = x.real[..., None], x.imag[..., None]
    re = rows.real @ xr + rows.imag @ xi
    im = rows.real @ xi - rows.imag @ xr
    return (re + 1j * im)[..., 0]


def _gram_entries(mat: np.ndarray) -> np.ndarray:
    """Hermitian Gram matrices of the rows of each (n, d) slice of ``mat`` (..., n, d), exact by mirroring.

    The lower triangle is computed via real block products (same arithmetic
    as :func:`inner`) and reflected, so G[i, j] and conj(G[j, i]) are the same
    float pair and the diagonal is real.  When every imaginary part is zero
    one product suffices: the other three are zero, and adding +0.0 changes
    no nonzero float.
    """
    n = mat.shape[-2]
    out = np.zeros(mat.shape[:-1] + (n,), dtype=np.complex128)
    lower = np.tri(n, dtype=bool)  # i >= j
    re, im = mat.real, mat.imag
    if im.any():
        re_part = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
        im_part = im @ re.swapaxes(-1, -2) - re @ im.swapaxes(-1, -2)
        np.subtract(0.0, im_part.swapaxes(-1, -2), out=out.imag)  # 0 - x, not -x: a zero stays +0.0
        np.copyto(out.imag, im_part, where=lower)
        out.imag[..., range(n), range(n)] = 0.0
    else:
        re_part = re @ re.swapaxes(-1, -2)
    np.copyto(out.real, re_part.swapaxes(-1, -2))
    np.copyto(out.real, re_part, where=lower)
    return out


def _member_norms(rows: np.ndarray) -> np.ndarray:
    """‖y_i‖ for the rows of ``rows`` (..., n, d)."""
    return np.sqrt((rows.real * rows.real).sum(axis=-1) + (rows.imag * rows.imag).sum(axis=-1))


class VectorFamily:
    """A finite ordered family (y_1, ..., y_n) in a common space.

    Stored as an (n, d) complex128 matrix, one member per row.  The Gram
    matrix and the member norms are computed lazily and cached; families
    are treated as immutable after construction.
    """

    __slots__ = ("_vectors", "_field", "_gram", "_norms")

    def __init__(
        self,
        members: Union[np.ndarray, Iterable[ArrayLike]],
        *,
        field: str = "complex",
        dim: int | None = None,
    ):
        if field not in ("real", "complex"):
            raise DomainError(f"field must be 'real' or 'complex', got {field!r}")

        if isinstance(members, np.ndarray) and members.ndim == 2:
            rows = members.astype(np.complex128, copy=True)
            if not np.isfinite(rows).all():  # complex isfinite: both parts finite
                raise DomainError("family contains non-finite entries")
            if rows.shape[1] == 0:
                raise ShapeError("family members must have at least one coordinate")
        else:
            coerced = [_as_complex_1d(m, what="family member") for m in members]
            if coerced:
                d0 = coerced[0].shape[0]
                for k, v in enumerate(coerced):
                    if v.shape[0] != d0:
                        raise DimensionError(
                            f"member {k} has dimension {v.shape[0]}, expected {d0}"
                        )
                rows = np.vstack(coerced)
            else:
                if dim is None:
                    raise ShapeError("empty family needs an explicit dim")
                if dim < 1:
                    raise ShapeError(f"dim must be positive, got {dim}")
                rows = np.zeros((0, dim), dtype=np.complex128)

        if field == "real" and rows.size and np.any(rows.imag != 0.0):
            raise DomainError("field='real' but some member has a nonzero imaginary part")

        rows.setflags(write=False)
        self._vectors = rows
        self._field = field
        self._gram: GramMatrix | None = None
        self._norms: np.ndarray | None = None

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

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> Vector:
        return Vector(self._vectors[i])

    def __iter__(self):
        for row in self._vectors:
            yield Vector(row)

    def __repr__(self) -> str:
        return f"VectorFamily(n={self.size}, dim={self.dim}, field={self._field!r})"

    def gram(self) -> "GramMatrix":
        """Gram matrix G with G[i, j] = (y_i, y_j); cached after first call."""
        if self._gram is None:
            self._gram = GramMatrix(_gram_entries(self._vectors), _trust=True)
        return self._gram

    def member_norms(self) -> np.ndarray:
        """Array of ||y_i||; cached.  Equals sqrt of the Gram diagonal."""
        if self._norms is None:
            out = _member_norms(self._vectors)
            out.setflags(write=False)
            self._norms = out
        return self._norms

    def is_orthonormal(self, tol: float = 1e-10) -> bool:
        """Whether the Gram matrix is within ``tol`` of the identity (max-abs)."""
        if self.size == 0:
            return True
        g = self.gram().entries
        # The diagonal alone can already decide False, before the n-by-n temporaries.
        if np.max(np.abs(g.diagonal() - 1.0)) > tol:
            return False
        return bool(np.max(np.abs(g - np.eye(self.size))) <= tol)

    def require_orthonormal(self, tol: float = 1e-10) -> None:
        if not self.is_orthonormal(tol):
            g = self.gram().entries
            dev = float(np.max(np.abs(g - np.eye(self.size)))) if self.size else 0.0
            raise NotOrthonormalError(
                f"family is not orthonormal: max |G - I| entry is {dev:.3e} (tol {tol:.1e})"
            )


class GramMatrix:
    """An n-by-n Hermitian matrix of pairwise inner products.

    Accepts any square array that is Hermitian with a nonnegative
    diagonal (within a small tolerance); matrices produced by
    :meth:`VectorFamily.gram` satisfy both exactly and skip the checks.
    """

    __slots__ = ("_entries", "_abs")

    def __init__(self, entries: np.ndarray, *, _trust: bool = False):
        arr = np.asarray(entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"Gram matrix must be square, got shape {arr.shape}")
        if not _trust:  # a trusted array is a fresh private complex128 array: take it as is
            arr = arr.astype(np.complex128, copy=True)
            if not np.isfinite(arr).all():  # complex isfinite: both parts finite
                raise DomainError("Gram matrix contains non-finite entries")
            if arr.size:
                dev = float(np.max(np.abs(arr - arr.conj().T)))
                if dev > HERMITIAN_TOL:
                    raise DomainError(
                        f"matrix is not Hermitian: max |G - G*| entry is {dev:.3e}"
                    )
                # Nonnegative diagonal, allowing the same slack.
                dmin = float(arr.diagonal().real.min())
                if dmin < -HERMITIAN_TOL:
                    raise DomainError(f"Gram diagonal has negative entry {dmin:.3e}")
        arr.setflags(write=False)
        self._entries = arr
        self._abs: np.ndarray | None = None

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def size(self) -> int:
        return self._entries.shape[0]

    def __repr__(self) -> str:
        return f"GramMatrix(n={self.size})"

    def abs_entries(self) -> np.ndarray:
        """|G[i, j]| as a real matrix; cached (the bounds reuse it heavily)."""
        if self._abs is None:
            out = np.abs(self._entries)
            out.setflags(write=False)
            self._abs = out
        return self._abs


def gram(family: VectorFamily) -> GramMatrix:
    """Gram matrix of a family (delegates to the family's cache)."""
    return family.gram()


def inner_each(x: ArrayLike, family: VectorFamily) -> np.ndarray:
    """Array of inner products ((x, y_1), ..., (x, y_n)).

    Conjugate-linear in the family members, matching :func:`inner`.
    """
    xa = _as_complex_1d(x, what="vector")
    if xa.shape[0] != family.dim:
        raise DimensionError(
            f"vector dimension {xa.shape[0]} does not match family dimension {family.dim}"
        )
    return _inner_each(family.vectors, xa)
