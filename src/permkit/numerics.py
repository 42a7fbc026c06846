"""Dense complex matrix arithmetic: determinants, spectral norm, unitary dilation.

Matrices are plain square ``numpy`` arrays at the working level;
:class:`ComplexMatrix` / :class:`UnitaryMatrix` are thin validated carriers
used at API boundaries (JSON I/O, CLI, constructors that must check
invariants).  All functions accept either form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DimensionMismatch, NormExceedsOne, NotUnitary

UNITARITY_TOL = 1e-10
CONTRACTION_TOL = 1e-12

MatrixLike = Union["ComplexMatrix", "UnitaryMatrix", np.ndarray, Sequence[Sequence[complex]]]


def as_array(a: MatrixLike) -> np.ndarray:
    """Return ``a`` as a 2-d complex128 array (no copy when already one)."""
    if isinstance(a, UnitaryMatrix):
        return a.matrix.data
    if isinstance(a, ComplexMatrix):
        return a.data
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class ComplexMatrix:
    """Square complex matrix with finite entries; dim >= 1."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise DimensionMismatch("matrix dimension must be at least 1")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "entries": [[float(z.real), float(z.imag)] for z in self.data.ravel()],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ComplexMatrix":
        try:
            dim, entries = obj["dim"], obj["entries"]
            if type(dim) is not int:
                raise TypeError(f"dim must be an integer, got {dim!r}")
            if len(entries) != dim * dim:
                raise ValueError(f"expected {dim * dim} entries for dim={dim}, got {len(entries)}")
            flat = [complex(re, im) for re, im in entries]
        except (TypeError, KeyError) as exc:
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f'expected {{"dim": n, "entries": [[re, im], ...]}}: {detail}') from None
        return cls(np.array(flat, dtype=np.complex128).reshape(dim, dim))

    @classmethod
    def identity(cls, m: int) -> "ComplexMatrix":
        return cls(np.eye(m, dtype=np.complex128))


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """Wrapper asserting max-norm unitarity defect ||U†U - I|| <= 1e-10 on construction."""

    matrix: ComplexMatrix

    def __post_init__(self) -> None:
        mat = self.matrix
        if not isinstance(mat, ComplexMatrix):
            mat = ComplexMatrix(as_array(mat))
            object.__setattr__(self, "matrix", mat)
        u = mat.data
        defect = np.max(np.abs(u.conj().T @ u - np.eye(mat.dim)))
        if defect > UNITARITY_TOL:
            raise NotUnitary(f"unitarity defect {defect:.3e} exceeds {UNITARITY_TOL:.0e}")

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def data(self) -> np.ndarray:
        return self.matrix.data


def determinant(a: MatrixLike) -> complex:
    """Determinant by LU factorization with partial pivoting (LAPACK getrf)."""
    arr = as_array(a)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch("determinant requires a square matrix")
    if arr.shape[0] == 0:
        return 1.0 + 0.0j
    return complex(np.linalg.det(arr))


def spectral_norm(a: MatrixLike) -> float:
    """Largest singular value; 0 for the zero (or empty) matrix."""
    arr = as_array(a)
    if arr.size == 0 or not np.any(arr):
        return 0.0
    return float(np.linalg.svd(arr, compute_uv=False)[0])


def embed_contraction(b: MatrixLike) -> UnitaryMatrix:
    """Dilate a contraction B (||B|| <= 1) into a 2m x 2m unitary.

    The top-left m x m block of the result equals B; the construction is
    the standard dilation [[B, (I-BB†)^{1/2}], [(I-B†B)^{1/2}, -B†]].  Both
    Hermitian square roots are assembled from one SVD of B so that the
    blocks commute exactly and unitarity survives ||B|| = 1, where the
    square root is not Lipschitz.
    """
    arr = as_array(b)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch("embed_contraction requires a square matrix")
    norm = spectral_norm(arr)
    if norm > 1.0 + CONTRACTION_TOL:
        raise NormExceedsOne(f"spectral norm {norm!r} exceeds 1")
    w, sigma, vh = np.linalg.svd(arr)
    c = np.sqrt(np.clip(1.0 - sigma**2, 0.0, None))
    top_right = (w * c) @ w.conj().T  # (I - BB†)^{1/2}
    bottom_left = (vh.conj().T * c) @ vh  # (I - B†B)^{1/2}
    u = np.block([[arr, top_right], [bottom_left, -arr.conj().T]])
    return UnitaryMatrix(ComplexMatrix(u))


def scaled_error(value: complex, reference: complex) -> float:
    """Comparison error: relative when |reference| > 1, absolute otherwise."""
    return abs(complex(value) - complex(reference)) / max(1.0, abs(complex(reference)))
