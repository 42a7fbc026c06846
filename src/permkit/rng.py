"""Seeded randomness: counter-based generator, random matrices, Haar unitaries.

Everything here is deterministic given (seed, stream): the bit generator is
Philox (counter-based) and streams are separated by `.jumped()`.
"""

from __future__ import annotations

import numpy as np

from .numerics import ComplexMatrix, UnitaryMatrix


def bit_generator(seed: int, stream: int = 0) -> np.random.Philox:
    bg = np.random.Philox(key=int(seed) & ((1 << 64) - 1))
    if stream:
        bg = bg.jumped(stream)
    return bg


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(bit_generator(seed, stream))


def unit_disk_matrix(m: int, seed: int) -> np.ndarray:
    """m x m matrix with i.i.d. entries uniform in the complex unit disk."""
    g = generator(seed)
    radius = np.sqrt(g.random((m, m)))
    theta = 2.0 * np.pi * g.random((m, m))
    return radius * np.exp(1j * theta)


def haar_unitary(m: int, seed: int) -> UnitaryMatrix:
    """Haar-random unitary: QR of a complex Gaussian with phase-corrected R diagonal."""
    g = generator(seed)
    z = (g.standard_normal((m, m)) + 1j * g.standard_normal((m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return UnitaryMatrix(ComplexMatrix(q))
