import json

import numpy as np
import pytest

from permkit import rng
from permkit.errors import DimensionMismatch, NormExceedsOne, NotUnitary
from permkit.numerics import (
    ComplexMatrix,
    UnitaryMatrix,
    determinant,
    embed_contraction,
    spectral_norm,
)

from oracles import cofactor_determinant, jacobi_eigenvalues


def contraction(m, seed):
    """A unit-disk matrix rescaled so that its spectral norm is at most 1."""
    a = rng.unit_disk_matrix(m, seed)
    s = np.linalg.svd(a, compute_uv=False)[0]
    return a * (1.0 / s) if s > 1.0 else a


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(3)) == pytest.approx(1.0)

    def test_permutation_sign(self):
        assert determinant(np.array([[0, 1], [1, 0]], dtype=complex)) == pytest.approx(-1.0)

    def test_against_cofactor_oracle(self):
        a = rng.unit_disk_matrix(5, 11)
        ref = cofactor_determinant(a)
        assert abs(determinant(a) - ref) <= 1e-10 * abs(ref)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_multiplicative(self, m):
        a = rng.unit_disk_matrix(m, m)
        b = rng.unit_disk_matrix(m, m + 50)
        lhs = determinant(a @ b)
        rhs = determinant(a) * determinant(b)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("shape", [(2, 3), (4, 1), (3, 3)])
    def test_sylvester(self, shape):
        g = rng.generator(13)
        r, c = shape
        m = g.standard_normal((r, c)) + 1j * g.standard_normal((r, c))
        n = g.standard_normal((c, r)) + 1j * g.standard_normal((c, r))
        lhs = determinant(np.eye(r) + m @ n)
        rhs = determinant(np.eye(c) + n @ m)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -1.0]).astype(complex)) == pytest.approx(3.0)

    def test_zero(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_against_jacobi_oracle(self):
        a = rng.unit_disk_matrix(4, 21)
        eigs = jacobi_eigenvalues(a.conj().T @ a)
        ref = np.sqrt(eigs[-1])
        assert abs(spectral_norm(a) - ref) <= 1e-7 * ref


class TestEmbedContraction:
    def test_zero_scalar(self):
        u = embed_contraction(np.zeros((1, 1)))
        assert u.dim == 2
        assert u.data[0, 0] == pytest.approx(0.0)

    def test_identity_block(self):
        u = embed_contraction(np.eye(2))
        assert np.allclose(u.data[:2, :2], np.eye(2), atol=1e-12)
        assert np.allclose(u.data[:2, 2:], 0, atol=1e-9)
        assert np.allclose(u.data[2:, :2], 0, atol=1e-9)

    def test_random_contraction(self):
        b = contraction(3, 5)
        u = embed_contraction(b)
        prod = u.data.conj().T @ u.data
        assert np.max(np.abs(prod - np.eye(6))) <= 1e-9
        assert np.max(np.abs(u.data[:3, :3] - b)) <= 1e-9

    def test_rejects_expansion(self):
        with pytest.raises(NormExceedsOne):
            embed_contraction(2.0 * np.eye(2))

    def test_output_passes_unitarity_check(self):
        b = contraction(4, 9)
        UnitaryMatrix(embed_contraction(b).matrix)  # must not raise


class TestCarriers:
    def test_json_round_trip(self):
        a = ComplexMatrix(rng.unit_disk_matrix(3, 41))
        text = json.dumps(a.to_json_dict())
        b = ComplexMatrix.from_json_dict(json.loads(text))
        assert np.array_equal(a.data, b.data)

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionMismatch):
            ComplexMatrix(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ComplexMatrix(np.array([[np.nan, 0], [0, 1]]))

    def test_unitary_check(self):
        UnitaryMatrix(ComplexMatrix(np.eye(3)))
        with pytest.raises(NotUnitary):
            UnitaryMatrix(ComplexMatrix(np.eye(3) * 1.5))

    def test_haar_is_unitary_and_seeded(self):
        u1 = rng.haar_unitary(4, 8)
        u2 = rng.haar_unitary(4, 8)
        assert np.array_equal(u1.data, u2.data)
        assert np.max(np.abs(u1.data.conj().T @ u1.data - np.eye(4))) < 1e-12
