import numpy as np
import pytest

from helpers import crandn
from oracles import check_kk_identity
from relay_rtm.errors import ValidationError
from relay_rtm.matalg import herm_eig, hermitian_part, inv_sqrt_diag, thin_ud


class TestHermEig:
    def test_diagonal_input_sorted(self):
        res = herm_eig(np.diag([1.0, 2.0]).astype(complex))
        np.testing.assert_allclose(res.eigenvalues, [2.0, 1.0])
        # eigenvectors are a column permutation of the identity
        np.testing.assert_allclose(np.abs(res.eigenvectors), [[0, 1], [1, 0]], atol=1e-14)

    def test_zero_matrix(self):
        res = herm_eig(np.zeros((3, 3)))
        np.testing.assert_allclose(res.eigenvalues, np.zeros(3))

    def test_seeded_reconstruction(self):
        rng = np.random.default_rng(4)
        m = hermitian_part(crandn(rng, (4, 4)))
        res = herm_eig(m)
        rebuilt = (res.eigenvectors * res.eigenvalues) @ res.eigenvectors.conj().T
        rel = np.linalg.norm(rebuilt - m) / np.linalg.norm(m)
        assert rel < 1e-10
        gram = res.eigenvectors.conj().T @ res.eigenvectors
        assert np.linalg.norm(gram - np.eye(4)) < 1e-10

    def test_ordering_nonincreasing(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 5, 6):
            res = herm_eig(hermitian_part(crandn(rng, (n, n))))
            assert np.all(np.diff(res.eigenvalues) <= 0)

    def test_repeated_calls_identical(self):
        rng = np.random.default_rng(21)
        m = hermitian_part(crandn(rng, (5, 5)))
        a = herm_eig(m)
        b = herm_eig(m)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)

    def test_phase_convention_leading_entry_real_positive(self):
        rng = np.random.default_rng(31)
        res = herm_eig(hermitian_part(crandn(rng, (4, 4))))
        for j in range(4):
            col = res.eigenvectors[:, j]
            lead = col[np.argmax(np.abs(col))]
            assert abs(lead.imag) < 1e-14
            assert lead.real > 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            herm_eig(np.zeros((2, 3)))


class TestThinUd:
    def test_identity(self):
        res = thin_ud(np.eye(2))
        assert res.rank == 2
        np.testing.assert_allclose(res.lam_thin, [1.0, 1.0])

    def test_rank_deficient_diagonal(self):
        res = thin_ud(np.diag([5.0, 0.0]))
        assert res.rank == 1
        np.testing.assert_allclose(res.lam_thin, [5.0])
        np.testing.assert_allclose(res.u_thin, [[1.0], [0.0]], atol=1e-14)

    def test_seeded_second_hop_gram(self):
        rng = np.random.default_rng(7)
        h2 = crandn(rng, (3, 2))
        b = hermitian_part(h2.conj().T @ h2)
        res = thin_ud(b)
        assert res.rank == 2
        rebuilt = (res.u_thin * res.lam_thin) @ res.u_thin.conj().T
        assert np.linalg.norm(rebuilt - b) / np.linalg.norm(b) < 1e-10

    def test_reconstruction_property(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, n + 1))
            g = crandn(rng, (n, k))
            m = hermitian_part(g @ g.conj().T)
            res = thin_ud(m)
            assert res.rank <= k
            assert np.all(res.lam_thin > 0)
            rebuilt = (res.u_thin * res.lam_thin) @ res.u_thin.conj().T
            assert np.linalg.norm(rebuilt - m) <= 1e-10 * max(np.linalg.norm(m), 1.0)
            gram = res.u_thin.conj().T @ res.u_thin
            assert np.linalg.norm(gram - np.eye(res.rank)) < 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError, match="positive semidefinite"):
            thin_ud(np.diag([1.0, -1.0]))

    def test_negative_roundoff_clamped(self):
        res = thin_ud(np.diag([1.0, -1e-14]))
        assert res.rank == 1
        np.testing.assert_allclose(res.lam_thin, [1.0])


class TestInvSqrtDiag:
    @pytest.mark.parametrize(
        "lam,expected",
        [([1.0], [1.0]), ([4.0], [0.5]), ([9.0, 0.25], [1.0 / 3.0, 2.0])],
    )
    def test_values(self, lam, expected):
        np.testing.assert_allclose(inv_sqrt_diag(np.array(lam)), expected)

    @pytest.mark.parametrize("bad", [[0.0], [-1.0], [1.0, 0.0]])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValidationError):
            inv_sqrt_diag(np.array(bad))


class TestKkIdentity:
    def test_zero_matrix(self):
        assert check_kk_identity(np.zeros((2, 3))) == 0.0

    def test_identity_half(self):
        # both sides equal I/2 exactly
        assert check_kk_identity(np.eye(2)) < 1e-15

    def test_seeded_rectangular(self):
        rng = np.random.default_rng(9)
        assert check_kk_identity(crandn(rng, (3, 4))) < 1e-12

    def test_residual_property_large_entries(self):
        rng = np.random.default_rng(88)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            re = rng.uniform(-7.0, 7.0, (n, m))
            im = rng.uniform(-7.0, 7.0, (n, m))
            k = re + 1j * im  # entry magnitude <= sqrt(98) < 10
            assert check_kk_identity(k) < 1e-10
