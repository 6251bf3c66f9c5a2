import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import relay_rtm
from helpers import crandn
from oracles import check_kk_identity
from relay_rtm.errors import NumericalError, ValidationError
from relay_rtm.matalg import (
    _eigh,
    _eye,
    _slogdet,
    _solve,
    herm_eig,
    hermitian_part,
    thin_ud,
)


@pytest.mark.parametrize("factorize", [herm_eig, thin_ud])
@pytest.mark.parametrize(
    "bad",
    [
        "a",
        [["a"]],
        [[object()]],
        [[1.0], [1.0, 2.0]],
        [["1"]],
        np.array([["1"]]),
        [[b"1"]],
        "1",
        np.array([["1"]], dtype=object),
        np.array([[b"2"]], dtype=object),
        np.array([[2.0, "1"], [1.0, 2.0]], dtype=object),
    ],
)
def test_non_numeric_matrix_is_validation_error(factorize, bad):
    # numpy raised a bare ValueError or TypeError here, or parsed a numeric
    # string as a number, also one held in an object array
    with pytest.raises(ValidationError, match="^matrix must hold numbers"):
        factorize(bad)


def test_object_array_of_numbers_is_accepted():
    res = herm_eig(np.array([[2.0, 0.0], [0.0, 1.0]], dtype=object))
    np.testing.assert_allclose(res.eigenvalues, [2.0, 1.0])


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

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            herm_eig(np.zeros((2, 3)))

    @pytest.mark.parametrize("decompose", [herm_eig, thin_ud])
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize(
        "entry, where",
        [(np.nan, (0, 0)), (np.inf, (0, 0)), (-np.inf, (1, 1)), (np.nan, (0, 1)), (complex(1.0, np.inf), (1, 1))],
    )
    def test_rejects_non_finite_entries(self, decompose, stacked, entry, where):
        # NaN compares false with the asymmetry bound, so it must not pass as
        # Hermitian; an entry mirrored across the diagonal is non-finite too.
        # The error comes with no numpy warning before it.
        m = np.diag([1.0, 0.5]).astype(complex)
        m[where] = entry
        m[where[::-1]] = np.conj(entry)
        if stacked:
            m = np.stack([np.eye(2), m, np.eye(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^matrix has non-finite entries$"):
                decompose(m)

    def test_overflowing_asymmetry_of_finite_entries_is_not_hermitian(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="not Hermitian: max asymmetry inf"):
                herm_eig(np.array([[1.0, 1e308], [-1e308, 1.0]]))


class TestThinUd:
    def test_identity(self):
        res = thin_ud(np.eye(2))
        assert res.rank == 2
        np.testing.assert_allclose(res.lam_thin, [1.0, 1.0])

    def test_rank_deficient_diagonal(self):
        res = thin_ud(np.diag([5.0, 0.0]))
        assert res.rank == 1
        np.testing.assert_allclose(res.lam_thin, [5.0])
        # the eigenvector is e1 up to a unit phase
        np.testing.assert_allclose(np.abs(res.u_thin), [[1.0], [0.0]], atol=1e-14)

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


def _spd(rng, shape):
    """Well-conditioned Hermitian positive definite complex matrices."""
    g = crandn(rng, shape)
    return g @ g.conj().swapaxes(-1, -2) + np.eye(shape[-1])


def _assert_same_bytes(got, want):
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_bytes(g, w)
        return
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestLoneBuilds:
    """The single-matrix shortcuts of ``matalg`` give the bytes of the
    general code: ``herm_eig`` and ``thin_ud`` of one matrix those of its
    stack member, ``hermitian_part`` those of (M + M^H) * 0.5 as a new
    array, and the cached ``_eye`` those of a fresh build."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_lone_herm_eig_equals_its_stack_member(self, n):
        # eigenvectors come as LAPACK gives them, so a member's bytes must not
        # depend on the stack: complex, real, diagonal and rank-deficient PSD
        rng = np.random.default_rng(60 + n)
        inputs = []
        for _ in range(10):
            real = rng.standard_normal((n, n))
            g = crandn(rng, (n, max(n - 1, 1)))
            inputs += [
                hermitian_part(crandn(rng, (n, n))),
                (real + real.T).astype(complex),
                np.diag(rng.standard_normal(n)).astype(complex),
                hermitian_part(g @ g.conj().T),
            ]
        stacked = herm_eig(np.stack(inputs))
        for i, m in enumerate(inputs):
            lone = herm_eig(m)
            _assert_same_bytes(lone.eigenvalues, stacked.eigenvalues[i])
            _assert_same_bytes(lone.eigenvectors, stacked.eigenvectors[i])
        psd = inputs[3::4]
        thin = thin_ud(np.stack(psd))
        for i, m in enumerate(psd):
            lone = thin_ud(m)
            assert lone.rank == thin.rank[i]
            _assert_same_bytes(lone.lam_thin, thin.lam_thin[i, : lone.rank])
            _assert_same_bytes(lone.u_thin, thin.u_thin[i, :, : lone.rank])

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (8, 8), (7, 3, 3), (2, 5, 4, 4)])
    def test_hermitian_part_is_a_new_exactly_hermitian_array(self, shape):
        m = crandn(np.random.default_rng(70), shape)
        kept = m.copy()
        m.flags.writeable = False
        h = hermitian_part(m)
        assert h.flags.writeable and not np.shares_memory(h, m)
        _assert_same_bytes(h, 0.5 * (kept + kept.conj().swapaxes(-1, -2)))
        assert np.array_equal(h, h.conj().swapaxes(-1, -2))  # by value: conj flips a zero's sign
        _assert_same_bytes(m, kept)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_cached_identity_is_a_read_only_fresh_build(self, n):
        got = _eye(n)
        assert _eye(n) is got
        _assert_same_bytes(got, np.eye(n))
        with pytest.raises(ValueError):
            got[...] = 0


class TestLapackKernels:
    """Each kernel makes ``numpy.linalg``'s LAPACK call on complex128
    input, so its result has the wrapper's bytes: lone, stacked and with
    broadcast batch axes."""

    @pytest.mark.parametrize(
        "a_batch, b_batch, n, k",
        [((), (), 4, 4), ((), (), 5, 3), ((7,), (7,), 4, 4), ((8, 1), (8, 7), 4, 4), ((8, 7), (1,), 4, 2)],
    )
    def test_solve_matches_numpy(self, a_batch, b_batch, n, k):
        rng = np.random.default_rng(51)
        a = _spd(rng, a_batch + (n, n))
        b = crandn(rng, b_batch + (n, k))
        _assert_same_bytes(_solve(a, b), np.linalg.solve(a, b))
        g = crandn(rng, a_batch + (n, n))  # a general, non-Hermitian system
        _assert_same_bytes(_solve(g, b), np.linalg.solve(g, b))

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (6, 6), (7, 4, 4), (8, 7, 3, 3)])
    def test_slogdet_matches_numpy(self, shape):
        rng = np.random.default_rng(52)
        for m in (_spd(rng, shape), crandn(rng, shape)):
            _assert_same_bytes(_slogdet(m), tuple(np.linalg.slogdet(m)))

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (6, 6), (7, 4, 4), (8, 7, 3, 3)])
    def test_eigh_matches_numpy(self, shape):
        rng = np.random.default_rng(53)
        m = hermitian_part(crandn(rng, shape))
        _assert_same_bytes(_eigh(m), tuple(np.linalg.eigh(m)))
        # like numpy's, the kernel reads only the lower triangle
        skewed = m + np.triu(crandn(rng, shape), 1)
        _assert_same_bytes(_eigh(skewed), tuple(np.linalg.eigh(skewed)))

    def test_broadcast_batch_axes(self):
        rng = np.random.default_rng(54)
        a = _spd(rng, (8, 1, 4, 4))
        b = crandn(rng, (8, 7, 4, 4))
        got = _solve(a, b)
        assert got.shape == (8, 7, 4, 4)
        _assert_same_bytes(got, np.linalg.solve(a, b))
        # each member is the lone solve of its pair
        for i, j in np.ndindex(8, 7):
            _assert_same_bytes(got[i, j], _solve(a[i, 0], b[i, j]))

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3, 3)])
    def test_singular_solve_raises_numpys_error(self, shape):
        a = np.zeros(shape, dtype=complex)
        b = np.ones(shape, dtype=complex)
        with pytest.raises(np.linalg.LinAlgError) as want:
            np.linalg.solve(a, b)
        with pytest.raises(np.linalg.LinAlgError) as got:
            _solve(a, b)
        assert str(got.value) == str(want.value) == "Singular matrix"

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3, 3)])
    def test_nan_eigh_raises_numpys_error(self, shape):
        m = np.full(shape, np.nan, dtype=complex)
        with pytest.raises(np.linalg.LinAlgError) as want:
            np.linalg.eigh(m)
        with pytest.raises(np.linalg.LinAlgError) as got:
            _eigh(m)
        assert str(got.value) == str(want.value) == "Eigenvalues did not converge"

    def test_singular_slogdet_is_numpys_zero_and_minus_inf(self):
        m = np.zeros((3, 3), dtype=complex)
        sign, logdet = _slogdet(m)
        assert (sign, logdet) == (0.0, -np.inf)
        _assert_same_bytes((sign, logdet), tuple(np.linalg.slogdet(m)))

    def test_errors_are_also_the_packages_numerical_errors(self):
        # so that a sweep names the failing member and the command line exits 2
        with pytest.raises(NumericalError, match="^Singular matrix$"):
            _solve(np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex))
        with pytest.raises(NumericalError, match="^Eigenvalues did not converge$"):
            _eigh(np.full((3, 3), np.nan, dtype=complex))

    def test_errors_leave_the_callers_error_state_alone(self):
        before = np.geterr()
        with pytest.raises(np.linalg.LinAlgError):
            _solve(np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex))
        assert np.geterr() == before


def _linalg_uses(tree):
    """Line numbers of ``np.linalg``/``numpy.linalg`` references and of
    imports from ``numpy.linalg`` in a module's syntax tree."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("numpy.linalg") or (
                node.module == "numpy" and any(a.name == "linalg" for a in node.names)
            ):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name.startswith("numpy.linalg") for a in node.names):
                lines.append(node.lineno)
    return lines


def test_guard_sees_every_spelling():
    src = "import numpy.linalg\nfrom numpy import linalg\nfrom numpy.linalg import solve\nnp.linalg.eigh(m)\nnumpy.linalg.slogdet(m)\n"
    assert _linalg_uses(ast.parse(src)) == [1, 2, 3, 4, 5]


def test_only_matalg_calls_numpy_linalg():
    """LAPACK goes through ``matalg``'s kernels, so no other module of the
    package may call ``numpy.linalg`` and its per-call wrapper."""
    package = Path(relay_rtm.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert package / "matalg.py" in modules
    offenders = {
        str(path.relative_to(package)): lines
        for path in modules
        if path != package / "matalg.py" and (lines := _linalg_uses(ast.parse(path.read_text())))
    }
    assert offenders == {}
