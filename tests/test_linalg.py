import numpy as np
import pytest

from qmeas.errors import DimensionMismatch, NonHermitian, NotPSD, ValidationError
from qmeas.linalg import (
    Tolerances,
    dagger,
    eigenvalue_clusters,
    embed_hermitian,
    hermitian_eig,
    hermitian_superoperator,
    hs_norm,
    kernel_basis,
    kron,
    matrix_sqrt_psd,
    numerical_rank,
    partial_trace,
    unembed_hermitian,
    unvec,
    vec,
)
from qmeas.models import random_channel


def rand_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def rand_hermitian(rng, n):
    g = rand_complex(rng, n)
    return (g + dagger(g)) / 2


def rand_psd(rng, n):
    g = rand_complex(rng, n)
    return g @ dagger(g)


class TestTolerances:
    def test_defaults(self):
        t = Tolerances()
        assert t.atol_equality == 1e-9
        assert t.rank_threshold == 1e-8

    @pytest.mark.parametrize("field", ["atol_equality", "rank_threshold"])
    @pytest.mark.parametrize("bad", [0.0, -1e-9, 1e-2, 0.5])
    def test_rejects_out_of_range(self, field, bad):
        with pytest.raises(ValidationError):
            Tolerances(**{field: bad})


class TestHermitianEig:
    def test_identity(self):
        w, v = hermitian_eig(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])
        assert np.abs(dagger(v) @ v - np.eye(2)).max() < 1e-12

    def test_unsharp_pair_effect(self):
        w, _ = hermitian_eig(np.diag([0.75, 0.25]).astype(complex))
        assert np.allclose(w, [0.75, 0.25])

    def test_plus_projection(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        w, v = hermitian_eig(np.outer(plus, plus))
        assert np.allclose(w, [1.0, 0.0], atol=1e-12)
        overlap = abs(np.vdot(v[:, 0], plus))
        assert abs(overlap - 1.0) < 1e-12

    def test_descending_order(self):
        rng = np.random.default_rng(3)
        w, _ = hermitian_eig(rand_hermitian(rng, 6))
        assert all(w[i] >= w[i + 1] for i in range(5))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rand_hermitian(rng, 5)
            w, v = hermitian_eig(a)
            err = hs_norm(v @ np.diag(w) @ dagger(v) - a)
            assert err < 1e-8 * max(1.0, hs_norm(a))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("d", [3, 17, 24])
    def test_stack_equals_per_matrix_calls(self, d):
        rng = np.random.default_rng(d)
        u = np.linalg.qr(rand_complex(rng, d))[0]
        p = u[:, :d // 2] @ dagger(u[:, :d // 2])
        # exactly tied spectra: the identity, and a sum of projectors with eigenvalues 3 and 1
        stack = np.stack([rand_hermitian(rng, d), np.eye(d), 2 * p + np.eye(d), rand_psd(rng, d)])
        w, v = hermitian_eig(stack)
        assert w.shape == (4, d) and v.shape == (4, d, d)
        for a, wa, va in zip(stack, w, v):
            w1, v1 = hermitian_eig(a)
            assert np.array_equal(wa, w1) and np.array_equal(va, v1)
            assert np.all(np.diff(wa) <= 0)
            assert np.abs(va @ np.diag(wa) @ dagger(va) - a).max() < 1e-10 * max(1.0, np.abs(a).max())

    @pytest.mark.parametrize("bad, error", [
        (np.array([[0.0, 1.0], [0.0, 0.0]]), NonHermitian),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), ValidationError),
    ])
    def test_a_bad_member_raises_as_the_matrix_does(self, bad, error):
        with pytest.raises(error):
            hermitian_eig(bad)
        with pytest.raises(error):
            hermitian_eig(np.stack([np.eye(2), bad]))

    def test_rejects_non_square_and_deeper_stacks(self):
        for bad in (np.zeros(4), np.zeros((2, 3)), np.zeros((3, 2, 3)), np.zeros((2, 2, 2, 2))):
            with pytest.raises(DimensionMismatch):
                hermitian_eig(bad)


class TestNumericalRank:
    def test_zero(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_ideality_effect(self):
        e_plus = np.diag([0.0, 0.5, 1.0])
        assert numerical_rank(e_plus) == 2

    def test_povm_sum_is_full(self):
        rng = np.random.default_rng(11)
        blocks = [rand_psd(rng, 4) for _ in range(3)]
        total = sum(blocks)
        w, v = np.linalg.eigh(total)
        whiten = (v / np.sqrt(w)) @ dagger(v)
        effects = [whiten @ b @ whiten for b in blocks]
        assert numerical_rank(sum(effects)) == 4

    def test_unitary_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            r = int(rng.integers(1, n + 1))
            g = rand_complex(rng, n, r)
            a = g @ dagger(g)
            q, _ = np.linalg.qr(rand_complex(rng, n))
            assert numerical_rank(a) == numerical_rank(q @ a @ dagger(q)) == r


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(17)
        rho = rand_psd(rng, 3)
        xi = rand_psd(rng, 2)
        out = partial_trace(kron(rho, xi), (3, 2), "second")
        assert np.abs(out - rho * np.trace(xi)).max() < 1e-10

    def test_maximally_entangled(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        out = partial_trace(np.outer(psi, psi.conj()), (2, 2), "second")
        assert np.abs(out - np.eye(2) / 2).max() < 1e-12

    def test_brute_force_contraction(self):
        rng = np.random.default_rng(19)
        ds, da = 3, 2
        a = rand_complex(rng, ds * da)
        brute_second = np.zeros((ds, ds), dtype=complex)
        brute_first = np.zeros((da, da), dtype=complex)
        for i in range(ds):
            for j in range(ds):
                for k in range(da):
                    brute_second[i, j] += a[i * da + k, j * da + k]
        for i in range(da):
            for j in range(da):
                for k in range(ds):
                    brute_first[i, j] += a[k * da + i, k * da + j]
        assert np.abs(partial_trace(a, (ds, da), "second") - brute_second).max() < 1e-12
        assert np.abs(partial_trace(a, (ds, da), "first") - brute_first).max() < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(23)
        a = rand_complex(rng, 6)
        out = partial_trace(a, (2, 3), "first")
        assert abs(np.trace(out) - np.trace(a)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(5), (2, 3), "second")


class TestMatrixSqrt:
    def test_projection_is_fixed(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        p = np.outer(plus, plus)
        assert np.abs(matrix_sqrt_psd(p) - p).max() < 1e-12

    def test_diagonal_values(self):
        root = matrix_sqrt_psd(np.diag([0.75, 0.25]).astype(complex))
        assert np.abs(root - np.diag([np.sqrt(3) / 2, 0.5])).max() < 1e-12

    def test_square_recovers(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            a = rand_psd(rng, 4)
            r = matrix_sqrt_psd(a)
            assert hs_norm(r @ r - a) < 1e-8 * max(1.0, hs_norm(a))
            assert hs_norm(r - dagger(r)) < 1e-9 * max(1.0, hs_norm(r))

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            matrix_sqrt_psd(np.diag([1.0, -0.5]))

    def test_stack_equals_per_matrix_calls(self):
        rng = np.random.default_rng(30)
        stack = np.stack([rand_psd(rng, 4) for _ in range(3)] + [np.eye(4)])
        roots = matrix_sqrt_psd(stack)
        assert roots.shape == stack.shape
        for a, r in zip(stack, roots):
            assert np.array_equal(r, matrix_sqrt_psd(a))
        with pytest.raises(NotPSD):
            matrix_sqrt_psd(np.stack([np.eye(2), np.diag([1.0, -0.5])]))


class TestVectorization:
    def test_hs_isometry(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a, b = rand_complex(rng, 4), rand_complex(rng, 4)
            assert abs(np.vdot(vec(a), vec(b)) - np.trace(dagger(a) @ b)) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(37)
        a = rand_complex(rng, 5)
        assert np.array_equal(unvec(vec(a), 5), a)

    def test_row_major_convention(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.array_equal(vec(a), np.array([1, 2, 3, 4], dtype=complex))


class TestKernelAndClusters:
    def test_kernel_basis(self):
        a = np.diag([1.0, 0.0, 2.0])
        null = kernel_basis(a)
        assert null.shape == (3, 1)
        assert np.abs(a @ null).max() < 1e-12

    def test_kernel_basis_tall_and_wide(self):
        rng = np.random.default_rng(7)
        tall = rand_complex(rng, 3)[:, :2] @ rand_complex(rng, 3)[:2]
        tall = np.vstack([tall, tall])
        assert kernel_basis(tall).shape == (3, 1)
        wide = rand_complex(rng, 3)[:2]
        null = kernel_basis(wide)
        assert null.shape == (3, 1)
        assert np.abs(wide @ null).max() < 1e-12

    def test_kernel_empty_for_full_rank(self):
        assert kernel_basis(np.eye(3)).shape[1] == 0

    def test_eigenvalue_clusters(self):
        w = np.array([2.0, 2.0 - 1e-9, 1.0, 0.5, 0.5 - 1e-8])
        clusters = eigenvalue_clusters(w, 1e-6)
        sizes = [c.size for c in clusters]
        assert sizes == [2, 1, 2]

    def test_clusters_cover_all_indices(self):
        w = np.array([3.0, 1.0, 1.0, 0.0])
        clusters = eigenvalue_clusters(w, 1e-6)
        assert sorted(np.concatenate(clusters).tolist()) == [0, 1, 2, 3]


class TestHermitianCoordinates:
    def test_embedding_is_an_isometry_with_inverse(self):
        rng = np.random.default_rng(3)
        h = np.array([rand_hermitian(rng, 4) for _ in range(3)])
        x = embed_hermitian(h)
        assert np.isrealobj(x) and x.shape == (3, 16)
        assert np.abs(np.linalg.norm(x, axis=1) - np.linalg.norm(h, axis=(1, 2))).max() < 1e-13
        assert np.abs(unembed_hermitian(x, 4) - h).max() < 1e-15

    @pytest.mark.parametrize("d", range(2, 7))
    def test_superoperator_matches_dense_change_of_basis(self, d):
        s = random_channel(d, d, 3, d).superoperator
        t = unembed_hermitian(np.eye(d * d), d).reshape(d * d, -1).conj()  # rows vec(G_m)^dag
        assert np.abs(t @ dagger(t) - np.eye(d * d)).max() < 1e-13
        dense = t @ s @ dagger(t)
        assert np.abs(dense.imag).max() < 1e-13
        got = hermitian_superoperator(s, d)
        assert np.isrealobj(got)
        assert np.abs(got - dense.real).max() < 1e-13
