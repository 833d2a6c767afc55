import ast
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmeas
from qmeas import linalg
from qmeas.algebra import _commutators, fixed_point_space
from qmeas.core import apply, scheme_to_instrument
from qmeas.errors import DimensionMismatch, NonHermitian, NotPSD, ValidationError
from qmeas.linalg import (
    TOL_FLOOR,
    Tolerances,
    cut_rank,
    dagger,
    eigenvalue_clusters,
    embed_hermitian,
    float_rank,
    hermitian_eig,
    hermitian_superoperator,
    hs_norm,
    kernel_basis,
    matrix_sqrt_psd,
    numerical_rank,
    partial_trace,
    unembed_hermitian,
    vec,
)
from qmeas.models import build_swap_scheme, random_channel, random_full_rank_state


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
    @pytest.mark.parametrize("bad", [0.0, -1e-9, 1e-15, 1e-2, 0.5])
    def test_rejects_out_of_range(self, field, bad):
        with pytest.raises(ValidationError, match=field):
            Tolerances(**{field: bad})

    def test_floor_is_accepted(self):
        assert Tolerances(TOL_FLOOR, TOL_FLOOR).atol_equality == 64 * np.finfo(np.float64).eps

    def test_no_threshold_outside_tolerances(self):
        """No module-level float constant, and no comparison with a float literal,
        in (0, 1e-3) anywhere in the package: every cut reads a Tolerances field."""
        found = []
        for name, tree in _package_trees():
            roots = [n.value for n in tree.body if isinstance(n, (ast.Assign, ast.AnnAssign)) and n.value]
            roots += [n for n in ast.walk(tree) if isinstance(n, ast.Compare)]
            found += [f"{name}:{c.lineno}" for root in roots for c in ast.walk(root)
                      if isinstance(c, ast.Constant) and isinstance(c.value, float) and 0 < abs(c.value) < 1e-3]
        assert found == []

    def test_atol_equality_is_never_scaled(self):
        """atol_equality bounds the largest entry of every equality residual, at one scale: no
        product or quotient with it, or with a name bound to it, anywhere in the package."""
        found = [(name, scope, line) for name, tree in _package_trees() for scope, line in _scaled_atol(tree)]
        assert found == []
        # the walk sees a scaled alias
        probe = ast.parse("def f(tol, d):\n    atol = tol.atol_equality\n    return d * atol\n")
        assert _scaled_atol(probe) == [("f", 3)]


def _package_trees():
    """(file name, parsed module) for each module of the package."""
    package = os.path.dirname(qmeas.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as f:
                yield name, ast.parse(f.read())


def _scaled_atol(tree) -> list:
    """(enclosing function, line) of each product or quotient with atol_equality or an alias of it."""
    aliases = {t.id for n in ast.walk(tree) if isinstance(n, ast.Assign)
               and isinstance(n.value, ast.Attribute) and n.value.attr == "atol_equality"
               for t in n.targets if isinstance(t, ast.Name)}

    def is_atol(node):
        return (isinstance(node, ast.Attribute) and node.attr == "atol_equality"
                or isinstance(node, ast.Name) and node.id in aliases)

    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div))
                and (is_atol(node.left) or is_atol(node.right))):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


class TestFloatRank:
    def test_floor_is_eps_times_size_times_the_scale(self):
        eps = np.finfo(np.float64).eps
        assert float_rank(np.array([1.0, 5 * eps, 3 * eps]), 4) == 2
        assert float_rank(np.array([1e-3, 5 * eps, 3 * eps]), 4) == 2  # the scale is at least 1
        assert float_rank(np.array([10.0, 5 * eps, 3 * eps]), 4) == 1

    def test_matches_matrix_rank(self):
        rng = np.random.default_rng(3)
        a = 2 * rand_complex(rng, 6, 2) @ rand_complex(rng, 2, 4)
        assert float_rank(np.linalg.svd(a, compute_uv=False), 6) == np.linalg.matrix_rank(a) == 2


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
        out = partial_trace(np.kron(rho, xi), (3, 2), "second")
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

    def test_stack_matches_per_matrix_traces(self):
        rng = np.random.default_rng(29)
        stack = np.stack([rand_complex(rng, 6) for _ in range(4)])
        for traced in ("second", "first"):
            got = partial_trace(stack, (2, 3), traced)
            assert got.shape == ((4, 2, 2) if traced == "second" else (4, 3, 3))
            for a, out in zip(stack, got, strict=True):
                assert np.array_equal(out, partial_trace(a, (2, 3), traced))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(5), (2, 3), "second")
        for bad in (np.zeros((4, 5, 5)), np.zeros(36), np.zeros((2, 4, 6, 6))):
            with pytest.raises(DimensionMismatch):
                partial_trace(bad, (2, 3), "first")


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

    def test_negative_eigenvalue_is_cut_at_atol_equality(self):
        assert np.array_equal(matrix_sqrt_psd(np.diag([1.0, -5e-10])), np.diag([1.0, 0.0]))
        with pytest.raises(NotPSD, match="below -1.0e-09"):
            matrix_sqrt_psd(np.diag([1.0, -5e-9]))

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
        assert np.array_equal(vec(a).reshape(5, 5), a)

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

    # tall maps with planted kernels of dimension 0, 1 and several, and the commutator map of
    # the d = 4 swap scheme's fixed-point algebra (4096 x 16), the shape algebra's center takes
    @pytest.mark.parametrize("case", ["planted-0", "planted-1", "planted-5", "swap-commutators"])
    def test_tall_kernels_match_a_full_svd_and_form_no_tall_u(self, case, monkeypatch):
        rng = np.random.default_rng(41)
        if case == "swap-commutators":
            space = fixed_point_space(scheme_to_instrument(build_swap_scheme(random_full_rank_state(4, 41))))
            b = space.basis
            a = np.moveaxis(_commutators(b, b), 0, -1).reshape(-1, len(b))
        else:
            k = int(case.split("-")[1])
            planted = np.linalg.qr(rand_complex(rng, 12, k))[0]
            a = rand_complex(rng, 200, 12) @ (np.eye(12) - planted @ dagger(planted))
        _, s, vh = np.linalg.svd(a, full_matrices=False)
        reference = vh[cut_rank(s):].conj().T
        svds, svd = [], np.linalg.svd

        def recorded(m, *args, **kwargs):
            svds.append((np.shape(m), kwargs.get("compute_uv", True)))
            return svd(m, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", recorded)
        null = kernel_basis(a)
        assert not [shape for shape, uv in svds if uv and shape[0] > shape[1]]
        assert null.shape == reference.shape
        assert np.abs(null @ dagger(null) - reference @ dagger(reference)).max() < 1e-12
        if case.startswith("planted"):
            assert np.abs(null @ dagger(null) - planted @ dagger(planted)).max() < 1e-12

    def test_eigenvalue_clusters(self):
        w = np.array([2.0, 2.0 - 1e-9, 1.0, 0.5, 0.5 - 1e-8])
        clusters = eigenvalue_clusters(w)
        sizes = [c.size for c in clusters]
        assert sizes == [2, 1, 2]

    def test_cluster_gap_is_rank_cut(self):
        w = np.array([1.0, 1.0 - 1e-7])
        assert [c.size for c in eigenvalue_clusters(w)] == [1, 1]
        assert [c.size for c in eigenvalue_clusters(w, Tolerances(rank_threshold=1e-6))] == [2]

    def test_clusters_cover_all_indices(self):
        w = np.array([3.0, 1.0, 1.0, 0.0])
        clusters = eigenvalue_clusters(w)
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

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 7), data=st.data())
    def test_entrywise_coordinates_carry_every_channel(self, d, data):
        seed = data.draw(st.integers(0, 2 ** 31 - 1))
        channel = random_channel(d, d, data.draw(st.integers(1, 2 * d * d)), seed)
        rng = np.random.default_rng(seed)
        h = np.array([rand_hermitian(rng, d) for _ in range(data.draw(st.integers(1, 4)))])
        x = embed_hermitian(h)
        assert np.isrealobj(x) and x.shape == (len(h), d * d)
        # entry ac: h_aa on the diagonal, sqrt 2 Re h_ac above it, sqrt 2 Im h_ac below it
        above, below, diagonal = np.triu_indices(d, 1), np.tril_indices(d, -1), np.diag_indices(d)
        entries = x.reshape(-1, d, d)
        assert np.array_equal(entries[(...,) + diagonal], h[(...,) + diagonal].real)
        assert np.abs(entries[(...,) + above] - np.sqrt(2) * h[(...,) + above].real).max(initial=0) < 1e-15
        assert np.abs(entries[(...,) + below] - np.sqrt(2) * h[(...,) + below].imag).max(initial=0) < 1e-15
        # a real isometry for the HS inner product, inverted by unembed_hermitian on the stack
        assert np.abs(x @ x.T - np.einsum("iab,jba->ij", h, h).real).max() < 1e-12
        assert np.abs(unembed_hermitian(x, d) - h).max() < 1e-14
        # S_r acts on the coordinates as the channel acts on the matrices
        s_r = hermitian_superoperator(channel.superoperator, d)
        assert np.abs(x @ s_r.T - embed_hermitian(apply(channel, h))).max() < 1e-12
        # the cached coordinate arrays are O(d^2), never d^4
        assert all(a.shape == (d, d) and not a.flags.writeable for a in linalg._coordinates(d))
