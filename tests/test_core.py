import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas.classify import classify
from qmeas.core import (
    BLOCK_ENTRIES,
    Channel,
    Instrument,
    MeasurementScheme,
    Observable,
    Operation,
    State,
    apply,
    apply_dual,
    compose,
    fidelity,
    kraus_from_choi,
    kraus_from_rows,
    luders_instrument,
    measure_prepare_kraus,
    restriction_map,
    scheme_dual_superoperator,
    scheme_to_instrument,
    superop_distance,
)
from qmeas.errors import DimensionMismatch, NotCP, QmeasError, ValidationError
from qmeas.linalg import Tolerances, cut_rank, dagger, hermitian_eig, kron, vec
from qmeas.models import (
    build_extremal_model,
    build_ideality_example,
    build_luders_scheme,
    build_shift_scheme,
    build_swap_scheme,
    completely_unsharp_pair,
    extremal_model_kraus,
    pointer_observable,
    random_channel,
    random_constrained_scheme,
    random_full_rank_state,
    random_instrument,
    random_povm,
    random_unitary,
    shift_observable,
    trivial_swap_scheme,
)
from qmeas.properties import check_ideal
from qmeas.thirdlaw import check_scheme_thirdlaw


def rand_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


class TestStateValidation:
    def test_accepts_mixture(self):
        State(np.eye(3) / 3)

    def test_rejects_trace(self):
        with pytest.raises(ValidationError):
            State(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            State(np.diag([1.5, -0.5]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(QmeasError):
            State(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_pure_and_diagonal(self):
        assert State.pure([1, 0]).dim == 2
        assert abs(State.diagonal([0.7, 0.3]).matrix[0, 0] - 0.7) < 1e-15


class TestObservableValidation:
    def test_accepts_povm(self):
        Observable((np.diag([0.75, 0.25]), np.diag([0.25, 0.75])))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            Observable((np.diag([0.5, 0.5]), np.diag([0.25, 0.25])))

    def test_rejects_eigenvalue_above_one(self):
        with pytest.raises(ValidationError):
            Observable((np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])))

    def test_rejects_zero_effect(self):
        with pytest.raises(ValidationError):
            Observable((np.eye(2), np.zeros((2, 2))))

    def test_default_labels(self):
        obs = Observable((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert len(obs.outcomes) == 2
        assert len(set(obs.outcomes)) == 2

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError):
            Observable((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), ("a", "a"))


class TestChannelValidation:
    def test_trace_preserving_enforced(self):
        with pytest.raises(ValidationError):
            Channel((np.diag([0.5, 0.5]),))

    def test_unitary(self):
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        ch = Channel.unitary(u)
        assert np.abs(apply(ch, np.diag([1.0, 0.0])) - np.diag([0.0, 1.0])).max() < 1e-14

    def test_operation_allows_deficit(self):
        Operation((np.diag([0.5, 0.5]),))

    def test_operation_rejects_excess(self):
        with pytest.raises(ValidationError):
            Operation((np.diag([1.5, 1.0]),))


class TestOperatorStacks:
    """Effects and Kraus operators are stored as one read-only complex128 (n, d_out, d_in) array."""

    FAMILIES = {
        Observable: [np.diag([0.75, 0.25]), np.diag([0.25, 0.75])],
        Operation: [np.diag([0.5, 0.5]), np.array([[0.0, 0.5], [0.5, 0.0]])],
        Channel: [np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.array([[0, 1], [1, 0]])],
    }

    @staticmethod
    def stored(obj):
        return obj.effects if isinstance(obj, Observable) else obj.kraus

    @pytest.mark.parametrize("cls", list(FAMILIES))
    def test_every_input_form_gives_one_read_only_stack(self, cls):
        mats = self.FAMILIES[cls]
        forms = (tuple(mats), list(mats), (m for m in mats), np.array(mats))
        stacks = [self.stored(cls(form)) for form in forms]
        for stack in stacks:
            assert isinstance(stack, np.ndarray)
            assert stack.dtype == np.complex128 and stack.shape == (2, 2, 2)
            assert np.array_equal(stack, stacks[0])
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 0.0

    def test_the_input_array_is_copied(self):
        mats = np.array(self.FAMILIES[Channel], dtype=np.complex128)
        ch = Channel(mats)
        mats[0] = 0.0
        assert np.abs(ch.kraus[0] - np.sqrt(0.5) * np.eye(2)).max() == 0.0

    def test_rectangular_kraus_stack(self):
        ch = random_channel(3, 2, 4, 7)  # dim_in 3, dim_out 2
        assert ch.kraus.shape == (4, 2, 3) and (ch.dim_in, ch.dim_out) == (3, 2)

    @pytest.mark.parametrize("cls", list(FAMILIES))
    def test_ragged_and_empty_families_are_rejected(self, cls):
        with pytest.raises(DimensionMismatch):
            cls((np.eye(2), np.eye(3)))
        with pytest.raises(DimensionMismatch):
            cls(np.eye(2))  # one matrix, not a family
        for empty in ((), [], (m for m in ()), np.zeros((0, 2, 2))):
            with pytest.raises(ValidationError):
                cls(empty)

    @pytest.mark.parametrize("module", ["qmeas.core", "qmeas.classify", "qmeas.properties"])
    def test_one_eigendecomposition_per_observable(self, module, monkeypatch):
        obs = pointer_observable(3)
        instrument = luders_instrument(obs)
        run = {"qmeas.core": lambda: Observable(obs.effects),
               "qmeas.classify": lambda: classify(obs),
               "qmeas.properties": lambda: check_ideal(instrument)}[module]
        calls = []
        monkeypatch.setattr(importlib.import_module(module), "hermitian_eig",
                            lambda a, *args: calls.append(np.shape(a)) or hermitian_eig(a, *args))
        run()
        assert calls == [(3, 3, 3)]


class TestInstrumentValidation:
    def test_total_must_be_channel(self):
        half = Operation((np.diag([0.5, 0.5]),))
        with pytest.raises(ValidationError):
            Instrument((half, half))

    def test_induced_observable(self):
        inst = luders_instrument(completely_unsharp_pair())
        eff = inst.induced_observable().effects
        assert np.abs(eff[0] - np.diag([0.75, 0.25])).max() < 1e-12
        assert inst.induced_observable() is inst.induced_observable()  # validated once, kept


class TestLudersInstrument:
    def test_sharp_projections(self):
        obs = pointer_observable(2)
        inst = luders_instrument(obs)
        rng = np.random.default_rng(0)
        g = rand_complex(rng, 2)
        rho = g @ dagger(g)
        rho /= np.trace(rho).real
        p = obs.effects[0]
        assert np.abs(apply(inst.operations[0], rho) - p @ rho @ p).max() < 1e-12

    def test_unsharp_diagonal_arithmetic(self):
        inst = luders_instrument(completely_unsharp_pair())
        out = apply(inst.operations[0], np.eye(2) / 2)
        assert np.abs(out - np.diag([0.375, 0.125])).max() < 1e-12

    def test_outcome_normalization(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            obs = random_povm(3, 3, seed)
            inst = luders_instrument(obs)
            g = rand_complex(rng, 3)
            rho = g @ dagger(g)
            rho /= np.trace(rho).real
            total = sum(np.trace(apply(op, rho)).real for op in inst.operations)
            assert abs(total - 1.0) < 1e-10


class TestSchemeToInstrument:
    def test_trivial_swap(self):
        xi = State.diagonal([0.6, 0.4])
        z = Observable((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        scheme = trivial_swap_scheme(xi, z)
        inst = scheme_to_instrument(scheme)
        rng = np.random.default_rng(1)
        g = rand_complex(rng, 2)
        rho = g @ dagger(g)
        rho /= np.trace(rho).real
        for x in range(2):
            expected = np.trace(z.effects[x] @ rho) * xi.matrix
            assert np.abs(apply(inst.operations[x], rho) - expected).max() < 1e-10
        induced = inst.induced_observable()
        assert np.abs(np.stack(induced.effects) - np.stack(z.effects)).max() < 1e-10

    def test_luders_scheme_reproduces_luders(self):
        obs = completely_unsharp_pair()
        scheme = build_luders_scheme(obs)
        induced = scheme_to_instrument(scheme)
        reference = luders_instrument(obs)
        dist = max(superop_distance(a, b)
                   for a, b in zip(induced.operations, reference.operations))
        assert dist < 1e-9

    def test_shift_dual_action(self):
        n, q = 3, (0.5, 0.3, 0.2)
        inst = scheme_to_instrument(build_shift_scheme(n, q))
        rng = np.random.default_rng(2)
        a = rand_complex(rng, n)
        for x in range(n):
            expected = np.diag([q[(x - m) % n] * a[m, m] for m in range(n)])
            assert np.abs(apply_dual(inst.operations[x], a) - expected).max() < 1e-10

    def test_induced_matches_shift_observable(self):
        n, q = 3, (0.5, 0.3, 0.2)
        inst = scheme_to_instrument(build_shift_scheme(n, q))
        target = shift_observable(n, q)
        got = inst.induced_observable()
        assert np.abs(np.stack(got.effects) - np.stack(target.effects)).max() < 1e-10

    def test_dimension_guard(self):
        xi = State.diagonal([0.6, 0.4])
        with pytest.raises((DimensionMismatch, ValidationError)):
            MeasurementScheme(system_dim=3, ancilla=xi,
                              interaction=Channel.unitary(np.eye(4)),
                              pointer=pointer_observable(2))


class TestChoiKraus:
    def test_identity_channel_choi(self):
        ch = Channel.identity(2)
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0
        assert np.abs(ch.choi - np.outer(psi, psi.conj())).max() < 1e-12
        kraus = kraus_from_choi(ch.choi, 2, 2)
        assert len(kraus) == 1

    def test_extremal_operation_minimal_count(self):
        ks = extremal_model_kraus()
        op = Operation((ks[(0, 0)], ks[(0, 1)]))
        kraus = kraus_from_choi(op.choi, 4, 4)
        assert len(kraus) == 2

    def test_round_trip_random(self):
        for seed in range(10):
            ch = random_channel(3, 3, 4, seed)
            back = Operation(kraus_from_choi(ch.choi, 3, 3))
            assert superop_distance(ch, back) < 1e-8

    def test_choi_from_superop_consistent(self):
        ch = random_channel(2, 3, 2, 0)
        # reference: the per-operator sums that define each representation
        ks = ch.kraus
        refs = (
            (ch.choi, sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in ks)),
            (ch.superoperator, sum(np.kron(k, k.conj()) for k in ks)),
            (ch.dual_superoperator, sum(np.kron(dagger(k), k.T) for k in ks)),
            (ch._kraus_sum(), sum(dagger(k) @ k for k in ks)),
        )
        for got, ref in refs:
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() < 1e-12

    def test_rejects_non_cp(self):
        with pytest.raises(NotCP):
            kraus_from_choi(np.diag([1.0, -0.5, 0.2, 0.1]), 2, 2)

    # rows of rank 3 against D = 2 * 3 = 6: wide, square and tall
    @pytest.mark.parametrize("count", [4, 6, 11])
    def test_rows_give_the_choi_family(self, count):
        rng = np.random.default_rng(count)
        v = rand_complex(rng, count, 3) @ rand_complex(rng, 3, 6)
        choi = v.T @ v.conj()
        from_rows = kraus_from_rows(v, 2, 3)
        from_choi = kraus_from_choi(choi, 2, 3)
        assert len(from_rows) == len(from_choi) == 3
        for fam in (from_rows, from_choi):
            rows = np.array(fam).reshape(len(fam), -1)
            assert np.linalg.norm(rows.T @ rows.conj() - choi) < 1e-12 * np.linalg.norm(choi)
        with pytest.raises(NotCP):
            kraus_from_rows(np.zeros((count, 6)), 2, 3)

    def test_rows_are_cut_at_the_rank_threshold(self):
        # squared singular values 2 and 2e-6: the Kraus count follows rank_threshold
        v = np.array([vec(np.eye(2)), 1e-3 * vec(np.diag([1.0, -1.0]))])
        assert len(kraus_from_rows(v, 2, 2)) == 2
        assert len(kraus_from_rows(v, 2, 2, Tolerances(rank_threshold=1e-4))) == 1

    def test_measure_prepare_family_matches_the_per_pair_loop(self):
        pairs = [(np.diag([1.0, 0.0, 0.0]), random_full_rank_state(3, 1)),
                 (np.diag([0.0, 1.0, 1.0]), np.diag([0.5, 0.5, 0.0]))]
        expected = []
        for g_op, sigma in pairs:
            g, gv = hermitian_eig(g_op)
            s, sv = hermitian_eig(getattr(sigma, "matrix", sigma))
            expected += [np.sqrt(g[i] * s[j]) * np.outer(sv[:, j], gv[:, i].conj())
                         for i in range(cut_rank(g)) for j in range(cut_rank(s))]
        family = measure_prepare_kraus(pairs)
        assert family.shape == (7, 3, 3) and np.array_equal(family, np.array(expected))
        rho = random_full_rank_state(3, 2).matrix
        want = sum(np.trace(g_op @ rho) * getattr(sigma, "matrix", sigma) for g_op, sigma in pairs)
        assert np.abs(apply(Channel(family), rho) - want).max() < 1e-12


class TestCompose:
    def test_identity_neutral(self):
        ch = random_channel(3, 3, 2, 1)
        assert superop_distance(compose(Channel.identity(3), ch), ch) < 1e-12

    def test_superoperator_product(self):
        for seed in range(5):
            a = random_channel(2, 3, 2, seed)
            b = random_channel(3, 2, 2, seed + 100)
            prod = compose(b, a)
            direct = b.superoperator @ a.superoperator
            assert np.abs(prod.superoperator - direct).max() < 1e-10

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatch):
            compose(random_channel(3, 3, 2, 0), random_channel(2, 2, 2, 0))

    def test_result_is_validated_at_the_inputs_tolerance(self):
        loose = Tolerances(atol_equality=1e-3)
        # sum K^dag K = (1 + 7e-6) 1, accepted only at the loose tolerance
        ks = [tuple(np.sqrt(1 + 7e-6) * k for k in random_channel(2, 2, 2, seed).kraus) for seed in (5, 6)]
        with pytest.raises(ValidationError):
            Channel(ks[0])
        a, b = (Channel(k, loose) for k in ks)
        assert compose(a, b).tol == loose

    def test_tensor_superoperator(self):
        a = random_channel(2, 2, 2, 3)
        b = random_channel(2, 2, 2, 4)
        t = Channel(tuple(np.kron(x, y) for x in a.kraus for y in b.kraus))  # Kraus set {A_i (x) B_j}
        rng = np.random.default_rng(9)
        rho_a = rand_complex(rng, 2)
        rho_b = rand_complex(rng, 2)
        lhs = apply(t, kron(rho_a, rho_b))
        rhs = kron(apply(a, rho_a), apply(b, rho_b))
        assert np.abs(lhs - rhs).max() < 1e-10


class TestApplyAndDuality:
    def test_dual_of_unit_gives_effect(self):
        scheme = build_extremal_model()
        inst = scheme_to_instrument(scheme)
        for x, op in enumerate(inst.operations):
            e = apply_dual(op, np.eye(4))
            assert np.abs(e - inst.induced_observable().effects[x]).max() < 1e-10

    def test_ideality_center_state(self):
        _, inst = build_ideality_example()
        mid = np.zeros((3, 3), dtype=complex)
        mid[1, 1] = 1.0
        for op in inst.operations:
            assert np.abs(apply(op, mid) - np.eye(3) / 6).max() < 1e-12

    def test_duality_hundred_triples(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for seed in range(25):
            inst = random_instrument(3, 2, seed)
            for _ in range(2):
                a = rand_complex(rng, 3)
                rho = rand_complex(rng, 3)
                for op in inst.operations:
                    lhs = np.vdot(a, apply(op, rho))
                    rhs = np.vdot(apply_dual(op, a), rho)
                    worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-10


    def test_stack_matches_per_matrix_results(self):
        rng = np.random.default_rng(5)
        ch = random_channel(3, 2, 4, 7)  # dim_in 3, dim_out 2
        rhos = np.stack([rand_complex(rng, 3) for _ in range(5)])
        effects = np.stack([rand_complex(rng, 2) for _ in range(5)])
        got, got_dual = apply(ch, rhos), apply_dual(ch, effects)
        assert got.shape == (5, 2, 2) and got_dual.shape == (5, 3, 3)
        for i in range(5):
            assert np.abs(got[i] - apply(ch, rhos[i])).max() < 1e-13
            assert np.abs(got_dual[i] - apply_dual(ch, effects[i])).max() < 1e-13

    @pytest.mark.parametrize("offset", [None, -1, 0, 1])  # one operator, or a row block's count + offset
    @pytest.mark.parametrize("d_out, d_in", [(32, 32), (16, 32)])
    def test_blocked_sandwich_matches_the_per_operator_sum(self, d_out, d_in, offset):
        rng = np.random.default_rng(d_out + (offset or 5))
        count = 1 if offset is None else BLOCK_ENTRIES // (d_out * d_in) + offset
        ks = rng.standard_normal((count, d_out, d_in)) + 1j * rng.standard_normal((count, d_out, d_in))
        ks /= np.sqrt(np.linalg.norm(np.einsum("kji,kjl->il", ks.conj(), ks), 2))  # sum K^dag K <= 1
        op = Operation(ks)
        rho = rng.standard_normal((3, d_in, d_in)) + 1j * rng.standard_normal((3, d_in, d_in))
        a = rng.standard_normal((3, d_out, d_out)) + 1j * rng.standard_normal((3, d_out, d_out))
        for m, b in ((rho, a), (rho[0], a[0])):  # a non-Hermitian stack, then one operator
            assert np.abs(apply(op, m) - sum(k @ m @ dagger(k) for k in ks)).max() < 1e-12
            assert np.abs(apply_dual(op, b) - sum(dagger(k) @ b @ k for k in ks)).max() < 1e-12

    def test_stack_with_wrong_trailing_shape_is_rejected(self):
        ch = random_channel(3, 2, 4, 7)
        for bad in (np.zeros((5, 2, 2)), np.zeros((5, 3, 2)), np.zeros(9), np.zeros((2, 5, 3, 3))):
            with pytest.raises(DimensionMismatch):
                apply(ch, bad)
        with pytest.raises(DimensionMismatch):
            apply_dual(ch, np.zeros((5, 3, 3)))


class TestSchemeFactorization:
    def test_restriction_map_identity(self):
        rng = np.random.default_rng(21)
        xi = random_full_rank_state(2, 8)
        b = rand_complex(rng, 6)
        gamma = restriction_map(b, xi, 3)
        rho = rand_complex(rng, 3)
        lhs = np.trace(gamma @ rho)
        rhs = np.trace(b @ kron(rho, xi.matrix))
        assert abs(lhs - rhs) < 1e-10

    def test_dual_factorization_cross_check(self):
        schemes = [  # with the minimal Kraus count of each outcome
            (build_shift_scheme(3, (0.5, 0.3, 0.2)), [3, 3, 3]),
            (random_constrained_scheme(2, 2, 2, 0), [4, 4]),
            (random_constrained_scheme(3, 2, 2, 1), [9, 9]),
            (random_constrained_scheme(4, 3, 3, 2), [16, 16, 16]),
            (build_swap_scheme(random_full_rank_state(2, 3)), [2, 2]),
            (build_luders_scheme(random_povm(4, 3, 4, mode="completely-unsharp")), [1, 1, 1]),
            # Choi route over blocks of 128 interaction Kraus operators: 265 = 2 * 128 + 9
            (random_constrained_scheme(4, 4, 3, 5), [16, 16, 16]),
        ]
        assert len(schemes[-1][0].interaction.kraus) % (BLOCK_ENTRIES // 16 ** 2) == 9
        for scheme, counts in schemes:
            ds = scheme.system_dim
            inst = scheme_to_instrument(scheme)
            assert [len(op.kraus) for op in inst.operations] == counts
            for x, op in enumerate(inst.operations):
                direct = scheme_dual_superoperator(scheme, x)
                assert np.abs(direct - op.dual_superoperator).max() < 1e-10
                # minimal Kraus count: the rank of the oracle's Choi matrix
                choi = dagger(direct).reshape(ds, ds, ds, ds).transpose(0, 2, 1, 3).reshape(ds * ds, -1)
                assert len(op.kraus) == len(kraus_from_choi(choi, ds, ds))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), dims=st.sampled_from(((2, 2), (3, 2), (2, 3))),
           extra=st.integers(0, 3))
    def test_kraus_mixing_and_outcome_relabelling(self, seed, dims, extra):
        ds, da = dims
        scheme = random_constrained_scheme(ds, da, 3, seed)
        rng = np.random.default_rng(seed)
        ks = np.array(scheme.interaction.kraus)
        isometry = random_unitary(len(ks) + extra, rng)[:, :len(ks)]
        mixed = Channel(tuple(np.tensordot(isometry, ks, axes=(1, 0))))
        perm = rng.permutation(len(scheme.pointer))
        pointer = Observable(tuple(scheme.pointer.effects[p] for p in perm),
                             tuple(scheme.outcomes[p] for p in perm))
        other = MeasurementScheme(ds, scheme.ancilla, mixed, pointer)
        base = dict(zip(scheme.outcomes, scheme_to_instrument(scheme).operations))
        for label, op in zip(other.outcomes, scheme_to_instrument(other).operations):
            assert superop_distance(op, base[label]) < 1e-10
            assert len(op.kraus) == len(base[label].kraus)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), kind=st.sampled_from(("random", "luders", "swap")),
           dims=st.sampled_from(((2, 2), (3, 2), (2, 3))))
    def test_ancilla_basis_change(self, seed, kind, dims):
        ds, n = dims
        scheme = {
            "random": lambda: random_constrained_scheme(ds, n, 3, seed),
            "luders": lambda: build_luders_scheme(random_povm(ds, n, seed, mode="completely-unsharp")),
            "swap": lambda: build_swap_scheme(random_full_rank_state(2, seed)),
        }[kind]()
        v = random_unitary(scheme.ancilla_dim, np.random.default_rng(seed))
        lifted = kron(np.eye(scheme.system_dim), v)  # 1 (x) V on system (x) ancilla
        rotated = MeasurementScheme(
            scheme.system_dim,
            State(v @ scheme.ancilla.matrix @ dagger(v)),
            Channel(lifted @ scheme.interaction.kraus @ dagger(lifted)),
            Observable(v @ scheme.pointer.effects @ dagger(v), scheme.outcomes),
        )
        pairs = zip(scheme_to_instrument(scheme).operations, scheme_to_instrument(rotated).operations)
        for op, turned in pairs:
            assert superop_distance(op, turned) <= 1e-12
            assert len(op.kraus) == len(turned.kraus)
        assert check_scheme_thirdlaw(rotated).constrained == check_scheme_thirdlaw(scheme).constrained


class TestFidelity:
    def test_identical_states(self):
        rho = random_full_rank_state(3, 0)
        assert abs(fidelity(rho, rho) - 1.0) < 1e-10

    def test_orthogonal_pure(self):
        assert fidelity(State.pure([1, 0]), State.pure([0, 1])) < 1e-10

    def test_pure_overlap(self):
        plus = State.pure(np.array([1.0, 1.0]) / np.sqrt(2))
        zero = State.pure([1.0, 0.0])
        assert abs(fidelity(plus, zero) - 0.5) < 1e-10
