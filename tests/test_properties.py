import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    kraus_from_choi,
    kraus_from_rows,
    luders_instrument,
    scheme_to_instrument,
)
from qmeas.errors import QmeasError, SchemeMismatch
from qmeas.linalg import Tolerances, numerical_rank
from qmeas.thirdlaw import check_scheme_thirdlaw
from qmeas.models import (
    CATALOG,
    build_extremal_model,
    build_ideality_example,
    build_luders_scheme,
    build_nondisturbance_example,
    build_shift_scheme,
    build_swap_scheme,
    completely_unsharp_pair,
    extremal_instrument,
    pointer_observable,
    random_channel,
    random_constrained_scheme,
    random_full_rank_state,
    random_instrument,
    random_povm,
    random_unitary,
    shift_observable,
    trivial_instrument,
)
from qmeas.properties import (
    IDEAL_NOT_APPLICABLE,
    IDEAL_TRUE,
    IMPOSSIBLE,
    POSSIBLE,
    THEOREM_ROWS,
    Cell,
    check_extremal,
    check_extremal_scheme_identity,
    check_first_kind,
    check_ideal,
    check_non_disturbance,
    check_repeatable,
    decide,
    evaluate_properties,
    theorem_predicates,
)


def _products(families) -> np.ndarray:
    """Rows vec(K_a^dag K_b) of every family, all at once: the reference for check_extremal."""
    return np.concatenate([np.einsum("aji,bjk->abik", f.conj(), f).reshape(len(f) ** 2, -1)
                           for f in families])


def _minimal(instrument) -> list[np.ndarray]:
    return [kraus_from_rows(op.kraus.reshape(len(op.kraus), -1), op.dim_out, op.dim_in)
            for op in instrument.operations]


def _counting_qr(monkeypatch) -> list:
    """Record the shape of every np.linalg.qr input from here on."""
    calls, qr = [], np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return qr(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


class TestNonDisturbance:
    def test_two_qubit_example(self):
        first, second, inst = build_nondisturbance_example()
        assert check_non_disturbance(inst, second)
        induced = inst.induced_observable()
        for got, want in zip(induced.effects, first.effects):
            assert np.abs(got - want).max() < 1e-10

    def test_example_observables_do_not_commute(self):
        first, second, _ = build_nondisturbance_example()
        comm = first.effects[0] @ second.effects[0] - second.effects[0] @ first.effects[0]
        assert np.abs(comm).max() > 0.1

    def test_luders_preserves_commuting_partner(self):
        obs = completely_unsharp_pair()
        partner = shift_observable(2, (0.8, 0.2))
        assert check_non_disturbance(luders_instrument(obs), partner)

    def test_trivial_instrument_disturbs(self):
        obs = shift_observable(2, (0.8, 0.2))
        inst = trivial_instrument(obs)
        assert not check_non_disturbance(inst, obs)

    def test_norm1_readout_leaves_a_commuting_observable_undisturbed(self):
        # the swap scheme measures the sharp, norm-1 observable 1 (x) |x><x|; every
        # |a><a| (x) 1 commutes with it and stays undisturbed, though E itself does not
        inst = scheme_to_instrument(build_swap_scheme(State.diagonal([0.7, 0.3])))
        first_factor = Observable(tuple(np.kron(p, np.eye(2)) for p in pointer_observable(2).effects))
        assert check_non_disturbance(inst, first_factor)
        assert not check_first_kind(inst)


class TestFirstKind:
    def test_shift_scheme(self):
        inst = scheme_to_instrument(build_shift_scheme(3, (0.5, 0.3, 0.2)))
        assert check_first_kind(inst)

    def test_luders_of_commutative_unsharp(self):
        assert check_first_kind(luders_instrument(completely_unsharp_pair()))

    def test_trivial_not_first_kind(self):
        assert not check_first_kind(trivial_instrument(shift_observable(2, (0.8, 0.2))))


class TestRepeatable:
    def test_sharp_luders(self):
        assert check_repeatable(luders_instrument(pointer_observable(3)))

    def test_unsharp_luders_not_repeatable(self):
        assert not check_repeatable(luders_instrument(completely_unsharp_pair()))

    def test_norm1_measure_and_prepare(self):
        obs, _ = build_ideality_example()
        outputs = (State.pure([1.0, 0.0, 0.0]), State.pure([0.0, 0.0, 1.0]))
        inst = trivial_instrument(obs, outputs)
        assert check_repeatable(inst)
        assert check_first_kind(inst)


class TestIdeal:
    def test_qutrit_example(self):
        obs, inst = build_ideality_example()
        assert check_ideal(inst) == IDEAL_TRUE
        assert not check_repeatable(inst)

    def test_luders_of_norm1(self):
        obs, _ = build_ideality_example()
        assert check_ideal(luders_instrument(obs)) == IDEAL_TRUE

    def test_luders_of_sharp_with_complex_eigenvectors(self):
        for seed in range(3):
            inst = luders_instrument(random_povm(3, 2, seed, mode="sharp"))
            assert check_ideal(inst) == IDEAL_TRUE

    def test_unsharp_has_no_certain_states(self):
        inst = luders_instrument(completely_unsharp_pair())
        assert check_ideal(inst) == IDEAL_NOT_APPLICABLE

    def test_applicable_exactly_when_classify_says_norm1(self):
        # norms 1 + 5e-4 and 1 lie within atol_equality = 1e-3 of the unit interval
        tol = Tolerances(atol_equality=1e-3)
        obs = Observable((np.diag([1 + 5e-4, 0.0]), np.diag([-5e-4, 1.0])), tol=tol)
        assert classify(obs, tol).is_norm1
        assert check_ideal(luders_instrument(obs, tol), tol) != IDEAL_NOT_APPLICABLE


class TestExtremal:
    def test_two_qubit_model(self):
        res = check_extremal(extremal_instrument())
        assert res.extremal
        assert res.kraus_ranks == (2, 2)
        assert res.gram_rank == 8
        assert res.product_count == 8

    def test_unsharp_luders_extremal(self):
        res = check_extremal(luders_instrument(completely_unsharp_pair()))
        assert res.extremal
        assert res.kraus_ranks == (1, 1)

    def test_trivial_not_extremal(self):
        obs = shift_observable(2, (0.6, 0.4))
        assert not check_extremal(trivial_instrument(obs)).extremal

    def test_products_take_the_adjoint_of_complex_kraus_operators(self):
        # K_x = |s_x><x| with s_x = (1, +-i)/sqrt(2): K_x^dag K_x = |x><x| are independent,
        # while the transposes would give K_x^T K_x = (s_x^T s_x) |x><x| = 0
        outputs = (State.pure([1.0, 1.0j]), State.pure([1.0, -1.0j]))
        res = check_extremal(trivial_instrument(pointer_observable(2), outputs))
        assert res.extremal
        assert res.gram_rank == 2

    # Kraus counts 1-2 against D = 4, 9 or 16, mixed into up to 18 operators
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), which=st.integers(0, 3), extra=st.integers(0, 16))
    def test_invariant_under_kraus_mixing(self, seed, which, extra):
        instrument = (random_instrument(2, 2, seed), random_instrument(3, 2, seed), extremal_instrument(),
                      luders_instrument(random_povm(2, 2, seed, mode="completely-unsharp")))[which]
        rng = np.random.default_rng(seed)
        mixed = []
        for op in instrument.operations:
            ks = np.array(op.kraus)
            isometry = random_unitary(len(ks) + extra, rng)[:, :len(ks)]
            mixed.append(Operation(tuple(np.tensordot(isometry, ks, axes=(1, 0)))))
        base, other = check_extremal(instrument), check_extremal(Instrument(tuple(mixed)))
        assert (other.extremal, other.kraus_ranks, other.gram_rank) == \
            (base.extremal, base.kraus_ranks, base.gram_rank)

    # "remainder": 23^2 + 10^2 = 629 products of d = 8, the first family's 23 a's in row blocks
    # of 22 and 1, full rank 64;
    # "repeated": d = 16, outcome 1 repeats outcome 0's operators scaled, so 100 of the
    # 100 + 100 + 36 = 236 products (row blocks of 128) coincide up to scale: rank 136
    # qr_calls: the remainder's first block already spans M_8, so the fold stops there; the
    # repeated products never reach d^2 = 256 rows, so all three blocks are folded
    @pytest.mark.parametrize("case, d, count, rank, qr_calls",
                             [("remainder", 8, 629, 64, 1), ("repeated", 16, 236, 136, 3)])
    def test_row_block_reduction_keeps_the_rank_of_the_products(self, case, d, count, rank, qr_calls,
                                                                monkeypatch):
        if case == "remainder":
            ks = random_channel(d, d, 33, 3).kraus
            families = (ks[:23], ks[23:])
        else:
            ks = random_channel(d, d, 16, 3).kraus
            families = (np.sqrt(0.3) * ks[:10], np.sqrt(0.7) * ks[:10], ks[10:])
        instrument = Instrument(tuple(Operation(f) for f in families))
        calls = _counting_qr(monkeypatch)
        res = check_extremal(instrument)
        assert len(calls) == qr_calls
        products = _products(_minimal(instrument))
        assert len(products) == res.product_count == count
        assert count % (BLOCK_ENTRIES // d ** 2) != 0
        assert res.gram_rank == numerical_rank(products) == rank
        assert not res.extremal

    # d = 14, one outcome of 13 Kraus operators: 169 independent products, made as row blocks
    # of 12 a's and 1; d = 6, two outcomes of 36: 2592 products in blocks of 25 a's and 11
    @pytest.mark.parametrize("d, count, extremal", [(14, 169, True), (6, 2592, False)])
    def test_blockwise_products_give_the_result_of_all_products_at_once(self, d, count, extremal):
        ks = random_channel(d, d, 13 if d == 14 else 72, 5).kraus
        families = (ks,) if d == 14 else (ks[:36], ks[36:])
        res = check_extremal(Instrument(tuple(Operation(f) for f in families)))
        products = _products(families)
        per_block = BLOCK_ENTRIES // (len(families[0]) * d * d)  # a's of the first family per block
        assert products.size > BLOCK_ENTRIES and len(families[0]) % per_block != 0
        rank = numerical_rank(products)
        assert (res.extremal, res.kraus_ranks, res.gram_rank, res.product_count) == \
            (rank == count, tuple(len(f) for f in families), rank, count)
        assert res.extremal is extremal

    def test_products_are_reduced_one_row_block_at_a_time(self):
        # the shape of the benchmark's largest random scheme: 2 x 64^2 = 8192 products of 8 x 8;
        # made at once, they and their temporaries peaked at 16.9 MB
        instrument = scheme_to_instrument(random_constrained_scheme(8, 4, 2, 0))
        tracemalloc.start()
        try:
            res = check_extremal(instrument)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.product_count == 8192 and not res.extremal
        assert peak < 4e6

    def test_the_fold_stops_once_the_first_block_spans_every_operator(self, monkeypatch):
        # the benchmark's largest random scheme: 16 row blocks of 512 products, the first of which
        # already spans M_8 with smallest singular value 0.065, far above the cut at W = 8
        instrument = scheme_to_instrument(random_constrained_scheme(8, 4, 2, 0))
        calls = _counting_qr(monkeypatch)
        res = check_extremal(instrument)
        assert calls == [(512, 64)]
        assert res.gram_rank == numerical_rank(_products(_minimal(instrument))) == 64
        assert (res.product_count, res.extremal) == (8192, False)

    def test_a_certified_full_span_takes_no_second_svd(self, monkeypatch):
        # the fold's SVD of R certifies rank d^2; beside it only kraus_from_rows' one stacked SVD
        # per Kraus count
        instrument = scheme_to_instrument(random_constrained_scheme(8, 4, 2, 0))
        svd, calls = np.linalg.svd, []

        def recorded_svd(a, *args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return svd(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", recorded_svd)
        res = check_extremal(instrument)
        assert calls == [True] * len({len(op.kraus) for op in instrument.operations}) + [False]
        assert (res.gram_rank, res.product_count, res.extremal) == (64, 8192, False)

    def test_the_fold_stops_at_the_block_that_completes_the_span(self, monkeypatch):
        # d = 8: four outcomes of diagonal Kraus operators (64 products each, spanning only the
        # 8 diagonal units), one generic outcome of 8 operators whose 64 products span M_8, and four
        # more diagonal outcomes: nine row blocks, R has 64 rows from the first block on, and the
        # span is complete after the fifth
        d, rng = 8, np.random.default_rng(19)
        diagonal = [np.sqrt(0.1) * np.stack([np.diag(row) for row in random_unitary(d, rng)])
                    for _ in range(8)]
        generic = np.sqrt(0.2) * random_channel(d, d, d, 19).kraus
        instrument = Instrument(tuple(Operation(f) for f in diagonal[:4] + [generic] + diagonal[4:]))
        assert numerical_rank(_products(_minimal(instrument)[:4])) == d
        calls = _counting_qr(monkeypatch)
        res = check_extremal(instrument)
        assert len(calls) == 5
        assert res.gram_rank == numerical_rank(_products(_minimal(instrument))) == d * d
        assert (res.product_count, res.extremal) == (9 * 64, False)

    def test_the_stop_cuts_at_the_bound_on_all_products_not_at_the_prefix(self, monkeypatch):
        # d = 8.  Outcome 0, K_j = c |0><j|, has the 64 products c^2 |j><k|: they span M_8 with
        # every singular value c^2 = 1.6 rank_threshold, above the cut at their own largest one
        # (1 rank_threshold) but below the cut at W = 8.  Outcome 1, sqrt(0.9) 1, adds the
        # product 0.9 1 of norm 2.5, and seven outcomes of diagonal operators add diagonal
        # products only.  So all products have rank 8: the off-diagonal units sit below their cut.
        d, rng, c2 = 8, np.random.default_rng(23), 1.6e-8
        first = np.sqrt(c2) * np.stack([np.outer(np.eye(d)[0], np.eye(d)[j]) for j in range(d)])
        q = (0.1 - c2) / 7
        diagonal = [np.sqrt(q) * np.stack([np.diag(row) for row in random_unitary(d, rng)])
                    for _ in range(7)]
        instrument = Instrument(tuple(Operation(f) for f in [first, np.sqrt(0.9) * np.eye(d)[None]]
                                      + diagonal))
        minimal = _minimal(instrument)
        assert numerical_rank(_products(minimal[:1])) == d * d
        calls = _counting_qr(monkeypatch)
        res = check_extremal(instrument)
        assert len(calls) == 9
        assert res.gram_rank == numerical_rank(_products(minimal)) == d
        assert (res.product_count, res.extremal) == (64 + 1 + 7 * 64, False)

    def test_families_of_one_kraus_count_are_reduced_in_one_stacked_svd(self, monkeypatch):
        # Kraus counts 2, 3, 2, 3, 1 on a qutrit: one SVD per count, then the products' SVD
        families = np.split(random_channel(3, 3, 11, 7).kraus, [2, 5, 7, 10])
        instrument = Instrument(tuple(Operation(f) for f in families))
        minimal, svd, shapes = _minimal(instrument), np.linalg.svd, []

        def recorded_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", recorded_svd)
        res = check_extremal(instrument)
        assert sorted(shapes[:3]) == [(1, 1, 9), (2, 2, 9), (2, 3, 9)] and shapes[3:] == [(27, 9)]
        assert res.kraus_ranks == tuple(len(f) for f in minimal) == (2, 3, 2, 3, 1)
        assert res.gram_rank == numerical_rank(_products(minimal)) == 9 and not res.extremal

    def test_a_family_cut_to_no_operator_has_kraus_rank_0(self):
        # outcome 0, sqrt(5e-9) 1 on a qubit, has weight 1e-8, at the rank cut: no product is left
        eye = np.eye(2)
        res = check_extremal(Instrument.from_kraus([[np.sqrt(5e-9) * eye], [np.sqrt(1 - 5e-9) * eye]]))
        assert (res.extremal, res.kraus_ranks, res.gram_rank, res.product_count) == (True, (0, 1), 1, 1)
        # 300 outcomes of weight 2/300, every one at or below the cut 9e-3: no product at all
        tol = Tolerances(rank_threshold=9e-3)
        res = check_extremal(Instrument.from_kraus([[np.sqrt(1 / 300) * eye]] * 300, tol=tol), tol)
        assert (res.extremal, res.kraus_ranks, res.gram_rank, res.product_count) == (True, (0,) * 300, 0, 0)

    # W = sum_x |f_x|_F^2 bounds the largest singular value of all products, which the stop needs
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), d=st.integers(2, 4), m=st.integers(1, 12),
           n=st.integers(1, 4))
    def test_total_weight_bounds_every_singular_value_of_the_products(self, seed, d, m, n):
        cuts = np.sort(np.random.default_rng(seed).integers(0, m + 1, n - 1))
        parts = [f for f in np.split(random_channel(d, d, m, seed).kraus, cuts) if len(f)]
        families = _minimal(Instrument(tuple(Operation(f) for f in parts)))
        w = sum(np.vdot(f, f).real for f in families)
        assert np.linalg.svd(_products(families), compute_uv=False)[0] <= w * (1 + 1e-12)

    def test_minimal_kraus_drops_redundancy(self):
        obs = pointer_observable(2)
        p0 = obs.effects[0].astype(complex)
        # same operation written with a split Kraus family
        op_related = luders_instrument(obs).operations[0]
        fam = kraus_from_choi(op_related.choi, 2, 2)
        assert len(fam) == 1
        assert np.abs(fam[0] @ fam[0].conj().T - p0).max() < 1e-10


class TestSchemeIdentity:
    def test_extremal_model_satisfies_identity(self):
        scheme = build_extremal_model()
        inst = scheme_to_instrument(scheme)
        assert check_extremal_scheme_identity(scheme, inst)

    def test_measure_and_prepare_fails_identity(self):
        scheme = build_swap_scheme(State(np.diag([0.7, 0.3]).astype(complex)))
        inst = scheme_to_instrument(scheme)
        assert not check_extremal_scheme_identity(scheme, inst)

    def test_mismatched_instrument_rejected(self):
        scheme = build_extremal_model()
        other = luders_instrument(
            scheme_to_instrument(scheme).induced_observable()
        )
        with pytest.raises(SchemeMismatch):
            check_extremal_scheme_identity(scheme, other)

    def test_residuals_are_cut_at_atol_equality(self):
        scheme = build_extremal_model()
        inst = scheme_to_instrument(scheme)
        h = np.zeros((inst.dim, inst.dim))
        h[0, 1] = h[1, 0] = 1e-8
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(1j * w)) @ v.conj().T  # exp(i h): the claimed instrument moves by about 1e-8
        claimed = Instrument(tuple(Operation(u @ op.kraus) for op in inst.operations))
        with pytest.raises(SchemeMismatch):  # implemented within atol_equality * dim
            check_extremal_scheme_identity(scheme, claimed)
        assert not check_extremal_scheme_identity(scheme, claimed, Tolerances(atol_equality=3e-9))
        assert check_extremal_scheme_identity(scheme, claimed, Tolerances(atol_equality=1e-8))

    def test_dimension_mismatch_rejected(self):
        scheme = build_extremal_model()
        other = luders_instrument(pointer_observable(3))
        with pytest.raises(SchemeMismatch):
            check_extremal_scheme_identity(scheme, other)


class TestTheoremPredicates:
    def test_sharp_rank_one(self):
        c = classify(pointer_observable(2))
        p = theorem_predicates(c, 2)
        assert tuple(p[row].verdict for row in THEOREM_ROWS) == (
            "impossible", "impossible", "impossible", "impossible", "impossible"
        )

    def test_completely_unsharp_pair(self):
        obs = completely_unsharp_pair()
        p = theorem_predicates(classify(obs), 2)
        assert p["non_disturbance"].verdict == "possible"
        assert p["first_kind"].verdict == "possible"
        assert p["repeatable"].verdict == "impossible"
        assert p["ideal"].verdict == "impossible"
        assert p["extremal"].verdict == "possible"

    def test_degenerate_sharp(self):
        effects = tuple(
            np.kron(np.eye(2), np.outer(e, e)).astype(complex) for e in np.eye(2)
        )
        p = theorem_predicates(classify(Observable(effects)), 4)
        assert p["non_disturbance"].verdict == "impossible"
        assert p["extremal"].verdict == "possible"
        assert p["extremal"].witness == "extremal-two-qubit"

    def test_more_outcomes_than_dim_squared_exclude_extremality(self):
        # every outcome gives a product K^dag K, and more than d^2 of them are dependent
        for d in (2, 3):
            for n in (2, 3, 5, 10):
                for seed in range(3):
                    c = classify(random_povm(d, n, seed, "completely-unsharp"))
                    p = theorem_predicates(c, d)
                    first_kind = "possible" if c.is_commutative else "impossible"
                    assert tuple(p[row].verdict for row in THEOREM_ROWS[:4]) == (
                        "possible", first_kind, "impossible", "impossible"), (d, n, seed)
                    if n > d ** 2:
                        assert p["extremal"] == Cell(IMPOSSIBLE, "more outcomes than dim^2: "
                                                                 "extremality needs n <= d^2")
                    else:
                        assert p["extremal"].verdict == POSSIBLE, (d, n, seed)

    def test_possible_verdicts_name_a_catalog_entry_that_claims_them(self):
        possible = 0
        for mode in (None, "sharp", "norm1-unsharp", "completely-unsharp", "small-rank"):
            for d in (2, 3, 4):
                for n in (2, 3):
                    if n >= d and mode in ("sharp", "norm1-unsharp"):
                        continue
                    for seed in range(3):
                        p = theorem_predicates(classify(random_povm(d, n, seed, mode)), d)
                        rows = {row for row, cell in p.items() if cell.verdict == POSSIBLE}
                        assert {row for row, cell in p.items() if cell.witness is not None} == rows
                        for row in rows:
                            expected = CATALOG[p[row].witness].expected
                            assert expected.get("constrained") is True
                            assert expected.get(row) is True
                        possible += len(rows)
        assert possible


class TestInvariants:
    def test_repeatable_implies_first_kind(self):
        hits = 0
        for seed in range(120):
            inst = random_instrument(2 + seed % 2, 2, seed)
            if check_repeatable(inst):
                hits += 1
                assert check_first_kind(inst)
        obs, _ = build_ideality_example()
        outputs = (State.pure([1.0, 0.0, 0.0]), State.pure([0.0, 0.0, 1.0]))
        assert check_repeatable(trivial_instrument(obs, outputs))
        assert check_first_kind(trivial_instrument(obs, outputs))

    def test_first_kind_is_self_nondisturbance(self):
        for seed in range(40):
            inst = random_instrument(2, 2, seed)
            assert check_first_kind(inst) == check_non_disturbance(
                inst, inst.induced_observable()
            )

    def test_rank_bound_met_with_equality_on_model(self):
        inst = extremal_instrument()
        obs = inst.induced_observable()
        dim = inst.dim
        for e in obs.effects:
            assert np.linalg.matrix_rank(e) ** 2 == dim

    def test_report_bundles_checks(self):
        inst = luders_instrument(completely_unsharp_pair())
        report = evaluate_properties(inst, against=shift_observable(2, (0.8, 0.2)))
        assert report.first_kind
        assert not report.repeatable
        assert report.ideal == IDEAL_NOT_APPLICABLE
        assert report.extremal.extremal
        assert report.non_disturbance
        assert report.residuals["first_kind"] < 1e-10


class TestDecide:
    def test_unknown_row_is_an_error(self):
        inst = luders_instrument(completely_unsharp_pair())
        with pytest.raises(QmeasError, match="unknown property"):
            decide("firstkind", inst)  # a CLI verb, not a row name

    def test_non_disturbance_needs_an_observable(self):
        inst = luders_instrument(completely_unsharp_pair())
        with pytest.raises(QmeasError):
            decide("non_disturbance", inst)
        with pytest.raises(QmeasError):
            check_non_disturbance(inst, None)

    def test_each_verdict_is_the_one_the_report_gives(self):
        decided = 0
        for entry in CATALOG.values():
            objects = entry.build()
            for inst in (objects.get("instrument"), objects.get("scheme")):
                if inst is None:
                    continue
                if not isinstance(inst, Instrument):
                    inst = scheme_to_instrument(inst)
                against = objects.get("other", objects.get("observable", inst.induced_observable()))
                r = evaluate_properties(inst, against=against)
                reported = {"non_disturbance": r.non_disturbance, "first_kind": r.first_kind,
                            "repeatable": r.repeatable, "ideal": r.ideal == IDEAL_TRUE,
                            "extremal": r.extremal.extremal}
                assert {row: decide(row, inst, against=against)[0] for row in THEOREM_ROWS} == \
                    reported, entry.name
                decided += 1
        assert decided == 8  # every catalog instrument and scheme


def _verdicts(inst, against):
    r = evaluate_properties(inst, against=against)
    return (r.first_kind, r.repeatable, r.ideal, r.extremal.extremal, r.extremal.gram_rank,
            r.non_disturbance)


class TestSymmetries:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(("random", "luders", "trivial")),
           mode=st.sampled_from((None, "sharp", "norm1-unsharp", "completely-unsharp", "small-rank")),
           d=st.integers(2, 4), n=st.integers(2, 3), seed=st.integers(0, 2 ** 31 - 1))
    def test_verdicts_survive_unitary_conjugation_and_relabelling(self, kind, mode, d, n, seed):
        assume(n < d or mode not in ("sharp", "norm1-unsharp"))
        if kind == "random":
            inst = random_instrument(d, n, seed)
        else:
            obs = random_povm(d, n, seed, mode)
            inst = luders_instrument(obs) if kind == "luders" else trivial_instrument(obs)
        # the sharp observable of one eigenvector of E_0 commutes with E_0, so
        # binary Luders instruments leave it undisturbed and others need not
        _, v = np.linalg.eigh(inst.induced_observable().effects[0])
        p = np.outer(v[:, 0], v[:, 0].conj())
        against = Observable((p, np.eye(d) - p))
        want = _verdicts(inst, against)

        rng = np.random.default_rng(seed)
        u = random_unitary(d, rng)
        rotated = Instrument(
            tuple(Operation(tuple(u @ k @ u.conj().T for k in op.kraus)) for op in inst.operations),
            inst.outcomes)
        rotated_against = Observable(tuple(u @ f @ u.conj().T for f in against.effects))
        assert _verdicts(rotated, rotated_against) == want

        perm = rng.permutation(len(inst))
        relabelled = Instrument(tuple(inst.operations[x] for x in perm),
                                tuple(inst.outcomes[x] for x in perm))
        assert _verdicts(relabelled, against) == want


class TestFalsification:
    """No constrained scheme has a property the predicates rule out for its observable's class.

    Non-disturbance is left out until its row's quantifier is stated in code:
    swap schemes measure norm-1 observables yet leave some commuting F
    undisturbed, which contradicts only the "some F" reading.
    """

    # Luders schemes up to n = 10 outcomes reach n > d^2, where the counting bound excludes
    # extremality; the other families stay at n <= 3 to bound the run time
    @settings(max_examples=200, deadline=None)
    @given(family=st.sampled_from(("luders", "shift", "swap", "random")),
           d=st.integers(2, 3), data=st.data(), seed=st.integers(0, 2 ** 31 - 1))
    def test_found_properties_are_not_impossible(self, family, d, data, seed):
        n = data.draw(st.integers(2, 10 if family == "luders" else 3), label="n")
        rng = np.random.default_rng(seed)
        if family == "luders":
            scheme = build_luders_scheme(random_povm(d, n, seed, "completely-unsharp"))
        elif family == "shift":
            scheme = build_shift_scheme(n, 0.5 * rng.dirichlet(np.ones(n)) + 0.5 / n)
        elif family == "swap":
            scheme = build_swap_scheme(random_full_rank_state(d, seed))
        else:
            scheme = random_constrained_scheme(d, n, n, seed)
        assert check_scheme_thirdlaw(scheme).constrained
        inst = scheme_to_instrument(scheme)
        found = {row: decide(row, inst)[0] for row in THEOREM_ROWS if row != "non_disturbance"}
        cells = theorem_predicates(classify(inst.induced_observable()), inst.dim)
        for row, holds in found.items():
            assert not (holds and cells[row].verdict == IMPOSSIBLE), (row, family)


def _flip_scheme(lam: float, mu: float) -> MeasurementScheme:
    """flip(lam, mu): the ancilla diag(1 - lam, lam) records s, but its |1> branch writes s+1 (mod 2)
    with probability mu.  The exact instrument dephases the system, first kind for every lam, mu."""
    kraus = np.zeros((3, 2, 2, 2, 2))  # K[i][(s a), (t b)]
    for s in (0, 1):
        kraus[0, s, s, s, 0] = 1.0
        kraus[1, s, s, s, 1] = np.sqrt(1 - mu)
        kraus[2, s, 1 - s, s, 1] = np.sqrt(mu)
    return MeasurementScheme(2, State.diagonal([1 - lam, lam]), Channel(kraus.reshape(3, 4, 4)),
                             pointer_observable(2))


class TestFlipScheme:
    GRID = np.logspace(-9, -2, 8)

    def test_first_kind_at_every_weight(self):
        """A weight lam * mu below the rank cut is still part of the instrument: no verdict may
        change the exactly first-kind scheme into one that is not, and repeatable implies first
        kind (sum the repeatability identity over x)."""
        verdicts = {}
        for lam in self.GRID:
            for mu in self.GRID:
                inst = scheme_to_instrument(_flip_scheme(lam, mu))
                verdicts[lam, mu] = decide("first_kind", inst)[0], decide("repeatable", inst)[0]
        assert [key for key, (first, _) in verdicts.items() if not first] == []
        assert [key for key, (first, rep) in verdicts.items() if rep and not first] == []

    def test_the_exact_effects_are_built(self):
        lam = mu = 1e-5
        effects = scheme_to_instrument(_flip_scheme(lam, mu)).induced_observable().effects
        p = lam * mu
        assert np.abs(effects - np.array([np.diag([1 - p, p]), np.diag([p, 1 - p])])).max() < 1e-15
