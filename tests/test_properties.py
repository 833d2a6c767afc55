import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmeas.classify import classify
from qmeas.core import (
    BLOCK_ENTRIES,
    Instrument,
    Observable,
    Operation,
    State,
    kraus_from_choi,
    kraus_from_rows,
    luders_instrument,
    scheme_to_instrument,
)
from qmeas.errors import SchemeMismatch
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
    check_extremal,
    check_extremal_scheme_identity,
    check_first_kind,
    check_ideal,
    check_non_disturbance,
    check_repeatable,
    evaluate_properties,
    theorem_predicates,
)


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

    # "remainder": 23^2 + 10^2 = 629 products of d = 8 against row blocks of 512, full rank 64;
    # "repeated": d = 16, outcome 1 repeats outcome 0's operators scaled, so 100 of the
    # 100 + 100 + 36 = 236 products (row blocks of 128) coincide up to scale: rank 136
    @pytest.mark.parametrize("case, d, count, rank", [("remainder", 8, 629, 64), ("repeated", 16, 236, 136)])
    def test_row_block_reduction_keeps_the_rank_of_the_products(self, case, d, count, rank):
        if case == "remainder":
            ks = random_channel(d, d, 33, 3).kraus
            families = (ks[:23], ks[23:])
        else:
            ks = random_channel(d, d, 16, 3).kraus
            families = (np.sqrt(0.3) * ks[:10], np.sqrt(0.7) * ks[:10], ks[10:])
        res = check_extremal(Instrument(tuple(Operation(f) for f in families)))
        minimal = [kraus_from_rows(f.reshape(len(f), -1), d, d) for f in families]
        products = np.concatenate([np.einsum("aji,bjk->abik", f.conj(), f).reshape(len(f) ** 2, -1)
                                   for f in minimal])
        assert len(products) == res.product_count == count
        assert count % (BLOCK_ENTRIES // d ** 2) != 0
        assert res.gram_rank == numerical_rank(products) == rank
        assert not res.extremal

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

    def test_dimension_mismatch_rejected(self):
        scheme = build_extremal_model()
        other = luders_instrument(pointer_observable(3))
        with pytest.raises(SchemeMismatch):
            check_extremal_scheme_identity(scheme, other)


class TestTheoremPredicates:
    def test_sharp_rank_one(self):
        c = classify(pointer_observable(2))
        p = theorem_predicates(c, 2)
        assert tuple(p.verdicts[row] for row in THEOREM_ROWS) == (
            "impossible", "impossible", "impossible", "impossible", "impossible"
        )

    def test_completely_unsharp_pair(self):
        obs = completely_unsharp_pair()
        p = theorem_predicates(classify(obs), 2)
        assert p.verdicts["non_disturbance"] == "possible"
        assert p.verdicts["first_kind"] == "possible"
        assert p.verdicts["repeatable"] == "impossible"
        assert p.verdicts["ideal"] == "impossible"
        assert p.verdicts["extremal"] == "possible"

    def test_degenerate_sharp(self):
        effects = tuple(
            np.kron(np.eye(2), np.outer(e, e)).astype(complex) for e in np.eye(2)
        )
        p = theorem_predicates(classify(Observable(effects)), 4)
        assert p.verdicts["non_disturbance"] == "impossible"
        assert p.verdicts["extremal"] == "possible"
        assert p.witnesses["extremal"] == "extremal-two-qubit"

    def test_possible_verdicts_name_a_catalog_entry_that_claims_them(self):
        possible = 0
        for mode in (None, "sharp", "norm1-unsharp", "completely-unsharp", "small-rank"):
            for d in (2, 3, 4):
                for n in (2, 3):
                    if n >= d and mode in ("sharp", "norm1-unsharp"):
                        continue
                    for seed in range(3):
                        p = theorem_predicates(classify(random_povm(d, n, seed, mode)), d)
                        rows = {row for row, v in p.verdicts.items() if v == POSSIBLE}
                        assert set(p.witnesses) == rows
                        for row in rows:
                            expected = CATALOG[p.witnesses[row]].expected
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

    @settings(max_examples=200, deadline=None)
    @given(family=st.sampled_from(("luders", "shift", "swap", "random")),
           d=st.integers(2, 3), n=st.integers(2, 3), seed=st.integers(0, 2 ** 31 - 1))
    def test_found_properties_are_not_impossible(self, family, d, n, seed):
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
        report = evaluate_properties(inst)
        found = {"first_kind": report.first_kind, "repeatable": report.repeatable,
                 "ideal": report.ideal == IDEAL_TRUE, "extremal": report.extremal.extremal}
        verdicts = theorem_predicates(classify(inst.induced_observable()), inst.dim).verdicts
        for row, holds in found.items():
            assert not (holds and verdicts[row] == IMPOSSIBLE), (row, family)
