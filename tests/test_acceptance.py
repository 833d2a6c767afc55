"""End-to-end acceptance checks, one test per shipped claim.

Each test prints a single pass/fail line before asserting, so the suite
log doubles as the verification report.  Tolerances are pinned where the
claims pin them; loosening one here is a contract change, not a tweak.
"""

import json

import numpy as np

from qmeas.algebra import commutant_residual, decompose, fixed_point_space
from qmeas.classify import classify
from qmeas.cli import main
from qmeas.core import (
    Channel,
    State,
    apply,
    apply_dual,
    kraus_from_choi,
    luders_instrument,
    scheme_to_instrument,
    superop_distance,
)
from qmeas.errors import InfeasibleDimensions
from qmeas.linalg import DEFAULT_TOL, hs_norm, numerical_rank
from qmeas.models import (
    build_extremal_model,
    build_luders_scheme,
    build_nondisturbance_example,
    build_shift_scheme,
    build_swap_scheme,
    completely_unsharp_pair,
    extremal_instrument,
    luders_interaction_channel,
    random_bistochastic_channel,
    random_channel,
    random_constrained_scheme,
    random_full_rank_state,
    random_instrument,
    random_low_rank_preparation,
    random_povm,
    random_state_of_rank,
)
from qmeas.properties import (
    check_extremal,
    check_extremal_scheme_identity,
    check_first_kind,
    check_ideal,
    check_non_disturbance,
    check_repeatable,
)
from qmeas.thirdlaw import (
    check_channel_thirdlaw,
    check_faithfulness,
    check_scheme_thirdlaw,
    full_rank_fixed_state,
    minimal_copy_count,
    purify_via_unconstrained,
)


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} [{status}] {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


EXPECTED_GRID = {
    "non_disturbance": ("x", "x", "x", "yes"),
    "first_kind": ("x", "x", "x", "yes"),
    "repeatable": ("x", "x", "x", "x"),
    "ideal": ("x", "x", "x", "x"),
    "extremal": ("x", "yes", "yes", "yes"),
}


def test_criterion_01_feasibility_table(capsys):
    code = main(["table1", "--json"])
    report = json.loads(capsys.readouterr().out)
    ok = code == 0 and report["match"] is True
    ok = ok and report["columns"] == ["small-rank", "sharp", "norm-1", "completely-unsharp"]
    for row, wants in EXPECTED_GRID.items():
        for column, want in zip(report["columns"], wants):
            cell = report["rows"][row][column]
            ok = ok and cell["verdict"] == want
            if want == "yes":
                ok = ok and cell.get("witness_verified") is True
            else:
                ok = ok and bool(cell.get("anchor"))
    _report(1, "five-property feasibility table with verified witnesses", ok)


def test_criterion_02_extremal_model():
    scheme = build_extremal_model()
    inst = extremal_instrument()
    obs = inst.induced_observable()
    dim = inst.dim

    induced_ok = all(
        np.abs(e - np.kron(np.eye(2), np.outer(v, v))).max() <= 1e-9
        for e, v in zip(obs.effects, np.eye(2))
    )
    res = check_extremal(inst)
    scheme_ok = check_scheme_thirdlaw(scheme).constrained
    rank_eq = all(numerical_rank(e) ** 2 == dim for e in obs.effects)
    identity_ok = check_extremal_scheme_identity(scheme, inst)
    ok = (induced_ok and res.kraus_ranks == (2, 2) and res.gram_rank == 8
          and res.extremal and scheme_ok and rank_eq and identity_ok)
    _report(2, "two-qubit extremal model: ranks, Gram rank 8, scheme identity", ok,
            f"gram_rank={res.gram_rank}")


def test_criterion_03_modular_scheme_construction():
    worst = 0.0
    ok = True
    for seed in range(50):
        dim = 2 + seed % 2
        outcomes = 2 if dim == 2 else 2 + seed % 2
        obs = random_povm(dim, outcomes, seed, mode="completely-unsharp")
        ok = ok and classify(obs).is_completely_unsharp
        scheme = build_luders_scheme(obs)
        ok = ok and check_scheme_thirdlaw(scheme).constrained
        induced = scheme_to_instrument(scheme)
        reference = luders_instrument(obs)
        dist = max(
            superop_distance(a, b)
            for a, b in zip(induced.operations, reference.operations)
        )
        worst = max(worst, dist)
        ok = ok and dist <= 1e-9

    modes = ("sharp", "norm1-unsharp", "small-rank")
    for seed in range(20):
        obs = random_povm(3, 2, seed, mode=modes[seed % 3])
        ch = luders_interaction_channel(obs)
        image = apply(ch, np.eye(ch.dim_in, dtype=complex) / ch.dim_in)
        ok = ok and numerical_rank(image) < ch.dim_out
    _report(3, "modular scheme: 50 unsharp constructions + 20 rank-drop witnesses", ok,
            f"worst instrument distance {worst:.2e}")


def test_criterion_04_equivalence_suite():
    disagreements = 0
    for seed in range(200):
        d = 2 + seed % 3
        fam = seed % 3
        if fam == 0:
            ch = random_bistochastic_channel(d, 2 + seed % 2, seed)
        elif fam == 1:
            ch = random_channel(d, d, 2 + seed % 3, seed)
        else:
            ch = random_low_rank_preparation(d, 1 + seed % (d - 1), seed)
        mixture_test = check_channel_thirdlaw(ch).constrained
        faithful = check_faithfulness(ch)
        fixed_full = full_rank_fixed_state(ch).is_full_rank
        if not (mixture_test == faithful == fixed_full):
            disagreements += 1
    _report(4, "rank test / faithfulness / fixed-state equivalences on 200 channels",
            disagreements == 0, f"{disagreements} disagreements")


def test_criterion_05_bistochastic_monotonicity():
    violations = 0
    for seed in range(100):
        d = 2 + seed % 3
        ch = random_bistochastic_channel(d, 2 + seed % 2, seed)
        for rank in range(1, d + 1):
            rho = random_state_of_rank(d, rank, seed * 10 + rank)
            if numerical_rank(apply(ch, rho.matrix)) < rank:
                violations += 1
    _report(5, "bistochastic rank monotonicity, 100 channels x all ranks",
            violations == 0, f"{violations} violations")


def test_criterion_06_fixed_point_decomposition():
    xi = State(np.diag([0.7, 0.3]).astype(complex))
    swap_inst = scheme_to_instrument(build_swap_scheme(xi))
    swap_space = fixed_point_space(swap_inst)
    swap_deco = decompose(swap_space, swap_inst)
    blocks = [(b.dim_k, b.dim_r) for b in swap_deco.blocks]
    omega_dist = hs_norm(swap_deco.blocks[0].omega.matrix - xi.matrix) if blocks == [(2, 2)] else np.inf
    ok = blocks == [(2, 2)] and omega_dist < 1e-8
    ok = ok and swap_deco.reconstruction_residual <= DEFAULT_TOL.atol_equality

    shift_inst = scheme_to_instrument(build_shift_scheme(3, (0.5, 0.3, 0.2)))
    shift_space = fixed_point_space(shift_inst)
    shift_deco = decompose(shift_space, shift_inst)
    ok = ok and sorted((b.dim_k, b.dim_r) for b in shift_deco.blocks) == [(1, 1)] * 3
    ok = ok and shift_deco.reconstruction_residual <= DEFAULT_TOL.atol_equality

    cu_inst = luders_instrument(completely_unsharp_pair())
    for inst, space in ((swap_inst, swap_space), (shift_inst, shift_space),
                        (cu_inst, fixed_point_space(cu_inst))):
        ok = ok and commutant_residual(space, inst.induced_observable()) < 1e-7
    _report(6, "factor decomposition: swap (2,2) block, shift singletons, F within E'",
            ok, f"omega distance {omega_dist:.2e}")


def test_criterion_07_impossibility_consistency():
    fixtures = [
        scheme_to_instrument(build_luders_scheme(completely_unsharp_pair())),
        scheme_to_instrument(build_shift_scheme(3, (0.5, 0.3, 0.2))),
        scheme_to_instrument(build_extremal_model()),
        scheme_to_instrument(build_swap_scheme(State(np.diag([0.7, 0.3]).astype(complex)))),
    ]
    instruments = fixtures + [
        scheme_to_instrument(random_constrained_scheme(2, 2, 2, seed))
        for seed in range(100)
    ]
    ok = True
    first_kind_hits = 0
    for inst in instruments:
        ok = ok and not check_repeatable(inst)
        ok = ok and check_ideal(inst) != "true"
        if check_first_kind(inst):
            first_kind_hits += 1
            c = classify(inst.induced_observable())
            ok = ok and c.is_commutative and c.is_completely_unsharp
    ok = ok and first_kind_hits >= 2  # the unsharp fixtures must keep their property
    _report(7, "constrained schemes: never repeatable/ideal; first-kind only if unsharp",
            ok, f"{first_kind_hits} first-kind instruments of {len(instruments)}")


def test_criterion_08_nondisturbance_example():
    first, second, inst = build_nondisturbance_example()
    total = inst.total_channel()
    residual = max(float(np.abs(apply_dual(total, f) - f).max()) for f in second.effects)
    comm = hs_norm(first.effects[0] @ second.effects[0] - second.effects[0] @ first.effects[0])
    ok = check_non_disturbance(inst, second) and residual < 1e-10 and comm > 0.1
    _report(8, "two-qubit non-disturbance model despite non-commuting pair", ok,
            f"residual {residual:.2e}, commutator {comm:.3f}")


def test_criterion_09_purification_protocol():
    rho0 = random_full_rank_state(2, 0)
    target = random_full_rank_state(2, 1)
    result = purify_via_unconstrained(rho0, State.pure([1.0, 0.0]), target)
    ok = result.copies == 1 and result.fidelity > 1.0 - 1e-9
    ok = ok and minimal_copy_count(1, 2, 2) == 1

    for r in (1, 2, 3):
        for n in (2, 3, 4):
            for m in (2, 3, 4):
                brute = next(
                    (d for d in range(1, 13) if (r ** d) * n <= m ** d), None
                )
                if brute is None:
                    try:
                        minimal_copy_count(r, n, m)
                        ok = False
                    except InfeasibleDimensions:
                        pass
                else:
                    ok = ok and minimal_copy_count(r, n, m) == brute
    _report(9, "pure-resource protocol at D=1 and minimal-copy search vs brute force",
            ok, f"fidelity {result.fidelity:.12f}")


def test_criterion_10_duality_and_round_trips():
    worst_pairing = 0.0
    rng = np.random.default_rng(7)
    ok = True
    for trial in range(100):
        d = 2 + trial % 2
        inst = random_instrument(d, 2, trial)
        rho = random_full_rank_state(d, trial + 500)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = 0.5 * (g + g.conj().T)
        for op in inst.operations:
            lhs = np.trace(a.conj().T @ apply(op, rho.matrix))
            rhs = np.trace(apply_dual(op, a).conj().T @ rho.matrix)
            worst_pairing = max(worst_pairing, abs(lhs - rhs))
    ok = ok and worst_pairing <= 1e-10

    worst_choi = 0.0
    for seed in range(20):
        ch = random_channel(2 + seed % 2, 2 + (seed + 1) % 2, 2 + seed % 3, seed)
        back = Channel(kraus_from_choi(ch.choi, ch.dim_out, ch.dim_in))
        worst_choi = max(worst_choi, superop_distance(back, ch))
    ok = ok and worst_choi < 1e-8
    _report(10, "Heisenberg pairing and Choi round trips", ok,
            f"pairing {worst_pairing:.2e}, choi {worst_choi:.2e}")
