import contextlib
import copy
import dataclasses
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qmeas
from qmeas import cli, modelfile, models
from qmeas.algebra import fixed_point_space
from qmeas.cli import CHECK_VERBS, EXIT_ERROR, EXIT_NO, EXIT_YES, main, run_check
from qmeas.core import Channel, Instrument, MeasurementScheme, Observable, Operation, State, luders_instrument
from qmeas.linalg import DEFAULT_TOL, TOL_FLOOR, Tolerances
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
    luders_interaction_channel,
    pointer_observable,
    random_constrained_channel,
    random_constrained_scheme,
    random_full_rank_state,
    random_low_rank_preparation,
    random_povm,
    table1_observables,
    trivial_instrument,
    trivial_swap_scheme,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestClassify:
    def test_unsharp_pair(self, tmp_path, capsys):
        path = tmp_path / "obs.json"
        modelfile.save(completely_unsharp_pair(), str(path))
        code, report, _ = run_json(capsys, "classify", str(path))
        assert code == EXIT_YES
        c = report["classification"]
        assert c["is_completely_unsharp"] and c["is_commutative"]
        assert not c["is_sharp"] and not c["is_norm1"]
        assert c["per_effect_ranks"] == [2, 2]

    def test_wrong_kind_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        modelfile.save(State.complete_mixture(2), str(path))
        code, _, err = run(capsys, "classify", str(path))
        assert code == EXIT_ERROR
        assert "error:" in err

    def test_missing_file_is_an_error(self, capsys):
        code, _, err = run(capsys, "classify", "no-such-file.json")
        assert code == EXIT_ERROR
        assert "error:" in err


class TestCheck:
    @pytest.mark.parametrize("ds, da", [(2, 2), (1, 3)], ids=["kraus rows", "choi"])
    def test_outcome_that_never_occurs_is_named(self, tmp_path, capsys, ds, da):
        # ancilla |0><0|, the identity interaction and a sharp pointer: outcome '1' has zero effect
        scheme = MeasurementScheme(ds, State.diagonal([1.0] + [0.0] * (da - 1)),
                                   Channel.identity(ds * da), pointer_observable(da))
        path = tmp_path / "scheme.json"
        modelfile.save(scheme, str(path))
        assert run(capsys, "check", "scheme-thirdlaw", str(path))[0] == EXIT_NO
        code, _, err = run(capsys, "check", "firstkind", str(path))
        assert code == EXIT_ERROR
        assert "outcome '1' never occurs: its induced effect is zero" in err

    def test_an_operation_above_one_is_named(self, tmp_path, capsys):
        # outcome 'up' has sum K^dag K = diag(1 + 1e-6, 0): the instrument's one stacked check
        # of its outcomes rejects it, as the operation's own check did
        kraus = ([np.sqrt(1 + 1e-6) * np.diag([1.0, 0.0])], [np.diag([0.0, 1.0])])
        doc = modelfile.encode(Instrument.from_kraus(kraus, ("up", "down"), Tolerances(atol_equality=1e-5)))
        path = tmp_path / "instrument.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", "repeatable", str(path))
        assert code == EXIT_ERROR
        assert "effect 'up' spectrum [0, 1.000001] leaves [0,1]" in err

    def test_channel_thirdlaw_yes(self, tmp_path, capsys):
        path = tmp_path / "ch.json"
        modelfile.save(random_constrained_channel(3, 1), str(path))
        code, report, _ = run_json(capsys, "check", "channel-thirdlaw", str(path))
        assert code == EXIT_YES
        assert report["constrained"] is True
        assert report["min_output_eigenvalue"] > 0

    def test_channel_thirdlaw_no(self, tmp_path, capsys):
        path = tmp_path / "prep.json"
        modelfile.save(random_low_rank_preparation(3, 1, 2), str(path))
        code, report, _ = run_json(capsys, "check", "channel-thirdlaw", str(path))
        assert code == EXIT_NO
        assert report["constrained"] is False

    def test_channel_thirdlaw_wrong_kind(self, tmp_path, capsys):
        path = tmp_path / "obs.json"
        modelfile.save(completely_unsharp_pair(), str(path))
        code, _, err = run(capsys, "check", "channel-thirdlaw", str(path))
        assert code == EXIT_ERROR

    def test_scheme_thirdlaw_yes_and_no(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        modelfile.save(build_extremal_model(), str(good))
        code, report, _ = run_json(capsys, "check", "scheme-thirdlaw", str(good))
        assert code == EXIT_YES and report["constrained"]

        bad = tmp_path / "bad.json"
        modelfile.save(
            trivial_swap_scheme(State.pure([1.0, 0.0]), pointer_observable(2)), str(bad)
        )
        code, report, _ = run_json(capsys, "check", "scheme-thirdlaw", str(bad))
        assert code == EXIT_NO and not report["constrained"]

    def test_nondisturbance_requires_against(self, tmp_path, capsys):
        _, _, inst = build_nondisturbance_example()
        path = tmp_path / "inst.json"
        modelfile.save(inst, str(path))
        code, _, err = run(capsys, "check", "nondisturbance", str(path))
        assert code == EXIT_ERROR
        assert "--against" in err

    def test_against_is_only_for_nondisturbance(self, tmp_path, capsys):
        spath, cpath = tmp_path / "scheme.json", tmp_path / "channel.json"
        modelfile.save(CATALOG["luders-unsharp-qubit"].build()["scheme"], str(spath))
        modelfile.save(CATALOG["rank-drop-qutrit"].build()["channel"], str(cpath))
        malformed = tmp_path / "malformed.json"
        malformed.write_text("{")
        for against in (cpath, malformed):
            code, out, err = run(capsys, "check", "firstkind", str(spath), "--against", str(against))
            assert (code, out) == (EXIT_ERROR, "")
            assert err == "error: --against is only for nondisturbance, not firstkind\n"

    def test_nondisturbance_yes(self, tmp_path, capsys):
        _, other, inst = build_nondisturbance_example()
        ipath, opath = tmp_path / "inst.json", tmp_path / "other.json"
        modelfile.save(inst, str(ipath))
        modelfile.save(other, str(opath))
        code, report, _ = run_json(
            capsys, "check", "nondisturbance", str(ipath), "--against", str(opath)
        )
        assert code == EXIT_YES
        assert report["residual"] < 1e-10

    def test_firstkind_accepts_scheme_file(self, tmp_path, capsys):
        path = tmp_path / "scheme.json"
        modelfile.save(build_shift_scheme(3, (0.5, 0.3, 0.2)), str(path))
        code, report, _ = run_json(capsys, "check", "firstkind", str(path))
        assert code == EXIT_YES
        assert report["first_kind"] is True

    def test_repeatable_no(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        modelfile.save(luders_instrument(completely_unsharp_pair()), str(path))
        code, report, _ = run_json(capsys, "check", "repeatable", str(path))
        assert code == EXIT_NO
        assert report["repeatable"] is False

    def test_ideal_yes_and_not_applicable(self, tmp_path, capsys):
        _, inst = build_ideality_example()
        path = tmp_path / "ideal.json"
        modelfile.save(inst, str(path))
        code, report, _ = run_json(capsys, "check", "ideal", str(path))
        assert code == EXIT_YES and report["ideal"] == "true"

        path2 = tmp_path / "cu.json"
        modelfile.save(luders_instrument(completely_unsharp_pair()), str(path2))
        code, report, _ = run_json(capsys, "check", "ideal", str(path2))
        assert code == EXIT_NO and report["ideal"] == "not_applicable"

    def test_ideal_residual_is_cut_at_atol_equality(self, tmp_path, capsys):
        # flip(1e-4, 1e-4): its sharp observable is neither repeatable nor first kind at the
        # default atol, so it cannot be ideal; its ideal residual is about 1e-8
        lam = mu = 1e-4
        ket = np.eye(4)  # |s, a> is ket[2 s + a]
        k0 = sum(np.outer(ket[3 * s], ket[2 * s]) for s in range(2))  # |s, s><s, 0|
        k1 = sum(np.outer(ket[3 * s], ket[2 * s + 1]) for s in range(2))  # |s, s><s, 1|
        k2 = sum(np.outer(ket[s + 1], ket[2 * s + 1]) for s in range(2))  # |s, s+1 mod 2><s, 1|
        interaction = Channel((k0, np.sqrt(1 - mu) * k1, np.sqrt(mu) * k2))
        scheme = MeasurementScheme(2, State.diagonal([1 - lam, lam]), interaction, pointer_observable(2))
        assert run_check("ideal", scheme, DEFAULT_TOL) == (False, {"ideal": "false"})
        path = tmp_path / "flip.json"
        modelfile.save(scheme, str(path))
        code, report, _ = run_json(capsys, "check", "ideal", str(path), "--tol-atol", "1e-8")
        assert code == EXIT_YES and report["ideal"] == "true"

    def test_extremal_reports_ranks(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        modelfile.save(extremal_instrument(), str(path))
        code, report, _ = run_json(capsys, "check", "extremal", str(path))
        assert code == EXIT_YES
        assert report["extremal"] is True
        assert report["kraus_ranks"] == [2, 2]
        assert report["gram_rank"] == 8 == report["product_count"]

    def test_tol_rank_reaches_the_kraus_reduction(self, tmp_path, capsys):
        # Kraus rows 1 and 1e-3 Z: a second Kraus operator only above the cut 1e-4
        eps = 1e-3
        op = Operation((np.sqrt(1 - eps ** 2) * np.eye(2), eps * np.diag([1.0, -1.0])))
        path = tmp_path / "inst.json"
        modelfile.save(Instrument((op,)), str(path))
        code, report, _ = run_json(capsys, "check", "extremal", str(path))
        assert code == EXIT_NO and report["kraus_ranks"] == [2]
        code, report, _ = run_json(capsys, "check", "extremal", str(path), "--tol-rank", "1e-4")
        assert code == EXIT_YES and report["kraus_ranks"] == [1]

    def test_an_outcome_cut_to_no_kraus_operator_gets_a_verdict(self, tmp_path, capsys):
        # outcome 0, sqrt(5e-9) 1 on a qubit, has weight 1e-8, at the rank cut
        path = tmp_path / "inst.json"
        modelfile.save(Instrument.from_kraus([[np.sqrt(5e-9) * np.eye(2)], [np.sqrt(1 - 5e-9) * np.eye(2)]]),
                       str(path))
        code, report, _ = run_json(capsys, "check", "extremal", str(path))
        assert code == EXIT_YES and report["kraus_ranks"] == [0, 1] and report["product_count"] == 1

    @pytest.mark.parametrize("verb", ["firstkind", "nondisturbance"])
    def test_invariance_verbs_build_one_total_channel(self, tmp_path, capsys, monkeypatch, verb):
        calls = []
        total_channel = Instrument.total_channel

        def counted(instrument):
            calls.append(instrument)
            return total_channel(instrument)

        monkeypatch.setattr(Instrument, "total_channel", counted)
        ipath, opath = tmp_path / "inst.json", tmp_path / "obs.json"
        modelfile.save(luders_instrument(completely_unsharp_pair()), str(ipath))
        modelfile.save(completely_unsharp_pair(), str(opath))
        against = ["--against", str(opath)] if verb == "nondisturbance" else []
        code, report, _ = run_json(capsys, "check", verb, str(ipath), *against)
        assert code == EXIT_YES and report["residual"] < 1e-10
        assert len(calls) == 1

    # the report of each property verb: the echo, then the verdict's key and the fields behind it
    @pytest.mark.parametrize("verb, keys", [
        ("nondisturbance", ["non_disturbance", "residual"]),
        ("firstkind", ["first_kind", "residual"]),
        ("repeatable", ["repeatable"]),
        ("ideal", ["ideal"]),
        ("extremal", ["extremal", "kraus_ranks", "gram_rank", "product_count"]),
    ])
    def test_property_report_keys_and_their_order(self, tmp_path, capsys, verb, keys):
        built = CATALOG["luders-unsharp-qubit"].build()
        spath, opath = tmp_path / "scheme.json", tmp_path / "obs.json"
        modelfile.save(built["scheme"], str(spath))
        modelfile.save(built["observable"], str(opath))
        against = ["--against", str(opath)] if verb == "nondisturbance" else []
        code, report, _ = run_json(capsys, "check", verb, str(spath), *against)
        assert code in (EXIT_YES, EXIT_NO)
        assert list(report) == ["command", "tolerances", "seed", *keys]

    def test_catalog_claims_are_facts_a_check_decides(self):
        built = CATALOG["luders-unsharp-qubit"].build()
        decided = set()
        for verb in CHECK_VERBS:
            obj = Channel.identity(2) if verb == "channel-thirdlaw" else built["scheme"]
            _, fields = run_check(verb, obj, DEFAULT_TOL, built["observable"])
            decided.add(next(iter(fields)))  # the verdict's key leads each report
        allowed = decided | {"commutator_norm_min", "gram_rank", "block_dims"}
        for entry in CATALOG.values():
            assert set(entry.expected) <= allowed, entry.name


class TestTable1:
    def test_json_reproduces_expected_grid(self, capsys):
        code, report, _ = run_json(capsys, "table1")
        assert code == EXIT_YES
        assert report["match"] is True
        expected = {
            "non_disturbance": ("x", "x", "x", "yes"),
            "first_kind": ("x", "x", "x", "yes"),
            "repeatable": ("x", "x", "x", "x"),
            "ideal": ("x", "x", "x", "x"),
            "extremal": ("x", "yes", "yes", "yes"),
        }
        assert report["columns"] == ["small-rank", "sharp", "norm-1", "completely-unsharp"]
        for row, wants in expected.items():
            for column, want in zip(report["columns"], wants):
                cell = report["rows"][row][column]
                assert cell["verdict"] == want, (row, column)
                if want == "yes":
                    assert cell["witness_verified"] is True
                    assert cell["witness"] in CATALOG
                else:
                    assert cell["anchor"]

    def test_witness_must_claim_its_row(self, capsys, monkeypatch):
        entry = CATALOG["luders-unsharp-qubit"]
        expected = {k: v for k, v in entry.expected.items() if k != "first_kind"}
        monkeypatch.setitem(CATALOG, entry.name, dataclasses.replace(entry, expected=expected))
        code, report, _ = run_json(capsys, "table1")
        assert code == EXIT_NO and report["match"] is False
        cells = report["rows"]
        assert cells["first_kind"]["completely-unsharp"]["witness_verified"] is False
        assert cells["extremal"]["completely-unsharp"]["witness_verified"] is True

    def test_witness_must_measure_the_columns_class(self, capsys, monkeypatch):
        # name the completely unsharp Luders witness for every extremal cell: it is
        # constrained, extremal and claims both, but measures no sharp or norm-1 observable
        theorem_predicates = cli.theorem_predicates

        def predicates(c, dim):
            p = theorem_predicates(c, dim)
            if p["extremal"].witness is not None:
                p["extremal"] = dataclasses.replace(p["extremal"], witness="luders-unsharp-qubit")
            return p

        monkeypatch.setattr(cli, "theorem_predicates", predicates)
        code, report, _ = run_json(capsys, "table1")
        assert code == EXIT_NO and report["match"] is False
        cells = report["rows"]["extremal"]
        assert cells["sharp"]["witness_verified"] is False
        assert cells["norm-1"]["witness_verified"] is False
        assert cells["completely-unsharp"]["witness_verified"] is True

    def test_each_witness_is_built_and_decided_once(self, capsys, monkeypatch):
        calls = {"scheme_to_instrument": 0, "check_scheme_thirdlaw": 0}
        for fn in calls:
            def counted(*args, _fn=getattr(cli, fn), _name=fn):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(cli, fn, counted)
        code, report, _ = run_json(capsys, "table1")
        assert code == EXIT_YES
        witnesses = {cell["witness"] for cells in report["rows"].values()
                     for cell in cells.values() if "witness" in cell}
        assert len(witnesses) == 2
        assert calls == {"scheme_to_instrument": 2, "check_scheme_thirdlaw": 2}

    def test_representatives_validate_four_objects(self, monkeypatch):
        # one validated Observable per column: no discarded ideality instrument, one pointer
        built = built_objects(monkeypatch)
        reps = table1_observables(USER_TOL)
        assert built == [("Observable", USER_TOL)] * 4
        pointer = pointer_observable(2).effects
        expected = {
            "small-rank": (pointer, ("0", "1")),
            "sharp": (np.kron(np.eye(2), pointer), ("0", "1")),  # 1 (x) |x><x|
            "norm-1": (np.array([np.diag([1.0, 0.5, 0.0]), np.diag([0.0, 0.5, 1.0])]), ("minus", "plus")),
            "completely-unsharp": (np.array([np.diag([0.75, 0.25]), np.diag([0.25, 0.75])]), ("0", "1")),
        }
        assert list(reps) == list(expected)
        for column, (effects, outcomes) in expected.items():
            assert np.array_equal(reps[column].effects, effects) and reps[column].outcomes == outcomes, column
        assert np.array_equal(reps["norm-1"].effects, build_ideality_example()[0].effects)

    def test_human_rendering(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == EXIT_YES
        assert "match: True" in out
        assert "completely-unsharp" in out


class TestDemos:
    def test_purify(self, capsys):
        code, report, _ = run_json(capsys, "demo", "purify")
        assert code == EXIT_YES
        assert report["copies"] == 1
        assert report["fidelity"] > 1.0 - 1e-9

    def test_luders_scheme(self, capsys):
        code, report, _ = run_json(capsys, "demo", "luders-scheme")
        assert code == EXIT_YES
        assert report["constrained"] is True
        assert report["instrument_residual"] < 1e-9

    def test_luders_scheme_residual_is_cut_at_atol_equality(self, capsys, monkeypatch):
        def rotated(obs, tol):  # exp(i h) after each Luders operation: about 1e-8 away
            h = np.zeros((obs.dim, obs.dim))
            h[0, 1] = h[1, 0] = 1e-8
            w, v = np.linalg.eigh(h)
            u = (v * np.exp(1j * w)) @ v.conj().T
            return Instrument(tuple(Operation(u @ op.kraus) for op in luders_instrument(obs, tol).operations))
        monkeypatch.setattr(models, "luders_instrument", rotated)
        code, report, _ = run_json(capsys, "demo", "luders-scheme")
        assert code == EXIT_NO
        assert 1e-9 < report["instrument_residual"] < 1e-7
        code, report, _ = run_json(capsys, "demo", "luders-scheme", "--tol-atol", "1e-7")
        assert code == EXIT_YES
        assert report["tolerances"]["atol_equality"] == 1e-7

    def test_decompose(self, capsys):
        code, report, _ = run_json(capsys, "demo", "decompose")
        assert code == EXIT_YES
        assert report["blocks"] == [[2, 2]]
        assert report["omega_matches_ancilla"] is True
        assert report["reconstruction_residual"] <= report["tolerances"]["atol_equality"]

    def test_decompose_reports_the_fixed_point_space_dimension(self, capsys, monkeypatch):
        # the dimension of the span of fixed points, not that of the Hilbert space they act on
        instruments, real = [], cli.fixed_point_space
        monkeypatch.setattr(cli, "fixed_point_space", lambda inst, tol: instruments.append(inst) or real(inst, tol))
        code, report, _ = run_json(capsys, "demo", "decompose")
        assert code == EXIT_YES
        assert report["fixed_space_dim"] == len(fixed_point_space(instruments[0]))


class TestGen:
    def test_list(self, capsys):
        code, report, _ = run_json(capsys, "gen", "--list")
        assert code == EXIT_YES
        assert len(report["catalog"]) == 7
        assert "extremal-two-qubit" in report["catalog"]

    def test_export_and_reload(self, tmp_path, capsys):
        code, report, _ = run_json(
            capsys, "gen", "luders-unsharp-qubit", "--out", str(tmp_path)
        )
        assert code == EXIT_YES
        assert len(report["written"]) == 3
        for path in report["written"]:
            obj = modelfile.load(path)
            assert obj is not None
        obs_path = tmp_path / "luders-unsharp-qubit.observable.json"
        code, rep, _ = run_json(capsys, "classify", str(obs_path))
        assert code == EXIT_YES
        assert rep["classification"]["is_completely_unsharp"]

    def test_unknown_entry(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "nope", "--out", str(tmp_path))
        assert code == EXIT_ERROR
        assert "use --list" in err

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_files_do_not_depend_on_the_tolerances(self, tmp_path, capsys, monkeypatch, name):
        """gen builds at the command's tolerances, which only gate: every written byte is the same."""
        monkeypatch.delenv("QMEAS_TOL_ATOL", raising=False)
        files = []
        for flags in ((), USER_TOL_FLAGS, ("--tol-atol", repr(TOL_FLOOR), "--tol-rank", repr(TOL_FLOOR))):
            out = tmp_path / str(len(files))
            code, _, err = run_json(capsys, "gen", name, "--out", str(out), *flags)
            assert code == EXIT_YES, (flags, err)
            files.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert files[0] and files[1] == files[0] and files[2] == files[0]


class TestPlumbing:
    def test_bad_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_ERROR
        capsys.readouterr()

    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_ERROR
        capsys.readouterr()

    def test_env_tolerance_is_echoed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QMEAS_TOL_ATOL", "0.001")
        path = tmp_path / "obs.json"
        modelfile.save(completely_unsharp_pair(), str(path))
        code, report, _ = run_json(capsys, "classify", str(path))
        assert code == EXIT_YES
        assert report["tolerances"]["atol_equality"] == 0.001

    def test_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QMEAS_TOL_ATOL", "0.001")
        path = tmp_path / "obs.json"
        modelfile.save(completely_unsharp_pair(), str(path))
        code, report, _ = run_json(
            capsys, "classify", str(path), "--tol-atol", "1e-9"
        )
        assert code == EXIT_YES
        assert report["tolerances"]["atol_equality"] == 1e-9

    def test_every_tolerance_is_echoed_and_settable(self, tmp_path, capsys):
        path = tmp_path / "obs.json"
        modelfile.save(completely_unsharp_pair(), str(path))
        _, report, _ = run_json(capsys, "classify", str(path))
        names = [f.name for f in dataclasses.fields(Tolerances)]
        assert list(report["tolerances"]) == names
        _, usage, _ = run(capsys, "classify", "--help")
        flags = sorted(set(re.findall(r"--tol-[a-z]+", usage)))
        echoed = {flag: run_json(capsys, "classify", str(path), flag, "0.005")[1]["tolerances"]
                  for flag in flags}
        for name in names:
            assert any(tol[name] == 0.005 for tol in echoed.values()), f"no --tol-* flag sets {name}"

    def test_nan_kraus_entry_is_an_input_error(self, tmp_path, capsys):
        doc = modelfile.encode(random_constrained_channel(2, 0))
        doc["kraus"][0][0][0] = [float("nan"), 0.0]
        path = tmp_path / "ch.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", "channel-thirdlaw", str(path))
        assert code == EXIT_ERROR
        assert "nan" in err

    def test_channel_without_kraus_is_an_input_error(self, tmp_path, capsys):
        doc = modelfile.encode(random_constrained_channel(2, 0))
        del doc["kraus"]
        path = tmp_path / "ch.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", "channel-thirdlaw", str(path))
        assert code == EXIT_ERROR
        assert "'kraus'" in err

    def test_non_list_kraus_is_an_input_error(self, tmp_path, capsys):
        doc = modelfile.encode(random_constrained_channel(2, 0))
        doc["kraus"] = 5
        path = tmp_path / "ch.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", "channel-thirdlaw", str(path))
        assert code == EXIT_ERROR
        assert "'kraus'" in err

    def test_non_integer_choi_dims_is_an_input_error(self, tmp_path, capsys):
        channel = random_constrained_channel(2, 0)
        doc = modelfile.encode(channel)
        del doc["kraus"]
        doc["choi"] = [[[z.real, z.imag] for z in row] for row in channel.choi]
        doc["dims"] = ["a", "b"]
        path = tmp_path / "ch.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", "channel-thirdlaw", str(path))
        assert code == EXIT_ERROR
        assert "dims" in err

    def test_zero_size_kraus_operator_is_an_input_error(self, tmp_path, capsys):
        channel_doc = modelfile.encode(random_constrained_channel(2, 0))
        channel_doc["kraus"] = [[[]]]
        instrument_doc = modelfile.encode(luders_instrument(completely_unsharp_pair()))
        instrument_doc["operations"][0] = [[[]]]
        for verb, doc in (("channel-thirdlaw", channel_doc), ("firstkind", instrument_doc)):
            path = tmp_path / f"{verb}.json"
            path.write_text(json.dumps(doc))
            code, _, err = run(capsys, "check", verb, str(path))
            assert code == EXIT_ERROR
            assert "empty" in err

    def test_boolean_system_dim_is_an_input_error(self, tmp_path, capsys):
        # with a one-dimensional system, true (== 1) would fit the interaction
        scheme = MeasurementScheme(1, State.complete_mixture(2), Channel.identity(2), pointer_observable(2))
        doc = modelfile.encode(scheme)
        doc["system_dim"] = True
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(doc))
        for verb in ("scheme-thirdlaw", "firstkind"):
            code, _, err = run(capsys, "check", verb, str(path))
            assert code == EXIT_ERROR
            assert "'system_dim'" in err

    def test_choi_payload_reduced_past_atol_gives_a_verdict(self, tmp_path, capsys):
        # the measure-and-prepare channel onto diag(1 - 5e-9, 5e-9): its Choi matrix has
        # eigenvalues 5e-9 below the rank cut, so the reduced Kraus family misses the identity
        # by 5e-9, more than atol_equality; the Choi matrix itself meets it exactly
        doc = {"schema_version": "1", "kind": "channel", "choi": None, "dims": [2, 2]}
        choi = np.kron(np.diag([1 - 5e-9, 5e-9]), np.eye(2))
        path = tmp_path / "ch.json"
        for scale, codes in ((1.0, (EXIT_YES, EXIT_NO)), (1 + 1e-7, (EXIT_ERROR,))):
            doc["choi"] = [[[z.real, z.imag] for z in row] for row in scale * choi]
            path.write_text(json.dumps(doc))
            code, _, err = run(capsys, "check", "channel-thirdlaw", str(path))
            assert code in codes, (scale, err)

    def test_boolean_choi_dims_is_an_input_error(self, tmp_path, capsys):
        doc = {"schema_version": "1", "kind": "channel", "choi": [[[1.0, 0.0]]], "dims": [True, True]}
        path = tmp_path / "ch.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", "channel-thirdlaw", str(path))
        assert code == EXIT_ERROR
        assert "dims" in err

    def test_boolean_matrix_entry_is_an_input_error(self, tmp_path, capsys):
        # [true, false] would otherwise read as 1 + 0j, and pointer_observable(2) has a 1 there
        doc = modelfile.encode(pointer_observable(2))
        doc["effects"][0][0][0] = [True, False]
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "classify", str(path))
        assert code == EXIT_ERROR
        assert "true and false" in err

    def test_huge_integer_matrix_entry_is_an_input_error(self, tmp_path, capsys):
        # an integer too large for a float64 is an input error, not a crash
        text = modelfile.dumps(pointer_observable(2)).replace("1.0", "9" * 401, 1)
        path = tmp_path / "obs.json"
        path.write_text(text)
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out) == (EXIT_ERROR, "")
        assert "malformed matrix entry" in err and "OverflowError" not in err

    def test_boolean_outcome_labels_are_an_input_error(self, tmp_path, capsys):
        for obj, verb in ((pointer_observable(2), "classify"),
                          (luders_instrument(completely_unsharp_pair()), "firstkind")):
            doc = modelfile.encode(obj)
            doc["outcomes"] = [True, False]
            path = tmp_path / f"{verb}.json"
            path.write_text(json.dumps(doc))
            argv = ["classify", str(path)] if verb == "classify" else ["check", verb, str(path)]
            code, _, err = run(capsys, *argv)
            assert code == EXIT_ERROR
            assert "outcome labels" in err

    def test_tol_atol_reaches_loaded_files(self, tmp_path, capsys):
        doc = modelfile.encode(random_constrained_channel(2, 0))
        scale = 1 + 3.5e-6  # sum K^dag K = scale^2 * 1, about 7e-6 off the identity
        doc["kraus"] = [[[[re * scale, im * scale] for re, im in row] for row in k]
                        for k in doc["kraus"]]
        path = tmp_path / "ch.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", "channel-thirdlaw", str(path))
        assert code == EXIT_ERROR
        assert "deviates from identity" in err
        code, _, _ = run(capsys, "check", "channel-thirdlaw", str(path), "--tol-atol", "1e-3")
        assert code == EXIT_YES

    @pytest.mark.parametrize("flag, field", [("--tol-atol", "atol_equality"), ("--tol-rank", "rank_threshold")])
    def test_tolerance_below_the_floor_is_an_input_error(self, capsys, flag, field):
        # 1e-15 lies below the floor of 64 eps
        code, _, err = run(capsys, "demo", "purify", "--seed", "5", flag, "1e-15")
        assert code == EXIT_ERROR
        assert field in err

    @pytest.mark.parametrize("argv", [["demo", "purify"], ["demo", "decompose"], ["demo", "luders-scheme"],
                                      ["table1"], ["gen", "--list"], ["classify", "obs.json"],
                                      ["check", "extremal", "scheme.json"]])
    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_a_seed_below_zero_is_an_input_error_naming_the_flag(self, capsys, argv, seed):
        # refused where it is parsed, before any file is read: numpy's generators take seeds >= 0 only
        code, out, err = run(capsys, *argv, "--seed", seed)
        assert code == EXIT_ERROR and out == ""
        assert "argument --seed" in err and "integer >= 0" in err

    def test_choi_eigenvalue_is_cut_at_minus_atol(self, tmp_path, capsys):
        # the identity channel's Choi matrix |00>+|11> plus delta (|11><11| - |01><01|), whose partial
        # trace over the output is still the identity: its smallest eigenvalue is -delta
        phi = np.array([1.0, 0.0, 0.0, 1.0])
        path = tmp_path / "ch.json"
        for delta, want in ((3e-10, EXIT_YES), (3e-9, EXIT_ERROR)):
            choi = np.outer(phi, phi) + delta * np.diag([0.0, -1.0, 0.0, 1.0])
            path.write_text(json.dumps({"schema_version": modelfile.SCHEMA_VERSION, "kind": "channel",
                                        "dims": [2, 2], "choi": [[[z, 0.0] for z in row] for row in choi]}))
            code, _, err = run(capsys, "check", "channel-thirdlaw", str(path))
            assert code == want, err
        assert "Choi eigenvalue -3.000e-09" in err

    def test_malformed_env_tolerance_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QMEAS_TOL_ATOL", "abc")
        path = tmp_path / "obs.json"
        modelfile.save(completely_unsharp_pair(), str(path))
        code, _, err = run(capsys, "classify", str(path))
        assert code == EXIT_ERROR
        assert "QMEAS_TOL_ATOL" in err

    def test_command_echo_is_the_argv_given(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "scheme.json"
        modelfile.save(build_shift_scheme(3, (0.5, 0.3, 0.2)), str(path))
        argv = ["check", "firstkind", str(path), "--json"]
        for host in (["pytest", "-q", "tests/whatever"], ["pytest"]):
            monkeypatch.setattr(sys, "argv", host)
            assert main(argv) == EXIT_YES
            assert json.loads(capsys.readouterr().out)["command"] == " ".join(argv)
        monkeypatch.setattr(sys, "argv", ["qmeas", *argv])
        assert main() == EXIT_YES
        assert json.loads(capsys.readouterr().out)["command"] == " ".join(argv)

    def test_reused_parser_matches_a_fresh_process(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("QMEAS_TOL_ATOL", raising=False)
        ipath, opath = tmp_path / "inst.json", tmp_path / "obs.json"
        modelfile.save(luders_instrument(completely_unsharp_pair()), str(ipath))
        modelfile.save(completely_unsharp_pair(), str(opath))
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qmeas.__file__))}
        for argv in (["check", "nondisturbance", str(ipath), "--against", str(opath)],
                     ["check", "firstkind", str(ipath)],
                     ["table1", "--human"]):
            fresh = subprocess.run([sys.executable, "-m", "qmeas.cli", *argv],
                                   capture_output=True, text=True, env=env, timeout=120)
            assert run(capsys, *argv)[:2] == (fresh.returncode, fresh.stdout), argv

    def test_unexpected_exception_is_an_error_not_a_no(self, tmp_path, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "run_check", crash)
        path = tmp_path / "ch.json"
        modelfile.save(random_constrained_channel(3, 1), str(path))
        code, out, err = run(capsys, "check", "channel-thirdlaw", str(path))
        assert code == EXIT_ERROR
        assert out == ""
        assert err == "error: LinAlgError: SVD did not converge\n"


USER_TOL = Tolerances(atol_equality=1e-7, rank_threshold=1e-6)
USER_TOL_FLAGS = ("--tol-atol", "1e-7", "--tol-rank", "1e-6")
PROPERTY_VERBS = [verb for verb in CHECK_VERBS if not verb.endswith("thirdlaw")]


def built_objects(monkeypatch):
    """Wrap the validated constructors' __post_init__; the list records each object's class name and tol."""
    built = []
    for cls in (State, Observable, Operation, Channel, Instrument):
        def recorded(self, _post_init=cls.__post_init__):
            built.append((type(self).__name__, self.tol))
            _post_init(self)
        monkeypatch.setattr(cls, "__post_init__", recorded)
    return built


@pytest.fixture(scope="module")
def catalog_commands(tmp_path_factory):
    """Every check and classify command on the catalog files: classify each observable, check each channel
    and scheme by its third-law verb, and each scheme and instrument by every property verb, against the
    entry's observable.  A state file (the swap ancilla) has no command of its own."""
    out, commands = tmp_path_factory.mktemp("catalog"), []
    for name, entry in sorted(CATALOG.items()):
        objects = entry.build()
        paths = {key: str(out / f"{name}.{key}.json") for key in objects}
        for key, obj in objects.items():
            modelfile.save(obj, paths[key])
        against = paths.get("other", paths.get("observable"))
        for key, obj in objects.items():
            if isinstance(obj, Observable):
                commands.append(["classify", paths[key]])
            if isinstance(obj, (Channel, MeasurementScheme)):
                verb = "channel-thirdlaw" if isinstance(obj, Channel) else "scheme-thirdlaw"
                commands.append(["check", verb, paths[key]])
            if isinstance(obj, (MeasurementScheme, Instrument)):
                for verb in PROPERTY_VERBS:
                    if verb != "nondisturbance":
                        commands.append(["check", verb, paths[key]])
                    elif against:
                        commands.append(["check", verb, paths[key], "--against", against])
    return commands


class TestUserTolerancesReachEveryObject:
    """Each State, Observable, Operation, Channel and Instrument that a command builds carries the user's
    Tolerances: those loaded from files, those built on the command line and those derived from either."""

    def test_check_and_classify_on_every_catalog_file(self, capsys, monkeypatch, catalog_commands):
        assert len(catalog_commands) == 50  # 6 classify, 5 third-law checks, 39 property checks
        built = built_objects(monkeypatch)
        for argv in catalog_commands:
            code, _, err = run(capsys, *argv, *USER_TOL_FLAGS)
            assert code in (EXIT_YES, EXIT_NO), (argv, err)
            assert built and {tol for _, tol in built} == {USER_TOL}, (argv, built)
            built.clear()

    @pytest.mark.parametrize("argv", [["table1"], ["demo", "purify"], ["demo", "luders-scheme"],
                                      ["demo", "decompose"]])
    def test_table1_and_each_demo(self, capsys, monkeypatch, argv):
        built = built_objects(monkeypatch)
        code, _, err = run(capsys, *argv, *USER_TOL_FLAGS)
        assert code == EXIT_YES, err
        assert [name for name, tol in built if tol != USER_TOL] == []


# each catalog entry and builder called at one Tolerances record: given it, when the builder takes
# no model object, else given a model object built at it
BUILDERS = {
    **{f"CATALOG[{name}]": entry.build for name, entry in CATALOG.items()},
    "pointer_observable": lambda tol: pointer_observable(3, tol),
    "table1_observables": table1_observables,
    "random_full_rank_state": lambda tol: random_full_rank_state(3, 7, tol),
    "State factories": lambda tol: (State.complete_mixture(2, tol), State.pure([1.0, 1.0], tol),
                                    State.diagonal([0.7, 0.3], tol)),
    "Channel.unitary": lambda tol: Channel.unitary(np.eye(2), tol),
    "build_luders_scheme": lambda tol: build_luders_scheme(completely_unsharp_pair(tol)),
    "luders_interaction_channel": lambda tol: luders_interaction_channel(completely_unsharp_pair(tol)),
    "build_swap_scheme": lambda tol: build_swap_scheme(State.diagonal([0.7, 0.3], tol)),
    "build_extremal_model": lambda tol: build_extremal_model(State.diagonal([0.6, 0.4], tol)),
    "trivial_instrument": lambda tol: trivial_instrument(pointer_observable(2, tol)),
    "trivial_swap_scheme": lambda tol: trivial_swap_scheme(State.diagonal([0.7, 0.3], tol),
                                                          pointer_observable(2, tol)),
}


class TestBuildersCarryOneTolerance:
    """The library side of the rule above: a builder that takes a model object builds every object at that
    object's Tolerances, and one that takes none builds every object at the Tolerances it is given."""

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_builder(self, monkeypatch, name):
        built = built_objects(monkeypatch)
        BUILDERS[name](USER_TOL)
        assert built and {tol for _, tol in built} == {USER_TOL}, built


# one-field corruptions: wrong JSON types, an empty list, an empty row (alone
# and as a one-matrix list), true, NaN, a broken sub-document and a valid
# sub-document of the wrong kind
CORRUPTIONS = (5, "x", None, {}, [], [[]], [[[]]], True, float("nan"),
               {"schema_version": "1", "kind": "state"}, modelfile.encode(State.complete_mixture(2)))

FUZZ_COMMANDS = {
    "state": (["classify"],),
    "observable": (["classify"],),
    "channel": (["check", "channel-thirdlaw"],),
    "scheme": (["check", "scheme-thirdlaw"], ["check", "firstkind"], ["check", "extremal"]),
    "instrument": (["check", "firstkind"], ["check", "repeatable"], ["check", "ideal"],
                   ["check", "extremal"]),
}

CATALOG_DOCUMENTS = {
    f"{name}.{key}": modelfile.encode(obj)
    for name, entry in CATALOG.items()
    for key, obj in entry.build().items()
}


class TestExitContractFuzz:
    @pytest.mark.parametrize("stem", sorted(CATALOG_DOCUMENTS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_corrupted_field_exits_cleanly(self, tmp_path_factory, stem, data):
        """main never raises, and exits 2 whenever the corrupted file does not load."""
        doc = copy.deepcopy(CATALOG_DOCUMENTS[stem])
        kind = doc["kind"]
        node, key = doc, data.draw(st.sampled_from(sorted(doc)))
        while isinstance(node[key], (dict, list)) and node[key] and data.draw(st.booleans()):
            node = node[key]
            key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node[key] = copy.deepcopy(data.draw(st.sampled_from(CORRUPTIONS)))
        text = json.dumps(doc)
        try:
            modelfile.loads(text)
            loads = True
        except Exception:
            loads = False
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(text)
        for command in FUZZ_COMMANDS[kind]:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([*command, str(path), "--json"])
            assert code in (EXIT_YES, EXIT_NO, EXIT_ERROR)
            assert loads or code == EXIT_ERROR, (command, text[:300])


# schemes whose ancilla is replaced; seeded where the family has a free draw
SMALL_ANCILLA_FAMILIES = {
    "luders": lambda seed: build_luders_scheme(random_povm(2, 3, seed, mode="completely-unsharp")),
    "swap": lambda seed: trivial_swap_scheme(State.complete_mixture(2 + seed % 2),
                                             pointer_observable(2 + seed % 2)),
    "shift": lambda seed: build_shift_scheme(3, (0.5, 0.3, 0.2)),
    "random": lambda seed: random_constrained_scheme(2, 3, 2, seed),
}

DEFAULT_RANK_CUT = DEFAULT_TOL.rank_threshold  # rank_cut of a state's eigenvalues, all at most 1


class TestReductionsKeepTheExitContract:
    """A valid scheme whose ancilla has eigenvalues near the rank cut gets a verdict from every check
    verb: the Kraus reductions drop those eigenvalues, and must not then reject their own instrument."""

    @settings(max_examples=25, deadline=None)
    @given(family=st.sampled_from(sorted(SMALL_ANCILLA_FAMILIES)), seed=st.integers(0, 2 ** 31 - 1),
           small=st.lists(st.floats(np.log10(DEFAULT_TOL.atol_equality), np.log10(10 * DEFAULT_RANK_CUT))
                          .map(lambda e: 10.0 ** e), min_size=1, max_size=2))
    @example(family="swap", seed=0, small=[5e-9])  # ancilla diag(1 - 5e-9, 5e-9)
    def test_small_ancilla_eigenvalues_give_a_verdict(self, tmp_path_factory, family, seed, small):
        scheme = SMALL_ANCILLA_FAMILIES[family](seed)
        small = small[:scheme.ancilla_dim - 1]
        rest = scheme.ancilla_dim - len(small)
        weights = np.concatenate([np.full(rest, (1.0 - sum(small)) / rest), small])
        scheme = dataclasses.replace(scheme, ancilla=State.diagonal(weights))
        path = tmp_path_factory.getbasetemp() / "small-ancilla.json"
        against = tmp_path_factory.getbasetemp() / "small-ancilla-against.json"
        modelfile.save(scheme, str(path))
        modelfile.save(pointer_observable(scheme.system_dim), str(against))
        for verb in CHECK_VERBS:
            if verb == "channel-thirdlaw":
                continue  # a channel verb: a scheme is the wrong kind of input
            argv = ["check", verb, str(path)] + (["--against", str(against)] if verb == "nondisturbance" else [])
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            assert code in (EXIT_YES, EXIT_NO), (verb, weights, err.getvalue())
