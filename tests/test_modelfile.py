import json

import numpy as np
import pytest

from qmeas.core import (
    Channel,
    Instrument,
    MeasurementScheme,
    Observable,
    Operation,
    State,
    luders_instrument,
    scheme_to_instrument,
    superop_distance,
)
from qmeas.errors import ValidationError
from qmeas.modelfile import SCHEMA_VERSION, decode, dumps, encode, load, loads, save
from qmeas.models import (
    CATALOG,
    build_extremal_model,
    completely_unsharp_pair,
    pointer_observable,
    random_channel,
    random_full_rank_state,
    random_povm,
    table1_observables,
    trivial_swap_scheme,
)


def roundtrip(obj):
    return loads(dumps(obj))


class TestRoundTrip:
    def test_state(self):
        st = random_full_rank_state(3, 4)
        back = roundtrip(st)
        assert isinstance(back, State)
        assert np.array_equal(back.matrix, st.matrix)

    def test_observable_with_labels(self):
        obs = completely_unsharp_pair()
        back = roundtrip(obs)
        assert back.outcomes == obs.outcomes
        for a, b in zip(back.effects, obs.effects):
            assert np.array_equal(a, b)

    def test_channel_and_operation(self):
        ch = random_channel(2, 3, 2, 9)
        back = roundtrip(ch)
        assert isinstance(back, Channel)
        assert superop_distance(back, ch) < 1e-14
        op = luders_instrument(completely_unsharp_pair()).operations[0]
        back_op = roundtrip(op)
        assert isinstance(back_op, Operation)
        assert superop_distance(back_op, op) < 1e-14

    def test_instrument(self):
        inst = luders_instrument(random_povm(2, 3, 1))
        back = roundtrip(inst)
        assert isinstance(back, Instrument)
        assert back.outcomes == inst.outcomes
        for a, b in zip(back.operations, inst.operations):
            assert superop_distance(a, b) < 1e-14

    def test_scheme(self):
        scheme = build_extremal_model()
        back = roundtrip(scheme)
        assert back.system_dim == scheme.system_dim
        assert np.array_equal(back.ancilla.matrix, scheme.ancilla.matrix)
        a = scheme_to_instrument(back)
        b = scheme_to_instrument(scheme)
        assert max(superop_distance(x, y) for x, y in zip(a.operations, b.operations)) < 1e-12

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "state.json"
        st = random_full_rank_state(2, 0)
        save(st, str(path))
        back = load(str(path))
        assert np.array_equal(back.matrix, st.matrix)
        raw = json.loads(path.read_text())
        assert raw["schema_version"] == SCHEMA_VERSION
        assert raw["kind"] == "state"


def stacks(obj) -> list:
    """Every matrix or operator stack an object holds, a scheme's parts included."""
    if isinstance(obj, MeasurementScheme):
        return [a for part in (obj.ancilla, obj.interaction, obj.pointer) for a in stacks(part)]
    if isinstance(obj, Instrument):
        return [op.kraus for op in obj.operations]
    if isinstance(obj, State):
        return [obj.matrix]
    return [obj.effects if isinstance(obj, Observable) else obj.kraus]


class TestSavedFiles:
    @pytest.mark.parametrize("name", [*sorted(CATALOG), "table1"])
    def test_every_shipped_object_round_trips_bit_for_bit(self, tmp_path, name):
        objects = table1_observables() if name == "table1" else CATALOG[name].build()
        for key, obj in objects.items():
            path = tmp_path / f"{key}.json"
            save(obj, str(path))
            assert path.read_text(encoding="utf-8") == json.dumps(encode(obj)) + "\n"
            back = load(str(path))
            assert type(back) is type(obj)
            for a, b in zip(stacks(back), stacks(obj), strict=True):
                assert a.shape == b.shape and np.array_equal(a, b), key
                for part in (a.real, b.real), (a.imag, b.imag):  # signed zeros too
                    assert np.array_equal(*map(np.signbit, part)), key


def stack_documents() -> dict:
    """One document per way a matrix stack is stored, with a getter for that stack."""
    channel = random_channel(2, 2, 2, 5)
    choi = {"schema_version": SCHEMA_VERSION, "kind": "channel", "dims": [2, 2],
            "choi": [[[z.real, z.imag] for z in row] for row in channel.choi]}
    return {
        "state": (encode(State.complete_mixture(2)), lambda doc: doc["matrix"]),
        "observable": (encode(pointer_observable(2)), lambda doc: doc["effects"]),
        "channel": (encode(channel), lambda doc: doc["kraus"]),
        "instrument": (encode(luders_instrument(completely_unsharp_pair())), lambda doc: doc["operations"][0]),
        "choi": (choi, lambda doc: doc["choi"]),
    }


def first_row(stack: list) -> list:
    """The first row of [re, im] pairs in a nested stack."""
    while isinstance(stack[0][0], list):
        stack = stack[0]
    return stack


class TestDecoderTypeChecks:
    """The decoder builds one float64 array per stack, and numpy would read "1.5", null and true
    as numbers, and fail on an integer too large for a float with OverflowError."""

    @pytest.mark.parametrize("where", sorted(stack_documents()))
    @pytest.mark.parametrize("leaf", ["1.5", None, 10 ** 401], ids=["string", "null", "huge"])
    def test_leaf_that_is_not_a_number_is_malformed(self, where, leaf):
        doc, stack = stack_documents()[where]
        first_row(stack(doc))[0][0] = leaf
        with pytest.raises(ValidationError, match="malformed matrix entry"):
            decode(doc)
        with pytest.raises(ValidationError, match="malformed matrix entry"):
            loads(json.dumps(doc))

    @pytest.mark.parametrize("where", sorted(stack_documents()))
    def test_boolean_leaf_is_not_a_number(self, where):
        doc, stack = stack_documents()[where]
        first_row(stack(doc))[0] = [True, False]
        with pytest.raises(ValidationError, match="true and false"):
            decode(doc)

    @pytest.mark.parametrize("where", sorted(stack_documents()))
    @pytest.mark.parametrize("change", ["short pair", "long pair", "ragged row", "too deep", "too shallow"])
    def test_misshapen_stack_is_malformed(self, where, change):
        doc, stack = stack_documents()[where]
        row = first_row(stack(doc))
        if change == "short pair":
            row[0] = row[0][:1]
        elif change == "long pair":
            row[0] = row[0] + [0.0]
        elif change == "ragged row":
            row.append([0.0, 0.0])
        elif change == "too deep":
            row[:] = [[pair] for pair in row]
        else:
            row[:] = [re for re, _ in row]
        with pytest.raises(ValidationError, match="malformed matrix entry"):
            decode(doc)

    def test_family_of_matrices_that_differ_in_shape_is_malformed(self):
        doc = encode(pointer_observable(2))
        doc["effects"][1] = [[[1.0, 0.0]]]
        with pytest.raises(ValidationError, match="malformed matrix entry"):
            decode(doc)

    @pytest.mark.parametrize("kraus", [[], [[]], [[[]]], [[[]], [[]]]])
    def test_zero_size_kraus_operators_are_empty(self, kraus):
        channel = encode(random_channel(2, 2, 2, 5))
        channel["kraus"] = kraus
        instrument = encode(luders_instrument(completely_unsharp_pair()))
        instrument["operations"][0] = kraus
        for doc in (channel, instrument):
            with pytest.raises(ValidationError, match="empty"):
                decode(doc)

    def test_numpy_scalar_leaves_are_numbers(self):
        obs = pointer_observable(2)
        doc = encode(obs)
        doc["effects"] = [[[[np.int64(re), np.float32(im)] for re, im in row] for row in e] for e in doc["effects"]]
        assert np.array_equal(decode(doc).effects, obs.effects)


class TestChoiPayload:
    def test_channel_from_choi(self):
        ch = random_channel(2, 3, 2, 5)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "channel",
            "choi": [[[z.real, z.imag] for z in row] for row in ch.choi],
            "dims": [3, 2],
        }
        back = decode(doc)
        assert superop_distance(back, ch) < 1e-8

    @pytest.mark.parametrize("kind, message", [("channel", "deviates from identity"),
                                               ("operation", r"eigenvalue .* > 1")],
                             ids=["channel", "operation"])
    def test_choi_payload_is_validated_as_built(self, kind, message):
        # sigma (x) 1 is the Choi matrix of rho -> tr[rho] sigma; sigma's eigenvalue 5e-9 lies
        # below the rank cut but far above round-off, so the reduction keeps it
        choi = np.kron(np.diag([1 - 5e-9, 5e-9]), np.eye(2))
        doc = {"schema_version": SCHEMA_VERSION, "kind": kind, "dims": [2, 2],
               "choi": [[[z.real, z.imag] for z in row] for row in choi]}
        back = decode(doc)
        assert len(back.kraus) == 4
        assert np.abs(back.choi - choi).max() < 1e-15  # the superoperator reshuffles the same entries
        doc["choi"] = [[[z.real, z.imag] for z in row] for row in (1 + 1e-7) * choi]
        with pytest.raises(ValidationError, match=message):  # the constructor's own check
            decode(doc)

    def test_choi_requires_dims(self):
        ch = random_channel(2, 2, 2, 5)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "channel",
            "choi": [[[z.real, z.imag] for z in row] for row in ch.choi],
        }
        with pytest.raises(ValidationError):
            decode(doc)

    def test_choi_shape_must_match_dims(self):
        ch = random_channel(2, 2, 2, 5)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "channel",
            "choi": [[[z.real, z.imag] for z in row] for row in ch.choi],
            "dims": [3, 2],
        }
        with pytest.raises(ValidationError):
            decode(doc)


class TestReducedFamiliesLoadBack:
    def test_instrument_of_an_ancilla_eigenvalue_below_the_rank_cut_loads_back(self):
        # the ancilla's 5e-9 lies below the rank cut; the reduction keeps its Kraus operators,
        # so the induced effects sum to the identity and the saved instrument loads back as built
        scheme = trivial_swap_scheme(State.diagonal([1 - 5e-9, 5e-9]), pointer_observable(2))
        instrument = scheme_to_instrument(scheme)
        assert [len(op.kraus) for op in instrument.operations] == [2, 2]
        back = roundtrip(instrument)
        assert all(np.array_equal(a.kraus, b.kraus) for a, b in zip(back.operations, instrument.operations))
        assert isinstance(roundtrip(scheme), type(scheme))

    def test_measure_prepare_channel_with_a_weight_below_the_rank_cut_loads_back(self):
        channel = Channel.measure_prepare([(np.eye(2), np.diag([1 - 1e-10, 1e-10]))])
        assert len(channel.kraus) == 4
        assert np.array_equal(roundtrip(channel).kraus, channel.kraus)


class TestValidation:
    def test_rejects_wrong_schema_version(self):
        doc = encode(State.complete_mixture(2))
        doc["schema_version"] = "0"
        with pytest.raises(ValidationError):
            decode(doc)

    def test_rejects_unknown_kind(self):
        doc = encode(State.complete_mixture(2))
        doc["kind"] = "density"
        with pytest.raises(ValidationError):
            decode(doc)

    def test_rejects_malformed_matrix(self):
        doc = encode(State.complete_mixture(2))
        doc["matrix"][0][0] = [1.0]
        with pytest.raises(ValidationError):
            decode(doc)

    def test_rejects_non_object(self):
        with pytest.raises(ValidationError):
            decode([1, 2, 3])

    def test_rejects_invalid_json_text(self):
        with pytest.raises(ValidationError):
            loads("{not json")

    def test_rejects_scheme_missing_fields(self):
        doc = encode(build_extremal_model())
        del doc["pointer"]
        with pytest.raises(ValidationError):
            decode(doc)

    def test_rejects_unencodable(self):
        with pytest.raises(ValidationError):
            encode(np.eye(2))

    def test_decoded_objects_are_validated(self):
        doc = encode(State.complete_mixture(2))
        doc["matrix"][0][0] = [5.0, 0.0]
        with pytest.raises(Exception):
            decode(doc)
