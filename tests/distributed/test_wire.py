"""Wire-format round-trip tests: every MessageKind payload, bit-exactly.

The contract under test (ISSUE satellite 1): for each protocol payload
shape — including numpy arrays of every dtype the system uses, 0-d
arrays, empty sets, and float32/float64 mixes — ``decode(encode(x))``
reproduces ``x`` with identical dtype, shape and bytes; and malformed
input (truncated frames, corrupted CRC, garbage tags) raises a clean
:class:`~repro.distributed.wire.WireError`, never hangs and never
returns partial data.
"""

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.distributed import wire
from repro.distributed.messages import Message, MessageKind
from repro.distributed.wire import (
    WireError,
    decode_frame,
    decode_message,
    decode_value,
    encode_message,
    encode_value,
    frame,
)
from repro.hw.profiles import DeviceProfile, cluster_statistics
from repro.models.blocks import HeaderSpec
from repro.models.header_dag import DAGHeader
from repro.models.vit import ViTConfig, VisionTransformer


def roundtrip(value):
    return decode_value(encode_value(value))


def assert_array_identical(a, b):
    assert isinstance(b, np.ndarray)
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _profile(device_id=0):
    return DeviceProfile(
        device_id=device_id,
        gpu_capacity=2.5,
        storage_limit=80.0,
        num_patches=16,
        batch_size=8,
        base_power=1.5,
        power_per_layer=0.25,
        base_latency=10.0,
        latency_per_layer=1.75,
    )


@pytest.fixture(scope="module")
def small_model():
    config = ViTConfig(embed_dim=16, depth=2, num_heads=2, num_classes=4)
    return config, VisionTransformer(config, seed=0)


@pytest.fixture(scope="module")
def header_state(small_model):
    config, _ = small_model
    spec = HeaderSpec.from_sequence([0, 0, 1, 2, 1, 0, 3, 0], repeats=2)
    header = DAGHeader(
        config.embed_dim,
        config.num_patches,
        config.num_classes,
        spec,
        rng=np.random.default_rng(0),
    )
    return spec, header.state_dict()


class TestScalarsAndContainers:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**62,
            -(2**70),  # wider than int64: the bigint path
            3.141592653589793,
            float("inf"),
            "",
            "edge0->cloud",
            "ünïcode✓",
            b"",
            b"\x00\xff raw",
            [],
            [1, [2, [3, None]]],
            (),
            (1, "a", (2.5,)),
            {},
            {"k": [1, 2], "nested": {"x": b"y"}},
            {1: "int-key", ("t", 2): "tuple-key"},
            set(),
            {1, 2, 3},
            frozenset(),
            frozenset({"a", "b"}),
        ],
    )
    def test_roundtrip_identity(self, value):
        out = roundtrip(value)
        assert out == value
        assert type(out) is type(value)

    def test_nan_roundtrips(self):
        out = roundtrip(float("nan"))
        assert isinstance(out, float) and np.isnan(out)

    def test_float_is_bit_exact(self):
        value = 0.1 + 0.2  # not representable as a short decimal
        assert roundtrip(value).hex() == value.hex()


class TestArrays:
    @pytest.mark.parametrize(
        "dtype",
        ["float32", "float64", "int64", "int32", "uint8", "bool", ">f8", "<f4"],
    )
    def test_dtype_exact(self, dtype):
        arr = np.arange(12).reshape(3, 4).astype(dtype)
        assert_array_identical(arr, roundtrip(arr))

    def test_zero_d_array(self):
        arr = np.array(3.5, dtype=np.float32)
        out = roundtrip(arr)
        assert out.shape == () and out.dtype == np.float32
        assert out.tobytes() == arr.tobytes()

    def test_empty_array(self):
        arr = np.empty((0, 5), dtype=np.float64)
        assert_array_identical(arr, roundtrip(arr))

    def test_fortran_order_normalizes_to_c(self):
        arr = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        out = roundtrip(arr)
        assert out.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(arr, out)

    def test_numpy_scalars(self):
        for scalar in (np.float32(1.25), np.int64(-7), np.float64(2.0**-52)):
            out = roundtrip(scalar)
            assert out.dtype == scalar.dtype
            assert out.tobytes() == scalar.tobytes()

    def test_float32_float64_mix_preserved(self):
        payload = {
            "importance": np.linspace(0, 1, 7, dtype=np.float32),
            "weights": np.linspace(0, 1, 7, dtype=np.float64),
            "mask": np.array([True, False, True]),
        }
        out = roundtrip(payload)
        for key in payload:
            assert_array_identical(payload[key], out[key])

    def test_object_dtype_rejected(self):
        with pytest.raises(WireError, match="dtype"):
            encode_value(np.array([object()]))


class TestRegisteredCodecs:
    def test_vit_config(self, small_model):
        config, _ = small_model
        assert roundtrip(config) == config

    def test_header_spec(self, header_state):
        spec, _ = header_state
        out = roundtrip(spec)
        assert out.to_sequence() == spec.to_sequence()
        assert out.repeats == spec.repeats

    def test_device_profile(self):
        assert roundtrip(_profile(3)) == _profile(3)

    def test_array_dataset(self):
        rng = np.random.default_rng(0)
        ds = ArrayDataset(
            rng.normal(size=(4, 3, 8, 8)).astype(np.float32),
            rng.integers(0, 4, size=4).astype(np.int64),
            num_classes=4,
            name="device3",
        )
        out = roundtrip(ds)
        assert_array_identical(ds.images, out.images)
        assert_array_identical(ds.labels, out.labels)
        assert out.num_classes == ds.num_classes and out.name == ds.name

    def test_unregistered_type_rejected(self):
        class Alien:
            pass

        with pytest.raises(WireError, match="register a codec"):
            encode_value(Alien())


def _state_arrays(model):
    return model.state_dict()


class TestEveryMessageKind:
    """One realistic payload per protocol kind, round-tripped bit-exactly."""

    def _messages(self, small_model, header_state):
        config, model = small_model
        spec, hstate = header_state
        state = _state_arrays(model)
        rng = np.random.default_rng(1)
        dataset = ArrayDataset(
            rng.normal(size=(3, 3, 8, 8)).astype(np.float32),
            np.array([0, 1, 2], dtype=np.int64),
            num_classes=4,
            name="d0",
        )
        return {
            MessageKind.CLUSTER_STATS: {
                "stats": cluster_statistics([_profile(0), _profile(1)])
            },
            MessageKind.BACKBONE_ASSIGNMENT: {
                "vit_config": config,
                "backbone_state": state,
                "width": 0.75,
                "depth": 2,
                "objectives": ["storage", "power"],
            },
            MessageKind.MODEL_DISTRIBUTION: {
                "vit_config": config,
                "backbone_state": state,
                "width": 0.5,
                "depth": 1,
                "header_spec": spec,
                "header_state": hstate,
                "keep_fraction": 0.7,
            },
            MessageKind.IMPORTANCE_SET: {
                "importance": rng.normal(size=11).astype(np.float32),
                "round": 1,
                "device_id": 4,
                "feature_sample": rng.normal(size=(2, 16)).astype(np.float32),
            },
            MessageKind.PERSONALIZED_SET: {
                "importance": rng.normal(size=11).astype(np.float32)
            },
            MessageKind.DATASET_UPLOAD: {"dataset": dataset, "device_id": 0},
            MessageKind.ACK: {},
        }

    @pytest.mark.parametrize("kind", list(MessageKind))
    def test_kind_payload_roundtrip(self, kind, small_model, header_state):
        payload = self._messages(small_model, header_state)[kind]
        message = Message("edge0", "cloud", kind, payload)
        out = decode_message(encode_message(message))
        assert out.sender == message.sender
        assert out.receiver == message.receiver
        assert out.kind is kind
        assert out.nbytes == message.nbytes
        assert out.sequence == message.sequence
        assert out.checksum == message.checksum
        assert out.attempts == message.attempts
        assert set(out.payload) == set(payload)
        flat_in = encode_value(payload)
        flat_out = encode_value(out.payload)
        assert flat_in == flat_out  # canonical form identical → bit-exact

    def test_checksum_still_verifies_after_roundtrip(
        self, small_model, header_state
    ):
        payload = self._messages(small_model, header_state)[
            MessageKind.IMPORTANCE_SET
        ]
        message = Message("d0", "edge0", MessageKind.IMPORTANCE_SET, payload)
        out = decode_message(encode_message(message))
        assert out.compute_checksum() == out.checksum


class TestFraming:
    def test_frame_roundtrip(self):
        value = {"a": np.arange(5), "b": {1, 2}}
        data = frame(encode_value(value))
        out, rest = decode_frame(data)
        assert rest == b""
        np.testing.assert_array_equal(out["a"], value["a"])
        assert out["b"] == value["b"]

    def test_concatenated_frames(self):
        data = frame(encode_value("first")) + frame(encode_value("second"))
        one, rest = decode_frame(data)
        two, rest = decode_frame(rest)
        assert (one, two) == ("first", "second") and rest == b""

    @pytest.mark.parametrize("cut", [0, 1, 4, 11, -1])
    def test_truncated_frame_raises(self, cut):
        data = frame(encode_value([1, 2, 3]))
        truncated = data[: cut if cut >= 0 else len(data) - 1]
        with pytest.raises(WireError):
            decode_frame(truncated)

    def test_bad_magic_raises(self):
        data = bytearray(frame(encode_value("x")))
        data[0] ^= 0xFF
        with pytest.raises(WireError, match="magic"):
            decode_frame(bytes(data))

    def test_corrupted_body_fails_crc(self):
        data = bytearray(frame(encode_value("payload")))
        data[-1] ^= 0x01
        with pytest.raises(WireError, match="CRC"):
            decode_frame(bytes(data))

    def test_garbage_tag_raises(self):
        with pytest.raises(WireError):
            decode_value(b"\xfe\x00\x00")

    def test_trailing_bytes_rejected(self):
        with pytest.raises(WireError, match="trailing"):
            decode_value(encode_value(1) + b"\x00")

    def test_declared_length_beyond_buffer_raises(self):
        # A string tag claiming more bytes than exist must not read OOB.
        encoded = bytearray(encode_value("abcdef"))
        encoded[1:5] = (2**31 - 1).to_bytes(4, "big")
        with pytest.raises(WireError):
            decode_value(bytes(encoded))

    def test_oversized_frame_rejected(self):
        import struct

        header = struct.pack(">4sII", wire.MAGIC, wire.MAX_FRAME + 1, 0)
        with pytest.raises(WireError, match="exceeds"):
            decode_frame(header)

    def test_oversized_body_refused_at_frame_time(self):
        with pytest.raises(WireError, match="exceeds"):
            frame(b"\x00" * (wire.MAX_FRAME + 1))
