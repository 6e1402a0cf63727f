"""Tests for the binary checkpoint format."""

import json

import numpy as np
import pytest

from rolltune import checkpoint, model
from rolltune.checkpoint import CheckpointError


def sample_arrays(rng):
    return {"layer/w": rng.normal(size=(3, 5)),
            "layer/b": rng.normal(size=7),
            "scalar": np.array(2.5),
            "empty": np.zeros((0, 4))}


def raw_checkpoint(names, metadata=b"{}"):
    """Checkpoint bytes with the raw metadata block given (empty by
    default) and one zero (1,)-shaped section per raw name, written in
    the order given."""
    parts = [checkpoint.MAGIC, (1).to_bytes(4, "little"),
             len(metadata).to_bytes(4, "little"), metadata,
             len(names).to_bytes(4, "little")]
    for name in names:
        parts += [len(name).to_bytes(2, "little"), name, bytes([1]),
                  (1).to_bytes(4, "little"), bytes(8)]
    return b"".join(parts)


class TestRoundTrip:

    def test_arrays_and_metadata_survive_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = sample_arrays(rng)
        meta = {"iterations": 12, "config": {"seed": 3, "keep_prob": 0.75},
                "kind": "biaxial", "tags": ["a", "b"]}
        path = tmp_path / "m.ckpt"
        checkpoint.write_checkpoint(path, arrays, meta)
        loaded, got_meta = checkpoint.read_checkpoint(path)
        assert got_meta == meta
        assert set(loaded) == set(arrays)
        for name in arrays:
            assert loaded[name].dtype == np.float64
            assert loaded[name].shape == arrays[name].shape
            np.testing.assert_array_equal(loaded[name], arrays[name])

    def test_loaded_arrays_are_writable(self, tmp_path):
        path = tmp_path / "m.ckpt"
        checkpoint.write_checkpoint(path, {"w": np.ones(3)}, {})
        loaded, _ = checkpoint.read_checkpoint(path)
        loaded["w"][0] = 5.0
        assert loaded["w"][0] == 5.0

    def test_write_read_write_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(1)
        arrays = sample_arrays(rng)
        meta = {"iterations": 3, "z": 1, "a": 2}
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        checkpoint.write_checkpoint(first, arrays, meta)
        loaded, got_meta = checkpoint.read_checkpoint(first)
        checkpoint.write_checkpoint(second, loaded, got_meta)
        assert first.read_bytes() == second.read_bytes()

    def test_bytes_do_not_depend_on_insertion_order(self):
        rng = np.random.default_rng(2)
        arrays = sample_arrays(rng)
        reversed_arrays = dict(reversed(list(arrays.items())))
        meta_a = {"x": 1, "y": 2}
        meta_b = {"y": 2, "x": 1}
        assert (checkpoint.checkpoint_bytes(arrays, meta_a)
                == checkpoint.checkpoint_bytes(reversed_arrays, meta_b))

    def test_model_parameters_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        params = model.init_biaxial_params([6, 4], [5], rng)
        for arr in model.param_arrays(params).values():
            arr += rng.normal(0.0, 0.3, arr.shape)
        path = tmp_path / "m.ckpt"
        checkpoint.write_checkpoint(path, model.param_arrays(params), {})
        loaded, _ = checkpoint.read_checkpoint(path)
        rebuilt = model.params_from_arrays(loaded)
        for name, arr in model.param_arrays(params).items():
            np.testing.assert_array_equal(
                model.param_arrays(rebuilt)[name], arr)


class TestValidation:

    def test_bad_magic_is_reported(self, tmp_path):
        path = tmp_path / "m.ckpt"
        checkpoint.write_checkpoint(path, {"w": np.ones(2)}, {})
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="magic"):
            checkpoint.read_checkpoint(path)

    def test_unsupported_version_is_reported(self, tmp_path):
        path = tmp_path / "m.ckpt"
        checkpoint.write_checkpoint(path, {"w": np.ones(2)}, {})
        data = bytearray(path.read_bytes())
        data[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            checkpoint.read_checkpoint(path)

    def test_truncation_is_reported(self, tmp_path):
        path = tmp_path / "m.ckpt"
        checkpoint.write_checkpoint(path, {"w": np.ones((4, 4))}, {})
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 40])
        with pytest.raises(CheckpointError, match="truncated"):
            checkpoint.read_checkpoint(path)

    def test_trailing_garbage_is_reported(self, tmp_path):
        path = tmp_path / "m.ckpt"
        checkpoint.write_checkpoint(path, {"w": np.ones(2)}, {})
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(CheckpointError, match="trailing"):
            checkpoint.read_checkpoint(path)

    def test_corrupt_metadata_is_reported(self, tmp_path):
        path = tmp_path / "m.ckpt"
        checkpoint.write_checkpoint(path, {}, {"k": 1})
        data = bytearray(path.read_bytes())
        data[12] = ord("!")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="metadata"):
            checkpoint.read_checkpoint(path)

    def test_metadata_that_is_not_an_object_is_reported(self, tmp_path):
        path = tmp_path / "m.ckpt"
        checkpoint.write_checkpoint(path, {"w": np.ones(2)}, {})
        data = bytearray(path.read_bytes())
        assert data[12:14] == b"{}"
        data[12:14] = b"[]"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError,
                           match="metadata block: expected a JSON object"):
            checkpoint.read_checkpoint(path)

    @pytest.mark.parametrize("metadata", [
        b'{"a": 1}', b'{"a":1,"a":2}', b'{"b":1,"a":2}'])
    def test_metadata_that_is_not_canonical_is_reported(self, metadata):
        # json accepts each block, but rewriting what it parses to gives
        # other bytes: {"a":1} one byte shorter, {"a":2} alone
        assert isinstance(json.loads(metadata), dict)
        assert checkpoint.checkpoint_bytes(
            {"w": np.zeros(1)}, json.loads(metadata)) != raw_checkpoint(
                [b"w"], metadata)
        with pytest.raises(CheckpointError, match="not canonical"):
            checkpoint.parse_checkpoint(raw_checkpoint([b"w"], metadata))

    def test_overflowing_element_count_is_reported(self):
        # 2**64 - 2**33 + 1 values wrap a 64-bit element count negative
        data = (checkpoint.MAGIC + (1).to_bytes(4, "little")
                + (2).to_bytes(4, "little") + b"{}"
                + (1).to_bytes(4, "little")
                + (1).to_bytes(2, "little") + b"w" + bytes([2])
                + (2**32 - 1).to_bytes(4, "little") * 2 + bytes(64))
        with pytest.raises(CheckpointError, match="truncated"):
            checkpoint.parse_checkpoint(data)

    @pytest.mark.parametrize("names, match", [
        ([b"w", b"w"], "not after"), ([b"b", b"a"], "not after"),
        ([b"a", b"c", b"b"], "not after"), ([b""], "not after"),
        ([b"a", b"\xff"], "not valid UTF-8")])
    def test_section_name_the_writer_would_not_write_is_reported(
            self, names, match):
        # a repeated name would silently replace the first array, so
        # rewriting what was read would not give back the file; the
        # writer refuses an empty name and encodes names as UTF-8
        with pytest.raises(CheckpointError, match=match):
            checkpoint.parse_checkpoint(raw_checkpoint(names))

    def test_error_type_is_a_value_error(self):
        assert issubclass(CheckpointError, ValueError)

    def test_empty_section_name_rejected_on_write(self):
        with pytest.raises(ValueError, match="name"):
            checkpoint.checkpoint_bytes({"": np.ones(2)}, {})


class TestAtomicWrite:

    def test_failed_write_keeps_the_old_file_and_no_temp(self, tmp_path,
                                                         monkeypatch):
        path = tmp_path / "m.ckpt"
        checkpoint.write_checkpoint(path, {"w": np.ones(3)}, {})
        before = path.read_bytes()
        # fails while writing the temporary file
        with pytest.raises(TypeError):
            checkpoint.write_atomic(path, "not bytes")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

        # fails at the final rename
        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint.os, "replace", broken_replace)
        with pytest.raises(OSError, match="disk full"):
            checkpoint.write_checkpoint(path, {"w": np.zeros(9)}, {})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
