"""Checkpoint persistence round trips."""

import json

import numpy as np
import pytest

from repro.nn import load_checkpoint, save_checkpoint
from repro.nn.serialization import FORMAT_VERSION


def test_round_trip_arrays_and_meta(tmp_path):
    state = {"layer.weight": np.arange(6.0).reshape(2, 3),
             "layer.bias": np.zeros(3)}
    meta = {"hidden": 64, "loss": {"kind": "L3", "theta": 100.0}}
    path = tmp_path / "model.npz"
    save_checkpoint(path, state, meta)
    loaded_state, loaded_meta = load_checkpoint(path)
    assert set(loaded_state) == set(state)
    for key in state:
        np.testing.assert_array_equal(loaded_state[key], state[key])
    assert loaded_meta == meta


def test_round_trip_without_meta(tmp_path):
    path = tmp_path / "weights.npz"
    save_checkpoint(path, {"w": np.ones(4)})
    state, meta = load_checkpoint(path)
    assert meta is None
    np.testing.assert_array_equal(state["w"], np.ones(4))


def test_missing_npz_suffix_resolved(tmp_path):
    # np.savez appends .npz when missing; load_checkpoint must find it.
    path = tmp_path / "ckpt"
    save_checkpoint(path, {"w": np.ones(2)})
    state, _ = load_checkpoint(path)
    np.testing.assert_array_equal(state["w"], np.ones(2))


def test_reserved_key_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_checkpoint(tmp_path / "x.npz", {"__meta_json__": np.ones(1)})


def test_parent_directories_created(tmp_path):
    path = tmp_path / "deep" / "nested" / "model.npz"
    save_checkpoint(path, {"w": np.ones(1)})
    assert path.exists()


def test_dtype_preserved(tmp_path):
    path = tmp_path / "dtypes.npz"
    save_checkpoint(path, {"f32": np.ones(2, dtype=np.float32),
                           "i64": np.arange(3)})
    state, _ = load_checkpoint(path)
    assert state["f32"].dtype == np.float32
    assert state["i64"].dtype == np.int64


def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.npz"
    save_checkpoint(path, {"w": np.ones(3)}, {"step": 1})

    def broken_savez(handle, **payload):
        handle.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", broken_savez)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, {"w": np.zeros(3)}, {"step": 2})
    monkeypatch.undo()
    state, meta = load_checkpoint(path)
    np.testing.assert_array_equal(state["w"], np.ones(3))
    assert meta == {"step": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]


def test_format_version_stamped_and_hidden(tmp_path):
    path = tmp_path / "model.npz"
    save_checkpoint(path, {"w": np.ones(2)})
    with np.load(path) as archive:
        assert int(archive["__format_version__"]) == FORMAT_VERSION
    state, _ = load_checkpoint(path)
    assert set(state) == {"w"}


def test_unversioned_legacy_checkpoint_loads(tmp_path):
    path = tmp_path / "legacy.npz"
    meta = np.frombuffer(json.dumps({"hidden": 8}).encode("utf-8"),
                         dtype=np.uint8)
    np.savez(path, w=np.arange(3.0), __meta_json__=meta)
    state, loaded_meta = load_checkpoint(path)
    np.testing.assert_array_equal(state["w"], np.arange(3.0))
    assert loaded_meta == {"hidden": 8}


def test_newer_format_version_rejected(tmp_path):
    path = tmp_path / "future.npz"
    np.savez(path, w=np.ones(1),
             __format_version__=np.int64(FORMAT_VERSION + 1))
    with pytest.raises(ValueError, match="format version"):
        load_checkpoint(path)
