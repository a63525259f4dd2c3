"""Checkpoint save/load for :class:`~repro.nn.module.Module` state dicts.

Checkpoints are plain ``.npz`` archives of parameter arrays plus an
optional JSON metadata blob (model hyper-parameters, training step, ...),
so they are portable and inspectable without this library.  Each archive
carries a format version; files from before versioning load as version 0.

A checkpoint is written to a temporary file next to its destination and
then renamed over it, so a crash or error mid-write leaves the previous
checkpoint intact.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

_META_KEY = "__meta_json__"
_VERSION_KEY = "__format_version__"
FORMAT_VERSION = 1


def _npz_path(path: Union[str, Path]) -> Path:
    """The file ``np.savez`` would write for ``path`` (it appends ``.npz``)."""
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_name(path.name + ".npz")


def save_checkpoint(path: Union[str, Path], state: Dict[str, np.ndarray],
                    meta: Optional[Dict[str, Any]] = None) -> None:
    """Atomically write a state dict (and optional JSON metadata) to ``path``."""
    path = _npz_path(path)
    payload = dict(state)
    for key in (_META_KEY, _VERSION_KEY):
        if key in payload:
            raise ValueError(f"state dict may not contain reserved key {key!r}")
    payload[_VERSION_KEY] = np.int64(FORMAT_VERSION)
    if meta is not None:
        payload[_META_KEY] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as handle:
            np.savez(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: Union[str, Path]) -> Tuple[Dict[str, np.ndarray],
                                                     Optional[Dict[str, Any]]]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Returns ``(state_dict, meta)``; ``meta`` is ``None`` when the
    checkpoint was written without metadata.  Unversioned (legacy) files
    load; files from a newer format version are rejected.
    """
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path) as archive:
        version = int(archive[_VERSION_KEY]) if _VERSION_KEY in archive.files else 0
        if version > FORMAT_VERSION:
            raise ValueError(
                f"{path} has checkpoint format version {version}; this build "
                f"reads versions up to {FORMAT_VERSION}")
        state = {k: archive[k] for k in archive.files
                 if k not in (_META_KEY, _VERSION_KEY)}
        meta = None
        if _META_KEY in archive.files:
            meta = json.loads(archive[_META_KEY].tobytes().decode("utf-8"))
    return state, meta
