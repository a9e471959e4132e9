"""Parameter checkpoints: named arrays plus JSON metadata.

A self-describing container with a one-line JSON header (metadata plus array
names in order) followed by one .npy block per array. Unlike .npz there are
no zip timestamps, so identical contents give byte-identical files, and
float64 payloads round-trip bit-exactly.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

_MAGIC = "topicarg-checkpoint-v1"


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write arrays (in sorted name order) and metadata (seeds, step counters)."""
    names = sorted(arrays)
    header = json.dumps(
        {"magic": _MAGIC, "meta": meta or {}, "names": names}, sort_keys=True
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for name in names:
            np.save(fh, np.asarray(arrays[name]))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint at {path}")
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError:  # not UTF-8 or not JSON
            header = None
        if not (isinstance(header, dict) and header.get("magic") == _MAGIC):
            raise ValueError(f"{path} is not a {_MAGIC} file")
        meta, names = header.get("meta"), header.get("names")
        if not (isinstance(meta, dict) and isinstance(names, list)
                and all(isinstance(name, str) for name in names)):
            raise ValueError(f"{path}: its header needs a meta object and a names list of strings")
        arrays = {}
        for name in names:
            try:
                arrays[name] = np.load(fh, allow_pickle=False)
            except (EOFError, ValueError):  # cut short, or not an .npy block
                raise ValueError(f"{path}: array {name!r} is cut short or malformed") from None
    return arrays, meta
