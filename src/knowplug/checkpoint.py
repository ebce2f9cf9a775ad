"""Binary model checkpoints.

Layout: magic ``KPC1`` | u32 header length | header JSON | raw tensor
bytes in manifest order. The header carries the format version, a config
echo sufficient to rebuild the model, the tensor manifest
``[name, dtype, shape]`` and an extra dict (optimizer scalars, data
cursor). Tensor bytes are written verbatim from contiguous arrays, so a
save/load round trip is bit-exact. Adam's moment buffers, when saved, are
tensors named ``adam.m.<param>`` and ``adam.v.<param>``.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from .nncore import AdamState

MAGIC = b"KPC1"
FORMAT_VERSION = 1
_PREFIX = len(MAGIC) + 4  # magic and header length


class CheckpointError(RuntimeError):
    pass


class Checkpoint(NamedTuple):
    kind: str
    config: Any
    tensors: dict[str, np.ndarray]
    extra: dict

    def model_tensors(self) -> dict[str, np.ndarray]:
        """Every tensor but the optimizer's."""
        return {k: v for k, v in self.tensors.items() if not k.startswith("adam.")}

    def optimizer(self) -> AdamState | None:
        """The saved Adam state, or None if the checkpoint holds none."""
        if "adam_step" not in self.extra:
            return None
        opt = AdamState(lr=float(self.extra["adam_lr"]), step=int(self.extra["adam_step"]))
        for name, t in self.tensors.items():
            if name.startswith("adam.m."):
                opt.m[name[len("adam.m."):]] = t
            elif name.startswith("adam.v."):
                opt.v[name[len("adam.v."):]] = t
        return opt


def config_from(cls, data: dict):
    """Rebuild a config dataclass from its header form; JSON lists come
    back as tuples."""
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})


def _to_json(obj):
    if is_dataclass(obj):
        return asdict(obj)
    raise TypeError(f"cannot store {type(obj).__name__} in a checkpoint header")


def save_checkpoint(path: str | Path, kind: str, config, tensors: dict[str, np.ndarray],
                    extra: dict | None = None, optimizer: AdamState | None = None) -> None:
    """Write one checkpoint. `config` is JSON data in which config
    dataclasses may appear; `optimizer` adds Adam's moment buffers to the
    tensors and its step and learning rate to `extra`."""
    tensors = dict(tensors)
    extra = dict(extra or {})
    if optimizer is not None:
        tensors.update({f"adam.m.{name}": m for name, m in optimizer.m.items()})
        tensors.update({f"adam.v.{name}": v for name, v in optimizer.v.items()})
        extra["adam_step"] = optimizer.step
        extra["adam_lr"] = optimizer.lr
    manifest = []
    blobs = []
    for name, t in tensors.items():
        arr = np.ascontiguousarray(t)
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        manifest.append([name, arr.dtype.str, list(arr.shape)])
        blobs.append(arr.tobytes())
    header = json.dumps({"format_version": FORMAT_VERSION, "kind": kind,
                         "config": config, "manifest": manifest,
                         "extra": extra}, default=_to_json).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path: str | Path, kind: str | None = None) -> Checkpoint:
    """Read a checkpoint; with `kind`, one of any other kind is refused.
    A file that is not a whole checkpoint raises CheckpointError."""
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    if len(data) < _PREFIX:
        raise CheckpointError(f"{path}: truncated before the header length")
    (hlen,) = struct.unpack_from("<I", data, 4)
    if _PREFIX + hlen > len(data):
        raise CheckpointError(f"{path}: truncated inside the header")
    try:
        header = json.loads(data[_PREFIX:_PREFIX + hlen])
    except ValueError as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    if header["format_version"] != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version "
                              f"{header['format_version']}")
    if kind is not None and header["kind"] != kind:
        raise CheckpointError(f"{path}: holds a '{header['kind']}' checkpoint, "
                              f"not a '{kind}' one")
    tensors = {}
    off = _PREFIX + hlen
    for name, dtype_str, shape in header["manifest"]:
        dt = np.dtype(dtype_str)
        count = int(np.prod(shape)) if shape else 1
        nbytes = dt.itemsize * count
        if off + nbytes > len(data):
            raise CheckpointError(f"{path}: truncated inside tensor '{name}'")
        tensors[name] = np.frombuffer(data, dtype=dt, count=count,
                                      offset=off).reshape(shape).copy()
        off += nbytes
    if off != len(data):
        raise CheckpointError(f"{path}: trailing bytes after tensor payload")
    return Checkpoint(header["kind"], header["config"], tensors, header["extra"])
