import json

import numpy as np
import pytest

from knowplug.checkpoint import CheckpointError, load_checkpoint
from knowplug.extractor import PretrainConfig, pretrain
from knowplug.nncore import AdamState

from conftest import random_records, tiny_extractor


def _boundaries(data: bytes) -> list[int]:
    """Offsets where the magic, header length, header and each tensor end."""
    hlen = int.from_bytes(data[4:8], "little")
    cuts = [0, 4, 8, 8 + hlen]
    for _, dtype, shape in json.loads(data[8:8 + hlen])["manifest"]:
        cuts.append(cuts[-1] + np.dtype(dtype).itemsize * int(np.prod(shape)))
    return cuts


def test_truncation_at_every_boundary_raises_checkpoint_error(tmp_path):
    model, opt = tiny_extractor(seed=40), AdamState()
    pretrain(model, opt, random_records(np.random.default_rng(41), 24), [0],
             PretrainConfig(batch_size=12))
    path = tmp_path / "e.ckpt"
    model.save(path, opt, extra={"cursor_day": 0})
    data = path.read_bytes()
    cuts = _boundaries(data)
    assert cuts[-1] == len(data)
    load_checkpoint(path)
    cut = tmp_path / "cut.ckpt"
    lengths = sorted({n for b in cuts for n in (b - 1, b, b + 1) if 0 <= n < len(data)})
    for n in lengths:
        cut.write_bytes(data[:n])
        with pytest.raises(CheckpointError):
            load_checkpoint(cut)
