"""In-memory span tracer that wraps knowplug's public functions and methods.

Nothing under src/ knows about it. `Tracer.install()` replaces each target
in every knowplug module that binds it (a function imported by name into
three modules is wrapped in all three), and `uninstall()` puts the
originals back. Every call records a span (id, parent id, name, thread,
start, end) in memory; self time is a span's duration minus the time its
child spans cover. Counter hooks run after the wrapped call returns and
add to named counts, so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _attention_counts(tr, result, args, kwargs):
    behav, lengths = args[1], args[3]
    n, b = behav.shape[:2]
    tr.count("attention_positions", n * b)
    tr.count("attention_valid", int(np.minimum(np.asarray(lengths), b).sum()))


def _scatter_counts(tr, result, args, kwargs):
    tr.count("scatter_rows", int(np.asarray(args[1]).size))


def _adam_counts(tr, result, args, kwargs):
    tr.count("adam_elements", sum(int(p.size) for p in args[1].values()))


def _triplet_counts(tr, result, args, kwargs):
    tr.count("triplets", len(result))


def _generate_counts(tr, result, args, kwargs):
    out = os.fspath(args[1])
    for name in os.listdir(out):
        kind = os.path.splitext(name)[1]
        if kind in (".jsonl", ".npz"):
            tr.count(kind[1:] + "_bytes", os.path.getsize(os.path.join(out, name)))


def _checkpoint_counts(tr, result, args, kwargs):
    tr.count("checkpoint_bytes", os.path.getsize(args[0]))


def _knowledge_counts(tr, result, args, kwargs):
    found = result[1]
    tr.count("missing_knowledge", int(len(found) - found.sum()))


def _compose_counts(tr, result, args, kwargs):
    tr.count("compose_rows", len(result[0]))


def _lookup_counts(tr, result, args, kwargs):
    status = np.fromiter((e.status for e in result), dtype=np.uint8, count=len(result))
    mask = np.fromiter((e.found_mask for e in result), dtype=np.uint8, count=len(result))
    ok = status == 0
    tr.count("requests", 1)
    tr.count("lookups", len(result))
    tr.count("lookups_ok", int(ok.sum()))
    tr.count("version_gone", int((status == 1).sum()))
    for bit, name in ((1, "found_user"), (2, "found_item"), (4, "found_uc")):
        tr.count(name, int(((mask & bit) > 0)[ok].sum()))


def _wire_out(tr, result, args, kwargs):
    tr.count("wire_bytes", 9 + len(result))


def _wire_in(tr, result, args, kwargs):
    tr.count("wire_bytes", 9 + len(args[0]))


def _encoder_rows(tr, result, args, kwargs):
    keys = getattr(tr._local, "step_keys", None)
    if keys is not None:
        batch = args[1]
        # session and item fix every encoder input: a session is one user
        # on one day, so its behavior sequence is fixed as well
        keys.append(batch.session_id.astype(np.int64) * (1 << 24) + batch.item_id)


def _step_enter(tr, args, kwargs):
    tr._local.step_keys = []


def _step_exit(tr, result, args, kwargs):
    keys = tr._local.step_keys
    tr._local.step_keys = None
    rows = np.concatenate(keys) if keys else np.empty(0, dtype=np.int64)
    tr.count("step_impressions", len(args[2]))
    tr.count("encoder_rows", len(rows))
    tr.count("encoder_distinct_rows", len(np.unique(rows)))


# (module, owner attribute or None, attribute, span name, count hook, enter hook);
# a target without a span name only runs its count hook, so its time stays
# in the caller's self time
# Client-side targets: the benchmark process.
CLIENT_TARGETS = [
    ("datagen", None, "generate", "datagen.generate", _generate_counts, None),
    ("datagen", None, "load_log_columnar", "datagen.load", None, None),
    ("nncore", "AttentionPooler", "forward_batch", "nncore.attention_fwd",
     _attention_counts, None),
    ("nncore", "AttentionPooler", "backward_batch", "nncore.attention_bwd", None, None),
    ("nncore", "MlpStack", "forward", "nncore.mlp_fwd", None, None),
    ("nncore", "MlpStack", "backward", "nncore.mlp_bwd", None, None),
    ("nncore", "EmbeddingTable", "lookup", "nncore.embedding_lookup", None, None),
    ("nncore", "EmbeddingTable", "scatter_grad", "nncore.scatter_grad",
     _scatter_counts, None),
    ("nncore", None, "adam_step", "nncore.adam_step", _adam_counts, None),
    ("features", "SparseFeatureNet", "forward", "features.forward", None, None),
    ("features", "SparseFeatureNet", "backward", "features.backward", None, None),
    ("extractor", None, "pretrain_step", "extractor.step", _step_exit, _step_enter),
    ("extractor", "ExtractorModel", "score_batch", None, _encoder_rows, None),
    ("extractor", None, "day_triplets", "extractor.triplets", _triplet_counts, None),
    ("extractor", None, "extract_knowledge_batch", "extractor.knowledge", None, None),
    ("plugnet", None, "train_step", "plugnet.train_step", None, None),
    ("plugnet", None, "warm_start", "plugnet.warm_start", None, None),
    ("checkpoint", None, "save_checkpoint", "checkpoint.save", _checkpoint_counts, None),
    ("checkpoint", None, "load_checkpoint", "checkpoint.load", None, None),
    ("servingkit", None, "train_click_epoch", "servingkit.train_click_epoch", None, None),
    ("servingkit", None, "build_snapshot", "servingkit.build_snapshot", None, None),
    ("servingkit", None, "save_snapshot", "servingkit.save_snapshot", None, None),
    ("gkc", "GkcClient", "lookup", "gkc.client_lookup", _lookup_counts, None),
    ("gkc", "GkcClient", "publish", "gkc.client_publish", None, None),
    ("gkc", None, "encode_lookup_request", "gkc.encode_request", _wire_out, None),
    ("gkc", None, "decode_lookup_response", "gkc.decode_response", _wire_in, None),
    ("harness", "ExtractorKnowledge", "__call__", "harness.knowledge",
     _knowledge_counts, None),
    ("harness", "SnapshotKnowledge", "__call__", "harness.knowledge",
     _knowledge_counts, None),
    ("harness", "GkcKnowledge", "__call__", "harness.knowledge",
     _knowledge_counts, None),
    ("harness", None, "evaluate", "harness.evaluate", None, None),
    ("harness", None, "gauc", "harness.gauc", None, None),
]

# Server-side targets: the `knowplug serve` process.
SERVER_TARGETS = [
    ("gkc", None, "decode_lookup_request", "gkc.decode_request", None, None),
    ("gkc", None, "lookup_batch", "gkc.lookup_batch", None, None),
    ("gkc", None, "encode_lookup_response", "gkc.encode_response", None, None),
    ("gkc", None, "load_snapshot", "servingkit.load_snapshot", None, None),
    ("gkc", "VersionStore", "publish_snapshot", "gkc.publish_store", None, None),
    ("servingkit", "KnowledgeSnapshot", "compose_batch", "servingkit.compose_batch",
     _compose_counts, None),
]


class _Frame:
    __slots__ = ("sid", "child")

    def __init__(self, sid: int):
        self.sid = sid
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._restore: list[tuple] = []
        self.paused = False  # set while the benchmark runs untimed warm-ups

    def count(self, name: str, value) -> None:
        self.counts[name] += value

    def _wrap(self, fn, name, after, before):
        tracer = self
        local = self._local

        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                if not tracer.paused:
                    after(tracer, result, args, kwargs)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            frame = _Frame(next(tracer._ids))
            if before is not None:
                before(tracer, args, kwargs)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame.child
                tracer.calls[name] += 1
                if parent is not None:
                    parent.child += dur
                tracer.spans.append((frame.sid, parent.sid if parent else 0, name,
                                     threading.get_ident(), t0, t1))
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        return traced

    def install(self, targets) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "knowplug" or n.startswith("knowplug.")]
        for mod_name, owner, attr, name, after, before in targets:
            mod = sys.modules[f"knowplug.{mod_name}"]
            if owner is not None:
                cls = getattr(mod, owner)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(orig, name, after, before))
                self._restore.append((cls, attr, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, name, after, before)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, orig))
        return self

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    def summary(self) -> dict:
        return {"self_s": dict(self.self_time), "total_s": dict(self.total),
                "calls": dict(self.calls), "counts": dict(self.counts)}

    def dump(self, path) -> None:
        """Write the aggregates and every span, one JSON document."""
        doc = self.summary()
        doc["span_fields"] = ["id", "parent", "name", "thread", "start", "end"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)
