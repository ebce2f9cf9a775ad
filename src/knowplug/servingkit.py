"""Cacheable knowledge: decomposition, degeneration, snapshots.

Pairwise (user, item) knowledge cannot be cached at production scale --
the entry count is n_users * n_items. Two strategies make it cacheable:

* decomposition: a two-tower model whose click logit is the dot product
  of a user vector and an item vector; interaction knowledge becomes the
  element-wise product of cached per-user and per-item vectors.
* degeneration: an attention model whose item-side features are replaced
  by category-side features, so interaction knowledge is cacheable per
  observed (user, category) pair.

The served vector for (u, i, c) is the concatenation
[ku ; ki ; ku * ki ; kuc]. A snapshot is a versioned, immutable export of
the three maps; its binary file layout (little-endian keys interleaved
with float32 vectors, sorted by key) is fixed so services reload it
bit-exactly.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass

import numpy as np

from . import checkpoint as ckpt
from .datagen import Catalog, RecordBatch
from .extractor import DaySteps, hybrid_loss_grad, with_pairs
from .features import SparseFeatureNet, assign_params, batch_features
from .nncore import AdamState, MlpStack, Module, ShapeError, adam_update

SNAPSHOT_MAGIC = b"GKS1"
SNAPSHOT_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# models


@dataclass
class DecomposedConfig:
    user_vocab: int
    item_vocab: int
    shop_vocab: int
    category_vocab: int
    user_dim: int = 48
    feature_dim: int = 16
    tower_hidden: int = 32
    knowledge_dim: int = 16
    seed: int = 0


class DecomposedExtractor(Module):
    """Two-tower click model: logit = <user tower, item tower>.

    The user tower sees the user id and a mean-pooled behavior sequence
    (attention against a candidate item is impossible by construction);
    the item tower sees item/shop/category. Both towers emit
    `knowledge_dim` so the element-wise product is defined.
    """

    def __init__(self, cfg: DecomposedConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        vocabs = {"user": cfg.user_vocab, "item": cfg.item_vocab,
                  "shop": cfg.shop_vocab, "category": cfg.category_vocab}
        self.user_encoder = SparseFeatureNet(
            vocabs, rng, include=("user",), user_dim=cfg.user_dim,
            feature_dim=cfg.feature_dim, pool="mean", prefix="ut_")
        self.user_tower = MlpStack.build(
            [self.user_encoder.out_dim, cfg.tower_hidden, cfg.knowledge_dim], rng)
        self.item_encoder = SparseFeatureNet(
            vocabs, rng, include=("item", "shop", "category"),
            feature_dim=cfg.feature_dim, pool="none", prefix="it_")
        self.item_tower = MlpStack.build(
            [self.item_encoder.out_dim, cfg.tower_hidden, cfg.knowledge_dim], rng)

    def walk_slots(self):
        yield from self.user_encoder.walk_slots()
        yield from self.user_tower.slots("ut")
        yield from self.item_encoder.walk_slots()
        yield from self.item_tower.slots("it")

    def user_vectors(self, feats: dict) -> tuple[np.ndarray, dict]:
        x, enc = self.user_encoder.forward(feats)
        out, trace = self.user_tower.forward(x)
        return out, {"x": x, "enc": enc, "trace": trace}

    def item_vectors(self, feats: dict) -> tuple[np.ndarray, dict]:
        x, enc = self.item_encoder.forward(feats)
        out, trace = self.item_tower.forward(x)
        return out, {"x": x, "enc": enc, "trace": trace}

    def score_batch(self, batch: RecordBatch) -> tuple[np.ndarray, dict]:
        feats = batch_features(batch)
        ku, ucache = self.user_vectors(feats)
        ki, icache = self.item_vectors(feats)
        logits = np.einsum("nd,nd->n", ku, ki)
        return logits, {"ku": ku, "ki": ki, "u": ucache, "i": icache}

    def backward_batch(self, cache: dict, dlogit: np.ndarray,
                       grads: dict[str, np.ndarray]) -> None:
        dku = dlogit[:, None] * cache["ki"]
        dki = dlogit[:, None] * cache["ku"]
        for prefix, tower, enc, c, d in (
                ("ut", self.user_tower, self.user_encoder, cache["u"], dku),
                ("it", self.item_tower, self.item_encoder, cache["i"], dki)):
            layer_grads, dx = tower.backward(c["x"], c["trace"], d)
            tower.add_grads(grads, prefix, layer_grads)
            enc.backward(c["enc"], dx, grads)


@dataclass
class DegeneratedConfig:
    user_vocab: int
    item_vocab: int  # behavior sequences still hold item ids
    category_vocab: int
    user_dim: int = 48
    feature_dim: int = 16
    head_dims: tuple[int, ...] = (64, 32, 16, 8, 2)
    att_hidden: int = 8
    seed: int = 0


class DegeneratedExtractor(Module):
    """Interaction model with item-side features replaced by the
    category: attention pools behaviors against the category embedding,
    the head's second-last layer output is the per-(user, category)
    knowledge. The candidate-item input schema contains no item or shop
    ids; the behavior sequence (a user-side feature) is unchanged."""

    def __init__(self, cfg: DegeneratedConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        vocabs = {"user": cfg.user_vocab, "category": cfg.category_vocab,
                  "item": cfg.item_vocab}
        self.encoder = SparseFeatureNet(
            vocabs, rng, include=("user", "category"), user_dim=cfg.user_dim,
            feature_dim=cfg.feature_dim, pool="attention", pool_target="category",
            att_hidden=cfg.att_hidden, prefix="dg_")
        self.head = MlpStack.build([self.encoder.out_dim, *cfg.head_dims], rng)

    @property
    def knowledge_dim(self) -> int:
        return self.cfg.head_dims[-2]

    def walk_slots(self):
        yield from self.encoder.walk_slots()
        yield from self.head.slots("dg")

    def uc_vectors(self, feats: dict) -> np.ndarray:
        """Per-(user, category) knowledge: the head without its last layer."""
        x, _ = self.encoder.forward(feats)
        kuc, _ = MlpStack(self.head.layers[:-1]).forward(x)
        return kuc

    def score_batch(self, batch: RecordBatch) -> tuple[np.ndarray, dict]:
        x, enc = self.encoder.forward(batch_features(batch))
        out, trace = self.head.forward(x)
        return out[:, 0] - out[:, 1], {"x": x, "enc": enc, "trace": trace}

    def backward_batch(self, cache: dict, dlogit: np.ndarray,
                       grads: dict[str, np.ndarray]) -> None:
        dout = np.stack([dlogit, -dlogit], axis=1)
        layer_grads, dx = self.head.backward(cache["x"], cache["trace"], dout)
        self.head.add_grads(grads, "dg", layer_grads)
        self.encoder.backward(cache["enc"], dx, grads)


SERVING_MODELS = {"decomposed": (DecomposedConfig, DecomposedExtractor),
                  "degenerated": (DegeneratedConfig, DegeneratedExtractor)}


def load_serving_model(path) -> DecomposedExtractor | DegeneratedExtractor:
    """A decomposed or degenerated model from its checkpoint."""
    c = ckpt.load_checkpoint(path)
    if c.kind not in SERVING_MODELS:
        raise ckpt.CheckpointError(f"{path}: expected a serving model checkpoint, "
                                   f"got '{c.kind}'")
    cfg_cls, model_cls = SERVING_MODELS[c.kind]
    model = model_cls(ckpt.config_from(cfg_cls, c.config))
    assign_params(model.walk_slots(), c.model_tensors())
    return model


def train_click_epoch(model, optimizer: AdamState, log: RecordBatch, days,
                      batch_size: int, seed: int, alpha: float = 0.0,
                      triplet_cap: int = 3, log_fn=None) -> list[float]:
    """Single-epoch click training for serving-side models (anything with
    score_batch/backward_batch/params). alpha > 0 adds the same-session
    pairwise term."""
    day_means = []
    for day in sorted(days):
        plan = DaySteps(log, day, seed, batch_size)
        if alpha > 0:
            plan.pair("click", plan.rows, triplet_cap, (seed, day))
        total = 0.0
        for s in range(plan.steps):
            base = plan.batch(s)
            logits, cache = model.score_batch(with_pairs(base, plan.pairs(s).get("click")))
            loss, dlogit = hybrid_loss_grad(logits, base.click, alpha)
            grads: dict[str, np.ndarray] = {}
            model.backward_batch(cache, dlogit, grads)
            adam_update(optimizer, model.params(), grads)
            total += loss.hybrid
        n = len(plan.rows)
        day_means.append(total / max(n, 1))
        if log_fn:
            log_fn(f"day {day}: loss/sample={day_means[-1]:.4f} ({n} impressions)")
    return day_means


# ---------------------------------------------------------------------------
# composition and cache accounting


def compose_serving_knowledge(k_u: np.ndarray, k_i: np.ndarray,
                              k_uc: np.ndarray) -> np.ndarray:
    """[k_u ; k_i ; k_u * k_i ; k_uc] -- the cache-composable serving form."""
    k_u, k_i, k_uc = np.asarray(k_u), np.asarray(k_i), np.asarray(k_uc)
    if k_u.shape != k_i.shape:
        raise ShapeError(f"user/item knowledge dims differ: {k_u.shape} vs {k_i.shape}")
    return np.concatenate([k_u, k_i, k_u * k_i, k_uc])


def count_cache_entries(n_users: int, n_items: int,
                        n_user_category_pairs: int) -> tuple[int, int]:
    """(pairwise entry count, decomposed+degenerated entry count)."""
    if min(n_users, n_items, n_user_category_pairs) < 0:
        raise ValueError("counts must be nonnegative")
    pairwise = n_users * n_items
    if pairwise >= 2 ** 63:
        raise OverflowError(f"pairwise cache entry count {pairwise} exceeds 2^63 - 1")
    return pairwise, n_users + n_items + n_user_category_pairs


# ---------------------------------------------------------------------------
# snapshots


@dataclass
class KnowledgeSnapshot:
    """Versioned, immutable export of the three knowledge maps."""

    version: int
    user_dim: int
    item_dim: int
    uc_dim: int
    user_keys: np.ndarray
    user_vecs: np.ndarray
    item_keys: np.ndarray
    item_vecs: np.ndarray
    uc_user_keys: np.ndarray
    uc_cat_keys: np.ndarray
    uc_vecs: np.ndarray
    created_ts: float = 0.0

    def __post_init__(self):
        if self.user_dim != self.item_dim:
            raise ShapeError("user and item knowledge dims must match for the product slot")
        self._user_index = {int(k): i for i, k in enumerate(self.user_keys)}
        self._item_index = {int(k): i for i, k in enumerate(self.item_keys)}
        self._uc_index = {(int(u), int(c)): i for i, (u, c)
                          in enumerate(zip(self.uc_user_keys, self.uc_cat_keys))}

    def __len__(self) -> int:
        return len(self.user_keys) + len(self.item_keys) + len(self.uc_user_keys)

    @property
    def dim_total(self) -> int:
        return 3 * self.user_dim + self.uc_dim

    def _gather(self, index: dict, keys, vecs: np.ndarray, dim: int
                ) -> tuple[np.ndarray, np.ndarray]:
        n = len(keys)
        out = np.zeros((n, dim), dtype=np.float32)
        found = np.zeros(n, dtype=bool)
        for row, key in enumerate(keys):
            i = index.get(key)
            if i is not None:
                out[row] = vecs[i]
                found[row] = True
        return out, found

    def lookup_users(self, ids) -> tuple[np.ndarray, np.ndarray]:
        return self._gather(self._user_index, [int(u) for u in ids],
                            self.user_vecs, self.user_dim)

    def lookup_items(self, ids) -> tuple[np.ndarray, np.ndarray]:
        return self._gather(self._item_index, [int(i) for i in ids],
                            self.item_vecs, self.item_dim)

    def lookup_uc(self, users, cats) -> tuple[np.ndarray, np.ndarray]:
        keys = [(int(u), int(c)) for u, c in zip(users, cats)]
        return self._gather(self._uc_index, keys, self.uc_vecs, self.uc_dim)

    def compose_batch(self, users, items, cats
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Serving vectors for aligned id arrays.

        Returns (matrix (n, dim_total), found_u, found_i, found_uc);
        missing keys contribute zero slices.
        """
        ku, fu = self.lookup_users(users)
        ki, fi = self.lookup_items(items)
        kuc, fuc = self.lookup_uc(users, cats)
        mat = np.concatenate([ku, ki, ku * ki, kuc], axis=1)
        return mat, fu, fi, fuc


def build_snapshot(decomposed: DecomposedExtractor,
                   degenerated: DegeneratedExtractor,
                   users, items, uc_pairs, user_behavior: dict,
                   catalog: Catalog, version: int,
                   batch_size: int = 4096) -> KnowledgeSnapshot:
    """Materialize the three maps from frozen models.

    `user_behavior` maps user id -> behavior item tuple (the sequence
    snapshot to cache for that user); `uc_pairs` is the observed
    (user, category) id pairs, typically from the pre-training window.
    """
    users = np.asarray(sorted(int(u) for u in users), dtype=np.int64)
    items = np.asarray(sorted(int(i) for i in items), dtype=np.int64)
    pairs = sorted((int(u), int(c)) for u, c in uc_pairs)
    window = max([1] + [len(user_behavior.get(int(u), ())) for u in users])

    def beh(ids):
        mat = np.full((len(ids), window), -1, dtype=np.int64)
        lens = np.zeros(len(ids), dtype=np.int32)
        for r, u in enumerate(ids):
            seq = user_behavior.get(int(u), ())
            mat[r, :len(seq)] = seq
            lens[r] = len(seq)
        return mat, lens

    user_vecs = np.empty((len(users), decomposed.cfg.knowledge_dim), dtype=np.float32)
    for lo in range(0, len(users), batch_size):
        chunk = users[lo:lo + batch_size]
        mat, lens = beh(chunk)
        vecs, _ = decomposed.user_vectors(
            {"user": chunk, "behavior": mat, "behavior_len": lens})
        user_vecs[lo:lo + len(chunk)] = vecs

    item_vecs = np.empty((len(items), decomposed.cfg.knowledge_dim), dtype=np.float32)
    for lo in range(0, len(items), batch_size):
        chunk = items[lo:lo + batch_size]
        vecs, _ = decomposed.item_vectors(
            {"item": chunk, "shop": catalog.item_shop[chunk],
             "category": catalog.item_category[chunk]})
        item_vecs[lo:lo + len(chunk)] = vecs

    uc_u = np.asarray([p[0] for p in pairs], dtype=np.int64)
    uc_c = np.asarray([p[1] for p in pairs], dtype=np.int64)
    uc_vecs = np.empty((len(pairs), degenerated.knowledge_dim), dtype=np.float32)
    for lo in range(0, len(pairs), batch_size):
        cu, cc = uc_u[lo:lo + batch_size], uc_c[lo:lo + batch_size]
        mat, lens = beh(cu)
        uc_vecs[lo:lo + len(cu)] = degenerated.uc_vectors(
            {"user": cu, "category": cc, "behavior": mat, "behavior_len": lens})

    return KnowledgeSnapshot(
        version=version, user_dim=decomposed.cfg.knowledge_dim,
        item_dim=decomposed.cfg.knowledge_dim, uc_dim=degenerated.knowledge_dim,
        user_keys=users, user_vecs=user_vecs, item_keys=items, item_vecs=item_vecs,
        uc_user_keys=uc_u, uc_cat_keys=uc_c, uc_vecs=uc_vecs,
        created_ts=time.time())


def save_snapshot(path, snap: KnowledgeSnapshot) -> None:
    """Fixed byte layout: magic | u32 header len | header JSON | per map a
    sorted run of (little-endian key, float32 vector) entries."""
    header = json.dumps({
        "format_version": SNAPSHOT_FORMAT_VERSION, "version": snap.version,
        "dims": {"user": snap.user_dim, "item": snap.item_dim, "uc": snap.uc_dim},
        "counts": {"user": len(snap.user_keys), "item": len(snap.item_keys),
                   "uc": len(snap.uc_user_keys)},
        "created_ts": snap.created_ts}).encode()
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(_run(snap.user_keys, snap.user_vecs))
        fh.write(_run(snap.item_keys, snap.item_vecs))
        fh.write(_run_uc(snap.uc_user_keys, snap.uc_cat_keys, snap.uc_vecs))


def _run(keys: np.ndarray, vecs: np.ndarray) -> bytes:
    d = vecs.shape[1] if len(vecs.shape) > 1 else 0
    rec = np.empty(len(keys), dtype=np.dtype([("key", "<u8"), ("vec", "<f4", (d,))]))
    rec["key"] = keys.astype(np.uint64)
    rec["vec"] = vecs.astype("<f4")
    return rec.tobytes()


def _run_uc(users: np.ndarray, cats: np.ndarray, vecs: np.ndarray) -> bytes:
    d = vecs.shape[1] if len(vecs.shape) > 1 else 0
    rec = np.empty(len(users), dtype=np.dtype(
        [("u", "<u8"), ("c", "<u4"), ("vec", "<f4", (d,))]))
    rec["u"] = users.astype(np.uint64)
    rec["c"] = cats.astype(np.uint32)
    rec["vec"] = vecs.astype("<f4")
    return rec.tobytes()


def load_snapshot(path) -> KnowledgeSnapshot:
    from pathlib import Path
    data = Path(path).read_bytes()
    if data[:4] != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: not a knowledge snapshot")
    (hlen,) = struct.unpack_from("<I", data, 4)
    header = json.loads(data[8:8 + hlen])
    if header["format_version"] != SNAPSHOT_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported snapshot format "
                         f"{header['format_version']}")
    dims, counts = header["dims"], header["counts"]
    off = 8 + hlen
    udt = np.dtype([("key", "<u8"), ("vec", "<f4", (dims["user"],))])
    urec = np.frombuffer(data, dtype=udt, count=counts["user"], offset=off)
    off += udt.itemsize * counts["user"]
    idt = np.dtype([("key", "<u8"), ("vec", "<f4", (dims["item"],))])
    irec = np.frombuffer(data, dtype=idt, count=counts["item"], offset=off)
    off += idt.itemsize * counts["item"]
    ucdt = np.dtype([("u", "<u8"), ("c", "<u4"), ("vec", "<f4", (dims["uc"],))])
    ucrec = np.frombuffer(data, dtype=ucdt, count=counts["uc"], offset=off)
    off += ucdt.itemsize * counts["uc"]
    if off != len(data):
        raise ValueError(f"{path}: trailing bytes after snapshot payload")
    return KnowledgeSnapshot(
        version=header["version"], user_dim=dims["user"], item_dim=dims["item"],
        uc_dim=dims["uc"],
        user_keys=urec["key"].astype(np.int64), user_vecs=urec["vec"].copy(),
        item_keys=irec["key"].astype(np.int64), item_vecs=irec["vec"].copy(),
        uc_user_keys=ucrec["u"].astype(np.int64),
        uc_cat_keys=ucrec["c"].astype(np.int64), uc_vecs=ucrec["vec"].copy(),
        created_ts=header["created_ts"])
