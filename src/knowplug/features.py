"""Sparse-feature front end shared by every model here: embedding tables
plus behavior-sequence pooling, producing one dense interaction vector.

Feature ids hash onto their tables with modulo folding. Behavior
sequences arrive right-padded with -1; padded positions are masked out of
both pooling and gradient scatter.
"""

from __future__ import annotations

import numpy as np

from .nncore import AttentionPooler, EmbeddingTable, Module, ShapeError

FEATURE_ORDER = ("user", "item", "shop", "category")


class SparseFeatureNet(Module):
    """Embeddings + pooled behavior concatenated into the MLP input.

    pool: 'attention' (DIN-style against pool_target's embedding),
    'mean' (masked average, for tower models with no candidate item), or
    'none'. Parameter names start with `prefix`, so two nets can sit in
    one model.
    """

    def __init__(self, vocabs: dict[str, int], rng: np.random.Generator, *,
                 include: tuple[str, ...] = FEATURE_ORDER,
                 user_dim: int = 48, feature_dim: int = 16,
                 pool: str = "attention", pool_target: str = "item",
                 att_hidden: int = 16, prefix: str = ""):
        if pool == "attention" and pool_target not in include:
            raise ShapeError(f"attention target '{pool_target}' must be an included feature")
        self.include = tuple(f for f in FEATURE_ORDER if f in include)
        self.user_dim = user_dim
        self.feature_dim = feature_dim
        self.pool = pool
        self.pool_target = pool_target
        self.prefix = prefix
        self.tables: dict[str, EmbeddingTable] = {}
        for feat in self.include:
            dim = user_dim if feat == "user" else feature_dim
            self.tables[feat] = EmbeddingTable.build(feat, vocabs[feat], dim, rng)
        self.pooler: AttentionPooler | None = None
        if pool != "none":
            self.tables["behavior"] = EmbeddingTable.build("behavior", vocabs["item"],
                                                           feature_dim, rng)
            if pool == "attention":
                self.pooler = AttentionPooler.build(feature_dim, att_hidden, rng)

    @property
    def out_dim(self) -> int:
        dim = sum(self.tables[f].dim for f in self.include)
        if self.pool != "none":
            dim += self.feature_dim
        return dim

    def walk_slots(self):
        for feat, tab in self.tables.items():
            yield f"{self.prefix}emb_{feat}", tab, "rows"
        if self.pooler is not None:
            yield from self.pooler.att_mlp.slots(f"{self.prefix}att")

    def forward(self, feats: dict[str, np.ndarray]) -> tuple[np.ndarray, dict]:
        parts = [self.tables[f].lookup(feats[f]) for f in self.include]
        cache: dict = {"feats": feats}
        if self.pool != "none":
            beh = feats["behavior"]
            mask = beh >= 0
            embs = self.tables["behavior"].lookup(np.where(mask, beh, 0))
            embs = embs * mask[:, :, None]
            if self.pool == "attention":
                target = parts[self.include.index(self.pool_target)]
                pooled, att_cache = self.pooler.forward_batch(
                    embs, target, feats["behavior_len"])
                cache["att"] = att_cache
            else:
                denom = np.maximum(feats["behavior_len"], 1).astype(embs.dtype)
                pooled = embs.sum(axis=1) / denom[:, None]
                cache["mean_denom"] = denom
            cache["beh_mask"] = mask
            parts.append(pooled)
        cache["seg_dims"] = [p.shape[1] for p in parts]
        return np.concatenate(parts, axis=1), cache

    def backward(self, cache: dict, dx: np.ndarray,
                 grads: dict[str, np.ndarray]) -> None:
        """Accumulate gradients for one forward into `grads` (keyed like
        params()); missing keys are created zero-filled."""
        feats = cache["seg_dims"]
        splits = np.cumsum(feats)[:-1]
        segs = np.split(dx, splits, axis=1)
        dsegs = {f: segs[i] for i, f in enumerate(self.include)}
        if self.pool != "none":
            dpooled = segs[-1]
            mask = cache["beh_mask"]
            if self.pool == "attention":
                att_grads, dbehav, dtarget = self.pooler.backward_batch(cache["att"], dpooled)
                dsegs[self.pool_target] = dsegs[self.pool_target] + dtarget
                self.pooler.att_mlp.add_grads(grads, f"{self.prefix}att", att_grads)
            else:
                dbehav = np.broadcast_to(
                    (dpooled / cache["mean_denom"][:, None])[:, None, :],
                    mask.shape + (dpooled.shape[1],))
            dbehav = dbehav * mask[:, :, None]
            beh = cache["feats"]["behavior"]
            tab = self.tables["behavior"]
            _scatter(grads, f"{self.prefix}emb_behavior", tab, np.where(mask, beh, 0),
                     dbehav)
        for f in self.include:
            _scatter(grads, f"{self.prefix}emb_{f}", self.tables[f], cache["feats"][f],
                     dsegs[f])


def _scatter(grads: dict, name: str, table: EmbeddingTable,
             ids: np.ndarray, grad_rows: np.ndarray) -> None:
    if name not in grads:
        grads[name] = np.zeros_like(table.rows, dtype=grad_rows.dtype)
    table.scatter_grad(ids, grad_rows, out=grads[name])


def batch_features(batch, include_user: bool = True) -> dict[str, np.ndarray]:
    """Pull the feature arrays a SparseFeatureNet consumes out of a
    columnar RecordBatch."""
    feats = {"item": batch.item_id, "shop": batch.shop_id,
             "category": batch.category_id, "behavior": batch.behavior,
             "behavior_len": batch.behavior_len}
    if include_user:
        feats["user"] = batch.user_id
    return feats


class ManifestError(ValueError):
    """Stored tensors do not line up with the model's parameter slots."""


def assign_params(slots, new: dict[str, np.ndarray], dtype=np.float32) -> None:
    """Copy a named tensor dict into a model's parameter slots.

    `slots` is the model's walk_slots() listing. Raises with the full
    missing/extra name lists on any manifest mismatch.
    """
    slots = list(slots)
    names = [name for name, _, _ in slots]
    missing = sorted(set(names) - set(new))
    extra = sorted(set(new) - set(names))
    if missing or extra:
        raise ManifestError(f"parameter manifest mismatch: missing={missing} extra={extra}")
    for name, obj, attr in slots:
        val = np.asarray(new[name], dtype=dtype)
        cur = getattr(obj, attr)
        if val.shape != cur.shape:
            raise ManifestError(f"parameter '{name}': shape {val.shape} != {cur.shape}")
        setattr(obj, attr, val.copy())
