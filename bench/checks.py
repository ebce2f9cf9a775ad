"""Reference computations the benchmark checks the program against.

Each is written apart from knowplug's own code path: GAUC by one
vectorised rank-sum, click log-loss in float64, and served knowledge
composed from a snapshot's sorted key arrays by binary search.
"""

from __future__ import annotations

import numpy as np


def gauc_reference(users, scores, labels) -> float:
    """Impression-weighted mean of per-user AUC; single-class users are
    left out of both sums; tied scores share their average rank."""
    users = np.asarray(users)
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    order = np.lexsort((scores, users))
    u, s, y = users[order], scores[order], labels[order]
    n = len(u)
    new_user = np.r_[True, u[1:] != u[:-1]]
    uid = np.cumsum(new_user) - 1
    first = np.flatnonzero(new_user)
    rank = np.arange(n) - first[uid] + 1.0
    new_tie = new_user | np.r_[True, s[1:] != s[:-1]]
    tid = np.cumsum(new_tie) - 1
    rank = (np.bincount(tid, weights=rank) / np.bincount(tid))[tid]
    n_pos = np.bincount(uid, weights=y)
    n_all = np.bincount(uid).astype(np.float64)
    n_neg = n_all - n_pos
    rank_sum = np.bincount(uid, weights=rank * y)
    ok = (n_pos > 0) & (n_neg > 0)
    auc = (rank_sum[ok] - n_pos[ok] * (n_pos[ok] + 1) / 2) / (n_pos[ok] * n_neg[ok])
    return float((auc * n_all[ok]).sum() / n_all[ok].sum())


def click_logloss(logits, labels) -> float:
    """Mean binary cross-entropy of sigmoid(logit), computed stably."""
    s = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    return float(np.mean(np.logaddexp(0.0, s) - y * s))


def _find(keys: np.ndarray, want: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row index of each wanted key in a sorted key array, and presence."""
    pos = np.searchsorted(keys, want)
    pos = np.minimum(pos, max(len(keys) - 1, 0))
    found = (keys[pos] == want) if len(keys) else np.zeros(len(want), dtype=bool)
    return pos, found


class ServedReference:
    """Expected GKC answers, composed from one snapshot's key and vector
    arrays. Version 1 is the snapshot itself; version v > 1 serves its
    vectors plus (v - 1), so vectors of any two versions differ and a
    mixed or misrouted answer shows."""

    def __init__(self, snapshot):
        self.user_dim = snapshot.user_dim
        self.dim_total = 3 * snapshot.user_dim + snapshot.uc_dim
        self.user_keys = snapshot.user_keys.astype(np.uint64)
        self.item_keys = snapshot.item_keys.astype(np.uint64)
        self.uc_keys = (snapshot.uc_user_keys.astype(np.uint64) << np.uint64(32)) \
            | snapshot.uc_cat_keys.astype(np.uint64)
        for keys in (self.user_keys, self.item_keys, self.uc_keys):
            if len(keys) > 1 and not np.all(keys[1:] > keys[:-1]):
                raise ValueError("snapshot keys are not strictly ascending")
        self.user_vecs = snapshot.user_vecs
        self.item_vecs = snapshot.item_vecs
        self.uc_vecs = snapshot.uc_vecs

    @staticmethod
    def _shift(vecs: np.ndarray, version: int) -> np.ndarray:
        return vecs if version == 1 else vecs + np.float32(version - 1)

    def version_arrays(self, version: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(self._shift(v, version)
                     for v in (self.user_vecs, self.item_vecs, self.uc_vecs))

    def expected(self, users, items, cats, version: int
                 ) -> tuple[np.ndarray, np.ndarray]:
        """(matrix (n, dim_total) float32, found mask u8) for one version."""
        users = np.asarray(users, dtype=np.uint64)
        items = np.asarray(items, dtype=np.uint64)
        cats = np.asarray(cats, dtype=np.uint64)
        parts, bits = [], np.zeros(len(users), dtype=np.uint8)
        for bit, keys, vecs, want in (
                (1, self.user_keys, self.user_vecs, users),
                (2, self.item_keys, self.item_vecs, items),
                (4, self.uc_keys, self.uc_vecs, (users << np.uint64(32)) | cats)):
            pos, found = _find(keys, want)
            rows = np.zeros((len(want), vecs.shape[1]), dtype=np.float32)
            rows[found] = self._shift(vecs[pos[found]], version)
            parts.append(rows)
            bits |= found.astype(np.uint8) * np.uint8(bit)
        ku, ki, kuc = parts
        return np.concatenate([ku, ki, ku * ki, kuc], axis=1), bits


def entries_match(entries, mat: np.ndarray, bits: np.ndarray) -> bool:
    """Served entries equal the expected rows bit for bit, status OK and
    found bits equal to key presence."""
    if len(entries) != len(mat):
        return False
    status = np.fromiter((e.status for e in entries), dtype=np.uint8, count=len(entries))
    mask = np.fromiter((e.found_mask for e in entries), dtype=np.uint8, count=len(entries))
    if status.any() or not np.array_equal(mask, bits):
        return False
    got = np.stack([e.vector for e in entries]).astype(np.float32, copy=False)
    return got.shape == mat.shape and np.array_equal(got.view(np.uint32),
                                                     mat.view(np.uint32))
