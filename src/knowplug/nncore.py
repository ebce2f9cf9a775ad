"""Dense numeric core: embeddings, MLP stacks, attention pooling, Adam.

All parameters are float32 numpy arrays (a "matrix" here is a C-order 2-D
ndarray, rows x cols). Gradients are hand-written analytic passes, no
autodiff. Ops derive their dtype from the inputs, so a float64 copy of a
model runs the same code path in float64 (used by finite-difference
checks). Loss-style reductions accumulate in float64.

A model built from these parts is single-writer: one logical thread
mutates it during training. Forward passes on a frozen model are safe
from any number of threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Matrix = np.ndarray


class ShapeError(ValueError):
    """Operand dimensions do not chain."""


class StateError(RuntimeError):
    """Operation needs state (e.g. a forward trace) that is missing."""


class NumericError(ArithmeticError):
    """Non-finite value where a finite one is required."""


def check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in '{name}'")


def glorot_uniform(rng: np.random.Generator, in_dim: int, out_dim: int) -> Matrix:
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-bound, bound, size=(in_dim, out_dim)).astype(np.float32)


class Module:
    """Anything with named parameters: walk_slots() yields (name, owner,
    attribute) for every parameter array, in a fixed order."""

    def walk_slots(self):
        raise NotImplementedError

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(obj, attr) for name, obj, attr in self.walk_slots()}


def accumulate(grads: dict[str, np.ndarray], name: str, g: np.ndarray) -> None:
    """Add `g` into grads[name]; the first contribution is stored as is."""
    if name in grads:
        grads[name] += g
    else:
        grads[name] = g


# ---------------------------------------------------------------------------
# embeddings


@dataclass
class EmbeddingTable:
    """Row store for one sparse feature.

    hash_mode 'modulo' folds arbitrary ids onto the table (collisions
    accepted); 'identity' requires ids < vocab_size.
    """

    name: str
    vocab_size: int
    dim: int
    rows: Matrix
    hash_mode: str = "modulo"

    @classmethod
    def build(cls, name: str, vocab_size: int, dim: int,
              rng: np.random.Generator, hash_mode: str = "modulo") -> "EmbeddingTable":
        if dim <= 0 or vocab_size <= 0:
            raise ShapeError(f"embedding '{name}': vocab_size and dim must be positive")
        rows = rng.uniform(-0.01, 0.01, size=(vocab_size, dim)).astype(np.float32)
        return cls(name=name, vocab_size=vocab_size, dim=dim, rows=rows, hash_mode=hash_mode)

    def indices(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if self.hash_mode == "modulo":
            return ids % self.vocab_size
        if np.any(ids < 0) or np.any(ids >= self.vocab_size):
            raise ShapeError(f"embedding '{self.name}': id out of range under identity hashing")
        return ids

    def lookup(self, ids: np.ndarray) -> Matrix:
        return self.rows[self.indices(ids)]

    def scatter_grad(self, ids: np.ndarray, grad_rows: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
        """Accumulate per-lookup gradients into a dense table gradient.

        Rows never looked up stay exactly zero. bincount per column is
        much faster than np.add.at for the repeated-id batches seen here.
        """
        if out is None:
            out = np.zeros_like(self.rows, dtype=grad_rows.dtype)
        idx = self.indices(ids).reshape(-1)
        flat = grad_rows.reshape(-1, self.dim)
        for j in range(self.dim):
            out[:, j] += np.bincount(idx, weights=flat[:, j],
                                     minlength=self.vocab_size).astype(out.dtype)
        return out


# ---------------------------------------------------------------------------
# dense layers


@dataclass
class DenseLayer:
    weight: Matrix  # in_dim x out_dim
    bias: np.ndarray  # out_dim
    activation: str = "relu"  # 'relu' | 'none'

    @classmethod
    def build(cls, in_dim: int, out_dim: int, rng: np.random.Generator,
              activation: str = "relu") -> "DenseLayer":
        return cls(weight=glorot_uniform(rng, in_dim, out_dim),
                   bias=np.zeros(out_dim, dtype=np.float32),
                   activation=activation)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]

    def forward(self, x: Matrix) -> Matrix:
        if x.shape[1] != self.in_dim:
            raise ShapeError(f"dense layer expects {self.in_dim} input columns, got {x.shape[1]}")
        out = x @ self.weight + self.bias
        if self.activation == "relu":
            out = np.maximum(out, 0)
        return out


@dataclass
class MlpStack:
    """Ordered dense layers; forward keeps every layer output for tapping
    intermediate representations and for the backward pass."""

    layers: list[DenseLayer]

    @classmethod
    def build(cls, dims: list[int], rng: np.random.Generator,
              final_activation: str = "none") -> "MlpStack":
        if len(dims) < 2:
            raise ShapeError("an MLP stack needs at least [in_dim, out_dim]")
        layers = []
        for i in range(len(dims) - 1):
            act = final_activation if i == len(dims) - 2 else "relu"
            layers.append(DenseLayer.build(dims[i], dims[i + 1], rng, activation=act))
        return cls(layers=layers)

    @property
    def layer_dims(self) -> list[int]:
        return [self.layers[0].in_dim] + [l.out_dim for l in self.layers]

    def slots(self, prefix: str):
        """Parameter slots `{prefix}_l{i}_w` and `{prefix}_l{i}_b`, layer order."""
        for i, layer in enumerate(self.layers):
            yield f"{prefix}_l{i}_w", layer, "weight"
            yield f"{prefix}_l{i}_b", layer, "bias"

    def add_grads(self, grads: dict[str, np.ndarray], prefix: str,
                  layer_grads: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Accumulate backward()'s per-layer (dW, db) under the names of
        slots(prefix)."""
        flat = (g for pair in layer_grads for g in pair)
        for (name, _, _), g in zip(self.slots(prefix), flat):
            accumulate(grads, name, g)

    def forward(self, x: Matrix) -> tuple[Matrix, list[Matrix]]:
        trace = []
        h = x
        for layer in self.layers:
            h = layer.forward(h)
            trace.append(h)
        return trace[-1], trace

    def backward(self, x: Matrix, trace: list[Matrix],
                 upstream: Matrix) -> tuple[list[tuple[np.ndarray, np.ndarray]], Matrix]:
        """Gradients of a scalar loss given d(loss)/d(last layer output).

        Returns ([(dW, db) per layer], d(loss)/dx). Needs the trace from the
        matching forward call.
        """
        if len(trace) != len(self.layers):
            raise StateError("forward trace does not match the layer count")
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(self.layers)  # type: ignore
        d = upstream
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            h = trace[i]
            if d.shape != h.shape:
                raise ShapeError(f"upstream gradient shape {d.shape} != layer output {h.shape}")
            if layer.activation == "relu":
                d = d * (h > 0)
            h_prev = trace[i - 1] if i > 0 else x
            grads[i] = (h_prev.T @ d, d.sum(axis=0))
            d = d @ layer.weight.T
        return grads, d


# ---------------------------------------------------------------------------
# attention pooling


def masked_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise softmax over positions where mask is True.

    Rows with no valid position come back all-zero (an empty behavior
    sequence pools to the zero vector).
    """
    neg = np.array(-np.inf, dtype=scores.dtype)
    masked = np.where(mask, scores, neg)
    any_valid = mask.any(axis=1, keepdims=True)
    peak = np.where(any_valid, masked.max(axis=1, keepdims=True), 0)
    e = np.exp(masked - peak)
    e = np.where(mask, e, 0)
    denom = e.sum(axis=1, keepdims=True)
    return np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)


@dataclass
class AttentionPooler:
    """DIN-style pooling: score each behavior item against the target via a
    small MLP on [e_t ; e_target ; e_t * e_target], softmax the scores over
    positions, return the weighted sum of behavior embeddings."""

    att_mlp: MlpStack

    @classmethod
    def build(cls, emb_dim: int, hidden: int, rng: np.random.Generator) -> "AttentionPooler":
        return cls(att_mlp=MlpStack.build([3 * emb_dim, hidden, 1], rng))

    @property
    def emb_dim(self) -> int:
        return self.att_mlp.layers[0].in_dim // 3

    def forward_batch(self, behav: np.ndarray, target: np.ndarray,
                      lengths: np.ndarray) -> tuple[np.ndarray, dict]:
        """behav: (n, B, d) with zero padding, target: (n, d), lengths: (n,)."""
        n, b, d = behav.shape
        if target.shape != (n, d):
            raise ShapeError(f"target shape {target.shape} does not match behaviors {behav.shape}")
        mask = np.arange(b)[None, :] < np.asarray(lengths)[:, None]
        tgt = target[:, None, :]
        att_in = np.concatenate(
            [behav, np.broadcast_to(tgt, behav.shape), behav * tgt], axis=2
        ).reshape(n * b, 3 * d)
        scores_flat, att_trace = self.att_mlp.forward(att_in)
        weights = masked_softmax(scores_flat.reshape(n, b), mask)
        pooled = np.einsum("nb,nbd->nd", weights, behav)
        cache = dict(behav=behav, target=target, mask=mask,
                     att_in=att_in, att_trace=att_trace, weights=weights)
        return pooled, cache

    def backward_batch(self, cache: dict, dpooled: np.ndarray
                       ) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray]:
        """Returns (att_mlp grads, d_behav (n,B,d), d_target (n,d))."""
        behav, target, weights = cache["behav"], cache["target"], cache["weights"]
        n, b, d = behav.shape
        dweights = np.einsum("nd,nbd->nb", dpooled, behav)
        dbehav = weights[:, :, None] * dpooled[:, None, :]
        # softmax jacobian; padded positions carry weight 0 hence dscore 0
        inner = (weights * dweights).sum(axis=1, keepdims=True)
        dscores = weights * (dweights - inner)
        att_grads, datt_in = self.att_mlp.backward(
            cache["att_in"], cache["att_trace"], dscores.reshape(n * b, 1))
        datt_in = datt_in.reshape(n, b, 3 * d)
        tgt = target[:, None, :]
        dbehav = dbehav + datt_in[:, :, :d] + datt_in[:, :, 2 * d:] * tgt
        dtarget = (datt_in[:, :, d:2 * d] + datt_in[:, :, 2 * d:] * behav).sum(axis=1)
        return att_grads, dbehav, dtarget


def attention_pool(pooler: AttentionPooler, behavior_embs: np.ndarray,
                   target_emb: np.ndarray) -> np.ndarray:
    """Pool one behavior sequence (T, d) against one target (d,).

    An empty sequence pools to the zero vector.
    """
    target_emb = np.asarray(target_emb)
    d = target_emb.shape[0]
    seq = np.asarray(behavior_embs, dtype=target_emb.dtype).reshape(-1, d)
    t = seq.shape[0]
    if t == 0:
        return np.zeros(d, dtype=target_emb.dtype)
    pooled, _ = pooler.forward_batch(seq[None, :, :], target_emb[None, :],
                                     np.array([t]))
    return pooled[0]


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Standard Adam with bias correction; moment buffers mirror the
    parameter dict."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def ensure(self, params: dict[str, np.ndarray]) -> None:
        for name, p in params.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)


def adam_step(state: AdamState, params: dict[str, np.ndarray],
              grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One in-place Adam update over a named parameter dict."""
    state.ensure(params)
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter '{name}' shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter '{name}'")
        m = state.m[name]
        v = state.v[name]
        m += (1.0 - state.beta1) * (g - m)
        v += (1.0 - state.beta2) * (g * g - v)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return params


def adam_update(state: AdamState, params: dict[str, np.ndarray],
                grads: dict[str, np.ndarray]) -> None:
    """adam_step over every parameter; one the loss did not reach gets a
    zero gradient, so its moments still decay."""
    adam_step(state, params, {k: grads[k] if k in grads else np.zeros_like(v)
                              for k, v in params.items()})
