"""Stage-2 downstream CTR model plus the plug-in network.

The downstream model is a plain embedding + attention + MLP click
predictor over the sub-domain feature set (no user id; user-level signal
arrives only through plugged knowledge). A plug-in network projects a
frozen knowledge vector to the width of one intermediate MLP layer and
adds it to that layer's output:

    h_k     = proj(knowledge)
    h'_m    = h_m + h_k

The plug is a split of the model's one `MlpStack`, not a second layer
loop: the layers up to m run as one stack, h_k is added, and the layers
after m run as another; both halves share the main stack's layers, so
the downstream architecture and its parameter names are unchanged and a
previously trained checkpoint restores exactly. The projection's final
layer is zero-initialized: attaching a plug to a warm-started model
leaves its first forward pass identical to the pre-attach model.
Knowledge never receives gradients; the extractor stays frozen by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checkpoint as ckpt
from .datagen import ImpressionRecord, RecordBatch
from .extractor import KnowledgeVector, pointwise_loss_grad
from .features import SparseFeatureNet, assign_params, batch_features
from .nncore import AdamState, MlpStack, Module, ShapeError, adam_update


# The default plug point: the output of the fourth-last MLP layer, 32 wide
# under the default mlp_dims.
PLUG_LAYER = -4


@dataclass
class DownstreamConfig:
    item_vocab: int
    shop_vocab: int
    category_vocab: int
    feature_dim: int = 16
    mlp_dims: tuple[int, ...] = (64, 32, 16, 8, 2)
    att_hidden: int = 8
    plug_layer: int = PLUG_LAYER
    seed: int = 0

    def validate(self) -> None:
        if self.mlp_dims[-1] != 2:
            raise ValueError("the final MLP layer must emit 2 values")
        n = len(self.mlp_dims)
        if not -n <= self.plug_layer < n:
            raise ValueError(f"plug_layer {self.plug_layer} names none of the "
                             f"{n} MLP layers")
        if self.plug_layer % n == n - 1:
            raise ValueError("plug_layer must leave at least one layer after it")


class DownstreamModel(Module):
    def __init__(self, cfg: DownstreamConfig):
        cfg.validate()
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        vocabs = {"item": cfg.item_vocab, "shop": cfg.shop_vocab,
                  "category": cfg.category_vocab}
        self.encoder = SparseFeatureNet(
            vocabs, rng, include=("item", "shop", "category"),
            feature_dim=cfg.feature_dim, pool="attention", pool_target="item",
            att_hidden=cfg.att_hidden)
        self.main = MlpStack.build([self.encoder.out_dim, *cfg.mlp_dims], rng)

    @property
    def plug_index(self) -> int:
        return self.cfg.plug_layer % len(self.main.layers)

    @property
    def plug_dim(self) -> int:
        return self.main.layers[self.plug_index].out_dim

    def walk_slots(self):
        yield from self.encoder.walk_slots()
        yield from self.main.slots("main")

    def _split(self) -> tuple[MlpStack, MlpStack]:
        """The main stack cut after the plug layer; both halves share its
        layers."""
        cut = self.plug_index + 1
        return MlpStack(self.main.layers[:cut]), MlpStack(self.main.layers[cut:])

    def forward_batch(self, batch: RecordBatch, plug: "PlugInNetwork | None" = None,
                      knowledge: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
        """Returns (logits, cache). With a plug, `knowledge` rows must align
        with the batch and the projection is added to the lower stack's
        output before the upper stack runs."""
        x, enc_cache = self.encoder.forward(batch_features(batch, include_user=False))
        lower, upper = self._split()
        h, lower_trace = lower.forward(x)
        cache: dict = {"x": x, "enc": enc_cache, "lower": lower_trace}
        if plug is not None:
            if knowledge is None:
                raise ShapeError("plugged forward needs a knowledge matrix")
            hk, cache["plug"] = plug.project(knowledge)
            if hk.shape != h.shape:
                raise ShapeError(f"plug output {hk.shape} != layer output {h.shape}")
            h = h + hk
        cache["h"] = h
        out, cache["upper"] = upper.forward(h)
        return out[:, 0] - out[:, 1], cache

    def backward_batch(self, cache: dict, dlogit: np.ndarray,
                       grads: dict[str, np.ndarray],
                       plug: "PlugInNetwork | None" = None) -> None:
        lower, upper = self._split()
        upper_grads, dh = upper.backward(cache["h"], cache["upper"],
                                         np.stack([dlogit, -dlogit], axis=1))
        if "plug" in cache:
            plug.backward(cache["plug"], dh, grads)
        lower_grads, dx = lower.backward(cache["x"], cache["lower"], dh)
        self.main.add_grads(grads, "main", lower_grads + upper_grads)
        self.encoder.backward(cache["enc"], dx, grads)

    def save(self, path, plug: "PlugInNetwork | None" = None,
             optimizer: AdamState | None = None, extra: dict | None = None) -> None:
        tensors = self.params()
        config = {"model": self.cfg, "plug": None}
        if plug is not None:
            tensors.update(plug.params())
            config["plug"] = {"knowledge_dim": plug.knowledge_dim,
                              "out_dim": plug.out_dim, "hidden": plug.hidden}
        ckpt.save_checkpoint(path, "downstream", config, tensors, extra, optimizer)


class PlugInNetwork(Module):
    """Shallow projection MLP: knowledge -> vector of the plugged layer's
    width. Final layer zero-initialized so a fresh plug is a no-op."""

    def __init__(self, knowledge_dim: int, out_dim: int, rng: np.random.Generator,
                 hidden: int | None = None, zero_init_final: bool = True):
        self.knowledge_dim = knowledge_dim
        self.out_dim = out_dim
        self.hidden = hidden if hidden is not None else out_dim
        self.net = MlpStack.build([knowledge_dim, self.hidden, out_dim], rng)
        if zero_init_final:
            final = self.net.layers[-1]
            final.weight[...] = 0.0
            final.bias[...] = 0.0

    def walk_slots(self):
        return self.net.slots("plug")

    def project(self, knowledge: np.ndarray) -> tuple[np.ndarray, dict]:
        if knowledge.shape[1] != self.knowledge_dim:
            raise ShapeError(f"knowledge dim {knowledge.shape[1]} != {self.knowledge_dim}")
        out, trace = self.net.forward(knowledge)
        return out, {"k": knowledge, "trace": trace}

    def backward(self, cache: dict, dout: np.ndarray, grads: dict) -> None:
        layer_grads, _ = self.net.backward(cache["k"], cache["trace"], dout)
        self.net.add_grads(grads, "plug", layer_grads)


def forward_with_plug(model: DownstreamModel, plug: PlugInNetwork | None,
                      record: ImpressionRecord,
                      k: KnowledgeVector | np.ndarray | None) -> float:
    """Click probability for one impression, with knowledge plugged in."""
    batch = RecordBatch.from_records([record], window=max(len(record.behavior_seq), 1))
    knowledge = None
    if plug is not None:
        vec = k.concatenated if isinstance(k, KnowledgeVector) else np.asarray(k)
        knowledge = vec.reshape(1, -1).astype(np.float32)
    logits, _ = model.forward_batch(batch, plug, knowledge)
    return float(1.0 / (1.0 + np.exp(-float(logits[0]))))


@dataclass
class TrainStepResult:
    loss: float
    n: int
    missing_knowledge: int


def click_loss_and_grads(model: DownstreamModel, plug: PlugInNetwork | None,
                         batch: RecordBatch, knowledge: np.ndarray | None
                         ) -> tuple[float, dict[str, np.ndarray]]:
    """Pointwise cross-entropy on the click label plus analytic gradients
    over main + plug parameters. Knowledge rows are data: no gradient
    flows back into whatever produced them."""
    logits, cache = model.forward_batch(batch, plug, knowledge)
    loss, dlogit = pointwise_loss_grad(logits, batch.click)
    grads: dict[str, np.ndarray] = {}
    model.backward_batch(cache, dlogit.astype(logits.dtype), grads, plug)
    return loss, grads


def train_step(model: DownstreamModel, plug: PlugInNetwork | None,
               batch: RecordBatch, knowledge_lookup, optimizer: AdamState
               ) -> TrainStepResult:
    """One Adam step of pointwise cross-entropy on the click label over
    main + plug parameters.

    `knowledge_lookup(batch) -> (matrix, found_mask)` supplies frozen
    knowledge rows; records whose knowledge is missing get zero vectors
    and are counted in the result.
    """
    knowledge = None
    missing = 0
    if plug is not None:
        knowledge, found = knowledge_lookup(batch)
        missing = int(len(found) - found.sum())
    loss, grads = click_loss_and_grads(model, plug, batch, knowledge)
    params = model.params()
    if plug is not None:
        params.update(plug.params())
    adam_update(optimizer, params, grads)
    return TrainStepResult(loss=loss, n=len(batch), missing_knowledge=missing)


def load_downstream(path) -> tuple[DownstreamModel, PlugInNetwork | None,
                                   AdamState | None, dict]:
    c = ckpt.load_checkpoint(path, "downstream")
    model = DownstreamModel(ckpt.config_from(DownstreamConfig, c.config["model"]))
    plug = None
    slots = list(model.walk_slots())
    if c.config["plug"] is not None:
        pc = c.config["plug"]
        plug = PlugInNetwork(pc["knowledge_dim"], pc["out_dim"],
                             np.random.default_rng(0), hidden=pc["hidden"])
        slots += list(plug.walk_slots())
    assign_params(slots, c.model_tensors())
    return model, plug, c.optimizer(), c.extra


def warm_start(checkpoint_path, new_plug_knowledge_dim: int | None = None,
               plug_seed: int = 0) -> tuple[DownstreamModel, PlugInNetwork | None,
                                            AdamState, dict]:
    """Restore a downstream checkpoint for the next training period.

    All stored parameters come back exactly; with
    `new_plug_knowledge_dim`, a fresh plug-in network (zero-initialized
    final layer) is attached without perturbing the restored model.
    """
    model, plug, opt, extra = load_downstream(checkpoint_path)
    if opt is None:
        opt = AdamState()
    if new_plug_knowledge_dim is not None:
        if plug is not None:
            raise ValueError("checkpoint already carries a plug-in network")
        plug = PlugInNetwork(new_plug_knowledge_dim, model.plug_dim,
                             np.random.default_rng(plug_seed))
    return model, plug, opt, extra
