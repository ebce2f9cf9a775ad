"""Stage-1 knowledge extraction: shared-bottom multi-task pre-training on
the super-domain log.

One embedding layer (user / item / shop / category / behavior) feeds
DIN-style attention pooling; each task (click, conversion, add-to-cart)
owns a private MLP head whose last layer emits 2 values, differenced into
a scalar logit. Click trains on all impressions; conversion and cart
train on clicked impressions only. Each task optimizes the hybrid
objective: pointwise cross-entropy plus alpha times a pairwise logistic
term over same-session positive/negative triplets.

The exported knowledge for a (user, item) pair is
[k_u ; k_i ; k_ui_clk ; k_ui_cv ; k_ui_cart]: the user-id embedding, the
concatenated item/shop/category embeddings, and each head's second-last
layer output. Task order in the concatenation is fixed; a task the model
was trained without contributes zeros, so the vector length depends only
on the architecture config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import checkpoint as ckpt
from .datagen import Catalog, ImpressionRecord, RecordBatch, day_order
from .features import SparseFeatureNet, assign_params, batch_features
from .nncore import AdamState, MlpStack, Module, adam_update

TASKS = ("click", "conversion", "cart")


@dataclass
class ExtractorConfig:
    user_vocab: int
    item_vocab: int
    shop_vocab: int
    category_vocab: int
    user_dim: int = 48
    feature_dim: int = 16
    head_dims: tuple[int, ...] = (64, 32, 16, 8, 2)
    att_hidden: int = 8
    tasks: tuple[str, ...] = TASKS
    seed: int = 0

    def validate(self) -> None:
        if self.head_dims[-1] != 2:
            raise ValueError("task heads must end in a 2-dim output layer")
        unknown = set(self.tasks) - set(TASKS)
        if unknown:
            raise ValueError(f"unknown tasks: {sorted(unknown)}")


@dataclass
class PretrainConfig:
    alpha: float = 0.25
    batch_size: int = 2000
    lr: float = 0.001
    triplet_cap: int = 3
    seed: int = 0

    def validate(self) -> None:
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.batch_size <= 0 or self.triplet_cap < 0:
            raise ValueError("batch_size must be positive, triplet_cap >= 0")


class ExtractorModel(Module):
    def __init__(self, cfg: ExtractorConfig, catalog: Catalog | None = None):
        cfg.validate()
        self.cfg = cfg
        self.catalog = catalog
        rng = np.random.default_rng(cfg.seed)
        vocabs = {"user": cfg.user_vocab, "item": cfg.item_vocab,
                  "shop": cfg.shop_vocab, "category": cfg.category_vocab}
        self.encoder = SparseFeatureNet(
            vocabs, rng, include=("user", "item", "shop", "category"),
            user_dim=cfg.user_dim, feature_dim=cfg.feature_dim,
            pool="attention", pool_target="item", att_hidden=cfg.att_hidden)
        dims = [self.encoder.out_dim, *cfg.head_dims]
        self.heads = {task: MlpStack.build(dims, rng) for task in cfg.tasks}

    def walk_slots(self):
        yield from self.encoder.walk_slots()
        for task, head in self.heads.items():
            yield from head.slots(f"head_{task}")

    def _head(self, task: str) -> MlpStack:
        try:
            return self.heads[task]
        except KeyError:
            raise ValueError(f"unknown task '{task}'") from None

    def score_batch(self, batch: RecordBatch, task: str) -> tuple[np.ndarray, dict]:
        x, enc_cache = self.encoder.forward(batch_features(batch))
        out, trace = self._head(task).forward(x)
        logits = out[:, 0] - out[:, 1]
        return logits, {"x": x, "enc": enc_cache, "trace": trace, "task": task}

    def backward_batch(self, cache: dict, dlogit: np.ndarray,
                       grads: dict[str, np.ndarray]) -> None:
        task = cache["task"]
        dout = np.stack([dlogit, -dlogit], axis=1)
        head = self._head(task)
        head_grads, dx = head.backward(cache["x"], cache["trace"], dout)
        head.add_grads(grads, f"head_{task}", head_grads)
        self.encoder.backward(cache["enc"], dx, grads)

    # -- persistence ---------------------------------------------------

    def save(self, path, optimizer: AdamState | None = None,
             extra: dict | None = None) -> None:
        ckpt.save_checkpoint(path, "extractor", self.cfg, self.params(), extra, optimizer)

    @classmethod
    def load(cls, path, catalog: Catalog | None = None
             ) -> tuple["ExtractorModel", AdamState | None, dict]:
        c = ckpt.load_checkpoint(path, "extractor")
        model = cls(ckpt.config_from(ExtractorConfig, c.config), catalog=catalog)
        assign_params(model.walk_slots(), c.model_tensors())
        return model, c.optimizer(), c.extra


def score(model: ExtractorModel, record: ImpressionRecord, task: str) -> float:
    """Scalar logit s for one impression under one task head."""
    batch = RecordBatch.from_records([record], window=max(len(record.behavior_seq), 1))
    logits, _ = model.score_batch(batch, task)
    return float(logits[0])


# ---------------------------------------------------------------------------
# losses


def pointwise_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Summed binary cross-entropy between sigmoid(logit) and the label,
    accumulated in float64 with the probability clamped to
    [1e-7, 1 - 1e-7]."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != np.shape(logits):
        raise ValueError("logits and labels must have equal length")
    if np.any((labels != 0.0) & (labels != 1.0)):
        raise ValueError("labels must be binary")
    s = np.asarray(logits, dtype=np.float64)
    p = np.clip(1.0 / (1.0 + np.exp(-s)), 1e-7, 1.0 - 1e-7)
    return float(-(labels * np.log(p) + (1.0 - labels) * np.log1p(-p)).sum())


def pointwise_loss_grad(logits: np.ndarray, labels: np.ndarray
                        ) -> tuple[float, np.ndarray]:
    loss = pointwise_loss(logits, labels)
    s = np.asarray(logits, dtype=np.float64)
    d = 1.0 / (1.0 + np.exp(-s)) - np.asarray(labels, dtype=np.float64)
    return loss, d


def pairwise_loss(pos_logits: np.ndarray, neg_logits: np.ndarray) -> float:
    """Summed pairwise logistic loss over triplets: log(1 + exp(-(s_pos -
    s_neg))), in the numerically stable logaddexp form."""
    pos = np.asarray(pos_logits, dtype=np.float64)
    neg = np.asarray(neg_logits, dtype=np.float64)
    return float(np.logaddexp(0.0, -(pos - neg)).sum())


def pairwise_loss_grad(pos_logits: np.ndarray, neg_logits: np.ndarray
                       ) -> tuple[float, np.ndarray, np.ndarray]:
    loss = pairwise_loss(pos_logits, neg_logits)
    diff = (np.asarray(pos_logits, dtype=np.float64)
            - np.asarray(neg_logits, dtype=np.float64))
    dneg = 1.0 / (1.0 + np.exp(diff))
    return loss, -dneg, dneg


def hybrid_loss(point: float, pair: float, alpha: float) -> float:
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return point + alpha * pair


# ---------------------------------------------------------------------------
# triplets


@dataclass
class TripletBatch:
    """Positive/negative index pairs into one record collection; entry k
    pairs a positive and a negative impression of the same user session."""

    pos_idx: np.ndarray
    neg_idx: np.ndarray

    def __len__(self) -> int:
        return len(self.pos_idx)


def build_triplets(records, cap: int, rng: np.random.Generator,
                   label: str = "click") -> TripletBatch:
    """Pair each positive in one user session with up to `cap` negatives
    sampled without replacement. Sessions lacking a positive or a negative
    yield an empty batch."""
    if isinstance(records, RecordBatch):
        batch = records
    else:
        batch = RecordBatch.from_records(list(records), window=1)
    if len(batch) and (len(np.unique(batch.user_id)) > 1
                       or len(np.unique(batch.session_id)) > 1):
        raise ValueError("triplets are built within a single user session")
    labels = getattr(batch, label)
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    return _pair(pos, neg, cap, rng)


def _pair(pos: np.ndarray, neg: np.ndarray, cap: int,
          rng: np.random.Generator) -> TripletBatch:
    if len(pos) == 0 or len(neg) == 0 or cap == 0:
        empty = np.empty(0, dtype=np.int64)
        return TripletBatch(empty, empty)
    pos_out, neg_out = [], []
    take = min(cap, len(neg))
    for p in pos:
        chosen = rng.choice(neg, size=take, replace=False) if take < len(neg) else neg
        pos_out.append(np.full(len(chosen), p, dtype=np.int64))
        neg_out.append(np.asarray(chosen, dtype=np.int64))
    return TripletBatch(np.concatenate(pos_out), np.concatenate(neg_out))


def day_triplets(batch: RecordBatch, label: str, cap: int,
                 seed) -> TripletBatch:
    """Build and shuffle triplets for every session in a day's records."""
    rng = np.random.default_rng(seed)
    labels = getattr(batch, label)
    order = np.argsort(batch.session_id, kind="stable")
    sess = batch.session_id[order]
    bounds = np.flatnonzero(np.diff(sess)) + 1
    pos_all, neg_all = [], []
    for grp in np.split(order, bounds):
        lab = labels[grp]
        t = _pair(np.flatnonzero(lab == 1), np.flatnonzero(lab == 0), cap, rng)
        if len(t):
            pos_all.append(grp[t.pos_idx])
            neg_all.append(grp[t.neg_idx])
    if not pos_all:
        empty = np.empty(0, dtype=np.int64)
        return TripletBatch(empty, empty)
    pos = np.concatenate(pos_all)
    neg = np.concatenate(neg_all)
    perm = rng.permutation(len(pos))
    return TripletBatch(pos[perm], neg[perm])


# ---------------------------------------------------------------------------
# training


@dataclass
class TaskLoss:
    point: float = 0.0
    pair: float = 0.0
    hybrid: float = 0.0
    n: int = 0
    n_triplets: int = 0


class DaySteps:
    """One day of a log cut into optimizer steps: the day's rows in seeded
    order, `batch_size` to a step; an empty day has no steps. Triplets
    added with pair() are spread evenly over the same steps."""

    def __init__(self, log: RecordBatch, day: int, seed, batch_size: int):
        self.rows = log.take(day_order(log.day, [day], seed))
        self.batch_size = batch_size
        self.steps = math.ceil(len(self.rows) / batch_size)
        self._triplets: dict[str, tuple[RecordBatch, TripletBatch]] = {}

    def pair(self, label: str, source: RecordBatch, cap: int, seed) -> None:
        """Add `label`'s same-session triplets over `source`, seeded."""
        self._triplets[label] = (source, day_triplets(source, label, cap, seed))

    def batch(self, s: int) -> RecordBatch:
        n = len(self.rows)
        return self.rows.take(np.arange(s * self.batch_size,
                                        min(n, (s + 1) * self.batch_size)))

    def pairs(self, s: int) -> dict[str, tuple[RecordBatch, RecordBatch]]:
        """Step s's share of each label's triplets: (positive rows, negative
        rows); a label whose share is empty is left out."""
        out = {}
        for label, (src, t) in self._triplets.items():
            lo = round(s * len(t) / self.steps)
            hi = round((s + 1) * len(t) / self.steps)
            if hi > lo:
                out[label] = (src.take(t.pos_idx[lo:hi]), src.take(t.neg_idx[lo:hi]))
        return out


def with_pairs(base: RecordBatch,
               pairs: tuple[RecordBatch, RecordBatch] | None) -> RecordBatch:
    """One batch to score: `base`, then the positive and the negative rows
    of `pairs`."""
    parts = [b for b in (base, *(pairs or ())) if len(b)]
    if len(parts) == 1:
        return parts[0]
    return RecordBatch.concat(parts) if parts else base


def hybrid_loss_grad(logits: np.ndarray, labels: np.ndarray, alpha: float
                     ) -> tuple[TaskLoss, np.ndarray]:
    """Pointwise cross-entropy plus alpha times the pairwise logistic loss
    over the logits of a with_pairs() batch, `labels` being its base rows';
    returns the loss and d(loss)/d(logits) in the logits' dtype.

    Scoring and the backward pass stay in the caller's loop on purpose: its
    variables hold one forward cache until the next forward has returned,
    so the allocator reuses that memory instead of returning it to the
    system and faulting it back in at every step."""
    n_base = len(labels)
    n_trip = (len(logits) - n_base) // 2
    point, dpoint = (0.0, np.empty(0)) if n_base == 0 else \
        pointwise_loss_grad(logits[:n_base], labels)
    if n_trip:
        pair, dpos, dneg = pairwise_loss_grad(logits[n_base:n_base + n_trip],
                                              logits[n_base + n_trip:])
        dlogit = np.concatenate([dpoint, alpha * dpos, alpha * dneg])
    else:
        pair = 0.0
        dlogit = dpoint
    return (TaskLoss(point=point, pair=pair, hybrid=hybrid_loss(point, pair, alpha),
                     n=n_base, n_triplets=n_trip),
            dlogit.astype(logits.dtype))


def joint_loss_and_grads(model: ExtractorModel, impression_batch: RecordBatch,
                         click_batch: RecordBatch, config: PretrainConfig,
                         triplets: dict[str, tuple[RecordBatch, RecordBatch]] | None = None
                         ) -> tuple[dict[str, TaskLoss], dict[str, np.ndarray]]:
    """Joint pre-training loss (sum over tasks of pointwise + alpha *
    pairwise) and its analytic gradients. Shared embeddings accumulate
    gradients from every task; `triplets` holds per-task positive/negative
    member records for the pairwise terms."""
    grads: dict[str, np.ndarray] = {}
    losses: dict[str, TaskLoss] = {}
    for task in model.cfg.tasks:
        base = impression_batch if task == "click" else click_batch
        full = with_pairs(base, (triplets or {}).get(task))
        if len(full) == 0:
            losses[task] = TaskLoss()
            continue
        logits, cache = model.score_batch(full, task)
        losses[task], dlogit = hybrid_loss_grad(logits, getattr(base, task), config.alpha)
        model.backward_batch(cache, dlogit, grads)
    return losses, grads


def joint_loss(model: ExtractorModel, impression_batch: RecordBatch,
               click_batch: RecordBatch, config: PretrainConfig,
               triplets=None) -> float:
    losses, _ = joint_loss_and_grads(model, impression_batch, click_batch,
                                     config, triplets)
    return sum(tl.hybrid for tl in losses.values())


def pretrain_step(model: ExtractorModel, optimizer: AdamState,
                  impression_batch: RecordBatch, click_batch: RecordBatch,
                  config: PretrainConfig,
                  triplets: dict[str, tuple[RecordBatch, RecordBatch]] | None = None
                  ) -> dict[str, TaskLoss]:
    """One Adam step on the joint loss over all model parameters."""
    losses, grads = joint_loss_and_grads(model, impression_batch, click_batch,
                                         config, triplets)
    adam_update(optimizer, model.params(), grads)
    return losses


def pretrain_day(log: RecordBatch, day: int, tasks, config: PretrainConfig) -> DaySteps:
    """A pre-training day: each task's triplets come from the impressions
    it trains on (all for click, the clicked ones otherwise)."""
    plan = DaySteps(log, day, config.seed, config.batch_size)
    clicked = plan.rows.take(np.flatnonzero(plan.rows.click == 1))
    for ti, task in enumerate(tasks):
        plan.pair(task, plan.rows if task == "click" else clicked,
                  config.triplet_cap, (config.seed, day, ti))
    return plan


def pretrain_day_step(model: ExtractorModel, optimizer: AdamState, plan: DaySteps,
                      s: int, config: PretrainConfig) -> dict[str, TaskLoss]:
    imp = plan.batch(s)
    clk = imp.take(np.flatnonzero(imp.click == 1))
    return pretrain_step(model, optimizer, imp, clk, config, plan.pairs(s))


def pretrain(model: ExtractorModel, optimizer: AdamState, log: RecordBatch,
             days, config: PretrainConfig, checkpoint_path=None,
             start_after_day: int | None = None, log_fn=None) -> list[dict]:
    """Single-epoch pre-training: days ascending, seeded shuffle within
    each day. With `checkpoint_path` the model is saved after every day
    (cursor recorded), so a run can resume after `start_after_day` and
    reproduce the uninterrupted run exactly."""
    config.validate()
    history = []
    for day in sorted(days):
        if start_after_day is not None and day <= start_after_day:
            continue
        plan = pretrain_day(log, day, model.cfg.tasks, config)
        day_losses = {t: TaskLoss() for t in model.cfg.tasks}
        for s in range(plan.steps):
            losses = pretrain_day_step(model, optimizer, plan, s, config)
            for task, tl in losses.items():
                agg = day_losses[task]
                agg.point += tl.point
                agg.pair += tl.pair
                agg.hybrid += tl.hybrid
                agg.n += tl.n
                agg.n_triplets += tl.n_triplets
        history.append({"day": day, **{t: vars(v) for t, v in day_losses.items()}})
        if log_fn:
            log_fn(f"day {day}: " + ", ".join(
                f"{t} point/sample={tl.point / max(tl.n, 1):.4f} "
                f"({tl.n} rows, {tl.n_triplets} triplets)"
                for t, tl in day_losses.items()))
        if checkpoint_path:
            model.save(checkpoint_path, optimizer, extra={"cursor_day": day})
    return history


# ---------------------------------------------------------------------------
# knowledge export


@dataclass
class KnowledgeVector:
    """Extracted knowledge for one (user, item) pair, fixed slot order."""

    k_u: np.ndarray
    k_i: np.ndarray
    k_ui_clk: np.ndarray
    k_ui_cv: np.ndarray
    k_ui_cart: np.ndarray

    @property
    def concatenated(self) -> np.ndarray:
        return np.concatenate([self.k_u, self.k_i, self.k_ui_clk,
                               self.k_ui_cv, self.k_ui_cart])


def knowledge_dim(cfg: ExtractorConfig) -> int:
    return cfg.user_dim + 3 * cfg.feature_dim + len(TASKS) * cfg.head_dims[-2]


def knowledge_slices(cfg: ExtractorConfig) -> dict[str, slice]:
    """Segment layout of the concatenated knowledge vector."""
    d_ui = cfg.head_dims[-2]
    u, i = cfg.user_dim, 3 * cfg.feature_dim
    out = {"k_u": slice(0, u), "k_i": slice(u, u + i)}
    off = u + i
    for task in TASKS:
        out[f"k_ui_{task}"] = slice(off, off + d_ui)
        off += d_ui
    return out


def extract_knowledge_batch(model: ExtractorModel, batch: RecordBatch) -> np.ndarray:
    """Knowledge matrix (n, knowledge_dim) for a batch of impressions.

    k_u and k_i are embedding rows (task independent); each task slot is
    that head's second-last layer output, zeros for untrained tasks.
    """
    cfg = model.cfg
    x, _ = model.encoder.forward(batch_features(batch))
    n = len(batch)
    parts = [x[:, :cfg.user_dim + 3 * cfg.feature_dim]]
    for task in TASKS:
        if task in model.heads:
            k_ui, _ = MlpStack(model.heads[task].layers[:-1]).forward(x)
            parts.append(k_ui)
        else:
            parts.append(np.zeros((n, cfg.head_dims[-2]), dtype=x.dtype))
    return np.concatenate(parts, axis=1)


def extract_knowledge(model: ExtractorModel, u: int, i: int,
                      shop_id: int | None = None, category_id: int | None = None,
                      behavior_seq: tuple[int, ...] = ()) -> KnowledgeVector:
    """Knowledge for one (user, item) pair; shop/category default to the
    model's catalog entry for the item."""
    if shop_id is None or category_id is None:
        if model.catalog is None:
            raise ValueError("no catalog attached: pass shop_id and category_id")
        shop_id = int(model.catalog.item_shop[i]) if shop_id is None else shop_id
        category_id = (int(model.catalog.item_category[i])
                       if category_id is None else category_id)
    rec = ImpressionRecord(domain="super", day=0, session_id=0, user_id=u,
                           item_id=i, shop_id=shop_id, category_id=category_id,
                           behavior_seq=tuple(behavior_seq), click=0,
                           conversion=0, cart=0)
    batch = RecordBatch.from_records([rec], window=max(len(rec.behavior_seq), 1))
    row = extract_knowledge_batch(model, batch)[0]
    sl = knowledge_slices(model.cfg)
    return KnowledgeVector(k_u=row[sl["k_u"]], k_i=row[sl["k_i"]],
                           k_ui_clk=row[sl["k_ui_click"]],
                           k_ui_cv=row[sl["k_ui_conversion"]],
                           k_ui_cart=row[sl["k_ui_cart"]])
