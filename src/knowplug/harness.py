"""Experiment driver: day-partitioned online training, GAUC evaluation,
and the cross-domain experiment grid.

The online loop mirrors production refresh: each training day warm-starts
from the previous day's checkpoint file, consumes that day's records once
(seeded shuffle within the day), checkpoints, and finally evaluates on
the held-out test day. Because every day begins by reloading the last
checkpoint, a run split across sessions is bit-identical to an
uninterrupted one.

Modes:
  base               sub-domain data only, no plug
  sample_merging     super+sub data merged through the identical pipeline
  keep               pre-trained extractor, knowledge plugged downstream
  keep_c             no pre-training window; extractor co-trained on the
                     training days' super data, alternating with
                     downstream steps, knowledge frozen per step
  keep_decomposed    cached two-tower knowledge only
  keep_degenerated   cached user-category knowledge only
  keep_decomp_degen  both cached forms (the deployable variant)

GAUC is the impression-weighted mean of per-user AUC; users whose test
impressions are single-labeled are excluded from numerator and
denominator. Reported tables carry the production-scale reference GAUC
numbers alongside desk-scale results for context.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, asdict, field, replace
from pathlib import Path

import numpy as np

from .checkpoint import save_checkpoint
from .datagen import Catalog, GeneratorConfig, RecordBatch, generate, load_log_columnar
from .extractor import DaySteps, ExtractorConfig, ExtractorModel, PretrainConfig, TASKS, \
    extract_knowledge_batch, knowledge_dim, knowledge_slices, pretrain, pretrain_day, \
    pretrain_day_step
from .gkc import STATUS_OK, GkcClient, LookupQuadruple
from .nncore import AdamState
from .plugnet import PLUG_LAYER, DownstreamConfig, DownstreamModel, PlugInNetwork, \
    train_step, warm_start
from .servingkit import DecomposedConfig, DecomposedExtractor, DegeneratedConfig, \
    DegeneratedExtractor, KnowledgeSnapshot, build_snapshot, load_serving_model, \
    load_snapshot, save_snapshot, train_click_epoch

MODES = ("base", "sample_merging", "keep", "keep_c", "keep_decomposed",
         "keep_degenerated", "keep_decomp_degen")

USER_GROUP_BOUNDS = ((0, 50), (50, 150), (150, 300), (300, None))

# production-scale reference results (full system, billions of samples),
# rendered in report tables for context only
REFERENCE_GAUC = {
    "base": 0.6310, "sample_merging": 0.6185, "keep": 0.6380, "keep_c": 0.6348,
    "keep[k_u]": 0.6332, "keep[k_u,k_i]": 0.6347, "keep[k_u,k_i,k_ui]": 0.6380,
}
REFERENCE_SERVING_GAUC = {
    "keep": 0.6703, "keep_decomposed": 0.6691, "keep_degenerated": 0.6683,
    "keep_decomp_degen": 0.6698,
}


def derive_seed(*parts) -> int:
    """Stable child seed from mixed int/str parts."""
    h = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(h[:8], "little") % (2 ** 63)


# ---------------------------------------------------------------------------
# GAUC


@dataclass
class GroupGauc:
    name: str
    gauc: float
    impressions: int
    users: int


@dataclass
class GaucReport:
    gauc: float
    eligible_users: int
    excluded_users: int
    impressions_total: int
    impressions_included: int
    groups: list[GroupGauc] = field(default_factory=list)
    empty: bool = False


def auc_from_scores(scores: np.ndarray, labels: np.ndarray) -> float:
    """Pair-counting AUC with 0.5 credit for score ties (average ranks).

    Requires at least one positive and one negative.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    ranks = np.empty(len(s), dtype=np.float64)
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and s[j] == s[i]:
            j += 1
        ranks[i:j] = 0.5 * (i + 1 + j)
        i = j
    pos_rank_sum = ranks[labels[order] == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def gauc(per_impression, user_click_counts: dict | None = None) -> GaucReport:
    """Impression-weighted mean of per-user AUC.

    `per_impression` is a sequence of (user, score, label) triples or a
    (users, scores, labels) array tuple. Binary labels required. Users
    with all-positive or all-negative test impressions are excluded from
    both numerator and denominator; weights are the included users'
    impression counts. `user_click_counts` (behavior frequency per user)
    drives the per-group breakdown.
    """
    if isinstance(per_impression, tuple) and len(per_impression) == 3:
        users, scores, labels = (np.asarray(a) for a in per_impression)
    else:
        rows = list(per_impression)
        users = np.asarray([r[0] for r in rows])
        scores = np.asarray([r[1] for r in rows], dtype=np.float64)
        labels = np.asarray([r[2] for r in rows])
    if np.any((labels != 0) & (labels != 1)):
        raise ValueError("labels must be binary")

    total = len(users)
    order = np.argsort(users, kind="stable")
    users_s, scores_s, labels_s = users[order], scores[order], labels[order]
    bounds = np.flatnonzero(users_s[1:] != users_s[:-1]) + 1
    per_user = []
    excluded = 0
    for grp in np.split(np.arange(total), bounds) if total else []:
        lab = labels_s[grp]
        n_pos = int(lab.sum())
        if n_pos == 0 or n_pos == len(lab):
            excluded += 1
            continue
        user = users_s[grp[0]]
        if isinstance(user, np.generic):
            user = user.item()
        per_user.append((user, len(grp), auc_from_scores(scores_s[grp], lab)))

    if not per_user:
        return GaucReport(gauc=float("nan"), eligible_users=0,
                          excluded_users=excluded, impressions_total=total,
                          impressions_included=0, empty=True)

    weight = sum(w for _, w, _ in per_user)
    overall = sum(w * a for _, w, a in per_user) / weight
    groups = []
    if user_click_counts is not None:
        for lo, hi in USER_GROUP_BOUNDS:
            name = f"[{lo},{hi})" if hi is not None else f"{lo}+"
            rows = [(w, a) for u, w, a in per_user
                    if lo <= user_click_counts.get(u, 0) and
                    (hi is None or user_click_counts.get(u, 0) < hi)]
            gw = sum(w for w, _ in rows)
            g = sum(w * a for w, a in rows) / gw if gw else float("nan")
            groups.append(GroupGauc(name=name, gauc=g, impressions=gw, users=len(rows)))
    return GaucReport(gauc=float(overall), eligible_users=len(per_user),
                      excluded_users=excluded, impressions_total=total,
                      impressions_included=weight, groups=groups)


# ---------------------------------------------------------------------------
# data plumbing


@dataclass
class DataBundle:
    super_log: RecordBatch
    sub_log: RecordBatch
    catalog: Catalog
    gen_config: GeneratorConfig
    data_dir: Path

    def user_click_counts(self, before_day: int) -> dict[int, int]:
        counts: dict[int, int] = {}
        for log in (self.super_log, self.sub_log):
            m = (log.day < before_day) & (log.click == 1)
            for u, c in zip(*np.unique(log.user_id[m], return_counts=True)):
                counts[int(u)] = counts.get(int(u), 0) + int(c)
        return counts

    def user_behavior_asof(self, day: int) -> dict[int, tuple[int, ...]]:
        """Each user's last clicked items from records before `day`
        (window per the generator config)."""
        window = self.gen_config.behavior_window
        seqs: dict[int, list[int]] = {}
        for log in (self.super_log, self.sub_log):
            m = (log.day < day) & (log.click == 1)
            order = np.argsort(log.day[m], kind="stable")
            for u, i in zip(log.user_id[m][order].tolist(),
                            log.item_id[m][order].tolist()):
                seqs.setdefault(u, []).append(i)
        return {u: tuple(s[-window:]) for u, s in seqs.items()}


def ensure_data(data_dir: str | Path, gen_config: GeneratorConfig | None = None,
                log_fn=None) -> DataBundle:
    """Generate the dataset if the directory lacks one, then load it."""
    data_dir = Path(data_dir)
    cfg = gen_config or GeneratorConfig()
    meta_path = data_dir / "meta.json"
    if not meta_path.exists():
        if log_fn:
            log_fn(f"generating dataset in {data_dir} ...")
        generate(cfg, data_dir)
    meta = json.loads(meta_path.read_text())
    stored = GeneratorConfig(**meta["config"])
    if gen_config is not None and stored != gen_config:
        raise ValueError(f"{data_dir} holds a dataset for a different generator config")
    return DataBundle(
        super_log=load_log_columnar(data_dir / "super.jsonl",
                                    window=stored.behavior_window),
        sub_log=load_log_columnar(data_dir / "sub.jsonl",
                                  window=stored.behavior_window),
        catalog=Catalog.load(data_dir / "catalog.npz"),
        gen_config=stored, data_dir=data_dir)


# ---------------------------------------------------------------------------
# experiment config


@dataclass
class ExperimentConfig:
    mode: str = "keep"
    data_dir: str = "data"
    out_dir: str = "runs"
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    pretrain_days: tuple[int, ...] = (0, 1, 2, 3, 4)
    train_days: tuple[int, ...] = (5, 6)
    test_day: int = 7
    knowledge_source: str = "model"  # model | snapshot | gkc:<host>:<port>
    knowledge_version: int = 1
    knowledge_mask: tuple[str, ...] = ("k_u", "k_i", "k_ui")
    pretrain_tasks: tuple[str, ...] = TASKS
    plug_layer: int = PLUG_LAYER
    user_dim: int = 48
    feature_dim: int = 16
    head_dims: tuple[int, ...] = (64, 32, 16, 8, 2)
    mlp_dims: tuple[int, ...] = (64, 32, 16, 8, 2)
    att_hidden: int = 8
    tower_hidden: int = 32
    tower_dim: int = 16
    alpha: float = 0.25
    pretrain_batch: int = 1024
    pretrain_lr: float = 0.005
    train_batch: int = 128
    train_lr: float = 0.005
    triplet_cap: int = 3
    eval_each_day: bool = False

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode '{self.mode}' (one of {MODES})")
        if self.test_day <= max(self.train_days):
            raise ValueError("test_day must fall strictly after the train window")
        bad = set(self.knowledge_mask) - {"k_u", "k_i", "k_ui"}
        if bad:
            raise ValueError(f"unknown knowledge mask entries: {sorted(bad)}")
        bad = set(self.pretrain_tasks) - set(TASKS)
        if bad:
            raise ValueError(f"unknown pretrain tasks: {sorted(bad)}")


_TUPLE_FIELDS = {"seeds": int, "pretrain_days": int, "train_days": int,
                 "knowledge_mask": str, "pretrain_tasks": str,
                 "head_dims": int, "mlp_dims": int}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat `key = value` experiment config format; '#' starts a
    comment, tuple fields are comma-separated."""
    defaults = ExperimentConfig()
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in ExperimentConfig.__dataclass_fields__:
            raise ValueError(f"line {lineno}: unknown config key '{key}'")
        if key in _TUPLE_FIELDS:
            conv = _TUPLE_FIELDS[key]
            values[key] = tuple(conv(v.strip()) for v in val.split(",") if v.strip())
        else:
            cur = getattr(defaults, key)
            if isinstance(cur, bool):
                values[key] = val.lower() in ("1", "true", "yes")
            elif isinstance(cur, int):
                values[key] = int(val)
            elif isinstance(cur, float):
                values[key] = float(val)
            else:
                values[key] = val
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def format_config(cfg: ExperimentConfig) -> str:
    lines = []
    for key, val in asdict(cfg).items():
        if isinstance(val, tuple):
            val = ",".join(str(v) for v in val)
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# knowledge sources


class KnowledgeSource:
    """Maps a record batch to frozen knowledge rows plus a found mask."""

    dim: int

    def __call__(self, batch: RecordBatch) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class ExtractorKnowledge(KnowledgeSource):
    """Live extraction from a frozen extractor (the exact, uncached form),
    with optional zeroing of knowledge groups for ablations."""

    def __init__(self, model: ExtractorModel, mask: tuple[str, ...]):
        self.model = model
        self.dim = knowledge_dim(model.cfg)
        sl = knowledge_slices(model.cfg)
        self._zero: list[slice] = []
        if "k_u" not in mask:
            self._zero.append(sl["k_u"])
        if "k_i" not in mask:
            self._zero.append(sl["k_i"])
        if "k_ui" not in mask:
            self._zero.extend(sl[f"k_ui_{t}"] for t in TASKS)

    def __call__(self, batch: RecordBatch) -> tuple[np.ndarray, np.ndarray]:
        mat = extract_knowledge_batch(self.model, batch)
        for sl in self._zero:
            mat[:, sl] = 0.0
        return mat, np.ones(len(batch), dtype=bool)


def mask_serving_slots(mat: np.ndarray, found_u: np.ndarray, found_i: np.ndarray,
                       found_uc: np.ndarray, slots: tuple[str, ...], user_dim: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Zero the serving-vector slices of the strategies not in `slots`
    ([ku ; ki ; ku*ki] is decomposed, kuc degenerated). A row counts as
    found when each kept strategy found all of its keys."""
    found = np.ones(len(mat), dtype=bool)
    if "decomposed" in slots:
        found &= found_u & found_i
    else:
        mat[:, :3 * user_dim] = 0.0
    if "degenerated" in slots:
        found &= found_uc
    else:
        mat[:, 3 * user_dim:] = 0.0
    return mat, found


class SnapshotKnowledge(KnowledgeSource):
    """Cached serving knowledge [ku ; ki ; ku*ki ; kuc] out of a snapshot,
    with per-strategy slot masking."""

    def __init__(self, snapshot: KnowledgeSnapshot, slots: tuple[str, ...]):
        self.snapshot = snapshot
        self.slots = slots
        self.dim = snapshot.dim_total

    def __call__(self, batch: RecordBatch) -> tuple[np.ndarray, np.ndarray]:
        snap = self.snapshot
        return mask_serving_slots(
            *snap.compose_batch(batch.user_id, batch.item_id, batch.category_id),
            self.slots, snap.user_dim)


class GkcKnowledge(KnowledgeSource):
    """Serving knowledge fetched from a running GKC service; an entry's
    found bits count only if its version answered."""

    def __init__(self, host: str, port: int, version: int, dim: int,
                 slots: tuple[str, ...], user_dim: int):
        self.client = GkcClient(host, port)
        self.version = version
        self.dim = dim
        self.slots = slots
        self.user_dim = user_dim

    def __call__(self, batch: RecordBatch) -> tuple[np.ndarray, np.ndarray]:
        quads = [LookupQuadruple(int(u), int(i), int(c), self.version)
                 for u, i, c in zip(batch.user_id, batch.item_id, batch.category_id)]
        entries = self.client.lookup(quads)
        mat = np.stack([e.vector for e in entries])
        bits = np.array([e.found_mask if e.status == STATUS_OK else 0 for e in entries])
        return mask_serving_slots(mat, (bits & 1) > 0, (bits & 2) > 0, (bits & 4) > 0,
                                  self.slots, self.user_dim)

    def close(self) -> None:
        self.client.close()


_SERVING_SLOTS = {"keep_decomposed": ("decomposed",),
                  "keep_degenerated": ("degenerated",),
                  "keep_decomp_degen": ("decomposed", "degenerated")}


# ---------------------------------------------------------------------------
# cached artifact builders


def _cache_tag(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:10]


def _extractor_configs(bundle: DataBundle, cfg: ExperimentConfig, seed: int
                       ) -> tuple[ExtractorConfig, PretrainConfig]:
    g = bundle.gen_config
    ecfg = ExtractorConfig(
        user_vocab=g.n_users, item_vocab=g.n_items, shop_vocab=g.n_shops,
        category_vocab=g.n_categories, user_dim=cfg.user_dim,
        feature_dim=cfg.feature_dim, head_dims=cfg.head_dims,
        att_hidden=cfg.att_hidden, tasks=cfg.pretrain_tasks,
        seed=derive_seed(seed, "extractor"))
    pcfg = PretrainConfig(alpha=cfg.alpha, batch_size=cfg.pretrain_batch,
                          lr=cfg.pretrain_lr, triplet_cap=cfg.triplet_cap,
                          seed=derive_seed(seed, "pretrain"))
    return ecfg, pcfg


def pretrain_extractor_cached(bundle: DataBundle, cfg: ExperimentConfig, seed: int,
                              days: tuple[int, ...], cache_dir: Path,
                              log_fn=None) -> Path:
    ecfg, pcfg = _extractor_configs(bundle, cfg, seed)
    tag = _cache_tag("extractor", asdict(ecfg), asdict(pcfg), tuple(days))
    path = cache_dir / f"extractor_{tag}.ckpt"
    if path.exists():
        return path
    cache_dir.mkdir(parents=True, exist_ok=True)
    if log_fn:
        log_fn(f"pre-training extractor (seed {seed}, days {list(days)}) ...")
    model = ExtractorModel(ecfg, catalog=bundle.catalog)
    opt = AdamState(lr=pcfg.lr)
    pretrain(model, opt, bundle.super_log, days, pcfg, log_fn=log_fn)
    model.save(path, opt)
    return path


def train_serving_models_cached(bundle: DataBundle, cfg: ExperimentConfig, seed: int,
                                days: tuple[int, ...], cache_dir: Path, log_fn=None
                                ) -> tuple[Path, Path]:
    g = bundle.gen_config
    dcfg = DecomposedConfig(
        user_vocab=g.n_users, item_vocab=g.n_items, shop_vocab=g.n_shops,
        category_vocab=g.n_categories, user_dim=cfg.user_dim,
        feature_dim=cfg.feature_dim, tower_hidden=cfg.tower_hidden,
        knowledge_dim=cfg.tower_dim, seed=derive_seed(seed, "decomposed"))
    gcfg = DegeneratedConfig(
        user_vocab=g.n_users, item_vocab=g.n_items, category_vocab=g.n_categories,
        user_dim=cfg.user_dim, feature_dim=cfg.feature_dim,
        head_dims=cfg.head_dims, att_hidden=cfg.att_hidden,
        seed=derive_seed(seed, "degenerated"))
    tag = _cache_tag("serving", asdict(dcfg), asdict(gcfg), tuple(days),
                     cfg.pretrain_batch, cfg.pretrain_lr, cfg.alpha, cfg.triplet_cap)
    dpath = cache_dir / f"decomposed_{tag}.ckpt"
    gpath = cache_dir / f"degenerated_{tag}.ckpt"
    if dpath.exists() and gpath.exists():
        return dpath, gpath
    cache_dir.mkdir(parents=True, exist_ok=True)
    if log_fn:
        log_fn(f"training serving models (seed {seed}, days {list(days)}) ...")
    decomposed = DecomposedExtractor(dcfg)
    opt = AdamState(lr=cfg.pretrain_lr)
    train_click_epoch(decomposed, opt, bundle.super_log, days, cfg.pretrain_batch,
                      derive_seed(seed, "decomposed-order"))
    degenerated = DegeneratedExtractor(gcfg)
    opt2 = AdamState(lr=cfg.pretrain_lr)
    train_click_epoch(degenerated, opt2, bundle.super_log, days, cfg.pretrain_batch,
                      derive_seed(seed, "degenerated-order"), alpha=cfg.alpha,
                      triplet_cap=cfg.triplet_cap)
    save_checkpoint(dpath, "decomposed", dcfg, decomposed.params())
    save_checkpoint(gpath, "degenerated", gcfg, degenerated.params())
    return dpath, gpath


def build_snapshot_cached(bundle: DataBundle, cfg: ExperimentConfig, seed: int,
                          days: tuple[int, ...], cache_dir: Path,
                          version: int, log_fn=None) -> Path:
    dpath, gpath = train_serving_models_cached(bundle, cfg, seed, days, cache_dir,
                                               log_fn)
    tag = _cache_tag("snapshot", dpath.name, gpath.name, version)
    path = cache_dir / f"snapshot_{tag}.snap"
    if path.exists():
        return path
    decomposed = load_serving_model(dpath)
    degenerated = load_serving_model(gpath)
    asof = max(days) + 1
    sup = bundle.super_log
    m = sup.day <= max(days)
    users = np.unique(sup.user_id[m])
    items = np.unique(np.concatenate([sup.item_id[m], bundle.catalog.sub_items]))
    pairs = {(int(u), int(c)) for u, c in zip(sup.user_id[m], sup.category_id[m])}
    snap = build_snapshot(decomposed, degenerated, users, items, pairs,
                          bundle.user_behavior_asof(asof), bundle.catalog,
                          version=version)
    save_snapshot(path, snap)
    return path


# ---------------------------------------------------------------------------
# online loop


@dataclass
class LoopResult:
    checkpoints: dict[int, str]
    reports: list[tuple[int, GaucReport]]
    final_report: GaucReport | None
    missing_knowledge: int
    trained_days: list[int]


def _downstream_config(bundle: DataBundle, cfg: ExperimentConfig, seed: int
                       ) -> DownstreamConfig:
    g = bundle.gen_config
    return DownstreamConfig(
        item_vocab=g.n_items, shop_vocab=g.n_shops, category_vocab=g.n_categories,
        feature_dim=cfg.feature_dim, mlp_dims=cfg.mlp_dims,
        att_hidden=cfg.att_hidden, plug_layer=cfg.plug_layer,
        seed=derive_seed(seed, "downstream"))


def _no_knowledge(batch: RecordBatch):
    raise RuntimeError("knowledge requested but no source configured")


def evaluate(model: DownstreamModel, plug, knowledge_fn, test_batch: RecordBatch,
             user_click_counts: dict | None, batch_size: int = 4096
             ) -> tuple[GaucReport, int]:
    scores = np.empty(len(test_batch), dtype=np.float64)
    missing = 0
    for lo in range(0, len(test_batch), batch_size):
        sl = np.arange(lo, min(len(test_batch), lo + batch_size))
        part = test_batch.take(sl)
        knowledge = None
        if plug is not None:
            knowledge, found = knowledge_fn(part)
            missing += int(len(found) - found.sum())
        logits, _ = model.forward_batch(part, plug, knowledge)
        scores[sl] = logits
    report = gauc((test_batch.user_id, scores, test_batch.click), user_click_counts)
    return report, missing


def run_online_loop(bundle: DataBundle, cfg: ExperimentConfig, seed: int,
                    run_dir: Path, train_log: RecordBatch,
                    knowledge_fn: KnowledgeSource | None,
                    resume: bool = False, log_fn=None) -> LoopResult:
    """Day-partitioned warm-start training on `train_log`, then test-day
    evaluation. With resume=True, days already checkpointed in run_dir
    are skipped and training continues from the last checkpoint."""
    cfg.validate()
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    order_seed = derive_seed(seed, "train-order")
    test_batch = bundle.sub_log.take(
        np.flatnonzero(bundle.sub_log.day == cfg.test_day))
    clicks = bundle.user_click_counts(cfg.test_day)

    checkpoints: dict[int, str] = {}
    reports: list[tuple[int, GaucReport]] = []
    missing = 0
    trained: list[int] = []
    days = sorted(cfg.train_days)
    if resume:
        # existing checkpoints must form a prefix of the day window
        have = [d for d in days if (run_dir / f"day{d}.ckpt").exists()]
        for di, day in enumerate(days[:len(have)]):
            if day not in have:
                raise FileNotFoundError(
                    f"checkpoint gap: day {day} missing in {run_dir} "
                    f"while later days exist")
    prev_ckpt: Path | None = None
    for di, day in enumerate(days):
        ckpt_path = run_dir / f"day{day}.ckpt"
        if resume and ckpt_path.exists():
            checkpoints[day] = str(ckpt_path)
            prev_ckpt = ckpt_path
            continue
        if prev_ckpt is None:
            model = DownstreamModel(_downstream_config(bundle, cfg, seed))
            plug = None
            if knowledge_fn is not None:
                plug = PlugInNetwork(knowledge_fn.dim, model.plug_dim,
                                     np.random.default_rng(derive_seed(seed, "plug")),
                                     hidden=model.plug_dim)
            opt = AdamState(lr=cfg.train_lr)
        else:
            model, plug, opt, _ = warm_start(prev_ckpt)
        plan = DaySteps(train_log, day, order_seed, cfg.train_batch)
        for s in range(plan.steps):
            res = train_step(model, plug, plan.batch(s), knowledge_fn or _no_knowledge,
                             opt)
            missing += res.missing_knowledge
        trained.append(day)
        model.save(ckpt_path, plug, opt,
                   extra={"cursor_day": day,
                          "knowledge_version": cfg.knowledge_version})
        checkpoints[day] = str(ckpt_path)
        prev_ckpt = ckpt_path
        if cfg.eval_each_day:
            rep, m = evaluate(model, plug, knowledge_fn, test_batch, clicks)
            reports.append((day, rep))
            missing += m
        if log_fn:
            log_fn(f"day {day}: trained {len(plan.rows)} records")
    model, plug, opt, _ = warm_start(prev_ckpt)
    final, m = evaluate(model, plug, knowledge_fn, test_batch, clicks)
    missing += m
    return LoopResult(checkpoints=checkpoints, reports=reports, final_report=final,
                      missing_knowledge=missing, trained_days=trained)


def run_keep_c(bundle: DataBundle, cfg: ExperimentConfig, seed: int, run_dir: Path,
               log_fn=None) -> LoopResult:
    """Co-trained variant: no pre-training window; within each training
    day, extractor steps on the super-domain data alternate with
    downstream steps on the sub-domain data, the downstream consuming
    knowledge from the extractor as a frozen per-step snapshot."""
    cfg.validate()
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    ecfg, pcfg = _extractor_configs(bundle, cfg, seed)
    extractor_model = ExtractorModel(ecfg, catalog=bundle.catalog)
    ext_opt = AdamState(lr=pcfg.lr)
    source = ExtractorKnowledge(extractor_model, cfg.knowledge_mask)

    model = DownstreamModel(_downstream_config(bundle, cfg, seed))
    plug = PlugInNetwork(source.dim, model.plug_dim,
                         np.random.default_rng(derive_seed(seed, "plug")),
                         hidden=model.plug_dim)
    opt = AdamState(lr=cfg.train_lr)
    order_seed = derive_seed(seed, "train-order")
    missing = 0
    for day in sorted(cfg.train_days):
        sup_day = pretrain_day(bundle.super_log, day, ecfg.tasks, pcfg)
        sub_day = DaySteps(bundle.sub_log, day, order_seed, cfg.train_batch)
        # extractor steps spread evenly between the downstream steps
        slots = max(1, sub_day.steps)
        done = 0
        for k in range(slots):
            while done < round((k + 1) * sup_day.steps / slots):
                pretrain_day_step(extractor_model, ext_opt, sup_day, done, pcfg)
                done += 1
            if k < sub_day.steps:
                res = train_step(model, plug, sub_day.batch(k), source, opt)
                missing += res.missing_knowledge
        if log_fn:
            log_fn(f"day {day}: co-trained {len(sup_day.rows)} super / "
                   f"{len(sub_day.rows)} sub")
    ckpt_path = run_dir / f"day{max(cfg.train_days)}.ckpt"
    model.save(ckpt_path, plug, opt, extra={"cursor_day": max(cfg.train_days),
                                            "knowledge_version": 0})
    test_batch = bundle.sub_log.take(
        np.flatnonzero(bundle.sub_log.day == cfg.test_day))
    final, m = evaluate(model, plug, source, test_batch,
                        bundle.user_click_counts(cfg.test_day))
    return LoopResult(checkpoints={max(cfg.train_days): str(ckpt_path)}, reports=[],
                      final_report=final, missing_knowledge=missing + m,
                      trained_days=sorted(cfg.train_days))


# ---------------------------------------------------------------------------
# experiment dispatch


@dataclass
class RunResult:
    label: str
    mode: str
    seed: int
    report: GaucReport | None
    runtime_s: float
    missing_knowledge: int
    failure: str | None = None


def run_experiment(bundle: DataBundle, cfg: ExperimentConfig, seed: int,
                   label: str | None = None, log_fn=None) -> RunResult:
    cfg.validate()
    label = label or cfg.mode
    out_dir = Path(cfg.out_dir)
    cache_dir = out_dir / "cache"
    run_dir = out_dir / f"run_{_cache_tag(label, seed, asdict(cfg))}"
    t0 = time.time()
    source: KnowledgeSource | None = None
    try:
        if cfg.mode == "keep_c":
            result = run_keep_c(bundle, cfg, seed, run_dir, log_fn=log_fn)
        else:
            if cfg.mode == "base":
                train_log = _slice_days(bundle.sub_log, cfg.train_days)
            elif cfg.mode == "sample_merging":
                train_log = RecordBatch.concat(
                    [_slice_days(bundle.super_log, cfg.train_days),
                     _slice_days(bundle.sub_log, cfg.train_days)])
            else:
                train_log = _slice_days(bundle.sub_log, cfg.train_days)
            if cfg.mode == "keep":
                path = pretrain_extractor_cached(bundle, cfg, seed,
                                                 cfg.pretrain_days, cache_dir, log_fn)
                ext, _, _ = ExtractorModel.load(path, catalog=bundle.catalog)
                source = ExtractorKnowledge(ext, cfg.knowledge_mask)
            elif cfg.mode in _SERVING_SLOTS:
                slots = _SERVING_SLOTS[cfg.mode]
                snap_path = build_snapshot_cached(bundle, cfg, seed,
                                                  cfg.pretrain_days, cache_dir,
                                                  cfg.knowledge_version, log_fn)
                if cfg.knowledge_source.startswith("gkc:"):
                    _, host, port = cfg.knowledge_source.split(":")
                    snap = load_snapshot(snap_path)
                    source = GkcKnowledge(host, int(port), cfg.knowledge_version,
                                          snap.dim_total, slots, snap.user_dim)
                else:
                    source = SnapshotKnowledge(load_snapshot(snap_path), slots)
            result = run_online_loop(bundle, cfg, seed, run_dir, train_log,
                                     source, log_fn=log_fn)
        return RunResult(label=label, mode=cfg.mode, seed=seed,
                         report=result.final_report, runtime_s=time.time() - t0,
                         missing_knowledge=result.missing_knowledge)
    finally:
        if isinstance(source, GkcKnowledge):
            source.close()


def _slice_days(log: RecordBatch, days) -> RecordBatch:
    return log.take(np.flatnonzero(np.isin(log.day, list(days))))


# ---------------------------------------------------------------------------
# grids and tables


@dataclass
class GridCell:
    label: str
    cfg: ExperimentConfig


def ablation_cells(base_cfg: ExperimentConfig) -> list[GridCell]:
    masks = [("k_u",), ("k_u", "k_i"), ("k_u", "k_i", "k_ui")]
    return [GridCell(label=f"keep[{','.join(m)}]",
                     cfg=replace(base_cfg, mode="keep", knowledge_mask=m))
            for m in masks]


def default_grid(base_cfg: ExperimentConfig,
                 include_serving: bool = False) -> list[GridCell]:
    cells = [GridCell("base", replace(base_cfg, mode="base")),
             GridCell("sample_merging", replace(base_cfg, mode="sample_merging")),
             GridCell("keep", replace(base_cfg, mode="keep"))]
    cells += ablation_cells(base_cfg)
    if include_serving:
        cells += [GridCell("keep_decomposed",
                           replace(base_cfg, mode="keep_decomposed")),
                  GridCell("keep_degenerated",
                           replace(base_cfg, mode="keep_degenerated")),
                  GridCell("keep_decomp_degen",
                           replace(base_cfg, mode="keep_decomp_degen"))]
    return cells


@dataclass
class GridRow:
    label: str
    mode: str
    gauc_mean: float
    gauc_std: float
    improvement: float | None
    reference: float | None
    seeds: int
    failures: int


@dataclass
class GridReport:
    rows: list[GridRow]
    results: list[RunResult]

    def by_label(self) -> dict[str, GridRow]:
        return {r.label: r for r in self.rows}


def run_experiment_grid(bundle: DataBundle, cells: list[GridCell],
                        seeds: tuple[int, ...], log_fn=None) -> GridReport:
    """Run every (cell, seed), aggregate seed mean/std per cell, mark
    failures without aborting the rest of the table."""
    results: list[RunResult] = []
    for cell in cells:
        for seed in seeds:
            if log_fn:
                log_fn(f"[grid] {cell.label} seed={seed} ...")
            try:
                res = run_experiment(bundle, cell.cfg, seed, label=cell.label,
                                     log_fn=None)
            except Exception as exc:  # keep the rest of the grid alive
                res = RunResult(label=cell.label, mode=cell.cfg.mode, seed=seed,
                                report=None, runtime_s=0.0, missing_knowledge=0,
                                failure=f"{type(exc).__name__}: {exc}")
            if log_fn and res.report is not None:
                log_fn(f"[grid] {cell.label} seed={seed} "
                       f"gauc={res.report.gauc:.4f} ({res.runtime_s:.1f}s)")
            elif log_fn:
                log_fn(f"[grid] {cell.label} seed={seed} FAILED: {res.failure}")
            results.append(res)

    rows = []
    base_mean = None
    for cell in cells:
        cell_res = [r for r in results if r.label == cell.label]
        oks = [r.report.gauc for r in cell_res if r.report is not None
               and not r.report.empty]
        mean = float(np.mean(oks)) if oks else float("nan")
        std = float(np.std(oks)) if oks else float("nan")
        if cell.label == "base":
            base_mean = mean
        ref = REFERENCE_GAUC.get(cell.label, REFERENCE_SERVING_GAUC.get(cell.label))
        rows.append(GridRow(label=cell.label, mode=cell.cfg.mode, gauc_mean=mean,
                            gauc_std=std, improvement=None, reference=ref,
                            seeds=len(oks),
                            failures=sum(1 for r in cell_res if r.failure)))
    for row in rows:
        if base_mean is not None and not math.isnan(row.gauc_mean) \
                and row.label != "base":
            row.improvement = row.gauc_mean - base_mean
    return GridReport(rows=rows, results=results)


def format_grid(report: GridReport) -> str:
    head = f"{'mode':<22} {'gauc':>8} {'std':>8} {'improv':>9} {'ref':>8} {'runs':>5}"
    lines = [head, "-" * len(head)]
    for r in report.rows:
        improv = f"{r.improvement:+.4f}" if r.improvement is not None else "-"
        ref = f"{r.reference:.4f}" if r.reference is not None else "-"
        mark = f"  [{r.failures} FAILED]" if r.failures else ""
        lines.append(f"{r.label:<22} {r.gauc_mean:>8.4f} {r.gauc_std:>8.4f} "
                     f"{improv:>9} {ref:>8} {r.seeds:>5}{mark}")
    return "\n".join(lines)


def save_grid(report: GridReport, path: Path) -> None:
    with open(path, "w") as fh:
        for res in report.results:
            fh.write(json.dumps({
                "label": res.label, "mode": res.mode, "seed": res.seed,
                "gauc": None if res.report is None else res.report.gauc,
                "eligible_users": None if res.report is None
                else res.report.eligible_users,
                "runtime_s": round(res.runtime_s, 2),
                "missing_knowledge": res.missing_knowledge,
                "failure": res.failure}) + "\n")
