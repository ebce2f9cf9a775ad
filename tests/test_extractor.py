import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from knowplug.datagen import ImpressionRecord, RecordBatch
from knowplug.extractor import (ExtractorConfig, ExtractorModel, KnowledgeVector,
                                PretrainConfig, build_triplets,
                                day_triplets, extract_knowledge,
                                extract_knowledge_batch, hybrid_loss, joint_loss,
                                joint_loss_and_grads, knowledge_dim, pairwise_loss,
                                pointwise_loss, pretrain, pretrain_step, score)
from knowplug.features import assign_params
from knowplug.nncore import AdamState

from conftest import random_records, tiny_extractor
from oracles import (attention_oracle, fd_grads, grad_report, layer_triples,
                     mlp_oracle, pairwise_loss_oracle, perturb_params,
                     pointwise_loss_oracle)

LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# losses


def test_pointwise_loss_closed_forms():
    assert abs(pointwise_loss(np.array([0.0]), np.array([1])) - LOG2) < 1e-9
    assert abs(pointwise_loss(np.array([0.0]), np.array([0])) - LOG2) < 1e-9


def test_pointwise_loss_matches_float64_oracle():
    rng = np.random.default_rng(0)
    s = rng.normal(scale=3.0, size=100).astype(np.float32)
    c = rng.integers(0, 2, size=100)
    mine = pointwise_loss(s, c)
    ref = pointwise_loss_oracle(s, c)
    assert abs(mine - ref) / ref < 1e-5


def test_pointwise_loss_rejects_nonbinary_labels():
    with pytest.raises(ValueError):
        pointwise_loss(np.array([0.0]), np.array([2]))
    with pytest.raises(ValueError):
        pointwise_loss(np.array([0.0]), np.array([0.5]))


def test_pairwise_loss_closed_forms():
    assert abs(pairwise_loss(np.array([1.0]), np.array([1.0])) - LOG2) < 1e-6
    # frozen closed-form evaluations of log(1 + exp(-(si - sj)))
    assert abs(pairwise_loss(np.array([10.0]), np.array([0.0])) - 4.5399e-5) < 1e-8
    assert abs(pairwise_loss(np.array([0.0]), np.array([10.0])) - 10.000045398899218) < 1e-6


def test_pairwise_loss_matches_oracle():
    rng = np.random.default_rng(1)
    pos = rng.normal(scale=4.0, size=50)
    neg = rng.normal(scale=4.0, size=50)
    assert abs(pairwise_loss(pos, neg) - pairwise_loss_oracle(pos, neg)) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.floats(-30, 30), st.floats(-30, 30), st.floats(-100, 100))
def test_pairwise_loss_translation_invariant(si, sj, shift):
    a = pairwise_loss(np.array([si]), np.array([sj]))
    b = pairwise_loss(np.array([si + shift]), np.array([sj + shift]))
    assert abs(a - b) < 1e-6


def test_hybrid_loss_arithmetic():
    assert hybrid_loss(1.0, 0.4, 0.25) == 1.1
    assert hybrid_loss(2.5, 99.0, 0.0) == 2.5
    assert PretrainConfig().alpha == 0.25
    with pytest.raises(ValueError):
        hybrid_loss(1.0, 1.0, -0.1)


# ---------------------------------------------------------------------------
# scoring


def _record(**kw):
    base = dict(domain="super", day=0, session_id=0, user_id=3, item_id=5, shop_id=2,
                category_id=1, behavior_seq=(4, 9), click=0, conversion=0, cart=0)
    base.update(kw)
    return ImpressionRecord(**base)


def test_score_zero_parameters_gives_zero_logit():
    model = tiny_extractor(seed=0)
    for p in model.params().values():
        p[...] = 0.0
    s = score(model, _record(), "click")
    assert s == 0.0
    assert 1.0 / (1.0 + math.exp(-s)) == 0.5


def test_identical_records_identical_logits():
    model = tiny_extractor(seed=1)
    a = score(model, _record(), "click")
    b = score(model, _record(), "click")
    assert a == b


def test_unknown_task_rejected():
    model = tiny_extractor(seed=1, tasks=("click",))
    with pytest.raises(ValueError, match="unknown task"):
        score(model, _record(), "purchase")


def test_score_matches_chained_module_oracle():
    """Independent composition: embedding lookups -> scripted attention ->
    scripted MLP, all in float64."""
    model = tiny_extractor(seed=2)
    rec = _record(behavior_seq=(1, 7, 3))
    mine = score(model, rec, "conversion")

    enc = model.encoder
    e_user = enc.tables["user"].rows[rec.user_id]
    e_item = enc.tables["item"].rows[rec.item_id]
    e_shop = enc.tables["shop"].rows[rec.shop_id]
    e_cat = enc.tables["category"].rows[rec.category_id]
    behav = enc.tables["behavior"].rows[list(rec.behavior_seq)]
    pooled = attention_oracle(layer_triples(enc.pooler.att_mlp), behav, e_item)
    x = np.concatenate([e_user, e_item, e_shop, e_cat, pooled])[None, :]
    out = mlp_oracle(layer_triples(model.heads["conversion"]), x)
    ref = float(out[0, 0] - out[0, 1])
    assert abs(mine - ref) < 1e-6


# ---------------------------------------------------------------------------
# triplets


def _session_records(labels, user=7, session=42):
    return [_record(user_id=user, session_id=session, item_id=k, click=c)
            for k, c in enumerate(labels)]


def test_build_triplets_single_pair():
    t = build_triplets(_session_records([1, 0]), cap=3,
                       rng=np.random.default_rng(0))
    assert len(t) == 1
    assert t.pos_idx[0] == 0 and t.neg_idx[0] == 1


def test_build_triplets_no_negatives_gives_empty():
    t = build_triplets(_session_records([1, 1]), cap=3,
                       rng=np.random.default_rng(0))
    assert len(t) == 0
    t = build_triplets(_session_records([0, 0]), cap=3,
                       rng=np.random.default_rng(0))
    assert len(t) == 0


def test_build_triplets_capped_sampling_matches_enumeration():
    labels = [1, 0, 1, 0, 0]
    records = _session_records(labels)
    t = build_triplets(records, cap=2, rng=np.random.default_rng(5))
    assert len(t) == 4  # 2 positives x cap 2
    pos_set = {i for i, c in enumerate(labels) if c == 1}
    neg_set = {i for i, c in enumerate(labels) if c == 0}
    for p, n in zip(t.pos_idx, t.neg_idx):
        assert int(p) in pos_set and int(n) in neg_set and p != n
    for p in pos_set:
        negs = t.neg_idx[t.pos_idx == p]
        assert len(set(negs.tolist())) == len(negs)  # without replacement
    # deterministic per seed
    t2 = build_triplets(records, cap=2, rng=np.random.default_rng(5))
    assert np.array_equal(t.pos_idx, t2.pos_idx)
    assert np.array_equal(t.neg_idx, t2.neg_idx)


def test_build_triplets_rejects_mixed_sessions():
    records = _session_records([1, 0]) + _session_records([1, 0], session=43)
    with pytest.raises(ValueError, match="session"):
        build_triplets(records, cap=1, rng=np.random.default_rng(0))


def test_day_triplets_pairs_within_sessions_only():
    rng = np.random.default_rng(3)
    batch = random_records(rng, 60, session_span=5)
    t = day_triplets(batch, "click", cap=2, seed=(1, 2))
    assert len(t) > 0
    assert np.all(batch.click[t.pos_idx] == 1)
    assert np.all(batch.click[t.neg_idx] == 0)
    assert np.all(batch.session_id[t.pos_idx] == batch.session_id[t.neg_idx])
    assert np.all(batch.user_id[t.pos_idx] == batch.user_id[t.neg_idx])


# ---------------------------------------------------------------------------
# knowledge export


def test_knowledge_dims_production_config():
    cfg = ExtractorConfig(user_vocab=10, item_vocab=10, shop_vocab=4, category_vocab=4,
                          user_dim=48, feature_dim=16,
                          head_dims=(512, 256, 128, 64, 2))
    assert knowledge_dim(cfg) == 288  # 48 + 3*16 + 3*64


def test_zero_heads_zero_interaction_knowledge():
    model = tiny_extractor(seed=3)
    for name, p in model.params().items():
        if name.startswith("head_"):
            p[...] = 0.0
    kv = extract_knowledge(model, 2, 4, shop_id=1, category_id=0,
                           behavior_seq=(1, 2))
    assert np.all(kv.k_ui_clk == 0) and np.all(kv.k_ui_cv == 0) \
        and np.all(kv.k_ui_cart == 0)
    assert np.any(kv.k_u != 0)


def test_user_item_knowledge_is_task_independent():
    model = tiny_extractor(seed=4)
    kv = extract_knowledge(model, 5, 9, shop_id=3, category_id=2)
    enc = model.encoder
    assert np.array_equal(kv.k_u, enc.tables["user"].rows[5])
    expect_ki = np.concatenate([enc.tables["item"].rows[9],
                                enc.tables["shop"].rows[3],
                                enc.tables["category"].rows[2]])
    assert np.array_equal(kv.k_i, expect_ki)
    assert kv.concatenated.shape == (knowledge_dim(model.cfg),)


def test_disabled_task_slots_are_zero_and_length_stable():
    full = tiny_extractor(seed=5)
    clk_only = tiny_extractor(seed=5, tasks=("click",))
    rng = np.random.default_rng(6)
    batch = random_records(rng, 4)
    a = extract_knowledge_batch(full, batch)
    b = extract_knowledge_batch(clk_only, batch)
    assert a.shape == b.shape
    d_ui = full.cfg.head_dims[-2]
    off = full.cfg.user_dim + 3 * full.cfg.feature_dim
    assert np.all(b[:, off + d_ui:] == 0)  # conversion and cart slots
    assert np.any(b[:, :off] != 0)


def test_knowledge_vector_concatenation_order():
    kv = KnowledgeVector(k_u=np.array([1.0]), k_i=np.array([2.0]),
                         k_ui_clk=np.array([3.0]), k_ui_cv=np.array([4.0]),
                         k_ui_cart=np.array([5.0]))
    assert np.array_equal(kv.concatenated, np.array([1, 2, 3, 4, 5.0]))


# ---------------------------------------------------------------------------
# training


def _step_inputs(rng, model, n=24):
    batch = random_records(rng, n)
    clicked = batch.take(np.flatnonzero(batch.click == 1))
    trips = {}
    for ti, task in enumerate(model.cfg.tasks):
        src = batch if task == "click" else clicked
        t = day_triplets(src, task, cap=2, seed=(9, ti))
        if len(t):
            trips[task] = (src.take(t.pos_idx), src.take(t.neg_idx))
    return batch, clicked, trips


def test_pretrain_step_all_negative_alpha_zero_loss_form():
    model = tiny_extractor(seed=7, tasks=("click",))
    rng = np.random.default_rng(8)
    batch = random_records(rng, 10, p_click=0.0)
    cfg = PretrainConfig(alpha=0.0, batch_size=10)
    opt = AdamState(lr=cfg.lr)
    logits, _ = model.score_batch(batch, "click")
    expect = float(sum(-np.log(1 - 1 / (1 + np.exp(-s))) for s in
                       logits.astype(np.float64)))
    losses = pretrain_step(model, opt, batch, batch.take(np.empty(0, int)), cfg)
    assert abs(losses["click"].point - expect) < 1e-6
    assert losses["click"].pair == 0.0


def test_empty_click_batch_zeroes_conversion_and_cart_losses():
    model = tiny_extractor(seed=9)
    rng = np.random.default_rng(10)
    batch = random_records(rng, 12, p_click=0.0)
    clicked = batch.take(np.flatnonzero(batch.click == 1))
    assert len(clicked) == 0
    opt = AdamState()
    losses = pretrain_step(model, opt, batch, clicked, PretrainConfig(batch_size=12))
    assert losses["conversion"].hybrid == 0.0
    assert losses["cart"].hybrid == 0.0
    assert losses["click"].n == 12


def test_one_step_decreases_joint_loss_on_same_batch():
    wins = 0
    cfg = PretrainConfig(alpha=0.25, batch_size=32, lr=1e-3)
    for seed in range(20):
        model = tiny_extractor(seed=seed)
        rng = np.random.default_rng(100 + seed)
        batch, clicked, trips = _step_inputs(rng, model, n=32)
        before = joint_loss(model, batch, clicked, cfg, trips)
        opt = AdamState(lr=cfg.lr)
        pretrain_step(model, opt, batch, clicked, cfg, trips)
        after = joint_loss(model, batch, clicked, cfg, trips)
        wins += after < before
    assert wins >= 18


def test_joint_loss_gradients_match_finite_differences():
    # params spread to O(1) (pinned kink-free seed) so central differences
    # stay valid at delta=1e-3; see oracles.perturb_params
    model32 = tiny_extractor(seed=11, head=(8, 4, 2), vocabs=(12, 10, 4, 3))
    perturb_params(model32.params(), np.random.default_rng(40))
    model64 = tiny_extractor(seed=11, head=(8, 4, 2), vocabs=(12, 10, 4, 3))
    assign_params(model64.walk_slots(), model32.params(), dtype=np.float64)
    rng = np.random.default_rng(12)
    batch, clicked, trips = _step_inputs(rng, model32, n=14)
    cfg = PretrainConfig(alpha=0.25, batch_size=14)

    _, analytic = joint_loss_and_grads(model32, batch, clicked, cfg, trips)
    numeric = fd_grads(model64.params(),
                       lambda: joint_loss(model64, batch, clicked, cfg, trips))
    ok, worst = grad_report(analytic, numeric)
    assert ok, worst


def test_shared_embeddings_receive_gradients_from_every_task():
    model = tiny_extractor(seed=13)
    rng = np.random.default_rng(14)
    batch = random_records(rng, 30, p_click=1.0)  # all clicked
    cfg = PretrainConfig(alpha=0.0, batch_size=30)
    _, g_all = joint_loss_and_grads(model, batch, batch, cfg)
    clk = tiny_extractor(seed=13, tasks=("click",))
    _, g_clk = joint_loss_and_grads(clk, batch, batch,
                                    PretrainConfig(alpha=0.0, batch_size=30))
    assert not np.allclose(g_all["emb_user"], g_clk["emb_user"])


def test_pretrain_is_deterministic_and_resumable(tmp_path):
    rng = np.random.default_rng(15)
    recs = []
    for day in (0, 1):
        recs.append(random_records(rng, 40, day=day))
    from knowplug.datagen import RecordBatch as RB
    log = RB.concat(recs)
    log.session_id[:] = np.arange(len(log)) // 4 + log.day * 1000
    cfg = PretrainConfig(batch_size=16, seed=5)

    def fresh():
        return tiny_extractor(seed=16), AdamState(lr=cfg.lr)

    m1, o1 = fresh()
    pretrain(m1, o1, log, (0, 1), cfg)
    m2, o2 = fresh()
    pretrain(m2, o2, log, (0, 1), cfg)
    for k, v in m1.params().items():
        assert np.array_equal(v, m2.params()[k]), k

    # split across a checkpoint
    m3, o3 = fresh()
    ck = tmp_path / "ext.ckpt"
    pretrain(m3, o3, log, (0,), cfg, checkpoint_path=ck)
    m4, o4, extra = ExtractorModel.load(ck)
    assert extra["cursor_day"] == 0
    pretrain(m4, o4, log, (0, 1), cfg, start_after_day=0)
    for k, v in m1.params().items():
        assert np.array_equal(v, m4.params()[k]), k


def test_pretrain_log_reports_each_trained_task():
    """A model trained without the click task still logs its day."""
    log = random_records(np.random.default_rng(23), 40)
    lines = []
    history = pretrain(tiny_extractor(seed=24, tasks=("conversion",)), AdamState(),
                       log, (0,), PretrainConfig(batch_size=16, seed=5),
                       log_fn=lines.append)
    conv = history[0]["conversion"]
    assert lines == [f"day 0: conversion point/sample="
                     f"{conv['point'] / max(conv['n'], 1):.4f} "
                     f"({conv['n']} rows, {conv['n_triplets']} triplets)"]


@pytest.mark.filterwarnings("ignore:no records for day 99")
def test_empty_day_takes_no_optimizer_step():
    log = random_records(np.random.default_rng(21), 40)
    cfg = PretrainConfig(batch_size=16, seed=5)
    runs = []
    for days in ([0], [0, 99]):
        model, opt = tiny_extractor(seed=22), AdamState(lr=cfg.lr)
        pretrain(model, opt, log, days, cfg)
        runs.append((model.params(), opt.step))
    (p1, step1), (p2, step2) = runs
    assert step1 == step2 == 3
    for k, v in p1.items():
        assert np.array_equal(v, p2[k]), k


def test_hybrid_training_is_roughly_calibrated():
    """Mean predicted probability approaches the empirical positive rate
    when the pointwise term is present."""
    model = tiny_extractor(seed=17, tasks=("click",), vocabs=(30, 20, 5, 4))
    rng = np.random.default_rng(18)
    batch = random_records(rng, 400, p_click=0.3)
    clicked = batch.take(np.flatnonzero(batch.click == 1))
    t = day_triplets(batch, "click", cap=2, seed=19)
    trips = {"click": (batch.take(t.pos_idx), batch.take(t.neg_idx))}
    cfg = PretrainConfig(alpha=0.25, batch_size=400, lr=0.01)
    opt = AdamState(lr=cfg.lr)
    for _ in range(150):
        pretrain_step(model, opt, batch, clicked, cfg, trips)
    logits, _ = model.score_batch(batch, "click")
    mean_p = float(np.mean(1.0 / (1.0 + np.exp(-logits.astype(np.float64)))))
    rate = float(batch.click.mean())
    assert abs(mean_p - rate) <= 0.05


def test_conversion_training_set_is_subset_of_clicks(tiny_bundle):
    log = tiny_bundle.super_log
    clicked = log.take(np.flatnonzero(log.click == 1))
    assert np.all(clicked.click == 1)
    assert (clicked.conversion == 1).sum() == (log.conversion == 1).sum()
