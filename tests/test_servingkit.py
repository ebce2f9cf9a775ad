import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from knowplug.checkpoint import CheckpointError, save_checkpoint
from knowplug.datagen import Catalog
from knowplug.features import assign_params, batch_features
from knowplug.nncore import AdamState, ShapeError
from knowplug.servingkit import (DecomposedConfig, DecomposedExtractor,
                                 DegeneratedConfig, DegeneratedExtractor,
                                 KnowledgeSnapshot, build_snapshot,
                                 compose_serving_knowledge, count_cache_entries,
                                 load_serving_model, load_snapshot, save_snapshot,
                                 train_click_epoch)

from conftest import random_records, tiny_extractor
from oracles import fd_grads, grad_report, perturb_params


def make_decomposed(seed=0, d=4):
    return DecomposedExtractor(DecomposedConfig(
        user_vocab=40, item_vocab=30, shop_vocab=8, category_vocab=6,
        user_dim=6, feature_dim=4, tower_hidden=5, knowledge_dim=d, seed=seed))


def make_degenerated(seed=0, head=(8, 6, 2)):
    return DegeneratedExtractor(DegeneratedConfig(
        user_vocab=40, item_vocab=30, category_vocab=6, user_dim=6,
        feature_dim=4, head_dims=tuple(head), att_hidden=4, seed=seed))


def make_catalog(rng, n_items=30, n_shops=8, n_cats=6):
    return Catalog(item_shop=rng.integers(0, n_shops, n_items),
                   item_category=rng.integers(0, n_cats, n_items),
                   sub_items=np.arange(n_items // 2))


# ---------------------------------------------------------------------------
# composition


def test_compose_ones_product_slot():
    one = np.ones(3, dtype=np.float32)
    uc = np.array([2.0], dtype=np.float32)
    out = compose_serving_knowledge(one, one, uc)
    assert np.array_equal(out, np.array([1, 1, 1, 1, 1, 1, 1, 1, 1, 2.0],
                                        dtype=np.float32))


def test_compose_zero_user_zeroes_product():
    k_u = np.zeros(4)
    k_i = np.random.default_rng(0).normal(size=4)
    out = compose_serving_knowledge(k_u, k_i, np.ones(2))
    assert np.all(out[8:12] == 0)


def test_compose_matches_scripted_oracle():
    rng = np.random.default_rng(1)
    k_u, k_i = rng.normal(size=4), rng.normal(size=4)
    k_uc = rng.normal(size=3)
    out = compose_serving_knowledge(k_u, k_i, k_uc)
    ref = np.array(list(k_u) + list(k_i) + [a * b for a, b in zip(k_u, k_i)]
                   + list(k_uc))
    assert np.array_equal(out, ref)


def test_compose_dim_mismatch_rejected():
    with pytest.raises(ShapeError):
        compose_serving_knowledge(np.zeros(3), np.zeros(4), np.zeros(2))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(0, 5), st.integers(0, 2 ** 31))
def test_compose_length_property(d, duc, seed):
    rng = np.random.default_rng(seed)
    out = compose_serving_knowledge(rng.normal(size=d), rng.normal(size=d),
                                    rng.normal(size=duc))
    assert out.shape == (3 * d + duc,)


# ---------------------------------------------------------------------------
# cache accounting


def test_count_cache_entries_worked_example():
    assert count_cache_entries(1000, 500, 3000) == (500000, 4500)


def test_count_cache_entries_degenerate_zero():
    assert count_cache_entries(0, 7, 0) == (0, 7)


def test_count_cache_entries_production_scale_symbolic():
    n_users = 230_000_000  # production-scale user count
    n_items = 5_000_000
    pairwise, decomposed = count_cache_entries(n_users, n_items, 10 ** 9)
    assert pairwise == n_users * n_items
    assert decomposed == n_users + n_items + 10 ** 9
    assert pairwise < 2 ** 63


def test_count_cache_entries_overflow_guard():
    with pytest.raises(OverflowError):
        count_cache_entries(2 ** 33, 2 ** 31, 0)
    with pytest.raises(ValueError):
        count_cache_entries(-1, 2, 3)


# ---------------------------------------------------------------------------
# models


def test_two_tower_logit_is_dot_product():
    model = make_decomposed(seed=2)
    rng = np.random.default_rng(3)
    batch = random_records(rng, 6)
    logits, cache = model.score_batch(batch)
    ref = np.einsum("nd,nd->n", cache["ku"], cache["ki"])
    assert np.array_equal(logits, ref)


def test_two_tower_gradients_match_finite_differences():
    from knowplug.extractor import pointwise_loss_grad

    m32 = make_decomposed(seed=4)
    perturb_params(m32.params(), np.random.default_rng(41))
    m64 = make_decomposed(seed=4)
    assign_params(m64.walk_slots(), m32.params(), dtype=np.float64)
    rng = np.random.default_rng(5)
    batch = random_records(rng, 9)

    logits, cache = m32.score_batch(batch)
    _, dlogit = pointwise_loss_grad(logits, batch.click)
    analytic: dict = {}
    m32.backward_batch(cache, dlogit.astype(np.float32), analytic)

    def loss():
        s, _ = m64.score_batch(batch)
        from oracles import pointwise_loss_oracle
        return pointwise_loss_oracle(s, batch.click)

    ok, worst = grad_report(analytic, fd_grads(m64.params(), loss))
    assert ok, worst


def test_degenerated_schema_has_no_item_side_inputs():
    model = make_degenerated(seed=6)
    assert set(model.encoder.include) == {"user", "category"}
    assert "item" not in model.encoder.include and "shop" not in model.encoder.include


def test_degenerated_output_depends_only_on_user_and_category():
    model = make_degenerated(seed=7)
    rng = np.random.default_rng(8)
    batch = random_records(rng, 4)
    # same user/category/behavior, different item and shop ids
    clone = batch.take(np.arange(4))
    clone.item_id[:] = (clone.item_id + 11) % 30
    clone.shop_id[:] = (clone.shop_id + 3) % 8
    kuc_a = model.uc_vectors(batch_features(batch))
    kuc_b = model.uc_vectors(batch_features(clone))
    assert np.array_equal(kuc_a, kuc_b)
    logits_a, _ = model.score_batch(batch)
    logits_b, _ = model.score_batch(clone)
    assert np.array_equal(logits_a, logits_b)


def test_degenerated_gradients_match_finite_differences():
    from knowplug.extractor import pointwise_loss_grad
    from oracles import pointwise_loss_oracle

    m32 = make_degenerated(seed=9)
    perturb_params(m32.params(), np.random.default_rng(47))
    m64 = make_degenerated(seed=9)
    assign_params(m64.walk_slots(), m32.params(), dtype=np.float64)
    rng = np.random.default_rng(10)
    batch = random_records(rng, 8)

    logits, cache = m32.score_batch(batch)
    _, dlogit = pointwise_loss_grad(logits, batch.click)
    analytic: dict = {}
    m32.backward_batch(cache, dlogit.astype(np.float32), analytic)

    def loss():
        s, _ = m64.score_batch(batch)
        return pointwise_loss_oracle(s, batch.click)

    ok, worst = grad_report(analytic, fd_grads(m64.params(), loss))
    assert ok, worst


def test_train_click_epoch_decreases_loss():
    from knowplug.extractor import pointwise_loss

    rng = np.random.default_rng(11)
    log = random_records(rng, 200)
    model = make_decomposed(seed=12)
    first, _ = model.score_batch(log)
    before = pointwise_loss(first, log.click)
    train_click_epoch(model, AdamState(lr=0.01), log, [0], batch_size=50, seed=13)
    last, _ = model.score_batch(log)
    assert pointwise_loss(last, log.click) < before


@pytest.mark.filterwarnings("ignore:no records for day 99")
def test_train_click_epoch_takes_no_step_on_an_empty_day():
    log = random_records(np.random.default_rng(15), 120)
    runs = []
    for days in ([0], [0, 99]):
        model, opt = make_degenerated(seed=16), AdamState(lr=0.01)
        train_click_epoch(model, opt, log, days, batch_size=50, seed=17, alpha=0.5)
        runs.append((model.params(), opt.step))
    (p1, step1), (p2, step2) = runs
    assert step1 == step2 == 3
    for k, v in p1.items():
        assert np.array_equal(v, p2[k]), k


@pytest.mark.parametrize("kind", ["decomposed", "degenerated"])
def test_serving_model_checkpoint_round_trip(tmp_path, kind):
    model = make_decomposed(seed=18) if kind == "decomposed" else make_degenerated(seed=18)
    path = tmp_path / f"{kind}.ckpt"
    save_checkpoint(path, kind, model.cfg, model.params())
    back = load_serving_model(path)
    assert type(back) is type(model) and back.cfg == model.cfg
    for name, arr in model.params().items():
        assert np.array_equal(arr, back.params()[name]), name


def test_serving_model_loader_rejects_other_kinds(tmp_path):
    path = tmp_path / "e.ckpt"
    tiny_extractor(seed=19).save(path)
    with pytest.raises(CheckpointError, match="serving model"):
        load_serving_model(path)


# ---------------------------------------------------------------------------
# snapshots


def build_small_snapshot(seed=14, version=1):
    rng = np.random.default_rng(seed)
    decomposed = make_decomposed(seed=seed)
    degenerated = make_degenerated(seed=seed + 1)
    catalog = make_catalog(rng)
    users = rng.choice(40, size=12, replace=False)
    items = rng.choice(30, size=10, replace=False)
    pairs = {(int(u), int(rng.integers(0, 6))) for u in users}
    behavior = {int(u): tuple(int(x) for x in rng.integers(0, 30, rng.integers(0, 5)))
                for u in users}
    snap = build_snapshot(decomposed, degenerated, users, items, pairs, behavior,
                          catalog, version=version)
    return snap, decomposed, degenerated, catalog, behavior, pairs


def test_snapshot_entry_counts():
    snap, _, _, _, behavior, pairs = build_small_snapshot()
    assert len(snap.user_keys) == 12
    assert len(snap.item_keys) == 10
    assert len(snap.uc_user_keys) == len(pairs)
    assert len(snap) == 12 + 10 + len(pairs)


def test_empty_user_set_empty_map():
    rng = np.random.default_rng(15)
    decomposed = make_decomposed(seed=16)
    degenerated = make_degenerated(seed=17)
    catalog = make_catalog(rng)
    snap = build_snapshot(decomposed, degenerated, [], [], [], {}, catalog, version=1)
    assert len(snap.user_keys) == 0 and len(snap) == 0


def test_snapshot_lookup_reproduces_tower_forward_bitwise():
    snap, decomposed, degenerated, catalog, behavior, pairs = build_small_snapshot()
    u = int(snap.user_keys[3])
    seq = behavior[u]
    mat = np.full((1, max(len(seq), 1)), -1, dtype=np.int64)
    if seq:
        mat[0, :len(seq)] = seq
    feats = {"user": np.array([u]), "behavior": mat,
             "behavior_len": np.array([len(seq)], dtype=np.int32)}
    direct, _ = decomposed.user_vectors(feats)
    cached, found = snap.lookup_users([u])
    assert found[0] and np.array_equal(direct[0], cached[0])

    i = int(snap.item_keys[5])
    direct_i, _ = decomposed.item_vectors(
        {"item": np.array([i]), "shop": catalog.item_shop[[i]],
         "category": catalog.item_category[[i]]})
    cached_i, found_i = snap.lookup_items([i])
    assert found_i[0] and np.array_equal(direct_i[0], cached_i[0])


def test_snapshot_compose_matches_compose_fn_and_flags():
    snap, *_ = build_small_snapshot()
    u, i = int(snap.user_keys[0]), int(snap.item_keys[0])
    uc_u, uc_c = int(snap.uc_user_keys[0]), int(snap.uc_cat_keys[0])
    mat, fu, fi, fuc = snap.compose_batch([u, 9999], [i, i], [uc_c, uc_c])
    assert fu[0] and fi[0]
    assert not fu[1] and fi[1]
    ku = snap.user_vecs[0] if u == int(snap.user_keys[0]) else None
    ref = compose_serving_knowledge(snap.lookup_users([u])[0][0],
                                    snap.lookup_items([i])[0][0],
                                    snap.lookup_uc([u], [uc_c])[0][0])
    assert np.array_equal(mat[0], ref)
    assert np.all(mat[1][:snap.user_dim] == 0)


def test_snapshot_file_round_trip_bit_exact(tmp_path):
    snap, *_ = build_small_snapshot(version=9)
    path = tmp_path / "k.snap"
    save_snapshot(path, snap)
    back = load_snapshot(path)
    assert back.version == 9
    assert np.array_equal(back.user_keys, snap.user_keys)
    assert np.array_equal(back.user_vecs, snap.user_vecs)
    assert np.array_equal(back.item_vecs, snap.item_vecs)
    assert np.array_equal(back.uc_user_keys, snap.uc_user_keys)
    assert np.array_equal(back.uc_cat_keys, snap.uc_cat_keys)
    assert np.array_equal(back.uc_vecs, snap.uc_vecs)
    # byte determinism of the writer
    path2 = tmp_path / "k2.snap"
    save_snapshot(path2, snap)
    assert path.read_bytes() == path2.read_bytes()


def test_snapshot_dim_mismatch_rejected():
    with pytest.raises(ShapeError):
        KnowledgeSnapshot(version=1, user_dim=3, item_dim=4, uc_dim=2,
                          user_keys=np.empty(0, np.int64),
                          user_vecs=np.empty((0, 3), np.float32),
                          item_keys=np.empty(0, np.int64),
                          item_vecs=np.empty((0, 4), np.float32),
                          uc_user_keys=np.empty(0, np.int64),
                          uc_cat_keys=np.empty(0, np.int64),
                          uc_vecs=np.empty((0, 2), np.float32))
