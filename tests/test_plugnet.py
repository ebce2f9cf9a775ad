import numpy as np
import pytest

from knowplug.checkpoint import CheckpointError
from knowplug.extractor import extract_knowledge_batch, knowledge_dim
from knowplug.features import ManifestError, assign_params
from knowplug.nncore import AdamState, ShapeError
from knowplug.plugnet import (DownstreamConfig, DownstreamModel, PlugInNetwork,
                              click_loss_and_grads, forward_with_plug,
                              load_downstream, train_step, warm_start)

from conftest import random_records, tiny_extractor
from oracles import (block_concat_forward, fd_grads, grad_report, layer_triples,
                     perturb_params)


def make_model(seed=0, mlp=(12, 8, 4, 2), plug_layer=-2):
    cfg = DownstreamConfig(item_vocab=30, shop_vocab=8, category_vocab=6,
                           feature_dim=4, mlp_dims=tuple(mlp), att_hidden=4,
                           plug_layer=plug_layer, seed=seed)
    return DownstreamModel(cfg)


def make_plug(model, kdim=10, seed=0, zero_final=True):
    return PlugInNetwork(kdim, model.plug_dim, np.random.default_rng(seed),
                         zero_init_final=zero_final)


def rand_knowledge(rng, n, kdim=10):
    return rng.normal(size=(n, kdim)).astype(np.float32)


def test_plug_layer_must_leave_a_following_layer():
    with pytest.raises(ValueError):
        DownstreamConfig(item_vocab=5, shop_vocab=2, category_vocab=2,
                         mlp_dims=(4, 2), plug_layer=-1).validate()


@pytest.mark.parametrize("plug_layer", [5, 7, -7, -9])
def test_out_of_range_plug_layer_rejected(plug_layer):
    """With 5 layers only -5..3 name a layer with one after it; larger
    values must not wrap around onto some other layer."""
    with pytest.raises(ValueError, match="names none"):
        DownstreamConfig(item_vocab=5, shop_vocab=2, category_vocab=2,
                         plug_layer=plug_layer).validate()
    for edge in (-5, 3):
        DownstreamConfig(item_vocab=5, shop_vocab=2, category_vocab=2,
                         plug_layer=edge).validate()


def test_zero_final_plug_is_bitwise_noop():
    rng = np.random.default_rng(1)
    model = make_model(seed=2)
    plug = make_plug(model, seed=3, zero_final=True)
    batch = random_records(rng, 9, n_items=30, n_shops=8, n_cats=6)
    k = rand_knowledge(rng, 9)
    plain, _ = model.forward_batch(batch)
    plugged, _ = model.forward_batch(batch, plug, k)
    assert np.array_equal(plain, plugged)


def test_zero_knowledge_with_zero_bias_projection_is_noop():
    rng = np.random.default_rng(4)
    model = make_model(seed=5)
    plug = make_plug(model, seed=6, zero_final=False)
    for layer in plug.net.layers:
        layer.bias[...] = 0.0
    batch = random_records(rng, 7, n_items=30, n_shops=8, n_cats=6)
    k = np.zeros((7, 10), dtype=np.float32)
    plain, _ = model.forward_batch(batch)
    plugged, _ = model.forward_batch(batch, plug, k)
    assert np.array_equal(plain, plugged)


def test_plug_dim_mismatch_is_shape_error():
    rng = np.random.default_rng(7)
    model = make_model(seed=8)
    plug = PlugInNetwork(10, model.plug_dim + 1, np.random.default_rng(0))
    batch = random_records(rng, 3, n_items=30, n_shops=8, n_cats=6)
    with pytest.raises(ShapeError):
        model.forward_batch(batch, plug, rand_knowledge(rng, 3))


@pytest.mark.parametrize("plug_layer", [-2, -3, 0])
def test_plugged_forward_matches_block_concat_oracle(plug_layer):
    """The add-at-layer-m network equals an explicit concat-architecture
    network with block weights, on every input."""
    rng = np.random.default_rng(10 + plug_layer)
    model = make_model(seed=11, plug_layer=plug_layer)
    plug = make_plug(model, seed=12, zero_final=False)
    perturb_params(plug.params(), rng, scale=0.5)
    for trial in range(20):
        batch = random_records(rng, 5, n_items=30, n_shops=8, n_cats=6)
        k = rand_knowledge(rng, 5)
        logits, cache = model.forward_batch(batch, plug, k)
        x = cache["x"]
        ref = block_concat_forward(layer_triples(model.main),
                                   layer_triples(plug.net),
                                   model.plug_index, x, k)
        ref_logits = ref[:, 0] - ref[:, 1]
        assert np.max(np.abs(logits - ref_logits)) < 1e-5


def test_forward_with_plug_single_record_probability():
    rng = np.random.default_rng(13)
    model = make_model(seed=14)
    plug = make_plug(model, seed=15)
    batch = random_records(rng, 1, n_items=30, n_shops=8, n_cats=6)
    rec = batch.record(0, domain="sub")
    k = rand_knowledge(rng, 1)[0]
    p = forward_with_plug(model, plug, rec, k)
    assert 0.0 < p < 1.0
    logits, _ = model.forward_batch(batch, plug, k[None, :])
    assert abs(p - 1.0 / (1.0 + np.exp(-float(logits[0])))) < 1e-12


@pytest.mark.parametrize("plug_layer", [-3, 0])
def test_click_loss_gradients_match_finite_differences(plug_layer):
    """At plug_layer 0 the stack below the plug is a single layer."""
    model32 = make_model(seed=16, mlp=(8, 6, 4, 2), plug_layer=plug_layer)
    plug32 = make_plug(model32, kdim=6, seed=17, zero_final=False)
    all32 = dict(model32.params()) | dict(plug32.params())
    perturb_params(all32, np.random.default_rng(44))

    model64 = make_model(seed=16, mlp=(8, 6, 4, 2), plug_layer=plug_layer)
    plug64 = make_plug(model64, kdim=6, seed=17, zero_final=False)
    assign_params(list(model64.walk_slots()) + list(plug64.walk_slots()),
                  all32, dtype=np.float64)

    rng = np.random.default_rng(18)
    batch = random_records(rng, 11, n_items=30, n_shops=8, n_cats=6)
    k32 = rand_knowledge(rng, 11, kdim=6)

    _, analytic = click_loss_and_grads(model32, plug32, batch, k32)

    params64 = dict(model64.params()) | dict(plug64.params())

    def loss():
        return click_loss_and_grads(model64, plug64, batch,
                                    k32.astype(np.float64))[0]

    ok, worst = grad_report(analytic, fd_grads(params64, loss))
    assert ok, worst


def test_zero_final_plug_leaves_model_gradients_bit_equal():
    rng = np.random.default_rng(45)
    model = make_model(seed=46)
    perturb_params(model.params(), rng)
    plug = make_plug(model, seed=47, zero_final=True)
    batch = random_records(rng, 13, n_items=30, n_shops=8, n_cats=6)
    loss_plain, plain = click_loss_and_grads(model, None, batch, None)
    loss_plugged, plugged = click_loss_and_grads(model, plug, batch,
                                                 rand_knowledge(rng, 13))
    assert loss_plain == loss_plugged
    assert set(plugged) == set(plain) | set(plug.params())
    for name, g in plain.items():
        assert np.array_equal(g, plugged[name]), name


def test_knowledge_receives_no_gradient_and_extractor_frozen():
    extractor = tiny_extractor(seed=19)
    before = {k: v.copy() for k, v in extractor.params().items()}
    rng = np.random.default_rng(20)
    batch = random_records(rng, 16)
    kdim = knowledge_dim(extractor.cfg)
    model = make_model(seed=21)
    plug = make_plug(model, kdim=kdim, seed=22)
    opt = AdamState(lr=0.01)

    def lookup(b):
        return extract_knowledge_batch(extractor, b), np.ones(len(b), dtype=bool)

    for _ in range(5):
        train_step(model, plug, batch, lookup, opt)
    after = extractor.params()
    for name, arr in before.items():
        assert np.array_equal(arr, after[name]), name


def test_missing_knowledge_counted():
    rng = np.random.default_rng(23)
    model = make_model(seed=24)
    plug = make_plug(model, seed=25)
    batch = random_records(rng, 8, n_items=30, n_shops=8, n_cats=6)

    def lookup(b):
        found = np.zeros(len(b), dtype=bool)
        found[:3] = True
        return np.zeros((len(b), 10), dtype=np.float32), found

    res = train_step(model, plug, batch, lookup, AdamState())
    assert res.missing_knowledge == 5


def test_training_decreases_loss_on_learnable_batch():
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        model = make_model(seed=seed)
        plug = make_plug(model, seed=seed + 1)
        batch = random_records(rng, 64, n_items=30, n_shops=8, n_cats=6)
        k = rand_knowledge(rng, 64)
        opt = AdamState(lr=0.01)
        first = click_loss_and_grads(model, plug, batch, k)[0]
        lookup = lambda b: (k, np.ones(len(b), dtype=bool))
        for _ in range(100):
            train_step(model, plug, batch, lookup, opt)
        last = click_loss_and_grads(model, plug, batch, k)[0]
        wins += last < first
    assert wins >= 18


# ---------------------------------------------------------------------------
# checkpoints / warm start


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(26)
    model = make_model(seed=27)
    plug = make_plug(model, seed=28, zero_final=False)
    opt = AdamState(lr=0.004)
    batch = random_records(rng, 12, n_items=30, n_shops=8, n_cats=6)
    k = rand_knowledge(rng, 12)
    lookup = lambda b: (k, np.ones(len(b), dtype=bool))
    train_step(model, plug, batch, lookup, opt)

    path = tmp_path / "m.ckpt"
    model.save(path, plug, opt, extra={"cursor_day": 3, "knowledge_version": 7})
    m2, p2, o2, extra = load_downstream(path)
    assert extra["cursor_day"] == 3 and extra["knowledge_version"] == 7
    for name, arr in model.params().items():
        assert np.array_equal(arr, m2.params()[name]), name
    for name, arr in plug.params().items():
        assert np.array_equal(arr, p2.params()[name]), name
    assert o2.step == opt.step and o2.lr == opt.lr
    for name, arr in opt.m.items():
        assert np.array_equal(arr, o2.m[name]), name

    a, _ = model.forward_batch(batch, plug, k)
    b, _ = m2.forward_batch(batch, p2, k)
    assert np.array_equal(a, b)


def test_warm_start_attach_plug_preserves_first_forward(tmp_path):
    rng = np.random.default_rng(29)
    model = make_model(seed=30)
    opt = AdamState()
    batch = random_records(rng, 6, n_items=30, n_shops=8, n_cats=6)
    path = tmp_path / "plain.ckpt"
    model.save(path, None, opt, extra={"cursor_day": 0})
    before, _ = model.forward_batch(batch)

    m2, plug, _, _ = warm_start(path, new_plug_knowledge_dim=10, plug_seed=1)
    assert plug is not None
    k = rand_knowledge(rng, 6)
    after, _ = m2.forward_batch(batch, plug, k)
    assert np.array_equal(before, after)


def test_warm_start_rejects_double_plug(tmp_path):
    model = make_model(seed=31)
    plug = make_plug(model, seed=32)
    path = tmp_path / "p.ckpt"
    model.save(path, plug, AdamState())
    with pytest.raises(ValueError, match="already carries"):
        warm_start(path, new_plug_knowledge_dim=10)


def test_manifest_mismatch_lists_missing_and_extra(tmp_path):
    model = make_model(seed=33)
    path = tmp_path / "m.ckpt"
    model.save(path, None, AdamState())
    from knowplug import checkpoint as ckpt
    kind, config, tensors, extra = ckpt.load_checkpoint(path)
    tensors.pop("main_l0_w")
    tensors["rogue"] = np.zeros(2, dtype=np.float32)
    m2 = make_model(seed=33)
    with pytest.raises(ManifestError) as err:
        assign_params(m2.walk_slots(), tensors)
    assert "main_l0_w" in str(err.value) and "rogue" in str(err.value)


def test_wrong_kind_checkpoint_rejected(tmp_path):
    extractor = tiny_extractor(seed=34)
    path = tmp_path / "e.ckpt"
    extractor.save(path)
    with pytest.raises(CheckpointError, match="downstream"):
        load_downstream(path)


def test_interrupted_training_equals_uninterrupted(tmp_path):
    """Two day-batches trained in one session vs split across a
    checkpoint reload produce bit-identical parameters."""
    rng = np.random.default_rng(35)
    day1 = random_records(rng, 40, n_items=30, n_shops=8, n_cats=6)
    day2 = random_records(rng, 40, n_items=30, n_shops=8, n_cats=6)
    k1 = rand_knowledge(rng, 40)
    k2 = rand_knowledge(rng, 40)

    def train_days(model, plug, opt, days):
        for batch, k in days:
            lookup = lambda b, kk=k: (kk, np.ones(len(b), dtype=bool))
            for lo in range(0, len(batch), 16):
                sl = np.arange(lo, min(len(batch), lo + 16))
                train_step(model, plug, batch.take(sl),
                           lambda b, kk=k, s=sl: (kk[s], np.ones(len(b), bool)),
                           opt)

    m_cont = make_model(seed=36)
    p_cont = make_plug(m_cont, seed=37)
    o_cont = AdamState(lr=0.003)
    train_days(m_cont, p_cont, o_cont, [(day1, k1), (day2, k2)])

    m_a = make_model(seed=36)
    p_a = make_plug(m_a, seed=37)
    o_a = AdamState(lr=0.003)
    train_days(m_a, p_a, o_a, [(day1, k1)])
    path = tmp_path / "mid.ckpt"
    m_a.save(path, p_a, o_a, extra={"cursor_day": 1})
    m_b, p_b, o_b, _ = warm_start(path)
    train_days(m_b, p_b, o_b, [(day2, k2)])

    for name, arr in m_cont.params().items():
        assert np.array_equal(arr, m_b.params()[name]), name
    for name, arr in p_cont.params().items():
        assert np.array_equal(arr, p_b.params()[name]), name
