import numpy as np
import pytest

from knowplug.nncore import (AdamState, AttentionPooler, DenseLayer, EmbeddingTable,
                             MlpStack, NumericError, ShapeError, StateError,
                             adam_step, attention_pool, masked_softmax)
from knowplug.features import assign_params

from oracles import attention_oracle, fd_grads, grad_report, layer_triples, \
    matmul_oracle, mlp_oracle


def build_stack(dims, seed, final_activation="none"):
    return MlpStack.build(list(dims), np.random.default_rng(seed),
                          final_activation=final_activation)


# ---------------------------------------------------------------------------
# forward


def test_zero_weights_give_zero_logits():
    stack = build_stack([4, 3, 2], seed=0)
    for layer in stack.layers:
        layer.weight[...] = 0.0
        layer.bias[...] = 0.0
    x = np.random.default_rng(1).normal(size=(5, 4)).astype(np.float32)
    logits, trace = stack.forward(x)
    assert np.all(logits == 0.0)
    assert len(trace) == 2


def test_identity_relu_layer():
    layer = DenseLayer(weight=np.eye(2, dtype=np.float32),
                       bias=np.zeros(2, dtype=np.float32), activation="relu")
    out = layer.forward(np.array([[-1.0, 2.0]], dtype=np.float32))
    assert np.array_equal(out, np.array([[0.0, 2.0]], dtype=np.float32))


def test_forward_matches_matmul_oracle():
    stack = build_stack([6, 5, 4, 3], seed=3)
    x = np.random.default_rng(4).normal(size=(7, 6)).astype(np.float32)
    logits, trace = stack.forward(x)
    ref = mlp_oracle(layer_triples(stack), x)
    assert np.max(np.abs(logits - ref)) < 1e-6
    # trace keeps every intermediate layer output
    h = np.asarray(x, np.float64)
    for layer, kept in zip(stack.layers, trace):
        h = matmul_oracle(h, layer.weight) + layer.bias
        if layer.activation == "relu":
            h = np.maximum(h, 0)
        assert np.max(np.abs(kept - h)) < 1e-6


def test_forward_is_deterministic():
    stack = build_stack([5, 4, 2], seed=9)
    x = np.random.default_rng(5).normal(size=(11, 5)).astype(np.float32)
    a, _ = stack.forward(x)
    b, _ = stack.forward(x)
    assert np.array_equal(a, b)


def test_forward_shape_error():
    stack = build_stack([5, 4, 2], seed=9)
    with pytest.raises(ShapeError):
        stack.forward(np.zeros((3, 4), dtype=np.float32))


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_upstream_gives_zero_grads():
    stack = build_stack([4, 3, 2], seed=1)
    x = np.random.default_rng(2).normal(size=(6, 4)).astype(np.float32)
    out, trace = stack.forward(x)
    grads, dx = stack.backward(x, trace, np.zeros_like(out))
    for dw, db in grads:
        assert np.all(dw == 0) and np.all(db == 0)
    assert np.all(dx == 0)


def test_backward_single_linear_layer_closed_form():
    # loss = sum(out) => dW = x^T 1, db = n
    stack = build_stack([3, 2], seed=7)
    x = np.random.default_rng(8).normal(size=(5, 3)).astype(np.float32)
    out, trace = stack.forward(x)
    grads, _ = stack.backward(x, trace, np.ones_like(out))
    expect_dw = x.T @ np.ones_like(out)
    assert np.allclose(grads[0][0], expect_dw, atol=1e-6)
    assert np.allclose(grads[0][1], np.full(2, 5.0), atol=1e-6)


def test_backward_trace_mismatch_is_state_error():
    stack = build_stack([3, 2], seed=7)
    x = np.zeros((2, 3), dtype=np.float32)
    with pytest.raises(StateError):
        stack.backward(x, [], np.zeros((2, 2), dtype=np.float32))


def test_backward_matches_finite_differences():
    stack32 = build_stack([5, 7, 4, 1], seed=21)
    stack64 = build_stack([5, 7, 4, 1], seed=21)
    _to_float64(_stack_slots(stack64))
    x = np.random.default_rng(22).normal(size=(9, 5)).astype(np.float32)

    out, trace = stack32.forward(x)
    grads, _ = stack32.backward(x, trace, np.ones_like(out))
    analytic = {}
    for i, (dw, db) in enumerate(grads):
        analytic[f"l{i}_w"] = dw
        analytic[f"l{i}_b"] = db

    params64 = {name: getattr(o, a) for name, o, a in _stack_slots(stack64)}
    numeric = fd_grads(params64,
                       lambda: float(stack64.forward(x.astype(np.float64))[0].sum()))
    ok, worst = grad_report(analytic, numeric)
    assert ok, worst


def _stack_slots(stack):
    return [(f"l{i}_w", l, "weight") for i, l in enumerate(stack.layers)] + \
           [(f"l{i}_b", l, "bias") for i, l in enumerate(stack.layers)]


def _to_float64(slots):
    assign_params(slots, {name: getattr(o, a) for name, o, a in slots}, dtype=np.float64)


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_grads_leave_params_unchanged():
    p = {"w": np.array([1.0, -2.0], dtype=np.float32)}
    before = p["w"].copy()
    adam_step(AdamState(), p, {"w": np.zeros(2, dtype=np.float32)})
    assert np.array_equal(p["w"], before)


def test_adam_first_step_closed_form():
    # t=1: m_hat = g, v_hat = g^2, step = lr * g / (|g| + eps)
    p = {"w": np.zeros(1, dtype=np.float32)}
    adam_step(AdamState(lr=0.001), p, {"w": np.ones(1, dtype=np.float32)})
    expect = -0.001 * (1.0 / (1.0 + 1e-8))
    assert abs(float(p["w"][0]) - expect) < 1e-9


def test_adam_is_deterministic():
    def run():
        rng = np.random.default_rng(33)
        p = {"w": rng.normal(size=(4, 3)).astype(np.float32)}
        st = AdamState(lr=0.01)
        for _ in range(20):
            adam_step(st, p, {"w": rng.normal(size=(4, 3)).astype(np.float32)})
        return p["w"]

    assert np.array_equal(run(), run())


def test_adam_rejects_nan_grads_with_param_name():
    p = {"bad_param": np.zeros(2, dtype=np.float32)}
    g = {"bad_param": np.array([np.nan, 0.0], dtype=np.float32)}
    with pytest.raises(NumericError, match="bad_param"):
        adam_step(AdamState(), p, g)


# ---------------------------------------------------------------------------
# attention pooling


def make_pooler(seed, dim=4, hidden=3):
    return AttentionPooler.build(dim, hidden, np.random.default_rng(seed))


def test_attention_single_item_returns_it():
    pooler = make_pooler(0)
    e = np.array([0.3, -1.0, 0.5, 2.0], dtype=np.float32)
    tgt = np.array([1.0, 0.0, -1.0, 0.2], dtype=np.float32)
    out = attention_pool(pooler, e[None, :], tgt)
    assert np.allclose(out, e, atol=1e-7)


def test_attention_identical_items_return_that_embedding():
    pooler = make_pooler(1)
    e = np.array([0.5, 0.1, -0.2, 0.9], dtype=np.float32)
    out = attention_pool(pooler, np.stack([e, e]), np.ones(4, dtype=np.float32))
    assert np.allclose(out, e, atol=1e-6)


def test_attention_empty_sequence_pools_to_zero():
    pooler = make_pooler(2)
    out = attention_pool(pooler, np.zeros((0, 4), dtype=np.float32),
                         np.ones(4, dtype=np.float32))
    assert np.array_equal(out, np.zeros(4, dtype=np.float32))


def test_attention_matches_scripted_oracle():
    pooler = make_pooler(3)
    rng = np.random.default_rng(4)
    seq = rng.normal(size=(5, 4)).astype(np.float32)
    tgt = rng.normal(size=4).astype(np.float32)
    out = attention_pool(pooler, seq, tgt)
    ref = attention_oracle(layer_triples(pooler.att_mlp), seq, tgt)
    assert np.max(np.abs(out - ref)) < 1e-6


def test_attention_weights_sum_to_one_and_convex():
    pooler = make_pooler(5)
    rng = np.random.default_rng(6)
    for n, b in ((3, 6), (1, 1), (4, 9)):
        behav = rng.normal(size=(n, b, 4)).astype(np.float32)
        tgt = rng.normal(size=(n, 4)).astype(np.float32)
        lengths = rng.integers(1, b + 1, size=n)
        _, cache = pooler.forward_batch(behav, tgt, lengths)
        w = cache["weights"]
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(w >= 0)
        # padded positions carry zero weight
        mask = np.arange(b)[None, :] < lengths[:, None]
        assert np.all(w[~mask] == 0)


def test_attention_backward_matches_finite_differences():
    def build():
        return make_pooler(7)

    rng = np.random.default_rng(8)
    behav = rng.normal(size=(3, 5, 4))
    tgt = rng.normal(size=(3, 4))
    lengths = np.array([5, 2, 0])
    u = rng.normal(size=(3, 4))

    p32 = build()
    pooled, cache = p32.forward_batch(behav.astype(np.float32),
                                      tgt.astype(np.float32), lengths)
    att_grads, dbehav, dtarget = p32.backward_batch(cache, u.astype(np.float32))
    analytic = {"behav": dbehav, "target": dtarget}
    for i, (dw, db) in enumerate(att_grads):
        analytic[f"att_l{i}_w"] = dw
        analytic[f"att_l{i}_b"] = db

    p64 = build()
    _to_float64(_stack_slots(p64.att_mlp))
    b64, t64 = behav.copy(), tgt.copy()
    params = {f"att_l{i}_w": l.weight for i, l in enumerate(p64.att_mlp.layers)}
    params |= {f"att_l{i}_b": l.bias for i, l in enumerate(p64.att_mlp.layers)}
    params |= {"behav": b64, "target": t64}

    def loss():
        out, _ = p64.forward_batch(b64, t64, lengths)
        return float((out * u).sum())

    ok, worst = grad_report(analytic, fd_grads(params, loss))
    assert ok, worst


def test_masked_softmax_all_masked_row_is_zero():
    s = np.array([[1.0, 2.0], [0.5, 0.1]], dtype=np.float32)
    m = np.array([[False, False], [True, True]])
    w = masked_softmax(s, m)
    assert np.array_equal(w[0], np.zeros(2, dtype=np.float32))
    assert np.isclose(w[1].sum(), 1.0)


# ---------------------------------------------------------------------------
# embeddings


def test_embedding_modulo_hashing_wraps():
    tab = EmbeddingTable.build("item", 10, 3, np.random.default_rng(0))
    rows = tab.lookup(np.array([3, 13, 23]))
    assert np.array_equal(rows[0], rows[1])
    assert np.array_equal(rows[1], rows[2])


def test_embedding_identity_hashing_rejects_out_of_range():
    tab = EmbeddingTable.build("item", 10, 3, np.random.default_rng(0),
                               hash_mode="identity")
    with pytest.raises(ShapeError):
        tab.lookup(np.array([10]))


def test_embedding_scatter_untouched_rows_stay_zero():
    tab = EmbeddingTable.build("item", 20, 4, np.random.default_rng(1))
    ids = np.array([2, 5, 2, 7])
    grads = np.ones((4, 4), dtype=np.float32)
    out = tab.scatter_grad(ids, grads)
    touched = {2, 5, 7}
    for r in range(20):
        if r in touched:
            assert np.any(out[r] != 0)
        else:
            assert np.all(out[r] == 0)
    assert np.allclose(out[2], 2.0)  # duplicate id accumulates


def test_embedding_scatter_matches_addat_oracle():
    rng = np.random.default_rng(2)
    tab = EmbeddingTable.build("item", 15, 5, rng)
    ids = rng.integers(0, 30, size=(6, 4))
    grads = rng.normal(size=(6, 4, 5)).astype(np.float32)
    out = tab.scatter_grad(ids, grads)
    ref = np.zeros((15, 5), dtype=np.float64)
    for i in range(6):
        for j in range(4):
            ref[ids[i, j] % 15] += grads[i, j].astype(np.float64)
    assert np.allclose(out, ref, atol=1e-5)
