"""Autodiff engine tests: forward values, gradients against finite
differences, graph bookkeeping, and shape errors."""

import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maf.errors import ContractError, ShapeError
from maf.model import (
    _model_input,
    _pack,
    _pack_loss,
    build_vocabulary,
    init_model_params,
    instance_target_ids,
    instance_token_ids,
)
from maf.presets import GAP_MODEL, GAP_SPEC
from maf.synthetic import generate
from maf.tensor import (
    Segments,
    Tensor,
    _add_layer_norm_row,
    add,
    add_layer_norm,
    attention,
    backward,
    concat_last,
    cross_entropy_rows,
    embed,
    feed_forward,
    gate,
    gate_mix,
    gated_stream,
    glorot_uniform,
    linear,
    matmul,
    zeros,
)

from oracles import (
    broadcast_add,
    gather_rows,
    gradients_close,
    layer_norm_rows,
    loop_attend,
    loop_held_attention,
    mul,
    numeric_gradient,
    relu,
    scale,
    sigmoid,
    sub,
    sum_all,
)

RTOL = 1e-5
ATOL = 1e-8


def leaf(rng, rows, cols, lo=-2.0, hi=2.0):
    return Tensor(rng.uniform(lo, hi, size=(rows, cols)), requires_grad=True)


def check_grads(build, leaves, rtol=RTOL, atol=ATOL):
    """Compare backward() gradients with central finite differences.

    ``build`` must reconstruct the scalar loss from the leaves' current
    .data each time it is called, so the numeric probe sees the mutation.
    """
    out = build()
    for t in leaves:
        t.zero_grad()
    backward(out)
    for i, t in enumerate(leaves):
        assert t.grad is not None, f"leaf {i} got no gradient"
        num = numeric_gradient(lambda: build().item(), t.data)
        ok, worst = gradients_close(t.grad, num, rtol, atol)
        assert ok, f"leaf {i}: worst violation ratio {worst:.3g}"


# ---- construction ---------------------------------------------------------------


@pytest.mark.parametrize("data", [3.5, [1.0, 2.0, 3.0], np.zeros((2, 2, 2))],
                         ids=["0-D", "1-D", "3-D"])
def test_construction_refuses_anything_but_a_matrix(data):
    with pytest.raises(ShapeError, match="2-D"):
        Tensor(data)


def test_nested_list_becomes_a_float64_matrix():
    t = Tensor([[1, 2], [3, 4], [5, 6]])
    assert t.shape == (3, 2)
    assert t.data.dtype == np.float64
    assert np.array_equal(t.data, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


def test_item_requires_single_element():
    assert Tensor([[7.0]]).item() == 7.0
    with pytest.raises(ContractError):
        Tensor([[1.0, 2.0]]).item()


def test_constructors():
    assert np.array_equal(zeros(2, 3).data, np.zeros((2, 3)))
    assert not zeros(2, 3).requires_grad


def test_glorot_uniform_bounds_and_grad_flag():
    rng = np.random.default_rng(0)
    w = glorot_uniform(rng, 30, 50)
    limit = np.sqrt(6.0 / 80.0)
    assert w.requires_grad
    assert np.all(np.abs(w.data) <= limit)
    # deterministic under the same generator state
    w2 = glorot_uniform(np.random.default_rng(0), 30, 50)
    assert np.array_equal(w.data, w2.data)


# ---- forward values ----------------------------------------------------------


def test_elementwise_forward_matches_numpy():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    assert np.allclose(add(Tensor(a), Tensor(b)).data, a + b)
    assert np.allclose(sub(Tensor(a), Tensor(b)).data, a - b)
    assert np.allclose(mul(Tensor(a), Tensor(b)).data, a * b)
    assert np.allclose(scale(Tensor(a), -2.5).data, a * -2.5)
    assert np.allclose(matmul(Tensor(a), Tensor(b.T)).data, a @ b.T)


def test_sigmoid_saturates_without_overflow():
    s = sigmoid(Tensor([[-1000.0, 0.0, 1000.0]])).data
    assert np.allclose(s, [[0.0, 0.5, 1.0]])
    assert np.all(np.isfinite(s))


def test_relu_forward():
    assert np.array_equal(relu(Tensor([[-1.0, 0.0, 2.0]])).data, [[0.0, 0.0, 2.0]])


def test_concat_and_slice_are_inverses():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(3, 2)), rng.normal(size=(3, 4))
    cat = concat_last(Tensor(a), Tensor(b))
    assert cat.shape == (3, 6)
    assert np.array_equal(cat.data[:, :2], a)
    assert np.array_equal(cat.data[:, 2:], b)


def test_gather_rows_basic():
    table = Tensor(np.arange(12.0).reshape(4, 3))
    out = gather_rows(table, [2, 0, 2])
    assert np.array_equal(out.data, [[6.0, 7.0, 8.0], [0.0, 1.0, 2.0], [6.0, 7.0, 8.0]])


def test_layer_norm_rows_normalizes():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(2.0, 5.0, size=(4, 8)))
    out = layer_norm_rows(x, Tensor(np.ones((1, 8))), zeros(1, 8)).data
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(out.var(axis=1), 1.0, atol=1e-4)


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((2, 5)))
    out = cross_entropy_rows(logits, [0, 3], np.ones(2))
    assert out.item() == pytest.approx(np.log(5.0), abs=1e-12)


def test_cross_entropy_zero_weight_rows_do_not_contribute():
    rng = np.random.default_rng(4)
    base = rng.normal(size=(3, 6))
    pad = rng.normal(size=(2, 6))
    lo = cross_entropy_rows(Tensor(base), [1, 2, 3], np.ones(3))
    hi = cross_entropy_rows(
        Tensor(np.vstack([base, pad])), [1, 2, 3, 0, 0], [1.0, 1.0, 1.0, 0.0, 0.0]
    )
    assert lo.item() == pytest.approx(hi.item(), abs=1e-15)


# ---- gradients against finite differences ------------------------------------


def test_grad_add_sub_mul():
    rng = np.random.default_rng(10)
    a, b = leaf(rng, 3, 4), leaf(rng, 3, 4)
    check_grads(lambda: sum_all(mul(add(a, b), sub(a, b))), [a, b])


def test_grad_broadcast_row_and_col():
    rng = np.random.default_rng(11)
    a = leaf(rng, 3, 4)
    row = leaf(rng, 1, 4)
    col = leaf(rng, 3, 1)
    one = leaf(rng, 1, 1)
    check_grads(lambda: sum_all(mul(broadcast_add(a, row), broadcast_add(col, one))),
                [a, row, col, one])


def test_grad_matmul_chain():
    rng = np.random.default_rng(12)
    a, b, c = leaf(rng, 2, 3), leaf(rng, 3, 4), leaf(rng, 4, 2)
    check_grads(lambda: sum_all(matmul(matmul(a, b), c)), [a, b, c])


def test_grad_sigmoid():
    rng = np.random.default_rng(14)
    a = leaf(rng, 3, 3)
    check_grads(lambda: sum_all(sigmoid(a)), [a])


def test_grad_relu_away_from_kink():
    rng = np.random.default_rng(15)
    a = Tensor(rng.choice([-1.0, 1.0], size=(4, 4)) * rng.uniform(0.5, 2.0, size=(4, 4)),
               requires_grad=True)
    check_grads(lambda: sum_all(relu(a)), [a])


def test_grad_concat_slice():
    # only columns 1..3 of the concatenation reach the loss
    rng = np.random.default_rng(17)
    a, b = leaf(rng, 3, 2), leaf(rng, 3, 3)
    cols = Tensor(np.tile([0.0, 1.0, 1.0, 1.0, 0.0], (3, 1)))
    check_grads(lambda: sum_all(mul(concat_last(a, b), cols)), [a, b])


def test_grad_embed_accumulates_duplicates():
    rng = np.random.default_rng(18)
    table, positions = leaf(rng, 5, 3), rng.uniform(-2.0, 2.0, size=(5, 3))
    ids = [1, 1, 4, 0, 1]
    check_grads(lambda: sum_all(embed(table, ids, 1.5, positions)), [table])
    # the position rows are a constant: the table is the node's one parent
    out = embed(table, ids, 1.5, positions)
    assert out.parents == (table,)
    # row 1 is looked up three times, so its gradient is 3x the others
    table.zero_grad()
    backward(sum_all(out))
    assert np.allclose(table.grad[1], 3 * 1.5)
    assert np.allclose(table.grad[2], 0.0)


def test_grad_layer_norm():
    rng = np.random.default_rng(19)
    x, gain, bias = leaf(rng, 4, 6), leaf(rng, 1, 6), leaf(rng, 1, 6)
    w = Tensor(rng.normal(size=(4, 6)))
    check_grads(lambda: sum_all(mul(layer_norm_rows(x, gain, bias), w)), [x, gain, bias])


def test_grad_add_layer_norm():
    rng = np.random.default_rng(21)
    x, y, gain, bias = leaf(rng, 4, 6), leaf(rng, 4, 6), leaf(rng, 1, 6), leaf(rng, 1, 6)
    w = Tensor(rng.normal(size=(4, 6)))
    check_grads(lambda: sum_all(mul(add_layer_norm(x, y, gain, bias), w)), [x, y, gain, bias])


def test_grad_feed_forward_away_from_kink():
    rng = np.random.default_rng(22)
    x, w1, b1, w2, b2 = leaf(rng, 4, 3), leaf(rng, 3, 5), leaf(rng, 1, 5), leaf(rng, 5, 3), leaf(rng, 1, 3)
    probe = Tensor(rng.normal(size=(4, 3)))
    pre = x.data @ w1.data + b1.data
    assert np.abs(pre).min() > 10 * 1e-6  # no hidden unit within a finite-difference step of 0
    check_grads(lambda: sum_all(mul(feed_forward(x, w1, b1, w2, b2), probe)), [x, w1, b1, w2, b2])


def _fused_and_composed_gradients(fused, composed, leaves, probe):
    """Forward values and leaf gradients of two builds of the same function."""
    results = []
    for build in (fused, composed):
        out = build()
        backward(sum_all(mul(out, probe)))
        results.append((out.data, [t.grad for t in leaves]))
        for t in leaves:
            t.zero_grad()
    return results


def test_fused_nodes_match_the_composed_ops_bit_for_bit():
    """One node each for the FFN, the residual layer norm, the gated mix,
    the embedding, the biased projection, the logistic gate and the gated
    stream: the same arithmetic as the ops they replace, so the same bits
    forward and back."""
    rng = np.random.default_rng(23)
    x, y, gain, bias = leaf(rng, 5, 4), leaf(rng, 5, 4), leaf(rng, 1, 4), leaf(rng, 1, 4)
    w1, b1, w2, b2 = leaf(rng, 4, 7), leaf(rng, 1, 7), leaf(rng, 7, 4), leaf(rng, 1, 4)
    g, table = Tensor(rng.uniform(size=(5, 1)), requires_grad=True), leaf(rng, 6, 4)
    ids, c, one = [3, 0, 3, 5, 1], math.sqrt(4), Tensor(np.ones((5, 1)))
    probe, wide_probe = Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(5, 7)))
    # logits of either sign and some far out, so both branches of the logistic run
    w_x, w_y = leaf(rng, 4, 1, lo=-3.0, hi=3.0), leaf(rng, 4, 1, lo=-3.0, hi=3.0)
    w_cat, narrow_probe = leaf(rng, 8, 4), Tensor(rng.normal(size=(5, 1)))
    cases = [
        (lambda: add_layer_norm(x, y, gain, bias),
         lambda: layer_norm_rows(add(x, y), gain, bias), [x, y, gain, bias], probe),
        (lambda: feed_forward(x, w1, b1, w2, b2),
         lambda: broadcast_add(matmul(relu(broadcast_add(matmul(x, w1), b1)), w2), b2),
         [x, w1, b1, w2, b2], probe),
        (lambda: gate_mix(g, x, y),
         lambda: add(mul(sub(one, g), x), mul(g, y)), [g, x, y], probe),
        (lambda: embed(table, ids, c, y.data),
         lambda: add(scale(gather_rows(table, ids), c), Tensor(y.data)), [table], probe),
        (lambda: linear(x, w1, b1), lambda: broadcast_add(matmul(x, w1), b1), [x, w1, b1],
         wide_probe),
        (lambda: gate(x, w_x, y, w_y), lambda: sigmoid(add(matmul(x, w_x), matmul(y, w_y))),
         [x, w_x, y, w_y], narrow_probe),
        (lambda: gated_stream(x, y, w_cat, bias),
         lambda: mul(linear(concat_last(x, y), w_cat, bias), y), [x, y, w_cat, bias], probe),
    ]
    for fused, composed, leaves, p in cases:
        (got, got_g), (want, want_g) = _fused_and_composed_gradients(fused, composed, leaves, p)
        assert np.array_equal(got, want)
        for gg, w in zip(got_g, want_g):
            assert gg is not None and np.array_equal(gg, w)


@pytest.mark.parametrize("width", [1, 7, 8, 9, 32, 127, 128, 129, 768])
def test_row_layer_norm_matches_the_matrix_form_bit_for_bit(width):
    """Greedy decoding's one-row layer norm gives ``add_layer_norm``'s
    output bits on 1-row Tensors, at widths on both sides of NumPy's
    pairwise-sum blocks: rows of magnitude 1e-6 to 1e6, one far from 0 with
    a small spread, and a constant row, whose variance is 0."""
    rng = np.random.default_rng(width)
    gain, bias = rng.normal(size=width), rng.normal(size=width)
    pairs = [rng.normal(scale=m, size=(2, width)) for m in (1e-6, 1e-3, 1.0, 1e3, 1e6)]
    pairs += [1e3 + rng.normal(scale=1e-3, size=(2, width)), np.full((2, width), 3.5)]
    for x, y in pairs:
        want = add_layer_norm(*(Tensor(a[None]) for a in (x, y, gain, bias))).data[0]
        assert np.array_equal(_add_layer_norm_row(x, y, gain, bias), want)


def test_fused_nodes_reject_bad_shapes():
    z = lambda r, c: Tensor(np.zeros((r, c)))  # noqa: E731
    with pytest.raises(ShapeError, match="differ"):
        add_layer_norm(z(2, 4), z(3, 4), z(1, 4), z(1, 4))
    with pytest.raises(ShapeError, match="gain/bias"):
        add_layer_norm(z(2, 4), z(2, 4), z(1, 3), z(1, 4))
    with pytest.raises(ShapeError, match="inner"):
        feed_forward(z(2, 4), z(3, 5), z(1, 5), z(5, 4), z(1, 4))
    with pytest.raises(ShapeError, match="biases"):
        feed_forward(z(2, 4), z(4, 5), z(1, 4), z(5, 4), z(1, 4))
    with pytest.raises(ShapeError, match="inner"):
        linear(z(2, 4), z(3, 5), z(1, 5))
    with pytest.raises(ShapeError, match="bias"):
        linear(z(2, 4), z(4, 5), z(2, 5))
    with pytest.raises(ShapeError, match="gate_mix"):
        gate_mix(z(2, 4), z(2, 4), z(2, 4))
    with pytest.raises(ShapeError, match="gate_mix"):
        gate_mix(z(2, 1), z(2, 4), z(2, 3))
    with pytest.raises(ShapeError, match="positions"):
        embed(z(5, 4), [0, 1, 2], 1.0, np.zeros((2, 4)))
    with pytest.raises(ShapeError, match="positions"):
        embed(z(5, 4), [0, 1], 1.0, np.zeros((2, 3)))
    with pytest.raises(ShapeError, match="gate"):
        gate(z(2, 4), z(4, 1), z(2, 3), z(4, 1))
    with pytest.raises(ShapeError, match="gate"):
        gate(z(2, 4), z(4, 1), z(3, 4), z(4, 1))
    with pytest.raises(ShapeError, match="gated_stream"):
        gated_stream(z(2, 4), z(2, 4), z(8, 3), z(1, 4))
    with pytest.raises(ShapeError, match="gated_stream"):
        gated_stream(z(2, 4), z(2, 4), z(8, 4), z(2, 4))


def test_grad_cross_entropy():
    rng = np.random.default_rng(20)
    logits = leaf(rng, 4, 6)
    targets = [0, 5, 2, 2]
    weights = [1.0, 0.5, 0.0, 2.0]
    check_grads(lambda: cross_entropy_rows(logits, targets, weights), [logits])


def test_grad_scale_and_neg():
    rng = np.random.default_rng(21)
    a = leaf(rng, 2, 2)
    check_grads(lambda: sum_all(scale(scale(a, 3.0), -1.0)), [a])


# ---- graph bookkeeping --------------------------------------------------------


def test_diamond_reuse_accumulates_once():
    # y = x*x + x: dy/dx = 2x + 1
    x = Tensor([[1.5, -0.5]], requires_grad=True)
    backward(sum_all(add(mul(x, x), x)))
    assert np.allclose(x.grad, 2.0 * x.data + 1.0)


def test_shared_node_backward_called_exactly_once():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    w = Tensor([[0.5], [0.25]], requires_grad=True)
    z = matmul(x, w)
    calls = []
    inner = z._backward
    z._backward = lambda g: (calls.append(1), inner(g))[1]
    backward(sum_all(add(z, z)))
    assert len(calls) == 1
    assert np.allclose(x.grad, 2.0 * w.data.T)


def test_repeated_backward_accumulates():
    # two graphs built from the same leaf add into its gradient
    x = Tensor([[2.0]], requires_grad=True)
    backward(mul(x, x))
    g1 = x.grad.copy()
    backward(mul(x, x))
    assert np.allclose(x.grad, 2.0 * g1)
    x.zero_grad()
    assert x.grad is None


def test_a_graph_is_walked_once():
    x = Tensor([[2.0]], requires_grad=True)
    y = mul(x, x)
    loss = scale(y, 3.0)
    backward(loss)
    g = x.grad.copy()
    with pytest.raises(ContractError, match="already been walked"):
        backward(loss)
    # a new graph over a walked node is refused too, before any leaf changes
    with pytest.raises(ContractError, match="already been walked"):
        backward(add(y, x))
    assert np.array_equal(x.grad, g)
    assert y.grad is None and loss.grad is None
    assert loss.item() == 12.0


def test_backward_frees_the_graph_as_it_walks():
    """Once ``backward`` returns, every intermediate node of a training
    graph is gone, by reference counting alone, while the loss still
    reads."""
    insts = generate(replace(GAP_SPEC, num_instances=4, seed=3))
    vocab = build_vocabulary(insts)
    cfg = replace(GAP_MODEL, d=16, ffn=32, vocab_size=len(vocab), seed=3)
    params = init_model_params(cfg)
    items = [(*_model_input(instance_token_ids(inst, vocab), inst.audio_features,
                            inst.video_features, cfg, inst.id), instance_target_ids(inst, vocab))
             for inst in insts]
    loss = _pack_loss(_pack(items, cfg), cfg, params)
    inner, seen, stack = [], {id(loss)}, list(loss.parents)
    while stack:
        t = stack.pop()
        if id(t) not in seen and t.parents:
            seen.add(id(t))
            inner.append(weakref.ref(t))
            stack.extend(t.parents)
    del t, stack
    assert len(inner) > 90  # 91 inner nodes in this pack's graph
    gc.disable()
    try:
        backward(loss)
        alive = [r() for r in inner if r() is not None]
    finally:
        gc.enable()
    assert [t.op for t in alive] == []
    assert math.isfinite(loss.item())


def test_constant_subgraph_is_pruned():
    a, b = Tensor([[1.0]]), Tensor([[2.0]])
    out = add(a, b)
    assert not out.requires_grad
    assert out.parents == ()
    assert out._backward is None


def test_graph_node_keeps_parents_when_grad_needed():
    a = Tensor([[1.0]], requires_grad=True)
    out = add(a, Tensor([[2.0]]))
    assert out.requires_grad
    assert out.op == "add"
    assert a in out.parents


def test_no_inplace_mutation_of_recorded_inputs():
    a = Tensor([[1.0, 2.0]], requires_grad=True)
    snapshot = a.data.copy()
    out = add(mul(a, a), a)
    out_snapshot = out.data.copy()
    backward(sum_all(out))
    assert np.array_equal(a.data, snapshot)
    assert np.array_equal(out.data, out_snapshot)


def test_leaf_gradient_only_on_requires_grad():
    a = Tensor([[1.0]], requires_grad=True)
    b = Tensor([[2.0]])
    backward(sum_all(mul(a, b)))
    assert np.allclose(a.grad, 2.0)
    assert b.grad is None


# ---- error contracts -----------------------------------------------------------


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_broadcast_incompatible_shapes():
    with pytest.raises(ShapeError):
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    # add takes equal shapes only: a bias row is linear's to add
    with pytest.raises(ShapeError, match=r"\(4, 3\) and \(1, 3\) differ"):
        add(Tensor(np.zeros((4, 3))), Tensor(np.zeros((1, 3))))
    with pytest.raises(ShapeError):
        add(Tensor(np.zeros((1, 3))), Tensor(np.zeros((4, 3))))


def test_backward_rejects_non_scalar():
    a = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        backward(add(a, a))


def test_backward_rejects_unconnected_loss():
    with pytest.raises(ContractError):
        backward(Tensor([[1.0]]))


def test_embed_rejects_bad_ids():
    table = Tensor(np.zeros((3, 2)))
    with pytest.raises(ContractError, match="out of range"):
        embed(table, [0, 3], 1.0, np.zeros((2, 2)))
    with pytest.raises(ContractError, match="out of range"):
        embed(table, [-1, 0], 1.0, np.zeros((2, 2)))
    with pytest.raises(ContractError, match="empty"):
        embed(table, [], 1.0, np.zeros((0, 2)))
    with pytest.raises(ShapeError, match="flat"):
        embed(table, [[0, 1]], 1.0, np.zeros((2, 2)))


def test_layer_norm_rejects_bad_gain_shape():
    # a column gain is a d x 1 matrix, not the 1 x d row the rows scale by
    with pytest.raises(ShapeError, match="gain/bias"):
        add_layer_norm(zeros(2, 4), zeros(2, 4), Tensor(np.ones((4, 1))), zeros(1, 4))


def test_cross_entropy_rejects_zero_weight_total():
    with pytest.raises(ContractError):
        cross_entropy_rows(Tensor(np.zeros((2, 3))), [0, 1], [0.0, 0.0])


def test_cross_entropy_rejects_out_of_range_target():
    with pytest.raises(ContractError):
        cross_entropy_rows(Tensor(np.zeros((2, 3))), [0, 3], [1.0, 1.0])


# ---- attention kernel ------------------------------------------------------------


def causal(n, m):
    return np.triu(np.full((n, m), -1e9), k=1)


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("n, m", [(5, 5), (3, 6), (6, 2)])
@pytest.mark.parametrize("masked", [False, True])
def test_attention_matches_loop_oracle_per_head(heads, n, m, masked):
    rng = np.random.default_rng(100 * heads + 10 * n + m)
    d_k, h_v = 3, 2
    q = rng.normal(size=(n, heads * d_k))
    k = rng.normal(size=(m, heads * d_k))
    v = rng.normal(size=(m, heads * h_v))
    layout = Segments([n], [m], causal=True) if masked else None
    got = attention(Tensor(q), Tensor(k), Tensor(v), heads, layout).data
    assert got.shape == (n, heads * h_v)
    for h in range(heads):
        qk, vc = slice(h * d_k, (h + 1) * d_k), slice(h * h_v, (h + 1) * h_v)
        want = loop_attend(q[:, qk].tolist(), k[:, qk].tolist(), v[:, vc].tolist(), d_k,
                           causal(n, m).tolist() if masked else None)
        assert np.max(np.abs(got[:, vc] - want)) < 1e-12, f"head {h}"


# (query rows, key rows, causal) per segment: self layouts (rows = cols),
# cross layouts (rows != cols) and block-causal ones, each with a one-row
# segment and unequal lengths
LAYOUTS = {
    "self": ([3, 1, 5], [3, 1, 5], False),
    "cross": ([2, 4, 1], [5, 1, 3], False),
    "block_causal": ([4, 1, 3], [4, 1, 3], True),
    "causal_cross": ([1, 3, 5], [2, 5, 3], True),
    "eight_segments": ([3, 1, 4, 1, 5, 2, 6, 2], [2, 7, 1, 8, 2, 8, 1, 8], False),
}


def segment_slices(lengths):
    ends = np.cumsum(lengths)
    return [slice(e - n, e) for n, e in zip(lengths, ends)]


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_packed_attention_matches_each_segment_alone(name, heads):
    """A packed layout gives each segment exactly what the kernel gives it
    alone and what the loop oracle gives it per head, and each segment's
    gradients are the ones its lone run gets."""
    rows, cols, is_causal = LAYOUTS[name]
    rng = np.random.default_rng(len(rows) * 10 + heads)
    d_k, h_v = 3, 2
    q = leaf(rng, sum(rows), heads * d_k)
    k = leaf(rng, sum(cols), heads * d_k)
    v = leaf(rng, sum(cols), heads * h_v)
    probe = rng.normal(size=(sum(rows), heads * h_v))
    packed = attention(q, k, v, heads, Segments(rows, cols, causal=is_causal))
    backward(sum_all(mul(packed, Tensor(probe))))
    packed_grads = [t.grad for t in (q, k, v)]
    for rs, cs in zip(segment_slices(rows), segment_slices(cols)):
        n, m = rs.stop - rs.start, cs.stop - cs.start
        sq, sk, sv = (Tensor(x, requires_grad=True) for x in (q.data[rs], k.data[cs], v.data[cs]))
        alone = attention(sq, sk, sv, heads, Segments([n], [m], causal=is_causal))
        np.testing.assert_allclose(packed.data[rs], alone.data, rtol=0, atol=1e-12)
        for h in range(heads):
            qk, vc = slice(h * d_k, (h + 1) * d_k), slice(h * h_v, (h + 1) * h_v)
            want = loop_attend(sq.data[:, qk].tolist(), sk.data[:, qk].tolist(),
                               sv.data[:, vc].tolist(), d_k,
                               causal(n, m).tolist() if is_causal else None)
            assert np.max(np.abs(packed.data[rs, vc] - want)) < 1e-12, f"head {h}"
        backward(sum_all(mul(alone, Tensor(probe[rs]))))
        for got, want, sl in zip(packed_grads, (sq.grad, sk.grad, sv.grad), (rs, cs, cs)):
            np.testing.assert_allclose(got[sl], want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("is_causal", [False, True])
def test_grad_attention_through_three_segments(is_causal):
    rng = np.random.default_rng(33 + is_causal)
    rows, cols = ([2, 1, 3], [2, 4, 3]) if not is_causal else ([3, 1, 2], [3, 1, 2])
    layout = Segments(rows, cols, causal=is_causal)
    q, k, v = leaf(rng, sum(rows), 4), leaf(rng, sum(cols), 4), leaf(rng, sum(cols), 6)
    probe = Tensor(rng.normal(size=(sum(rows), 6)))
    check_grads(lambda: sum_all(mul(attention(q, k, v, 2, layout), probe)), [q, k, v])


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("name", ["block_causal", "causal_cross"])
def test_attention_backward_gathers_its_stacks_again_bit_for_bit(name, heads):
    """The kernel drops its q/k/v stacks after the forward pass and gathers
    them again in backward: through the public op, a 3-segment causal
    layout gets exactly the output and gradients of stacks built segment
    by segment and held."""
    rows, cols, is_causal = LAYOUTS[name]
    assert len(rows) == 3 and is_causal
    rng = np.random.default_rng(41 + heads)
    q = leaf(rng, sum(rows), heads * 3)
    k = leaf(rng, sum(cols), heads * 3)
    v = leaf(rng, sum(cols), heads * 2)
    probe = rng.normal(size=(sum(rows), heads * 2))
    out = attention(q, k, v, heads, Segments(rows, cols, causal=True))
    backward(sum_all(mul(out, Tensor(probe))))
    want = loop_held_attention(q.data, k.data, v.data, heads, rows, cols, True, probe)
    for got, held in zip((out.data, q.grad, k.grad, v.grad), want):
        assert np.array_equal(got, held)


def test_feed_forward_masks_exact_zero_pre_activations_as_relu_does():
    """The fused block takes its ReLU mask from the kept hidden rows:
    integer-valued inputs put many pre-activations at exactly 0, where
    the composed ops' mask must agree bit for bit."""
    rng = np.random.default_rng(24)

    def ints(rows, cols):
        return Tensor(rng.integers(-2, 3, size=(rows, cols)).astype(float), requires_grad=True)

    x, w1, b1, w2, b2 = ints(6, 3), ints(3, 8), ints(1, 8), ints(8, 4), ints(1, 4)
    pre = x.data @ w1.data + b1.data
    assert (pre == 0).sum() >= 5 and (pre > 0).any() and (pre < 0).any()
    probe = Tensor(rng.normal(size=(6, 4)))
    (got, got_g), (want, want_g) = _fused_and_composed_gradients(
        lambda: feed_forward(x, w1, b1, w2, b2),
        lambda: broadcast_add(matmul(relu(broadcast_add(matmul(x, w1), b1)), w2), b2),
        [x, w1, b1, w2, b2], probe)
    assert np.array_equal(got, want)
    for g, w in zip(got_g, want_g):
        assert np.array_equal(g, w)


def test_segments_reject_bad_layouts():
    with pytest.raises(ContractError, match="equal length"):
        Segments([2, 3], [2])
    with pytest.raises(ContractError, match="equal length"):
        Segments([], [])
    with pytest.raises(ContractError, match="at least one"):
        Segments([2, 0], [2, 1])


def test_attention_large_logits_stay_finite():
    # logits around 1e6 overflow exp() unless each softmax row is shifted by its max
    rng = np.random.default_rng(30)
    q = Tensor(rng.normal(scale=1000.0, size=(4, 6)), requires_grad=True)
    k = Tensor(rng.normal(scale=1000.0, size=(4, 6)), requires_grad=True)
    v = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    for layout in (None, Segments([4], [4], causal=True), Segments([1, 3], [3, 1])):
        out = attention(q, k, v, heads=2, layout=layout)
        assert np.all(np.isfinite(out.data))
        # rows are convex combinations of value rows
        assert np.all(out.data >= v.data.min(axis=0) - 1e-12)
        assert np.all(out.data <= v.data.max(axis=0) + 1e-12)
        backward(sum_all(out))
        for t in (q, k, v):
            assert np.all(np.isfinite(t.grad))


@pytest.mark.parametrize("heads, n, m, masked", [(1, 4, 4, True), (2, 3, 5, False),
                                                 (2, 4, 4, True)])
def test_grad_attention(heads, n, m, masked):
    rng = np.random.default_rng(31 + heads + n)
    q, k, v = leaf(rng, n, 4), leaf(rng, m, 4), leaf(rng, m, 6)
    probe = Tensor(rng.normal(size=(n, 6)))
    layout = Segments([n], [m], causal=True) if masked else None
    check_grads(lambda: sum_all(mul(attention(q, k, v, heads, layout), probe)), [q, k, v])


def test_attention_is_one_graph_node():
    rng = np.random.default_rng(32)
    q, k, v = leaf(rng, 3, 4), leaf(rng, 5, 4), leaf(rng, 5, 4)
    out = attention(q, k, v, heads=2, layout=Segments([1, 2], [3, 2], causal=True))
    assert out.op == "attention"
    assert out.parents == (q, k, v)
    # a constant query still routes gradients to keys and values only
    const_q = attention(Tensor(q.data), k, v)
    backward(sum_all(const_q))
    assert k.grad is not None and v.grad is not None


def test_attention_shape_errors():
    def z(rows, cols):
        return Tensor(np.zeros((rows, cols)))

    with pytest.raises(ShapeError, match="heads"):
        attention(z(2, 6), z(3, 6), z(3, 6), heads=4)
    with pytest.raises(ShapeError, match="heads"):
        attention(z(2, 6), z(3, 6), z(3, 5), heads=2)
    with pytest.raises(ShapeError, match="heads"):
        attention(z(2, 6), z(3, 6), z(3, 6), heads=0)
    with pytest.raises(ShapeError, match="widths"):
        attention(z(2, 6), z(3, 4), z(3, 6))
    with pytest.raises(ShapeError, match="row counts"):
        attention(z(2, 6), z(3, 6), z(4, 6))
    with pytest.raises(ShapeError, match="layout"):
        attention(z(2, 6), z(3, 6), z(3, 6), layout=Segments([3], [2]))


# ---- property: random smooth graphs gradcheck ----------------------------------

_SMOOTH_BINARY = ("add", "sub", "mul", "matmul")
# attention draws its keys and values from the pool as well
_SMOOTH_UNARY = ("sigmoid", "attention", "scale")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_random_smooth_graph_matches_finite_differences(seed, depth):
    """Random DAGs of smooth square-matrix ops agree with finite differences."""
    rng = np.random.default_rng(seed)
    n = 3
    leaves = [leaf(rng, n, n, lo=-1.5, hi=1.5) for _ in range(3)]

    def build():
        pool = list(leaves)
        op_rng = np.random.default_rng(seed + 1)
        for _ in range(depth):
            if op_rng.random() < 0.6:
                name = _SMOOTH_BINARY[op_rng.integers(len(_SMOOTH_BINARY))]
                a = pool[op_rng.integers(len(pool))]
                b = pool[op_rng.integers(len(pool))]
                fn = {"add": add, "sub": sub, "mul": mul, "matmul": matmul}[name]
                pool.append(fn(a, b))
            else:
                name = _SMOOTH_UNARY[op_rng.integers(len(_SMOOTH_UNARY))]
                a = pool[op_rng.integers(len(pool))]
                if name == "scale":
                    pool.append(scale(a, 0.5))
                elif name == "attention":
                    k, v = (pool[op_rng.integers(len(pool))] for _ in range(2))
                    pool.append(attention(a, k, v, heads=int(op_rng.choice([1, n]))))
                else:
                    pool.append(sigmoid(a))
        # fold every leaf in so each one is connected to the loss
        loss = sum_all(pool[-1])
        for l in leaves:
            loss = add(loss, sum_all(l))
        return loss

    check_grads(build, leaves, rtol=1e-4, atol=1e-7)
