"""Context-aware attention block: loop-oracle agreement, gate limit
behavior, gradient flow, and structural properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maf.errors import ContractError, ShapeError
from maf.mca2 import Mca2Params, mca2_forward
from maf.tensor import Tensor, attention, backward, matmul, named_parameters

from oracles import (
    composed_mca2,
    gradients_close,
    loop_attend,
    loop_mca2,
    mul,
    numeric_gradient,
    sum_all,
)


def random_params(rng, d=6, d_c=4, random_gates=True):
    p = Mca2Params.init(d, d_c, rng)
    if random_gates:
        for g in (p.gate_k_text, p.gate_k_ctx, p.gate_v_text, p.gate_v_ctx):
            g.data = rng.normal(scale=0.7, size=g.data.shape)
    return p


def as_lists(p):
    return {name: t.data.tolist() for name, t in named_parameters(p)}


# ---- oracle agreement -----------------------------------------------------------


def test_forward_matches_loop_oracle_100_instances():
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 9))
        d_c = int(rng.integers(1, 7))
        p = random_params(rng, d=d, d_c=d_c)
        h = rng.normal(size=(n, d))
        c = rng.normal(size=(n, d_c))
        got = mca2_forward(Tensor(h), Tensor(c), p).data
        want = loop_mca2(h.tolist(), c.tolist(), as_lists(p))
        assert np.max(np.abs(got - want)) < 1e-12, f"trial {trial}"


def test_attend_matches_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, m, d, dv = (int(rng.integers(1, 6)) for _ in range(4))
        q = rng.normal(size=(n, d))
        k = rng.normal(size=(m, d))
        v = rng.normal(size=(m, dv))
        got = attention(Tensor(q), Tensor(k), Tensor(v)).data
        want = loop_attend(q.tolist(), k.tolist(), v.tolist(), d)
        assert np.max(np.abs(got - want)) < 1e-12


# ---- gate limits ------------------------------------------------------------------


def test_zero_gate_weights_give_half_gates():
    rng = np.random.default_rng(0)
    p = random_params(rng, random_gates=False)
    h = Tensor(rng.normal(size=(5, p.d)))
    c = Tensor(rng.normal(size=(5, p.d_c)))
    trace = composed_mca2(h, c, p)
    assert np.array_equal(mca2_forward(h, c, p).data, trace.output.data)
    assert np.array_equal(trace.gate_k.data, np.full((5, 1), 0.5))
    assert np.array_equal(trace.gate_v.data, np.full((5, 1), 0.5))


def test_gate_zero_recovers_plain_self_attention():
    rng = np.random.default_rng(1)
    p = random_params(rng)
    h = Tensor(rng.normal(size=(4, p.d)))
    c = Tensor(rng.normal(size=(4, p.d_c)))
    q, k, v = matmul(h, p.w_q), matmul(h, p.w_k), matmul(h, p.w_v)
    got = mca2_forward(h, c, p, gate_override=0.0).data
    want = attention(q, k, v).data
    assert np.max(np.abs(got - want)) < 1e-12


def test_gate_one_attends_over_pure_context():
    rng = np.random.default_rng(2)
    p = random_params(rng)
    h = Tensor(rng.normal(size=(4, p.d)))
    c = Tensor(rng.normal(size=(4, p.d_c)))
    q = matmul(h, p.w_q)
    ck = matmul(c, p.ctx_k)
    cv = matmul(c, p.ctx_v)
    got = mca2_forward(h, c, p, gate_override=1.0).data
    want = attention(q, ck, cv).data
    assert np.max(np.abs(got - want)) < 1e-12


def test_mixed_kv_exact_at_gate_extremes():
    """The mixed keys/values equal the textual ones at gate 0 and the
    projected context at gate 1, bit for bit."""
    rng = np.random.default_rng(3)
    p = random_params(rng)
    n = 3
    h = Tensor(rng.normal(size=(n, p.d)))
    c = Tensor(rng.normal(size=(n, p.d_c)))

    t0 = composed_mca2(h, c, p, gate_override=0.0)
    assert np.array_equal(t0.k_mixed.data, t0.k.data)
    assert np.array_equal(t0.v_mixed.data, t0.v.data)

    t1 = composed_mca2(h, c, p, gate_override=1.0)
    assert np.array_equal(t1.k_mixed.data, c.data @ p.ctx_k.data)
    assert np.array_equal(t1.v_mixed.data, c.data @ p.ctx_v.data)


def test_gates_lie_strictly_inside_unit_interval():
    rng = np.random.default_rng(4)
    p = random_params(rng)
    h = Tensor(rng.normal(scale=10.0, size=(6, p.d)))
    c = Tensor(rng.normal(scale=10.0, size=(6, p.d_c)))
    trace = composed_mca2(h, c, p)
    assert np.array_equal(mca2_forward(h, c, p).data, trace.output.data)
    for g in (trace.gate_k.data, trace.gate_v.data):
        assert np.all(g > 0.0) and np.all(g < 1.0)


# ---- gradients --------------------------------------------------------------------


def test_gradients_reach_all_nine_parameter_matrices():
    rng = np.random.default_rng(5)
    p = random_params(rng, d=4, d_c=3)
    h = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    c = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    probe = Tensor(rng.normal(size=(3, 4)))

    def build():
        return sum_all(mul(mca2_forward(h, c, p), probe))

    leaves = [t for _, t in named_parameters(p)] + [h, c]
    out = build()
    for t in leaves:
        t.zero_grad()
    backward(out)
    for name, t in named_parameters(p) + [("h", h), ("c", c)]:
        assert t.grad is not None, f"{name} got no gradient"
        num = numeric_gradient(lambda: build().item(), t.data)
        ok, worst = gradients_close(t.grad, num, rtol=1e-5, atol=1e-8)
        assert ok, f"{name}: worst violation ratio {worst:.3g}"


# ---- structure ---------------------------------------------------------------------


def test_permutation_equivariance():
    rng = np.random.default_rng(6)
    p = random_params(rng)
    n = 5
    h = rng.normal(size=(n, p.d))
    c = rng.normal(size=(n, p.d_c))
    perm = rng.permutation(n)
    base = mca2_forward(Tensor(h), Tensor(c), p).data
    permuted = mca2_forward(Tensor(h[perm]), Tensor(c[perm]), p).data
    assert np.max(np.abs(permuted - base[perm])) < 1e-12


@pytest.mark.parametrize("gate_override", [None, 0.0, 1.0])
def test_block_matches_the_composed_reference_bit_for_bit(gate_override):
    """The block with its fused gates gives the output and every gradient
    of the composed reference, whose intermediates the tests above read."""
    rng = np.random.default_rng(10)
    p = random_params(rng)
    h = Tensor(rng.normal(scale=3.0, size=(4, p.d)), requires_grad=True)
    c = Tensor(rng.normal(scale=3.0, size=(4, p.d_c)), requires_grad=True)
    probe = Tensor(rng.normal(size=(4, p.d)))
    leaves = [t for _, t in named_parameters(p)] + [h, c]
    results = []
    for build in (lambda: mca2_forward(h, c, p, gate_override=gate_override),
                  lambda: composed_mca2(h, c, p, gate_override).output):
        out = build()
        backward(sum_all(mul(out, probe)))
        results.append((out.data, [t.grad for t in leaves]))
        for t in leaves:
            t.zero_grad()
    (got, got_g), (want, want_g) = results
    assert np.array_equal(got, want)
    for g, w in zip(got_g, want_g):
        assert (g is None and w is None) or np.array_equal(g, w)


def test_context_is_projected_once():
    """One call reads each context projection in exactly one graph node,
    shared by the gate and the key/value mix."""
    rng = np.random.default_rng(15)
    p = random_params(rng)
    h = Tensor(rng.normal(size=(4, p.d)))
    c = Tensor(rng.normal(size=(4, p.d_c)))
    out = mca2_forward(h, c, p)
    seen, stack, readers = {id(out)}, [out], {"ctx_k": 0, "ctx_v": 0}
    while stack:
        node = stack.pop()
        for name in readers:
            readers[name] += any(q is getattr(p, name) for q in node.parents)
        for q in node.parents:
            if id(q) not in seen:
                seen.add(id(q))
                stack.append(q)
    assert readers == {"ctx_k": 1, "ctx_v": 1}


def test_init_is_deterministic_under_seeded_rng():
    a = Mca2Params.init(6, 4, np.random.default_rng(11))
    b = Mca2Params.init(6, 4, np.random.default_rng(11))
    for (na, ta), (nb, tb) in zip(named_parameters(a), named_parameters(b)):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_output_rows_stay_in_value_hull(seed):
    """Attention output entries never leave the per-column range of the
    mixed values (softmax rows are convex weights)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    p = random_params(rng, d=int(rng.integers(1, 6)), d_c=int(rng.integers(1, 5)))
    h = Tensor(rng.normal(size=(n, p.d)))
    c = Tensor(rng.normal(size=(n, p.d_c)))
    out, trace = mca2_forward(h, c, p).data, composed_mca2(h, c, p)
    lo = trace.v_mixed.data.min(axis=0) - 1e-9
    hi = trace.v_mixed.data.max(axis=0) + 1e-9
    assert np.all(out >= lo)
    assert np.all(out <= hi)


# ---- error contracts ----------------------------------------------------------------


def test_rejects_wrong_hidden_width():
    rng = np.random.default_rng(12)
    p = random_params(rng, d=6, d_c=4)
    with pytest.raises(ShapeError):
        mca2_forward(Tensor(np.zeros((3, 5))), Tensor(np.zeros((3, 4))), p)


def test_rejects_misaligned_context():
    rng = np.random.default_rng(13)
    p = random_params(rng, d=6, d_c=4)
    h = Tensor(np.zeros((3, 6)))
    with pytest.raises(ShapeError):
        mca2_forward(h, Tensor(np.zeros((4, 4))), p)
    with pytest.raises(ShapeError):
        mca2_forward(h, Tensor(np.zeros((3, 5))), p)


def test_init_rejects_nonpositive_widths():
    rng = np.random.default_rng(14)
    with pytest.raises(ContractError):
        Mca2Params.init(0, 4, rng)
    with pytest.raises(ContractError):
        Mca2Params.init(6, 0, rng)


def test_attend_rejects_mismatched_shapes():
    q = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        attention(q, Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError):
        attention(q, Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))))
    with pytest.raises(ShapeError):
        attention(q, Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), heads=0)
