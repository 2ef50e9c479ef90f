"""Gated fusion layer: loop-oracle agreement, identity at zero init,
gradient flow, and the single-modality form (an absent stream is None)."""

import numpy as np
import pytest

from maf.errors import ShapeError
from maf.gif import GifParams, gif_fuse
from maf.tensor import Tensor, backward, mul, named_parameters, sum_all

from oracles import gradients_close, loop_gif, numeric_gradient


def random_params(rng, d):
    p = GifParams.zero_init(d)
    for _, t in named_parameters(p):
        t.data = rng.normal(scale=0.5, size=t.data.shape)
    return p


def test_fuse_matches_loop_oracle_100_instances():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 9))
        p = random_params(rng, d)
        h = rng.normal(size=(n, d))
        ha = rng.normal(size=(n, d))
        hv = rng.normal(size=(n, d))
        got = gif_fuse(Tensor(h), Tensor(ha), Tensor(hv), p).data
        want = loop_gif(
            h.tolist(), ha.tolist(), hv.tolist(),
            p.w_audio.data.tolist(), p.w_video.data.tolist(),
            p.b_audio.data.tolist(), p.b_video.data.tolist(),
        )
        assert np.max(np.abs(got - want)) < 1e-12, f"trial {trial}"


def test_zero_parameters_give_bit_exact_identity():
    rng = np.random.default_rng(1)
    d = 8
    p = GifParams.zero_init(d)
    h = Tensor(rng.normal(size=(5, d)))
    ha = Tensor(rng.normal(size=(5, d)))
    hv = Tensor(rng.normal(size=(5, d)))
    out = gif_fuse(h, ha, hv, p)
    assert np.array_equal(out.data, h.data)


def test_silent_modalities_leave_h_untouched():
    rng = np.random.default_rng(2)
    d = 6
    p = random_params(rng, d)
    h = Tensor(rng.normal(size=(4, d)))
    silent = Tensor(np.zeros((4, d)))
    out = gif_fuse(h, silent, silent, p)
    assert np.array_equal(out.data, h.data)


def test_pinned_unit_gates_reduce_to_plain_sum():
    rng = np.random.default_rng(3)
    d = 5
    p = random_params(rng, d)
    h, ha, hv = (Tensor(rng.normal(size=(3, d))) for _ in range(3))
    one = Tensor(np.ones((3, d)))
    out = gif_fuse(h, ha, hv, p, gates=(one, one))
    assert np.max(np.abs(out.data - (h.data + ha.data + hv.data))) < 1e-15


def test_single_modality_form_drops_other_term():
    rng = np.random.default_rng(4)
    d = 5
    p = random_params(rng, d)
    h = Tensor(rng.normal(size=(3, d)))
    ha = Tensor(rng.normal(size=(3, d)))
    got = gif_fuse(h, ha, None, p)
    # equals the two-modality form with a silenced video stream
    want = gif_fuse(h, ha, Tensor(np.zeros((3, d))), p).data
    assert np.array_equal(got.data, want)
    # and the dropped term costs no graph nodes: add(h, g_a * h_a) only
    assert got.op == "add" and got.parents[1].op == "mul"
    one = Tensor(np.ones((3, d)))
    only_video = gif_fuse(h, None, ha, p, gates=(one, one))
    assert np.array_equal(only_video.data, h.data + ha.data)


def test_gradients_reach_all_parameters_and_inputs():
    rng = np.random.default_rng(5)
    d = 4
    p = random_params(rng, d)
    h = Tensor(rng.normal(size=(3, d)), requires_grad=True)
    ha = Tensor(rng.normal(size=(3, d)), requires_grad=True)
    hv = Tensor(rng.normal(size=(3, d)), requires_grad=True)
    probe = Tensor(rng.normal(size=(3, d)))

    def build():
        return sum_all(mul(gif_fuse(h, ha, hv, p), probe))

    leaves = named_parameters(p) + [("h", h), ("ha", ha), ("hv", hv)]
    backward(build())
    for name, t in leaves:
        assert t.grad is not None, f"{name} got no gradient"
        num = numeric_gradient(lambda: build().item(), t.data)
        ok, worst = gradients_close(t.grad, num, rtol=1e-5, atol=1e-8)
        assert ok, f"{name}: worst violation ratio {worst:.3g}"


def test_rejects_mismatched_stream_shapes():
    d = 4
    p = GifParams.zero_init(d)
    h = Tensor(np.zeros((3, d)))
    with pytest.raises(ShapeError):
        gif_fuse(h, Tensor(np.zeros((2, d))), Tensor(np.zeros((3, d))), p)
    with pytest.raises(ShapeError):
        gif_fuse(h, Tensor(np.zeros((3, d))), Tensor(np.zeros((3, d + 1))), p)
    with pytest.raises(ShapeError):
        gif_fuse(Tensor(np.zeros((3, d + 1))), Tensor(np.zeros((3, d + 1))),
                 Tensor(np.zeros((3, d + 1))), p)
