"""Gated fusion layer: loop-oracle agreement, identity at zero init,
gates pinned through their parameters, gradient flow, and the
single-modality form (an absent stream is None and has no gate)."""

import numpy as np
import pytest

from maf.errors import ContractError, ShapeError
from maf.gif import GifParams, gif_fuse
from maf.tensor import Tensor, allocate, backward, named_parameters

from oracles import gradients_close, loop_gif, mul, numeric_gradient, sum_all


def zero_params(d, **gates):
    """All-zero gates, for the modalities ``gates`` does not switch off."""
    return allocate(GifParams.slots(d, **gates), None)


def random_params(rng, d, **gates):
    p = zero_params(d, **gates)
    for _, t in named_parameters(p):
        t.data = rng.normal(scale=0.5, size=t.data.shape)
    return p


def pin(p, c):
    """The constant gate c, set the only way there is: W = 0, b = c."""
    for name, t in named_parameters(p):
        t.data = np.full(t.shape, c if name.startswith("b_") else 0.0)
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
    p = pin(random_params(rng, d), 1.0)
    h, ha, hv = (Tensor(rng.normal(size=(3, d))) for _ in range(3))
    out = gif_fuse(h, ha, hv, p)
    assert np.max(np.abs(out.data - (h.data + ha.data + hv.data))) < 1e-15


def test_constant_gate_parameters_equal_a_pinned_gate_bit_for_bit():
    """W = 0, b = c gives exactly the gate tensor c: the output equals the
    product with a constant gate in every bit, signs of zeros included."""
    rng = np.random.default_rng(6)
    for trial in range(200):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        h, ha, hv = (rng.normal(size=(n, d)) for _ in range(3))
        for c in (0.0, 1.0, 0.3, -2.0):
            got = gif_fuse(Tensor(h), Tensor(ha), Tensor(hv), pin(random_params(rng, d), c)).data
            g = np.full((n, d), c)
            want = h + (g * ha + g * hv)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), \
                (trial, c)


def test_single_modality_form_drops_other_term():
    rng = np.random.default_rng(4)
    d = 5
    p = random_params(rng, d)
    h = Tensor(rng.normal(size=(3, d)))
    ha = Tensor(rng.normal(size=(3, d)))
    audio_only = zero_params(d, video=False)
    assert audio_only.w_video is None and audio_only.b_video is None
    audio_only.w_audio, audio_only.b_audio = p.w_audio, p.b_audio
    got = gif_fuse(h, ha, None, audio_only)
    # equals the two-modality form with a silenced video stream
    want = gif_fuse(h, ha, Tensor(np.zeros((3, d))), p).data
    assert np.array_equal(got.data, want)
    # and the absent term costs no graph nodes: add(h, g_a * h_a) only
    assert got.op == "add" and got.parents[1].op == "gated_stream"
    only_video = gif_fuse(h, None, ha, pin(zero_params(d, audio=False), 1.0))
    assert np.array_equal(only_video.data, h.data + ha.data)


def test_stream_and_gate_come_together():
    """A stream without its gate, or a gate without its stream, is an
    error: neither is dropped silently."""
    d = 4
    h, s = Tensor(np.zeros((3, d))), Tensor(np.ones((3, d)))
    with pytest.raises(ContractError, match="video"):
        gif_fuse(h, s, None, GifParams.zero_init(d))
    with pytest.raises(ContractError, match="video"):
        gif_fuse(h, s, s, zero_params(d, video=False))
    with pytest.raises(ContractError, match="audio"):
        gif_fuse(h, s, s, zero_params(d, audio=False))
    with pytest.raises(ContractError, match="at least one"):
        GifParams.slots(d, audio=False, video=False)


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
