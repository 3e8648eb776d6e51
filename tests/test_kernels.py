"""Convolution operators: golden values, algebraic properties, gradients,
bank validation and serialization."""

import hashlib
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepconv3d.kernels import (
    VARIANTS,
    KernelBank,
    KernelError,
    backward,
    conv3d_dwsc,
    conv3d_fdwsc,
    conv3d_full,
    conv3d_fwsc,
    deconv3d_backward,
    deconv3d_full,
    depthwise_cube,
    forward,
    load_bank,
    out_extent,
    output_dims,
    pointwise_mix,
    save_bank,
    scale_shift,
)
from sepconv3d.volume import Shape4, Volume4, save_volume, uniform_open


def _ones_bank(variant, k, ci, co=None, d_in=None):
    """Bank with every weight equal to one."""
    co = ci if co is None else co
    if variant == "full":
        arrays = {"weights": np.ones((co, ci, k, k, k))}
    elif variant == "fwsc":
        arrays = {"depthwise": np.ones((ci, k, k, k)), "pointwise": np.ones((co, ci))}
    elif variant == "dwsc":
        do = co  # caller passes d_out via co slot for this helper
        arrays = {"depthwise": np.ones((d_in, k, k, k)), "pointwise": np.ones((do, d_in))}
        return KernelBank("dwsc", k, ci, ci, arrays, d_in=d_in, d_out=do)
    elif variant == "fdwsc":
        arrays = {
            "spatial": np.ones((ci, k, k)),
            "disparity": np.ones((ci, k)),
            "pointwise": np.ones((co, ci)),
        }
    else:
        raise AssertionError(variant)
    return KernelBank(variant, k, ci, co, arrays)


# ----------------------------------------------------------------------
# golden values
# ----------------------------------------------------------------------


def test_identity_kernel_returns_input():
    x = Volume4.random((1, 3, 4, 5), seed=0)
    bank = _ones_bank("full", 1, 1, 1)
    assert np.array_equal(conv3d_full(x, bank).array, x.array)


def test_all_ones_center_tap_counts():
    # (2,3,3,3) ones, k=3: the center site sees all 27 taps of both channels
    x = Volume4.full((2, 3, 3, 3), 1.0)
    y_full = conv3d_full(x, _ones_bank("full", 3, 2, 1))
    assert y_full.array[0, 1, 1, 1] == 54.0

    y_fwsc = conv3d_fwsc(x, _ones_bank("fwsc", 3, 2, 1))
    assert y_fwsc.array[0, 1, 1, 1] == 54.0  # 27 + 27 through the mix

    # fdwsc at the center: 9 spatial taps, then x3 along d, summed over 2 channels
    y_fd = conv3d_fdwsc(x, _ones_bank("fdwsc", 3, 2, 1))
    assert y_fd.array[0, 1, 1, 1] == 54.0


def test_dwsc_all_ones_interior_value():
    # cubes run over (c,h,w); c=2 clips the 3-tap channel window to 2 taps,
    # so each cube contributes 2*9 = 18 and the d_o=1 mix sums 4 cubes
    x = Volume4.full((2, 4, 3, 3), 1.0)
    bank = _ones_bank("dwsc", 3, 2, co=1, d_in=4)
    y = conv3d_dwsc(x, bank)
    assert y.dims == Shape4(2, 1, 3, 3)
    assert y.array[0, 0, 1, 1] == 72.0
    assert y.array[1, 0, 1, 1] == 72.0


def test_fwsc_c1_equals_full_with_same_kernel():
    x = Volume4.random((1, 5, 6, 7), seed=3, dtype=np.float64)
    kern = np.arange(27, dtype=np.float64).reshape(1, 3, 3, 3) / 27.0
    fw = KernelBank("fwsc", 3, 1, 1, {"depthwise": kern, "pointwise": np.ones((1, 1))})
    fu = KernelBank("full", 3, 1, 1, {"weights": kern.reshape(1, 1, 3, 3, 3)})
    a = conv3d_fwsc(x, fw).array
    b = conv3d_full(x, fu).array
    assert np.max(np.abs(a - b)) <= 1e-6 * max(1.0, np.max(np.abs(b)))


# ----------------------------------------------------------------------
# shape contract
# ----------------------------------------------------------------------


@given(
    variant=st.sampled_from(["full", "fwsc", "dwsc", "fdwsc"]),
    k=st.sampled_from([1, 3]),
    stride=st.integers(1, 3),
    ci=st.integers(1, 3),
    co=st.integers(1, 3),
    d=st.integers(1, 5),
    h=st.integers(1, 5),
    w=st.integers(1, 5),
)
@settings(max_examples=30, deadline=None)
def test_output_shape_contract(variant, k, stride, ci, co, d, h, w):
    if variant == "dwsc":
        co = ci
    bank = KernelBank.random(
        variant, k, ci, co, d_in=(d if variant == "dwsc" else None), seed=1
    )
    x = Volume4.random((ci, d, h, w), seed=2)
    y = forward(x, bank, stride)
    assert y.dims == output_dims(variant, Shape4(ci, d, h, w), k, stride, co)
    if variant == "dwsc":
        assert y.dims.c == ci and y.dims.d == d  # stride must not touch c or d
    else:
        assert y.dims.d == out_extent(d, stride)


def test_out_extent():
    assert [out_extent(n, 2) for n in (1, 2, 3, 4, 5)] == [1, 1, 2, 2, 3]
    assert out_extent(7, 1) == 7


# ----------------------------------------------------------------------
# algebraic properties
# ----------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["full", "fwsc", "dwsc", "fdwsc"])
def test_linearity(variant):
    ci = 3
    bank = KernelBank.random(
        variant, 3, ci, ci, d_in=(4 if variant == "dwsc" else None), seed=5
    )
    x1 = Volume4.random((ci, 4, 5, 6), seed=1, dtype=np.float64)
    x2 = Volume4.random((ci, 4, 5, 6), seed=2, dtype=np.float64)
    mix = Volume4(2.0 * x1.array - 0.5 * x2.array)
    lhs = forward(mix, bank).array
    rhs = 2.0 * forward(x1, bank).array - 0.5 * forward(x2, bank).array
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_linearity_f32_tolerance():
    bank = KernelBank.random("full", 3, 2, 2, seed=7)
    x1 = Volume4.random((2, 4, 5, 6), seed=3)
    x2 = Volume4.random((2, 4, 5, 6), seed=4)
    mix = Volume4(x1.array + x2.array)
    lhs = forward(mix, bank).array
    rhs = forward(x1, bank).array + forward(x2, bank).array
    assert np.max(np.abs(lhs - rhs)) <= 1e-5 * max(1.0, float(np.max(np.abs(rhs))))


def test_forward_is_deterministic():
    x = Volume4.random((3, 5, 6, 7), seed=9)
    bank = KernelBank.random("fwsc", 3, 3, 4, seed=10, bias=True, bn=True)
    a = forward(x, bank, 2)
    b = forward(x, bank, 2)
    assert np.array_equal(a.array, b.array)


def test_dwsc_is_fwsc_machinery_on_permuted_volume():
    # swap the channel/disparity roles and run the other separable op
    ci, di = 3, 4
    x = Volume4.random((ci, di, 5, 6), seed=12, dtype=np.float64)
    dw = KernelBank.random("dwsc", 3, ci, d_in=di, seed=13)
    fw = KernelBank(
        "fwsc", 3, di, di,
        {"depthwise": dw.arrays["depthwise"], "pointwise": dw.arrays["pointwise"]},
    )
    a = conv3d_dwsc(x, dw, 1)
    b = conv3d_fwsc(x.permute((1, 0, 2, 3)), fw, 1).permute((1, 0, 2, 3))
    assert np.array_equal(a.array, b.array)


# ----------------------------------------------------------------------
# standalone stages and the affine tail
# ----------------------------------------------------------------------


def test_scale_shift_values():
    x = Volume4.full((1, 1, 1, 1), 2.0, dtype=np.float64)
    y = scale_shift(x, bias=[1.0], scale=[3.0], shift=[-1.0])
    assert y.array[0, 0, 0, 0] == 8.0  # 3*(2+1) - 1
    assert np.array_equal(scale_shift(x).array, x.array)


def test_scale_shift_validation():
    x = Volume4.zeros((2, 1, 1, 1))
    with pytest.raises(KernelError):
        scale_shift(x, scale=[1.0, 1.0])  # shift missing
    with pytest.raises(KernelError):
        scale_shift(x, bias=[1.0])  # wrong length


def test_depthwise_cube_validation():
    x = Volume4.zeros((2, 3, 3, 3))
    with pytest.raises(KernelError):
        depthwise_cube(x, np.ones((3, 3, 3, 3)))  # channel mismatch
    with pytest.raises(KernelError):
        depthwise_cube(x, np.ones((2, 3, 3, 2)))  # not cubic
    with pytest.raises(KernelError):
        depthwise_cube(x, np.ones((2, 2, 2, 2)))  # even extent


def test_pointwise_mix_validation():
    x = Volume4.zeros((2, 3, 3, 3))
    with pytest.raises(KernelError):
        pointwise_mix(x, np.ones((4, 3)))
    y = pointwise_mix(x, np.ones((5, 2)))
    assert y.dims == Shape4(5, 3, 3, 3)


# ----------------------------------------------------------------------
# transposed convolution
# ----------------------------------------------------------------------


def test_deconv_identity_k1_s1():
    x = Volume4.random((1, 3, 4, 5), seed=20)
    bank = _ones_bank("full", 1, 1, 1)
    assert np.array_equal(deconv3d_full(x, bank, 1).array, x.array)


def test_deconv_k1_s2_zero_fills():
    x = Volume4.random((1, 2, 2, 2), seed=21, dtype=np.float64)
    y = deconv3d_full(x, _ones_bank("full", 1, 1, 1), 2)
    assert y.dims == Shape4(1, 4, 4, 4)
    assert np.array_equal(y.array[:, ::2, ::2, ::2], x.array)
    mask = np.ones((4, 4, 4), dtype=bool)
    mask[::2, ::2, ::2] = False
    assert not y.array[0][mask].any()


def test_deconv_output_extents_scale_with_stride():
    x = Volume4.random((3, 4, 5, 6), seed=22)
    bank = KernelBank.random("full", 3, 3, 2, seed=23)
    assert deconv3d_full(x, bank, 2).dims == Shape4(2, 8, 10, 12)
    assert deconv3d_full(x, bank, 1).dims == Shape4(2, 4, 5, 6)


def test_deconv_rejects_separable_banks():
    x = Volume4.zeros((2, 2, 2, 2))
    with pytest.raises(KernelError):
        deconv3d_full(x, KernelBank.random("fwsc", 3, 2, 2, seed=1))


def _zero_insertion_deconv(x, bank, s):
    """Reference transposed conv: zero-insert onto the s-times grid, then
    run the dense window with the tap-reversed kernel (channels-last)."""
    xa = np.asarray(x.array, dtype=np.float64)
    c, d, h, w = xa.shape
    buf = np.zeros((c, d * s, h * s, w * s))
    buf[:, ::s, ::s, ::s] = xa
    wflip = bank.arrays["weights"][:, :, ::-1, ::-1, ::-1]
    k = bank.k
    xt = np.pad(np.ascontiguousarray(np.moveaxis(buf, 0, -1)),
                [((k - 1) // 2, k // 2)] * 3 + [(0, 0)])
    win = np.lib.stride_tricks.sliding_window_view(xt, (k, k, k), axis=(0, 1, 2))
    wt = np.ascontiguousarray(wflip.transpose(1, 2, 3, 4, 0))
    z = np.einsum("zyxiabc,iabco->zyxo", win, wt, optimize=False)
    z = np.ascontiguousarray(np.moveaxis(z, -1, 0))
    z = z + bank.bias[:, None, None, None]
    z = bank.bn_scale[:, None, None, None] * z + bank.bn_shift[:, None, None, None]
    return z.astype(x.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dims", [(2, 3, 4, 5), (2, 4, 3, 6)])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_deconv_phases_equal_zero_insertion(stride, k, dims, dtype):
    x = Volume4.random(dims, seed=24, dtype=dtype)
    bank = KernelBank.random("full", k, dims[0], 3, seed=25, bias=True, bn=True)
    assert np.array_equal(deconv3d_full(x, bank, stride).array,
                          _zero_insertion_deconv(x, bank, stride))


@pytest.mark.parametrize("stride", [2, 3])
def test_deconv_single_output_channel_within_rounding(stride):
    # with c_out = 1 einsum's inner loop runs over taps, so dropping the
    # zero taps regroups the float64 sum; only rounding may differ
    x = Volume4.random((3, 3, 4, 5), seed=26, dtype=np.float64)
    bank = KernelBank.random("full", 5, 3, 1, seed=27, bias=True, bn=True)
    np.testing.assert_allclose(deconv3d_full(x, bank, stride).array,
                               _zero_insertion_deconv(x, bank, stride),
                               rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_deconv_executes_k_n_taps_per_axis(monkeypatch, stride, k):
    executed = []
    einsum = np.einsum

    def spy(subscripts, *ops, **kw):
        extent = {}
        for labels, op in zip(subscripts.split("->")[0].split(","), ops):
            extent.update(zip(labels, np.shape(op)))
        executed.append(int(np.prod(list(extent.values()))))
        return einsum(subscripts, *ops, **kw)

    monkeypatch.setattr(np, "einsum", spy)
    ci, co, n = 2, 3, (3, 4, 5)
    x = Volume4.random((ci,) + n, seed=28, dtype=np.float64)
    deconv3d_full(x, KernelBank.random("full", k, ci, co, seed=29), stride)
    assert sum(executed) == ci * co * np.prod([k * m for m in n])


# ----------------------------------------------------------------------
# analytic backward
# ----------------------------------------------------------------------


def test_backward_scalar_case():
    x = Volume4(np.full((1, 1, 1, 1), 3.0))
    bank = KernelBank("full", 1, 1, 1, {"weights": np.full((1, 1, 1, 1, 1), 2.0)})
    gout = Volume4(np.ones((1, 1, 1, 1)))
    gx, grads = backward(x, bank, gout)
    assert gx.array[0, 0, 0, 0] == 2.0  # dL/dx = w
    assert grads["weights"][0, 0, 0, 0, 0] == 3.0  # dL/dw = x


@pytest.mark.parametrize("variant", ["full", "fwsc", "dwsc", "fdwsc"])
def test_backward_zero_grad_out(variant):
    ci = 2
    bank = KernelBank.random(
        variant, 3, ci, ci, d_in=(3 if variant == "dwsc" else None),
        seed=30, bias=True, bn=True,
    )
    x = Volume4.random((ci, 3, 4, 4), seed=31, dtype=np.float64)
    y = forward(x, bank)
    gx, grads = backward(x, bank, Volume4.zeros(tuple(y.dims), dtype=np.float64))
    assert not gx.array.any()
    for name, g in grads.items():
        assert not np.asarray(g).any(), name


def test_backward_grad_shapes_match_bank():
    bank = KernelBank.random("fdwsc", 3, 2, 4, seed=32, bias=True, bn=True)
    x = Volume4.random((2, 4, 5, 5), seed=33, dtype=np.float64)
    y = forward(x, bank, 2)
    gx, grads = backward(x, bank, Volume4.full(tuple(y.dims), 1.0, dtype=np.float64), 2)
    assert gx.dims == x.dims
    for name, arr in bank.arrays.items():
        assert grads[name].shape == arr.shape
    assert grads["bias"].shape == (4,)
    assert grads["bn_scale"].shape == (4,)


def test_backward_rejects_mismatched_grad_shape():
    bank = KernelBank.random("full", 3, 2, 2, seed=34)
    x = Volume4.random((2, 4, 4, 4), seed=35, dtype=np.float64)
    with pytest.raises(KernelError, match="grad_out"):
        backward(x, bank, Volume4.zeros((2, 3, 4, 4), dtype=np.float64))


def _replaced(bank, name, value):
    """Copy of `bank` with the array or affine vector `name` replaced."""
    arrays = dict(bank.arrays)
    vecs = {"bias": bank.bias, "bn_scale": bank.bn_scale, "bn_shift": bank.bn_shift}
    (arrays if name in arrays else vecs)[name] = value
    return KernelBank(
        bank.variant, bank.k, bank.c_in, bank.c_out, arrays,
        d_in=bank.d_in, d_out=bank.d_out, **vecs,
    )


def _worst_directional_error(bwd, variant, stride, seed=40, op=forward, k=3):
    """Worst relative gap between `bwd`'s directional derivatives of
    loss = vdot(g, op(x)), for a seeded random g, and their central
    differences.  One random direction for the input and one for each
    bank array and affine vector."""
    rng = np.random.default_rng(seed)
    ci = 2
    bank = KernelBank.random(
        variant, k, ci, ci if variant == "dwsc" else 3,
        d_in=(4 if variant == "dwsc" else None), seed=seed, bias=True, bn=True,
    )
    x = rng.uniform(-1.0, 1.0, (ci, 4, 5, 6))
    g = rng.uniform(-1.0, 1.0, tuple(op(Volume4(x), bank, stride).dims))
    gx, grads = bwd(Volume4(x), bank, Volume4(g), stride)

    def loss(xa, b):
        return float(np.vdot(g, op(Volume4(xa), b, stride).array))

    eps = 1e-3
    u = rng.uniform(-1.0, 1.0, x.shape)
    fd = (loss(x + eps * u, bank) - loss(x - eps * u, bank)) / (2 * eps)
    pairs = [(fd, float(np.vdot(gx.array, u)))]
    for name, grad in grads.items():
        base = bank.arrays[name] if name in bank.arrays else getattr(bank, name)
        u = rng.uniform(-1.0, 1.0, base.shape)
        up = _replaced(bank, name, base + eps * u)
        down = _replaced(bank, name, base - eps * u)
        fd = (loss(x, up) - loss(x, down)) / (2 * eps)
        pairs.append((fd, float(np.vdot(grad, u))))
    assert len(pairs) == 1 + len(bank.arrays) + 3
    return max(abs(fd - an) / max(abs(fd), abs(an)) for fd, an in pairs)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("variant", VARIANTS)
def test_backward_matches_directional_central_differences(variant, stride):
    assert _worst_directional_error(backward, variant, stride) < 1e-6


@pytest.mark.parametrize("variant", VARIANTS)
def test_directional_check_catches_spatially_flipped_grad_out(variant):
    # pairing each stage with the wrong activation keeps every sum of g
    # but not the products, which a g = ones check cannot see
    def flipped(x, bank, grad_out, stride):
        return backward(x, bank, Volume4(grad_out.array[:, ::-1, ::-1, ::-1]), stride)

    assert _worst_directional_error(flipped, variant, 1) > 1e-2


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_deconv_backward_matches_directional_central_differences(stride, k):
    err = _worst_directional_error(deconv3d_backward, "full", stride, op=deconv3d_full, k=k)
    assert err < 1e-6


def test_deconv_and_conv_gradients_differ_at_stride_1():
    # the shapes agree at stride 1, so only the layer kind tells them apart
    bank = KernelBank.random("full", 3, 2, 3, seed=41, bias=True, bn=True)
    x = Volume4.random((2, 3, 4, 5), seed=42, dtype=np.float64)
    g = Volume4.random((3, 3, 4, 5), seed=43, dtype=np.float64)
    _, conv = backward(x, bank, g)
    _, deconv = deconv3d_backward(x, bank, g)
    assert conv["weights"].shape == deconv["weights"].shape
    assert np.abs(conv["weights"] - deconv["weights"]).max() > 1e-2
    assert np.array_equal(conv["bias"], deconv["bias"])  # the affine is shared


def test_deconv_backward_validation():
    x = Volume4.random((2, 2, 3, 3), seed=44, dtype=np.float64)
    bank = KernelBank.random("full", 3, 2, 2, seed=45)
    with pytest.raises(KernelError, match="'full' bank"):
        deconv3d_backward(x, KernelBank.random("fwsc", 3, 2, 2, seed=1),
                          Volume4.zeros((2, 4, 6, 6)), 2)
    with pytest.raises(KernelError, match="grad_out"):
        deconv3d_backward(x, bank, Volume4.zeros((2, 2, 3, 3)), 2)
    for stride in (0, 1.5, True):
        with pytest.raises(KernelError, match="stride"):
            deconv3d_backward(x, bank, Volume4.zeros((2, 4, 6, 6)), stride)
    gx, grads = deconv3d_backward(x, bank, Volume4.zeros((2, 4, 6, 6)), np.int64(2))
    assert gx.dims == x.dims and grads["weights"].shape == (2, 2, 3, 3, 3)


# ----------------------------------------------------------------------
# bank construction and validation
# ----------------------------------------------------------------------


def test_param_count_matches_closed_forms():
    k = 3
    assert KernelBank.random("full", k, 3, 5, seed=1).param_count() == 27 * 3 * 5
    assert KernelBank.random("fwsc", k, 3, 5, seed=1).param_count() == 27 * 3 + 3 * 5
    assert (
        KernelBank.random("dwsc", k, 3, d_in=6, seed=1).param_count()
        == 27 * 6 + 6 * 6
    )
    assert (
        KernelBank.random("fdwsc", k, 3, 5, seed=1).param_count()
        == 9 * 3 + 3 * 3 + 3 * 5
    )
    withextras = KernelBank.random("full", k, 3, 5, seed=1, bias=True, bn=True)
    assert withextras.param_count() == 27 * 3 * 5 + 5 + 2 * 5


def test_bank_random_is_seed_deterministic():
    a = KernelBank.random("fdwsc", 3, 3, 4, seed=77, bias=True, bn=True)
    b = KernelBank.random("fdwsc", 3, 3, 4, seed=77, bias=True, bn=True)
    for name in a.arrays:
        assert np.array_equal(a.arrays[name], b.arrays[name])
    assert np.array_equal(a.bias, b.bias)
    c = KernelBank.random("fdwsc", 3, 3, 4, seed=78)
    assert not np.array_equal(a.arrays["spatial"], c.arrays["spatial"])


def test_bank_validation_errors():
    with pytest.raises(KernelError, match="variant"):
        KernelBank("cubic", 3, 2, 2, {})
    with pytest.raises(KernelError, match="odd"):
        KernelBank.random("full", 2, 2, 2, seed=0)
    with pytest.raises(KernelError, match="odd"):
        KernelBank.random("full", -3, 2, 2, seed=0)
    with pytest.raises(KernelError, match="c_out must equal c_in"):
        KernelBank.random("dwsc", 3, 2, 3, d_in=4, seed=0)
    with pytest.raises(KernelError, match="d_in"):
        KernelBank.random("dwsc", 3, 2, seed=0)
    with pytest.raises(KernelError, match="needs arrays"):
        KernelBank("fwsc", 3, 2, 2, {"depthwise": np.ones((2, 3, 3, 3))})
    with pytest.raises(KernelError, match="shape"):
        KernelBank("full", 3, 2, 2, {"weights": np.ones((2, 2, 3, 3))})
    with pytest.raises(KernelError, match="non-finite"):
        KernelBank("full", 1, 1, 1, {"weights": np.full((1, 1, 1, 1, 1), np.inf)})
    with pytest.raises(KernelError, match="together"):
        KernelBank(
            "full", 1, 1, 1, {"weights": np.ones((1, 1, 1, 1, 1))},
            bn_scale=np.ones(1),
        )
    with pytest.raises(KernelError, match="bias"):
        KernelBank(
            "full", 1, 1, 2, {"weights": np.ones((2, 1, 1, 1, 1))},
            bias=np.ones(3),
        )


@pytest.mark.parametrize("field", ["k", "c_in", "c_out", "d_in", "d_out"])
def test_bank_rejects_non_integral_scalars(field):
    args = {"k": 3, "c_in": 2, "c_out": 2, "d_in": 4, "d_out": 4}
    with pytest.raises(KernelError, match=f"got {args[field] + 0.5}"):
        KernelBank.random("dwsc", seed=0, **{**args, field: args[field] + 0.5})
    # numpy integers are integers
    bank = KernelBank.random("dwsc", seed=0, **{**args, field: np.int64(args[field])})
    assert (bank.k, bank.c_in, bank.c_out, bank.d_in, bank.d_out) == (3, 2, 2, 4, 4)


def test_operators_reject_non_integral_stride():
    x = Volume4.random((2, 3, 4, 5), seed=0)
    bank = KernelBank.random("full", 3, 2, 2, seed=0)
    for op in (forward, deconv3d_full):
        with pytest.raises(KernelError, match="stride"):
            op(x, bank, 2.7)
    assert forward(x, bank, np.int32(2)).dims == Shape4(2, 2, 2, 3)


def test_channel_mismatch_message_has_both_counts():
    bank = KernelBank.random("full", 3, 2, 4, seed=0)
    x = Volume4.zeros((3, 4, 4, 4))
    with pytest.raises(KernelError) as err:
        conv3d_full(x, bank)
    assert "3" in str(err.value) and "2" in str(err.value)


def test_variant_and_stride_guards():
    x = Volume4.zeros((2, 2, 2, 2))
    fw = KernelBank.random("fwsc", 3, 2, 2, seed=0)
    with pytest.raises(KernelError, match="expected a 'full'"):
        conv3d_full(x, fw)
    with pytest.raises(KernelError, match="stride"):
        conv3d_fwsc(x, fw, 0)
    dw = KernelBank.random("dwsc", 3, 2, d_in=4, seed=0)
    with pytest.raises(KernelError, match="disparities"):
        conv3d_dwsc(x, dw)  # x.d == 2, bank.d_in == 4


# ----------------------------------------------------------------------
# bank serialization
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "variant,extras",
    [
        ("full", dict(bias=True)),
        ("fwsc", dict(bn=True)),
        ("dwsc", dict(bias=True, bn=True)),
        ("fdwsc", dict()),
    ],
)
def test_bank_save_load_roundtrip(tmp_path, variant, extras):
    bank = KernelBank.random(
        variant, 3, 3, 3, d_in=(5 if variant == "dwsc" else None), seed=50, **extras
    )
    path = tmp_path / f"{variant}.bank.json"
    save_bank(path, bank)
    back = load_bank(path)
    assert back.variant == bank.variant
    assert (back.k, back.c_in, back.c_out) == (bank.k, bank.c_in, bank.c_out)
    assert (back.d_in, back.d_out) == (bank.d_in, bank.d_out)
    for name in bank.arrays:
        assert np.array_equal(back.arrays[name], bank.arrays[name]), name
    for vec in ("bias", "bn_scale", "bn_shift"):
        a, b = getattr(bank, vec), getattr(back, vec)
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a, b)


# SHA-256 of each file save_bank writes for
# KernelBank.random(variant, 3, 2, c_out, seed=61, bias=True, bn=True):
# the SV3D bank layout is a contract, so these bytes must not move.
_BIAS = "5b04be2d4407ef113d47eba03e9bfafea7408c585f2bfb5bfd76aa6789955fae"
_BN_SCALE = "ef7f50d0446a329bc7a66e8fec2f87c97e168843e8586f30652f6e570281a277"
_BN_SHIFT = "e026273c43eeadbe5d4de943d9657d152b89ccc4fae95d76b9432ee3a5dc3bc2"
_POINTWISE = "313c476d6df2f071ba90f70af5b646caa7a82b2daf4ee076829b16e80f38303c"
_GOLDEN_BANK_FILES = {
    "full": {
        "bank.json": "86cf35501eb16f82e61b30a4ab700ac5c8a8aaeccd9d6aed785999e3c60a3e64",
        "bank.weights.sv3d": "5cfcedee7538d7182d42e03295e73176496424840544d1d6da155f1e084e8adb",
        "bank.bias.sv3d": _BIAS,
        "bank.bn_scale.sv3d": _BN_SCALE,
        "bank.bn_shift.sv3d": _BN_SHIFT,
    },
    "fwsc": {
        "bank.json": "bcdb04c719a3f267c99f82ee09fdb5939787902f708468a637b814e95aa46259",
        "bank.depthwise.sv3d": "1be14a037093376ccc88b243dd7dc1d239d128b12fc937bc05c4905ae95fb6b2",
        "bank.pointwise.sv3d": _POINTWISE,
        "bank.bias.sv3d": _BIAS,
        "bank.bn_scale.sv3d": _BN_SCALE,
        "bank.bn_shift.sv3d": _BN_SHIFT,
    },
    "dwsc": {
        "bank.json": "d7785595a88e5948deb39f8ac55543c5d4145301766d03eb7714e5ce54f16809",
        "bank.depthwise.sv3d": "7585467a31ee54f6379e5184cba7e27e4d5c3acc46b9c95dba0ee66b0a7e10a8",
        "bank.pointwise.sv3d": "0c02bf4eba550dc37dea1e40bc2421d9e67368b8348693bdbf0d7e65f559650f",
        "bank.bias.sv3d": "3afd8d907299e222fcc3e917f974b1a74d6556047247c2994f104a2a8c659462",
        "bank.bn_scale.sv3d": "cd2e1930ae204e6b7a871a7731748947b46c8abf057e4b392f49d186df3da1cf",
        "bank.bn_shift.sv3d": "485e0555b8d033a6b1eb852097eb1ead577ee8c8654b06c27efa2f9319307bd3",
    },
    "fdwsc": {
        "bank.json": "8f09108f2d68aa1866811c9c4721e3e19672915f78f01267c7ed10d336ace3a2",
        "bank.spatial.sv3d": "14b9d09874b3e41929ef6b4187b1b4bbe27481ef97db6982d6d2b7f9dcfc6227",
        "bank.disparity.sv3d": "505db6ed6f08335cdccfb4fa6af9d937ecb80c637c1ba201a0bdf7ca7310ac22",
        "bank.pointwise.sv3d": _POINTWISE,
        "bank.bias.sv3d": _BIAS,
        "bank.bn_scale.sv3d": _BN_SCALE,
        "bank.bn_shift.sv3d": _BN_SHIFT,
    },
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_saved_bank_bytes_are_pinned(tmp_path, variant):
    dwsc = variant == "dwsc"
    bank = KernelBank.random(
        variant, 3, 2, 2 if dwsc else 3, d_in=(4 if dwsc else None),
        seed=61, bias=True, bn=True,
    )
    save_bank(tmp_path / "bank.json", bank)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == _GOLDEN_BANK_FILES[variant]


def test_load_bank_rejects_array_file_with_wrong_extents(tmp_path):
    bank = KernelBank.random("fwsc", 3, 2, 3, seed=62)
    save_bank(tmp_path / "bank.json", bank)
    # right element count, transposed extents
    save_volume(
        tmp_path / "bank.pointwise.sv3d",
        Volume4(bank.arrays["pointwise"].T.reshape(2, 3, 1, 1)),
    )
    with pytest.raises(KernelError, match="pointwise"):
        load_bank(tmp_path / "bank.json")


def test_load_bank_rejects_malformed_sidecar(tmp_path):
    bad = tmp_path / "bank.json"
    bad.write_text("{not json")
    with pytest.raises(KernelError, match="malformed"):
        load_bank(bad)
    bad.write_text('{"k": 3}')
    with pytest.raises(KernelError, match="missing"):
        load_bank(bad)
    bad.write_text('{"op": "spiral", "arrays": {}}')
    with pytest.raises(KernelError, match="unknown op"):
        load_bank(bad)


# ----------------------------------------------------------------------
# channels-last stage fold
# ----------------------------------------------------------------------


def _channels_first_depthwise(x, w, strides):
    """The per-slice window core as it ran channels-first, kept here as a
    reference: x (n, A, B, C), w (n, ka, kb, kc) -> (n, A', B', C')."""
    from numpy.lib.stride_tricks import sliding_window_view

    ks = w.shape[1:]
    pads = [(0, 0)] + [((k - 1) // 2, k // 2) for k in ks]
    xp = np.pad(x, pads) if max(ks) > 1 else x
    axes = tuple(ax for ax, k in zip((1, 2, 3), ks) if k > 1)
    wins = tuple(k for k in ks if k > 1)
    labels = "".join(l for l, k in zip("abc", ks) if k > 1)
    win = sliding_window_view(xp, wins, axis=axes) if axes else xp
    win = win[:, :: strides[0], :: strides[1], :: strides[2]]
    return np.einsum(f"nzyx{labels},n{labels}->nzyx", win, w.reshape((x.shape[0],) + wins))


@pytest.mark.parametrize("shape", ["kkk", "1kk", "k11"])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_channels_last_window_core_matches_channels_first(shape, k, s):
    from sepconv3d.kernels import _depthwise_core

    ks = tuple(k if c == "k" else 1 for c in shape)
    x = Volume4.random((3, 5, 6, 7), seed=k + s, dtype=np.float64).array
    w = KernelBank.random("fwsc", 5, 3, seed=s).arrays["depthwise"]
    w = w[:, : ks[0], : ks[1], : ks[2]].copy()
    ref = _channels_first_depthwise(x, w, (s, s, s))
    got = np.moveaxis(_depthwise_core(x.transpose(1, 2, 3, 0), w, (s, s, s)), -1, 0)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def _tap_walk_window_bwd(x, w, strides, gz):
    """The per-slice window backward as it ran before it reused the
    forward's engines, kept here as a reference: a walk over the kernel
    taps, x (A, B, C, n), w (n, ka, kb, kc), gz the stage's output
    gradient.  Returns (input gradient, weight gradient)."""
    ks = w.shape[1:]
    pads = [((k - 1) // 2, k // 2) for k in ks]
    xp = np.pad(x, pads + [(0, 0)])
    n = [m - k + 1 for m, k in zip(xp.shape, ks)]
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for t in itertools.product(*map(range, ks)):
        sl = tuple(slice(a, a + m, s) for a, m, s in zip(t, n, strides))
        gw[(Ellipsis,) + t] = np.einsum("zyxn,zyxn->n", gz, xp[sl])
        gxp[sl] += gz * w[(Ellipsis,) + t]
    return gxp[tuple(slice(lo, lo + m) for (lo, _), m in zip(pads, x.shape))], gw


def _window_case(shape, k, s):
    """Channels-last x (5, 6, 7, 3), a per-slice kernel of layout `shape`
    ("kkk", "1kk" or "k11") and its strides."""
    ks = tuple(k if c == "k" else 1 for c in shape)
    x = Volume4.random((3, 5, 6, 7), seed=k + s, dtype=np.float64).array.transpose(1, 2, 3, 0)
    w = KernelBank.random("fwsc", 5, 3, seed=s).arrays["depthwise"]
    return x, w[:, : ks[0], : ks[1], : ks[2]].copy(), (s, s, s)


@pytest.mark.parametrize("shape", ["kkk", "1kk", "k11"])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_window_scatter_is_the_adjoint_of_the_window(shape, k, s):
    from sepconv3d.kernels import _depthwise_core, _phase_scatter, _slice_window

    x, w, strides = _window_case(shape, k, s)
    y = _depthwise_core(x, w, strides)
    g = np.random.default_rng(k * s).uniform(-1.0, 1.0, y.shape)
    back = _phase_scatter(g, w, strides, _slice_window, x.shape[-1])
    assert back.shape == tuple(m * s for m in y.shape[:3]) + (3,)
    lhs = np.vdot(y, g)
    rhs = np.vdot(x, back[: x.shape[0], : x.shape[1], : x.shape[2]])
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


@pytest.mark.parametrize("shape", ["kkk", "1kk", "k11"])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_window_gradients_match_the_tap_walk(shape, k, s):
    from sepconv3d.kernels import _STAGE_BWD, _depthwise_core

    x, w, strides = _window_case(shape, k, s)
    y = _depthwise_core(x, w, strides)
    gz = np.random.default_rng(k + s).uniform(-1.0, 1.0, y.shape)
    for got, ref in zip(_STAGE_BWD["window"](x, w, strides, gz),
                        _tap_walk_window_bwd(x, w, strides, gz)):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("ci", [1, 2, 4])
@pytest.mark.parametrize("s", [1, 2])
def test_fwsc_equals_its_stages_bit_exact_at_k1_one_output_channel(ci, s):
    # a k=1 window reads its input unpadded, so the stage fold and the
    # standalone stages must not let that layout reach the mix
    x = Volume4.random((ci, 4, 6, 8), seed=ci, dtype=np.float64)
    bank = KernelBank.random("fwsc", 1, ci, 1, seed=s, bias=True, bn=True)
    mid = depthwise_cube(x, bank.arrays["depthwise"], s)
    staged = scale_shift(pointwise_mix(mid, bank.arrays["pointwise"]),
                         bias=bank.bias, scale=bank.bn_scale, shift=bank.bn_shift)
    assert np.array_equal(conv3d_fwsc(x, bank, s).array, staged.array)


# SHA-256 over conv3d_full and deconv3d_full outputs (k, stride, dtype and
# c_out swept), recorded before the stage fold went channels-last: the
# dense engine's operands did not change, so neither may its bytes.
_DENSE_SWEEP_SHA256 = "fafc86338e7422a18e50dcebb6317d58deebd53208c7d364b256cc9ff85d7308"


def test_dense_outputs_are_pinned():
    h = hashlib.sha256()
    for op in (conv3d_full, deconv3d_full):
        for k in (1, 3, 5):
            for s in (1, 2, 3):
                for dtype in (np.float32, np.float64):
                    for co in (1, 3):
                        bank = KernelBank.random("full", k, 2, co, seed=10 * k + s,
                                                 bias=True, bn=True)
                        x = Volume4.random((2, 3, 4, 5), seed=k + s, dtype=dtype)
                        y = op(x, bank, s).array
                        h.update(f"{op.__name__} k={k} s={s} {y.dtype} {y.shape}".encode())
                        h.update(y.tobytes())
    assert h.hexdigest() == _DENSE_SWEEP_SHA256


# ----------------------------------------------------------------------
# the dense engine's arithmetic and its column chunks
# ----------------------------------------------------------------------


def _chain(x, w, o, rules):
    """Output channel o at one site as a Python-float chain: acc = acc +
    x*w from 0.0, in (a, b, c, c_in) order.  x: (ci, D, H, W); w: (co, ci,
    ka, kb, kc); rules: per axis, the (tap, input index or None) pairs of
    this site in summation order, None reading the zero padding."""
    acc = 0.0
    for (ta, ia), (tb, ib), (tc, ic) in itertools.product(*rules):
        for i in range(x.shape[0]):
            v = 0.0 if None in (ia, ib, ic) else float(x[i, ia, ib, ic])
            acc = acc + v * float(w[o, i, ta, tb, tc])
    return acc


@pytest.mark.parametrize("co", [2, 3])
def test_dense_outputs_are_the_plain_multiply_add_chain(co):
    # The bit pins rest on this: every output of a dense window with c_out
    # >= 2 adds its products one at a time from 0.0 in (a, b, c, c_in)
    # order, with no fused multiply-add, at stride 2 and in a stride-2
    # transposed conv's phase r = 1 (reversed taps 0 and 2 per axis, which
    # read inputs q and q + 1).
    k, s, p = 3, 2, 1
    bank = KernelBank.random("full", k, 3, co, seed=co)
    w = bank.arrays["weights"]
    x = Volume4.random((3, 3, 4, 5), seed=co + 1, dtype=np.float64)
    a = x.array

    def at(i, n):
        return i if 0 <= i < n else None

    y = conv3d_full(x, bank, s).array
    for o, *site in itertools.product(range(co), *map(range, y.shape[1:])):
        rules = [[(t, at(s * q + t - p, n)) for t in range(k)] for q, n in zip(site, a.shape[1:])]
        assert y[(o, *site)] == _chain(a, w, o, rules)
    y = deconv3d_full(x, bank, s).array
    for o, *site in itertools.product(range(co), *map(range, a.shape[1:])):
        rules = [[(2, q), (0, at(q + 1, n))] for q, n in zip(site, a.shape[1:])]
        assert y[(o, *(s * q + 1 for q in site))] == _chain(a, w, o, rules)


# SHA-256 over conv3d_full, deconv3d_full and deconv3d_backward at the
# workload's channel counts, with the BLAS pool pinned to 1 thread as
# `bench` and perfbench pin it.  The weight gradient's tensordot gives
# other bits at 2 BLAS threads (a645bbf0... there, as recorded before the
# dense engine packed its taps into column chunks).  Every output plane
# spans at least two row chunks at stride 1 (and conv3d_full at stride
# 2), and every op at least two slabs.
_DENSE_CHUNK_SWEEP_SHA256 = "966baa276d32fa9bc3ae2b1f35c45526d4b521a99589bb1a9d99a5e80d304924"
_CHUNK_CHANNELS = ((32, 32), (32, 48), (48, 32), (80, 80), (2, 1))


def _dense_chunk_sweep_digest():
    h = hashlib.sha256()

    def put(tag, arrays):
        for a in arrays:
            h.update(f"{tag} {a.dtype} {a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())

    for (ci, co), s, dtype in itertools.product(_CHUNK_CHANNELS, (1, 2), (np.float32, np.float64)):
        tag = f"{ci}->{co} s={s} {np.dtype(dtype).name}"
        seed = ci + co + s
        bank = KernelBank.random("full", 3, ci, co, seed=seed, bias=True, bn=True)
        x = Volume4.random((ci, 9 * s, 14 * s, 12 * s), seed=seed, dtype=dtype)
        put(f"conv3d_full {tag}", [conv3d_full(x, bank, s).array])
        x = Volume4.random((ci, 9, 14, 12), seed=seed + 1, dtype=dtype)
        g = Volume4.random((co, 9 * s, 14 * s, 12 * s), seed=seed + 2, dtype=np.float64)
        put(f"deconv3d_full {tag}", [deconv3d_full(x, bank, s).array])
        put(f"deconv3d_backward {tag}", _flat(deconv3d_backward(x, bank, g, s)))
    return h.hexdigest()


def test_dense_column_chunks_are_pinned():
    # a fresh interpreter, since BLAS sizes its pool when numpy loads
    from sepconv3d import cli

    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, **dict.fromkeys(cli._THREAD_VARS, "1")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (f"import sys; sys.path.insert(0, {here!r}); import test_kernels; "
            "print(test_kernels._dense_chunk_sweep_digest())")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == _DENSE_CHUNK_SWEEP_SHA256


def test_dense_chunk_sweep_spans_row_chunks_and_slabs():
    # the sweep's output planes are 14 rows of 12 sites, 9 planes deep
    from sepconv3d import kernels

    assert 9 > kernels._SLAB
    for ci, co in _CHUNK_CHANNELS:
        if co > 1:
            assert kernels._COLS // (8 * 27 * ci * 12) < 14


# ----------------------------------------------------------------------
# booleans are not integers
# ----------------------------------------------------------------------


def test_bank_rejects_bools():
    with pytest.raises(KernelError, match="got True"):
        KernelBank.random("full", True, True, True)
    args = {"k": 3, "c_in": 2, "c_out": 2, "d_in": 4, "d_out": 4}
    for field in args:
        with pytest.raises(KernelError, match="got True"):
            KernelBank.random("dwsc", seed=0, **{**args, field: True})
    x = Volume4.random((2, 3, 4, 5), seed=0)
    with pytest.raises(KernelError, match="stride"):
        forward(x, KernelBank.random("full", 3, 2, 2, seed=0), True)


# ----------------------------------------------------------------------
# package surface
# ----------------------------------------------------------------------


def test_package_exports_are_in_their_modules_all():
    import importlib

    import sepconv3d

    for name, module in sepconv3d._EXPORTS.items():
        mod = importlib.import_module(f"sepconv3d.{module}")
        assert name in getattr(mod, "__all__", ()), f"{module}.__all__ lacks {name}"
        assert getattr(sepconv3d, name) is getattr(mod, name)


@pytest.mark.parametrize("in_dims", [(2, 2.5, 4, 5), (0, 3, 4, 5), (2, 3, 4), (2, 3, 4, 5, 6),
                                     (True, 3, 4, 5)])
def test_output_dims_rejects_malformed_in_dims(in_dims):
    with pytest.raises(KernelError, match="in_dims"):
        output_dims("full", in_dims, 3, 2, 2)
    assert output_dims("full", (2, np.int64(3), 4, 5), 3, 2, 2) == Shape4(2, 2, 2, 3)


@pytest.mark.parametrize("seed", [2.5, 1.0, True, "1", None])
def test_bank_random_rejects_non_integer_seeds(seed):
    with pytest.raises(KernelError, match="seed"):
        KernelBank.random("full", 3, 2, 2, seed=seed)


def test_bank_random_seeds_keep_their_meaning():
    # negative and zero seeds draw their usual streams; numpy integers are integers
    def weights(seed):
        return KernelBank.random("full", 1, 1, 2, seed=seed).arrays["weights"].ravel()

    assert np.array_equal(weights(-5), uniform_open(-40, 2))
    assert np.array_equal(weights(0), uniform_open(0, 2))
    assert np.array_equal(weights(np.int64(9)), weights(9))


# ----------------------------------------------------------------------
# layout changes at the layer boundary
# ----------------------------------------------------------------------


def _channels_last_mix_layer(x, bank, s, grad_out=None):
    """A conv3d layer as it ran with the mix channels-last: the stages on
    the channels-last view, the mix as sites @ pw.T, one transposing
    copy at exit; its backward read the upstream gradient through a
    channels-last copy.  Returns the forward output, or (input gradient,
    grads) when grad_out is given."""
    from sepconv3d.kernels import (
        _STAGE_BWD, _STAGE_FWD, _affine_bwd, _affine_core, _stage_order, _stages,
    )

    order = _stage_order(bank)
    stages = _stages(bank, s)
    h = np.asarray(x.array, dtype=np.float64).transpose(order)
    inputs = []
    for kind, _, w, strides in stages:
        inputs.append(h)
        if kind == "mix":
            sites = np.ascontiguousarray(h.reshape(-1, h.shape[-1]))
            h = (sites @ w.T).reshape(h.shape[:-1] + w.shape[:1])
        else:
            h = _STAGE_FWD[kind](h, w, strides)
    z = np.ascontiguousarray(h.transpose(np.argsort(order)))
    if grad_out is None:
        return _affine_core(z, bank.bias, bank.bn_scale, bank.bn_shift).astype(x.dtype)
    g, grads = _affine_bwd(z, bank, np.asarray(grad_out.array, dtype=np.float64))
    g = g.transpose(order)
    for kind, name, w, strides in reversed(stages):
        h = inputs.pop()
        if kind == "mix":
            grads[name] = np.tensordot(g, h, axes=([0, 1, 2], [0, 1, 2]))
            g = (np.ascontiguousarray(g.reshape(-1, g.shape[-1])) @ w).reshape(h.shape)
        else:
            g, grads[name] = _STAGE_BWD[kind](h, w, strides, g)
    return np.ascontiguousarray(g.transpose(np.argsort(order))), grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("variant", ["fwsc", "dwsc", "fdwsc"])
def test_channels_first_mix_equals_channels_last_mix_then_copy(variant, s, dtype):
    ci, co, dims = 6, 5, (7, 9, 11)
    extra = {"d_in": dims[0], "d_out": 4} if variant == "dwsc" else {}
    bank = KernelBank.random(variant, 3, ci, ci if variant == "dwsc" else co,
                             seed=s, bias=True, bn=True, **extra)
    x = Volume4.random((ci,) + dims, seed=3 + s, dtype=dtype)
    y = forward(x, bank, s)
    ref = _channels_last_mix_layer(x, bank, s)
    assert y.dtype == ref.dtype and np.array_equal(y.array, ref)

    g = Volume4.random(y.dims, seed=7 + s, dtype=np.float64)
    gx, grads = backward(x, bank, g, s)
    ref_gx, ref_grads = _channels_last_mix_layer(x, bank, s, g)
    assert np.array_equal(gx.array, ref_gx)
    assert sorted(grads) == sorted(ref_grads)
    for name, arr in grads.items():
        assert np.array_equal(arr, ref_grads[name].reshape(arr.shape)), name


@pytest.mark.parametrize("order", [(1, 2, 3, 0), (0, 2, 3, 1)])
@pytest.mark.parametrize("shape", [(4, 5, 6, 3), (1, 5, 6, 3), (4, 1, 1, 2)])
def test_blocked_channels_first_copy_equals_one_transposing_copy(order, shape):
    from sepconv3d.kernels import _channels_first

    h = np.random.default_rng(sum(shape)).uniform(-1.0, 1.0, (shape[0] + 1,) + shape[1:])
    for view in (h[: shape[0]], h[1:, :, ::-1]):  # contiguous, and a strided crop
        got = _channels_first(view, order)
        assert got.flags.c_contiguous
        assert np.array_equal(got, np.ascontiguousarray(view.transpose(np.argsort(order))))
    # memory already laid out channels-first is handed back, not copied
    cf = np.ascontiguousarray(h.transpose(np.argsort(order)))
    assert np.shares_memory(_channels_first(cf.transpose(order), order), cf)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("engine", ["dense", "slice"])
def test_padded_halo_is_zero_for_every_phase_pad(monkeypatch, k, s, engine):
    # np.empty is made to hand back NaNs, so a halo face left unzeroed shows
    from sepconv3d import kernels

    pads_seen = []

    def recording(window):
        def run(x, w, pads, strides, out=None):
            pads_seen.append(pads)
            return window(x, w, pads, strides, out=out)
        return run

    x = np.random.default_rng(k * s).uniform(-1.0, 1.0, (3, 4, 5, 2))
    if engine == "dense":
        w, window = np.ones((2, k, k, k, 2)), kernels._dense_window
    else:
        w, window = np.ones((2, k, k, k)), kernels._slice_window
    kernels._phase_scatter(x, w, (s, s, s), recording(window), 2)
    assert pads_seen
    monkeypatch.setattr(np, "empty", lambda shape, *a, **kw: np.full(shape, np.nan, *a, **kw))
    for pads in pads_seen + [[(0, 2), (1, 0), (2, 1)]]:
        got = kernels._padded(x, pads)
        assert np.array_equal(got, np.pad(x, list(pads) + [(0, 0)]))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("k", [1, 3])
def test_f64_forward_neither_aliases_nor_freezes_its_input(variant, k):
    extra = {"d_in": 3} if variant == "dwsc" else {}
    bank = KernelBank.random(variant, k, 2, 2, seed=k, **extra)
    base = np.random.default_rng(k).uniform(-1.0, 1.0, (2, 3, 4, 5))
    x = Volume4(base)
    before = x.array.copy()
    outs = [forward(x, bank).array, depthwise_cube(x, np.ones((2, k, k, k))).array,
            pointwise_mix(x, np.eye(2)).array, scale_shift(x).array]
    if variant == "full":
        outs.append(deconv3d_full(x, bank).array)
    for y in outs:
        assert y.dtype == np.float64
        assert not np.shares_memory(y, x.array)
        assert not np.shares_memory(y, base)
    assert all(a.flags.writeable for a in bank.arrays.values())
    assert np.array_equal(x.array, before)


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_stage_list_places_a_mix_only_last(variant):
    from sepconv3d.netcfg import layer_stages

    layer_kinds = ("conv3d", "deconv3d") if variant == "full" else ("conv3d",)
    for kind, k, s in itertools.product(layer_kinds, (1, 3, 5), (1, 2, 3)):
        kinds = [st[0] for st in layer_stages(kind, variant, k, 4, 4, 6, 5, s)]
        assert "mix" not in kinds[:-1]


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("s", [1, 2])
def test_scatter_weight_gradient_is_the_dense_walks_weight_half(k, s):
    from sepconv3d.kernels import _dense_bwd, _scatter_bwd

    rng = np.random.default_rng(k + s)
    x = rng.uniform(-1.0, 1.0, (3, 4, 5, 2))
    w = rng.uniform(-1.0, 1.0, (4, 2, k, k, k))
    gz = rng.uniform(-1.0, 1.0, (3 * s, 4 * s, 5 * s, 4))
    _, gw = _scatter_bwd(x, w, (s, s, s), gz)
    assert np.array_equal(gw, _dense_bwd(gz, w.swapaxes(0, 1), (s, s, s), x)[1].swapaxes(0, 1))


# ----------------------------------------------------------------------
# float32 inputs: the first stage's own copy is the cast
# ----------------------------------------------------------------------


def _f32_cases():
    """One case per public kernel op, over k in {1, 3}, stride in {1, 2}
    and 1 or 3 channels (at 1 the channels-last view of the input is
    already contiguous); each bank carries a bias and a batch-norm
    affine.  A case runs the op on an input volume and returns its output
    array, or the input gradient followed by the bank gradients."""
    for k, s, c in itertools.product((1, 3), (1, 2), (1, 3)):
        dims, tag = (c, 4, 5, 6), f"k{k}-s{s}-c{c}"
        for v in VARIANTS:
            bank = KernelBank.random(v, k, c, c if v == "dwsc" else 2, d_in=4 if v == "dwsc" else None,
                                     seed=k + s + c, bias=True, bn=True)
            g = Volume4.random(output_dims(v, dims, k, s, bank.c_out), seed=7, dtype=np.float64)
            yield pytest.param(dims, lambda x, b=bank, s=s: [forward(x, b, s).array],
                               id=f"forward-{v}-{tag}")
            yield pytest.param(dims, lambda x, b=bank, s=s, g=g: _flat(backward(x, b, g, s)),
                               id=f"backward-{v}-{tag}")
        bank = KernelBank.random("full", k, c, 2, seed=k * s, bias=True, bn=True)
        g = Volume4.random((2,) + tuple(n * s for n in dims[1:]), seed=8, dtype=np.float64)
        w = uniform_open(k + c, c * k**3).reshape(c, k, k, k)
        yield pytest.param(dims, lambda x, b=bank, s=s: [deconv3d_full(x, b, s).array],
                           id=f"deconv3d_full-{tag}")
        yield pytest.param(dims, lambda x, b=bank, s=s, g=g: _flat(deconv3d_backward(x, b, g, s)),
                           id=f"deconv3d_backward-{tag}")
        yield pytest.param(dims, lambda x, w=w, s=s: [depthwise_cube(x, w, s).array],
                           id=f"depthwise_cube-{tag}")
        if k == 1 and s == 1:
            pw = uniform_open(c, 2 * c).reshape(2, c)
            yield pytest.param(dims, lambda x, pw=pw: [pointwise_mix(x, pw).array],
                               id=f"pointwise_mix-c{c}")


def _flat(grads):
    gx, gw = grads
    return [gx.array] + [gw[name] for name in sorted(gw)]


@pytest.mark.parametrize("dims, run", _f32_cases())
def test_f32_input_equals_its_f64_image_bit_for_bit(dims, run):
    x32 = Volume4.random(dims, seed=sum(dims), dtype=np.float32)
    x64 = x32.astype(np.float64)
    before = [x32.array.tobytes(), x64.array.tobytes()]
    got, want = run(x32), run(x64)
    assert len(got) == len(want)
    if len(got) == 1:  # an output: cast back to the input's dtype
        assert got[0].dtype == np.float32
        assert np.array_equal(got[0], want[0].astype(np.float32))
    else:  # gradients: float64 whatever the input's dtype
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.float64
            assert np.array_equal(a, b)
    # neither input is ever written, though stages read both through views
    assert [x32.array.tobytes(), x64.array.tobytes()] == before


def test_f32_forward_peak_holds_no_f64_copy_of_the_input(monkeypatch):
    # A float32 fwsc layer's peak is one slab's padded float64 input and
    # the float64 window output it feeds, or later the float32 output; the
    # bound allows all three at once plus 64 KiB for weights and views.
    # A separate float64 copy of the input (what a cast before the first
    # stage makes, 589,824 B here) held through the window breaks it.
    import tracemalloc

    from sepconv3d import kernels

    c, d, h, w = 16, 12, 16, 24
    x = Volume4.random((c, d, h, w), seed=3, dtype=np.float32)
    bank = KernelBank.random("fwsc", 3, c, c, seed=4)
    sites = d * h * w * c
    slab = min(d, kernels._SLAB) + 2
    bound = 8 * c * slab * (h + 2) * (w + 2) + 8 * sites + 4 * sites + 64 * 1024

    def peak():
        tracemalloc.start()
        try:
            forward(x, bank)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() <= bound
    fold = kernels._fold
    monkeypatch.setattr(kernels, "_fold",
                        lambda x, *a, **kw: fold(np.asarray(x, dtype=np.float64), *a, **kw))
    assert peak() > bound


# ----------------------------------------------------------------------
# the per-slice engine's fused run and fdwsc's window handoff
# ----------------------------------------------------------------------


def _per_element_slice_window(x, w, pads, strides, out=None):
    """The per-slice engine as it ran before it read the output's w axis
    and the slice axis as one run, kept here as the reference: one
    einsum whose innermost loop is the n slices of one site."""
    from numpy.lib.stride_tricks import sliding_window_view

    xp = np.pad(np.asarray(x, dtype=np.float64), list(pads) + [(0, 0)])
    axes = tuple(ax for ax, k in enumerate(w.shape[1:]) if k > 1)
    if axes:
        xp = sliding_window_view(xp, tuple(w.shape[1 + ax] for ax in axes), axis=axes)
    win = xp[:: strides[0], :: strides[1], :: strides[2]]
    taps = "".join("abc"[ax] for ax in axes)
    wt = np.ascontiguousarray(np.moveaxis(w.reshape(w.shape[:1] + win.shape[4:]), 0, -1))
    return np.einsum(f"zyxn{taps},{taps}n->zyxn", win, wt, out=out, optimize=False)


def _out_case(layout, shape):
    """An `out` for a window result of `shape`: none, a fresh array, or a
    strided view whose (C', n) block is contiguous ("phase-a") or not
    ("phase-c"), as a scatter's output phases are."""
    if layout == "none":
        return None
    if layout == "fresh":
        return np.empty(shape)
    if layout == "phase-a":
        return np.empty((2 * shape[0],) + shape[1:])[1::2]
    return np.empty(shape[:2] + (2 * shape[2], shape[3]))[:, :, 1::2]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["none", "fresh", "phase-a", "phase-c"])
@pytest.mark.parametrize("shape", ["kkk", "1kk", "k11"])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_slice_window_is_bit_identical_to_the_per_element_einsum(s, k, shape, layout, dtype, n):
    from sepconv3d.kernels import _slice_window

    ks = tuple(k if c == "k" else 1 for c in shape)
    x = Volume4.random((n, 5, 6, 7), seed=k + s, dtype=dtype).array.transpose(1, 2, 3, 0)
    w = KernelBank.random("fwsc", 5, n, seed=s).arrays["depthwise"][:, : ks[0], : ks[1], : ks[2]]
    pads = [((m - 1) // 2, m // 2) for m in ks]
    strides = (1, s, s) if shape == "1kk" else (s, s, s)
    ref = _per_element_slice_window(x, w, pads, strides)
    out = _out_case(layout, ref.shape)
    got = _slice_window(x, w, pads, strides, out=out)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
    if out is not None:
        assert np.shares_memory(got, out)
        assert np.ascontiguousarray(out).tobytes() == ref.tobytes()


@pytest.mark.parametrize("s", [1, 2])
def test_fdwsc_pads_once_per_layer(monkeypatch, s):
    # The spatial window pads the layer input; the disparity window reads
    # the buffer the spatial one wrote into, so it pads nothing.  The
    # backward pads x again for the spatial weight gradient, and each
    # input gradient pads its upstream gradient once per scatter phase.
    from sepconv3d import kernels

    padded = kernels._padded
    calls = []

    def spy(x, pads):
        calls.append(x.shape)
        return padded(x, pads)

    monkeypatch.setattr(kernels, "_padded", spy)
    x = Volume4.random((3, 4, 6, 7), seed=s)
    bank = KernelBank.random("fdwsc", 3, 3, 2, seed=s)
    y = forward(x, bank, s)
    assert calls == [(4, 6, 7, 3)]
    calls.clear()
    backward(x, bank, Volume4.random(y.array.shape, seed=9), s)
    assert len(calls) == 1 + s + 1 + s * s


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_window_handoff_halo_is_zero(monkeypatch, k, s):
    # np.empty is made to hand back NaNs, so a halo face of the buffer the
    # spatial window writes into, left unzeroed, shows in every result
    x = Volume4.random((3, 5, 6, 7), seed=k * s)
    bank = KernelBank.random("fdwsc", k, 3, 2, seed=k + s, bias=True, bn=True)
    y = forward(x, bank, s)
    g = Volume4.random(y.array.shape, seed=k)
    gx, grads = backward(x, bank, g, s)
    monkeypatch.setattr(np, "empty", lambda shape, *a, **kw: np.full(shape, np.nan, *a, **kw))
    assert forward(x, bank, s).array.tobytes() == y.array.tobytes()
    gx2, grads2 = backward(x, bank, g, s)
    assert gx2.array.tobytes() == gx.array.tobytes()
    assert all(grads2[name].tobytes() == grads[name].tobytes() for name in grads)


def test_strided_scatter_phases_write_straight_into_their_output(monkeypatch):
    # At stride 2 each phase of a per-slice scatter (a window's input
    # gradient) is a strided view of the output.  The peak is the output
    # and one phase's padded input, plus 128 KiB for weights, views and
    # the einsum's own iteration state; a phase computed apart and then
    # copied in (196,608 B here) breaks it.
    import tracemalloc

    from sepconv3d import kernels

    a, b, c, n, k, s = 8, 12, 16, 16, 3, 2
    gz = np.random.default_rng(5).uniform(-1.0, 1.0, (a, b, c, n))
    w = np.random.default_rng(6).uniform(-1.0, 1.0, (n, k, k, k))
    bound = 8 * n * a * b * c * s**3 + 8 * n * (a + 1) * (b + 1) * (c + 1) + 128 * 1024

    def peak():
        tracemalloc.start()
        try:
            kernels._phase_scatter(gz, w, (s, s, s), kernels._slice_window, n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() <= bound
    window = kernels._slice_window

    def copied(x, w, pads, strides, out=None):
        out[...] = window(x, w, pads, strides)

    monkeypatch.setattr(kernels, "_slice_window", copied)
    assert peak() > bound


# ----------------------------------------------------------------------
# window stages run one slab of output planes at a time
# ----------------------------------------------------------------------


_CONV3D = {"full": conv3d_full, "fwsc": conv3d_fwsc, "dwsc": conv3d_dwsc, "fdwsc": conv3d_fdwsc}

# SHA-256 over every public window op on inputs whose leading stage axis
# (d, or c for dwsc) spans several slabs with a partial last one,
# recorded before the window engines ran one slab at a time: slabbing
# may not move a single bit.
_SLAB_SWEEP_SHA256 = "83b70c8ac9fdcd1274aa9f34cf2edac4c7abec797a0c969a959562103f1da374"


def test_slabbed_outputs_and_gradients_are_pinned():
    h = hashlib.sha256()

    def put(tag, arrays):
        for a in arrays:
            h.update(f"{tag} {a.dtype} {a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())

    for m, k, s, dtype in itertools.product((17, 20, 50), (1, 3, 5), (1, 2, 3), (np.float32, np.float64)):
        tag = f"m={m} k={k} s={s} {np.dtype(dtype).name}"
        seed = m + 10 * k + s
        for v in VARIANTS:
            dims = (m, 3, 2, 3) if v == "dwsc" else (2, m, 2, 3)
            extra = {"d_in": 3} if v == "dwsc" else {}
            bank = KernelBank.random(v, k, dims[0], dims[0] if v == "dwsc" else 3, seed=seed,
                                     bias=True, bn=True, **extra)
            x = Volume4.random(dims, seed=seed, dtype=dtype)
            g = Volume4.random(output_dims(v, dims, k, s, bank.c_out), seed=seed + 1, dtype=np.float64)
            put(f"{v} {tag}", [_CONV3D[v](x, bank, s).array])
            put(f"backward {v} {tag}", _flat(backward(x, bank, g, s)))
        dims = (2, m, 2, 3)
        x = Volume4.random(dims, seed=seed, dtype=dtype)
        bank = KernelBank.random("full", k, 2, 3, seed=seed, bias=True, bn=True)
        g = Volume4.random((3, m * s, 2 * s, 3 * s), seed=seed + 2, dtype=np.float64)
        put(f"deconv {tag}", [deconv3d_full(x, bank, s).array])
        put(f"deconv backward {tag}", _flat(deconv3d_backward(x, bank, g, s)))
        w = uniform_open(seed, 2 * k**3).reshape(2, k, k, k)
        put(f"depthwise_cube {tag}", [depthwise_cube(x, w, s).array])
    assert h.hexdigest() == _SLAB_SWEEP_SHA256


@pytest.mark.parametrize("height", [1, 2, 3])
@pytest.mark.parametrize("dims, run", _f32_cases())
def test_every_slab_height_is_bit_identical_to_one_slab(monkeypatch, dims, run, height):
    from sepconv3d import kernels

    xs = [Volume4.random(dims, seed=sum(dims), dtype=dtype) for dtype in (np.float32, np.float64)]
    monkeypatch.setattr(kernels, "_SLAB", 10**6)
    want = [run(x) for x in xs]
    monkeypatch.setattr(kernels, "_SLAB", height)
    got = [run(x) for x in xs]
    assert [[a.tobytes() for a in arrs] for arrs in got] == [[a.tobytes() for a in arrs] for arrs in want]


@pytest.mark.parametrize("height", [1, 2, 3])
@pytest.mark.parametrize("layout", ["none", "phase-a", "phase-c"])
@pytest.mark.parametrize("shape", ["kkk", "1kk", "k11"])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_every_slab_height_keeps_both_engines_bit_identical(monkeypatch, s, k, shape, layout, height):
    # the engines straight, with out written through strided phase views
    from sepconv3d import kernels

    ks = tuple(k if c == "k" else 1 for c in shape)
    x = Volume4.random((3, 7, 6, 5), seed=k + s, dtype=np.float32).array.transpose(1, 2, 3, 0)
    pads = [((m - 1) // 2, m // 2) for m in ks]
    strides = (1, s, s) if shape == "1kk" else (s, s, s)
    w = KernelBank.random("fwsc", 5, 3, seed=s).arrays["depthwise"][:, : ks[0], : ks[1], : ks[2]]
    wd = KernelBank.random("full", 5, 3, 2, seed=s).arrays["weights"][..., : ks[0], : ks[1], : ks[2]]
    for window, wt in ((kernels._slice_window, w), (kernels._dense_window, np.moveaxis(wd, 0, -1))):
        monkeypatch.setattr(kernels, "_SLAB", 10**6)
        want = window(x, wt, pads, strides)
        monkeypatch.setattr(kernels, "_SLAB", height)
        out = _out_case(layout, want.shape)
        got = window(x, wt, pads, strides, out=out)
        assert got.tobytes() == want.tobytes()
        if out is not None:
            assert np.ascontiguousarray(out).tobytes() == want.tobytes()


def test_a_window_pads_once_per_slab_and_only_at_the_volume_edge(monkeypatch):
    # d = 20 is three slabs of 8, 8 and 4 output planes.  fdwsc's k*k
    # window reads exactly its slab's planes and pads h and w only; its
    # length-k window reads the buffer the k*k window wrote into and
    # pads nothing.  fwsc's k*k*k window reads one plane past each slab
    # end, padded with zeros where the slab meets the volume's edge.
    from sepconv3d import kernels

    padded = kernels._padded
    calls = []

    def spy(x, pads):
        calls.append((x.shape[0], pads[0]))
        return padded(x, pads)

    monkeypatch.setattr(kernels, "_padded", spy)
    assert kernels._SLAB == 8
    x = Volume4.random((3, 20, 6, 7), seed=1)
    forward(x, KernelBank.random("fdwsc", 3, 3, 2, seed=1))
    assert calls == [(8, (0, 0)), (8, (0, 0)), (4, (0, 0))]
    calls.clear()
    forward(x, KernelBank.random("fwsc", 3, 3, 2, seed=1))
    assert calls == [(9, (1, 0)), (10, (0, 0)), (5, (0, 1))]


@pytest.mark.parametrize("fuse", [False, True])
def test_window_view_is_a_read_only_view_of_the_buffer(fuse):
    from sepconv3d import kernels

    xp = np.zeros((5, 6, 7, 2))
    win, taps = kernels._window_view(xp, (3, 1, 3), (1, 2, 1), fuse)
    assert taps == "ac" and win.shape == ((3, 3, 1, 10, 3, 3) if fuse else (3, 3, 5, 2, 3, 3))
    assert np.shares_memory(win, xp)
    with pytest.raises(ValueError, match="read-only"):
        win[(0,) * win.ndim] = 1.0


def test_single_output_dense_window_reads_each_slab_buffer_in_place(monkeypatch):
    # with c_out = 1 the einsum's window operand is a read-only view of
    # the slab's padded buffer, also for a scatter phase's sub-kernel,
    # whose unit tap axes the window view drops; a reshape that copied
    # would share no memory with it
    from sepconv3d import kernels

    padded, einsum = kernels._padded, np.einsum
    bufs, wins = [], []

    def pad_spy(x, pads):
        bufs.append(padded(x, pads))
        return bufs[-1]

    def einsum_spy(spec, a, *args, **kwargs):
        wins.append(a)
        return einsum(spec, a, *args, **kwargs)

    monkeypatch.setattr(kernels, "_padded", pad_spy)
    monkeypatch.setattr(np, "einsum", einsum_spy)
    bank = KernelBank.random("full", 3, 3, 1, seed=2)
    x = Volume4.random((3, 20, 6, 7), seed=2)
    for s in (1, 2):
        conv3d_full(x, bank, s)
    deconv3d_full(Volume4.random((3, 10, 2, 3), seed=3), bank, 2)
    # 3 slabs at stride 1, 2 at stride 2, then 2 per phase of 8 phases
    assert len(wins) == len(bufs) == 3 + 2 + 16
    for buf, win in zip(bufs, wins):
        assert not win.flags.writeable and np.shares_memory(win, buf)


def test_f64_fwsc_forward_peak_holds_one_slab_of_padded_input(monkeypatch):
    # 40 planes are 5 slabs.  The peak is the window output with one
    # slab's padded buffer, or later the window output with the layer
    # output; the bound allows all three at once plus 64 KiB for weights,
    # views and einsum's iteration state.  One call over a padded copy of
    # the whole input (268,800 B here) breaks it.
    import tracemalloc

    from sepconv3d import kernels

    c, co, d, h, w = 8, 2, 40, 8, 8
    x = Volume4.random((c, d, h, w), seed=5)
    bank = KernelBank.random("fwsc", 3, c, co, seed=6)
    slab = 8 * c * (kernels._SLAB + 2) * (h + 2) * (w + 2)
    bound = 8 * co * d * h * w + 8 * c * d * h * w + slab + 64 * 1024

    def peak():
        tracemalloc.start()
        try:
            forward(x, bank)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() < bound
    monkeypatch.setattr(kernels, "_SLAB", 10**6)
    assert peak() > bound


def test_bank_rejects_non_finite_bias():
    w = {"weights": np.ones((1, 1, 1, 1, 1))}
    with pytest.raises(KernelError, match="bias contains non-finite values"):
        KernelBank("full", 1, 1, 1, w, bias=[np.nan])


def test_bank_repr():
    assert repr(KernelBank.random("dwsc", 3, 2, 2, d_in=4)) == (
        "KernelBank('dwsc', k=3, c_in=2, c_out=2, d_in=4, d_out=4)")
    assert repr(KernelBank.random("fwsc", 3, 2, 3)) == "KernelBank('fwsc', k=3, c_in=2, c_out=3)"
