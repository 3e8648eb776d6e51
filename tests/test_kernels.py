"""Convolution operators: golden values, algebraic properties, gradients,
bank validation and serialization."""

import hashlib

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
from sepconv3d.volume import Shape4, Volume4, save_volume


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


def test_f64_accumulation_for_f32_volumes():
    # an f32 input takes the same arithmetic path as its exact f64 image
    x32 = Volume4.random((2, 4, 5, 6), seed=15)
    bank = KernelBank.random("full", 3, 2, 3, seed=16, bias=True)
    y32 = conv3d_full(x32, bank)
    y64 = conv3d_full(x32.astype(np.float64), bank)
    assert y32.dtype == np.float32
    assert np.array_equal(y32.array, y64.array.astype(np.float32))


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


def _worst_directional_error(bwd, variant, stride, seed=40):
    """Worst relative gap between `bwd`'s directional derivatives of
    loss = vdot(g, forward(x)), for a seeded random g, and their central
    differences.  One random direction for the input and one for each
    bank array and affine vector."""
    rng = np.random.default_rng(seed)
    ci = 2
    bank = KernelBank.random(
        variant, 3, ci, ci if variant == "dwsc" else 3,
        d_in=(4 if variant == "dwsc" else None), seed=seed, bias=True, bn=True,
    )
    x = rng.uniform(-1.0, 1.0, (ci, 4, 5, 6))
    g = rng.uniform(-1.0, 1.0, tuple(forward(Volume4(x), bank, stride).dims))
    gx, grads = bwd(Volume4(x), bank, Volume4(g), stride)

    def loss(xa, b):
        return float(np.vdot(g, forward(Volume4(xa), b, stride).array))

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
