"""Convolution operators over 4D cost volumes.

Four multiply-accumulate layouts share one calling convention
(``op(x, bank, stride)``), differing in how the 3D window and the
channel mix are factored:

* ``full``   - dense k*k*k window over (d, h, w), every input channel
               feeding every output channel.
* ``fwsc``   - per-channel k*k*k window over (d, h, w), then a 1x1x1
               channel mix.
* ``dwsc``   - per-disparity k*k*k window over the (c, h, w) cube, then
               a 1x1x1 mix across disparities; the channel count is
               preserved, and stride touches h and w only.
* ``fdwsc``  - per-channel k*k window over (h, w), per-channel length-k
               window over d, then a 1x1x1 channel mix.

Each variant is written once, in the numpy-free ``netcfg.stage_layout``,
as an ordered list of stages: a "dense" window with its channel mix, a
per-slice "window", or a 1x1x1 "mix", each naming the bank array it
reads, that array's stored shape, the weight view the stage runs on,
and the stage's strides.  The forward, the backward, the bank's array
shapes and the SV3D bank files here all fold over that list, and
``costs`` bills it; the backward runs the stages keeping each stage's
input, then walks them in reverse.

The transposed conv (``deconv3d_full``) upsamples by the stride.  Its
stage list (``netcfg.layer_stages``) is the transpose of the "full"
bank's single dense stage: one "scatter" stage, which ``deconv3d_full``
runs through the same fold as ``forward``.  At stride s > 1 the scatter
stage runs as s**3 phase convolutions (the sub-pixel view of a strided
transposed conv), so the upsampling zeros are never multiplied: per
axis it executes k*n taps, which is the billed ``costs.scatter_taps``
plus the upper-edge taps that read zero padding (3n against 3n - 1 at
k=3, s=2).  The backward has no scatter entry, so a deconv layer has
no backward.

All windows use zero "same" padding (``netcfg.same_pad``), so output
extents are ceil(n / stride) along strided axes, and n * stride after a
scatter stage.  Kernel extents must be odd.
Partial sums always accumulate in float64; outputs are cast back to the
input's storage dtype at the end.

Engine rule: every window stage -- dense or per-slice -- runs as one
einsum over a strided window view (a scatter stage: one per output
phase).  Taps are gathered in place, never packed into im2col-style
buffers, so wall-time tracks the stage's multiply count and the
benchmark compares layouts rather than copy machinery.  Dense and
scatter stages share one channels-last dense-window engine, so the
contraction streams the output-channel axis contiguously; per-slice
stages window only their non-unit kernel axes.  1x1x1 mixes are plain
matrix products.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from functools import partial
from numbers import Integral
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .netcfg import (
    VARIANTS,
    LayerSpec,
    layer_output_shape,
    layer_stages,
    out_extent,
    same_pad,
    stage_layout,
)
from .volume import Shape4, Volume4, load_volume, save_volume, uniform_open

__all__ = [
    "VARIANTS",
    "KernelBank",
    "KernelError",
    "backward",
    "conv3d_full",
    "conv3d_fwsc",
    "conv3d_dwsc",
    "conv3d_fdwsc",
    "deconv3d_full",
    "depthwise_cube",
    "forward",
    "load_bank",
    "out_extent",
    "pointwise_mix",
    "save_bank",
    "scale_shift",
]


class KernelError(ValueError):
    """Raised on malformed banks or operator arguments."""


def _check_int(name: str, v) -> int:
    """`v` as an int >= 1; a non-integral value is rejected, never truncated."""
    if not isinstance(v, Integral) or v < 1:
        raise KernelError(f"{name} must be an integer >= 1, got {v!r}")
    return int(v)


def _check_vec(name: str, v, length: int) -> Optional[np.ndarray]:
    if v is None:
        return None
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape != (length,):
        raise KernelError(f"{name} must have shape ({length},), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise KernelError(f"{name} contains non-finite values")
    return arr


def _array_shapes(variant, k, c_in, c_out, d_in, d_out) -> dict:
    """Stored shape of each bank array, in stage order."""
    return {
        name: shape for _, name, shape, _, _ in stage_layout(variant, k, c_in, c_out, d_in, d_out)
    }


# ----------------------------------------------------------------------
# kernel banks
# ----------------------------------------------------------------------


def _check_scalars(variant, k, c_in, c_out, d_in, d_out):
    """Validate and normalize the scalar fields shared by every bank."""
    if variant not in VARIANTS:
        raise KernelError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if not isinstance(k, Integral) or k < 1 or k % 2 == 0:
        raise KernelError(f"kernel extent must be an odd integer >= 1, got {k!r}")
    c_in, c_out = _check_int("c_in", c_in), _check_int("c_out", c_out)
    if variant == "dwsc":
        if c_out != c_in:
            raise KernelError(
                "dwsc preserves the channel count: "
                f"c_out must equal c_in ({c_in}), got {c_out}"
            )
        d_in = _check_int("d_in", d_in)
        d_out = d_in if d_out is None else _check_int("d_out", d_out)
    else:
        d_in = d_out = None
    return int(k), c_in, c_out, d_in, d_out


# seed offsets so every array draws from its own deterministic stream
_ROLE = {
    "weights": 0,
    "depthwise": 0,
    "pointwise": 1,
    "spatial": 2,
    "disparity": 3,
    "bias": 4,
    "bn_scale": 5,
    "bn_shift": 6,
}


class KernelBank:
    """Weights for one layer: named float64 arrays plus optional per-channel
    bias and batch-norm affine (scale, shift) applied after the mix."""

    __slots__ = (
        "variant",
        "k",
        "c_in",
        "c_out",
        "d_in",
        "d_out",
        "arrays",
        "bias",
        "bn_scale",
        "bn_shift",
    )

    def __init__(
        self,
        variant: str,
        k: int,
        c_in: int,
        c_out: int,
        arrays: dict,
        *,
        d_in: Optional[int] = None,
        d_out: Optional[int] = None,
        bias=None,
        bn_scale=None,
        bn_shift=None,
    ):
        k, c_in, c_out, d_in, d_out = _check_scalars(variant, k, c_in, c_out, d_in, d_out)

        self.variant = variant
        self.k = k
        self.c_in = c_in
        self.c_out = c_out
        self.d_in = d_in
        self.d_out = d_out

        want = _array_shapes(variant, k, c_in, c_out, d_in, d_out)
        if set(arrays) != set(want):
            raise KernelError(
                f"{variant} bank needs arrays {sorted(want)}, got {sorted(arrays)}"
            )
        store = {}
        for name, shape in want.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != shape:
                raise KernelError(f"array {name!r} must have shape {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise KernelError(f"array {name!r} contains non-finite values")
            store[name] = arr
        self.arrays = store

        self.bias = _check_vec("bias", bias, self.c_out)
        scale = _check_vec("bn_scale", bn_scale, self.c_out)
        shift = _check_vec("bn_shift", bn_shift, self.c_out)
        if (scale is None) != (shift is None):
            raise KernelError("bn_scale and bn_shift must be given together")
        self.bn_scale = scale
        self.bn_shift = shift

    # -- construction ---------------------------------------------------

    @classmethod
    def random(
        cls,
        variant: str,
        k: int,
        c_in: int,
        c_out: Optional[int] = None,
        *,
        d_in: Optional[int] = None,
        d_out: Optional[int] = None,
        seed: int = 0,
        bias: bool = False,
        bn: bool = False,
    ) -> "KernelBank":
        """Seeded bank; each array is uniform in +-1/sqrt(fan_in), where
        fan_in is the product of its extents after the first."""
        if c_out is None:
            c_out = c_in
        k, c_in, c_out, d_in, d_out = _check_scalars(variant, k, c_in, c_out, d_in, d_out)
        arrays = {}
        for name, shape in _array_shapes(variant, k, c_in, c_out, d_in, d_out).items():
            size = math.prod(shape)
            scale = 1.0 / float(np.sqrt(math.prod(shape[1:])))
            arrays[name] = uniform_open(seed * 8 + _ROLE[name], size).reshape(shape) * scale
        b = 0.1 * uniform_open(seed * 8 + _ROLE["bias"], c_out) if bias else None
        s = 1.0 + 0.25 * uniform_open(seed * 8 + _ROLE["bn_scale"], c_out) if bn else None
        t = 0.1 * uniform_open(seed * 8 + _ROLE["bn_shift"], c_out) if bn else None
        return cls(
            variant,
            k,
            c_in,
            c_out,
            arrays,
            d_in=d_in,
            d_out=d_out,
            bias=b,
            bn_scale=s,
            bn_shift=t,
        )

    # -- properties -------------------------------------------------------

    def param_count(self) -> int:
        n = sum(a.size for a in self.arrays.values())
        if self.bias is not None:
            n += self.bias.size
        if self.bn_scale is not None:
            n += self.bn_scale.size + self.bn_shift.size
        return n

    def __repr__(self) -> str:
        extra = ""
        if self.variant == "dwsc":
            extra = f", d_in={self.d_in}, d_out={self.d_out}"
        return (
            f"KernelBank({self.variant!r}, k={self.k}, "
            f"c_in={self.c_in}, c_out={self.c_out}{extra})"
        )


def _bank_layout(bank: KernelBank, s: int = 1, kind: str = "conv3d"):
    return layer_stages(
        kind, bank.variant, bank.k, bank.c_in, bank.c_out, bank.d_in, bank.d_out, s
    )


def _stages(bank: KernelBank, s: int, kind: str = "conv3d"):
    """The bank's stages at stride s in a `kind` layer: (stage kind,
    array name, weight view, strides)."""
    return [
        (stage, name, bank.arrays[name].reshape(view), strides)
        for stage, name, _, view, strides in _bank_layout(bank, s, kind)
    ]


# ----------------------------------------------------------------------
# cores (float64 in, float64 out)
# ----------------------------------------------------------------------


def _pad_same(arr: np.ndarray, ks) -> np.ndarray:
    """Zero-pad the last three axes for windows of extent ks = (ka, kb, kc)."""
    if max(ks) > 1:
        arr = np.pad(arr, [(0, 0)] + [same_pad(k) for k in ks], mode="constant")
    return arr


def _depthwise_core(x: np.ndarray, w: np.ndarray, strides) -> np.ndarray:
    """Per-slice windowed MAC.

    x: (n, A, B, C) float64, unpadded; w: (n, ka, kb, kc); strides
    (sa, sb, sc).  Slice i of the output only ever reads slice i of the
    input.  One einsum over a strided window view; axes whose kernel
    extent is 1 are left out of the window so the split-stage layouts
    (k*k over h,w; k over d) gather exactly their own taps.
    """
    n = w.shape[0]
    ks = w.shape[1:]
    xp = _pad_same(x, ks)
    axes = tuple(ax for ax, k in zip((1, 2, 3), ks) if k > 1)
    wins = tuple(k for k in ks if k > 1)
    labels = "".join(l for l, k in zip("abc", ks) if k > 1)
    win = sliding_window_view(xp, wins, axis=axes) if axes else xp
    win = win[:, :: strides[0], :: strides[1], :: strides[2]]
    return np.einsum(
        f"nzyx{labels},n{labels}->nzyx",
        win,
        w.reshape((n,) + wins),
        optimize=False,
    )


def _dense_window(x: np.ndarray, wt: np.ndarray, pads, strides, out=None) -> np.ndarray:
    """Dense window + channel mix, the one dense engine.

    x: (ci, A, B, C) float64; wt: (ci, ka, kb, kc, co); pads: a (low,
    high) zero pad per window axis.  Pads x into one channels-last copy,
    then runs one einsum over a strided window view of it, so the
    contraction's innermost axis (output channel) is contiguous in both
    operands.  Returns the (A', B', C', co) result, written into `out`
    when given.
    """
    xt = np.pad(np.moveaxis(x, 0, -1), list(pads) + [(0, 0)], mode="constant")
    win = sliding_window_view(xt, wt.shape[1:4], axis=(0, 1, 2))
    win = win[:: strides[0], :: strides[1], :: strides[2]]
    return np.einsum("zyxiabc,iabco->zyxo", win, wt, out=out, optimize=False)


def _conv_full_core(x: np.ndarray, w: np.ndarray, strides) -> np.ndarray:
    """Dense window + channel mix.

    x: (ci, A, B, C) float64, unpadded; w: (co, ci, ka, kb, kc).
    """
    wt = np.ascontiguousarray(w.transpose(1, 2, 3, 4, 0))
    out = _dense_window(x, wt, [same_pad(k) for k in w.shape[2:]], strides)
    return np.ascontiguousarray(np.moveaxis(out, -1, 0))


def _deconv_phase_core(x: np.ndarray, w: np.ndarray, strides) -> np.ndarray:
    """Transposed dense conv (a scatter stage), one dense window per
    output phase.

    x: (ci, A, B, C) float64, unpadded; w: (co, ci, k, k, k); strides
    (s, s, s), the upsampling factor of every axis.  With the taps
    reversed, output s*q + r along an axis receives the taps f, f+s,
    f+2s, ... with f = (p - r) mod s and p the low same-pad; they read
    the consecutive inputs q + o, q + o + 1, ... with o = (r + f - p) / s.
    Each phase is therefore a dense window over the input, padded for
    that phase, with a strided sub-kernel, written in place into a
    strided view of one channels-last output.  Phases that no tap
    reaches (k < s) are zero.  Per axis this executes k*n taps, against
    s*n*k for a dense window over the zero-inserted grid.
    """
    co, k, s = w.shape[0], w.shape[2], strides[0]
    p = same_pad(k)[0]
    first = [(p - r) % s for r in range(s)]
    offset = [(r + f - p) // s for r, f in enumerate(first)]
    wt = w[:, :, ::-1, ::-1, ::-1].transpose(1, 2, 3, 4, 0)
    out = np.empty(tuple(n * s for n in x.shape[1:]) + (co,))
    for r in itertools.product(range(s), repeat=3):
        dst = out[r[0]::s, r[1]::s, r[2]::s]
        if any(first[ra] >= k for ra in r):
            dst.fill(0.0)
            continue
        sub = np.ascontiguousarray(wt[:, first[r[0]]::s, first[r[1]]::s, first[r[2]]::s])
        # output q reads inputs q + o .. q + o + m - 1; o + m - 1 >= 0 for
        # every live phase, so the high pad is never negative
        o = [offset[ra] for ra in r]
        pads = [(max(0, -oa), oa + m - 1) for oa, m in zip(o, sub.shape[1:4])]
        src = (slice(None),) + tuple(slice(max(0, oa), None) for oa in o)
        _dense_window(x[src], sub, pads, (1, 1, 1), out=dst)
    return np.ascontiguousarray(np.moveaxis(out, -1, 0))


def _pointwise_core(x: np.ndarray, pw: np.ndarray) -> np.ndarray:
    """1x1x1 mix along axis 0: x (n_in, ...) -> (n_out, ...)."""
    return np.tensordot(pw, x, axes=([1], [0]))


_STAGE_FWD = {
    "dense": _conv_full_core,
    "window": _depthwise_core,
    "mix": lambda h, w, strides: _pointwise_core(h, w),
    "scatter": _deconv_phase_core,
}


def _fold(h: np.ndarray, stages, inputs: Optional[list] = None) -> np.ndarray:
    """Run `stages` over h; appends each stage's input to `inputs` if given."""
    for kind, _, w, strides in stages:
        if inputs is not None:
            inputs.append(h)
        h = _STAGE_FWD[kind](h, w, strides)
    return h


def _stage_view(arr: np.ndarray, bank: KernelBank) -> np.ndarray:
    """dwsc's stages run on the (d, c, h, w) view; the swap is its own inverse."""
    if bank.variant == "dwsc":
        return np.ascontiguousarray(arr.transpose(1, 0, 2, 3))
    return arr


def _affine_core(z: np.ndarray, bias, scale, shift) -> np.ndarray:
    """Per-channel affine: scale * (z + bias) + shift; absent vectors are
    the identity.

    Works in place: `z` must be a fresh array that the caller owns.
    """
    if bias is not None:
        z += bias[:, None, None, None]
    if scale is not None:
        z *= scale[:, None, None, None]
        z += shift[:, None, None, None]
    return z


def _as_f64(x: Volume4) -> np.ndarray:
    return np.asarray(x.array, dtype=np.float64)


def _finish(arr: np.ndarray, like: Volume4) -> Volume4:
    return Volume4(arr.astype(like.dtype), copy=False)


def _want(bank: KernelBank, variant: str) -> None:
    if bank.variant != variant:
        raise KernelError(f"expected a {variant!r} bank, got {bank.variant!r}")


def _want_input(x: Volume4, bank: KernelBank) -> None:
    if x.c != bank.c_in:
        raise KernelError(f"input has {x.c} channels, bank expects {bank.c_in}")
    if bank.variant == "dwsc" and x.d != bank.d_in:
        raise KernelError(f"input has {x.d} disparities, bank expects {bank.d_in}")


# ----------------------------------------------------------------------
# public operators
# ----------------------------------------------------------------------


def _run(x: Volume4, bank: KernelBank, stages) -> Volume4:
    """Fold x through `stages` on the bank's stage view, then apply the
    per-channel affine."""
    _want_input(x, bank)
    z = _stage_view(_fold(_stage_view(_as_f64(x), bank), stages), bank)
    return _finish(_affine_core(z, bank.bias, bank.bn_scale, bank.bn_shift), x)


def forward(x: Volume4, bank: KernelBank, stride: int = 1) -> Volume4:
    """Run the bank's variant: its stages, then the per-channel affine."""
    return _run(x, bank, _stages(bank, _check_int("stride", stride)))


def conv3d_full(x: Volume4, bank: KernelBank, stride: int = 1) -> Volume4:
    """Dense 3D convolution over (d, h, w) with full channel mixing."""
    _want(bank, "full")
    return forward(x, bank, stride)


def conv3d_fwsc(x: Volume4, bank: KernelBank, stride: int = 1) -> Volume4:
    """Per-channel cube window over (d, h, w), then a 1x1x1 channel mix."""
    _want(bank, "fwsc")
    return forward(x, bank, stride)


def conv3d_dwsc(x: Volume4, bank: KernelBank, stride: int = 1) -> Volume4:
    """Per-disparity cube window over (c, h, w), then a 1x1x1 disparity mix.

    The channel count is preserved; stride applies to h and w only, so
    the output is (c, d_out, ceil(h/s), ceil(w/s)).
    """
    _want(bank, "dwsc")
    return forward(x, bank, stride)


def conv3d_fdwsc(x: Volume4, bank: KernelBank, stride: int = 1) -> Volume4:
    """Per-channel k*k over (h, w), per-channel k over d, then a 1x1x1 mix.

    Stride applies to h and w in the first stage and to d in the second.
    """
    _want(bank, "fdwsc")
    return forward(x, bank, stride)


def deconv3d_full(x: Volume4, bank: KernelBank, stride: int = 1) -> Volume4:
    """Transposed dense 3D convolution; upsamples every (d, h, w) axis by
    the stride.  Output extents are (d*s, h*s, w*s).

    Runs the bank's stage list as a deconv3d layer: one "scatter" stage,
    a dense window with the tap-reversed kernel per output phase (see
    _deconv_phase_core), so the inserted upsampling zeros are never
    multiplied.  Stride 1 has a single phase: the dense window itself.
    `backward` does not differentiate it."""
    s = _check_int("stride", stride)
    _want(bank, "full")
    return _run(x, bank, _stages(bank, s, "deconv3d"))


def scale_shift(x: Volume4, bias=None, scale=None, shift=None) -> Volume4:
    """Per-channel affine: out = scale * (x + bias) + shift.

    Absent vectors default to the identity (bias 0, scale 1, shift 0).
    """
    b = _check_vec("bias", bias, x.c)
    sc = _check_vec("scale", scale, x.c)
    sh = _check_vec("shift", shift, x.c)
    if (sc is None) != (sh is None):
        raise KernelError("scale and shift must be given together")
    return _finish(_affine_core(np.array(x.array, dtype=np.float64), b, sc, sh), x)


def depthwise_cube(x: Volume4, weights, stride: int = 1) -> Volume4:
    """Standalone per-channel k*k*k window over (d, h, w); no channel mix.

    `weights` has shape (c, k, k, k) with odd k.  Useful for composing
    the separable variants out of their stages.
    """
    s = _check_int("stride", stride)
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 4 or w.shape[0] != x.c:
        raise KernelError(f"weights must be (c={x.c}, k, k, k), got {w.shape}")
    if len({w.shape[1], w.shape[2], w.shape[3]}) != 1 or w.shape[1] % 2 == 0:
        raise KernelError(f"window must be cubic with odd extent, got {w.shape[1:]}")
    return _finish(_depthwise_core(_as_f64(x), w, (s, s, s)), x)


def pointwise_mix(x: Volume4, weights) -> Volume4:
    """Standalone 1x1x1 channel mix: (c_in, d, h, w) -> (c_out, d, h, w)."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] != x.c:
        raise KernelError(f"weights must be (c_out, c_in={x.c}), got {w.shape}")
    return _finish(_pointwise_core(_as_f64(x), w), x)


def output_dims(variant: str, in_dims: Shape4, k: int, stride: int, c_out: int) -> Shape4:
    """Output extents of a conv op, without running it."""
    layer = LayerSpec(id="output_dims", kind="conv3d", variant=variant, k=k,
                      stride=_check_int("stride", stride), out_channels=c_out, bias=False, bn=False)
    return layer_output_shape(layer, in_dims)


# ----------------------------------------------------------------------
# backward (analytic gradients)
# ----------------------------------------------------------------------


def _window_bwd(x: np.ndarray, w: np.ndarray, strides, gz: np.ndarray, tap):
    """Gradients of a window stage w.r.t. its input and weights.

    Walks the kernel taps; `tap(x_slice, w_tap, gz)` returns one tap's
    (weight gradient, input gradient), where x_slice is what the tap
    reads of the padded input at every strided output site.
    """
    ks = w.shape[-3:]
    xp = _pad_same(x, ks)
    n = [m - k + 1 for m, k in zip(xp.shape[1:], ks)]
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for t in itertools.product(*map(range, ks)):
        sl = (slice(None),) + tuple(slice(a, a + m, s) for a, m, s in zip(t, n, strides))
        wt = (Ellipsis,) + t
        gw[wt], gx = tap(xp[sl], w[wt], gz)
        gxp[sl] += gx
    return _unpad(gxp, x.shape, ks), gw


def _dense_tap(xs: np.ndarray, wt: np.ndarray, gz: np.ndarray):
    return (
        np.tensordot(gz, xs, axes=([1, 2, 3], [1, 2, 3])),
        np.tensordot(wt, gz, axes=([0], [0])),
    )


def _slice_tap(xs: np.ndarray, wt: np.ndarray, gz: np.ndarray):
    return np.einsum("nzyx,nzyx->n", gz, xs), wt[:, None, None, None] * gz


def _pointwise_bwd(h: np.ndarray, pw: np.ndarray, strides, gz: np.ndarray):
    return (
        np.tensordot(pw, gz, axes=([0], [0])),
        np.tensordot(gz, h, axes=([1, 2, 3], [1, 2, 3])),
    )


_STAGE_BWD = {
    "dense": partial(_window_bwd, tap=_dense_tap),
    "window": partial(_window_bwd, tap=_slice_tap),
    "mix": _pointwise_bwd,
}


def _unpad(arr: np.ndarray, shape, ks) -> np.ndarray:
    sl = [slice(None)]
    for n, k in zip(shape[1:], ks):
        lo = same_pad(k)[0]
        sl.append(slice(lo, lo + n))
    return arr[tuple(sl)].copy()


def _affine_bwd(z: np.ndarray, bank: KernelBank, g: np.ndarray):
    """Gradients through scale * (z + bias) + shift.  Returns (gz, extras)."""
    extras = {}
    axes = (1, 2, 3)
    if bank.bn_scale is not None:
        zb = z if bank.bias is None else z + bank.bias[:, None, None, None]
        extras["bn_scale"] = np.sum(g * zb, axis=axes)
        extras["bn_shift"] = np.sum(g, axis=axes)
        gz = g * bank.bn_scale[:, None, None, None]
    else:
        gz = g
    if bank.bias is not None:
        extras["bias"] = np.sum(gz, axis=axes)
    return gz, extras


def backward(x: Volume4, bank: KernelBank, grad_out: Volume4, stride: int = 1):
    """Analytic gradients of sum-style losses through `forward`.

    Differentiates the conv3d variants only.  A `deconv3d_full` layer
    carries a plain "full" bank, so it cannot be told apart here: given
    one, this returns the gradients of `conv3d_full` (or raises on a
    shape mismatch), not of the transposed conv.

    Returns (grad_input: Volume4 float64, grads: dict) where `grads`
    holds one float64 array per bank array, plus "bias"/"bn_scale"/
    "bn_shift" when present.
    """
    s = _check_int("stride", stride)
    _want_input(x, bank)
    g = np.asarray(grad_out.array, dtype=np.float64)
    stages = _stages(bank, s)
    inputs = []
    z = _stage_view(_fold(_stage_view(_as_f64(x), bank), stages, inputs), bank)
    if g.shape != z.shape:
        raise KernelError(f"grad_out shape {g.shape} does not match forward output {z.shape}")
    g, extras = _affine_bwd(z, bank, g)
    g = _stage_view(g, bank)
    grads = {}
    for kind, name, w, strides in reversed(stages):
        g, grads[name] = _STAGE_BWD[kind](inputs.pop(), w, strides, g)
    grads = {name: grads[name].reshape(arr.shape) for name, arr in bank.arrays.items()}
    grads.update(extras)
    return Volume4(_stage_view(g, bank), copy=False), grads


# ----------------------------------------------------------------------
# bank serialization: a JSON sidecar plus one SV3D file per array
# ----------------------------------------------------------------------


def _sv3d_shape(view) -> tuple:
    """SV3D extents of an array stored as its weight view: the leading
    axes fold into one, and a mix's (n_out, n_in) gains two unit axes."""
    if len(view) < 4:
        return tuple(view) + (1, 1)
    return (math.prod(view[:-3]),) + tuple(view[-3:])


def save_bank(path, bank: KernelBank) -> None:
    """Write `path` (JSON) plus one `<stem>.<array>.sv3d` per array."""
    path = os.fspath(path)
    base_dir = os.path.dirname(path) or "."
    stem = os.path.splitext(os.path.basename(path))[0]
    meta = {
        "op": bank.variant,
        "k": bank.k,
        "in_channels": bank.c_in,
        "out_channels": bank.c_out,
        "disparity_in": bank.d_in,
        "disparity_out": bank.d_out,
        "arrays": {},
        "bias": None,
        "bn_scale": None,
        "bn_shift": None,
    }

    def _dump(tag: str, arr4: np.ndarray) -> str:
        fname = f"{stem}.{tag}.sv3d"
        save_volume(os.path.join(base_dir, fname), Volume4(arr4, copy=False))
        return fname

    for _, name, _, view, _ in _bank_layout(bank):
        meta["arrays"][name] = _dump(name, bank.arrays[name].reshape(_sv3d_shape(view)))
    if bank.bias is not None:
        meta["bias"] = _dump("bias", bank.bias.reshape(-1, 1, 1, 1))
    if bank.bn_scale is not None:
        meta["bn_scale"] = _dump("bn_scale", bank.bn_scale.reshape(-1, 1, 1, 1))
        meta["bn_shift"] = _dump("bn_shift", bank.bn_shift.reshape(-1, 1, 1, 1))
    with open(path, "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def load_bank(path) -> KernelBank:
    path = os.fspath(path)
    base_dir = os.path.dirname(path) or "."
    try:
        with open(path, "r", encoding="utf-8") as f:
            meta = json.load(f)
    except json.JSONDecodeError as e:
        raise KernelError(f"malformed bank sidecar {path}: {e}") from e
    if not isinstance(meta, dict):
        raise KernelError(f"bank sidecar {path} must hold a JSON object")
    try:
        variant = meta["op"]
        names = meta["arrays"]
        if variant not in VARIANTS:
            raise KernelError(f"unknown op {variant!r} in {path}")
        dims = _check_scalars(
            variant, meta["k"], meta["in_channels"], meta["out_channels"],
            meta.get("disparity_in"), meta.get("disparity_out"),
        )
    except KeyError as e:
        raise KernelError(f"bank sidecar {path} is missing field {e}") from e
    if not isinstance(names, dict):
        raise KernelError(f"bank sidecar {path}: 'arrays' must map array names to files")

    def _load(fname: str) -> np.ndarray:
        if not isinstance(fname, str):
            raise KernelError(f"bank sidecar {path}: file names must be strings, got {fname!r}")
        return load_volume(os.path.join(base_dir, fname)).to_numpy().astype(np.float64)

    # arrays this variant does not have pass through for KernelBank to reject
    layout = {name: (shape, view) for _, name, shape, view, _ in stage_layout(variant, *dims)}
    arrays = {}
    for name, fname in names.items():
        arr = _load(fname)
        if name in layout:
            shape, view = layout[name]
            if arr.shape != _sv3d_shape(view):
                raise KernelError(
                    f"array {name!r} in {path} has extents {arr.shape}, "
                    f"expected {_sv3d_shape(view)}"
                )
            arr = arr.reshape(shape)
        arrays[name] = arr

    def _vec(tag: str):
        fname = meta.get(tag)
        return None if fname is None else _load(fname).reshape(-1)

    k, c_in, c_out, d_in, d_out = dims
    return KernelBank(
        variant,
        k,
        c_in,
        c_out,
        arrays,
        d_in=d_in,
        d_out=d_out,
        bias=_vec("bias"),
        bn_scale=_vec("bn_scale"),
        bn_shift=_vec("bn_shift"),
    )
