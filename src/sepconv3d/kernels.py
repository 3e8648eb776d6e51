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
channels-last input, then walks them in reverse.

The transposed conv (``deconv3d_full``) upsamples by the stride.  Its
stage list (``netcfg.layer_stages``) is the transpose of the "full"
bank's single dense stage: one "scatter" stage, which ``deconv3d_full``
runs through the same fold as ``forward``, and ``deconv3d_backward``
differentiates through the same backward as ``backward``.  At stride
s > 1 the scatter stage runs as s**3 phase convolutions (the sub-pixel
view of a strided transposed conv), so the upsampling zeros are never
multiplied: per axis it executes k*n taps, which is the billed
``costs.scatter_taps`` plus the upper-edge taps that read zero padding
(3n against 3n - 1 at k=3, s=2).

All windows use zero "same" padding (``netcfg.same_pad``), so output
extents are ceil(n / stride) along strided axes, and n * stride after a
scatter stage.  Kernel extents must be odd.
Partial sums always accumulate in float64; outputs are cast back to the
input's storage dtype at the end.  A float32 input gets no float64 copy
of its own: the first stage's own copy of it -- a window's padded
buffer, one per slab, a scatter's, one per slab of each phase, or a
mix's flattened sites -- is made in float64, and so is the cast.  The backward's stages read their
saved inputs the same way, except a scatter stage, whose tap walk reads
its input once per tap and so casts it once.

Engine rule: every stage runs channels-last.  The fold views the layer
input as (d, h, w, c) -- dwsc as (c, h, w, d), so its slices are
disparities -- without copying it; each stage takes and returns an
(A, B, C, n) array with the channel or slice axis last.  The layer
crosses back to channels-first once, before the affine.  A 1x1x1 mix,
which only ever ends a stage list, writes its product channels-first
and returns a channels-last view of it, so fwsc and fdwsc make no exit
copy and dwsc one block transpose; the mix's backward reads the
upstream gradient in that layout without a copy.  Every other exit --
a dense or scatter stage, a standalone window, the backward's input
gradient -- is one copy made a leading slice at a time
(``_channels_first``).  Every window stage -- dense or per-slice --
runs one slab of output planes at a time (a scatter stage: per slab
of each output phase).  A slab is ``_SLAB`` planes along the leading
stage axis (d, or c for dwsc); it reads only the input planes its
windows reach, padded along that axis only where it meets the volume's
edge, and writes its planes of the stage's output (``_by_slab``).  So
at its peak a window stage holds its output, or the next window's
zero-haloed buffer it writes into, plus one slab's padded float64
input, never a padded copy of its whole input.  A stage whose input is
already padded (``_Haloed``) or whose output is one slab or less runs
in one call.  Every output adds its products in the same order at any
slab height, so results are bit-identical.  At these sizes an einsum's innermost loop pays more in
per-loop overhead than in memory traffic, so both engines make that
loop one long contiguous run.  The dense engine, which dense and
scatter stages share, packs the taps of a chunk of output rows into one
reused column buffer of about ``_COLS`` bytes, laid out (ka, kb, kc,
c_in, sites) as in im2col, and runs one einsum whose innermost loop is
the chunk's sites; it copies the (c_out, sites) result transposed into
the output (``_dense_window``).  Each output still adds its products
one at a time from 0.0 in (a, b, c, c_in) order.  The per-slice engine
gathers its taps in place through a strided window view of only its
non-unit kernel axes, and reads the output's w sites and their slices
as one run of C'*n values, against weights tiled along it
(``_slice_window``); a window along d alone (fdwsc's k*1*1) runs that
einsum once per h row, so each tap streams one row, not a whole plane.
Every strided view over a padded buffer is a plain read-only
``np.ndarray`` over that C-contiguous buffer, never a copy.
``_window_view`` makes the per-slice engine's and, with its channel
axis merged into the kc axis, the single-output dense engine's; the
dense column gather makes its own, because a scatter phase's
sub-kernel keeps unit tap axes that ``_window_view`` drops.
1x1x1 mixes are plain matrix products over the flattened sites.  Two
window stages in a row (fdwsc's) share one padded buffer: the first
writes its result into the interior of the second's zero-haloed
buffer, so the second pads nothing, and the backward keeps that buffer
as the second's input.

The backward runs on the same engines.  A strided window's gradient
with respect to its input is its transpose, a scatter: one phase loop
runs either engine per output phase, so with the dense engine it is
the scatter stage and with the per-slice engine the input gradient of
a per-slice window.  A per-slice window's weight gradient is one
einsum over the forward's own window view.  The dense stage's
backward walks its taps, one pair of matrix products per tap, which is
measured faster there than either einsum form; it is the only tap
loop.  A scatter stage's input gradient is a dense window, and its
weight gradient is that walk's weight half with the input and the
upstream gradient in swapped roles.  The window and scatter input
gradients run on the slabbed engines; the weight gradients and the
dense stage's walk pad a whole stage input, because slabbing them
would reorder their float64 sums.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from typing import NamedTuple, Optional

import numpy as np

from .netcfg import (
    VARIANTS,
    LayerSpec,
    is_int,
    layer_output_shape,
    layer_stages,
    out_extent,
    same_pad,
    stage_layout,
    stage_view,
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
    "deconv3d_backward",
    "deconv3d_full",
    "depthwise_cube",
    "forward",
    "load_bank",
    "out_extent",
    "output_dims",
    "pointwise_mix",
    "save_bank",
    "scale_shift",
]


class KernelError(ValueError):
    """Raised on malformed banks or operator arguments."""


def _check_int(name: str, v) -> int:
    """`v` as an int >= 1; a non-integral value or a bool is rejected,
    never truncated."""
    if not is_int(v) or v < 1:
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
    if not is_int(k) or k < 1 or k % 2 == 0:
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
        if not is_int(seed):
            raise KernelError(f"seed must be an integer, got {seed!r}")
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
# cores (float32 or float64 in, float64 out)
# ----------------------------------------------------------------------


class _Haloed(NamedTuple):
    """A stage input held as its zero-haloed padded buffer: `buf` is the
    (A, B, C, n) input zero-padded by `pads`, a (low, high) pair per axis
    A, B, C.  `shape` is the unpadded input's."""

    buf: np.ndarray
    pads: list

    @property
    def shape(self) -> tuple:
        inner = [m - lo - hi for m, (lo, hi) in zip(self.buf.shape, self.pads)]
        return (*inner, self.buf.shape[3])


def _halo_buffer(shape, pads):
    """A fresh C-contiguous float64 buffer for an (A, B, C, n) array of
    `shape` zero-padded by `pads`: np.empty with only the halo faces
    zeroed.  Returns (buffer, interior view) for the caller to fill."""
    xp = np.empty([m + lo + hi for m, (lo, hi) in zip(shape, pads)] + [shape[3]])
    (a, a1), (b, b1), (c, c1) = pads
    A, B, C = xp.shape[:3]
    xp[:a] = xp[A - a1:] = 0.0
    xp[:, :b] = xp[:, B - b1:] = 0.0
    xp[:, :, :c] = xp[:, :, C - c1:] = 0.0
    return xp, xp[a : A - a1, b : B - b1, c : C - c1]


def _padded(x: np.ndarray, pads) -> np.ndarray:
    """x (A, B, C, n) zero-padded by a (low, high) pair per axis A, B, C,
    as one fresh C-contiguous float64 `_halo_buffer` with the interior
    filled in place (np.pad costs 15 us of set-up per call, which small
    layers and the finite differences pay per forward).  x may be
    float32 or float64, so this copy is also the cast.  When nothing
    pads, x is only made contiguous float64 (a float64 x that already is
    comes back itself), so that a window einsum never inherits a strided
    view's layout.  The window engines call it once per slab, on the
    input planes the slab reads (`_by_slab`); the backward's weight
    gradients call it on a whole stage input."""
    if not any(lo or hi for lo, hi in pads):
        return np.ascontiguousarray(x, dtype=np.float64)
    xp, inner = _halo_buffer(x.shape, pads)
    inner[...] = x
    return xp


def _buffer(x, pads) -> np.ndarray:
    """The padded buffer of a stage input: a `_Haloed` input's own, or a
    fresh `_padded` copy of an unpadded one."""
    return x.buf if isinstance(x, _Haloed) else _padded(x, pads)


# Output planes per slab along the leading stage axis (d, or c for dwsc).
# At 8, a k=3 window over a 24x32x48 float64 volume of 32 channels holds
# a 4.4 MB slab buffer instead of an 11.3 MB padded copy of its input;
# both engines timed alike at heights 2 to 24 (2-vCPU Xeon, 1 thread).
_SLAB = 8

# Bytes of the dense engine's column buffer: each chunk of output rows
# packs its taps into one buffer of about this size (at least one row),
# so the einsum's innermost loop runs over rows*C' sites.  At 1 MiB a
# k=3, 32-channel column holds 151 sites.
_COLS = 1 << 20


def _by_slab(engine, x, ks, pads, strides, out: np.ndarray) -> np.ndarray:
    """Run a window engine one slab of `_SLAB` output planes at a time.

    x: the (A, B, C, n) stage input, unpadded or `_Haloed`; ks, pads,
    strides: the window's extents, (low, high) pads and strides per axis
    A, B, C; out: the (A', B', C', n') result.  `engine(xp, out)` runs
    the window over the padded input xp into out.  A slab reads only
    the input planes its windows reach, zero-padded along A only where
    it meets the volume's edge, and writes its planes of out, so a
    stage holds its output and one slab's padded buffer instead of a
    padded copy of its whole input.  A `_Haloed` input, padded already,
    and an output of one slab or less run in one call over the whole
    padded input.  A slab is a crop of the same window view, so every
    output adds the same products in the same order either way.
    Returns out.
    """
    if isinstance(x, _Haloed) or out.shape[0] <= _SLAB:
        engine(_buffer(x, pads), out)
        return out
    (lo, _), k, s, m = pads[0], ks[0], strides[0], x.shape[0]
    for a in range(0, out.shape[0], _SLAB):
        top = a * s - lo  # the slab's first input plane; negative inside the low pad
        end = (min(a + _SLAB, out.shape[0]) - 1) * s - lo + k
        pad = [(max(-top, 0), max(end - m, 0)), *pads[1:]]
        engine(_padded(x[max(top, 0) : min(end, m)], pad), out[a : a + _SLAB])
    return out


def _grid(x, ks, pads, strides) -> list:
    """Output extents along A, B, C of a window over x padded by pads."""
    return [(m + lo + hi - k) // s + 1 for m, k, (lo, hi), s in zip(x.shape, ks, pads, strides)]


def _window_view(xp: np.ndarray, ks, strides, fuse=False):
    """The window step of the per-slice engine.

    xp: a padded C-contiguous (A, B, C, n) buffer; ks: window extents
    (ka, kb, kc).  Returns (view, taps): the read-only strided window
    view (A', B', C', n, *window) of xp over the axes whose extent is
    not 1, and the einsum labels of those window axes.  With `fuse`
    (stride 1 along C) the view is (A', B', 1, C'*n, *window): xp is
    C-contiguous, so at every tap the C' sites' slices are one
    contiguous run of C'*n values.
    """
    axes = [ax for ax in range(3) if ks[ax] > 1]
    grid = _grid(xp, ks, [(0, 0)] * 3, strides)
    n = xp.shape[3]
    win = np.ndarray(
        grid[:2] + ([1, grid[2] * n] if fuse else [grid[2], n]) + [ks[ax] for ax in axes],
        xp.dtype,
        xp,
        0,
        [st * s for st, s in zip(xp.strides, strides)]
        + [xp.itemsize]
        + [xp.strides[ax] for ax in axes],
    )
    win.flags.writeable = False
    return win, "".join("abc"[ax] for ax in axes)


def _dense_window(x, wt: np.ndarray, pads, strides, out=None) -> np.ndarray:
    """Dense window + channel mix, the one dense engine.

    x: (A, B, C, ci) float32 or float64; wt: (ci, ka, kb, kc, co).  Runs
    one slab at a time (`_by_slab`).  Within a slab, each output plane
    runs in chunks of whole output rows: the chunk's taps are copied
    from the slab's padded input into one reused column buffer laid out
    (ka, kb, kc, ci, rows*C'), about `_COLS` bytes, and one einsum
    contracts it with the weights (ka, kb, kc, ci, co) into a reused
    (co, rows*C') result, which is copied transposed into the chunk's
    rows of `out` (a strided scatter phase takes the same copy).  The
    innermost loop thus runs over the chunk's rows*C' sites, not over
    the co output channels, so it pays its per-loop overhead once per
    long contiguous run.  Every output still adds its products one at a
    time from 0.0 in (a, b, c, ci) order, the columns' reduction strides
    decreasing in that order, so the bits do not depend on the chunk
    or the slab.  A single output channel keeps the einsum over
    `_window_view`'s view with its channel axis moved last and merged
    with the kc axis (K = tap*ci + channel), still a view: there einsum
    drops the unit axis and totals K with its dot kernel, which rounds
    differently from the chain the columns would make.  Returns the
    (A', B', C', co) result, written into `out` when given.
    """
    ci, ks, co = wt.shape[0], wt.shape[1:4], wt.shape[4]
    wt = np.ascontiguousarray(wt.transpose(1, 2, 3, 0, 4))
    if out is None:
        out = np.empty(_grid(x, ks, pads, strides) + [co])
    if co == 1:
        wt = wt.reshape(ks[0], ks[1], ks[2] * ci, 1)

        def engine(xp, out):
            win = _window_view(xp, ks, strides)[0]
            win = np.moveaxis(win, 3, -1).reshape(win.shape[:3] + wt.shape[:3])
            np.einsum("zyxabK,abKo->zyxo", win, wt, out=out, optimize=False)

        return _by_slab(engine, x, ks, pads, strides, out)

    taps, (B, C) = wt.shape[:4], out.shape[1:3]
    row = math.prod(taps) * C  # the columns of one output row
    rows = min(B, max(1, _COLS // (8 * row)))
    cols, res = np.empty(row * rows), np.empty(co * rows * C)

    def engine(xp, out):
        sa, sb, sc = strides
        st = (*xp.strides, xp.strides[1] * sb, xp.strides[2] * sc)
        for z, y in itertools.product(range(out.shape[0]), range(0, B, rows)):
            r = min(rows, B - y)
            col = cols[: row * r].reshape(*taps, r, C)
            # its own plain strided view, not `_window_view`'s, which drops
            # the unit tap axes a scatter phase's sub-kernel has; numpy's
            # stride-tricks helper, called once per chunk, moved the full
            # forward's peak RSS by 9%
            col[...] = np.ndarray(col.shape, xp.dtype, xp, z * sa * st[0] + y * sb * st[1], st)
            chunk = res[: co * r * C].reshape(co, r * C)
            np.einsum("abcin,abcio->on", col.reshape(*taps, r * C), wt, out=chunk, optimize=False)
            out[z, y : y + r] = chunk.reshape(co, r, C).transpose(1, 2, 0)

    return _by_slab(engine, x, ks, pads, strides, out)


def _slice_window(x, w: np.ndarray, pads, strides, out=None) -> np.ndarray:
    """Per-slice window, the one per-slice engine.

    x: (A, B, C, n) float32 or float64, or `_Haloed`; w: (n, ka, kb, kc).
    Slice i of the output only ever reads slice i of x.  One einsum per
    slab (`_by_slab`) over the strided window view; axes whose kernel
    extent is 1 are left out of the window, so the split-stage layouts
    (k*k over h,w; k over d) gather exactly their own taps.  The
    innermost loop runs over one contiguous run per (A', B') row: the
    output's C' sites and their n slices, C'*n values, against the
    weights tiled C' times along it.  A loop n values long spends its
    time on per-loop overhead, not on memory traffic.  The run needs
    stride 1 along C.  When `out`'s (C', n) block is not contiguous (a
    strided phase of a scatter), each output plane runs into one
    contiguous temporary, which is then copied into `out`.  With a
    stride along C the loop runs over the n slices of each site,
    written straight into `out`.  Both forms add each output's products
    one at a time in tap order, so their results are bit-identical.  A
    single slice keeps the per-site form: there einsum's innermost loop
    is the sum over the C taps, which it totals before adding it to the
    output, so the run would round differently.
    A window along A alone (fdwsc's k*1*1) runs one einsum per B' row:
    in one call einsum's iterator puts the tap loop outside the B' loop,
    because the tap's stride equals A's, so each tap would stream a
    whole (B', C'*n) plane of the output.  Its one reduction axis keeps
    the row's sums in tap order.  Returns the (A', B', C', n) result,
    written into `out` when given.
    """
    n, ks = w.shape[0], w.shape[1:]
    if out is None:
        out = np.empty(_grid(x, ks, pads, strides) + [n])
    fuse = n > 1 and strides[2] == 1
    run = out.shape[2] * n if fuse else n
    tile = np.empty((math.prod(ks), run // n, n))
    tile[...] = w.reshape(n, -1).T[:, None]

    def engine(xp, out):
        win, taps = _window_view(xp, ks, strides, fuse)
        wt = tile.reshape(win.shape[4:] + (run,))

        def fill(win, y):
            if taps == "a":
                for b in range(y.shape[1]):
                    np.einsum("zxRa,aR->zxR", win[:, b], wt, out=y[:, b], optimize=False)
            else:
                np.einsum(f"zyxR{taps},{taps}R->zyxR", win, wt, out=y, optimize=False)

        if not fuse or out[0, 0].flags.c_contiguous:
            fill(win, out.reshape(win.shape[:4]))
            return
        tmp = np.empty(out.shape[1:])  # a strided scatter phase: one plane at a time
        for z in range(out.shape[0]):
            fill(win[z : z + 1], tmp.reshape((1,) + win.shape[1:4]))
            out[z] = tmp

    return _by_slab(engine, x, ks, pads, strides, out)


def _depthwise_core(x, w: np.ndarray, strides, halo=None):
    """Per-slice window stage: x (A, B, C, n), unpadded or `_Haloed`; w
    (n, ka, kb, kc).  With `halo`, a (low, high) pad per axis, the
    result is written into the interior of a fresh `_halo_buffer` and
    returned as `_Haloed`: the next window stage then reads it without
    padding it again."""
    pads = [same_pad(k) for k in w.shape[1:]]
    if halo is None:
        return _slice_window(x, w, pads, strides)
    buf, inner = _halo_buffer(_grid(x, w.shape[1:], pads, strides) + [x.shape[3]], halo)
    _slice_window(x, w, pads, strides, out=inner)
    return _Haloed(buf, halo)


def _conv_full_core(x: np.ndarray, w: np.ndarray, strides) -> np.ndarray:
    """Dense window + channel mix.

    x: (A, B, C, ci) float64, unpadded; w: (co, ci, ka, kb, kc).
    """
    return _dense_window(x, np.moveaxis(w, 0, -1), [same_pad(k) for k in w.shape[2:]], strides)


def _phase_scatter(x: np.ndarray, w: np.ndarray, strides, window, n_out: int) -> np.ndarray:
    """Transposed window (a scatter), one `window` per output phase.

    x: (A, B, C, n) float64, unpadded; w: the `window` engine's kernel,
    taps on axes 1-3; strides (sa, sb, sc): the upsampling factor of
    each axis.  Along an axis of kernel extent k and factor s, with the
    taps reversed, output s*q + r receives the taps f, f+s, f+2s, ...
    with f = (p - r) mod s and p the low same-pad; they read the
    consecutive inputs q + o, q + o + 1, ... with o = (r + f - p) / s.
    Each phase is therefore a window over the input, padded for that
    phase, with a strided sub-kernel, written in place into a strided
    view of one (A*sa, B*sb, C*sc, n_out) output.  Phases that no tap
    reaches (k < s) are zero.  Per axis this executes k*n taps, against
    s*n*k for a window over the zero-inserted grid.

    With the dense engine this is the scatter stage; with the per-slice
    engine it is the transpose of a window stage, i.e. its input
    gradient before the crop to the stage input's extents.
    """
    ks = w.shape[1:4]
    rev = w[:, ::-1, ::-1, ::-1]
    out = np.empty(tuple(n * s for n, s in zip(x.shape[:3], strides)) + (n_out,))

    def phases(k, s):
        p = same_pad(k)[0]
        return [(r, (p - r) % s, (r + (p - r) % s - p) // s) for r in range(s)]

    for ph in itertools.product(*map(phases, ks, strides)):
        dst = out[tuple(slice(r, None, s) for (r, _, _), s in zip(ph, strides))]
        if any(f >= k for (_, f, _), k in zip(ph, ks)):
            dst.fill(0.0)
            continue
        sub = rev[(slice(None),) + tuple(slice(f, None, s) for (_, f, _), s in zip(ph, strides))]
        # output q reads inputs q + o .. q + o + m - 1; o + m - 1 >= 0 for
        # every live phase, so the high pad is never negative
        pads = [(max(0, -o), o + m - 1) for (_, _, o), m in zip(ph, sub.shape[1:4])]
        src = tuple(slice(max(0, o), None) for _, _, o in ph)
        window(x[src], sub, pads, (1, 1, 1), out=dst)
    return out


def _scatter_core(x: np.ndarray, w: np.ndarray, strides) -> np.ndarray:
    """Transposed dense conv (a scatter stage): x (A, B, C, ci), unpadded;
    w (co, ci, k, k, k).  Stride 1 has a single phase: the dense window
    with the tap-reversed kernel."""
    return _phase_scatter(x, np.moveaxis(w, 0, -1), strides, _dense_window, w.shape[0])


def _pointwise_core(x: np.ndarray, pw: np.ndarray, strides=None) -> np.ndarray:
    """1x1x1 mix along the last axis: x (A, B, C, n_in) -> (A, B, C, n_out).

    One matrix product over the sites, flattened C-contiguous in float64
    (a copy, which is also the cast, unless x already is both), so the
    rounding does not depend on x's layout or dtype.
    The product is written channels-first, pw @ sites.T -> (n_out, A, B,
    C), and returned as its channels-last view: a mix only ever ends a
    stage list, so the fold's exit finds its channels-first layout made.
    """
    sites = np.ascontiguousarray(x, dtype=np.float64).reshape(-1, x.shape[-1])
    return (pw @ sites.T).reshape(pw.shape[:1] + x.shape[:-1]).transpose(1, 2, 3, 0)


_STAGE_FWD = {
    "dense": _conv_full_core,
    "window": _depthwise_core,
    "mix": _pointwise_core,
    "scatter": _scatter_core,
}


_CHANNELS_LAST = (1, 2, 3, 0)


def _stage_order(bank: KernelBank):
    """Axis order of the bank's channels-last stage view: its
    ``stage_view`` with the channel (slice) axis moved last, so
    (d, h, w, c), or (c, h, w, d) for dwsc, whose stages slice
    disparities."""
    n, *grid = stage_view(bank.variant)
    return (*grid, n)


def _channels_first(h: np.ndarray, order) -> np.ndarray:
    """Undo the stage view `order` into a C-contiguous array: h's own
    memory when that is already laid out so (a mix's result), else one
    copy made a leading slice of h at a time, so that each slice's
    transpose stays in cache: for a 24x32x48x32 float64 volume on a
    2-vCPU Xeon, 1 thread, the whole-array strided copy took 6.6 ms,
    the sliced one 1.5 ms and a plain copy 0.7 ms."""
    cf = h.transpose(np.argsort(order))
    if cf.flags.c_contiguous:
        return cf
    out = np.empty(cf.shape)
    dst = out.transpose(order)
    for a in range(h.shape[0]):
        dst[a] = h[a]
    return out


def _fold(x: np.ndarray, stages, order, inputs: Optional[list] = None) -> np.ndarray:
    """Run `stages` over the channels-last view x.transpose(order); appends
    each stage's input to `inputs` if given.  x is the layer input as the
    caller holds it, float32 or float64: the first stage casts it as it
    copies it, and it is only ever read.  A window stage followed by a
    window stage (fdwsc's two) hands its result over inside the next
    stage's zero-haloed padded buffer (`_Haloed`), which is also what
    `inputs` keeps for that stage.  Returns the result as one
    channels-first float64 array that the caller owns
    (`_channels_first`)."""
    h = x.transpose(order)
    for (kind, _, w, strides), nxt in zip(stages, [*stages[1:], None]):
        if inputs is not None:
            inputs.append(h)
        if kind == "window" and nxt is not None and nxt[0] == "window":
            h = _depthwise_core(h, w, strides, [same_pad(k) for k in nxt[2].shape[1:]])
        else:
            h = _STAGE_FWD[kind](h, w, strides)
    return _channels_first(h, order)


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


def _finish(arr: np.ndarray, like: Volume4) -> Volume4:
    return Volume4(arr.astype(like.dtype, copy=False), copy=False)


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
    z = _fold(x.array, stages, _stage_order(bank))
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
    _phase_scatter), so the inserted upsampling zeros are never
    multiplied.  Stride 1 has a single phase: the dense window itself.
    `deconv3d_backward` differentiates it."""
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
    return _finish(_fold(x.array, [("window", None, w, (s, s, s))], _CHANNELS_LAST), x)


def pointwise_mix(x: Volume4, weights) -> Volume4:
    """Standalone 1x1x1 channel mix: (c_in, d, h, w) -> (c_out, d, h, w)."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] != x.c:
        raise KernelError(f"weights must be (c_out, c_in={x.c}), got {w.shape}")
    return _finish(_fold(x.array, [("mix", None, w, None)], _CHANNELS_LAST), x)


def output_dims(variant: str, in_dims: Shape4, k: int, stride: int, c_out: int) -> Shape4:
    """Output extents of a conv op, without running it."""
    dims = tuple(in_dims)
    if len(dims) != 4 or not all(is_int(n) and n >= 1 for n in dims):
        raise KernelError(f"in_dims must be 4 integer extents >= 1, got {in_dims!r}")
    layer = LayerSpec(id="output_dims", kind="conv3d", variant=variant, k=k,
                      stride=_check_int("stride", stride), out_channels=c_out, bias=False, bn=False)
    return layer_output_shape(layer, dims)


# ----------------------------------------------------------------------
# backward (analytic gradients)
# ----------------------------------------------------------------------


def _window_bwd(x, w: np.ndarray, strides, gz: np.ndarray):
    """Gradients of a per-slice window stage w.r.t. its input and weights.

    x: the stage's input, unpadded or `_Haloed`.  The weight gradient is
    one einsum over the forward's own window view; it is made first, so
    that the padded input -- made here, or a `_Haloed` buffer the
    backward passed on and holds nowhere else -- is freed before the
    input gradient, the stage's transpose (a per-slice scatter of gz
    cropped to x), allocates its own.
    """
    win, taps = _window_view(_buffer(x, [same_pad(k) for k in w.shape[1:]]), w.shape[1:], strides)
    gw = np.einsum(f"zyxn{taps},zyxn->n{taps}", win, gz, optimize=False)
    crop, n = tuple(map(slice, x.shape[:3])), x.shape[3]
    del x, win
    return _phase_scatter(gz, w, strides, _slice_window, n)[crop], gw.reshape(w.shape)


def _tap_walk(xp: np.ndarray, w: np.ndarray, strides, gz: np.ndarray, gxp=None):
    """The weight gradient of a dense stage, walked tap by tap.

    xp: the stage's padded input; w: (co, ci, ka, kb, kc); gz: the
    output gradient.  Each tap's weight gradient is one matrix product
    of gz with what the tap reads of xp at every strided output site;
    when `gxp` (zeros shaped like xp) is given, the tap's share of the
    input gradient, a second product, is accumulated into it.
    """
    gw = np.empty_like(w)
    for t in itertools.product(*map(range, w.shape[2:])):
        sl = tuple(slice(a, a + s * m, s) for a, m, s in zip(t, gz.shape, strides))
        gw[(...,) + t] = np.tensordot(gz, xp[sl], axes=([0, 1, 2], [0, 1, 2]))
        if gxp is not None:
            gxp[sl] += gz @ w[(...,) + t]
    return gw


def _dense_bwd(x: np.ndarray, w: np.ndarray, strides, gz: np.ndarray):
    """Gradients of a dense stage w.r.t. its input and weights.

    One tap walk makes both.  Measured faster than the einsum engine for
    either half: at 32x24x32x48, k=3, 32 -> 32 channels, 1 thread, the
    whole walk took 97 ms, the weight half as one einsum 443 ms and the
    input half as a scatter 271 ms.
    """
    pads = [same_pad(k) for k in w.shape[2:]]
    xp = _padded(x, pads)
    gxp = np.zeros_like(xp)
    gw = _tap_walk(xp, w, strides, gz, gxp)
    return gxp[tuple(slice(lo, lo + n) for (lo, _), n in zip(pads, x.shape))], gw


def _scatter_bwd(x: np.ndarray, w: np.ndarray, strides, gz: np.ndarray):
    """Gradients of a scatter stage, the transpose of a dense one.

    The input gradient is the dense window of gz with the channel axes
    swapped.  The weight gradient is the tap walk's weight half with x
    and gz in swapped roles, its channel axes swapped back.  x may be the
    layer's float32 input: the walk reads it once per tap, so it is cast
    once here, in its own memory order.
    """
    x = np.asarray(x, dtype=np.float64)
    wt = w.swapaxes(0, 1)
    gw = _tap_walk(_padded(gz, [same_pad(k) for k in w.shape[2:]]), wt, strides, x)
    return _conv_full_core(gz, wt, strides), gw.swapaxes(0, 1)


def _pointwise_bwd(h: np.ndarray, pw: np.ndarray, strides, gz: np.ndarray):
    """Gradients of a 1x1x1 mix.  The upstream gradient is read as the
    (n_out, sites) matrix the forward's mix writes, with no copy when gz
    is a channels-last view of channels-first memory, as the backward
    hands it over; the input gradient comes back channels-last."""
    gf = gz.transpose(3, 0, 1, 2).reshape(pw.shape[0], -1)
    sites = np.ascontiguousarray(h.reshape(-1, h.shape[-1]))
    return (gf.T @ pw).reshape(h.shape), gf @ sites


_STAGE_BWD = {
    "dense": _dense_bwd,
    "window": _window_bwd,
    "mix": _pointwise_bwd,
    "scatter": _scatter_bwd,
}


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


def _backward(x: Volume4, bank: KernelBank, grad_out: Volume4, stages):
    """Run `stages` as `_run` does, keeping each stage's input, then walk
    them in reverse through `_STAGE_BWD`."""
    _want_input(x, bank)
    g = np.asarray(grad_out.array, dtype=np.float64)
    order = _stage_order(bank)
    inputs = []
    z = _fold(x.array, stages, order, inputs)
    if g.shape != z.shape:
        raise KernelError(f"grad_out shape {g.shape} does not match forward output {z.shape}")
    g, extras = _affine_bwd(z, bank, g)
    del z  # not needed past the affine: free it before the stages run
    g = g.transpose(order)
    grads = {}
    for kind, name, w, strides in reversed(stages):
        g, grads[name] = _STAGE_BWD[kind](inputs.pop(), w, strides, g)
    grads = {name: grads[name].reshape(arr.shape) for name, arr in bank.arrays.items()}
    grads.update(extras)
    return Volume4(_channels_first(g, order), copy=False), grads


def backward(x: Volume4, bank: KernelBank, grad_out: Volume4, stride: int = 1):
    """Analytic gradients of loss = vdot(grad_out, forward(x, bank, stride)).

    Differentiates the conv3d variants.  A `deconv3d_full` layer carries
    a plain "full" bank, which cannot be told apart here: differentiate
    it with `deconv3d_backward`.

    Returns (grad_input: Volume4 float64, grads: dict) where `grads`
    holds one float64 array per bank array, plus "bias"/"bn_scale"/
    "bn_shift" when present.
    """
    return _backward(x, bank, grad_out, _stages(bank, _check_int("stride", stride)))


def deconv3d_backward(x: Volume4, bank: KernelBank, grad_out: Volume4, stride: int = 1):
    """Analytic gradients of loss = vdot(grad_out, deconv3d_full(x, bank,
    stride)); returns what `backward` returns."""
    s = _check_int("stride", stride)
    _want(bank, "full")
    return _backward(x, bank, grad_out, _stages(bank, s, "deconv3d"))


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
