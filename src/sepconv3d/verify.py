"""Independent oracles for the convolution operators and the cost model.

Three families of checks live here:

* ``loop_forward`` / ``loop_deconv`` - brute-force nested-loop
  re-implementations of every operator, written against the definitions
  rather than the production kernels.  Every operator runs one window
  nest, out[o] = sum_i window(x[i], w[o][i]), whose taps along each axis
  come from a rule: the padded window for the conv variants (the dense
  conv calls the nest once, each per-slice window once per slice with
  one input and one output, and each mix with 1x1x1 windows), and the
  gather form of the scatter for the transposed conv.  The nest returns
  both the computed values and the number of multiply-accumulates it
  executed, so it serves as value oracle and as MAC counter.
* ``finite_diff_grad`` - central finite differences, at one fixed step,
  of the scalar loss vdot(g, output), for an upstream gradient g (ones
  by default), with respect to every input element and every weight.
* ``composition_check`` - cross-variant identities (a separable op must
  equal its composed stages, collapse to the dense op in degenerate
  settings, and so on).

The nest reads the bank's arrays as nested lists, never the stage list
the kernels and the cost model share, so a wrong stage list shows up as
a disagreement with them.
Closed-form costs agreeing with the loop counts for randomized
configurations is the anti-drift check tying kernels and cost model
together; it counts with ``loop_forward`` alone.  ``counted_forward``
pairs the production forward output with that count for callers that
want both from one call.

``run_catalog`` is the `check` suite over these three families.  Each
case draws its numbers (shapes, strides, seeds) from its own
``volume.IntStream``, the package's counter-mode splitmix64 stream read
as integers, so the cases do not depend on numpy's RNG and `check`
never imports ``numpy.random``.  Each case builds every seeded (input,
bank) pair with one builder, ``_layer_case``, only when the case runs,
so a filtered run builds only the selected cases' layers.  Every bank
derived from another (an identity's second bank, the finite
differences' copy) comes from one helper, ``_bank_like``, which takes
its extents and, unless replaced, its bias and BN vectors from the
source bank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import costs as _costs
from . import kernels as _k
from .kernels import KernelBank, KernelError
from .netcfg import LayerSpec, is_int
from .volume import IntStream, Volume4

__all__ = [
    "COMPOSITION_CASES",
    "OracleReport",
    "composition_check",
    "counted_forward",
    "finite_diff_grad",
    "loop_deconv",
    "loop_forward",
    "max_rel_err",
    "run_catalog",
]


@dataclass(frozen=True)
class OracleReport:
    case: str
    max_abs_err: float
    max_rel_err: float
    tol: float
    passed: bool
    note: str = ""

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.case}: {status} (max_rel={self.max_rel_err:.3e}, tol={self.tol:.1e}) {self.note}"


def max_rel_err(a, b, floor: float = 1e-12) -> float:
    """max |a-b| / max(|a|, |b|, floor), elementwise."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def _max_abs_err(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, np.float64) - np.asarray(b, np.float64))))


_VECS = ("bias", "bn_scale", "bn_shift")


def _bank_like(bank: KernelBank, variant: str, arrays: dict, **vecs) -> KernelBank:
    """A `variant` bank over `arrays` with `bank`'s k, c_in, c_out, d_in
    and d_out, and its bias and BN vectors unless `vecs` replaces them."""
    vecs = {**{n: getattr(bank, n) for n in _VECS}, **vecs}
    return KernelBank(variant, bank.k, bank.c_in, bank.c_out, arrays,
                      d_in=bank.d_in, d_out=bank.d_out, **vecs)


# ----------------------------------------------------------------------
# brute-force loop nests
#
# Nested python loops over output sites and kernel taps.  `mac` counts
# exactly the multiply-accumulates the nest performs: padded-window taps
# count whether or not they land on padding (a padded implementation
# executes those MACs on zeros); transposed-conv taps that would read the
# upsampling zeros are never listed, so never counted.  The tap rules are
# written from the definitions, apart from the cost model's closed forms.
# ----------------------------------------------------------------------


def _ceil(n: int, s: int) -> int:
    return -(-n // s)


def _affine_loop(out, bank: KernelBank):
    """Apply bias/BN per channel, elementwise; returns (out, extra_macs)."""
    co = len(out)
    macs = 0
    bias = bank.bias.tolist() if bank.bias is not None else None
    scale = bank.bn_scale.tolist() if bank.bn_scale is not None else None
    shift = bank.bn_shift.tolist() if bank.bn_shift is not None else None
    for o in range(co):
        plane = out[o]
        for z in range(len(plane)):
            row2 = plane[z]
            for y in range(len(row2)):
                row = row2[y]
                for x in range(len(row)):
                    v = row[x]
                    if bias is not None:
                        v = v + bias[o]
                        macs += 1
                    if scale is not None:
                        v = scale[o] * v + shift[o]
                        macs += 1
                    row[x] = v
    return out, macs


def _zeros(co, d, h, w):
    return [[[[0.0] * w for _ in range(h)] for _ in range(d)] for _ in range(co)]


def _padded_taps(n: int, k: int, s: int):
    """Taps of a centred window of k taps at stride s over n inputs: for
    each of the ceil(n/s) outputs t, every tap a reads input s*t + a - p,
    None where that lands on the zero padding."""
    p = (k - 1) // 2
    return [[(a, s * t + a - p if 0 <= s * t + a - p < n else None) for a in range(k)]
            for t in range(_ceil(n, s))]


def _transposed_taps(n: int, k: int, s: int):
    """Taps of a transposed conv of k taps at stride s over n inputs: for
    each of the n*s outputs t, the taps a whose source j = (t + p - a)/s
    is an integer in [0, n), in descending a, so ascending j as the
    scatter form adds them.  The upsampling zeros are never listed, so
    never counted."""
    p = (k - 1) // 2
    return [[(a, (t + p - a) // s) for a in reversed(range(k))
             if (t + p - a) % s == 0 and 0 <= t + p - a < n * s]
            for t in range(n * s)]


def _window_nest(x, wt, strides, rule):
    """out[o] = sum_i window(x[i], wt[o][i]) for nested lists x (n_in, d,
    h, w) and wt (n_out, n_in, ka, kb, kc); rule(n, k, s) lists each
    axis's (tap, input index) pairs per output position in summation
    order.  A None index counts as a MAC and adds nothing; an output
    without taps stays 0.0.  Returns (out, macs)."""
    taps = [rule(n, k, s) for n, k, s in zip(
        (len(x[0]), len(x[0][0]), len(x[0][0][0])),
        (len(wt[0][0]), len(wt[0][0][0]), len(wt[0][0][0][0])), strides)]
    out = _zeros(len(wt), *map(len, taps))
    tz, ty, tx = ([(t, pairs) for t, pairs in enumerate(axis) if pairs] for axis in taps)
    row_macs = len(x) * sum(map(len, taps[2]))  # one output row, per (z-tap, y-tap)
    mac = 0
    for o, wo in enumerate(wt):
        for z, zt in tz:
            for y, yt in ty:
                mac += row_macs * len(zt) * len(yt)
                row = out[o][z][y]
                for xx, xt in tx:
                    acc = 0.0
                    for xi, wi in zip(x, wo):
                        for a, dz in zt:
                            if dz is None:
                                continue
                            wa, xa = wi[a], xi[dz]
                            for b, dy in yt:
                                if dy is None:
                                    continue
                                wb, xb = wa[b], xa[dy]
                                for c, dx in xt:
                                    if dx is not None:
                                        acc += wb[c] * xb[dx]
                    row[xx] = acc
    return out, mac


def _per_slice(x, wt, strides):
    """out[i] = window(x[i], wt[i]): one single-channel nest per slice."""
    out, mac = [], 0
    for xi, wi in zip(x, wt):
        (oi,), m = _window_nest([xi], [[wi]], strides, _padded_taps)
        out.append(oi)
        mac += m
    return out, mac


def _mix(x, pw):
    """out[o] = sum_i pw[o][i] * x[i]: the nest over 1x1x1 windows."""
    return _window_nest(x, [[[[[c]]] for c in row] for row in pw], (1, 1, 1), _padded_taps)


def _transpose_xd(x):
    """Swap the first two axes of a nested list (c,d,...) -> (d,c,...)."""
    c, d = len(x), len(x[0])
    return [[x[i][j] for i in range(c)] for j in range(d)]


def loop_forward(variant: str, x: Volume4, bank: KernelBank, stride: int = 1):
    """Brute-force forward of any conv variant.

    Returns (values: float64 ndarray, mac_count: int).  Values come from
    plain nested loops; mac_count counts executed multiply-accumulates
    including one per output element for bias and for BN.
    """
    if bank.variant != variant:
        raise KernelError(f"bank is {bank.variant!r}, requested {variant!r}")
    if x.c != bank.c_in:
        raise KernelError(f"input has {x.c} channels, bank expects {bank.c_in}")
    s = _k._check_int("stride", stride)
    xl = x.array.astype(np.float64).tolist()
    a = bank.arrays

    if variant == "full":
        out, mac = _window_nest(xl, a["weights"].tolist(), (s, s, s), _padded_taps)
    elif variant == "fwsc":
        mid, mac = _per_slice(xl, a["depthwise"].tolist(), (s, s, s))
        out, m = _mix(mid, a["pointwise"].tolist())
        mac += m
    elif variant == "dwsc":
        if x.d != bank.d_in:
            raise KernelError(f"input has {x.d} disparities, bank expects {bank.d_in}")
        xd = _transpose_xd(xl)  # (d, c, h, w)
        mid, mac = _per_slice(xd, a["depthwise"].tolist(), (1, s, s))
        outd, m = _mix(mid, a["pointwise"].tolist())
        out, mac = _transpose_xd(outd), mac + m
    else:  # fdwsc: the bank's variant is one of the four
        k, ci = bank.k, bank.c_in
        mid, mac = _per_slice(xl, a["spatial"].reshape(ci, 1, k, k).tolist(), (1, s, s))
        mid, m = _per_slice(mid, a["disparity"].reshape(ci, k, 1, 1).tolist(), (s, 1, 1))
        out, m2 = _mix(mid, a["pointwise"].tolist())
        mac += m + m2

    out, extra = _affine_loop(out, bank)
    return np.array(out, dtype=np.float64), mac + extra


def loop_deconv(x: Volume4, bank: KernelBank, stride: int = 1):
    """Brute-force transposed conv: the window nest in gather form.

    Output t along each axis sums the taps a whose input j satisfies
    stride*j + a - (k-1)//2 = t, in ascending j, as a scatter of each
    input to those sites would add them; taps that would read the
    upsampling zeros are never executed, so the count skips them.
    """
    if bank.variant != "full":
        raise KernelError(f"transposed conv needs a 'full' bank, got {bank.variant!r}")
    if x.c != bank.c_in:
        raise KernelError(f"input has {x.c} channels, bank expects {bank.c_in}")
    s = _k._check_int("stride", stride)
    xl = x.array.astype(np.float64).tolist()
    out, mac = _window_nest(xl, bank.arrays["weights"].tolist(), (s, s, s), _transposed_taps)
    out, extra = _affine_loop(out, bank)
    return np.array(out, dtype=np.float64), mac + extra


def counted_forward(x: Volume4, bank: KernelBank, stride: int = 1):
    """Production forward output paired with the independent MAC count.

    The output is the uninstrumented kernel's result, bit for bit; the
    count comes from the separately written loop nest above.
    """
    out = _k.forward(x, bank, stride)
    _, mac = loop_forward(bank.variant, x, bank, stride)
    return out, mac


# ----------------------------------------------------------------------
# finite differences
# ----------------------------------------------------------------------

# the central differences' step, in every input and parameter
_STEP = 1e-5


def finite_diff_grad(
    x: Volume4,
    bank: KernelBank,
    stride: int = 1,
    grad_out: Optional[Volume4] = None,
    op: Optional[Callable] = None,
) -> dict:
    """Central differences, at step ``_STEP``, of loss = vdot(grad_out,
    op(x, bank, stride)) w.r.t. everything; without `grad_out`, of
    loss = sum(op(x, ...)).

    `op` defaults to ``kernels.forward``, whose gradients `backward`
    returns for that `grad_out` (ones when absent); pass
    ``kernels.deconv3d_full`` to check `deconv3d_backward`.  Returns
    {"input": array like x} plus one entry per bank array and per
    present bias/BN vector.  Requires float64 input.
    """
    if x.dtype != np.float64:
        raise KernelError(f"finite differences require float64 input, got {x.dtype}")
    g = None if grad_out is None else np.asarray(grad_out.array, dtype=np.float64)
    op = _k.forward if op is None else op

    # one bank over copies of the arrays and vectors; the central
    # differences perturb those copies in place
    b = _bank_like(bank, bank.variant, {n: a.copy() for n, a in bank.arrays.items()},
                   **{n: getattr(bank, n).copy() for n in _VECS if getattr(bank, n) is not None})
    xa = x.to_numpy()

    def loss() -> float:
        # a fresh view each call: the Volume4 freezes the view, not xa
        y = op(Volume4(xa.view(), copy=False), b, stride).array
        if g is None:
            return float(np.sum(y, dtype=np.float64))
        if g.shape != y.shape:
            raise KernelError(f"grad_out shape {g.shape} does not match forward output {y.shape}")
        return float(np.vdot(g, y))

    def _central(arr: np.ndarray) -> np.ndarray:
        """Central differences along each element of `arr`, an array the
        loss reads, perturbed in place one element at a time."""
        grad = np.zeros_like(arr)
        fl = arr.reshape(-1)
        gfl = grad.reshape(-1)
        for j in range(fl.size):
            keep = fl[j]
            fl[j] = keep + _STEP
            up = loss()
            fl[j] = keep - _STEP
            dn = loss()
            fl[j] = keep
            gfl[j] = (up - dn) / (2.0 * _STEP)
        return grad

    grads = {"input": _central(xa)}
    for name, arr in {**b.arrays, **{n: getattr(b, n) for n in _VECS}}.items():
        if arr is not None:
            grads[name] = _central(arr)
    return grads


# ----------------------------------------------------------------------
# composition identities
# ----------------------------------------------------------------------

COMPOSITION_CASES = (
    "fwsc-vs-stages",
    "fdwsc-rank1-vs-fwsc",
    "fwsc-c1-vs-full",
    "dwsc-d1-vs-cube-conv",
    "k1-collapse",
)


def _report(case: str, a, b, tol: float, note: str = "") -> OracleReport:
    """Compare a with b; tol=0.0 asks for equal values, since max_rel is
    0 only when every element matches."""
    rel = max_rel_err(a, b)
    return OracleReport(case, _max_abs_err(a, b), rel, tol, rel <= tol, note=note)


def _layer_case(variant: str, k: int, ci: int, co: int, d: int, h: int, w: int,
                bank_seed: int, x_seed: int, bias: bool = True, bn: bool = True):
    """The seeded (input, bank) pair of one randomized layer: a float64
    (ci, d, h, w) input and a `variant` bank, sized to d when dwsc."""
    x = Volume4.random((ci, d, h, w), seed=x_seed, dtype=np.float64)
    bank = KernelBank.random(variant, k, ci, co, d_in=d if variant == "dwsc" else None,
                             seed=bank_seed, bias=bias, bn=bn)
    return x, bank


def composition_check(case: str, seed: int = 0) -> OracleReport:
    """Run one catalog case on seeded random data."""
    if not is_int(seed):
        raise KernelError(f"seed must be an integer, got {seed!r}")
    rng = IntStream(seed + 0x5EC0)
    k = rng.choice((1, 3))
    stride = rng.choice((1, 2))

    if case == "fwsc-vs-stages":
        ci, co = rng.integers(1, 5), rng.integers(1, 5)
        x, bank = _layer_case("fwsc", k, ci, co, 4, 6, 8, seed, seed)
        fused = _k.conv3d_fwsc(x, bank, stride)
        mid = _k.depthwise_cube(x, bank.arrays["depthwise"], stride)
        staged = _k.pointwise_mix(mid, bank.arrays["pointwise"])
        staged = _k.scale_shift(staged, bias=bank.bias, scale=bank.bn_scale, shift=bank.bn_shift)
        return _report(case, fused.array, staged.array, tol=0.0,
                       note=f"k={k} s={stride} ci={ci} co={co}")

    if case == "fdwsc-rank1-vs-fwsc":
        ci, co = rng.integers(1, 5), rng.integers(1, 5)
        x, fd = _layer_case("fdwsc", k, ci, co, 5, 6, 7, seed, seed)
        cube = np.einsum(
            "ca,cbe->cabe", fd.arrays["disparity"], fd.arrays["spatial"]
        )  # W[d-tap, h-tap, w-tap] = D[d-tap] * S[h-tap, w-tap], per channel
        fw = _bank_like(fd, "fwsc", {"depthwise": cube, "pointwise": fd.arrays["pointwise"]})
        a = _k.conv3d_fdwsc(x, fd, stride)
        b = _k.conv3d_fwsc(x, fw, stride)
        return _report(case, a.array, b.array, tol=1e-6, note=f"k={k} s={stride} ci={ci} co={co}")

    if case == "fwsc-c1-vs-full":
        co = rng.integers(1, 5)
        x, fw = _layer_case("fwsc", k, 1, co, 5, 6, 7, seed, seed)
        dense = np.einsum("oi,iabe->oiabe", fw.arrays["pointwise"], fw.arrays["depthwise"])
        fu = _bank_like(fw, "full", {"weights": dense})
        a = _k.conv3d_fwsc(x, fw, stride)
        b = _k.conv3d_full(x, fu, stride)
        return _report(case, a.array, b.array, tol=1e-6, note=f"k={k} s={stride} co={co}")

    if case == "dwsc-d1-vs-cube-conv":
        ci = rng.integers(1, 5)
        x, dw = _layer_case("dwsc", k, ci, ci, 1, 6, 7, seed, seed, bias=False, bn=False)
        one = _bank_like(dw, "dwsc", {"depthwise": dw.arrays["depthwise"],
                                      "pointwise": np.array([[1.0]])})
        a = _k.conv3d_dwsc(x, one, 1)
        cube_in = x.permute((1, 0, 2, 3))  # (1, c, h, w): the lone slice as one cube
        ref = _k.depthwise_cube(cube_in, one.arrays["depthwise"], 1).permute((1, 0, 2, 3))
        return _report(case, a.array, ref.array, tol=1e-6, note=f"k={k} ci={ci}")

    if case == "k1-collapse":
        ci, co = rng.integers(1, 5), rng.integers(1, 5)
        x, pw = _layer_case("fwsc", 1, ci, co, 4, 5, 6, seed, seed)
        mix = pw.arrays["pointwise"]
        fu = _bank_like(pw, "full", {"weights": mix.reshape(co, ci, 1, 1, 1)})
        fw = _bank_like(pw, "fwsc", {"depthwise": np.ones((ci, 1, 1, 1)), "pointwise": mix})
        fd = _bank_like(pw, "fdwsc", {"spatial": np.ones((ci, 1, 1)), "disparity": np.ones((ci, 1)),
                                      "pointwise": mix})
        a = _k.conv3d_full(x, fu, stride).array
        b = _k.conv3d_fwsc(x, fw, stride).array
        c = _k.conv3d_fdwsc(x, fd, stride).array
        return _report(case, np.stack([a, a]), np.stack([b, c]), tol=1e-6,
                       note=f"s={stride} ci={ci} co={co}")

    raise ValueError(f"unknown composition case {case!r}; known: {COMPOSITION_CASES}")


# ----------------------------------------------------------------------
# catalog runner for the `check` subcommand
# ----------------------------------------------------------------------


def _worst_over_seeds(name: str, check, seeds: int) -> OracleReport:
    """Run check(seed) for every seed; report the first failure, else the
    largest error."""
    worst = None
    for seed in range(seeds):
        r = check(seed)
        take = (
            worst is None
            or (worst.passed and not r.passed)
            or (worst.passed == r.passed and r.max_rel_err > worst.max_rel_err)
        )
        if take:
            worst = r
    return OracleReport(name, worst.max_abs_err, worst.max_rel_err,
                        worst.tol, worst.passed, note=f"{seeds} seeds")


# (k, stride) of the transposed-conv value check, cycled by seed; the
# first pair is the one whose taps both reach and skip the inserted zeros
_DECONV_KS = ((3, 2), (3, 1), (1, 2), (1, 1))


def _deconv_vs_loop(seed: int) -> OracleReport:
    """deconv3d_full against the loop nest's transposed taps on seeded data."""
    rng = IntStream(seed + 0xDEC0)
    k, stride = _DECONV_KS[seed % len(_DECONV_KS)]
    ci, co = rng.integers(1, 4), rng.integers(1, 4)
    d, h, w = rng.integers(2, 4), rng.integers(3, 5), rng.integers(4, 6)
    x, bank = _layer_case("full", k, ci, co, d, h, w, seed, seed)
    ref, _ = loop_deconv(x, bank, stride)
    got = _k.deconv3d_full(x, bank, stride)
    return _report("deconv-vs-loop", got.array, ref, tol=1e-9,
                   note=f"k={k} s={stride} ci={ci} co={co}")


# the slab checks, (name, `_layer_case` arguments up to the seeds,
# stride): each layer's output spans more than one slab of
# `kernels._SLAB` planes along its leading stage axis (d, or c for
# dwsc), so every window engine runs its slab loop -- the dense,
# per-slice and scatter-phase ones
_SLAB_CASES = tuple(
    (f"{v}-s{s}", (v, 3, 2, 3, 20, 5, 6), s) for v in ("fwsc", "full", "fdwsc") for s in (1, 2)
) + (("dwsc-s1", ("dwsc", 3, 18, 18, 3, 5, 6), 1), ("deconv-s2", ("full", 3, 2, 2, 10, 3, 4), 2))


def _slab_vs_loop(name: str, layer: tuple, stride: int) -> OracleReport:
    """One slab case's production output against its loop oracle."""
    x, bank = _layer_case(*layer, bank_seed=0x51AB, x_seed=0x51AB)
    if name.startswith("slab/deconv"):
        got, (ref, _) = _k.deconv3d_full(x, bank, stride), loop_deconv(x, bank, stride)
    else:
        got, (ref, _) = _k.forward(x, bank, stride), loop_forward(bank.variant, x, bank, stride)
    return _report(name, got.array, ref, tol=1e-9,
                   note=f"s={stride} in={tuple(x.dims)} co={bank.c_out}")


def _closed_form_matches(name: str, layers) -> OracleReport:
    """Closed-form costs against loop counts; `layers` yields
    (spec, in_shape, loop_macs).  Stops at the first mismatch."""
    n_cases = 0
    for spec, in_shape, mac in layers:
        n_cases += 1
        claimed = _costs.count_layer(spec, in_shape).total_macs
        if mac != claimed:
            return OracleReport(name, 1.0, 1.0, 0.0, False,
                                note=f"{spec.id}: loop={mac} closed={claimed} "
                                     f"shape={tuple(in_shape)}")
    return OracleReport(name, 0.0, 0.0, 0.0, True, note=f"{n_cases} randomized layers")


def _conv_layers(seeds: int):
    """Randomized conv3d layers with their loop-nest MAC counts."""
    rng = IntStream(0xC057)
    for _ in range(max(3 * seeds, 12)):
        variant = rng.choice(("full", "fwsc", "dwsc", "fdwsc"))
        k = rng.choice((1, 3, 5))
        stride = rng.choice((1, 2))
        hi = 4 if k == 5 else 5
        ci = rng.integers(1, 4)
        co = ci if variant == "dwsc" else rng.integers(1, 5)
        d, h, w = (rng.integers(2, hi) for _ in range(3))
        bias, bn = bool(rng.integers(0, 2)), bool(rng.integers(0, 2))
        x, bank = _layer_case(variant, k, ci, co, d, h, w, rng.integers(0, 2 ** 31),
                              rng.integers(0, 2 ** 31), bias, bn)
        spec = LayerSpec(id=f"{variant}-k{k}-s{stride}", kind="conv3d", variant=variant,
                         k=k, stride=stride, out_channels=co, bias=bias, bn=bn)
        _, mac = loop_forward(variant, x, bank, stride)
        yield spec, x.dims, mac


def _deconv_layers(seeds: int):
    """Randomized deconv3d layers with their loop-nest MAC counts."""
    rng = IntStream(0xDEC5)
    for _ in range(max(seeds, 4)):
        k = rng.choice((1, 3, 5))
        stride = rng.choice((1, 2, 3))
        ci, co = rng.integers(1, 3), rng.integers(1, 3)
        d, h, w = rng.integers(1, 4), rng.integers(1, 5), rng.integers(1, 6)
        bias, bn = bool(rng.integers(0, 2)), bool(rng.integers(0, 2))
        x, bank = _layer_case("full", k, ci, co, d, h, w, rng.integers(0, 2 ** 31),
                              rng.integers(0, 2 ** 31), bias, bn)
        spec = LayerSpec(id=f"deconv-k{k}-s{stride}", kind="deconv3d", variant="full",
                         k=k, stride=stride, out_channels=co, bias=bias, bn=bn)
        _, mac = loop_deconv(x, bank, stride)
        yield spec, x.dims, mac


def _grad_draws(grng, variant: str, reps: int) -> list:
    """(layer arguments, stride, seed of the upstream gradient) of one
    variant's gradient checks; numbers only, the layers are built when
    the check runs."""
    draws = []
    for _ in range(reps):
        k = grng.choice((1, 3))
        stride = grng.choice((1, 2))
        ci = grng.integers(1, 3)
        co = ci if variant == "dwsc" else grng.integers(1, 3)
        d, h, w = (grng.integers(2, 4) for _ in range(3))
        layer = (variant, k, ci, co, d, h, w,
                 grng.integers(0, 2 ** 31), grng.integers(0, 2 ** 31))
        draws.append((layer, stride, grng.integers(0, 2 ** 31)))
    return draws


# (k, stride, c_in, c_out) of the transposed-conv gradient checks, cycled:
# the k=1 inputs mix unequal channel counts, and the k=3 ones have taps
# that both reach and skip the inserted zeros, on one channel because a
# stride-2 forward runs 8 phases and central differences run two
# forwards per parameter
_GRAD_DECONV = ((1, 1, 2, 3), (1, 2, 3, 2), (3, 1, 1, 1), (3, 2, 1, 1))


def _grad_deconv_draws(reps: int) -> list:
    """The transposed-conv gradient checks' numbers, as `_grad_draws`
    gives them, on their own stream."""
    grng = IntStream(0x6EADDEC)
    draws = []
    for i in range(reps):
        k, stride, ci, co = _GRAD_DECONV[i % len(_GRAD_DECONV)]
        d, h, w = (grng.integers(1, 3) for _ in range(3))
        layer = ("full", k, ci, co, d, h, w,
                 grng.integers(0, 2 ** 31), grng.integers(0, 2 ** 31))
        draws.append((layer, stride, grng.integers(0, 2 ** 31)))
    return draws


def _grad_check(name: str, draws: list, op, bwd) -> OracleReport:
    """Analytic backward `bwd` of `op` against central differences, from
    a seeded random upstream gradient, so that a backward which moves
    the upstream gradient to the wrong sites fails."""
    worst_rel = 0.0
    for layer, stride, gseed in draws:
        x, bank = _layer_case(*layer)
        y = op(x, bank, stride)
        gout = Volume4.random(y.dims, seed=gseed, dtype=np.float64)
        gin, grads = bwd(x, bank, gout, stride)
        fd = finite_diff_grad(x, bank, stride, grad_out=gout, op=op)
        worst_rel = max(worst_rel, max_rel_err(fd["input"], gin.array, floor=1e-6))
        for gname, g in grads.items():
            worst_rel = max(worst_rel, max_rel_err(fd[gname], g, floor=1e-6))
    return OracleReport(name, worst_rel, worst_rel, 1e-4,
                        worst_rel <= 1e-4, note="vs central differences")


def run_catalog(name_filter: Optional[str] = None, seeds: int = 8) -> list:
    """The `check` suite: composition cases, cost-oracle equality on
    randomized layers, gradient spot checks, and the slab cases
    (`_SLAB_CASES`, one fixed layer each, whatever `seeds`).  Returns
    OracleReports.

    `name_filter` keeps the cases whose name contains it; only those
    run.  Every case draws its numbers from its own ``IntStream`` (a
    composition case from seed + 0x5EC0 per seed, deconv-vs-loop from
    seed + 0xDEC0, the cost oracles from 0xC057 and 0xDEC5, the forward
    gradient checks from one 0x6EAD stream in variant order, grad/deconv
    from 0x6EADDEC; a slab case draws none, its layer is seeded 0x51AB),
    all drawn in a fixed order, and builds its layers
    only when it runs, so a filtered run reports exactly the
    lines of the unfiltered one and builds only the selected layers.
    `seeds` (an integer >= 1) sets how many seeds each composition case
    sweeps and scales the randomized and gradient layer counts.
    """
    if not is_int(seeds) or seeds < 1:
        raise KernelError(f"seeds must be an integer >= 1, got {seeds!r}")
    cases = [
        (f"composition/{c}",
         partial(_worst_over_seeds, check=partial(composition_check, c), seeds=seeds))
        for c in COMPOSITION_CASES
    ]
    cases += [
        ("composition/deconv-vs-loop",
         partial(_worst_over_seeds, check=_deconv_vs_loop, seeds=seeds)),
        ("cost-oracle/closed-form-vs-loop",
         partial(_closed_form_matches, layers=_conv_layers(seeds))),
        ("cost-oracle/deconv-scatter",
         partial(_closed_form_matches, layers=_deconv_layers(seeds))),
    ]
    grng = IntStream(0x6EAD)
    for variant in ("full", "fwsc", "dwsc", "fdwsc"):
        cases.append((f"grad/{variant}",
                      partial(_grad_check, draws=_grad_draws(grng, variant, max(seeds // 4, 2)),
                              op=_k.forward, bwd=_k.backward)))
    cases.append(("grad/deconv",
                  partial(_grad_check, draws=_grad_deconv_draws(max(seeds // 2, 4)),
                          op=_k.deconv3d_full, bwd=_k.deconv3d_backward)))
    cases += [(f"slab/{name}", partial(_slab_vs_loop, layer=layer, stride=s))
              for name, layer, s in _SLAB_CASES]
    return [run(name) for name, run in cases if not name_filter or name_filter in name]
