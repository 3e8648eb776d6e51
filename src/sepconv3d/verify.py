"""Independent oracles for the convolution operators and the cost model.

Three families of checks live here:

* ``loop_forward`` / ``loop_deconv`` - brute-force nested-loop
  re-implementations of every operator, written against the definitions
  rather than the production kernels.  They return both the computed
  values and the number of multiply-accumulates the loops executed, so
  one nest serves as value oracle and as MAC counter.
* ``finite_diff_grad`` - central finite differences of the scalar loss
  sum(output) with respect to every input element and every weight.
* ``composition_check`` - cross-variant identities (a separable op must
  equal its composed stages, collapse to the dense op in degenerate
  settings, and so on).

``counted_forward`` pairs the production forward output with the
independent loop count; closed-form costs agreeing with that count for
randomized configurations is the anti-drift check tying kernels and
cost model together.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import costs as _costs
from . import kernels as _k
from .kernels import KernelBank, KernelError
from .netcfg import LayerSpec
from .volume import Shape4, Volume4

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


# ----------------------------------------------------------------------
# brute-force loop nests
#
# Nested python loops over output sites and kernel taps.  `mac` is
# incremented exactly once per multiply-accumulate the nest performs;
# window taps count whether or not they land on padding (a padded
# implementation executes those MACs on zeros).
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


def _loop_full(x, bank: KernelBank, s: int):
    ci, d, h, w = len(x), len(x[0]), len(x[0][0]), len(x[0][0][0])
    k = bank.k
    p = (k - 1) // 2
    co = bank.c_out
    D, H, W = _ceil(d, s), _ceil(h, s), _ceil(w, s)
    wt = bank.arrays["weights"].tolist()
    out = _zeros(co, D, H, W)
    mac = 0
    for o in range(co):
        wo = wt[o]
        for z in range(D):
            for y in range(H):
                for xx in range(W):
                    acc = 0.0
                    for i in range(ci):
                        xi = x[i]
                        wi = wo[i]
                        for a in range(k):
                            dz = s * z + a - p
                            inside_z = 0 <= dz < d
                            wa = wi[a]
                            for b in range(k):
                                dy = s * y + b - p
                                inside_y = inside_z and 0 <= dy < h
                                wb = wa[b]
                                for c in range(k):
                                    dx = s * xx + c - p
                                    mac += 1
                                    if inside_y and 0 <= dx < w:
                                        acc += wb[c] * xi[dz][dy][dx]
                    out[o][z][y][xx] = acc
    return out, mac


def _loop_depthwise(x, wt, k, strides, mac_box):
    """Per-slice window over the last three axes; wt is (n, ka, kb, kc)."""
    n, d, h, w = len(x), len(x[0]), len(x[0][0]), len(x[0][0][0])
    ka, kb, kc = len(wt[0]), len(wt[0][0]), len(wt[0][0][0])
    pa, pb, pc = (ka - 1) // 2, (kb - 1) // 2, (kc - 1) // 2
    sa, sb, sc = strides
    D, H, W = _ceil(d, sa), _ceil(h, sb), _ceil(w, sc)
    out = _zeros(n, D, H, W)
    mac = 0
    for i in range(n):
        xi = x[i]
        wi = wt[i]
        for z in range(D):
            for y in range(H):
                for xx in range(W):
                    acc = 0.0
                    for a in range(ka):
                        dz = sa * z + a - pa
                        ok_z = 0 <= dz < d
                        wa = wi[a]
                        for b in range(kb):
                            dy = sb * y + b - pb
                            ok_y = ok_z and 0 <= dy < h
                            wb = wa[b]
                            for c in range(kc):
                                dx = sc * xx + c - pc
                                mac += 1
                                if ok_y and 0 <= dx < w:
                                    acc += wb[c] * xi[dz][dy][dx]
                    out[i][z][y][xx] = acc
    mac_box[0] += mac
    return out


def _loop_pointwise(x, pw, mac_box):
    """Mix along axis 0: out[o] = sum_i pw[o][i] * x[i]."""
    n_in, d, h, w = len(x), len(x[0]), len(x[0][0]), len(x[0][0][0])
    n_out = len(pw)
    out = _zeros(n_out, d, h, w)
    mac = 0
    for o in range(n_out):
        po = pw[o]
        oo = out[o]
        for i in range(n_in):
            coef = po[i]
            xi = x[i]
            for z in range(d):
                for y in range(h):
                    row = xi[z][y]
                    orow = oo[z][y]
                    for xx in range(w):
                        orow[xx] += coef * row[xx]
                        mac += 1
    mac_box[0] += mac
    return out


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
    s = int(stride)
    xl = x.array.astype(np.float64).tolist()
    box = [0]

    if variant == "full":
        out, mac = _loop_full(xl, bank, s)
        box[0] = mac
    elif variant == "fwsc":
        mid = _loop_depthwise(xl, bank.arrays["depthwise"].tolist(), bank.k, (s, s, s), box)
        out = _loop_pointwise(mid, bank.arrays["pointwise"].tolist(), box)
    elif variant == "dwsc":
        if x.d != bank.d_in:
            raise KernelError(f"input has {x.d} disparities, bank expects {bank.d_in}")
        xd = _transpose_xd(xl)  # (d, c, h, w)
        mid = _loop_depthwise(xd, bank.arrays["depthwise"].tolist(), bank.k, (1, s, s), box)
        outd = _loop_pointwise(mid, bank.arrays["pointwise"].tolist(), box)
        out = _transpose_xd(outd)
    elif variant == "fdwsc":
        k, ci = bank.k, bank.c_in
        sp = bank.arrays["spatial"].reshape(ci, 1, k, k).tolist()
        dp = bank.arrays["disparity"].reshape(ci, k, 1, 1).tolist()
        mid = _loop_depthwise(xl, sp, k, (1, s, s), box)
        mid = _loop_depthwise(mid, dp, k, (s, 1, 1), box)
        out = _loop_pointwise(mid, bank.arrays["pointwise"].tolist(), box)
    else:
        raise KernelError(f"unknown variant {variant!r}")

    out, extra = _affine_loop(out, bank)
    return np.array(out, dtype=np.float64), box[0] + extra


def loop_deconv(x: Volume4, bank: KernelBank, stride: int = 1):
    """Brute-force transposed conv via the scatter form.

    Each input element is multiplied by each kernel tap and scattered to
    stride*i + tap - (k-1)//2; MACs whose target falls outside the
    output are never executed, so the count skips the upsampling zeros.
    """
    if bank.variant != "full":
        raise KernelError(f"transposed conv needs a 'full' bank, got {bank.variant!r}")
    if x.c != bank.c_in:
        raise KernelError(f"input has {x.c} channels, bank expects {bank.c_in}")
    s = int(stride)
    k = bank.k
    p = (k - 1) // 2
    ci, d, h, w = x.dims
    co = bank.c_out
    D, H, W = d * s, h * s, w * s
    wt = bank.arrays["weights"].tolist()
    xl = x.array.astype(np.float64).tolist()
    out = _zeros(co, D, H, W)
    mac = 0
    for o in range(co):
        wo = wt[o]
        oo = out[o]
        for i in range(ci):
            xi = xl[i]
            wi = wo[i]
            for z in range(d):
                for y in range(h):
                    for xx in range(w):
                        v = xi[z][y][xx]
                        for a in range(k):
                            tz = s * z + a - p
                            if not 0 <= tz < D:
                                continue
                            wa = wi[a]
                            for b in range(k):
                                ty = s * y + b - p
                                if not 0 <= ty < H:
                                    continue
                                wb = wa[b]
                                orow2 = oo[tz][ty]
                                for c in range(k):
                                    tx = s * xx + c - p
                                    if 0 <= tx < W:
                                        orow2[tx] += wb[c] * v
                                        mac += 1
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


def finite_diff_grad(
    x: Volume4,
    bank: KernelBank,
    stride: int = 1,
    step: float = 1e-5,
) -> dict:
    """Central differences of loss = sum(forward(x)) w.r.t. everything.

    Returns {"input": array like x} plus one entry per bank array and
    per present bias/BN vector.  Requires float64 input; step must lie
    in [1e-7, 1e-3].
    """
    if x.dtype != np.float64:
        raise KernelError(f"finite differences require float64 input, got {x.dtype}")
    if not (1e-7 <= step <= 1e-3):
        raise KernelError(f"step must be within [1e-7, 1e-3], got {step}")

    def loss_with(xa: np.ndarray, arrays: dict, vecs: dict) -> float:
        b = KernelBank(
            bank.variant,
            bank.k,
            bank.c_in,
            bank.c_out,
            arrays,
            d_in=bank.d_in,
            d_out=bank.d_out,
            bias=vecs.get("bias"),
            bn_scale=vecs.get("bn_scale"),
            bn_shift=vecs.get("bn_shift"),
        )
        y = _k.forward(Volume4(xa, copy=False), b, stride)
        return float(np.sum(y.array, dtype=np.float64))

    base_arrays = {n: a.copy() for n, a in bank.arrays.items()}
    base_vecs = {}
    if bank.bias is not None:
        base_vecs["bias"] = bank.bias.copy()
    if bank.bn_scale is not None:
        base_vecs["bn_scale"] = bank.bn_scale.copy()
        base_vecs["bn_shift"] = bank.bn_shift.copy()

    xa = x.to_numpy()

    def _central(arr: np.ndarray) -> np.ndarray:
        """Central differences along each element of `arr`, an array the
        loss reads, perturbed in place one element at a time."""
        g = np.zeros_like(arr)
        fl = arr.reshape(-1)
        gfl = g.reshape(-1)
        for j in range(fl.size):
            keep = fl[j]
            fl[j] = keep + step
            up = loss_with(xa, base_arrays, base_vecs)
            fl[j] = keep - step
            dn = loss_with(xa, base_arrays, base_vecs)
            fl[j] = keep
            gfl[j] = (up - dn) / (2.0 * step)
        return g

    grads = {"input": _central(xa)}
    for name, arr in {**base_arrays, **base_vecs}.items():
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


def _report(case: str, a, b, tol: float, bit_exact: bool = False, note: str = "") -> OracleReport:
    abs_err = _max_abs_err(a, b)
    rel = max_rel_err(a, b)
    passed = bool(np.array_equal(a, b)) if bit_exact else rel <= tol
    return OracleReport(
        case=case,
        max_abs_err=abs_err,
        max_rel_err=rel,
        tol=0.0 if bit_exact else tol,
        passed=passed,
        note=note,
    )


def composition_check(case: str, seed: int = 0) -> OracleReport:
    """Run one catalog case on seeded random data."""
    rng = np.random.default_rng(seed + 0x5EC0)
    k = int(rng.choice([1, 3]))
    stride = int(rng.choice([1, 2]))

    if case == "fwsc-vs-stages":
        ci, co = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = Volume4.random((ci, 4, 6, 8), seed=seed, dtype=np.float64)
        bank = KernelBank.random("fwsc", k, ci, co, seed=seed, bias=True, bn=True)
        fused = _k.conv3d_fwsc(x, bank, stride)
        mid = _k.depthwise_cube(x, bank.arrays["depthwise"], stride)
        staged = _k.pointwise_mix(mid, bank.arrays["pointwise"])
        staged = _k.scale_shift(staged, bias=bank.bias, scale=bank.bn_scale, shift=bank.bn_shift)
        return _report(case, fused.array, staged.array, tol=0.0, bit_exact=True,
                       note=f"k={k} s={stride} ci={ci} co={co}")

    if case == "fdwsc-rank1-vs-fwsc":
        ci, co = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = Volume4.random((ci, 5, 6, 7), seed=seed, dtype=np.float64)
        fd = KernelBank.random("fdwsc", k, ci, co, seed=seed, bias=True, bn=True)
        cube = np.einsum(
            "ca,cbe->cabe", fd.arrays["disparity"], fd.arrays["spatial"]
        )  # W[d-tap, h-tap, w-tap] = D[d-tap] * S[h-tap, w-tap], per channel
        fw = KernelBank(
            "fwsc", k, ci, co,
            {"depthwise": cube, "pointwise": fd.arrays["pointwise"]},
            bias=fd.bias, bn_scale=fd.bn_scale, bn_shift=fd.bn_shift,
        )
        a = _k.conv3d_fdwsc(x, fd, stride)
        b = _k.conv3d_fwsc(x, fw, stride)
        return _report(case, a.array, b.array, tol=1e-6, note=f"k={k} s={stride} ci={ci} co={co}")

    if case == "fwsc-c1-vs-full":
        co = int(rng.integers(1, 5))
        x = Volume4.random((1, 5, 6, 7), seed=seed, dtype=np.float64)
        fw = KernelBank.random("fwsc", k, 1, co, seed=seed, bias=True, bn=True)
        dense = np.einsum("oi,iabe->oiabe", fw.arrays["pointwise"], fw.arrays["depthwise"])
        fu = KernelBank(
            "full", k, 1, co, {"weights": dense},
            bias=fw.bias, bn_scale=fw.bn_scale, bn_shift=fw.bn_shift,
        )
        a = _k.conv3d_fwsc(x, fw, stride)
        b = _k.conv3d_full(x, fu, stride)
        return _report(case, a.array, b.array, tol=1e-6, note=f"k={k} s={stride} co={co}")

    if case == "dwsc-d1-vs-cube-conv":
        ci = int(rng.integers(1, 5))
        x = Volume4.random((ci, 1, 6, 7), seed=seed, dtype=np.float64)
        dw = KernelBank.random("dwsc", k, ci, d_in=1, seed=seed)
        one = KernelBank(
            "dwsc", k, ci, ci,
            {"depthwise": dw.arrays["depthwise"], "pointwise": np.array([[1.0]])},
            d_in=1,
        )
        a = _k.conv3d_dwsc(x, one, 1)
        cube_in = x.permute((1, 0, 2, 3))  # (1, c, h, w): the lone slice as one cube
        ref = _k.depthwise_cube(cube_in, one.arrays["depthwise"], 1).permute((1, 0, 2, 3))
        return _report(case, a.array, ref.array, tol=1e-6, note=f"k={k} ci={ci}")

    if case == "k1-collapse":
        ci, co = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = Volume4.random((ci, 4, 5, 6), seed=seed, dtype=np.float64)
        pw = KernelBank.random("fwsc", 1, ci, co, seed=seed, bias=True, bn=True)
        mix = pw.arrays["pointwise"]
        fu = KernelBank(
            "full", 1, ci, co, {"weights": mix.reshape(co, ci, 1, 1, 1)},
            bias=pw.bias, bn_scale=pw.bn_scale, bn_shift=pw.bn_shift,
        )
        fw = KernelBank(
            "fwsc", 1, ci, co,
            {"depthwise": np.ones((ci, 1, 1, 1)), "pointwise": mix},
            bias=pw.bias, bn_scale=pw.bn_scale, bn_shift=pw.bn_shift,
        )
        fd = KernelBank(
            "fdwsc", 1, ci, co,
            {"spatial": np.ones((ci, 1, 1)), "disparity": np.ones((ci, 1)), "pointwise": mix},
            bias=pw.bias, bn_scale=pw.bn_scale, bn_shift=pw.bn_shift,
        )
        a = _k.conv3d_full(x, fu, stride)
        b = _k.conv3d_fwsc(x, fw, stride)
        c = _k.conv3d_fdwsc(x, fd, stride)
        err = max(max_rel_err(a.array, b.array), max_rel_err(a.array, c.array))
        abs_err = max(_max_abs_err(a.array, b.array), _max_abs_err(a.array, c.array))
        return OracleReport(case, abs_err, err, 1e-6, err <= 1e-6,
                            note=f"s={stride} ci={ci} co={co}")

    raise ValueError(f"unknown composition case {case!r}; known: {COMPOSITION_CASES}")


# ----------------------------------------------------------------------
# catalog runner for the `check` subcommand
# ----------------------------------------------------------------------


def _random_layer_case(rng) -> tuple:
    """One randomized (variant, spec, in_shape, bank, stride) tuple."""
    variant = str(rng.choice(("full", "fwsc", "dwsc", "fdwsc")))
    k = int(rng.choice([1, 3, 5]))
    stride = int(rng.choice([1, 2]))
    hi = 4 if k == 5 else 5
    ci = int(rng.integers(1, 4))
    co = ci if variant == "dwsc" else int(rng.integers(1, 5))
    d, h, w = (int(rng.integers(2, hi)) for _ in range(3))
    bias = bool(rng.integers(0, 2))
    bn = bool(rng.integers(0, 2))
    bank = KernelBank.random(
        variant, k, ci, co,
        d_in=d if variant == "dwsc" else None,
        seed=int(rng.integers(0, 2 ** 31)),
        bias=bias, bn=bn,
    )
    spec = LayerSpec(
        id=f"{variant}-k{k}-s{stride}", kind="conv3d", variant=variant,
        k=k, stride=stride, out_channels=co, bias=bias, bn=bn,
    )
    return variant, spec, Shape4(ci, d, h, w), bank, stride


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
    """deconv3d_full against the scatter-form loop nest on seeded data."""
    rng = np.random.default_rng(seed + 0xDEC0)
    k, stride = _DECONV_KS[seed % len(_DECONV_KS)]
    ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    d, h, w = int(rng.integers(2, 4)), int(rng.integers(3, 5)), int(rng.integers(4, 6))
    x = Volume4.random((ci, d, h, w), seed=seed, dtype=np.float64)
    bank = KernelBank.random("full", k, ci, co, seed=seed, bias=True, bn=True)
    ref, _ = loop_deconv(x, bank, stride)
    got = _k.deconv3d_full(x, bank, stride)
    return _report("deconv-vs-loop", got.array, ref, tol=1e-9,
                   note=f"k={k} s={stride} ci={ci} co={co}")


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
    rng = np.random.default_rng(0xC057)
    for _ in range(max(3 * seeds, 12)):
        variant, spec, in_shape, bank, stride = _random_layer_case(rng)
        x = Volume4.random(in_shape, seed=int(rng.integers(0, 2 ** 31)), dtype=np.float64)
        _, mac = counted_forward(x, bank, stride)
        yield spec, in_shape, mac


def _deconv_layers(seeds: int):
    """Randomized deconv3d layers with their scatter-loop MAC counts."""
    rng = np.random.default_rng(0xDEC5)
    for _ in range(max(seeds, 4)):
        k = int(rng.choice([1, 3, 5]))
        stride = int(rng.choice([1, 2, 3]))
        ci, co = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        d, h, w = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 6))
        bias, bn = bool(rng.integers(0, 2)), bool(rng.integers(0, 2))
        bank = KernelBank.random("full", k, ci, co, seed=int(rng.integers(0, 2 ** 31)),
                                 bias=bias, bn=bn)
        spec = LayerSpec(id=f"deconv-k{k}-s{stride}", kind="deconv3d", variant="full",
                         k=k, stride=stride, out_channels=co, bias=bias, bn=bn)
        in_shape = Shape4(ci, d, h, w)
        x = Volume4.random(in_shape, seed=int(rng.integers(0, 2 ** 31)), dtype=np.float64)
        _, mac = loop_deconv(x, bank, stride)
        yield spec, in_shape, mac


def _grad_inputs(grng, variant: str, reps: int) -> list:
    """(x, bank, stride) of one variant's gradient checks."""
    inputs = []
    for _ in range(reps):
        k = int(grng.choice([1, 3]))
        stride = int(grng.choice([1, 2]))
        ci = int(grng.integers(1, 3))
        co = ci if variant == "dwsc" else int(grng.integers(1, 3))
        d, h, w = (int(grng.integers(2, 4)) for _ in range(3))
        bank = KernelBank.random(
            variant, k, ci, co,
            d_in=d if variant == "dwsc" else None,
            seed=int(grng.integers(0, 2 ** 31)), bias=True, bn=True,
        )
        x = Volume4.random((ci, d, h, w), seed=int(grng.integers(0, 2 ** 31)),
                           dtype=np.float64)
        inputs.append((x, bank, stride))
    return inputs


def _grad_check(name: str, inputs: list) -> OracleReport:
    """Analytic backward against central differences."""
    worst_rel = 0.0
    for x, bank, stride in inputs:
        y = _k.forward(x, bank, stride)
        gout = Volume4(np.ones(tuple(y.dims)), copy=False)
        gin, grads = _k.backward(x, bank, gout, stride)
        fd = finite_diff_grad(x, bank, stride, step=1e-5)
        worst_rel = max(worst_rel, max_rel_err(fd["input"], gin.array, floor=1e-6))
        for gname, g in grads.items():
            worst_rel = max(worst_rel, max_rel_err(fd[gname], g, floor=1e-6))
    return OracleReport(name, worst_rel, worst_rel, 1e-4,
                        worst_rel <= 1e-4, note="vs central differences")


def run_catalog(name_filter: Optional[str] = None, seeds: int = 8) -> list:
    """The `check` suite: composition cases, cost-oracle equality on
    randomized layers, and gradient spot checks.  Returns OracleReports.

    `name_filter` keeps the cases whose name contains it; only those
    run.  Every case draws its inputs from its own streams, so a filtered
    run reports exactly the lines of the unfiltered one.
    """
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
    grng = np.random.default_rng(0x6EAD)
    for variant in ("full", "fwsc", "dwsc", "fdwsc"):
        inputs = _grad_inputs(grng, variant, max(seeds // 4, 2))
        cases.append((f"grad/{variant}", partial(_grad_check, inputs=inputs)))
    return [run(name) for name, run in cases if not name_filter or name_filter in name]
