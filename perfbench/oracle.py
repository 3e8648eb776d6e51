"""Correctness oracles for the network workloads.

Both are written from the operator definitions, not from the kernels:

* ``check_forward`` recomputes a seeded sample of output sites of every
  layer in float64: a window sum for the conv3d variants, and the
  scatter form of ``verify.loop_deconv`` (input element j, tap a lands
  on output stride*j + a - (k-1)//2) for the transposed conv.  Bias,
  batch-norm affine and the skip addition are applied on top.  Each
  layer is checked against the input it actually received, so one
  wrong layer cannot hide behind another.
* ``check_gradients`` compares a central difference of
  loss = sum(g * y) along a seeded direction with the analytic inner
  product, for the network input and for one weight array per layer.
  The networks are affine in each of these arguments, so the central
  difference is exact up to rounding and the tolerance can be tight.
"""

from __future__ import annotations

import numpy as np

FORWARD_TOL = 1e-5  # |y - ref| <= FORWARD_TOL * max(1, |ref|), per element
GRAD_TOL = 1e-6  # |fd - analytic| <= GRAD_TOL * max(|fd|, |analytic|)
GRAD_STEP = 1e-3
SITES = 48  # sampled output sites per layer, corners included


def _taps(t, n, k, s, transposed):
    """Input index and validity per (output site, tap) along one axis."""
    p = (k - 1) // 2
    a = np.arange(k)[None, :]
    if transposed:
        num = t[:, None] + p - a
        ok = (num >= 0) & (num % s == 0) & (num // s < n)
        j = num // s
    else:
        j = s * t[:, None] + a - p
        ok = (j >= 0) & (j < n)
    return np.where(ok, j, 0), ok


def _patches(x, sites, k, s, transposed):
    """Zero-padded taps under each site: (c, S, k, k, k), float64."""
    (jz, oz), (jy, oy), (jx, ox) = (
        _taps(sites[:, ax], x.shape[ax + 1], k, s, transposed) for ax in range(3)
    )
    p = x[:, jz[:, :, None, None], jy[:, None, :, None], jx[:, None, None, :]]
    mask = oz[:, :, None, None] & oy[:, None, :, None] & ox[:, None, None, :]
    return np.where(mask, p, 0.0)


def reference(layer, x, sites):
    """float64 values of `layer` at `sites` (S, 3) from its input `x`."""
    bank = layer.bank
    a = bank.arrays
    p = _patches(np.asarray(x, np.float64), sites, bank.k, layer.stride,
                 layer.kind == "deconv3d")
    if bank.variant == "full":
        z = np.einsum("oiabc,isabc->os", a["weights"], p)
    elif bank.variant == "fwsc":
        z = a["pointwise"] @ np.einsum("iabc,isabc->is", a["depthwise"], p)
    elif bank.variant == "fdwsc":
        hw = np.einsum("ibc,isabc->isa", a["spatial"], p)  # k*k over (h, w)
        z = a["pointwise"] @ np.einsum("ia,isa->is", a["disparity"], hw)
    else:
        raise ValueError(f"no oracle for variant {bank.variant!r}")
    if bank.bias is not None:
        z = z + bank.bias[:, None]
    if bank.bn_scale is not None:
        z = bank.bn_scale[:, None] * z + bank.bn_shift[:, None]
    return z


def sample_sites(out_shape, rng, n=SITES):
    """Seeded output sites (d, h, w), always including both corners."""
    _, d, h, w = out_shape
    pts = np.stack([rng.integers(0, m, n - 2) for m in (d, h, w)], axis=1)
    return np.concatenate([[[0, 0, 0], [d - 1, h - 1, w - 1]], pts]).astype(np.int64)


def check_forward(net, acts, rng):
    """Check every layer's output on sampled sites.

    Returns (ok, detail of the first failing layer).
    """
    outs = {}
    x = net.x.array
    for layer, y in zip(net.layers, acts):
        y = y.array
        if y.shape != tuple(layer.out_shape):
            return False, f"{layer.id}: shape {y.shape} != {layer.out_shape}"
        sites = sample_sites(y.shape, rng)
        ref = reference(layer, x, sites)
        if layer.adds_from is not None:
            skip = outs[layer.adds_from]
            ref = ref + skip[:, sites[:, 0], sites[:, 1], sites[:, 2]].astype(np.float64)
        got = y[:, sites[:, 0], sites[:, 1], sites[:, 2]].astype(np.float64)
        err = float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))
        if not err <= FORWARD_TOL:
            return False, f"{layer.id}: max error {err:.3e} > {FORWARD_TOL:.0e}"
        outs[layer.id] = y
        x = y
    return True, ""


def _loss(net, g, x, banks, start=0):
    """sum(g * y) of the forward chain from layer `start` on input x."""
    from sepconv3d.volume import Volume4

    v = Volume4(x, copy=False)
    for layer, bank in zip(net.layers[start:], banks[start:]):
        v = layer.fn(v, bank, layer.stride)
    return float(np.vdot(g, v.array))


def with_array(bank, name, arr):
    """Copy of `bank` with array `name` replaced by `arr`."""
    from sepconv3d.kernels import KernelBank

    arrays = dict(bank.arrays)
    arrays[name] = arr
    return KernelBank(bank.variant, bank.k, bank.c_in, bank.c_out, arrays,
                      d_in=bank.d_in, d_out=bank.d_out, bias=bank.bias,
                      bn_scale=bank.bn_scale, bn_shift=bank.bn_shift)


def _rel(fd, an):
    return abs(fd - an) / max(abs(fd), abs(an), 1e-300)


def check_gradients(net, grad_out, grad_x, grads, seed):
    """Directional central differences against a training step's gradients.

    `grad_out` is the upstream gradient g of loss = sum(g * y); `grad_x`
    and `grads` are what the step returned.  Returns (ok, detail of the
    worst check).
    """
    if any(l.adds_from is not None for l in net.layers):
        raise ValueError("the gradient oracle covers plain chains only")
    rng = np.random.default_rng(seed)
    g = np.asarray(grad_out.array, np.float64)
    banks = [l.bank for l in net.layers]
    h = GRAD_STEP

    # inputs of each layer, for restarting the chain at a perturbed layer
    xs = [np.asarray(net.x.array, np.float64)]
    from sepconv3d.volume import Volume4

    for layer, bank in zip(net.layers, banks):
        xs.append(layer.fn(Volume4(xs[-1], copy=False), bank, layer.stride).array)

    checks = []
    v = rng.uniform(-1.0, 1.0, xs[0].shape)
    fd = (_loss(net, g, xs[0] + h * v, banks) - _loss(net, g, xs[0] - h * v, banks)) / (2 * h)
    checks.append(("input", fd, float(np.vdot(np.asarray(grad_x.array), v))))

    for i, layer in enumerate(net.layers):
        names = sorted(layer.bank.arrays)
        name = names[i % len(names)]
        w = layer.bank.arrays[name]
        u = rng.uniform(-1.0, 1.0, w.shape)
        up = banks[:i] + [with_array(layer.bank, name, w + h * u)] + banks[i + 1:]
        dn = banks[:i] + [with_array(layer.bank, name, w - h * u)] + banks[i + 1:]
        fd = (_loss(net, g, xs[i], up, i) - _loss(net, g, xs[i], dn, i)) / (2 * h)
        checks.append((f"{layer.id}.{name}", fd, float(np.vdot(grads[i][name], u))))

    worst_name, worst = "", 0.0
    for name, fd, an in checks:
        r = _rel(fd, an)
        if not r <= worst:
            worst_name, worst = name, r
    return worst <= GRAD_TOL, f"{worst_name}: rel {worst:.3e} (tol {GRAD_TOL:.0e})"
