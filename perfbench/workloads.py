"""The benchmark's workloads: set-up and one pass of each.

Everything here drives the package from outside, through the public
functions of ``netcfg``, ``costs``, ``volume`` and ``kernels`` (and the
``sepconv3d`` command line for ``cli-small``).  The package is imported
inside the set-up functions, so that its import time is part of set-up.

Network workloads run ``ganet11-desk`` at input 32x24x32x48:

* ``ganet11-fwsc-fwd``    every conv3d layer rewritten to fwsc, float32,
                          deconv layers through ``deconv3d_full``, with
                          the ``adds_from`` skip additions;
* ``ganet11-full-fwd``    the same stack, all dense;
* ``ganet11-fdwsc-train`` the conv3d-only encoder (``init_a`` .. ``down2_b``)
                          rewritten to fdwsc, float64; forward keeping each
                          layer's input, then ``kernels.backward`` layer by
                          layer from a seeded random upstream gradient.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
from typing import Optional

INPUT = (32, 24, 32, 48)
CONFIG_DIR = os.path.join("src", "sepconv3d", "configs")
CLI_CONFIGS = (
    "ganet11-desk",
    "ganet11-3d",
    "ganetdeep-desk",
    "ganetdeep-3d",
    "psmnet-desk",
    "psmnet-3d",
)
ENCODER_END = "down2_b"

NETWORK = {
    "ganet11-fwsc-fwd": {"variant": "fwsc", "dtype": "float32", "train": False},
    "ganet11-full-fwd": {"variant": "full", "dtype": "float32", "train": False},
    "ganet11-fdwsc-train": {"variant": "fdwsc", "dtype": "float64", "train": True},
}
WORKLOADS = tuple(NETWORK) + ("cli-small",)

# kernel classes the trace reports; forward classes also get GMAC/s
FORWARD_CLASSES = ("conv_full", "conv_fwsc", "conv_fdwsc", "deconv_s1", "deconv_s2")
CLASSES = FORWARD_CLASSES + ("bwd_fdwsc",)
COST_FIELDS = ("macs_core", "macs_depthwise", "macs_disparity", "macs_pointwise")


@dataclasses.dataclass(frozen=True)
class Layer:
    """One executable layer: the public kernel to call and its arguments."""

    id: str
    kind: str
    cls: str
    fn_name: str
    fn: object
    bank: object
    stride: int
    adds_from: Optional[str]
    in_shape: tuple
    out_shape: tuple
    macs: int


@dataclasses.dataclass
class Network:
    name: str
    variant: str
    train: bool
    layers: list
    x: object
    grad_out: object
    cost: object


def config_path(name: str) -> str:
    return os.path.join(CONFIG_DIR, f"{name}.json")


def _seed_for(seed: int, index: int) -> int:
    # distinct counter-mode streams for the input, the gradient and each bank
    return (seed * 1000003 + index) % (2 ** 62)


def setup_network(name: str, seed: int, tr, input_dims=INPUT) -> Network:
    """Import, load and rewrite the config, count it, draw banks and inputs."""
    spec = NETWORK[name]
    with tr.span("kernels.import", cls="kernels.import"):
        from sepconv3d import kernels
    with tr.span("netcfg.load", cls="netcfg.load"):
        from sepconv3d import netcfg
        from sepconv3d.volume import Shape4

        cfg = netcfg.load_config(config_path("ganet11-desk"))
        cfg = dataclasses.replace(cfg, input=Shape4(*input_dims))
        if spec["train"]:
            ids = [l.id for l in cfg.layers]
            cfg = dataclasses.replace(cfg, layers=cfg.layers[: ids.index(ENCODER_END) + 1])
        cfg = netcfg.substitute_variant(cfg, spec["variant"])
    with tr.span("costs.count", cls="costs.count"):
        from sepconv3d import costs

        net_cost = costs.count_network(cfg)
    with tr.span("kernels.bank", cls="kernels.bank"):
        layers = []
        for i, lc in enumerate(net_cost.layers):
            spec_l = lc.layer
            bank = kernels.KernelBank.random(
                spec_l.variant, spec_l.k, lc.in_shape.c, spec_l.out_channels,
                seed=_seed_for(seed, 2 + i), bias=spec_l.bias, bn=spec_l.bn,
            )
            if spec_l.kind == "deconv3d":
                cls, fn_name = f"deconv_s{spec_l.stride}", "deconv3d_full"
            else:
                cls, fn_name = f"conv_{spec_l.variant}", f"conv3d_{spec_l.variant}"
            layers.append(Layer(
                id=spec_l.id, kind=spec_l.kind, cls=cls, fn_name=fn_name,
                fn=getattr(kernels, fn_name), bank=bank, stride=spec_l.stride,
                adds_from=spec_l.adds_from, in_shape=tuple(lc.in_shape),
                out_shape=tuple(lc.out_shape), macs=lc.cost.total_macs,
            ))
    with tr.span("volume.input", cls="volume.input"):
        from sepconv3d.volume import Volume4

        x = Volume4.random(input_dims, seed=_seed_for(seed, 0), dtype=spec["dtype"])
        grad_out = None
        if spec["train"]:
            grad_out = Volume4.random(layers[-1].out_shape, seed=_seed_for(seed, 1),
                                      dtype="float64")
    return Network(name, spec["variant"], spec["train"], layers, x, grad_out, net_cost)


def skip_add(y, skip):
    """Skip connection: the layer's output plus an earlier layer's output."""
    from sepconv3d.volume import Volume4

    return Volume4(y.array + skip.array, copy=False)


def forward(net: Network, tr, layers=None):
    """Run the stack once; returns every layer's output, in order."""
    outs = {}
    acts = []
    x = net.x
    for layer in layers or net.layers:
        with tr.span(f"kernels.{layer.fn_name}", cls=layer.cls, layer=layer.id):
            y = layer.fn(x, layer.bank, layer.stride)
        if layer.adds_from is not None:
            with tr.span("volume.skip_add", cls="skip_add", layer=layer.id):
                y = skip_add(y, outs[layer.adds_from])
        outs[layer.id] = y
        acts.append(y)
        x = y
    return acts


def train_step(net: Network, tr, backward=None, grad_out=None):
    """Forward keeping each layer's input, then backward layer by layer.

    Returns (activations, grad wrt the network input, per-layer grads).
    """
    if backward is None:
        from sepconv3d.kernels import backward
    acts = forward(net, tr)
    inputs = [net.x] + acts[:-1]
    g = net.grad_out if grad_out is None else grad_out
    grads = [None] * len(net.layers)
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        with tr.span("kernels.backward", cls=f"bwd_{net.variant}", layer=layer.id):
            g, grads[i] = backward(inputs[i], layer.bank, g, layer.stride)
    return acts, g, grads


def digest(arrays) -> str:
    """SHA-256 over the raw bytes of the given arrays, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def act_bytes(net: Network) -> int:
    """Bytes of the activations one pass holds (input plus every output)."""
    n = net.x.array.size + sum(math.prod(l.out_shape) for l in net.layers)
    return n * net.x.array.itemsize


def macs_per_byte(net: Network, cls: str) -> float:
    """Billed MACs over bytes of inputs, outputs and weights, computed at
    float64 working precision (8 bytes an element) for one kernel class."""
    macs = 0
    elems = 0
    for layer in net.layers:
        if layer.cls == cls:
            macs += layer.macs
            weights = sum(a.size for a in layer.bank.arrays.values())
            elems += math.prod(layer.in_shape) + math.prod(layer.out_shape) + weights
    return macs / (8 * elems) if elems else 0.0


def class_macs(net: Network) -> dict:
    """Billed MACs per forward kernel class, from the cost model."""
    out = {}
    for layer in net.layers:
        out[layer.cls] = out.get(layer.cls, 0) + layer.macs
    return out
