"""Closed-form parameter and MAC accounting for cost-volume layers.

Counts are exact integers, derived layer by layer from the same stage
list (``netcfg.layer_stages``) the runtime kernels run.  Conventions:

* One MAC is one multiply plus one accumulate.  Window counts include
  taps that fall on "same" padding (a padded implementation executes
  them), so a stride-1 conv costs exactly k^3 window MACs per output
  site.
* A layer's costs are read off its stage list, through the same
  ``netcfg.stage_sweep`` that gives its output shape.  The sweep carries
  the layer's (n, a, b, c) extents through the stages: the input's
  (c, d, h, w), or (d, c, h, w) for dwsc, whose stages run on that view.
  Each stage is billed to the field its bank array names: "weights" to
  ``macs_core``, "spatial" to ``macs_depthwise``, any other array to
  ``macs_<array>``.  ``params_weights`` is the sum of the stored array
  sizes.
* A dense, window or mix stage bills prod(weight view) * prod(grid after
  the stage), where a stage with strides has mapped each axis x to
  ceil(x / s).  So every MAC the staged execution performs is attributed
  to the site it feeds, and fdwsc's spatial stage, which runs before the
  disparity axis is subsampled, is billed at the pre-stride disparity
  extent by stage order alone.  At stride 1 every count collapses to
  the familiar per-site closed forms.
* A scatter stage (transposed conv, "deconv3d") is billed at its input
  extents with the structurally-zero taps of the upsampling skipped:
  c_in * c_out * prod(scatter_taps) over the input axes, one MAC per
  (input element, kernel tap) pair whose target lands inside the
  output.  That is what a scatter implementation executes; a counting
  rule based on the upsampled output extents would bill the inserted
  zeros as real work and overstate stride-2 layers by ~8x.  The
  kernels' phase form executes k*n taps per axis: these scatter taps
  plus the upper-edge taps that read zero padding (3n against the
  billed 3n - 1 at k=3, s=2).
* Bias costs one MAC per output element; the inference-time BN affine
  costs one more.  Each adds its parameter vectors (c_out for bias,
  2*c_out for BN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

from .netcfg import LayerSpec, NetworkConfig, Shape4, infer_shapes, same_pad, stage_sweep

__all__ = [
    "CostBreakdown",
    "LayerCost",
    "NetworkCosts",
    "count_layer",
    "count_network",
    "reduction_report",
    "scatter_taps",
]


@dataclass(frozen=True)
class CostBreakdown:
    """Exact integer costs, split by stage.

    ``macs_core`` is dense-window work (full conv and transposed conv);
    ``macs_depthwise`` the per-slice window stages; ``macs_disparity``
    the per-channel disparity-axis stage of fdwsc; ``macs_pointwise``
    the 1x1x1 mixes.  Parameters split into weights / bias / BN.
    """

    params_weights: int = 0
    params_bias: int = 0
    params_bn: int = 0
    macs_core: int = 0
    macs_depthwise: int = 0
    macs_disparity: int = 0
    macs_pointwise: int = 0
    macs_bias: int = 0
    macs_bn: int = 0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{f.name} must be a non-negative integer, got {v!r}")

    @property
    def total_params(self) -> int:
        return self.params_weights + self.params_bias + self.params_bn

    @property
    def total_macs(self) -> int:
        return (
            self.macs_core
            + self.macs_depthwise
            + self.macs_disparity
            + self.macs_pointwise
            + self.macs_bias
            + self.macs_bn
        )

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        if not isinstance(other, CostBreakdown):
            return NotImplemented
        return CostBreakdown(
            **{f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        )


@lru_cache(maxsize=None)
def scatter_taps(n: int, k: int, stride: int) -> int:
    """Per-axis MAC multiplier of a transposed conv along one axis.

    Counts (input position i, kernel tap a) pairs whose scatter target
    stride*i + a - (k-1)//2 lands inside the output [0, stride*n).
    Separability over axes makes the 3D count the product of the three
    per-axis values.
    """
    p = same_pad(k)[0]
    total = 0
    for i in range(n):
        for a in range(k):
            if 0 <= stride * i + a - p < stride * n:
                total += 1
    return total


# the cost field each bank array's stage bills
_FIELD = {"weights": "macs_core", "spatial": "macs_depthwise"}


def count_layer(layer: LayerSpec, in_shape: Shape4) -> CostBreakdown:
    """Exact costs of one layer given its input extents."""
    swept, out = stage_sweep(layer, in_shape)
    kw = {"params_weights": 0}
    for (kind, name, shape, view, strides), before, after in swept:
        if kind == "scatter":
            taps = (scatter_taps(n, view[2], s) for n, s in zip(before[1:], strides))
            macs = view[0] * view[1] * math.prod(taps)
        else:
            macs = math.prod(view) * math.prod(after[1:])
        field = _FIELD.get(name, f"macs_{name}")
        kw[field] = kw.get(field, 0) + macs
        kw["params_weights"] += math.prod(shape)
    if layer.bias:
        kw["params_bias"] = out.c
        kw["macs_bias"] = out.numel
    if layer.bn:
        kw["params_bn"] = 2 * out.c
        kw["macs_bn"] = out.numel
    return CostBreakdown(**kw)


@dataclass(frozen=True)
class LayerCost:
    layer: LayerSpec
    in_shape: Shape4
    out_shape: Shape4
    cost: CostBreakdown


@dataclass(frozen=True)
class NetworkCosts:
    name: str
    layers: tuple
    total: CostBreakdown


def count_network(cfg: NetworkConfig) -> NetworkCosts:
    """Per-layer breakdowns plus exact totals for a whole config."""
    rows = []
    total = CostBreakdown()
    for layer, (sin, sout) in zip(cfg.layers, infer_shapes(cfg)):
        cost = count_layer(layer, sin)
        rows.append(LayerCost(layer, sin, sout, cost))
        total = total + cost
    return NetworkCosts(name=cfg.name, layers=tuple(rows), total=total)


def reduction_report(base: CostBreakdown, variant: CostBreakdown) -> dict:
    """Reduction factors of `variant` relative to `base` (>1 is cheaper).

    Returned as exact ratios in a dict with keys "ops" and "params";
    format to one decimal for display.
    """
    if variant.total_macs == 0 or variant.total_params == 0:
        raise ValueError("variant totals must be non-zero to form reduction factors")
    return {
        "ops": base.total_macs / variant.total_macs,
        "params": base.total_params / variant.total_params,
    }
