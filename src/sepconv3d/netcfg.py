"""Network descriptions for cost-volume aggregation stacks.

A network config is a JSON document: a named input extent plus an
ordered list of layers that consume the previous layer's output.

::

    {
      "name": "example",
      "input": {"channels": 64, "disparity": 64, "height": 80, "width": 176},
      "layers": [
        {"id": "agg_a", "kind": "conv3d", "variant": "full", "k": 3,
         "stride": 1, "out_channels": 32, "bias": false, "bn": true},
        {"id": "up1", "kind": "deconv3d", "variant": "full", "k": 3,
         "stride": 2, "out_channels": 32, "bias": false, "bn": true,
         "adds_from": "agg_a"}
      ],
      "backbone": {"macs": 19120000000, "params": 3720000}
    }

Parsing is strict: unknown keys anywhere are an error, as are type or
range violations, duplicate layer ids, non-"full" deconv layers, even
kernel extents, and channel-preserving violations for dwsc.  "adds_from"
is bookkeeping for skip connections (it must name an earlier layer) and
does not affect shapes or costs.  The optional "backbone" block records
the fixed cost of everything outside this stack (2D feature extraction
and matching), in raw MACs and raw parameter counts; it lets reports
state this stack's share of whole-network cost.

The stage list of each conv variant (``stage_layout``) also lives here,
and ``layer_stages`` gives a deconv3d layer its own: one "scatter"
stage, the transpose of the "full" dense stage.  The kernels run these
lists.  ``stage_view`` names the axes they run on: (d, c, h, w) for
dwsc, whose slices are disparities, and (c, d, h, w) otherwise.
``stage_sweep`` is the one place a layer's rules are checked, and it
carries the layer's extents through its stages; the output shape
(``layer_output_shape``, which the kernels' shape query calls) and the
cost model's per-stage MACs are both read off that sweep, so each
stride rule is written once.  A config's chain is walked once per
question: one walk sweeps every layer once, checks layer ids and
"adds_from" skips, and serves parsing, ``validate``,
``substitute_variant``, ``infer_shapes`` and ``costs.count_network``.
Every walk validates the chain it sweeps, so a question that bills a
chain needs no walk of its own to check it first: ``profile`` rewrites
variants without walking and lets each count's walk reject its chain.
The config schema is written once too, as the dataclass fields below
(the input block's keys as ``_INPUT_KEYS``, in ``Shape4`` order); the
parser's key checks and ``config_to_dict`` read them.

This module is dependency-free on purpose: profiling a config must not
pull in the numeric stack.  That is also why ``Shape4``, ``VARIANTS``,
``out_extent``, ``same_pad`` and the stage lists live here; ``volume``
re-exports ``Shape4`` and ``kernels`` ``VARIANTS`` and ``out_extent``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from numbers import Integral
from typing import NamedTuple, Optional

__all__ = [
    "KINDS",
    "VARIANTS",
    "BackboneCost",
    "ConfigError",
    "LayerSpec",
    "NetworkConfig",
    "Shape4",
    "config_to_dict",
    "dumps_config",
    "infer_shapes",
    "is_int",
    "layer_output_shape",
    "layer_stages",
    "load_config",
    "out_extent",
    "parse_config",
    "same_pad",
    "stage_layout",
    "stage_sweep",
    "stage_view",
    "substitute_variant",
    "validate",
]

VARIANTS = ("full", "fwsc", "dwsc", "fdwsc")
KINDS = ("conv3d", "deconv3d")


class ConfigError(ValueError):
    """Raised on malformed or inconsistent network configs."""


class Shape4(NamedTuple):
    """Extent of a volume along (c, d, h, w); every field is >= 1."""

    c: int
    d: int
    h: int
    w: int

    @property
    def sites(self) -> int:
        """Number of (d, h, w) grid sites, channels excluded."""
        return self.d * self.h * self.w

    @property
    def numel(self) -> int:
        return self.c * self.d * self.h * self.w


@dataclass(frozen=True)
class LayerSpec:
    id: str
    kind: str
    variant: str
    k: int
    stride: int
    out_channels: int
    bias: bool
    bn: bool
    adds_from: Optional[str] = None


@dataclass(frozen=True)
class BackboneCost:
    macs: int
    params: int


@dataclass(frozen=True)
class NetworkConfig:
    name: str
    input: Shape4
    layers: tuple
    backbone: Optional[BackboneCost] = None

    @property
    def n_conv3d(self) -> int:
        return sum(1 for l in self.layers if l.kind == "conv3d")

    @property
    def n_deconv3d(self) -> int:
        return sum(1 for l in self.layers if l.kind == "deconv3d")


# ----------------------------------------------------------------------
# shape propagation
# ----------------------------------------------------------------------


def is_int(v) -> bool:
    """True for an integer, numpy integers included, but not a bool."""
    # the exact-type test first: every layer sweep makes seven of these
    # checks, and the ABC check took ~0.5 us against ~0.05 us for the
    # type test (2-vCPU Xeon, Python 3.11)
    return type(v) is int or (isinstance(v, Integral) and not isinstance(v, bool))


def out_extent(n: int, stride: int) -> int:
    """Output length of a same-padded strided window: ceil(n / stride)."""
    return -(-n // stride)


def same_pad(k: int) -> tuple:
    """(low, high) zero padding that centres a size-k window on every site."""
    return (k - 1) // 2, k // 2


def stage_layout(variant, k, c_in, c_out, d_in, d_out, s=1):
    """Each conv variant once, as its stages in execution order.

    A stage is (kind, bank array, stored shape, weight view, strides).
    "dense" is a full window plus channel mix, with the view
    (c_out, c_in, ka, kb, kc); "window" is a per-slice window with the
    view (slices, ka, kb, kc); "mix" is a 1x1x1 product along axis 0.
    dwsc's stages run on the (d, c, h, w) view, so its slices are
    disparities.  The kernels run this list and ``costs`` bills it.
    """
    if variant == "full":
        w = (c_out, c_in, k, k, k)
        return (("dense", "weights", w, w, (s, s, s)),)
    if variant == "fdwsc":
        return (
            ("window", "spatial", (c_in, k, k), (c_in, 1, k, k), (1, s, s)),
            ("window", "disparity", (c_in, k), (c_in, k, 1, 1), (s, 1, 1)),
            ("mix", "pointwise", (c_out, c_in), (c_out, c_in), None),
        )
    if variant == "dwsc":
        n, m, strides = d_in, d_out, (1, s, s)
    else:
        n, m, strides = c_in, c_out, (s, s, s)
    return (
        ("window", "depthwise", (n, k, k, k), (n, k, k, k), strides),
        ("mix", "pointwise", (m, n), (m, n), None),
    )


def layer_stages(kind, variant, k, c_in, c_out, d_in, d_out, s=1):
    """The stages of a `kind` layer; the other arguments are ``stage_layout``'s.

    A deconv3d layer is the transpose of its "full" bank's single dense
    stage: one "scatter" stage, with the same array and weight view,
    that upsamples each axis by its stride.
    """
    stages = stage_layout(variant, k, c_in, c_out, d_in, d_out, s)
    if kind == "deconv3d":
        ((_, *rest),) = stages
        return (("scatter", *rest),)
    return stages


def stage_view(variant: str) -> tuple:
    """The axes of (c, d, h, w) that a variant's stages run on, in order:
    (d, c, h, w) for dwsc, whose stages slice disparities, else the
    identity.  Either order is its own inverse."""
    return (1, 0, 2, 3) if variant == "dwsc" else (0, 1, 2, 3)


def stage_sweep(layer: LayerSpec, in_shape: Shape4):
    """Check a layer's rules, then carry its extents through its stages.

    This is where a layer's rules are checked against its input: kind,
    variant, deconv3d only as "full", k, stride and out_channels
    integers >= 1, k odd, four input extents that are integers >= 1,
    and out_channels equal to the channel count the stages produce
    (dwsc preserves it).  Checked integers are used as plain ints, so
    numpy integers sweep like Python ones.  The extents (n, a, b, c)
    start at the input's ``stage_view``.  Each stage maps n to its
    weight view's leading extent and each of a, b, c with its stride s:
    to ceil(x / s) for a dense or window stage, to x * s for a scatter
    stage; a mix leaves them.

    Returns (swept, out): one (stage, extents before, extents after)
    per stage, and the layer's output extents.
    """
    where = f"layer {layer.id!r}"
    if layer.kind not in KINDS:
        raise ConfigError(f"{where}: kind must be one of {list(KINDS)}, got {layer.kind!r}")
    if layer.variant not in VARIANTS:
        raise ConfigError(
            f"{where}: variant must be one of {list(VARIANTS)}, got {layer.variant!r}"
        )
    if layer.kind == "deconv3d" and layer.variant != "full":
        raise ConfigError(f"{where}: deconv3d layers support only the 'full' variant")
    if not all(is_int(v) and v >= 1 for v in (layer.k, layer.stride, layer.out_channels)):
        raise ConfigError(f"{where}: k, stride and out_channels must be integers >= 1")
    if layer.k % 2 == 0:
        raise ConfigError(f"{where}: k must be odd, got {layer.k}")
    if len(in_shape) != 4 or not all(is_int(n) and n >= 1 for n in in_shape):
        raise ConfigError(f"{where}: input extents must be 4 integers >= 1, got {in_shape!r}")
    k, stride, c_out = map(int, (layer.k, layer.stride, layer.out_channels))
    dims = tuple(map(int, in_shape))
    c, d = dims[:2]
    order = stage_view(layer.variant)
    ext = tuple(dims[i] for i in order)
    swept = []
    for stage in layer_stages(layer.kind, layer.variant, k, c, c_out, d, d, stride):
        kind, _, _, view, strides = stage
        grid = ext[1:]
        if kind == "scatter":
            grid = tuple(x * s for x, s in zip(grid, strides))
        elif strides is not None:
            grid = tuple(out_extent(x, s) for x, s in zip(grid, strides))
        after = (view[0],) + grid
        swept.append((stage, ext, after))
        ext = after
    out = Shape4(*(ext[i] for i in order))
    if out.c != layer.out_channels:
        raise ConfigError(
            f"{where}: {layer.variant} preserves the channel count; "
            f"out_channels must equal {out.c}, got {layer.out_channels}"
        )
    return swept, out


def layer_output_shape(layer: LayerSpec, in_shape: Shape4) -> Shape4:
    """Extents produced by one layer, from its input extents: the last
    extents of its ``stage_sweep``, which checks the layer's rules."""
    return stage_sweep(layer, in_shape)[1]


def _sweep_chain(cfg: NetworkConfig):
    """Sweep each layer once along the chain, checking the chain's rules.

    Layer ids must be unique, and a layer's "adds_from" must name an
    earlier layer whose output extents equal its own.  Returns one
    (in_shape, swept, out_shape) per layer, ``swept`` as ``stage_sweep``
    gives it.
    """
    produced = {}
    rows = []
    cur = cfg.input
    for layer in cfg.layers:
        if layer.id in produced:
            raise ConfigError(f"duplicate layer id {layer.id!r}")
        swept, out = stage_sweep(layer, cur)
        if layer.adds_from is not None:
            src = produced.get(layer.adds_from)
            if src is None:
                raise ConfigError(
                    f"layer {layer.id!r}: 'adds_from' must name an earlier layer, "
                    f"got {layer.adds_from!r}"
                )
            if src != out:
                raise ConfigError(
                    f"layer {layer.id!r}: skip source {layer.adds_from!r} produces "
                    f"{tuple(src)}, which cannot be added to {tuple(out)}"
                )
        produced[layer.id] = out
        rows.append((cur, swept, out))
        cur = out
    return rows


def infer_shapes(cfg: NetworkConfig):
    """Per-layer (input_shape, output_shape) pairs along the chain, which
    is validated on the way."""
    return [(sin, sout) for sin, _, sout in _sweep_chain(cfg)]


# ----------------------------------------------------------------------
# strict parsing
# ----------------------------------------------------------------------

_TOP_KEYS = {f.name for f in fields(NetworkConfig)}
# in Shape4's (c, d, h, w) order
_INPUT_KEYS = ("channels", "disparity", "height", "width")
_LAYER_KEYS = {f.name for f in fields(LayerSpec)}
_BACKBONE_KEYS = {f.name for f in fields(BackboneCost)}


def _need(obj, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return obj[key]


def _need_int(obj, key: str, where: str, minimum: int = 1) -> int:
    v = _need(obj, key, where)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: {key!r} must be an integer, got {v!r}")
    if v < minimum:
        raise ConfigError(f"{where}: {key!r} must be >= {minimum}, got {v}")
    return v


def _need_str(obj, key: str, where: str) -> str:
    v = _need(obj, key, where)
    if not isinstance(v, str) or not v:
        raise ConfigError(f"{where}: {key!r} must be a non-empty string, got {v!r}")
    return v


def _need_bool(obj, key: str, where: str) -> bool:
    v = _need(obj, key, where)
    if not isinstance(v, bool):
        raise ConfigError(f"{where}: {key!r} must be a boolean, got {v!r}")
    return v


def _reject_unknown(obj, allowed, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj).difference(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key {sorted(unknown)[0]!r}")


def _parse_layer(obj, index: int) -> LayerSpec:
    where = f"layers[{index}]"
    _reject_unknown(obj, _LAYER_KEYS, where)
    lid = _need_str(obj, "id", where)
    where = f"layer {lid!r}"
    adds_from = obj.get("adds_from")
    if adds_from is not None and (not isinstance(adds_from, str) or not adds_from):
        raise ConfigError(f"{where}: 'adds_from' must be a layer id string")
    return LayerSpec(
        id=lid,
        kind=_need_str(obj, "kind", where),
        variant=_need_str(obj, "variant", where),
        k=_need_int(obj, "k", where),
        stride=_need_int(obj, "stride", where),
        out_channels=_need_int(obj, "out_channels", where),
        bias=_need_bool(obj, "bias", where),
        bn=_need_bool(obj, "bn", where),
        adds_from=adds_from,
    )


def parse_config(text: str) -> NetworkConfig:
    """Parse and validate a JSON network description."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON: {e}") from e
    _reject_unknown(doc, _TOP_KEYS, "config")
    name = _need_str(doc, "name", "config")

    inp = _need(doc, "input", "config")
    _reject_unknown(inp, _INPUT_KEYS, "input")
    shape = Shape4(*(_need_int(inp, key, "input") for key in _INPUT_KEYS))

    raw_layers = _need(doc, "layers", "config")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ConfigError("config: 'layers' must be a non-empty list")
    layers = tuple(_parse_layer(obj, i) for i, obj in enumerate(raw_layers))

    backbone = None
    if "backbone" in doc:
        bb = doc["backbone"]
        _reject_unknown(bb, _BACKBONE_KEYS, "backbone")
        backbone = BackboneCost(
            *(_need_int(bb, f.name, "backbone", minimum=0) for f in fields(BackboneCost))
        )

    cfg = NetworkConfig(name=name, input=shape, layers=layers, backbone=backbone)
    _sweep_chain(cfg)
    return cfg


def validate(cfg: NetworkConfig) -> None:
    """Re-run chain validation, e.g. after programmatic edits."""
    _sweep_chain(cfg)


def load_config(path) -> NetworkConfig:
    """Read a config file.  I/O failures raise OSError; content problems
    raise ConfigError."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    return parse_config(text)


# ----------------------------------------------------------------------
# rewriting and serialization
# ----------------------------------------------------------------------


def _rewrite_variant(cfg: NetworkConfig, target: str) -> NetworkConfig:
    """`cfg` with every conv3d layer set to `target` and deconv3d layers
    untouched.  The chain is not walked: the caller's walk validates it."""
    if target not in VARIANTS:
        raise ConfigError(f"variant must be one of {list(VARIANTS)}, got {target!r}")
    return replace(cfg, layers=tuple(
        replace(l, variant=target) if l.kind == "conv3d" else l for l in cfg.layers
    ))


def substitute_variant(cfg: NetworkConfig, target: str) -> NetworkConfig:
    """Rewrite every conv3d layer to `target`, leaving deconv3d layers
    untouched, and validate the rewritten chain with one walk of its own.

    ``profile`` rewrites without this walk, because the
    ``costs.count_network`` walk that bills the rewritten chain also
    rejects it, with the same message."""
    out = _rewrite_variant(cfg, target)
    _sweep_chain(out)
    return out


def config_to_dict(cfg: NetworkConfig) -> dict:
    doc = {
        "name": cfg.name,
        "input": dict(zip(_INPUT_KEYS, cfg.input)),
        "layers": [asdict(l) for l in cfg.layers],
    }
    for obj in doc["layers"]:
        if obj["adds_from"] is None:
            del obj["adds_from"]
    if cfg.backbone is not None:
        doc["backbone"] = asdict(cfg.backbone)
    return doc


def dumps_config(cfg: NetworkConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2) + "\n"
