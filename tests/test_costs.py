"""Closed-form MAC/parameter accounting: golden examples, formula laws,
network totals and reduction factors."""

import dataclasses
import hashlib
import itertools
from fractions import Fraction
from importlib import resources

import pytest

from sepconv3d.costs import (
    CostBreakdown,
    count_layer,
    count_network,
    reduction_report,
    scatter_taps,
)
from sepconv3d.netcfg import (
    KINDS,
    VARIANTS,
    ConfigError,
    LayerSpec,
    NetworkConfig,
    layer_output_shape,
    parse_config,
    substitute_variant,
)
from sepconv3d.volume import Shape4


def _spec(variant, k=3, stride=1, out_channels=4, kind="conv3d", bias=False, bn=False):
    return LayerSpec(
        id=f"{variant}-{kind}", kind=kind, variant=variant, k=k, stride=stride,
        out_channels=out_channels, bias=bias, bn=bn,
    )


SHAPE = Shape4(2, 4, 4, 4)  # c_i=2, 64 sites


# ----------------------------------------------------------------------
# golden layer examples
# ----------------------------------------------------------------------


def test_full_layer_example():
    c = count_layer(_spec("full"), SHAPE)
    assert c.macs_core == 13824  # 64 * 27 * 2 * 4
    assert c.params_weights == 216
    assert c.total_macs == 13824
    assert c.total_params == 216


def test_fwsc_layer_example():
    c = count_layer(_spec("fwsc"), SHAPE)
    assert c.macs_depthwise == 3456
    assert c.macs_pointwise == 512
    assert c.total_macs == 3968
    assert c.total_params == 62
    assert count_layer(_spec("full"), SHAPE).total_macs / c.total_macs == pytest.approx(
        3.48, abs=0.01
    )


def test_fdwsc_layer_example():
    c = count_layer(_spec("fdwsc"), SHAPE)
    assert c.macs_depthwise == 1152  # 4 * 16 * 9 * 2, spatial stage
    assert c.macs_disparity == 384
    assert c.macs_pointwise == 512
    assert c.total_macs == 2048
    assert c.total_params == 32


def test_per_site_full_vs_fwsc_at_32_channels():
    shape = Shape4(32, 1, 1, 1)
    full = count_layer(_spec("full", out_channels=32), shape).total_macs
    fwsc = count_layer(_spec("fwsc", out_channels=32), shape).total_macs
    assert full == 27648
    assert fwsc == 1888
    assert full / fwsc == pytest.approx(14.6, abs=0.1)


def test_dwsc_layer_formulas():
    shape = Shape4(3, 5, 6, 8)
    c = count_layer(_spec("dwsc", out_channels=3, stride=2), shape)
    # h,w stride to 3x4; d and channels pass through
    assert c.macs_depthwise == 3 * 4 * 3 * 27 * 5
    assert c.macs_pointwise == 3 * 4 * 3 * 5 * 5
    assert c.params_weights == 27 * 5 + 5 * 5
    with pytest.raises(ConfigError, match="preserves the channel count"):
        count_layer(_spec("dwsc", out_channels=4), shape)


def test_fdwsc_spatial_stage_uses_prestride_disparity():
    shape = Shape4(3, 5, 6, 7)
    c = count_layer(_spec("fdwsc", stride=2, out_channels=4), shape)
    # out extents: d 3, h 3, w 4 -- but the k*k stage still sweeps d=5
    assert c.macs_depthwise == 5 * 3 * 4 * 9 * 3
    assert c.macs_disparity == (3 * 3 * 4) * 3 * 3
    assert c.macs_pointwise == (3 * 3 * 4) * 3 * 4


def test_bias_and_bn_add_one_mac_per_output_element():
    base = count_layer(_spec("full"), SHAPE)
    both = count_layer(_spec("full", bias=True, bn=True), SHAPE)
    out_el = 4 * 4 * 4 * 4
    assert both.macs_bias == out_el
    assert both.macs_bn == out_el
    assert both.total_macs == base.total_macs + 2 * out_el
    assert both.params_bias == 4
    assert both.params_bn == 8


# ----------------------------------------------------------------------
# transposed conv accounting
# ----------------------------------------------------------------------


def _taps_brute(n, k, stride):
    p = (k - 1) // 2
    return sum(
        1
        for i in range(n)
        for a in range(k)
        if 0 <= stride * i + a - p < stride * n
    )


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_scatter_taps_matches_brute_force(n, k, stride):
    assert scatter_taps(n, k, stride) == _taps_brute(n, k, stride)


@pytest.mark.parametrize("n", [1, 4, 9])
def test_scatter_taps_closed_forms_k3(n):
    assert scatter_taps(n, 3, 1) == 3 * n - 2
    assert scatter_taps(n, 3, 2) == 3 * n - 1
    assert scatter_taps(n, 1, 2) == n  # k=1 never leaves the grid


def test_deconv_layer_cost():
    shape = Shape4(3, 4, 5, 6)
    c = count_layer(_spec("full", kind="deconv3d", stride=2, out_channels=2), shape)
    assert c.macs_core == 3 * 2 * scatter_taps(4, 3, 2) * scatter_taps(5, 3, 2) * scatter_taps(6, 3, 2)
    assert c.params_weights == 27 * 3 * 2
    # bias lands on the upsampled grid
    cb = count_layer(
        _spec("full", kind="deconv3d", stride=2, out_channels=2, bias=True), shape
    )
    assert cb.macs_bias == 2 * 8 * 10 * 12


def test_deconv_rejects_separable_variants():
    with pytest.raises(ConfigError, match="deconv3d"):
        count_layer(_spec("fwsc", kind="deconv3d"), SHAPE)


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize(
    "variant, kind",
    [(v, "conv3d") for v in ("full", "fwsc", "dwsc", "fdwsc")] + [("full", "deconv3d")],
)
def test_even_kernel_extent_rejected(variant, kind, k):
    # every kernel rejects an even extent, so the cost model must not bill one
    spec = _spec(variant, k=k, kind=kind, out_channels=SHAPE.c if variant == "dwsc" else 4)
    with pytest.raises(ConfigError, match=f"layer '{spec.id}': k must be odd, got {k}"):
        count_layer(spec, SHAPE)


# ----------------------------------------------------------------------
# formula laws
# ----------------------------------------------------------------------


def test_monotonicity_in_every_extent():
    base = Shape4(3, 4, 5, 6)
    spec = _spec("full", out_channels=4)
    ref = count_layer(spec, base).total_macs
    for bumped in (
        Shape4(4, 4, 5, 6),
        Shape4(3, 5, 5, 6),
        Shape4(3, 4, 6, 6),
        Shape4(3, 4, 5, 7),
    ):
        assert count_layer(spec, bumped).total_macs > ref
    assert count_layer(_spec("full", out_channels=5), base).total_macs > ref
    assert count_layer(_spec("full", k=5), base).total_macs > ref


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("co", [1, 4, 32])
@pytest.mark.parametrize("ci", [1, 3, 16])
def test_full_over_fwsc_ratio_is_exact_rational(k, co, ci):
    shape = Shape4(ci, 3, 4, 5)
    full = count_layer(_spec("full", k=k, out_channels=co), shape).total_macs
    fwsc = count_layer(_spec("fwsc", k=k, out_channels=co), shape).total_macs
    assert Fraction(full, fwsc) == Fraction(k**3 * co, k**3 + co)


def test_cost_breakdown_arithmetic():
    a = CostBreakdown(macs_core=5, params_weights=2)
    b = CostBreakdown(macs_pointwise=3, macs_bias=1, params_bias=4)
    s = a + b
    assert s.total_macs == 9
    assert s.total_params == 6
    with pytest.raises(ValueError):
        CostBreakdown(macs_core=-1)
    with pytest.raises(ValueError):
        CostBreakdown(macs_core=1.5)


# ----------------------------------------------------------------------
# network totals
# ----------------------------------------------------------------------


def _mini_config(**kw):
    layers = (
        LayerSpec("a", "conv3d", "full", 3, 2, 8, False, True),
        LayerSpec("b", "conv3d", "fwsc", 3, 1, 8, True, False),
        LayerSpec("up", "deconv3d", "full", 3, 2, 4, False, False),
    )
    return NetworkConfig(name="mini", input=Shape4(4, 8, 10, 12), layers=layers, **kw)


def test_count_network_totals_are_layer_sums():
    net = count_network(_mini_config())
    assert len(net.layers) == 3
    assert net.total.total_macs == sum(lc.cost.total_macs for lc in net.layers)
    assert net.total.total_params == sum(lc.cost.total_params for lc in net.layers)
    # shapes chain: (4,8,10,12) -> (8,4,5,6) -> (8,4,5,6) -> (4,8,10,12)
    assert net.layers[0].out_shape == Shape4(8, 4, 5, 6)
    assert net.layers[2].out_shape == Shape4(4, 8, 10, 12)


def test_count_network_names_offending_layer():
    bad = NetworkConfig(
        name="bad",
        input=Shape4(4, 8, 10, 12),
        layers=(LayerSpec("oops", "conv3d", "dwsc", 3, 1, 5, False, False),),
    )
    with pytest.raises(ConfigError, match="'oops'"):
        count_network(bad)


def test_count_network_names_offending_layer_once():
    bad = NetworkConfig(
        name="bad",
        input=Shape4(4, 8, 10, 12),
        layers=(LayerSpec("oops", "conv3d", "dwsc", 3, 1, 5, False, False),),
    )
    with pytest.raises(ConfigError) as err:
        count_network(bad)
    assert str(err.value).startswith("layer 'oops': dwsc preserves the channel count")
    assert str(err.value).count("'oops'") == 1, str(err.value)


@pytest.mark.parametrize("field, value", [("k", 3.0), ("stride", 0), ("out_channels", -1)])
def test_count_network_rejects_bad_layer_fields(field, value):
    layer = LayerSpec("bad", "conv3d", "full", 3, 1, 4, False, False)
    cfg = NetworkConfig(name="n", input=Shape4(2, 4, 4, 4),
                        layers=(dataclasses.replace(layer, **{field: value}),))
    with pytest.raises(ConfigError, match="layer 'bad': k, stride and out_channels"):
        count_network(cfg)


def test_reduction_report():
    base = count_network(_mini_config()).total
    assert reduction_report(base, base) == {"ops": 1.0, "params": 1.0}
    half = CostBreakdown(
        macs_core=base.total_macs // 2, params_weights=base.total_params // 2
    )
    rep = reduction_report(base, half)
    assert rep["ops"] == pytest.approx(2.0, rel=1e-9)
    with pytest.raises(ValueError):
        reduction_report(base, CostBreakdown())


# ----------------------------------------------------------------------
# accounting contract
# ----------------------------------------------------------------------

# SHA-256 digests of the sweeps below, recorded from the per-variant
# closed forms that preceded the stage-list fold.  Any change to a
# single field of a single CostBreakdown changes them.
_LAYER_SWEEP_SHA256 = "d46ae470e05ea6bf3fba16d3c45fabab9758733d7b584de80b50b19ae39944c7"
_NETWORK_SWEEP_SHA256 = "9f30d5b4783e4769be77fc6319fe668543093efe00d4715be19a5b7364983920"

# odd and even extents, and a single-disparity volume
_SWEEP_SHAPES = (Shape4(3, 1, 5, 6), Shape4(3, 4, 7, 8), Shape4(2, 5, 6, 9))


def _layer_sweep():
    for kind, k, s, shape, bias, bn in itertools.product(
        KINDS, (1, 3, 5), (1, 2, 3), _SWEEP_SHAPES, (False, True), (False, True)
    ):
        for variant in VARIANTS if kind == "conv3d" else ("full",):
            co = shape.c if variant == "dwsc" else 4
            yield LayerSpec("x", kind, variant, k, s, co, bias, bn), shape


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_layer_costs_match_recorded_sweep():
    lines = [repr(count_layer(spec, shape)) for spec, shape in _layer_sweep()]
    assert len(lines) == 540
    assert _sha256(lines) == _LAYER_SWEEP_SHA256


# recorded from the per-kind and per-variant shape formulas that
# preceded the stage sweep
_SHAPE_SWEEP_SHA256 = "504494d6093447a2479ff25f12420cd8c9267ba2064ecd1a1dcf0850632aef07"


def test_layer_shapes_match_recorded_sweep():
    lines = [repr(layer_output_shape(spec, shape)) for spec, shape in _layer_sweep()]
    assert _sha256(lines) == _SHAPE_SWEEP_SHA256


def test_network_totals_match_recorded_sweep():
    configs = resources.files("sepconv3d.configs")
    names = sorted(p.name for p in configs.iterdir() if p.name.endswith(".json"))
    assert len(names) == 6
    lines = []
    for name in names:
        cfg = parse_config(configs.joinpath(name).read_text())
        for variant in VARIANTS:
            try:
                total = repr(count_network(substitute_variant(cfg, variant)).total)
            except ConfigError:  # dwsc cannot change the channel count
                total = "ConfigError"
            lines.append(f"{name} {variant} {total}")
    assert sum(line.endswith("ConfigError") for line in lines) == 6
    assert _sha256(lines) == _NETWORK_SWEEP_SHA256
