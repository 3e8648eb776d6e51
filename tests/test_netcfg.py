"""Strict config parsing, shape propagation, variant rewriting, and the
shipped network descriptions."""

import json
from importlib import resources

import pytest

from sepconv3d import kernels, netcfg
from sepconv3d.netcfg import (
    ConfigError,
    LayerSpec,
    NetworkConfig,
    config_to_dict,
    dumps_config,
    infer_shapes,
    layer_output_shape,
    load_config,
    parse_config,
    substitute_variant,
    validate,
)
from sepconv3d.volume import Shape4, Volume4


def _doc(**over):
    doc = {
        "name": "t",
        "input": {"channels": 4, "disparity": 6, "height": 8, "width": 10},
        "layers": [
            {
                "id": "a",
                "kind": "conv3d",
                "variant": "full",
                "k": 3,
                "stride": 1,
                "out_channels": 4,
                "bias": False,
                "bn": True,
            }
        ],
    }
    doc.update(over)
    return doc


def _parse(**over):
    return parse_config(json.dumps(_doc(**over)))


def _layer(**over):
    base = {
        "id": "x",
        "kind": "conv3d",
        "variant": "full",
        "k": 3,
        "stride": 1,
        "out_channels": 4,
        "bias": False,
        "bn": False,
    }
    base.update(over)
    return base


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------


def test_minimal_config_parses():
    cfg = _parse()
    assert cfg.name == "t"
    assert cfg.input == Shape4(4, 6, 8, 10)
    assert cfg.backbone is None
    assert cfg.n_conv3d == 1 and cfg.n_deconv3d == 0
    assert cfg.layers[0].bn is True


def test_backbone_block():
    cfg = _parse(backbone={"macs": 100, "params": 0})
    assert cfg.backbone.macs == 100
    assert cfg.backbone.params == 0


def test_invalid_json():
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config("{nope")


@pytest.mark.parametrize(
    "mutate, msg",
    [
        (lambda d: d.update(extra=1), "config: unknown key 'extra'"),
        (lambda d: d["input"].update(depth=3), "input: unknown key 'depth'"),
        (lambda d: d["layers"][0].update(pad=1), r"layers\[0\]: unknown key 'pad'"),
        (lambda d: d.update(backbone={"macs": 1, "params": 1, "x": 2}),
         "backbone: unknown key 'x'"),
    ],
)
def test_unknown_keys_rejected_everywhere(mutate, msg):
    doc = _doc()
    mutate(doc)
    with pytest.raises(ConfigError, match=msg):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize("key", ["name", "input", "layers"])
def test_missing_top_level_keys(key):
    doc = _doc()
    del doc[key]
    with pytest.raises(ConfigError, match=key):
        parse_config(json.dumps(doc))


def test_bool_is_not_an_int():
    doc = _doc()
    doc["layers"][0]["k"] = True
    with pytest.raises(ConfigError, match="'k' must be an integer"):
        parse_config(json.dumps(doc))


def test_int_is_not_a_bool():
    doc = _doc()
    doc["layers"][0]["bias"] = 0
    with pytest.raises(ConfigError, match="'bias' must be a boolean"):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize(
    "field, value, msg",
    [
        ("kind", "conv2d", "kind must be one of"),
        ("variant", "depthwise", "variant must be one of"),
        ("k", 0, "'k' must be >= 1"),
        ("stride", -2, "'stride' must be >= 1"),
        ("out_channels", 0, "'out_channels' must be >= 1"),
        ("adds_from", 7, "'adds_from' must be a layer id"),
    ],
)
def test_layer_field_validation(field, value, msg):
    with pytest.raises(ConfigError, match=msg):
        _parse(layers=[_layer(**{field: value})])


def test_deconv_must_be_full():
    with pytest.raises(ConfigError, match="deconv3d layers support only the 'full'"):
        _parse(layers=[_layer(kind="deconv3d", variant="fwsc", stride=2)])


def test_empty_layer_list():
    with pytest.raises(ConfigError, match="non-empty list"):
        _parse(layers=[])


def test_duplicate_layer_ids():
    with pytest.raises(ConfigError, match="duplicate layer id 'x'"):
        _parse(layers=[_layer(), _layer()])


def test_dwsc_channel_preservation_enforced():
    with pytest.raises(ConfigError, match="out_channels must equal 4, got 5"):
        _parse(layers=[_layer(variant="dwsc", out_channels=5)])
    cfg = _parse(layers=[_layer(variant="dwsc", out_channels=4)])
    assert cfg.layers[0].variant == "dwsc"


def test_adds_from_must_name_earlier_layer():
    with pytest.raises(ConfigError, match="must name an earlier layer"):
        _parse(layers=[_layer(adds_from="ghost")])
    # self-reference is a forward reference too
    with pytest.raises(ConfigError, match="must name an earlier layer"):
        _parse(layers=[_layer(adds_from="x")])


def test_adds_from_shape_mismatch():
    with pytest.raises(ConfigError, match="cannot be added to"):
        _parse(
            layers=[
                _layer(id="a"),
                _layer(id="b", stride=2, adds_from="a"),
            ]
        )


def test_adds_from_accepts_matching_shapes():
    cfg = _parse(layers=[_layer(id="a"), _layer(id="b", adds_from="a")])
    assert cfg.layers[1].adds_from == "a"
    validate(cfg)  # re-validation is idempotent


# ----------------------------------------------------------------------
# shape propagation
# ----------------------------------------------------------------------


def test_strided_conv_shape():
    layer = _parse(layers=[_layer(stride=2, out_channels=48)]).layers[0]
    assert layer_output_shape(layer, Shape4(32, 48, 60, 132)) == Shape4(48, 24, 30, 66)
    # odd extents round up
    assert layer_output_shape(layer, Shape4(32, 47, 61, 133)) == Shape4(48, 24, 31, 67)


def test_deconv_shape_inverts_stride_two_conv():
    conv = _parse(layers=[_layer(stride=2)]).layers[0]
    dec = _parse(
        layers=[_layer(kind="deconv3d", stride=2, out_channels=32)]
    ).layers[0]
    start = Shape4(32, 48, 60, 132)
    assert layer_output_shape(dec, layer_output_shape(conv, start)) == Shape4(
        32, *start[1:]
    )


def test_dwsc_shape_keeps_channels_and_disparity():
    layer = _parse(
        layers=[_layer(variant="dwsc", stride=2, out_channels=4)]
    ).layers[0]
    assert layer_output_shape(layer, Shape4(4, 6, 8, 10)) == Shape4(4, 6, 4, 5)


def test_infer_shapes_chains():
    cfg = _parse(
        layers=[
            _layer(id="down", stride=2, out_channels=8),
            _layer(id="mid", out_channels=8),
            _layer(id="up", kind="deconv3d", stride=2, out_channels=4),
        ]
    )
    pairs = infer_shapes(cfg)
    assert pairs[0] == (Shape4(4, 6, 8, 10), Shape4(8, 3, 4, 5))
    assert pairs[1] == (Shape4(8, 3, 4, 5), Shape4(8, 3, 4, 5))
    assert pairs[2] == (Shape4(8, 3, 4, 5), Shape4(4, 6, 8, 10))


# ----------------------------------------------------------------------
# variant substitution and serialization
# ----------------------------------------------------------------------


def test_substitute_variant_rewrites_only_conv3d():
    cfg = _parse(
        layers=[
            _layer(id="a", out_channels=8),
            _layer(id="up", kind="deconv3d", stride=2, out_channels=8),
        ]
    )
    sub = substitute_variant(cfg, "fwsc")
    assert [l.variant for l in sub.layers] == ["fwsc", "full"]
    assert [l.variant for l in cfg.layers] == ["full", "full"]  # original intact
    assert sub.name == cfg.name and sub.input == cfg.input
    # everything but the variant field survives
    assert [(l.id, l.k, l.stride, l.out_channels) for l in sub.layers] == [
        (l.id, l.k, l.stride, l.out_channels) for l in cfg.layers
    ]


def test_substitute_variant_idempotent_and_reversible():
    cfg = _parse()
    assert substitute_variant(cfg, "full") == cfg
    there_and_back = substitute_variant(substitute_variant(cfg, "fdwsc"), "full")
    assert there_and_back == cfg


def test_substitute_variant_validates():
    with pytest.raises(ConfigError, match="variant must be one of"):
        substitute_variant(_parse(), "fwscc")
    # dwsc soups up channel preservation: 4 -> 8 full chain cannot become dwsc
    cfg = _parse(layers=[_layer(out_channels=8)])
    with pytest.raises(ConfigError, match="preserves the channel count"):
        substitute_variant(cfg, "dwsc")


def test_dict_round_trip():
    cfg = _parse(
        layers=[_layer(id="a"), _layer(id="b", adds_from="a")],
        backbone={"macs": 5, "params": 7},
    )
    again = parse_config(dumps_config(cfg))
    assert again == cfg
    doc = config_to_dict(cfg)
    assert "adds_from" not in doc["layers"][0]
    assert doc["layers"][1]["adds_from"] == "a"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "absent.json")


def test_load_config_reads_file(tmp_path):
    p = tmp_path / "net.json"
    p.write_text(json.dumps(_doc()), encoding="utf-8")
    assert load_config(p) == _parse()


# ----------------------------------------------------------------------
# shipped configs
# ----------------------------------------------------------------------


def _shipped(name):
    return parse_config(
        resources.files("sepconv3d.configs").joinpath(name + ".json").read_text()
    )


@pytest.mark.parametrize(
    "name, n_conv, n_deconv",
    [
        ("ganet11", 11, 4),
        ("ganetdeep", 15, 6),
        ("psmnet", 22, 7),
    ],
)
def test_shipped_config_layer_counts(name, n_conv, n_deconv):
    for suffix in ("-3d", "-desk"):
        cfg = _shipped(name + suffix)
        assert cfg.n_conv3d == n_conv
        assert cfg.n_deconv3d == n_deconv
        assert all(l.variant == "full" for l in cfg.layers)
    assert _shipped(name + "-3d").backbone is not None
    assert _shipped(name + "-desk").backbone is None


def test_shipped_desk_configs_share_input_extents():
    for name in ("ganet11-desk", "ganetdeep-desk", "psmnet-desk"):
        assert _shipped(name).input == Shape4(64, 8, 16, 24)


# ----------------------------------------------------------------------
# predicted shapes match what the operators actually produce
# ----------------------------------------------------------------------


def _run_layer(layer, x, seed):
    if layer.kind == "deconv3d":
        bank = kernels.KernelBank.random(
            "full", layer.k, x.c, layer.out_channels,
            seed=seed, bias=layer.bias, bn=layer.bn,
        )
        return kernels.deconv3d_full(x, bank, layer.stride)
    if layer.variant == "dwsc":
        bank = kernels.KernelBank.random(
            "dwsc", layer.k, x.c, x.c, d_in=x.d, d_out=x.d,
            seed=seed, bias=layer.bias, bn=layer.bn,
        )
    else:
        bank = kernels.KernelBank.random(
            layer.variant, layer.k, x.c, layer.out_channels,
            seed=seed, bias=layer.bias, bn=layer.bn,
        )
    return kernels.forward(x, bank, layer.stride)


def _check_chain(cfg):
    x = Volume4.random(cfg.input, seed=99)
    for seed, (layer, (_, want)) in enumerate(zip(cfg.layers, infer_shapes(cfg))):
        x = _run_layer(layer, x, seed)
        assert x.dims == want, f"layer {layer.id!r}: {tuple(x.dims)} != {tuple(want)}"


def test_predicted_shapes_match_operators_all_variants():
    cfg = _parse(
        input={"channels": 3, "disparity": 5, "height": 6, "width": 7},
        layers=[
            _layer(id="f1", out_channels=4, stride=2),
            _layer(id="w1", variant="fwsc", out_channels=6, bias=True),
            _layer(id="d1", variant="dwsc", out_channels=6, stride=2, k=3),
            _layer(id="s1", variant="fdwsc", out_channels=5, stride=2, bn=True),
            _layer(id="u1", kind="deconv3d", stride=2, out_channels=3),
        ],
    )
    _check_chain(cfg)


def test_predicted_shapes_match_operators_ganet11_desk():
    _check_chain(_shipped("ganet11-desk"))


def test_predicted_shapes_match_operators_psmnet_desk_fdwsc():
    _check_chain(substitute_variant(_shipped("psmnet-desk"), "fdwsc"))


def test_predicted_shapes_follow_the_stage_list(monkeypatch):
    # shapes are read off the stage list the kernels run, so a changed
    # stride in the list moves the prediction and the operator together
    orig = netcfg.stage_layout

    def d_unstrided(variant, k, c_in, c_out, d_in, d_out, s=1):
        stages = orig(variant, k, c_in, c_out, d_in, d_out, s)
        if variant != "fwsc":
            return stages
        window, mix = stages
        return (window[:4] + ((1, s, s),), mix)

    for mod in (netcfg, kernels):
        monkeypatch.setattr(mod, "stage_layout", d_unstrided)
    layer = LayerSpec("w1", "conv3d", "fwsc", 3, 2, 4, False, False)
    x = Volume4.random((2, 5, 6, 7), seed=3)
    assert _run_layer(layer, x, 4).dims == Shape4(4, 5, 3, 4)
    assert layer_output_shape(layer, x.dims) == Shape4(4, 5, 3, 4)
