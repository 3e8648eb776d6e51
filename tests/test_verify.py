"""The oracle layer itself: loop nests vs production kernels, MAC
counting, finite differences, composition identities, and the check
catalog — including mutation tests proving the catalog can fail."""

import numpy as np
import pytest

from sepconv3d import costs, kernels, netcfg, verify
from sepconv3d.costs import CostBreakdown, count_layer, scatter_taps
from sepconv3d.kernels import KernelBank, KernelError
from sepconv3d.netcfg import LayerSpec
from sepconv3d.verify import (
    COMPOSITION_CASES,
    OracleReport,
    composition_check,
    counted_forward,
    finite_diff_grad,
    loop_deconv,
    loop_forward,
    max_rel_err,
    run_catalog,
)
from sepconv3d.volume import Shape4, Volume4


def _bank(variant, k, ci, co, *, d_in=None, seed=7, bias=False, bn=False):
    return KernelBank.random(
        variant, k, ci, co, d_in=d_in, seed=seed, bias=bias, bn=bn
    )


# ----------------------------------------------------------------------
# loop nests agree with the production kernels
# ----------------------------------------------------------------------


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("variant", ["full", "fwsc", "dwsc", "fdwsc"])
def test_loop_matches_production(variant, k, stride):
    ci = 2
    co = ci if variant == "dwsc" else 3
    x = Volume4.random((ci, 3, 4, 5), seed=11, dtype=np.float64)
    bank = _bank(variant, k, ci, co, d_in=3 if variant == "dwsc" else None,
                 bias=True, bn=True)
    ref, _ = loop_forward(variant, x, bank, stride)
    got = kernels.forward(x, bank, stride)
    assert got.to_numpy().shape == ref.shape
    assert max_rel_err(got.array, ref) <= 1e-9


@pytest.mark.parametrize("stride", [1, 2])
def test_loop_deconv_matches_production(stride):
    x = Volume4.random((2, 3, 4, 5), seed=3, dtype=np.float64)
    bank = _bank("full", 3, 2, 3, bias=True)
    ref, _ = loop_deconv(x, bank, stride)
    got = kernels.deconv3d_full(x, bank, stride)
    assert max_rel_err(got.array, ref) <= 1e-9


def test_loop_forward_validation():
    x = Volume4.random((2, 5, 3, 3), seed=0, dtype=np.float64)
    with pytest.raises(KernelError, match="bank is 'full'"):
        loop_forward("fwsc", x, _bank("full", 3, 2, 2))
    with pytest.raises(KernelError, match="channels"):
        loop_forward("full", x, _bank("full", 3, 3, 2))
    with pytest.raises(KernelError, match="disparities"):
        loop_forward("dwsc", x, _bank("dwsc", 3, 2, 2, d_in=4))
    with pytest.raises(KernelError, match="'full' bank"):
        loop_deconv(x, _bank("fwsc", 3, 2, 2))


# ----------------------------------------------------------------------
# MAC counting
# ----------------------------------------------------------------------


def test_counted_forward_full_example():
    x = Volume4.random((2, 4, 4, 4), seed=1, dtype=np.float64)
    out, mac = counted_forward(x, _bank("full", 3, 2, 4))
    assert mac == 13824
    assert out.dims == Shape4(4, 4, 4, 4)
    # the value half is the production kernel's result, bit for bit
    direct = kernels.forward(x, _bank("full", 3, 2, 4))
    assert np.array_equal(out.array, direct.array)


def test_counted_forward_minimal_example():
    x = Volume4.random((1, 2, 2, 2), seed=1, dtype=np.float64)
    _, mac = counted_forward(x, _bank("full", 1, 1, 1))
    assert mac == 8


def test_counted_forward_affine_adds_one_per_output_element():
    x = Volume4.random((2, 4, 4, 4), seed=1, dtype=np.float64)
    out_el = 4 * 4 * 4 * 4
    _, plain = counted_forward(x, _bank("full", 3, 2, 4))
    _, biased = counted_forward(x, _bank("full", 3, 2, 4, bias=True))
    _, both = counted_forward(x, _bank("full", 3, 2, 4, bias=True, bn=True))
    assert biased == plain + out_el
    assert both == plain + 2 * out_el


@pytest.mark.parametrize("variant", ["full", "fwsc", "dwsc", "fdwsc"])
@pytest.mark.parametrize("stride", [1, 2])
def test_loop_count_equals_closed_form(variant, stride):
    ci = 3
    co = ci if variant == "dwsc" else 4
    shape = Shape4(ci, 4, 5, 6)
    x = Volume4.random(shape, seed=5, dtype=np.float64)
    bank = _bank(variant, 3, ci, co, d_in=4 if variant == "dwsc" else None,
                 bias=True, bn=True)
    _, mac = loop_forward(variant, x, bank, stride)
    spec = LayerSpec("l", "conv3d", variant, 3, stride, co, True, True)
    assert mac == count_layer(spec, shape).total_macs


def test_loop_deconv_count_skips_out_of_range_taps():
    x = Volume4.random((2, 3, 4, 5), seed=5, dtype=np.float64)
    _, mac = loop_deconv(x, _bank("full", 3, 2, 3), stride=2)
    assert mac == 2 * 3 * scatter_taps(3, 3, 2) * scatter_taps(4, 3, 2) * scatter_taps(5, 3, 2)
    _, with_bias = loop_deconv(x, _bank("full", 3, 2, 3, bias=True), stride=2)
    assert with_bias == mac + 3 * 6 * 8 * 10
    # matches the deconv arm of the cost model too
    spec = LayerSpec("up", "deconv3d", "full", 3, 2, 3, False, False)
    assert mac == count_layer(spec, Shape4(2, 3, 4, 5)).total_macs


# ----------------------------------------------------------------------
# finite differences
# ----------------------------------------------------------------------


def test_finite_diff_scalar_case():
    x = Volume4(np.full((1, 1, 1, 1), 2.0))
    bank = KernelBank("full", 1, 1, 1, {"weights": np.full((1, 1, 1, 1, 1), 3.0)})
    g = finite_diff_grad(x, bank)
    assert g["input"].reshape(()) == pytest.approx(3.0, rel=1e-9)
    assert g["weights"].reshape(()) == pytest.approx(2.0, rel=1e-9)


def test_finite_diff_bias_grad_counts_output_sites():
    x = Volume4.random((2, 3, 3, 3), seed=9, dtype=np.float64)
    bank = _bank("fwsc", 3, 2, 4, bias=True)
    g = finite_diff_grad(x, bank, stride=2)
    # loss = sum(out); each bias unit feeds every site of its channel
    assert g["bias"] == pytest.approx(np.full(4, 8.0), rel=1e-6)
    assert set(g) == {"input", "depthwise", "pointwise", "bias"}


def test_finite_diff_matches_backward():
    x = Volume4.random((2, 3, 4, 3), seed=21, dtype=np.float64)
    bank = _bank("fdwsc", 3, 2, 3, bias=True, bn=True)
    y = kernels.forward(x, bank, 2)
    gin, grads = kernels.backward(x, bank, Volume4(np.ones(tuple(y.dims))), 2)
    fd = finite_diff_grad(x, bank, 2)
    assert max_rel_err(fd["input"], gin.array, floor=1e-6) <= 1e-4
    for name, g in grads.items():
        assert max_rel_err(fd[name], g, floor=1e-6) <= 1e-4, name


def test_finite_diff_validation():
    x32 = Volume4.random((1, 2, 2, 2), seed=0)
    bank = _bank("full", 1, 1, 1)
    with pytest.raises(KernelError, match="float64"):
        finite_diff_grad(x32, bank)
    x = Volume4.random((1, 2, 2, 2), seed=0, dtype=np.float64)
    with pytest.raises(KernelError, match="step"):
        finite_diff_grad(x, bank, step=1e-2)
    with pytest.raises(KernelError, match="step"):
        finite_diff_grad(x, bank, step=1e-9)


# ----------------------------------------------------------------------
# composition identities and the catalog
# ----------------------------------------------------------------------


@pytest.mark.parametrize("case", COMPOSITION_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_composition_cases_pass(case, seed):
    r = composition_check(case, seed=seed)
    assert r.passed, str(r)
    if case == "fwsc-vs-stages":
        assert r.tol == 0.0 and r.max_abs_err == 0.0  # bit-exact by construction


def test_composition_unknown_case():
    with pytest.raises(ValueError, match="unknown composition case"):
        composition_check("fwsc-vs-everything")


def test_max_rel_err_contract():
    assert max_rel_err([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert max_rel_err([0.0], [1e-13]) <= 1.0  # floor keeps 0-vs-tiny finite
    assert max_rel_err([2.0], [1.0]) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="shape mismatch"):
        max_rel_err([1.0], [[1.0]])


def test_oracle_report_str():
    ok = OracleReport("demo", 0.0, 0.0, 1e-6, True, note="n")
    bad = OracleReport("demo", 1.0, 1.0, 1e-6, False)
    assert "pass" in str(ok) and "demo" in str(ok)
    assert "FAIL" in str(bad)


@pytest.fixture(scope="module")
def catalog():
    return run_catalog(seeds=4)


def test_run_catalog_covers_every_family(catalog):
    names = [r.case for r in catalog]
    assert names == (
        [f"composition/{c}" for c in COMPOSITION_CASES]
        + ["composition/deconv-vs-loop"]
        + ["cost-oracle/closed-form-vs-loop", "cost-oracle/deconv-scatter"]
        + [f"grad/{v}" for v in ("full", "fwsc", "dwsc", "fdwsc")]
    )
    failures = [str(r) for r in catalog if not r.passed]
    assert not failures, failures


def test_run_catalog_name_filter():
    got = run_catalog(name_filter="grad", seeds=2)
    assert [r.case for r in got] == [f"grad/{v}" for v in ("full", "fwsc", "dwsc", "fdwsc")]


@pytest.mark.parametrize("name_filter", ["grad/fdwsc", "deconv", "cost-oracle", "k1-collapse"])
def test_filtered_catalog_lines_equal_unfiltered(catalog, name_filter):
    got = run_catalog(name_filter=name_filter, seeds=4)
    want = [str(r) for r in catalog if name_filter in r.case]
    assert want and [str(r) for r in got] == want


def test_filtered_catalog_runs_only_selected_cases(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("an unselected case ran")

    monkeypatch.setattr(verify, "composition_check", boom)
    monkeypatch.setattr(kernels, "backward", boom)
    got = run_catalog(name_filter="cost-oracle", seeds=2)
    assert [r.case for r in got] == ["cost-oracle/closed-form-vs-loop",
                                     "cost-oracle/deconv-scatter"]


def test_catalog_detects_unflipped_deconv_taps(monkeypatch):
    orig = kernels.deconv3d_full

    def unflipped(x, bank, stride=1):
        w = bank.arrays["weights"][:, :, ::-1, ::-1, ::-1]
        mirrored = KernelBank("full", bank.k, bank.c_in, bank.c_out, {"weights": w},
                              bias=bank.bias, bn_scale=bank.bn_scale, bn_shift=bank.bn_shift)
        return orig(x, mirrored, stride)

    monkeypatch.setattr(kernels, "deconv3d_full", unflipped)
    (r,) = run_catalog(name_filter="deconv-vs-loop", seeds=2)
    assert not r.passed


def test_catalog_detects_corrupted_cost_model(monkeypatch):
    orig = costs.count_layer
    monkeypatch.setattr(
        costs, "count_layer",
        lambda spec, shape: orig(spec, shape) + CostBreakdown(macs_bn=1),
    )
    reports = {r.case: r for r in run_catalog(name_filter="cost-oracle", seeds=2)}
    for r in reports.values():
        assert not r.passed
        assert "loop=" in r.note and "closed=" in r.note
    assert set(reports) == {"cost-oracle/closed-form-vs-loop", "cost-oracle/deconv-scatter"}


def test_catalog_detects_corrupted_backward(monkeypatch):
    orig = kernels.backward

    def skewed(x, bank, grad_out, stride=1):
        gin, grads = orig(x, bank, grad_out, stride)
        return Volume4(gin.to_numpy() * 1.01, copy=False), grads

    monkeypatch.setattr(kernels, "backward", skewed)
    reports = run_catalog(name_filter="grad", seeds=2)
    assert reports and all(not r.passed for r in reports)


def test_catalog_detects_swapped_fdwsc_strides(monkeypatch):
    # the kernels and the cost model read one stage list, so a wrong
    # stride in it must fail both the value and the MAC oracles
    orig = netcfg.stage_layout
    assert kernels.stage_layout is orig

    def swapped(variant, k, c_in, c_out, d_in, d_out, s=1):
        stages = orig(variant, k, c_in, c_out, d_in, d_out, s)
        if variant != "fdwsc":
            return stages
        spatial, disparity, mix = stages
        return (spatial[:4] + ((s, s, s),), disparity[:4] + ((1, 1, 1),), mix)

    for mod in (kernels, netcfg):
        monkeypatch.setattr(mod, "stage_layout", swapped)
    for case in ("cost-oracle/closed-form-vs-loop", "composition/fdwsc-rank1-vs-fwsc"):
        (r,) = run_catalog(name_filter=case)
        assert not r.passed, str(r)
