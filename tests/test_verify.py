"""The oracle layer itself: loop nests vs production kernels, MAC
counting, finite differences, composition identities, and the check
catalog — including mutation tests proving the catalog can fail."""

import hashlib
import inspect
import textwrap

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


GRAD_CASES = [f"grad/{v}" for v in ("full", "fwsc", "dwsc", "fdwsc", "deconv")]
SLAB_CASES = ([f"slab/{v}-s{s}" for v in ("fwsc", "full", "fdwsc") for s in (1, 2)]
              + ["slab/dwsc-s1", "slab/deconv-s2"])


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


@pytest.mark.parametrize("stride", [2.7, 1.9, True, 0, -1, "2"])
def test_loop_nests_reject_non_integral_stride(stride):
    # int(stride) would run 2.7 as 2, 1.9 and True as 1, and 0 would
    # divide by zero
    x = Volume4.random((1, 2, 2, 2), seed=0, dtype=np.float64)
    bank = _bank("full", 1, 1, 1)
    with pytest.raises(KernelError, match="stride"):
        loop_forward("full", x, bank, stride)
    with pytest.raises(KernelError, match="stride"):
        loop_deconv(x, bank, stride)


def test_loop_nests_accept_numpy_integer_stride():
    x = Volume4.random((2, 3, 4, 5), seed=1, dtype=np.float64)
    bank = _bank("full", 3, 2, 2, bias=True)
    for loop in (lambda s: loop_forward("full", x, bank, s), lambda s: loop_deconv(x, bank, s)):
        got, mac = loop(np.int64(2))
        want, want_mac = loop(2)
        assert np.array_equal(got, want) and mac == want_mac


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


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_tap_rules_match_their_definitions(k, s):
    p = (k - 1) // 2
    for n in range(1, 9):
        # transposed: output t sums every (a, j) with s*j + a - p = t, in
        # ascending j, and nothing else
        taps = verify._transposed_taps(n, k, s)
        assert len(taps) == n * s
        for t, pairs in enumerate(taps):
            assert pairs == [(a, j) for j in range(n) for a in range(k) if s * j + a - p == t]
        assert sum(map(len, taps)) == scatter_taps(n, k, s)
        # padded: ceil(n/s) outputs of k taps, None exactly off [0, n)
        taps = verify._padded_taps(n, k, s)
        assert len(taps) == -(-n // s)
        for t, pairs in enumerate(taps):
            assert [a for a, _ in pairs] == list(range(k))
            for a, i in pairs:
                j = s * t + a - p
                assert (i is None) == (j < 0 or j >= n)
                assert i in (None, j)


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


def test_finite_diff_differentiates_the_given_op():
    x = Volume4.random((2, 2, 2, 3), seed=24, dtype=np.float64)
    bank = _bank("full", 3, 2, 3, bias=True, bn=True)
    y = kernels.deconv3d_full(x, bank, 2)
    g = Volume4.random(y.dims, seed=25, dtype=np.float64)
    gin, grads = kernels.deconv3d_backward(x, bank, g, 2)
    fd = finite_diff_grad(x, bank, 2, grad_out=g, op=kernels.deconv3d_full)
    assert max_rel_err(fd["input"], gin.array, floor=1e-6) <= 1e-4
    for name, an in grads.items():
        assert max_rel_err(fd[name], an, floor=1e-6) <= 1e-4, name


def test_finite_diff_keeps_its_perturbed_input_writable():
    # each forward wraps a fresh view of the perturbed copy, so the
    # Volume4 freezes that view and the copy stays writable
    x = Volume4.random((1, 2, 2, 2), seed=3, dtype=np.float64)
    seen = []

    def op(v, bank, stride):
        seen.append(v.array.base.flags.writeable)
        return kernels.forward(v, bank, stride)

    finite_diff_grad(x, _bank("full", 1, 1, 1), op=op)
    assert len(seen) == 2 * (x.array.size + 1) and all(seen)


def test_finite_diff_validation():
    x32 = Volume4.random((1, 2, 2, 2), seed=0)
    bank = _bank("full", 1, 1, 1)
    with pytest.raises(KernelError, match="float64"):
        finite_diff_grad(x32, bank)


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
        + GRAD_CASES
        + SLAB_CASES
    )
    failures = [str(r) for r in catalog if not r.passed]
    assert not failures, failures


def test_run_catalog_name_filter():
    got = run_catalog(name_filter="grad", seeds=2)
    assert [r.case for r in got] == GRAD_CASES


@pytest.mark.parametrize("name_filter",
                         ["grad/fdwsc", "grad/deconv", "deconv", "cost-oracle", "k1-collapse"])
def test_filtered_catalog_lines_equal_unfiltered(catalog, name_filter):
    got = run_catalog(name_filter=name_filter, seeds=4)
    want = [str(r) for r in catalog if name_filter in r.case]
    assert want and [str(r) for r in got] == want


def test_filtered_catalog_runs_only_selected_cases(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("an unselected case ran")

    monkeypatch.setattr(verify, "composition_check", boom)
    monkeypatch.setattr(kernels, "backward", boom)
    monkeypatch.setattr(kernels, "deconv3d_backward", boom)
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
    for name in ("backward", "deconv3d_backward"):
        def skewed(x, bank, grad_out, stride=1, orig=getattr(kernels, name)):
            gin, grads = orig(x, bank, grad_out, stride)
            return Volume4(gin.to_numpy() * 1.01, copy=False), grads

        monkeypatch.setattr(kernels, name, skewed)
    reports = run_catalog(name_filter="grad", seeds=2)
    assert [r.case for r in reports] == GRAD_CASES
    assert all(not r.passed for r in reports)


@pytest.mark.parametrize("mutant", ["no channel swap", "taps reversed"])
def test_catalog_detects_mutated_scatter_backward(monkeypatch, mutant):
    # the scatter stage's weight gradient is the dense walk's with the
    # roles of x and gz swapped, then its channel axes swapped back; the
    # walk already reads the taps in forward order
    orig = kernels._STAGE_BWD["scatter"]

    def mutated(x, w, strides, gz):
        gx, gw = orig(x, w, strides, gz)
        if mutant == "no channel swap":
            return gx, np.ascontiguousarray(gw.swapaxes(0, 1)).reshape(gw.shape)
        return gx, gw[:, :, ::-1, ::-1, ::-1]

    assert run_catalog(name_filter="grad/deconv")[0].passed
    monkeypatch.setitem(kernels._STAGE_BWD, "scatter", mutated)
    (r,) = run_catalog(name_filter="grad/deconv")
    assert not r.passed, str(r)


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


def test_catalog_detects_spatially_flipped_upstream_gradient(monkeypatch):
    # with an all-ones upstream gradient a flip in space is invisible; the
    # catalog's seeded random one must expose it on every variant
    assert all(r.passed for r in run_catalog(name_filter="grad/"))
    for name in ("backward", "deconv3d_backward"):
        def flipped(x, bank, grad_out, stride=1, orig=getattr(kernels, name)):
            return orig(x, bank, Volume4(grad_out.array[:, ::-1, ::-1, ::-1]), stride)

        monkeypatch.setattr(kernels, name, flipped)
    reports = run_catalog(name_filter="grad/")
    assert [r.case for r in reports] == GRAD_CASES
    assert all(not r.passed for r in reports), [str(r) for r in reports]


@pytest.mark.parametrize("variant", ["full", "fwsc", "dwsc", "fdwsc"])
def test_finite_diff_with_upstream_gradient_matches_backward(variant):
    dwsc = variant == "dwsc"
    x = Volume4.random((2, 3, 4, 3), seed=22, dtype=np.float64)
    bank = _bank(variant, 3, 2, 2 if dwsc else 3, d_in=3 if dwsc else None, bias=True, bn=True)
    y = kernels.forward(x, bank, 2)
    g = Volume4.random(y.dims, seed=23, dtype=np.float64)
    gin, grads = kernels.backward(x, bank, g, 2)
    fd = finite_diff_grad(x, bank, 2, grad_out=g)
    assert max_rel_err(fd["input"], gin.array, floor=1e-6) <= 1e-4
    for name, an in grads.items():
        assert max_rel_err(fd[name], an, floor=1e-6) <= 1e-4, name
    # the default (sum) loss is a different function of the weights
    plain = finite_diff_grad(x, bank, 2)
    assert max_rel_err(plain["input"], gin.array, floor=1e-6) > 1e-2


def test_finite_diff_rejects_mismatched_upstream_gradient():
    x = Volume4.random((1, 2, 2, 2), seed=0, dtype=np.float64)
    with pytest.raises(KernelError, match="grad_out shape"):
        finite_diff_grad(x, _bank("full", 1, 1, 1), grad_out=Volume4.zeros((1, 1, 1, 1)))


# ----------------------------------------------------------------------
# one window nest serves every loop oracle; one bank per finite difference
# ----------------------------------------------------------------------

# loop_forward values and MACs plus finite_diff_grad results over every
# variant, k in {1, 3, 5} and stride in {1, 2, 3}, recorded before the
# per-variant loops became one window nest: the oracles' numbers, bit for bit
_ORACLE_SWEEP_SHA256 = "08039f24a196f64fa1006caacd8030edfbdb1fc1ecc2a65af7055fd9b69f0e6d"


def test_oracle_sweep_is_bit_identical():
    h = hashlib.sha256()
    for variant in ("full", "fwsc", "dwsc", "fdwsc"):
        for k in (1, 3, 5):
            for s in (1, 2, 3):
                x = Volume4.random((2, 2, 3, 4), seed=31, dtype=np.float64)
                bank = _bank(variant, k, 2, 2, d_in=2 if variant == "dwsc" else None,
                             seed=k + 10 * s, bias=True, bn=True)
                out, mac = loop_forward(variant, x, bank, s)
                h.update(out.astype("<f8").tobytes() + str(mac).encode())
                for name, g in finite_diff_grad(x, bank, s).items():
                    h.update(name.encode() + g.astype("<f8").tobytes())
    assert h.hexdigest() == _ORACLE_SWEEP_SHA256


# loop_deconv values and MACs over k in {1, 3, 5}, stride in {1, 2, 3},
# extents that include 1, with and without bias and BN, recorded while the
# transposed conv still ran its own scatter nest
_DECONV_SWEEP_SHA256 = "4666801f1784fff904e2a5e76e248e3ca50130857c23974e3769bdb54f55fae1"


def test_loop_deconv_sweep_is_bit_identical():
    h = hashlib.sha256()
    for k in (1, 3, 5):
        for s in (1, 2, 3):
            for dims in ((1, 1, 1), (1, 3, 2), (2, 1, 4), (3, 2, 1)):
                for bias, bn in ((False, False), (True, False), (False, True), (True, True)):
                    x = Volume4.random((2,) + dims, seed=k + 10 * s, dtype=np.float64)
                    bank = _bank("full", k, 2, 3, seed=k + 10 * s + 1, bias=bias, bn=bn)
                    out, mac = loop_deconv(x, bank, s)
                    h.update(out.astype("<f8").tobytes() + str(mac).encode())
    assert h.hexdigest() == _DECONV_SWEEP_SHA256


def test_finite_diff_builds_one_bank_per_call(monkeypatch):
    x = Volume4.random((2, 2, 3, 3), seed=4, dtype=np.float64)
    bank = _bank("fdwsc", 3, 2, 3, bias=True, bn=True)
    before = {n: a.copy() for n, a in bank.arrays.items()}
    built = []
    orig = KernelBank.__init__

    def spy(self, *args, **kwargs):
        built.append(args[0])
        orig(self, *args, **kwargs)

    monkeypatch.setattr(KernelBank, "__init__", spy)
    finite_diff_grad(x, bank, 2)
    assert built == ["fdwsc"]
    # the perturbed arrays are copies: the caller's bank is untouched
    assert all(np.array_equal(bank.arrays[n], a) for n, a in before.items())


def test_cost_oracle_runs_no_production_forward(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the cost oracle ran a production forward")

    monkeypatch.setattr(kernels, "forward", boom)
    (r,) = run_catalog("cost-oracle/closed-form-vs-loop")
    assert r.passed, str(r)


def _exec_mutant(monkeypatch, name, old, new, module=verify):
    """Replace module.<name> with its source edited from `old` to `new`."""
    src = textwrap.dedent(inspect.getsource(getattr(module, name)))
    mutant = src.replace(old, new)
    assert mutant != src
    scope = dict(vars(module))
    exec(mutant, scope)
    monkeypatch.setattr(module, name, scope[name])


def test_window_nest_mutant_fails_every_variant(monkeypatch):
    # tap a read at offset a - p + 1: every conv oracle runs the one nest
    # with the padded rule, so all four variants must disagree with production
    _exec_mutant(monkeypatch, "_padded_taps", "s * t + a - p", "s * t + a - p + 1")
    for variant in ("full", "fwsc", "dwsc", "fdwsc"):
        x = Volume4.random((2, 3, 4, 5), seed=11, dtype=np.float64)
        bank = _bank(variant, 3, 2, 2, d_in=3 if variant == "dwsc" else None, bias=True)
        ref, _ = loop_forward(variant, x, bank)
        assert max_rel_err(kernels.forward(x, bank).array, ref) > 1e-3, variant
    # the transposed conv runs the same nest with its own rule: a centre
    # shifted by one must fail both its value and its MAC oracle
    monkeypatch.undo()
    _exec_mutant(monkeypatch, "_transposed_taps", "p = (k - 1) // 2", "p = (k - 1) // 2 + 1")
    for case in ("composition/deconv-vs-loop", "cost-oracle/deconv-scatter"):
        (r,) = run_catalog(name_filter=case)
        assert not r.passed, str(r)


def test_bank_like_mutant_fails_the_identities_against_a_seeded_bank(monkeypatch):
    # a derived bank that drops the source bank's bias and BN no longer
    # matches it; k1-collapse compares only derived banks, so it cannot see this
    _exec_mutant(monkeypatch, "_bank_like", "{n: getattr(bank, n) for n in _VECS}", "{}")
    for case in ("composition/fdwsc-rank1-vs-fwsc", "composition/fwsc-c1-vs-full"):
        (r,) = run_catalog(name_filter=case, seeds=2)
        assert not r.passed, str(r)


def test_slab_mutant_that_drops_an_input_plane_fails_check(monkeypatch):
    # every slab after the first reads its input one plane late, zero-padded
    # at the far end instead; only a stage output of more than one slab
    # shows it, so the slab cases, and only they, must fail
    _exec_mutant(monkeypatch, "_by_slab", "x[max(top, 0) : min(end, m)], pad)",
                 "x[max(top, 0) + (a > 0) : min(end, m)],"
                 " [(pad[0][0], pad[0][1] + (a > 0)), *pad[1:]])", module=kernels)
    assert [r.case for r in run_catalog() if not r.passed] == SLAB_CASES


@pytest.mark.parametrize("seed", [2.5, True, "1"])
def test_composition_check_rejects_non_integer_seeds(seed):
    with pytest.raises(KernelError, match="seed"):
        composition_check(COMPOSITION_CASES[0], seed=seed)


@pytest.mark.parametrize("seeds", [0, -1, 2.5, True])
def test_run_catalog_rejects_bad_seed_counts(seeds):
    with pytest.raises(KernelError, match=r"seeds must be an integer >= 1, got "):
        run_catalog("k1-collapse", seeds=seeds)


def test_catalog_builds_only_the_selected_cases_layers(monkeypatch):
    # every case draws its numbers up front but builds its banks when it
    # runs, so a filter that skips the gradient cases builds none of theirs
    built = []
    orig = KernelBank.random.__func__

    def spy(cls, variant, *args, **kwargs):
        built.append(variant)
        return orig(cls, variant, *args, **kwargs)

    monkeypatch.setattr(KernelBank, "random", classmethod(spy))
    for name_filter, seeds, n_banks in (("k1-collapse", 2, 2), ("grad/fdwsc", 8, 2),
                                        ("grad/deconv", 8, 4), ("slab/", 8, 8), (None, 8, 100)):
        built.clear()
        run_catalog(name_filter, seeds=seeds)
        assert len(built) == n_banks, name_filter


def test_loop_deconv_rejects_channel_mismatch():
    x = Volume4.random((3, 2, 2, 2), seed=0, dtype=np.float64)
    with pytest.raises(KernelError, match="input has 3 channels, bank expects 2"):
        loop_deconv(x, _bank("full", 3, 2, 2))
