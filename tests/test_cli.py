"""End-to-end CLI behavior via in-process main(argv): exit codes, output
formats, and cross-format agreement."""

import collections
import csv
import hashlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from sepconv3d import cli, costs, netcfg
from sepconv3d.kernels import KernelBank, save_bank
from sepconv3d.volume import Volume4, save_volume


def _config_path(name):
    return str(resources.files("sepconv3d.configs").joinpath(name + ".json"))


def _run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ----------------------------------------------------------------------
# profile
# ----------------------------------------------------------------------


def test_profile_json_ganet11(capsys):
    rep = _run_json(
        capsys, "profile", "--config", _config_path("ganet11-3d"), "--format", "json"
    )
    assert rep["name"] == "ganet11-3d"
    assert rep["conv3d_layers"] == 11
    assert rep["deconv3d_layers"] == 4
    assert len(rep["layers"]) == 15
    assert rep["totals"]["macs"] == sum(l["macs"] for l in rep["layers"])
    assert rep["totals"]["params"] == sum(l["params"] for l in rep["layers"])
    assert rep["totals"]["gmacs"] == pytest.approx(217.44, rel=0.05)
    assert rep["totals"]["params_m"] == pytest.approx(0.76, rel=0.05)
    assert "share_of_network" in rep
    assert "reduction_vs_full" not in rep


def test_profile_baseline_on_itself_is_unity(capsys):
    rep = _run_json(
        capsys, "profile", "--config", _config_path("ganet11-3d"),
        "--baseline", "full", "--format", "json",
    )
    assert rep["reduction_vs_full"] == {"ops": 1.0, "params": 1.0}


def test_profile_baseline_is_full_only(capsys):
    # every reduction is reported against full, so no other baseline parses
    code, out, err = _run(capsys, "profile", "--config", _config_path("ganet11-3d"),
                          "--variant", "fdwsc", "--baseline", "fwsc")
    assert (code, out) == (1, "")
    assert "invalid choice" in err


def test_profile_fwsc_reduction_ganet11(capsys):
    rep = _run_json(
        capsys, "profile", "--config", _config_path("ganet11-3d"),
        "--variant", "fwsc", "--baseline", "full", "--format", "json",
    )
    assert rep["reduction_vs_full"]["ops"] == 5.1
    assert rep["reduction_vs_full"]["params"] == 2.9
    assert all(
        l["variant"] == ("full" if l["kind"] == "deconv3d" else "fwsc")
        for l in rep["layers"]
    )


def test_profile_fdwsc_reduction_ganetdeep(capsys):
    rep = _run_json(
        capsys, "profile", "--config", _config_path("ganetdeep-3d"),
        "--variant", "fdwsc", "--baseline", "full", "--format", "json",
    )
    # exact integer counting gives 5.929x ops / 3.534x params here; the
    # rounded report is deterministic
    assert rep["reduction_vs_full"]["ops"] == 5.9
    assert rep["reduction_vs_full"]["params"] == 3.5


def test_profile_formats_agree(capsys):
    args = ("profile", "--config", _config_path("psmnet-3d"),
            "--variant", "fwsc", "--baseline", "full")
    rep = _run_json(capsys, *args, "--format", "json")

    code, out, _ = _run(capsys, *args, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["id", "kind", "variant", "out_c", "out_d", "out_h", "out_w",
                       "params", "macs"]
    body = rows[1 : 1 + len(rep["layers"])]
    for row, lay in zip(body, rep["layers"]):
        assert row[0] == lay["id"]
        assert [int(v) for v in row[3:7]] == lay["out_shape"]
        assert int(row[7]) == lay["params"] and int(row[8]) == lay["macs"]
    tail = {r[0]: r[8] for r in rows[1 + len(rep["layers"]):]}
    total_row = rows[1 + len(rep["layers"])]
    assert int(total_row[7]) == rep["totals"]["params"]
    assert int(total_row[8]) == rep["totals"]["macs"]
    assert float(tail["gmacs"]) == rep["totals"]["gmacs"]
    assert float(tail["reduction_ops"]) == rep["reduction_vs_full"]["ops"]
    assert float(tail["share_ops_pct"]) == rep["share_of_network"]["ops_pct"]

    code, out, _ = _run(capsys, *args, "--format", "table")
    assert code == 0
    assert f"total: {rep['totals']['gmacs']:.2f} GMACs" in out
    assert f"ops {rep['reduction_vs_full']['ops']:.1f}x" in out
    assert f"ops {rep['share_of_network']['ops_pct']:.2f}%" in out


def test_profile_input_size_override(capsys):
    desk = _run_json(
        capsys, "profile", "--config", _config_path("ganet11-desk"), "--format", "json"
    )
    same = _run_json(
        capsys, "profile", "--config", _config_path("ganet11-desk"),
        "--input-size", "64x8x16x24", "--format", "json",
    )
    assert same["totals"] == desk["totals"]
    bigger = _run_json(
        capsys, "profile", "--config", _config_path("ganet11-desk"),
        "--input-size", "64x16x16x24", "--format", "json",
    )
    assert bigger["totals"]["macs"] > desk["totals"]["macs"]
    assert bigger["input"] == [64, 16, 16, 24]


@pytest.mark.parametrize("size", ["8x8x8", "64x8x16x0", "axbxcxd"])
def test_profile_bad_input_size(capsys, size):
    code, _, err = _run(
        capsys, "profile", "--config", _config_path("ganet11-desk"),
        "--input-size", size,
    )
    assert code == 1
    assert "invalid size" in err


def test_profile_dwsc_substitution_fails_on_channel_changes(capsys):
    code, _, err = _run(
        capsys, "profile", "--config", _config_path("ganet11-3d"), "--variant", "dwsc"
    )
    assert code == 1
    assert "preserves the channel count" in err


def test_profile_rejects_unknown_config_key(capsys, tmp_path):
    p = tmp_path / "bad.json"
    doc = json.loads(resources.files("sepconv3d.configs")
                     .joinpath("ganet11-desk.json").read_text())
    doc["padding"] = "same"
    p.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "profile", "--config", str(p))
    assert code == 1
    assert "unknown key 'padding'" in err


def test_profile_rejects_even_kernel_extent(capsys, tmp_path):
    p = tmp_path / "even.json"
    doc = json.loads(resources.files("sepconv3d.configs")
                     .joinpath("ganet11-desk.json").read_text())
    doc["layers"][1]["k"] = 4
    p.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "profile", "--config", str(p))
    assert code == 1
    assert f"layer {doc['layers'][1]['id']!r}: k must be odd, got 4" in err
    assert out == ""


def test_profile_missing_config_is_io_error(capsys, tmp_path):
    code, _, err = _run(capsys, "profile", "--config", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error:" in err


def _fresh_python(code):
    """Run `code` in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )


def test_profile_does_not_import_numpy():
    # a fresh interpreter, since this one already holds numpy
    code = (
        "import sys\n"
        "from sepconv3d import cli\n"
        f"rc = cli.main(['profile', '--config', {_config_path('ganet11-desk')!r},\n"
        "               '--variant', 'fdwsc', '--baseline', 'full', '--format', 'json'])\n"
        "assert rc == 0, rc\n"
        "assert 'numpy' not in sys.modules, 'profile imported numpy'\n"
        "assert 'statistics' not in sys.modules, 'profile imported statistics'\n"
    )
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["name"] == "ganet11-desk"


_PROFILE_FLAG_SETS = (
    (),
    ("--variant", "fdwsc"),
    ("--variant", "fdwsc", "--baseline", "full"),
    ("--input-size", "32x24x32x48"),
    ("--input-size", "32x24x32x48", "--variant", "fdwsc", "--baseline", "full"),
)


@pytest.mark.parametrize("flags, sweeps", zip(_PROFILE_FLAG_SETS, (2, 2, 3, 2, 4)))
def test_profile_sweeps_each_layer_once_per_walk(capsys, monkeypatch, flags, sweeps):
    # parsing walks the native chain, each count walks the chain it
    # bills, and --input-size with --variant checks the native chain at
    # the new size before the rewrite
    calls = collections.Counter()
    orig = netcfg.stage_sweep

    def spy(layer, in_shape):
        calls[layer.id] += 1
        return orig(layer, in_shape)

    for mod in (netcfg, costs):
        monkeypatch.setattr(mod, "stage_sweep", spy)
    code, _, err = _run(capsys, "profile", "--config", _config_path("ganet11-desk"), *flags)
    assert code == 0, err
    assert len(calls) == 15
    assert set(calls.values()) == {sweeps}


def test_profile_rejects_the_chain_it_counts(capsys, tmp_path):
    desk = _config_path("ganet11-desk")
    code, out, err = _run(capsys, "profile", "--config", desk,
                          "--variant", "dwsc", "--baseline", "full")
    assert (code, out) == (1, "")
    assert err == ("error: layer 'init_a': dwsc preserves the channel count; "
                   "out_channels must equal 64, got 32\n")
    code, out, err = _run(capsys, "profile", "--config", desk,
                          "--input-size", "32x25x32x48", "--variant", "fdwsc")
    assert (code, out) == (1, "")
    assert err == ("error: layer 'fuse1': skip source 'down1_b' produces "
                   "(32, 13, 16, 24), which cannot be added to (32, 14, 16, 24)\n")
    # the native chain is checked at the new size even though the
    # rewritten one would be valid there
    p = tmp_path / "dw.json"
    p.write_text(json.dumps({
        "name": "dw",
        "input": {"channels": 8, "disparity": 4, "height": 6, "width": 6},
        "layers": [{"id": "a", "kind": "conv3d", "variant": "dwsc", "k": 3,
                    "stride": 1, "out_channels": 8, "bias": False, "bn": False}],
    }))
    code, out, err = _run(capsys, "profile", "--config", str(p),
                          "--input-size", "4x4x6x6", "--variant", "fwsc")
    assert (code, out) == (1, "")
    assert err == ("error: layer 'a': dwsc preserves the channel count; "
                   "out_channels must equal 4, got 8\n")


# recorded before the counts' walks validated the chains `profile`
# rewrites: every shipped config under every flag set above, in every
# format, as its exit code, stdout and stderr
_PROFILE_SWEEP_SHA256 = "0790b0ceb6be9fe3b74733e808de49264da31a8c058c771844d7d8e1b536595d"


def test_profile_output_matches_recorded_sweep(capsys):
    configs = resources.files("sepconv3d.configs")
    names = sorted(p.name for p in configs.iterdir() if p.name.endswith(".json"))
    assert len(names) == 6
    digest = hashlib.sha256()
    for name, flags, fmt in itertools.product(
        names, _PROFILE_FLAG_SETS, ("table", "csv", "json")
    ):
        code, out, err = _run(capsys, "profile", "--config", str(configs.joinpath(name)),
                              *flags, "--format", fmt)
        digest.update(f"{name} {' '.join(flags)} {fmt} {code}\n{out}{err}".encode())
    assert digest.hexdigest() == _PROFILE_SWEEP_SHA256


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------


def test_check_single_case(capsys):
    code, out, _ = _run(capsys, "check", "--filter", "k1-collapse", "--seeds", "2")
    assert code == 0
    assert "composition/k1-collapse" in out
    assert "1/1 checks passed" in out


def test_check_composition_family(capsys):
    code, out, _ = _run(capsys, "check", "--filter", "composition", "--seeds", "2")
    assert code == 0
    assert "6/6 checks passed" in out
    assert "FAIL" not in out


def test_check_unmatched_filter(capsys):
    code, _, err = _run(capsys, "check", "--filter", "zzz-no-such-case")
    assert code == 1
    assert "no verification cases match" in err


def test_check_bad_seeds(capsys):
    code, _, err = _run(capsys, "check", "--seeds", "0")
    assert code == 1
    assert "--seeds" in err


# SHA-256 of check's stdout (numpy 2.4.6, OpenBLAS 0.3.31): every case's
# name, status, max_rel and note, byte for byte.  Recorded when the cases
# first drew from volume.IntStream; the same call sites fed numpy's
# Generator draws reproduced the digests pinned before that (f4bc2875...,
# 1929990c..., 5383689e...), so only the source of the draws moved them.
# The first two were recorded again (from f6bb6976... and 0484498e...)
# when the eight slab/ lines were appended: every earlier line held.
_CHECK_SHA256 = {
    (): "da62665ccd102dc989a31d45b5a894f0e6a3b22abbb61eb3ff60e13963148de2",
    ("--seeds", "3"): "728e36433df195263053600191a3a7c35aec630c8940fda074155870b7bc3420",
    ("--filter", "grad/"): "70f7d23895f5896925f771ee6e614d03fce94933567c6e707897dc5b289db9d1",
}


@pytest.mark.parametrize("flags", list(_CHECK_SHA256), ids=" ".join)
def test_check_output_matches_recorded_bytes(capsys, flags):
    code, out, err = _run(capsys, "check", *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _CHECK_SHA256[flags]


def test_readme_check_block_is_check_stdout(capsys):
    lines = _README.read_text().splitlines()
    start = lines.index("$ sepconv3d check") + 1
    block = lines[start:lines.index("```", start)]
    code, out, _ = _run(capsys, "check")
    assert code == 0
    assert out == "\n".join(block) + "\n"


def test_check_does_not_import_numpy_random():
    # a fresh interpreter: every draw of `check` comes from volume.IntStream
    code = (
        "import sys\n"
        "from sepconv3d import cli\n"
        "rc = cli.main(['check', '--filter', 'k1-collapse', '--seeds', '1'])\n"
        "assert rc == 0, rc\n"
        "assert 'numpy.random' not in sys.modules, 'check imported numpy.random'\n"
    )
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert "1/1 checks passed" in proc.stdout


# ----------------------------------------------------------------------
# apply
# ----------------------------------------------------------------------


@pytest.fixture
def identity_setup(tmp_path):
    x = Volume4.random((3, 4, 5, 6), seed=13)
    vin = tmp_path / "in.sv3d"
    save_volume(vin, x)
    bank = KernelBank(
        "full", 1, 3, 3, {"weights": np.eye(3).reshape(3, 3, 1, 1, 1)}
    )
    wpath = tmp_path / "identity.json"
    save_bank(wpath, bank)
    return vin, wpath, tmp_path


def test_apply_identity_round_trip(identity_setup, capsys):
    vin, wpath, tmp = identity_setup
    vout = tmp / "out.sv3d"
    code, _, err = _run(
        capsys, "apply", "--op", "full", "--weights", str(wpath),
        "--input", str(vin), "--output", str(vout),
    )
    assert code == 0, err
    assert vout.read_bytes() == vin.read_bytes()


def test_apply_rerun_is_byte_identical(identity_setup, capsys):
    vin, wpath, tmp = identity_setup
    args = ("apply", "--op", "full", "--weights", str(wpath), "--input", str(vin))
    a, b = tmp / "a.sv3d", tmp / "b.sv3d"
    assert _run(capsys, *args, "--output", str(a))[0] == 0
    assert _run(capsys, *args, "--output", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_apply_op_mismatch(identity_setup, capsys):
    vin, wpath, tmp = identity_setup
    code, _, err = _run(
        capsys, "apply", "--op", "fwsc", "--weights", str(wpath),
        "--input", str(vin), "--output", str(tmp / "o.sv3d"),
    )
    assert code == 1
    assert "'full'" in err and "'fwsc'" in err


def test_apply_reads_the_op_from_the_bundle(capsys, tmp_path):
    vin = tmp_path / "in.sv3d"
    save_volume(vin, Volume4.random((3, 4, 5, 6), seed=13))
    wpath = tmp_path / "fwsc.json"
    save_bank(wpath, KernelBank.random("fwsc", 3, 3, 2, seed=14, bias=True, bn=True))
    outs = []
    for op in ((), ("--op", "fwsc")):
        outs.append(tmp_path / f"out{len(outs)}.sv3d")
        code, _, err = _run(capsys, "apply", *op, "--weights", str(wpath), "--input", str(vin),
                            "--output", str(outs[-1]), "--stride", "2")
        assert code == 0, err
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_apply_shape_mismatch(identity_setup, capsys, tmp_path):
    _, wpath, tmp = identity_setup
    wrong = tmp_path / "wrong.sv3d"
    save_volume(wrong, Volume4.random((2, 4, 5, 6), seed=1))  # bank expects 3 channels
    code, _, err = _run(
        capsys, "apply", "--op", "full", "--weights", str(wpath),
        "--input", str(wrong), "--output", str(tmp / "o.sv3d"),
    )
    assert code == 1
    assert "2" in err and "3" in err  # both channel counts in the diagnostic


def test_apply_truncated_volume(identity_setup, capsys, tmp_path):
    _, wpath, tmp = identity_setup
    vin_bytes = (tmp / "in.sv3d").read_bytes()
    cut = tmp_path / "cut.sv3d"
    cut.write_bytes(vin_bytes[:-7])
    code, _, err = _run(
        capsys, "apply", "--op", "full", "--weights", str(wpath),
        "--input", str(cut), "--output", str(tmp / "o.sv3d"),
    )
    assert code == 2


def test_apply_missing_weights(capsys, tmp_path):
    code, _, err = _run(
        capsys, "apply", "--op", "full", "--weights", str(tmp_path / "w.json"),
        "--input", str(tmp_path / "i.sv3d"), "--output", str(tmp_path / "o.sv3d"),
    )
    assert code == 2


def test_apply_bad_stride(identity_setup, capsys):
    vin, wpath, tmp = identity_setup
    code, _, err = _run(
        capsys, "apply", "--op", "full", "--weights", str(wpath),
        "--input", str(vin), "--output", str(tmp / "o.sv3d"), "--stride", "0",
    )
    assert code == 1
    assert "stride" in err


@pytest.mark.parametrize("edit, want", [
    (lambda meta: {**meta, "arrays": []}, "'arrays' must map"),
    (lambda meta: {**meta, "arrays": {"weights": 7}}, "file names must be strings"),
    (lambda meta: [meta], "must hold a JSON object"),
    (lambda meta: {**meta, "k": 1.5}, "got 1.5"),
], ids=["arrays-not-object", "file-name-not-string", "sidecar-not-object", "fractional-k"])
def test_apply_malformed_sidecar(identity_setup, capsys, edit, want):
    vin, wpath, tmp = identity_setup
    wpath.write_text(json.dumps(edit(json.loads(wpath.read_text()))))
    code, _, err = _run(
        capsys, "apply", "--op", "full", "--weights", str(wpath),
        "--input", str(vin), "--output", str(tmp / "o.sv3d"),
    )
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert want in err


def test_apply_volume_header_claims_more_than_the_file(identity_setup, capsys, tmp_path):
    _, wpath, tmp = identity_setup
    # a 104-byte file whose header claims 2**20 extents per axis
    raw = bytearray((tmp / "in.sv3d").read_bytes()[:104])
    raw[8:40] = (1 << 20).to_bytes(8, "little") * 4
    forged = tmp_path / "forged.sv3d"
    forged.write_bytes(bytes(raw))
    code, _, err = _run(
        capsys, "apply", "--op", "full", "--weights", str(wpath),
        "--input", str(forged), "--output", str(tmp / "o.sv3d"),
    )
    assert code == 2
    assert "payload length" in err


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------


def test_bench_single_op_json(capsys):
    rep = _run_json(
        capsys, "bench", "--compare", "full", "--size", "2x3x4x5",
        "--iters", "3", "--warmup", "1", "--format", "json",
    )
    assert rep["seed"] == 42
    (row,) = rep["results"]
    assert row["op"] == "full"
    assert row["input"] == [2, 3, 4, 5]
    assert row["out_channels"] == 2  # defaults to input channels
    assert row["macs"] == 3 * 4 * 5 * 27 * 2 * 2
    assert len(row["times_s"]) == 3
    assert row["speedup_vs_first"] == 1.0
    assert row["median_s"] >= 0.0


def test_bench_compare_csv(capsys):
    code, out, _ = _run(
        capsys, "bench", "--compare", "full,fwsc,fdwsc", "--size", "3x4x5x6",
        "--k", "3", "--out-channels", "4", "--iters", "3", "--warmup", "1",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:6] == ["op", "c", "d", "h", "w", "k"]
    assert [r[0] for r in rows[1:]] == ["full", "fwsc", "fdwsc"]
    for r in rows[1:]:
        assert int(r[6]) == 4  # out_channels column
        float(r[11]), float(r[12]), float(r[13])  # numeric tail parses


def test_bench_thread_pinning_env(capsys, monkeypatch):
    for var in cli._THREAD_VARS:
        monkeypatch.setenv(var, "sentinel")
    code, *_ = _run(
        capsys, "bench", "--compare", "fdwsc", "--size", "2x3x4x5",
        "--iters", "3", "--warmup", "1", "--threads", "3",
    )
    assert code == 0
    assert all(os.environ[v] == "3" for v in cli._THREAD_VARS)


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_bench_rejects_threads_below_one(capsys, monkeypatch, threads):
    # rejected before the pin, so the environment keeps its values
    for var in cli._THREAD_VARS:
        monkeypatch.setenv(var, "sentinel")
    code, out, err = _run(
        capsys, "bench", "--compare", "fwsc", "--size", "2x3x4x5",
        "--iters", "3", "--warmup", "1", "--threads", threads, "--format", "json",
    )
    assert code == 1
    assert "--threads must be >= 1" in err
    assert out == ""
    assert all(os.environ[v] == "sentinel" for v in cli._THREAD_VARS)


@pytest.mark.parametrize(
    "argv, needle",
    [
        (("bench", "--size", "2x3x4x5"), "the following arguments are required: --compare"),
        (("bench", "--compare", " , ", "--size", "2x3x4x5"), "at least one op"),
        (("bench", "--compare", "full,conv2d", "--size", "2x3x4x5"), "unknown op"),
        (("bench", "--compare", "full", "--size", "2x3x4x5", "--iters", "2"),
         "--iters must be >= 3"),
        (("bench", "--compare", "full", "--size", "2x3x4x5", "--warmup", "0"),
         "--warmup must be >= 1"),
        (("bench", "--compare", "full", "--size", "2x3x4"), "invalid size"),
    ],
)
def test_bench_flag_validation(capsys, argv, needle):
    code, _, err = _run(capsys, *argv)
    assert code == 1
    assert needle in err


def test_bench_dwsc_rejects_channel_change(capsys):
    code, _, err = _run(
        capsys, "bench", "--compare", "dwsc", "--size", "2x3x4x5",
        "--out-channels", "3", "--iters", "3", "--warmup", "1",
    )
    assert code == 1
    assert "dwsc preserves the channel count" in err


# ----------------------------------------------------------------------
# top-level plumbing
# ----------------------------------------------------------------------

_README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands():
    """Every `sepconv3d ...` command in README's code blocks, with its
    backslash continuations joined, as the argv after the program name."""
    commands, in_block, pending = [], False, None
    for line in _README.read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
            continue
        text = line.strip().removeprefix("$ ")
        if pending is not None:
            pending += " " + text
        elif in_block and text.startswith("sepconv3d "):
            pending = text
        else:
            continue
        if pending.endswith("\\"):
            pending = pending[:-1]
        else:
            commands.append(shlex.split(pending)[1:])
            pending = None
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"profile", "check", "apply", "bench"}
    for argv in commands:
        try:
            cli._build_parser().parse_args(argv)
        except cli._UsageError as exc:
            pytest.fail(f"README shows `sepconv3d {' '.join(argv)}`: {exc}")


def test_no_command_prints_usage(capsys):
    code, _, err = _run(capsys)
    assert code == 1
    assert "usage:" in err


def test_unknown_flag(capsys):
    code, _, err = _run(capsys, "profile", "--config", "x", "--frobnicate")
    assert code == 1
    assert "error:" in err


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "profile" in out and "bench" in out


def test_apply_rejects_bool_k_in_sidecar(identity_setup, capsys):
    # JSON true is not an integer, though Python's bool is an int
    vin, wpath, tmp = identity_setup
    wpath.write_text(json.dumps({**json.loads(wpath.read_text()), "k": True}))
    code, _, err = _run(
        capsys, "apply", "--op", "full", "--weights", str(wpath),
        "--input", str(vin), "--output", str(tmp / "o.sv3d"),
    )
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "got True" in err
    assert not (tmp / "o.sv3d").exists()


def test_bench_reports_gmac_per_s(capsys):
    rep = _run_json(
        capsys, "bench", "--compare", "fwsc", "--size", "2x3x4x5",
        "--iters", "3", "--warmup", "1", "--format", "json",
    )
    (row,) = rep["results"]
    # both figures are rounded, gmac_per_s to 3 decimals and median_s to 1 us
    want = row["macs"] / row["median_s"] / 1e9
    assert row["gmac_per_s"] == pytest.approx(want, rel=0.05, abs=2e-3)
    code, out, _ = _run(
        capsys, "bench", "--compare", "full,fwsc", "--size", "2x3x4x5",
        "--iters", "3", "--warmup", "1",
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0 and rows[0][-1] == "gmac_per_s"
    for r in rows[1:]:
        assert len(r) == 15 and float(r[14]) > 0.0


def test_bench_zero_median_has_no_rates(capsys, monkeypatch):
    # a clock that does not advance gives every op a zero median
    monkeypatch.setattr(cli.time, "perf_counter", lambda: 1.0)
    rep = _run_json(
        capsys, "bench", "--compare", "full,fwsc", "--size", "2x3x4x5",
        "--iters", "3", "--warmup", "1", "--format", "json",
    )
    for row in rep["results"]:
        assert row["speedup_vs_first"] is None and row["gmac_per_s"] is None
    code, out, _ = _run(
        capsys, "bench", "--compare", "full,fwsc", "--size", "2x3x4x5",
        "--iters", "3", "--warmup", "1",
    )
    assert code == 0
    assert [r[-2:] for r in csv.reader(io.StringIO(out))][1:] == [["", ""], ["", ""]]
