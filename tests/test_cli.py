"""End-to-end CLI behavior via in-process main(argv): exit codes, output
formats, and cross-format agreement."""

import csv
import io
import json
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from sepconv3d import cli
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


def test_profile_does_not_import_numpy():
    # a fresh interpreter, since this one already holds numpy
    code = (
        "import sys\n"
        "from sepconv3d import cli\n"
        f"rc = cli.main(['profile', '--config', {_config_path('ganet11-desk')!r},\n"
        "               '--variant', 'fdwsc', '--baseline', 'full', '--format', 'json'])\n"
        "assert rc == 0, rc\n"
        "assert 'numpy' not in sys.modules, 'profile imported numpy'\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["name"] == "ganet11-desk"


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
        capsys, "bench", "--op", "full", "--size", "2x3x4x5",
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


def test_bench_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SEPCONV_SEED", "7")
    rep = _run_json(
        capsys, "bench", "--op", "fwsc", "--size", "2x3x4x5",
        "--iters", "3", "--warmup", "1", "--format", "json",
    )
    assert rep["seed"] == 7


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
        capsys, "bench", "--op", "fdwsc", "--size", "2x3x4x5",
        "--iters", "3", "--warmup", "1", "--threads", "3",
    )
    assert code == 0
    assert all(os.environ[v] == "3" for v in cli._THREAD_VARS)


@pytest.mark.parametrize(
    "argv, needle",
    [
        (("bench", "--size", "2x3x4x5"), "--op or --compare"),
        (("bench", "--op", "full", "--compare", "fwsc", "--size", "2x3x4x5"),
         "not both"),
        (("bench", "--compare", " , ", "--size", "2x3x4x5"), "at least one op"),
        (("bench", "--compare", "full,conv2d", "--size", "2x3x4x5"), "unknown op"),
        (("bench", "--op", "full", "--size", "2x3x4x5", "--iters", "2"),
         "--iters must be >= 3"),
        (("bench", "--op", "full", "--size", "2x3x4x5", "--warmup", "0"),
         "--warmup must be >= 1"),
        (("bench", "--op", "full", "--size", "2x3x4"), "invalid size"),
    ],
)
def test_bench_flag_validation(capsys, argv, needle):
    code, _, err = _run(capsys, *argv)
    assert code == 1
    assert needle in err


def test_bench_dwsc_rejects_channel_change(capsys):
    code, _, err = _run(
        capsys, "bench", "--op", "dwsc", "--size", "2x3x4x5",
        "--out-channels", "3", "--iters", "3", "--warmup", "1",
    )
    assert code == 1


# ----------------------------------------------------------------------
# top-level plumbing
# ----------------------------------------------------------------------


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
