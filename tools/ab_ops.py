"""Interleaved A/B timing of the dense ops against a parent checkout.

    python tools/ab_ops.py PARENT_DIR

PARENT_DIR is the root of another checkout of this repository (one made
with `git archive` or `git clone`).  Its package is imported as
`sepconv3d_parent`, beside this tree's `sepconv3d`, in one process with
the BLAS/OpenMP pools pinned to 1 thread.  `conv3d_full` and
`deconv3d_full` are timed at every distinct layer shape of ganet11-desk,
all layers `full`, at the network workloads' input of 32x24x32x48
float32.  Each repeat times the parent and the change once, alternating
which side goes first.  The output is one JSON object: per shape, the
two median times, the median of the per-repeat change/parent ratios, and
whether the two outputs are bit-identical.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
INPUT = (32, 24, 32, 48)
REPEATS = 6


def load_package(root, alias: str):
    """The sepconv3d package under `root`/src, imported as `alias`."""
    pkg = Path(root) / "src" / "sepconv3d"
    spec = importlib.util.spec_from_file_location(
        alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def workload_cases(input_dims=INPUT) -> list:
    """Distinct (op, k, stride, c_out, input extents) of ganet11-desk with
    every layer full, in chain order."""
    from sepconv3d import netcfg
    from sepconv3d.volume import Shape4

    cfg = netcfg.load_config(_ROOT / "src" / "sepconv3d" / "configs" / "ganet11-desk.json")
    cfg = netcfg.substitute_variant(dataclasses.replace(cfg, input=Shape4(*input_dims)), "full")
    cases = []
    for layer, (sin, _) in zip(cfg.layers, netcfg.infer_shapes(cfg)):
        op = "deconv3d_full" if layer.kind == "deconv3d" else "conv3d_full"
        case = (op, layer.k, layer.stride, layer.out_channels, tuple(sin))
        if case not in cases:
            cases.append(case)
    return cases


def _side(pkg, case, seed: int):
    """A runnable op of one side: its own bank and float32 input."""
    op, k, s, co, dims = case
    kernels = importlib.import_module(f"{pkg.__name__}.kernels")
    volume = importlib.import_module(f"{pkg.__name__}.volume")
    bank = kernels.KernelBank.random("full", k, dims[0], co, seed=seed, bn=True)
    x = volume.Volume4.random(dims, seed=seed + 1, dtype="float32")
    fn = getattr(kernels, op)
    return lambda: fn(x, bank, s).array


def compare(parent_root, cases, repeats: int = REPEATS, seed: int = 1) -> list:
    """Time each case on the parent and on this tree, `repeats` times
    each, alternating which side runs first.  One record per case."""
    parent = load_package(parent_root, "sepconv3d_parent")
    change = importlib.import_module("sepconv3d")
    rows = []
    for case in cases:
        runs = {"parent": _side(parent, case, seed), "change": _side(change, case, seed)}
        same = runs["parent"]().tobytes() == runs["change"]().tobytes()  # also the warm-up
        times = {"parent": [], "change": []}
        for i in range(repeats):
            for name in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                t0 = time.perf_counter()
                runs[name]()
                times[name].append(time.perf_counter() - t0)
        op, k, s, co, dims = case
        rows.append({
            "op": op, "k": k, "stride": s, "c_in": dims[0], "c_out": co,
            "input": "x".join(map(str, dims)),
            "parent_median_s": round(statistics.median(times["parent"]), 6),
            "change_median_s": round(statistics.median(times["change"]), 6),
            "median_ratio": round(statistics.median(
                c / p for c, p in zip(times["change"], times["parent"])), 4),
            "bit_identical": same,
        })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "sepconv3d").is_dir():
        print("usage: python tools/ab_ops.py PARENT_DIR  (a checkout with src/sepconv3d)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(_ROOT / "src"))
    from sepconv3d.cli import _THREAD_VARS  # cli loads no numpy, so the pins still apply

    for var in _THREAD_VARS:
        os.environ[var] = "1"
    rows = compare(argv[0], workload_cases())
    print(json.dumps({"threads": 1, "repeats": REPEATS, "shapes": rows}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
