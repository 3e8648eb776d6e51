"""Command-line front end: profile / check / apply / bench.

Exit codes
----------
0   success (for ``check``: every selected case passed)
1   validation failure: bad flags, malformed configs or weight bundles,
    shape/channel mismatches, failed checks
2   I/O failure: missing or unreadable files, truncated volume payloads

Module level imports only the standard library and ``netcfg``, which
is numpy-free, so ``profile`` never loads numpy.  The numeric modules
load lazily inside the handlers that need them, so that ``bench`` can
pin the BLAS/OpenMP thread-pool environment variables *before* numpy
starts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .netcfg import VARIANTS

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2

# Every allocator that might spin up a thread pool under numpy.  Set before
# the first numpy import or they are ignored.
_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class _UsageError(Exception):
    """Bad command-line input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; our contract reserves 2
    # for I/O problems, so route parse errors through _UsageError instead.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="sepconv3d",
        description="Cost-volume 3D convolution profiler and reference runner.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("profile", help="per-layer MAC/parameter report for a network config")
    p.add_argument("--config", required=True, help="path to a network config (JSON)")
    p.add_argument("--variant", choices=VARIANTS,
                   help="rewrite every conv3d layer to this variant before counting")
    p.add_argument("--baseline", choices=("full",),
                   help="also count the config rewritten to full and report reduction factors")
    p.add_argument("--input-size", metavar="CxDxHxW",
                   help="override the config's input extents")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")

    p = sub.add_parser("check", help="run the self-verification catalog")
    p.add_argument("--filter", default=None,
                   help="only run cases whose name contains this substring")
    p.add_argument("--seeds", type=int, default=8,
                   help="seeds per composition case (default 8)")

    p = sub.add_parser("apply", help="run one layer over a volume file")
    p.add_argument("--op", choices=VARIANTS,
                   help="the layer's variant; read from the weight bundle, and checked when given")
    p.add_argument("--weights", required=True, help="weight bundle (JSON sidecar path)")
    p.add_argument("--input", required=True, help="input volume (.sv3d)")
    p.add_argument("--output", required=True, help="output volume (.sv3d)")
    p.add_argument("--stride", type=int, default=1)

    p = sub.add_parser("bench", help="wall-time micro-benchmark on synthetic data")
    p.add_argument("--compare", required=True, metavar="OP[,OP...]",
                   help="comma-separated ops timed on identical input")
    p.add_argument("--size", required=True, metavar="CxDxHxW",
                   help="input extents, e.g. 32x48x60x132")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--out-channels", type=int, default=None,
                   help="output channels (default: same as input)")
    p.add_argument("--iters", type=int, default=10, help="timed iterations (min 3)")
    p.add_argument("--warmup", type=int, default=2, help="untimed warmup passes (min 1)")
    p.add_argument("--threads", type=int, default=1,
                   help="BLAS/OpenMP threads to pin (default 1)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def _parse_size(text: str):
    parts = text.lower().split("x")
    if len(parts) != 4:
        raise _UsageError(f"invalid size {text!r}: expected CxDxHxW, e.g. 32x48x60x132")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise _UsageError(f"invalid size {text!r}: extents must be integers") from None
    if any(n < 1 for n in dims):
        raise _UsageError(f"invalid size {text!r}: extents must be >= 1")
    return dims


def _pin_threads(n: int) -> None:
    if n < 1:
        raise _UsageError("--threads must be >= 1")
    for var in _THREAD_VARS:
        os.environ[var] = str(n)


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def _fmt_shape(shape) -> str:
    return "x".join(str(n) for n in shape)


def _profile_report(cfg, net, base):
    layers = []
    for lc in net.layers:
        layers.append({
            "id": lc.layer.id,
            "kind": lc.layer.kind,
            "variant": lc.layer.variant,
            "out_shape": list(lc.out_shape),
            "params": lc.cost.total_params,
            "macs": lc.cost.total_macs,
        })
    macs = net.total.total_macs
    params = net.total.total_params
    report = {
        "name": cfg.name,
        "input": list(cfg.input),
        "conv3d_layers": cfg.n_conv3d,
        "deconv3d_layers": cfg.n_deconv3d,
        "layers": layers,
        "totals": {
            "params": params,
            "macs": macs,
            "gmacs": float(f"{macs / 1e9:.2f}"),
            "params_m": float(f"{params / 1e6:.2f}"),
        },
    }
    if base is not None:
        from . import costs as _costs

        red = _costs.reduction_report(base.total, net.total)
        report["reduction_vs_full"] = {
            "ops": float(f"{red['ops']:.1f}"),
            "params": float(f"{red['params']:.1f}"),
        }
    if cfg.backbone is not None:
        bb = cfg.backbone
        report["share_of_network"] = {
            "ops_pct": float(f"{100.0 * macs / (macs + bb.macs):.2f}"),
            "params_pct": float(f"{100.0 * params / (params + bb.params):.2f}"),
        }
    return report


def _emit_profile_table(report, out) -> None:
    print(f"network: {report['name']}    input: {_fmt_shape(report['input'])}", file=out)
    print(f"layers: {report['conv3d_layers']} conv3d + {report['deconv3d_layers']} deconv3d",
          file=out)
    rows = [("id", "kind", "variant", "out shape", "params", "MACs")]
    for lay in report["layers"]:
        rows.append((lay["id"], lay["kind"], lay["variant"], _fmt_shape(lay["out_shape"]),
                     str(lay["params"]), str(lay["macs"])))
    tot = report["totals"]
    rows.append(("total", "", "", "", str(tot["params"]), str(tot["macs"])))
    widths = [max(len(r[i]) for r in rows) for i in range(6)]
    for idx, row in enumerate(rows):
        line = "  ".join(
            cell.ljust(widths[i]) if i < 4 else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        )
        print(line.rstrip(), file=out)
        if idx == 0:
            print("  ".join("-" * w for w in widths), file=out)
    print(f"total: {tot['gmacs']:.2f} GMACs, {tot['params_m']:.2f} M params", file=out)
    red = report.get("reduction_vs_full")
    if red is not None:
        print(f"reduction vs full: ops {red['ops']:.1f}x, params {red['params']:.1f}x", file=out)
    share = report.get("share_of_network")
    if share is not None:
        print(f"share of whole network: ops {share['ops_pct']:.2f}%, "
              f"params {share['params_pct']:.2f}%", file=out)


def _emit_profile_csv(report, out) -> None:
    import csv

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "kind", "variant", "out_c", "out_d", "out_h", "out_w",
                     "params", "macs"])
    for lay in report["layers"]:
        writer.writerow([lay["id"], lay["kind"], lay["variant"], *lay["out_shape"],
                         lay["params"], lay["macs"]])
    tot = report["totals"]
    writer.writerow(["total", "", "", "", "", "", "", tot["params"], tot["macs"]])
    writer.writerow(["gmacs", "", "", "", "", "", "", "", f"{tot['gmacs']:.2f}"])
    writer.writerow(["params_m", "", "", "", "", "", "", "", f"{tot['params_m']:.2f}"])
    red = report.get("reduction_vs_full")
    if red is not None:
        writer.writerow(["reduction_ops", "", "", "", "", "", "", "", f"{red['ops']:.1f}"])
        writer.writerow(["reduction_params", "", "", "", "", "", "", "", f"{red['params']:.1f}"])
    share = report.get("share_of_network")
    if share is not None:
        writer.writerow(["share_ops_pct", "", "", "", "", "", "", "", f"{share['ops_pct']:.2f}"])
        writer.writerow(["share_params_pct", "", "", "", "", "", "", "",
                         f"{share['params_pct']:.2f}"])


def _cmd_profile(args) -> int:
    from dataclasses import replace

    from . import costs, netcfg

    # Each count's walk rejects the chain it bills, so the rewrites do
    # not walk; a resized chain is checked as written before a rewrite.
    cfg = netcfg.load_config(args.config)
    if args.input_size:
        cfg = replace(cfg, input=netcfg.Shape4(*_parse_size(args.input_size)))
        if args.variant:
            netcfg.validate(cfg)
    if args.variant:
        cfg = netcfg._rewrite_variant(cfg, args.variant)

    net = costs.count_network(cfg)
    base = None
    if args.baseline:
        base = costs.count_network(netcfg._rewrite_variant(cfg, args.baseline))

    report = _profile_report(cfg, net, base)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    elif args.format == "csv":
        _emit_profile_csv(report, sys.stdout)
    else:
        _emit_profile_table(report, sys.stdout)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    from .verify import run_catalog

    if args.seeds < 1:
        raise _UsageError("--seeds must be >= 1")
    reports = run_catalog(args.filter, seeds=args.seeds)
    if not reports:
        print(f"error: no verification cases match filter {args.filter!r}", file=sys.stderr)
        return EXIT_FAIL

    name_w = max(len(r.case) for r in reports)
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        line = f"{r.case:<{name_w}}  {status}  max_rel={r.max_rel_err:.3e}"
        if r.note:
            line += f"  {r.note}"
        print(line)
    n_pass = sum(1 for r in reports if r.passed)
    print(f"{n_pass}/{len(reports)} checks passed")
    return EXIT_OK if n_pass == len(reports) else EXIT_FAIL


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def _cmd_apply(args) -> int:
    from .kernels import forward, load_bank
    from .volume import load_volume, save_volume

    bank = load_bank(args.weights)
    if args.op is not None and bank.variant != args.op:
        raise _UsageError(
            f"weight bundle holds a {bank.variant!r} layer but --op is {args.op!r}"
        )
    x = load_volume(args.input)
    y = forward(x, bank, stride=args.stride)
    save_volume(args.output, y)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

# seeds the synthetic input; op i's bank draws from _BENCH_SEED + i + 1
_BENCH_SEED = 42


def _cmd_bench(args) -> int:
    ops = [s.strip() for s in args.compare.split(",") if s.strip()]
    if not ops:
        raise _UsageError("--compare needs at least one op")
    for op in ops:
        if op not in VARIANTS:
            raise _UsageError(f"unknown op {op!r} in --compare "
                              f"(choose from {', '.join(VARIANTS)})")
    if args.iters < 3:
        raise _UsageError("--iters must be >= 3")
    if args.warmup < 1:
        raise _UsageError("--warmup must be >= 1")

    dims = _parse_size(args.size)
    c, d, h, w = dims

    import statistics

    from . import costs
    from .kernels import KernelBank, forward
    from .netcfg import LayerSpec
    from .volume import Shape4, Volume4

    x = Volume4.random(dims, seed=_BENCH_SEED, dtype="float32")
    out_c = args.out_channels if args.out_channels is not None else c

    results = []
    for idx, op in enumerate(ops):
        bank = KernelBank.random(
            op, k=args.k, c_in=c, c_out=out_c,
            d_in=(d if op == "dwsc" else None),
            seed=_BENCH_SEED + idx + 1,
        )
        spec = LayerSpec(id=f"bench-{op}", kind="conv3d", variant=op, k=args.k,
                         stride=1, out_channels=out_c, bias=False, bn=False)
        macs = costs.count_layer(spec, Shape4(*dims)).total_macs

        for _ in range(args.warmup):
            forward(x, bank, stride=1)
        times = []
        for _ in range(args.iters):
            t0 = time.perf_counter()
            forward(x, bank, stride=1)
            times.append(time.perf_counter() - t0)

        med = statistics.median(times)
        mad = statistics.median(abs(t - med) for t in times)
        first = results[0]["median_s"] if results else med
        results.append({
            "op": op,
            "input": list(dims),
            "k": args.k,
            "out_channels": out_c,
            "threads": args.threads,
            "iters": args.iters,
            "warmup": args.warmup,
            "macs": macs,
            "median_s": round(med, 6),
            "mad_s": round(mad, 6),
            # the rates are None for a median below the timer's resolution
            "speedup_vs_first": round(first / med, 2) if med > 0 else None,
            "gmac_per_s": round(macs / med / 1e9, 3) if med > 0 else None,
            "times_s": [round(t, 6) for t in times],
        })

    if args.format == "json":
        print(json.dumps({"seed": _BENCH_SEED, "results": results}, indent=2))
    else:
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["op", "c", "d", "h", "w", "k", "out_channels", "threads",
                         "iters", "warmup", "macs", "median_s", "mad_s",
                         "speedup_vs_first", "gmac_per_s"])
        for r in results:
            writer.writerow([r["op"], *r["input"], r["k"], r["out_channels"],
                             r["threads"], r["iters"], r["warmup"], r["macs"],
                             f"{r['median_s']:.6f}", f"{r['mad_s']:.6f}",
                             _rate(r["speedup_vs_first"], ".2f"), _rate(r["gmac_per_s"], ".3f")])
    return EXIT_OK


def _rate(value, spec: str) -> str:
    """A CSV rate cell; empty where the rate is undefined."""
    return "" if value is None else format(value, spec)


# ---------------------------------------------------------------------------

_HANDLERS = {
    "profile": _cmd_profile,
    "check": _cmd_check,
    "apply": _cmd_apply,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except SystemExit as exc:  # --help / --version paths
        return int(exc.code or 0)

    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_FAIL

    try:
        if args.command == "bench":
            # Must happen before the numeric modules are imported anywhere
            # in this process, otherwise the pools are already sized.
            _pin_threads(args.threads)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:  # ConfigError, KernelError and VolumeError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:  # includes VolumeIOError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
