"""One benchmark process: set up a workload, then run timed passes.

Started by ``run.py`` from the root of a checkout, with the package's
``src`` directory on ``PYTHONPATH`` and the BLAS/OpenMP pools pinned.
Prints one JSON object as its last line of output: the monotonic time
at which set-up finished, every pass with its seconds and correctness
verdict, peak resident memory, and, in a traced run, the per-layer
metrics derived from the spans (which it also writes to ``.bench_out/``).

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import spans
import workloads as W

MIN_PASSES = 3  # untraced passes per run, whatever --seconds says
MIN_PAIRS = 5  # (traced, untraced) pass pairs per traced run
WALL_CAP_S = 120.0  # stop starting passes after this long, to end within the time limit
CLI_TIMEOUT_S = 60.0
OUT_DIR = ".bench_out"


# ----------------------------------------------------------------------
# network workloads
# ----------------------------------------------------------------------


class NetworkRun:
    def __init__(self, name, seed, tr):
        self.seed = seed
        self.net = W.setup_network(name, seed, tr)
        self.ref_hash = None
        self.grad_check = None

    def run(self, tr):
        if self.net.train:
            return W.train_step(self.net, tr)
        return W.forward(self.net, tr)

    def check(self, result, pass_id):
        """Outside the timed region: oracle on sampled sites, bit-identity
        with the first pass, and (first pass only) the gradient oracle."""
        import numpy as np

        import oracle

        acts = result[0] if self.net.train else result
        rng = np.random.default_rng([self.seed, pass_id])
        ok, detail = oracle.check_forward(self.net, acts, rng)
        if not ok:
            return False, f"forward oracle: {detail}"
        arrays = [acts[-1].array]
        if self.net.train:
            _, gx, grads = result
            arrays.append(gx.array)
            arrays += [g[k] for g in grads for k in sorted(g)]
        h = W.digest(arrays)
        if self.ref_hash is None:
            self.ref_hash = h
            if self.net.train:
                ok, detail = oracle.check_gradients(
                    self.net, self.net.grad_out, result[1], result[2], [self.seed, 7])
                self.grad_check = {"ok": ok, "detail": detail}
        elif h != self.ref_hash:
            return False, "output differs bit for bit from the first pass"
        if self.grad_check and not self.grad_check["ok"]:
            # every pass repeats the first pass's gradients, which failed
            return False, f"gradient oracle: {self.grad_check['detail']}"
        return True, ""

    def layer_metrics(self, sums):
        net = self.net
        macs = W.class_macs(net)
        m = {}
        for cls in W.CLASSES:
            s = sums.get(cls, 0.0)
            m[f"kernels.{cls}.s"] = s
            if cls in W.FORWARD_CLASSES:
                gmacs = macs.get(cls, 0) / s / 1e9 if s else 0.0
                m[f"kernels.{cls}.gmac_per_s"] = gmacs
                m[f"kernels.{cls}.macs_per_byte"] = W.macs_per_byte(net, cls)
        m["volume.skip_add_s"] = sums.get("skip_add", 0.0)
        m["volume.act_bytes"] = W.act_bytes(net)
        _cost_metrics(m, [net.cost.total])
        return m


# ----------------------------------------------------------------------
# cli-small
# ----------------------------------------------------------------------


def _cli(args):
    return subprocess.run([sys.executable, "-m", "sepconv3d", *args], capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)


def _check_summary(proc):
    """True when `check` exited 0 and its last line reads N/N checks passed."""
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return False
    words = lines[-1].split()
    if len(words) != 3 or words[1:] != ["checks", "passed"]:
        return False
    done, _, total = words[0].partition("/")
    return done.isdigit() and done == total and int(total) > 0


class CliRun:
    def __init__(self, tr):
        with tr.span("netcfg.load", cls="netcfg.load"):
            from sepconv3d import netcfg

            cfgs = {c: netcfg.substitute_variant(netcfg.load_config(W.config_path(c)), "fdwsc")
                    for c in W.CLI_CONFIGS}
        with tr.span("costs.count", cls="costs.count"):
            from sepconv3d import costs

            self.totals = [costs.count_network(cfg).total for cfg in cfgs.values()]
        self.expected = {c: t.total_macs for c, t in zip(W.CLI_CONFIGS, self.totals)}
        self.catalog = None

    def run(self, tr):
        out = {}
        for c in W.CLI_CONFIGS:
            with tr.span("cli.profile", cls="cli.profile", layer=c):
                out[c] = _cli(["profile", "--config", W.config_path(c), "--variant", "fdwsc",
                               "--baseline", "full", "--format", "json"])
        with tr.span("cli.check", cls="cli.check"):
            out["check"] = _cli(["check"])
        with tr.span("cli.check_filtered", cls="cli.check_filtered"):
            out["check_filtered"] = _cli(["check", "--filter", "grad/"])
        return out

    def check(self, result, pass_id):
        for c in W.CLI_CONFIGS:
            proc = result[c]
            if proc.returncode != 0:
                return False, f"profile {c} exited {proc.returncode}: {proc.stderr.strip()}"
            got = json.loads(proc.stdout)["totals"]["macs"]
            if got != self.expected[c]:
                return False, f"profile {c}: total {got} != count_network {self.expected[c]}"
        for key in ("check", "check_filtered"):
            if not _check_summary(result[key]):
                return False, f"{key} did not report N/N passed (exit {result[key].returncode})"
        return True, ""

    def run_catalog(self, tr):
        """In-process `check` catalog, for the verify.* metrics."""
        t0 = time.perf_counter()
        with tr.span("verify.run_catalog", cls="verify.run_catalog"):
            from sepconv3d import verify

            reports = verify.run_catalog()
        self.catalog = (time.perf_counter() - t0, len(reports),
                        sum(1 for r in reports if not r.passed))

    def layer_metrics(self, sums):
        m = {
            "cli.profile_s": sums.get("cli.profile", 0.0),
            "cli.check_s": sums.get("cli.check", 0.0),
            "cli.check_filtered_s": sums.get("cli.check_filtered", 0.0),
        }
        _cost_metrics(m, self.totals)
        if self.catalog is not None:
            m["verify.catalog_s"] = self.catalog[0]
            m["verify.cases"] = self.catalog[1]
            m["verify.failed"] = self.catalog[2]
        return m


def _cost_metrics(m, totals):
    """costs.* from CostBreakdown totals (summed when there are several)."""
    m["costs.macs"] = sum(t.total_macs for t in totals)
    for f in W.COST_FIELDS:
        m[f"costs.{f}"] = sum(getattr(t, f) for t in totals)
    m["costs.macs_affine"] = sum(t.macs_bias + t.macs_bn for t in totals)


# ----------------------------------------------------------------------
# per-layer metrics, in the order BENCHMARK.json lists them
# ----------------------------------------------------------------------


def per_layer_units():
    """{per-layer metric name: unit}, in the order BENCHMARK.json lists them."""
    units = {}
    for cls in W.CLASSES:
        units[f"kernels.{cls}.s"] = "s"
        units[f"kernels.{cls}.share"] = "fraction"
        if cls in W.FORWARD_CLASSES:
            units[f"kernels.{cls}.gmac_per_s"] = "GMAC/s"
            units[f"kernels.{cls}.macs_per_byte"] = "MAC/B"
    for name in ("kernels.import_s", "kernels.bank_s", "netcfg.load_s", "costs.count_s",
                 "volume.input_s", "volume.skip_add_s"):
        units[name] = "s"
    units["volume.act_bytes"] = "B"
    for name in ("macs",) + W.COST_FIELDS + ("macs_affine",):
        units[f"costs.{name}"] = "MAC"
    for name in ("cli.profile_s", "cli.check_s", "cli.check_filtered_s", "verify.catalog_s"):
        units[name] = "s"
    units["verify.cases"] = "count"
    units["verify.failed"] = "count"
    units["harness.self_s"] = "s"
    units["trace.overhead_frac"] = "fraction"
    units["trace.accounted_frac"] = "fraction"
    units["trace.coverage_frac"] = "fraction"
    return units


def traced_metrics(job, tracer, passes):
    """Per-layer metrics from the spans of the traced passes.

    Class seconds are self times summed per traced pass, then the median
    over traced passes; shares divide by the untraced median pass time.
    Each traced pass is compared with the mean of the untraced passes on
    either side of it, so that the overhead and accounted fractions
    compare passes seconds apart and a steady drift of host speed
    cancels.  A metric of a layer this workload does not run reads 0.
    """
    by_pass = spans.pass_sums(tracer.records)
    traced = sorted(by_pass)
    classes = {c for b in by_pass.values() for c in b}
    sums = {c: statistics.median(by_pass[i].get(c, 0.0) for i in traced) for c in classes}
    untraced = statistics.median(p["s"] for p in passes if not (p["warmup"] or p["traced"]))

    def beside(i):
        near = [passes[j]["s"] for j in (i - 1, i + 1)
                if 0 <= j < len(passes) and not (passes[j]["warmup"] or passes[j]["traced"])]
        return statistics.mean(near) if near else None

    pairs = [(i, beside(i)) for i in traced if beside(i) is not None]

    m = job.layer_metrics(sums)
    for cls in W.CLASSES:
        m[f"kernels.{cls}.share"] = sums.get(cls, 0.0) / untraced
    setup = {r["cls"]: r["end"] - r["start"] for r in tracer.records if r["pass"] is None}
    for name in ("kernels.import", "kernels.bank", "netcfg.load", "costs.count", "volume.input"):
        m[f"{name}_s"] = setup.get(name, 0.0)
    m["harness.self_s"] = sums.get("harness", 0.0)
    m["trace.overhead_frac"] = statistics.median(passes[i]["s"] / u for i, u in pairs) - 1.0
    if isinstance(job, NetworkRun):
        work = {i: sum(by_pass[i].get(c, 0.0) for c in ("skip_add",) + W.CLASSES)
                for i in traced}
        m["trace.accounted_frac"] = statistics.median(work[i] / u for i, u in pairs)
        m["trace.coverage_frac"] = statistics.median(work[i] / passes[i]["s"] for i in traced)
    return {name: {"value": m.get(name, 0), "unit": unit}
            for name, unit in per_layer_units().items()}


# ----------------------------------------------------------------------


def machine():
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy without mode="dicts"
        pass
    return {"numpy": np.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=W.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    start = time.monotonic()

    tracer = spans.Spans() if args.trace else spans.Off()
    off = spans.Off()
    if args.workload == "cli-small":
        job = CliRun(tracer)
    else:
        job = NetworkRun(args.workload, args.seed, tracer)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    # pass 0 is a warm-up: checked and counted as attempted, but not timed
    # into any metric; after it a traced run alternates traced and untraced
    passes = []
    while True:
        warmup = not passes
        traced = bool(args.trace) and not warmup and len(passes) % 2 == 1
        tr = tracer if traced else off
        tracer.pass_id = len(passes)
        t0 = time.perf_counter()
        try:
            with tr.span("pass", cls="harness"):
                result = job.run(tr)
            dt = time.perf_counter() - t0
            ok, detail = job.check(result, len(passes))
        except Exception:  # a pass that raises is a failed pass, not a crashed run
            dt = time.perf_counter() - t0
            ok, detail = False, traceback.format_exc(limit=3)
        result = None
        passes.append({"s": dt, "warmup": warmup, "traced": traced, "ok": ok, "detail": detail})

        timed = [q for q in passes if not q["warmup"]]
        untraced = [q["s"] for q in timed if not q["traced"]]
        # a traced run stops only after an untraced pass, the last pair's second half
        pairs = len(untraced) if args.trace and not traced else 0
        # measure --seconds to the nearest whole pass
        enough = (len(untraced) >= MIN_PASSES
                  and sum(untraced) + untraced[-1] / 2 >= args.seconds
                  and (not args.trace or pairs >= MIN_PAIRS))
        measured = untraced and (pairs or not args.trace)
        if enough or (measured and time.monotonic() - start > WALL_CAP_S):
            break

    record = {
        "ready": ready,
        "passes": passes,
        "peak_rss_mb": _peak_rss_mb(args.workload),
        "hash": getattr(job, "ref_hash", None),
        "grad_check": getattr(job, "grad_check", None),
        "machine": machine(),
    }
    if args.trace:
        tracer.pass_id = None
        if isinstance(job, CliRun):
            job.run_catalog(tracer)
        record["metrics"] = traced_metrics(job, tracer, passes)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "passes": passes,
                       "spans": tracer.records, "metrics": record["metrics"],
                       "machine": record["machine"]}, f, indent=1)
        record["trace_file"] = path
    print(json.dumps(record))
    return 0


def _peak_rss_mb(workload):
    """Peak RSS of the process doing the work: the CLI children for cli-small."""
    who = resource.RUSAGE_CHILDREN if workload == "cli-small" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main())
