"""Whole-stack benchmark for sepconv3d.

Run from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S   # every workload

Workloads (see perfbench/README.md): ganet11-fwsc-fwd, ganet11-full-fwd,
ganet11-fdwsc-train, cli-small.

Each workload runs in fresh worker processes (perfbench/worker.py) with
the BLAS/OpenMP pools pinned to one thread.  Set-up time is the median
over several fresh processes, each timed from spawn until its first pass
could begin.  The main worker then runs one warm-up pass and timed
passes for at least --seconds (and at least three), checking every
pass's outputs outside the timed region.  The last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics from
the spans of a traced run (--trace 1).  Exits 2, printing no result,
when the checkout does not hold the package sources.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402  (stdlib-only module level)

SETUP_SAMPLES = 5  # fresh processes timed for setup_s, the main worker included
WORKER_TIMEOUT_S = 170.0

# the variables `sepconv3d bench` pins; they must be set before numpy loads
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
THREADS = 1

END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env(root):
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(root, env, argv, timeout):
    """Run one worker; returns (spawn time, its JSON record).

    The worker gets its own process group, so that a worker that times
    out is killed together with any CLI child it started.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(argv)}") from e
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return t0, json.loads(lines[-1])


def machine_info():
    info = {
        "nproc": os.cpu_count(),
        "threads_pinned": THREADS,
        "thread_vars": list(THREAD_VARS),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu": platform.processor() or "unknown",
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for key, name in (("l1d", "LEVEL1_DCACHE_SIZE"), ("l2", "LEVEL2_CACHE_SIZE"),
                      ("l3", "LEVEL3_CACHE_SIZE")):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            info[f"{key}_bytes"] = int(out.stdout.strip())
        except (OSError, ValueError, subprocess.TimeoutExpired):
            info[f"{key}_bytes"] = None
    return info


def run_workload(root, workload, seed, seconds, trace):
    env = worker_env(root)
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            t0, rec = spawn(root, env, base + ["--setup-only"], 60.0)
            setups.append(rec["ready"] - t0)
    t0, rec = spawn(root, env, base, WORKER_TIMEOUT_S)
    setups.append(rec["ready"] - t0)

    passes = rec["passes"]
    untraced = [p["s"] for p in passes if not (p["traced"] or p["warmup"])]
    failed = sum(1 for p in passes if not p["ok"])
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "fail_frac": failed / len(passes),
        "pass_s": statistics.median(untraced),
        "pass_count": len(untraced),
        "pass_min_s": min(untraced),
        "pass_max_s": max(untraced),
        "setup_s": statistics.median(setups),
        "setup_samples": len(setups),
        "peak_rss_mb": rec["peak_rss_mb"],
        "output_sha256": rec.get("hash"),
        "grad_check": rec.get("grad_check"),
        "failures": [p["detail"] for p in passes if not p["ok"]][:3],
        "machine": {**machine_info(), **rec["machine"]},
    }
    if trace:
        summary["metrics"] = rec["metrics"]
        summary["trace_file"] = rec.get("trace_file")
    else:
        summary["metrics"] = {k: {"value": summary[k], "unit": u}
                              for k, u in END_TO_END_UNITS.items()}
    return summary


def print_summary(s, out=sys.stdout):
    print(f"workload {s['workload']}  seed {s['seed']}  trace {s['trace']}", file=out)
    print(f"  pass_s       {s['pass_s']:.4f} s   median of {s['pass_count']} passes "
          f"(min {s['pass_min_s']:.4f}, max {s['pass_max_s']:.4f})", file=out)
    if not s["trace"]:
        print(f"  setup_s      {s['setup_s']:.4f} s   median of {s['setup_samples']} "
              f"fresh processes", file=out)
    print(f"  peak_rss_mb  {s['peak_rss_mb']:.1f} MB", file=out)
    print(f"  fail_frac    {s['fail_frac']:.3f}     {s['failed']}/{s['attempted']} passes failed",
          file=out)
    if s["output_sha256"]:
        print(f"  output_sha256 {s['output_sha256']}", file=out)
    if s["grad_check"]:
        g = s["grad_check"]
        print(f"  grad oracle  {'pass' if g['ok'] else 'FAIL'}  worst {g['detail']}", file=out)
    for d in s["failures"]:
        print(f"  failure: {d.strip()}", file=out)
    if s["trace"]:
        for name, m in s["metrics"].items():
            print(f"  {name:<34} {m['value']:.6g} {m['unit']}", file=out)
        print(f"  spans written to {s['trace_file']}", file=out)
    print(f"  machine {json.dumps(s['machine'], sort_keys=True)}", file=out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")

    # SIGTERM raises SystemExit, so that spawn() still kills its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    pkg = os.path.join(root, "src", "sepconv3d")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        print(f"error: no package sources at {pkg}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # the build step: byte-compile the sources once, so no timed process compiles them
    if not compileall.compile_dir(pkg, quiet=1) or not compileall.compile_dir(HERE, quiet=1):
        print("error: the package sources do not compile", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(root, w, args.seed, args.seconds, args.trace) for w in names]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for s in results:
        print_summary(s)
    if len(results) == 1:
        s = results[0]
        line = {k: s[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        line = {s["workload"]: {k: s[k] for k in ("correct", "attempted", "failed", "fail_frac",
                                                  "metrics")} for s in results}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
