#!/usr/bin/env python3
"""Repository benchmark driver (see README.md in this directory).

    python3 bench/suite/run.py --workload irregular-2L --seed 1 --seconds 30 --trace 0
    python3 bench/suite/run.py --smoke
    python3 bench/suite/run.py --calibrate 9

Builds bench_suite from source, then runs a closed loop with one client:
one bench_suite child process per pass, one at a time, until the time
budget is spent. With --trace 1 it adds one traced pass for the per-layer
latencies. It writes a results file with host metadata and every metric's
median, quartiles and pass count, and prints one JSON line last on stdout.
"""

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parent.parent

# Host-to-Alpha user-time scale and per-app cost scales, pinned so a pass's
# virtual time does not carry one process's calibration noise. Each is the
# median of `run.py --calibrate 31` on the host README.md names.
TIME_SCALE = 74.1
COST_SCALE = {
    "SOR": 2.37e-4,
    "LU": 2.36e-2,
    "Water": 1.48e-4,
    "Gauss": 3.96e-3,
    "Ilink": 1.08e-3,
    "Em3d": 8.26e-2,
    "Barnes": 1.19e-1,
}
PAPER_APPS = ["SOR", "LU", "Gauss", "Ilink", "Em3d", "Barnes"]
# The 2L workload runs only the paper apps that verify under 2L on a loaded
# multicore host; README.md ("Workloads") gives the failure counts.
WORKLOADS = {
    "irregular-2L": {"protocol": "2L", "apps": ["Ilink", "Em3d"]},
    "paper-1LD": {"protocol": "1LD", "apps": PAPER_APPS},
    "locks-2LS": {"protocol": "2LS", "apps": ["Water"]},
}
SIZE = "bench"
SMOKE_SIZE = "test"

MIN_PASSES = 3
# A run must end within 180 s; a child still running at this point of the
# run is killed and its runs count as failed.
DEADLINE_S = 150.0

# End-to-end metrics, computed per untraced pass; the reported value is the
# median over passes.
END_TO_END_CLOCK = {"speedup": "virtual", "wall_s": "host", "setup_s": "host",
                    "peak_rss_mb": "host"}
# Per-layer metrics that only the traced pass yields (the rest are medians
# over the untraced passes), and the clock of every per-layer metric that is
# not a count of work done.
TRACED_ONLY_PREFIXES = ("runtime.busy_ms", "runtime.idle_frac", "trace.", "vm.fault_us.",
                        "protocol.coh_lag_us.", "msg.fetch_rtt_us.", "sync.barrier_wait_us.",
                        "sync.lock_hold_us.")
HOST_RATIOS = ("apps.dilation", "runtime.idle_frac", "trace.overhead")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def layer_clock(name, unit):
    """'virtual' (the cost model's clock), 'host', or 'count' for work done."""
    if name.startswith(("vt.", "protocol.release_path_ms")):
        return "virtual"
    if unit in ("s", "ms", "us") or name in HOST_RATIOS:
        return "host"
    return "count"


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def load_declared():
    path = ROOT / "BENCHMARK.json"
    try:
        bench = json.loads(path.read_text())
        return ({m["name"]: m for m in bench["end_to_end"]},
                {m["name"]: m for m in bench["per_layer"]},
                {w["name"] for w in bench["workloads"]})
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read {path}: {e}")


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(SUITE_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", str(build_dir), "--target", "bench_suite", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "bench_suite"


def spawn_pass(argv, out_path, deadline):
    """Runs one child to completion. Returns (exit status, parsed JSON or
    None, peak RSS in MB). The child is killed at `deadline`."""
    with open(out_path, "wb") as out, open(str(out_path) + ".err", "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
    try:
        while True:
            # wait4 rather than Popen.wait: it also returns the child's
            # rusage, whose ru_maxrss is the pass's peak RSS (KiB on Linux).
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = None
    if proc.returncode == 0:
        try:
            record = json.loads(Path(out_path).read_text().strip().splitlines()[-1])
        except (ValueError, IndexError):
            record = None
    return proc.returncode, record, usage.ru_maxrss / 1024.0


def pass_argv(binary, workload, size, order, trace_out=None):
    argv = [str(binary), "--protocol", workload["protocol"], "--size", size,
            "--time-scale", repr(TIME_SCALE)]
    for app in order:
        argv += ["--app", f"{app}={COST_SCALE[app]!r}"]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    return argv


def run_workload(binary, name, seed, seconds, traced, size, results_dir, min_passes):
    """Runs the passes of one workload; returns (passes, traced_pass,
    attempted, failed, errors of passes that left no record)."""
    workload = WORKLOADS[name]
    start = time.monotonic()
    deadline = start + DEADLINE_S
    rng = random.Random(f"{name}/{seed}")
    out_path = results_dir / f"{name}.seed{seed}.pass.out"
    passes, durations, errors = [], [], []
    attempted = failed = 0

    def one_pass(trace_out=None):
        nonlocal attempted, failed
        order = list(workload["apps"])
        rng.shuffle(order)
        t0 = time.monotonic()
        code, record, rss_mb = spawn_pass(
            pass_argv(binary, workload, size, order, trace_out), out_path, deadline)
        durations.append(time.monotonic() - t0)
        attempted += len(order)
        if record is None:
            # A crashed, aborted or killed child: all of its runs failed.
            failed += len(order)
            err = Path(str(out_path) + ".err").read_text(errors="replace").strip()
            errors.append(f"pass exited with {code} and no parsable record"
                          + (f": {err.splitlines()[-1]}" if err else ""))
            return None
        failed += int(record["failed"])
        record["peak_rss_mb"] = rss_mb
        return record

    while len(passes) < min_passes or (
            time.monotonic() - start + statistics.mean(durations) <= seconds):
        if time.monotonic() > deadline:
            break
        record = one_pass()
        if record is not None:
            passes.append(record)
    traced_pass = None
    if traced:
        traced_pass = one_pass(results_dir / f"{name}.seed{seed}.spans.json")
    for suffix in ("", ".err"):
        Path(str(out_path) + suffix).unlink(missing_ok=True)
    return passes, traced_pass, attempted, failed, errors


def aggregate(passes, traced_pass, declared_e2e, declared_layer, traced):
    """Returns {metric: entry} for the declared metrics of this mode, and a
    list of schema errors."""
    errors = []
    metrics = {}
    if not passes:
        return metrics, ["no pass produced a record"]

    def entry(decl, values, clock):
        q1, med, q3 = quartiles(values)
        e = {"value": med, "unit": decl["unit"], "clock": clock, "better": decl["better"],
             "q1": q1, "q3": q3, "n": len(values)}
        if "bound" in decl:
            e["bound"] = decl["bound"]
        return e

    for name, decl in declared_e2e.items():
        if name not in END_TO_END_CLOCK:
            errors.append(f"declared end-to-end metric {name} is not measured")
            continue
        metrics[name] = entry(decl, [p[name] for p in passes], END_TO_END_CLOCK[name])
    if not traced:
        return metrics, errors

    produced = set(passes[0]["layers"])
    if traced_pass is not None:
        produced |= set(traced_pass["layers"]) | {"trace.overhead"}
    for name in sorted(produced - set(declared_layer)):
        errors.append(f"per-layer metric {name} is not declared in BENCHMARK.json")
    for name, decl in declared_layer.items():
        clock = layer_clock(name, decl["unit"])
        if name == "trace.overhead":
            if traced_pass is None:
                errors.append("traced pass produced no record")
                continue
            values = [traced_pass["wall_s"] / statistics.median(p["wall_s"] for p in passes)]
            metrics[name] = entry(decl, values, clock)
        elif name.startswith(TRACED_ONLY_PREFIXES):
            if traced_pass is None or name not in traced_pass["layers"]:
                errors.append(f"per-layer metric {name} missing from the traced pass")
                continue
            metrics[name] = entry(decl, [traced_pass["layers"][name]], clock)
            pct = traced_pass.get("tail_pct", {}).get(name)
            if pct is not None:
                metrics[name]["percentile"] = pct
        else:
            if any(name not in p["layers"] for p in passes):
                errors.append(f"per-layer metric {name} missing from a pass")
                continue
            values = [p["layers"][name] for p in passes]
            metrics[name] = entry(decl, values, clock)
            if clock == "count":
                metrics[name]["exact"] = len(set(values)) == 1
    return metrics, errors


def host_metadata(build_dir, seed):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    try:
        for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        compiler_version = subprocess.run([compiler, "--version"], capture_output=True,
                                          text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        compiler_version = "unknown"
    # The checkout a run builds from may not be a git repository (and git
    # must not look above it); the digest of the code identifies it either
    # way.
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True).stdout.strip() or commit
        except OSError:
            pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", SUITE_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file() and p.suffix != ".md"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "compiler": compiler,
            "compiler_version": compiler_version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"), "git_commit": commit,
            "source_sha256": digest.hexdigest(), "seed": seed}


def run_benchmark(args, binary, build_dir):
    declared_e2e, declared_layer, declared_workloads = load_declared()
    if args.workload not in WORKLOADS or args.workload not in declared_workloads:
        fail(f"unknown workload {args.workload}")
    results_dir = args.results_dir
    results_dir.mkdir(parents=True, exist_ok=True)
    traced = args.trace == 1
    passes, traced_pass, attempted, failed, pass_errors = run_workload(
        binary, args.workload, args.seed, args.seconds, traced, SIZE, results_dir, MIN_PASSES)
    metrics, errors = aggregate(passes, traced_pass, declared_e2e, declared_layer, traced)
    if errors:
        fail("; ".join(errors + pass_errors))
    wanted = declared_layer if traced else declared_e2e
    result = {
        "schema": 1,
        "host": host_metadata(build_dir, args.seed),
        "workload": args.workload,
        "protocol": WORKLOADS[args.workload]["protocol"],
        "apps": WORKLOADS[args.workload]["apps"],
        "size": SIZE,
        "time_scale": TIME_SCALE,
        "cost_scale": {a: COST_SCALE[a] for a in WORKLOADS[args.workload]["apps"]},
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "pass_errors": pass_errors,
        "metrics": metrics,
        "pass_records": passes,
        "traced_pass": traced_pass,
    }
    path = results_dir / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"run.py: {args.workload}: {len(passes)} passes, {failed}/{attempted} runs failed; "
          f"results in {path}", file=sys.stderr)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                        for n in wanted}}
    print(json.dumps(line))


def smoke(binary, results_dir):
    """Schema check at test size: one pass per workload plus the traced pass.
    Fails on a missing, renamed or undeclared metric or an unparsable pass,
    never on a verification failure."""
    declared_e2e, declared_layer, declared_workloads = load_declared()
    errors = []
    if declared_workloads != set(WORKLOADS):
        errors.append(f"workloads {sorted(declared_workloads)} != {sorted(WORKLOADS)}")
    results_dir.mkdir(parents=True, exist_ok=True)
    for name in WORKLOADS:
        passes, traced_pass, attempted, failed, pass_errors = run_workload(
            binary, name, 0, 0.0, True, SMOKE_SIZE, results_dir, 1)
        metrics, agg_errors = aggregate(passes, traced_pass, declared_e2e, declared_layer, True)
        errors += [f"{name}: {e}" for e in agg_errors + pass_errors]
        print(f"smoke: {name}: {len(metrics)} metrics, {failed}/{attempted} runs failed")
    if errors:
        fail("smoke: " + "; ".join(errors))
    print("smoke: ok")


def calibrate(binary, processes):
    """Re-derives the pinned constants: the median over `processes` fresh
    processes of HostToAlphaTimeScale and each app's AutoCostScale."""
    apps = list(COST_SCALE)
    samples = []
    for _ in range(processes):
        argv = [str(binary), "--calibrate", "--size", SIZE]
        for app in apps:
            argv += ["--app", app]
        out = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    ts = [s["time_scale"] for s in samples]
    print(f"time_scale: median {statistics.median(ts):.4g} (min {min(ts):.4g}, max {max(ts):.4g})")
    for app in apps:
        v = [s["cost_scale"][app] for s in samples]
        print(f"{app}: median {statistics.median(v):.3g} (min {min(v):.3g}, max {max(v):.3g})")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--calibrate", type=int, metavar="PROCESSES")
    parser.add_argument("--binary", type=Path, help="use this bench_suite instead of building")
    parser.add_argument("--results-dir", type=Path, default=ROOT / "bench_results")
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = args.binary if args.binary is not None else build(build_dir)
    if args.binary is not None:
        build_dir = args.binary.resolve().parent
    # A SIGTERM from the caller unwinds like Ctrl-C, so the running child is
    # killed and reaped.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if args.smoke:
        smoke(binary, args.results_dir)
    elif args.calibrate is not None:
        calibrate(binary, args.calibrate)
    elif args.workload is not None:
        run_benchmark(args, binary, build_dir)
    else:
        parser.error("one of --workload, --smoke or --calibrate is required")


if __name__ == "__main__":
    main()
