#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see sesbench/README.md).

    python3 sesbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds sesbench/ (which compiles ../src) into
$CARGO_TARGET_DIR or .bench_build/, runs one workload, prints every metric by
name with its unit, a report line with the machine fingerprint, and as the
last line the result object {correct, attempted, failed, metrics}. The full
report is also written to <build dir>/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scale-cold", "serve-update")
# OpenMP threads are benchmark settings (sesbench/README.md, "Machine and run
# fingerprint"). The scale stage's own calls use nproc - 1. The scheduler
# worker, a thread the library starts, takes the process default of 1, so
# while serving only it and the spinning load generator are busy; the train
# stage pins itself to 1 inside ses_bench.
OMP_THREADS = max(1, (os.cpu_count() or 2) - 1)
SERVE_THREADS = 1
# glibc raises its mmap threshold as a program frees large blocks, so whether
# a buffer is reused from the heap or mapped and page-faulted afresh depends
# on what was freed before it, which varies with thread timing. Fixing the
# threshold at the largest value glibc accepts (32 MiB) and never trimming
# the heap makes every run allocate the same way (sesbench/README.md,
# "Machine and run fingerprint").
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(1 << 36)}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"sesbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources at {os.path.join(ROOT, 'src')}")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        for cmd in (
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "--target", "ses_bench",
             "-j", str(os.cpu_count() or 1)],
        ):
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build failed: {e}")
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "ses_bench")


def source_commit():
    """git HEAD when available, else a digest of the benchmarked sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "sesbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)

    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    env = dict(os.environ, OMP_NUM_THREADS=str(SERVE_THREADS), **MALLOC_ENV)
    load_before = os.getloadavg()
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [binary, f"--workload={args.workload}", f"--seed={args.seed}",
             f"--seconds={args.seconds}", f"--trace={args.trace}",
             f"--threads={OMP_THREADS}", f"--trace-out={stem}.trace.json"],
            capture_output=True, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"ses_bench did not finish within {RUN_TIMEOUT_S} s")
    wall_s = time.monotonic() - start
    load_after = os.getloadavg()
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"ses_bench exited {proc.returncode}")
    report = json.loads(lines[-1])
    report["env"] = {
        "cpu": cpu_model(),
        "simd_tier": report.pop("simd_tier"),
        "nproc": os.cpu_count(),
        "threads": {"scale_omp": report.pop("omp_threads"),
                    "train_omp": report.pop("train_threads"),
                    "serve_omp": SERVE_THREADS, "scheduler_workers": 1,
                    "load_generator": 1},
        "malloc": MALLOC_ENV,
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "commit": source_commit(),
        "seed": args.seed,
        "wall_s": wall_s,
    }
    with open(stem + ".json", "w") as f:
        json.dump(report, f, indent=1)

    section = "per_layer" if args.trace else "end_to_end"
    measured = report[section]
    metrics = {}
    for m in spec[section]:
        name = m["name"]
        if name not in measured:
            fail(f"metric {name} missing from the report")
        metrics[name] = {"value": measured[name]["value"], "unit": m["unit"]}
        print(f"{name:32s} {measured[name]['value']:>16.6g} {m['unit']}")
    for r in report["rates"]:
        print(f"rate {r['rate']:>8.0f}/s  sent {r['sent']:>6d}  "
              f"ok {r['ok']:>6d}  failed {r['failed']:>4d}  "
              f"met {r['met_limit']:>6d}  p50 {r['p50_ms']:.3f} ms  "
              f"p99 {r['p99_ms']:.3f} ms  late_p99 "
              f"{r['send_late_p99_ms']:.3f} ms  "
              f"{'pass' if r['pass'] else 'FAIL'}"
              f"{'' if r['valid'] else ' (sender late: invalid)'}")
    for c in report["checks"]:
        if not c["ok"]:
            print(f"CHECK FAILED {c['name']}: {c['detail']}")
    print(json.dumps({"report": {k: report[k] for k in
                                 ("workload", "env", "digests", "checks")}}))
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if report["correct"] else 1)


if __name__ == "__main__":
    main()
