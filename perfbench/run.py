#!/usr/bin/env python3
"""Repo benchmark: builds the simulator from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 25 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the repository root. The driver program repeats the workload for
--seconds of host time; this script checks its results and prints, as the
last line of stdout, one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones.

Each run stores its simulated-outcome digest under the build directory, keyed
by workload, seed and driver binary. A later run of the same binary on the
same seed must reproduce it, or the run is marked incorrect.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("paper_mix", "fleet", "planes")
# The driver's own limit. A build that finds nothing to do takes about a
# second, so a run that does not build ends within three minutes.
DRIVER_LIMIT_S = 165


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found; run from the repository root")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent first runs build once
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                   build_dir, "-DCMAKE_BUILD_TYPE=Release"] + gen
            run_logged(cmd)
        jobs = str(min(4, os.cpu_count() or 1))
        run_logged(["cmake", "--build", build_dir, "-j", jobs])
    exe = os.path.join(build_dir, "perfbench_driver")
    if not os.path.isfile(exe):
        fail("build produced no perfbench_driver")
    return exe


def run_logged(cmd):
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-20000:])
        fail(f"command failed ({p.returncode}): {' '.join(cmd)}")


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_digest(build_dir, exe, workload, seed, digest):
    """Stores the digest; returns an error string when a stored one differs."""
    key = f"{workload}-{seed}-{file_sha256(exe)[:16]}"
    store = os.path.join(build_dir, "digests")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, key + ".txt")
    if os.path.isfile(path):
        with open(path) as f:
            stored = f.read().strip()
        if stored != digest:
            return f"digest {digest} differs from the stored {stored} of an " \
                   f"earlier run of this binary on seed {seed}"
        return None
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(digest + "\n")
    os.replace(tmp, path)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found; run from the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    exe = build(root, build_dir)

    cmd = [exe, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=DRIVER_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("driver did not finish in time")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stdout.write(p.stdout)
        fail(f"driver exited with code {p.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    errors = []
    if not result["correct"]:
        errors.append("the driver reported a failed check (see above)")
    digest_err = check_digest(build_dir, exe, args.workload, args.seed,
                              result["digest"])
    if digest_err:
        errors.append(digest_err)
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            errors.append(f"metric {m['name']} missing")
            continue
        if got["unit"] != m["unit"]:
            errors.append(f"metric {m['name']} in {got['unit']}, "
                          f"BENCHMARK.json says {m['unit']}")
        value = got["value"]
        if value is None or not math.isfinite(value):
            errors.append(f"metric {m['name']} is not a finite number")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        errors.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    for e in errors:
        print(f"check failed: {e}")

    out = {
        "correct": not errors,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(out))
    sys.exit(0 if not errors else 1)


if __name__ == "__main__":
    main()
