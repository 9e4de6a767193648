#!/usr/bin/env python3
"""Repository benchmark: build the simulator from source, run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload rwp_25k --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics (run_s, setup_s, ticks_per_s,
peak_rss_mb); --trace 1 prints the per-layer metrics of the traced replay and
writes its spans to .bench_out/. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. See
perfbench/README.md for the workloads and the metric map.

--record stores the output digest of (workload, seed) in references.json
instead; later runs of that pair then fail on any output change.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references.json"
# A benchmark run must end within 180 s; the workload binary gets 170 s of it.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else REPO_ROOT / path


def build():
    """Configure and build the perfbench binary; None on failure.

    Configuring every time costs well under a second on a configured tree
    and recovers a tree whose first configure failed.
    """
    out = build_dir()
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(out), "--target", "perfbench", "-j", BUILD_JOBS]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        except OSError as err:
            log(f"cannot run {cmd[0]}: {err}")
            return None
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    binary = out / "perfbench"
    return binary if binary.exists() else None


def load_references():
    if not REFERENCES.exists():
        return {}
    with open(REFERENCES) as f:
        return json.load(f)


def run_binary(cmd):
    """Runs the workload binary, forwarding its stderr; returns (code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, stdout


def run_workload(binary, args, workload, references):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0" if args.record else str(args.trace)]
    expect = references.get(workload, {}).get(str(args.seed))
    if expect is not None and not args.record:
        cmd += ["--expect", expect]
    if args.trace == 1 and not args.record:
        spans_dir = REPO_ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans_dir / f"spans-{workload}-{args.seed}.json")]
    code, stdout = run_binary(cmd)
    return code, stdout.splitlines()


def record(workload, args, references, code, lines):
    """Stores the digest a --record run printed as the (workload, seed) reference."""
    digest = None
    for line in lines:
        if line.startswith("perfbench digest "):
            digest = line.split()[-1]
    if code != 0 or digest is None or not json.loads(lines[-1]).get("correct"):
        log(f"{workload}: no digest to record")
        return 1
    references.setdefault(workload, {})[str(args.seed)] = digest
    with open(REFERENCES, "w") as f:
        json.dump(references, f, indent=2, sort_keys=True)
        f.write("\n")
    log(f"recorded {workload} seed {args.seed}: {digest}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record the output digest of (workload, seed) as its reference")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    if binary is None:
        return 1
    workloads = [args.workload]
    if args.workload == "all":
        with open(REPO_ROOT / "BENCHMARK.json") as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    references = load_references()
    status = 0
    for workload in workloads:
        code, lines = run_workload(binary, args, workload, references)
        if not lines or not lines[-1].startswith("{"):
            log(f"{workload}: workload printed no result")
            status = status or code or 1
            continue
        if args.record:
            status = status or record(workload, args, references, code, lines)
            continue
        try:
            json.loads(lines[-1])
        except json.JSONDecodeError:
            log(f"{workload}: last output line is not a JSON result")
            status = status or code or 1
            continue
        sys.stdout.write("\n".join(lines) + "\n")
        sys.stdout.flush()
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
