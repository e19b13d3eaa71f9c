#!/usr/bin/env python3
"""Repository benchmark of the NEOFog simulator.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator library and the benchmark harness from source
(Release, into .bench_build/), runs one workload for S seconds as a
closed loop with one client, checks every system report against the
serial reference run of the same scenario (and, for the seeds pinned
under perfbench/pinned/, against the pinned reports), and prints the
metrics.  With --trace 1 it also runs the traced passes and turns their
spans into the per-layer table (perfbench/spans.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json for --trace 0, its per_layer metrics for --trace 1.
Exit codes: 0 done, 1 build or run failed, 2 usage error.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "neofog_perfbench")
PINNED_DIR = os.path.join(HERE, "pinned")

sys.path.insert(0, HERE)
import spans  # noqa: E402  (the span reader beside this script)

# The whole invocation must end within this many seconds.
DEADLINE_S = 170
BUILD_DEADLINE_S = 840


class Failure(Exception):
    """The benchmark could not produce a result."""


class Interrupted(Exception):
    """SIGTERM or SIGINT arrived; clean up and exit non-zero."""


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return spec


def parse_args(argv, workloads):
    def seed(text):
        if not re.fullmatch(r"[0-9]{1,20}", text) or int(text) >= 2**64:
            raise argparse.ArgumentTypeError(
                f"malformed seed {text!r}: need a non-negative integer")
        return int(text)

    def seconds(text):
        if not re.fullmatch(r"[0-9]{1,3}", text) or not 1 <= int(text) <= 60:
            raise argparse.ArgumentTypeError(
                f"malformed --seconds {text!r}: need an integer 1..60")
        return int(text)

    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one NEOFog benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=seed, default=1)
    parser.add_argument("--seconds", type=seconds, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def nproc():
    return len(os.sched_getaffinity(0))


def run_group(cmd, deadline, **kwargs):
    """Run cmd in its own process group and kill what is left of the
    group when it exits, times out or this script is interrupted."""
    proc = subprocess.Popen(cmd, cwd=ROOT, text=True,
                            preexec_fn=os.setpgrp, **kwargs)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise Failure(f"{os.path.basename(cmd[0])} did not finish in time")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, out


def check_output(cmd, deadline):
    code, out = run_group(cmd, deadline, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT)
    if code != 0:
        sys.stderr.write(out[-4000:])
        raise Failure(f"{' '.join(cmd[:3])} ... exited {code}")


def build(deadline):
    """Configure (once) and build the harness; Release, all CPUs."""
    if not os.path.isfile(os.path.join(ROOT, "src", "fog", "fog_system.hh")):
        raise Failure("simulator sources (src/) are missing; cannot build")
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if (not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt"))
            and shutil.which("ninja")):
        configure += ["-G", "Ninja"]
    check_output(configure, deadline)
    check_output(["cmake", "--build", BUILD_DIR, "--target",
                  "neofog_perfbench", "-j", str(nproc())], deadline)


def run_harness(args, run_dir, deadline):
    """Run the harness; returns its standard output."""
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", run_dir]
    pinned = os.path.join(PINNED_DIR, f"{args.workload}-seed{args.seed}.json")
    if os.path.isfile(pinned):
        cmd += ["--pinned", pinned]
    code, out = run_group(cmd, deadline, stdout=subprocess.PIPE)
    if code != 0:
        raise Failure(f"harness exited {code}")
    return out


def collect(args, spec, run_dir):
    with open(os.path.join(run_dir, "BENCH_perfbench.json")) as f:
        doc = json.load(f)
    results, notes = doc["results"], doc["notes"]
    if args.trace:
        wanted = spec["per_layer"]
        values = dict(results)
        values.update(spans.layer_table(
            spans.read_spans(os.path.join(run_dir, "spans.csv")), results))
    else:
        wanted = spec["end_to_end"]
        values = results
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise Failure(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    attempted = int(results["attempted"])
    failed = int(results["failed"])
    if attempted < 1:
        raise Failure("no system run was attempted")
    return {"correct": failed == 0 and notes.get("trace_equal", "1") == "1",
            "attempted": attempted, "failed": failed,
            "metrics": metrics}, notes


def on_signal(signum, frame):
    raise Interrupted(signal.Signals(signum).name)


def main(argv):
    start = time.monotonic()
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        print(f"perfbench: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 1
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    run_dir = os.path.join(BUILD_DIR, "runs",
                           f"{args.workload}-{os.getpid()}")
    try:
        build(start + BUILD_DEADLINE_S)
        os.makedirs(run_dir)
        log = run_harness(args, run_dir, time.monotonic() + DEADLINE_S)
        result, notes = collect(args, spec, run_dir)
    except (Failure, Interrupted, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print(f"perfbench: {args.workload}: {type(e).__name__}: {e}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    sys.stdout.write(log)
    print(f"perfbench {args.workload}: seed {args.seed}, "
          f"{notes.get('repetitions')} repetitions of "
          f"{notes.get('systems')} system(s), each on one CPU, "
          f"workers {notes.get('workers')}, traced-pass pool threads "
          f"{notes.get('pool_threads')}, closed loop, 1 client; "
          f"times in calibrated seconds (perfbench/README.md)")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'mismatch_frac':34s} "
          f"{result['failed'] / result['attempted']:>16.6g} "
          f"({result['failed']} of {result['attempted']} runs)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
