#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the repository root (takes a few minutes; builds first):

    python3 perfbench/selftest.py

It shows that
  - malformed arguments fail with a usage error and print no result;
  - a normal run prints one result line with every end-to-end metric;
  - the correctness check fires: a perturbed scenario (another balancer
    spec) and a tampered pinned report are counted as failed runs;
  - the probes change nothing: the traced reports equal the untraced
    ones bit for bit on every workload;
  - each workload shows its intended layer in the per-layer table;
  - thread and worker counts are clamped to nproc;
  - checkpoint directories are removed after success, after a failure
    and after an interrupt;
  - without the simulator sources the benchmark exits non-zero without
    printing a result.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "neofog_perfbench")
SCRATCH = os.path.join(BUILD_DIR, "selftest")

sys.path.insert(0, HERE)
import spans  # noqa: E402

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run_py(args, cwd=ROOT, timeout=900):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def harness(name, *args, cpus=None):
    """Run the built harness, on the CPUs in @cpus if given; returns
    (exit code, results, notes, dir)."""
    out = os.path.join(SCRATCH, name)
    pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    proc = subprocess.run([EXE, "--out", out] + list(args), cwd=ROOT,
                          capture_output=True, text=True, timeout=600,
                          preexec_fn=pin)
    path = os.path.join(out, "BENCH_perfbench.json")
    if proc.returncode != 0 or not os.path.exists(path):
        return proc.returncode, {}, {}, out
    with open(path) as f:
        doc = json.load(f)
    return proc.returncode, doc["results"], doc["notes"], out


def usage_errors():
    for args, what in [
            (["--workload", "no-such-workload"], "unknown workload"),
            (["--workload", "rain-fleet", "--seed", "abc"], "seed 'abc'"),
            (["--workload", "rain-fleet", "--seed", "-1"], "seed '-1'"),
            (["--workload", "rain-fleet", "--seed", "1.5"], "seed '1.5'"),
            (["--workload", "rain-fleet", "--seconds", "0"], "seconds 0"),
            (["--workload", "rain-fleet", "--trace", "2"], "trace 2")]:
        p = run_py(args, timeout=60)
        check(p.returncode == 2 and p.stdout == "" and "usage" in p.stderr,
              f"run.py rejects {what} with a usage error")
    code, _, _, _ = harness("usage", "--workload", "rain-fleet", "--seed",
                            "x", "--seconds", "1", "--trace", "0")
    check(code == 2, "the harness rejects a malformed seed with exit 2")


def normal_run():
    p = run_py(["--workload", "relay-mux", "--seed", "1", "--seconds", "1",
                "--trace", "0"])
    check(p.returncode == 0, "run.py relay-mux (pinned seed 1) exits 0")
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        return
    result = json.loads(p.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          "the result line has exactly the four keys")
    check(result["correct"] and result["failed"] == 0,
          "relay-mux matches its reference and its pinned reports")
    check(sorted(result["metrics"]) ==
          sorted(m["name"] for m in spec["end_to_end"])
          and all(m["value"] > 0 for m in result["metrics"].values()),
          "every end-to-end metric is printed and non-zero")


def traced_runs():
    """Traced runs: probes change nothing; layers show; the workloads
    run with their own pool thread and worker counts."""
    ncpu = len(os.sched_getaffinity(0))
    counts = {"rain-fleet": (min(4, ncpu), 0),
              "forest-sweep": (0, 0),
              "relay-mux": (0, 0),
              "checkpoint-workers": (0, min(2, ncpu))}
    tables = {}
    for w, (threads, workers) in counts.items():
        code, results, notes, out = harness(
            "traced-" + w, "--workload", w, "--seed", "5", "--seconds", "1",
            "--trace", "1")
        check(code == 0 and results.get("failed") == 0
              and notes.get("trace_equal") == "1",
              f"{w}: traced reports equal the untraced ones bit for bit")
        if code != 0:
            continue
        check(notes.get("pool_threads") == str(threads)
              and notes.get("workers") == str(workers),
              f"{w}: {threads} pool thread(s), {workers} worker(s) "
              f"(ran {notes.get('pool_threads')}, {notes.get('workers')})")
        table = dict(results)
        table.update(spans.layer_table(
            spans.read_spans(os.path.join(out, "spans.csv")), results))
        tables[w] = table
        leftovers = [d for d in os.listdir(out) if d.startswith("ckpt")]
        check(not leftovers, f"{w}: no checkpoint directory left behind")
    if len(tables) != 4:
        return
    rain = tables["rain-fleet"]["energy.integrate_share"]
    forest = tables["forest-sweep"]["energy.integrate_share"]
    check(forest >= 5 * rain,
          f"integrate share on forest-sweep ({forest:.3f}) is >= 5x "
          f"rain-fleet's ({rain:.3f})")
    for w, t in tables.items():
        relay = w == "relay-mux"
        check((t["net.relay_hops"] > 0) == relay
              and (t["virt.membership_updates"] > 0) == relay,
              f"{w}: relay hops and membership updates "
              f"{'present' if relay else 'absent'}")
        dist = w == "checkpoint-workers"
        layered = [k for k, v in t.items()
                   if k.split(".")[0] in ("snapshot", "dist") and v]
        check(bool(layered) == dist,
              f"{w}: snapshot.* and dist.* {'present' if dist else 'zero'}")
        check(t["fog.chain_slots"] > 0 and t["fog.chain_slot_us.p99"] > 0,
              f"{w}: chain-slot spans recorded")


def correctness_fires():
    code, results, _, _ = harness(
        "perturbed", "--workload", "relay-mux", "--seed", "3", "--seconds",
        "1", "--trace", "0", "--perturb-balancer", "greedy")
    check(code == 0 and results.get("failed", 0) > 0,
          "a perturbed balancer spec is counted as failed runs "
          f"({results.get('failed')} of {results.get('attempted')})")

    pinned = os.path.join(HERE, "pinned", "relay-mux-seed1.json")
    with open(pinned) as f:
        doc = json.load(f)
    doc["reports"][0]["metrics"]["wakeups"] += 1
    tampered = os.path.join(SCRATCH, "tampered.json")
    with open(tampered, "w") as f:
        json.dump(doc, f)
    code, results, _, _ = harness(
        "tampered", "--workload", "relay-mux", "--seed", "1", "--seconds",
        "1", "--trace", "0", "--pinned", tampered)
    check(code == 0 and results.get("failed", 0) > 0,
          "a pinned count that differs is counted as failed runs")
    code, _, _, _ = harness(
        "wrong-seed", "--workload", "relay-mux", "--seed", "2",
        "--seconds", "1", "--trace", "0", "--pinned", pinned)
    check(code == 1, "a pinned file of another seed is refused")


def clamping_and_cleanup():
    one_cpu = {min(os.sched_getaffinity(0))}
    code, _, notes, _ = harness(
        "clamp-threads", "--workload", "rain-fleet", "--seed", "1",
        "--seconds", "1", "--trace", "0", cpus=one_cpu)
    check(code == 0 and notes.get("pool_threads") == "1",
          f"pool threads are clamped to nproc = 1 "
          f"({notes.get('pool_threads')})")
    code, _, notes, out = harness(
        "clamp-workers", "--workload", "checkpoint-workers", "--seed", "1",
        "--seconds", "1", "--trace", "0", cpus=one_cpu)
    check(code == 0 and notes.get("workers") == "1",
          f"workers are clamped to nproc = 1 ({notes.get('workers')})")
    check(code == 0 and not [d for d in os.listdir(out)
                             if d.startswith("ckpt")],
          "checkpoint directories are removed after success")

    code, _, _, out = harness(
        "failing", "--workload", "checkpoint-workers", "--seed", "1",
        "--seconds", "1", "--trace", "0", "--perturb-balancer",
        "no-such-policy")
    check(code == 1 and not [d for d in os.listdir(out)
                             if d.startswith("ckpt")],
          "checkpoint directories are removed after a failed run")

    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload",
         "checkpoint-workers", "--seed", "1", "--seconds", "30",
         "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    run_dir = os.path.join(BUILD_DIR, "runs",
                           f"checkpoint-workers-{proc.pid}")
    deadline = time.monotonic() + 120
    seen = False
    while time.monotonic() < deadline and proc.poll() is None:
        if os.path.isdir(run_dir) and any(
                d.startswith("ckpt") for d in os.listdir(run_dir)):
            seen = True
            break
        time.sleep(0.05)
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=120)
    time.sleep(0.5)
    survivors = subprocess.run(["pgrep", "-f", run_dir],
                               capture_output=True).stdout
    check(seen and proc.returncode != 0 and not os.path.exists(run_dir)
          and not survivors and "correct" not in out,
          "an interrupted run removes its checkpoints and processes")


def bare_directory():
    bare = os.path.join(SCRATCH, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run_py(["--workload", "rain-fleet", "--seed", "1", "--seconds",
                "1", "--trace", "0"], cwd=bare, timeout=180)
    check(p.returncode != 0 and "correct" not in p.stdout,
          "without the simulator sources it fails without a result")


def main():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    try:
        usage_errors()
        normal_run()  # also builds the harness
        if not os.path.exists(EXE):
            check(False, "the harness was built")
            return 1
        correctness_fires()
        traced_runs()
        clamping_and_cleanup()
        bare_directory()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
