#!/usr/bin/env python3
"""Span reader of the benchmark's traced run.

Turns the span file that neofog_perfbench writes with --trace 1
(spans.csv: id,parent,run,name,start_ns,end_ns,count,part) into the
per-layer table.  A span's layer is the part of its name before the
first dot; the roots of the runs ("bench.serial", "bench.threaded",
"bench.dist", "bench.probes") make up the "bench" layer.

It reports:
  - self time per layer (a span's duration minus the part of it that
    its child spans cover), as <layer>.self_ms;
  - p50 of each timed call, with p99 where at least ten samples lie
    beyond the p99 and the max otherwise;
  - the share of chain-slot time that the probed in-slot layers take
    (calls x p50 / total chain-slot time);
  - trace.overhead_frac, the traced serial pass over the untraced one,
    minus one.

Run it by hand as
    python3 perfbench/spans.py RUN_DIR
where RUN_DIR holds spans.csv and BENCH_perfbench.json.
"""

import csv
import json
import math
import os
import sys
from collections import defaultdict

LAYERS = ("bench", "fog", "sim", "energy", "balance", "snapshot", "dist")

# span name, metric base, ns per unit, root of the run it is taken from
# (None = every run).  The serial reference pass is the only run with
# chain-slot spans, so its per-call figures are not mixed with others.
DISTRIBUTIONS = (
    ("fog.chain_slot", "fog.chain_slot_us", 1e3, "bench.serial"),
    ("energy.integrate", "energy.integrate_ns", 1.0, "bench.serial"),
    ("balance.balance_into", "balance.balance_into_us", 1e3, None),
    ("snapshot.save", "snapshot.save_ms", 1e6, None),
    ("dist.window", "dist.window_ms", 1e6, None),
)

# span name -> (metric, ns per unit, root of the run or None): totals.
TOTALS = (
    ("fog.finalize", "fog.finalize_ms", 1e6, "bench.serial"),
    ("sim.merge", "sim.merge_us", 1e3, "bench.serial"),
    ("sim.report_json", "sim.report_json_ms", 1e6, "bench.serial"),
    ("energy.trace_build", "energy.trace_build_ms", 1e6, None),
    ("snapshot.read", "snapshot.read_ms", 1e6, None),
    ("snapshot.resume", "snapshot.resume_ms", 1e6, None),
    ("dist.shard_blob", "dist.shard_blob_us", 1e3, None),
    ("dist.frame_encode", "dist.frame_encode_us", 1e3, None),
    ("dist.frame_decode", "dist.frame_decode_us", 1e3, None),
)


class Span:
    __slots__ = ("id", "parent", "run", "name", "start", "end", "count",
                 "part")

    def __init__(self, row):
        self.id = int(row[0])
        self.parent = int(row[1])
        self.run = int(row[2])
        self.name = row[3]
        self.start = int(row[4])
        self.end = int(row[5])
        self.count = int(row[6])
        self.part = int(row[7])

    @property
    def duration(self):
        return self.end - self.start


def read_spans(path):
    with open(path, newline="") as f:
        rows = csv.reader(f)
        header = next(rows)
        if header != ["id", "parent", "run", "name", "start_ns", "end_ns",
                      "count", "part"]:
            raise ValueError(f"{path}: not a perfbench span file")
        spans = [Span(row) for row in rows]
    for span in spans:
        if span.end < span.start:
            raise ValueError(f"{path}: span {span.id} ends before it starts")
    return spans


def self_times(spans):
    """Span id -> its duration minus the union of its children."""
    children = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0
        reach = span.start
        for start, end in sorted(children.get(span.id, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = span.duration - covered
    return result


def nearest_rank(ordered, q):
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(base, samples):
    """p50, then p99 if >= 10 samples lie beyond it, else the max."""
    out = {base + ".n": len(samples)}
    if not samples:
        out.update({base + ".p50": 0.0, base + ".p99": 0.0,
                    base + ".max": 0.0})
        return out
    ordered = sorted(samples)
    out[base + ".p50"] = nearest_rank(ordered, 0.50)
    if len(ordered) - math.ceil(0.99 * len(ordered)) >= 10:
        out[base + ".p99"] = nearest_rank(ordered, 0.99)
    else:
        out[base + ".max"] = ordered[-1]
    return out


def layer_table(spans, inputs):
    """Per-layer metrics from the spans plus the run's scalar inputs.

    inputs: the BENCH_perfbench.json results (input.* keys are the
    untraced serial wall, the thread and worker counts, and the call
    counts the shares extrapolate to).
    """
    roots = {s.run: s.name for s in spans if s.parent == 0}

    def pick(name, root=None):
        return [s for s in spans
                if s.name == name and (root is None or roots[s.run] == root)]

    table = {}
    selfs = self_times(spans)
    for layer in LAYERS:
        table[layer + ".self_ms"] = 0.0
    for span in spans:
        layer = span.name.split(".", 1)[0]
        table[layer + ".self_ms"] = (table.get(layer + ".self_ms", 0.0)
                                     + selfs[span.id] / 1e6)

    for name, base, unit, root in DISTRIBUTIONS:
        table.update(summarize(base, [s.duration / s.count / unit
                                      for s in pick(name, root)]))
    for name, metric, unit, root in TOTALS:
        table[metric] = sum(s.duration for s in pick(name, root)) / unit

    chain_slots = pick("fog.chain_slot", "bench.serial")
    slot_ns = sum(s.duration for s in chain_slots)
    table["fog.chain_slots"] = len(chain_slots)

    # Each threaded window runs right after the same slot of a serial
    # copy (fog.serial_slot), so both sides see the same host load.
    windows_ns = sum(s.duration for s in pick("fog.window"))
    serial_ns = sum(s.duration for s in pick("fog.serial_slot"))
    threads = inputs.get("input.threads", 1.0)
    table["fog.pool_wait_frac"] = (
        1.0 - serial_ns / (threads * windows_ns) if windows_ns else 0.0)

    def share(calls, p50_ns):
        return calls * p50_ns / slot_ns if slot_ns else 0.0

    table["energy.integrate_share"] = share(
        inputs.get("input.integrate_calls", 0.0),
        table["energy.integrate_ns.p50"])
    table["balance.balance_share"] = share(
        inputs.get("input.balance_calls", 0.0),
        table["balance.balance_into_us.p50"] * 1e3)

    # Distributed pass: per-partition stepping, and the share of the
    # untraced runDistributed time spent outside partition work (its
    # workers share one CPU, so their work adds up on that CPU).
    per_part = defaultdict(int)
    for s in pick("dist.window"):
        per_part[s.part] += s.duration
    if per_part:
        mean = sum(per_part.values()) / len(per_part)
        table["dist.partition_imbalance"] = max(per_part.values()) / mean
    else:
        table["dist.partition_imbalance"] = 0.0
    workers = inputs.get("input.workers", 0.0)
    run_s = inputs.get("input.untraced_run_s", 0.0)
    if workers and run_s:
        work_ns = sum(s.duration for s in spans
                      if roots[s.run] == "bench.dist" and s.name in
                      ("fog.system_setup", "dist.window", "snapshot.save"))
        table["dist.overhead_frac"] = 1.0 - work_ns / 1e9 / run_s
    else:
        table["dist.overhead_frac"] = 0.0

    serial_roots = [s for s in spans if s.parent == 0
                    and s.name == "bench.serial"]
    untraced = inputs.get("input.untraced_serial_s", 0.0)
    table["trace.overhead_frac"] = (
        serial_roots[0].duration / 1e9 / untraced - 1.0
        if serial_roots and untraced else 0.0)
    return table


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(argv[1], "BENCH_perfbench.json")) as f:
        inputs = json.load(f)["results"]
    table = layer_table(read_spans(os.path.join(argv[1], "spans.csv")),
                        inputs)
    for name in sorted(table):
        print(f"{name:34s} {table[name]:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
