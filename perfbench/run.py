#!/usr/bin/env python3
"""Layered benchmark of the simulator: build, run, check and report.

    python3 perfbench/run.py --workload decode_kv --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root. The Rust benchmark crate beside this file
is built in release mode (into $CARGO_TARGET_DIR, default .bench_build),
then started as one fresh process per sweep, so every sweep starts on
cold simulation state as `accesys run` does.

--trace 0 repeats untraced sweeps for about --seconds, the last one on
the first sweep's traffic seed, and reports the medians of the
end-to-end metrics. --trace 1 runs one untraced and one traced sweep,
writes the traced run's spans as Chrome trace-event JSON, prints the
per-layer table and the tracing overhead, and reports the per-layer
metrics.

Every sweep's simulated outputs are digested; the run fails on an
accounting violation or on a digest that differs between sweeps of the
same code and traffic seed: the repeated sweep of this run, the traced
sweep against the untraced one, or a sweep of an earlier run. The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("roofline_paper", "decode_kv", "fleet_1k")
# Every process sets up once, as `accesys run` does; before each sweep a
# --trace 0 run also starts this many set-up-only processes, so its
# setup_s is the median of many cold set-ups spread over the run, as the
# host's speed drifts.
SETUPS_PER_SWEEP = 10
# A run must end within 180 s: it plans no more sweeps than fit in this
# many seconds (two at least), and no process may take longer.
DEADLINE_S = 150.0


class BenchError(Exception):
    """A failure that leaves no result to print."""


def splitmix64(x):
    """Derive the workload's Poisson traffic seed from --seed."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--offline", "--release", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed (run from the repository root)")
    binary = os.path.join(target, "release", "perfbench")
    out_dir = os.path.join(target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    return binary, out_dir


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    p = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return p.stdout.strip() or "unknown"


class Bench:
    def __init__(self, binary, out_dir, seed):
        self.binary = binary
        self.out_dir = out_dir
        self.traffic_seed = splitmix64(seed)
        self.commit = commit()
        with open(binary, "rb") as f:
            self.build_id = hashlib.sha256(f.read()).hexdigest()[:16]
        self.digest_path = os.path.join(out_dir, "digests.json")

    def process(self, workload, *args):
        """Run one benchmark process; its record (last stdout line)."""
        cmd = [self.binary, "--workload", workload, "--commit", self.commit, *args]
        try:
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=DEADLINE_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: benchmark process exceeded {DEADLINE_S:.0f} s")
        if p.returncode != 0:
            sys.stderr.write(p.stderr)
            raise BenchError(f"{workload}: benchmark process exited {p.returncode}")
        return json.loads(p.stdout.strip().splitlines()[-1])

    def sweep(self, workload, traffic_seed, trace_path=None):
        """One process, one sweep: its record, also kept in records.jsonl."""
        args = ["--traffic-seed", str(traffic_seed)]
        if trace_path:
            args += ["--trace", trace_path]
        record = self.process(workload, *args)
        with open(os.path.join(self.out_dir, "records.jsonl"), "a") as f:
            f.write(json.dumps(record) + "\n")
        return record

    def count_failed(self, workload, records):
        """Failed points of `records`. A sweep fails all its points when
        a digest differs from another sweep's of the same build, workload
        and traffic seed (among `records`, or of an earlier run in this
        build directory); otherwise it fails the points its own checks
        failed."""
        try:
            with open(self.digest_path) as f:
                known = json.load(f)
        except (OSError, ValueError):
            known = {}
        failed = 0
        for r in records:
            for why in r["failures"]:
                print(f"# {workload} ({r['mode']}): {why}")
            entry = known.setdefault(
                f"{self.build_id}/{workload}/{r['manifest']['traffic_seed']}", {})
            differs = False
            for field in ("outputs_digest", "model_digest"):
                if field in r:
                    expected = entry.setdefault(field, r[field])
                    if r[field] != expected:
                        print(f"# {workload}: {r['mode']} sweep's {field} {r[field]} != "
                              f"{expected}, another sweep's of the same code and seed")
                        differs = True
            failed += r["points"] if differs else r["failed_points"]
        tmp = self.digest_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(known, f, indent=1, sort_keys=True)
        os.replace(tmp, self.digest_path)
        return failed


def fmt(value):
    return f"{value:.6g}"


def metric_units(kind):
    """(name, unit) of every `kind` metric BENCHMARK.json declares."""
    with open("BENCHMARK.json") as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


def run_plain(bench, workload, seconds):
    setup_only = []

    def sweep(traffic_seed):
        setup_only.extend(bench.process(workload, "--setup-only")["setup_s"]
                          for _ in range(SETUPS_PER_SWEEP))
        return bench.sweep(workload, traffic_seed)

    # Sweep i serves the i-th seed of a splitmix64 chain from the run's
    # seed, so a run's median averages over several traces instead of
    # timing one trace's luck. The last sweep repeats the first seed in
    # a fresh process, so every run checks that its outputs repeat.
    start = time.monotonic()
    records = [sweep(bench.traffic_seed)]
    per_sweep = time.monotonic() - start
    sweeps = max(2, min(round(seconds / per_sweep), int(DEADLINE_S / per_sweep)))
    traffic_seed = bench.traffic_seed
    for _ in range(sweeps - 2):
        traffic_seed = splitmix64(traffic_seed)
        records.append(sweep(traffic_seed))
    records.append(sweep(bench.traffic_seed))
    failed = bench.count_failed(workload, records)
    units = metric_units("end_to_end")
    samples = {name: [r[name] for r in records] for name, _ in units}
    samples["setup_s"] += setup_only
    metrics = {name: (statistics.median(samples[name]), unit) for name, unit in units}
    m = records[0]["manifest"]
    print(f"# {workload}: {len(records)} sweeps of {records[0]['points']} points "
          f"(the last repeats the first's seed), "
          f"spec {m['spec']} ({m['spec_hash']}), scale {m['scale']}, "
          f"traffic seeds from {m['traffic_seed']}, jobs {m['jobs']}/{m['nproc']} cores, "
          f"commit {m['commit']}")
    for name, (value, unit) in metrics.items():
        values = sorted(samples[name])
        shown = " ".join(map(fmt, values)) if len(values) <= 8 else \
            f"{len(values)} values, {fmt(values[0])} to {fmt(values[-1])}"
        print(f"{workload:<16} {name:<14} {fmt(value):>12} {unit:<4} (median of {shown})")
    return sum(r["points"] for r in records), failed, metrics


def run_traced(bench, workload, seed):
    plain = bench.sweep(workload, bench.traffic_seed)
    trace_path = os.path.join(bench.out_dir, f"trace-{workload}-seed{seed}.json")
    traced = bench.sweep(workload, bench.traffic_seed, trace_path)
    # Both sweeps share a traffic seed, so this also checks the traced
    # digest against the untraced one.
    failed = bench.count_failed(workload, [plain, traced])
    metrics = {name: (traced["layers"][name], unit) for name, unit in metric_units("per_layer")}
    print(f"# {workload}: per-layer split of one traced sweep "
          f"(trace: {trace_path}, outputs digest {traced['outputs_digest']}, "
          f"model digest {traced['model_digest']})")
    for name, (value, unit) in metrics.items():
        print(f"{workload:<16} {name:<26} {fmt(value):>14} {unit}")
    overhead = traced["wall_s"] - plain["wall_s"]
    print(f"# {workload}: tracing overhead {overhead:+.3f} s "
          f"(traced wall {traced['wall_s']:.3f} s, untraced {plain['wall_s']:.3f} s, "
          f"{100 * overhead / plain['wall_s']:+.1f}%)")
    return plain["points"] + traced["points"], failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary, out_dir = build()
        bench = Bench(binary, out_dir, args.seed)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        attempted = failed = 0
        metrics = {}
        for w in workloads:
            if args.trace:
                n, f, m = run_traced(bench, w, args.seed)
            else:
                n, f, m = run_plain(bench, w, args.seconds)
            attempted += n
            failed += f
            prefix = "" if len(workloads) == 1 else w + "."
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
