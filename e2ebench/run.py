#!/usr/bin/env python3
"""End-to-end training benchmark for the Poseidon runtime.

    python3 e2ebench/run.py --workload fc_ps --seed 3 --seconds 12 --trace 0

Builds the library and the bench driver from the repository's sources (into
$CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench), trains one
workload from WORKLOADS.md and prints every metric as `name value unit`, then,
as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (tracing off). --trace 1 runs the
traced pass instead and reports the per-layer metrics; it also writes the
per-layer table to .bench_out/<workload>/layers.json and the merged spans as
a Perfetto/Chrome trace to .bench_out/<workload>/trace.json.

Exits non-zero when the build fails, the driver fails, or an output check
fails (the result line then says "correct": false).
"""

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("cnn_hybrid", "fc_ps", "fc_sfb")
DRIVER_TIMEOUT_S = 165  # after the (usually no-op) build step

# Network layers of the two models (BuildCifarQuick 16x16, BuildMlp), whose
# per-layer metrics the traced run reports. A layer absent from a workload's
# model reads 0 there.
CNN_LAYERS = ("conv1", "pool1", "relu1", "conv2", "relu2", "pool2", "conv3",
              "relu3", "pool3", "ip1", "ip2")
MLP_LAYERS = ("fc1", "relu1", "fc2", "relu2", "fc3", "relu3", "fc_out")
PARAM_LAYERS = ("conv1", "conv2", "conv3", "ip1", "ip2", "fc1", "fc2", "fc3", "fc_out")
CODECS = (("sf", "encode"), ("sf", "decode"))

END_TO_END = (
    ("samples_per_s", "1/s"),
    ("iter_ms_p50", "ms"),
    ("iter_ms_p90", "ms"),
    ("setup_s", "s"),
    ("loss_final", "nats"),
    ("wire_mb_per_iter", "MB"),
    ("peak_rss_mb", "MB"),
)


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = [("nn.forward_ms", "ms"), ("nn.backward_ms", "ms")]
    for layer in dict.fromkeys(CNN_LAYERS + MLP_LAYERS):
        names += [(f"nn.layer.{layer}.fwd_ms", "ms"), (f"nn.layer.{layer}.bwd_ms", "ms")]
    names += [("nn.single_samples_per_s", "1/s"), ("scaling_eff", "ratio"),
              ("sync.wait_ms", "ms"), ("sync.stall_frac", "ratio")]
    names += [(f"sync.layer.{layer}.latency_ms", "ms") for layer in PARAM_LAYERS]
    names += [("sync.move_out_ms", "ms"), ("sync.send_ms", "ms"),
              ("kv.apply_ms", "ms"), ("kv.applies_per_iter", "count"),
              ("kv.gate_ms", "ms")]
    names += [(f"codec.{c}.{op}_ms", "ms") for c, op in CODECS]
    names += [("bus.msgs_per_iter", "count"), ("bus.entries_per_iter", "count"),
              ("planner.plan_us_cold", "us"), ("planner.plan_us_warm", "us"),
              ("planner.bytes_measured_over_predicted", "ratio"),
              ("trace.overhead_frac", "ratio"), ("trace.dropped_events", "count"),
              ("trace.unattributed_frac", "ratio")]
    return names


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; returns its path or None."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "e2ebench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "e2e_train")


# ------------------------------------------------------------ end to end --

def e2e_metrics(raw):
    iter_ms = raw["iter_ms"]
    n = len(iter_ms)
    return {
        "samples_per_s": raw["samples_per_iter"] * n / (sum(iter_ms) / 1e3),
        "iter_ms_p50": statistics.median(iter_ms),
        "iter_ms_p90": statistics.quantiles(iter_ms, n=10)[8],
        "setup_s": statistics.median(raw["setup_s"]),
        "loss_final": raw["loss_final"],
        "wire_mb_per_iter": raw["wire_bytes_per_iter"] / 1e6,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


# ------------------------------------------------------------------ trace --

def load_program_spans(out_dir, raw):
    """Matched spans from every exported tracer window, on the bench clock.

    Returns a list of dicts: name, thread (window/tid), start, end (ns), arg,
    self (ns). Thread ids restart at each tracer reset, so a thread is keyed
    by (window, tid). Unmatched edges at window boundaries are dropped.
    """
    spans = []
    for k in range(int(raw["trace_windows"])):
        path = os.path.join(out_dir, f"trace_{k}.json")
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        os.remove(path)
        offset = raw["trace_offsets_ns"][k]
        stacks = {}
        for ev in events:
            thread = f"w{k}/t{ev['tid']}"
            ts = ev["ts"] * 1e3 + offset
            arg = ev.get("args", {}).get("v")
            if ev["ph"] == "X":
                spans.append({"name": ev["name"], "thread": thread, "start": ts,
                              "end": ts + ev["dur"] * 1e3, "arg": arg, "child": 0.0})
            elif ev["ph"] == "B":
                stacks.setdefault(thread, []).append(
                    {"name": ev["name"], "thread": thread, "start": ts, "arg": arg,
                     "child": 0.0})
            elif ev["ph"] == "E":
                stack = stacks.get(thread)
                if not stack or stack[-1]["name"] != ev["name"]:
                    continue
                span = stack.pop()
                span["end"] = ts
                if stack:
                    stack[-1]["child"] += ts - span["start"]
                spans.append(span)
    for s in spans:
        s["self"] = s["end"] - s["start"] - s["child"]
    return spans


def train_steps(raw, window):
    """The bench's train_step spans inside `window` spans, in order."""
    spans = raw["bench_spans"]
    parents = {i for i, s in enumerate(spans) if s["name"] == window}
    return [s for s in spans
            if s["name"] == "bench.train_step" and s["parent"] in parents]


def step_ms(steps):
    return [(s["end_ns"] - s["start_ns"]) * 1e-6 for s in steps]


def fold(raw, out_dir):
    """Per-layer metrics and the per-layer self-time table."""
    spans = load_program_spans(out_dir, raw)
    steps = train_steps(raw, "bench.window.traced")
    untraced_ms = step_ms(train_steps(raw, "bench.window.untraced"))
    n = len(steps)
    workers = raw["workers"]
    wn = workers * n
    layer_names = raw["layer_names"]
    ms = 1e-6

    def total(name, arg=None):
        return sum(s["end"] - s["start"] for s in spans
                   if s["name"] == name and (arg is None or s["arg"] == arg))

    starts = [st["start_ns"] for st in steps]

    def step_of(t):
        """Index of the traced step whose span contains time t (ns), or None."""
        i = bisect.bisect_right(starts, t) - 1
        return i if i >= 0 and t <= steps[i]["end_ns"] else None

    m = {}
    m["nn.forward_ms"] = total("forward") * ms / wn
    m["nn.backward_ms"] = total("backward") * ms / wn
    for l, layer in enumerate(layer_names):
        m[f"nn.layer.{layer}.fwd_ms"] = raw["layer_fwd_ms"][l]
        m[f"nn.layer.{layer}.bwd_ms"] = total("backward", l) * ms / wn
    untraced_sps = raw["samples_per_iter"] * len(untraced_ms) / (sum(untraced_ms) / 1e3)
    m["nn.single_samples_per_s"] = raw["single_samples_per_s"]
    m["scaling_eff"] = untraced_sps / (workers * raw["single_samples_per_s"])
    m["sync.wait_ms"] = total("wait_all") * ms / wn
    busy = raw["stall_compute_s"] + raw["stall_comm_wait_s"]
    m["sync.stall_frac"] = raw["stall_comm_wait_s"] / busy if busy > 0 else 0.0

    # Sync latency: end of a layer's backward span to the end of its
    # sync.receive span, per worker. Averaged over workers this is
    # mean(receive ends) - mean(backward ends) in each iteration, which needs
    # no worker <-> syncer-thread mapping.
    by_step = [[] for _ in steps]
    for s in spans:
        if s["name"] in ("backward", "sync.receive"):
            i = step_of(s["end"])
            if i is not None:
                by_step[i].append(s)
    for l, layer in enumerate(layer_names):
        lat = []
        for group in by_step:
            b = [s["end"] for s in group if s["name"] == "backward" and s["arg"] == l]
            r = [s["end"] for s in group if s["name"] == "sync.receive" and s["arg"] == l]
            if b and r:
                lat.append(statistics.fmean(r) - statistics.fmean(b))
        if layer in PARAM_LAYERS:
            m[f"sync.layer.{layer}.latency_ms"] = statistics.fmean(lat) * ms if lat else 0.0

    m["sync.move_out_ms"] = total("sync.move_out") * ms / wn
    m["sync.send_ms"] = total("sync.send") * ms / wn
    m["kv.apply_ms"] = total("kv.apply") * ms / n
    m["kv.applies_per_iter"] = sum(1 for s in spans if s["name"] == "kv.apply") / n
    m["kv.gate_ms"] = total("kv.ssp_stall") * ms / n
    for c, op in CODECS:
        m[f"codec.{c}.{op}_ms"] = total(f"codec.{op}.{c}") * ms / wn
    m["bus.msgs_per_iter"] = raw["msgs_per_iter"]
    m["bus.entries_per_iter"] = raw["entries_per_iter"]
    m["planner.plan_us_cold"] = raw["plan_us_cold"]
    m["planner.plan_us_warm"] = raw["plan_us_warm"]
    m["planner.bytes_measured_over_predicted"] = (
        raw["wire_bytes_per_iter"] / raw["predicted_wire_bytes"])
    m["trace.overhead_frac"] = (statistics.median(step_ms(steps))
                                / statistics.median(untraced_ms) - 1.0)
    m["trace.dropped_events"] = raw["trace_dropped"]

    # Unattributed time: the part of each traced iteration's wall time (the
    # bench's train_step span) that the worker's forward, backward and
    # wait_all spans leave uncovered, averaged over workers.
    wall = sum(st["end_ns"] - st["start_ns"] for st in steps)
    covered = 0.0
    for s in spans:
        if s["name"] in ("forward", "backward", "wait_all"):
            i = step_of(s["start"])
            if i is not None and i == step_of(s["end"]):
                covered += s["end"] - s["start"]
    m["trace.unattributed_frac"] = 1.0 - covered / workers / wall

    table = self_time_table(spans, steps, wn)
    return m, table, spans


def self_time_table(spans, steps, wn):
    """Rows of (span, count, total, self) per worker-iteration, by span name."""
    rows = {}
    for s in spans:
        row = rows.setdefault(s["name"], {"span": s["name"], "count": 0,
                                          "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += (s["end"] - s["start"]) * 1e-6
        row["self_ms"] += s["self"] * 1e-6
    wall_ms = sum(st["end_ns"] - st["start_ns"] for st in steps) * 1e-6
    table = []
    for row in sorted(rows.values(), key=lambda r: -r["self_ms"]):
        table.append({"span": row["span"], "count": row["count"],
                      "self_ms_per_worker_iter": row["self_ms"] / wn,
                      "total_ms_per_worker_iter": row["total_ms"] / wn})
    return {"iterations": len(steps), "iter_wall_ms_mean": wall_ms / max(1, len(steps)),
            "rows": table}


def write_perfetto(path, spans, bench_spans):
    """Program spans (pid 1) and bench spans (pid 2) as one Chrome trace."""
    events = []
    for s in spans:
        ev = {"name": s["name"], "ph": "X", "pid": 1, "tid": s["thread"],
              "ts": s["start"] / 1e3, "dur": (s["end"] - s["start"]) / 1e3}
        if s["arg"] is not None:
            ev["args"] = {"v": s["arg"]}
        events.append(ev)
    for i, s in enumerate(bench_spans):
        events.append({"name": s["name"], "ph": "X", "pid": 2, "tid": "bench",
                       "ts": s["start_ns"] / 1e3, "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
                       "args": {"id": i, "parent": s["parent"], "iter": s["iter"]}})
    with open(path, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)


# ------------------------------------------------------------------- main --

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 2
    out_dir = os.path.join(ROOT, ".bench_out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    mode = "trace" if args.trace else "e2e"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--out", out_dir,
           "--plans", os.path.join(BENCH_DIR, "plans")]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return 3
    if proc.returncode != 0:
        log(f"driver exited with {proc.returncode}")
        return 3
    with open(os.path.join(out_dir, "raw.json")) as f:
        raw = json.load(f)

    checks = raw["checks"]
    if args.trace:
        metrics, table, spans = fold(raw, out_dir)
        checks["unattributed_frac_le_0.10"] = metrics["trace.unattributed_frac"] <= 0.10
        units = per_layer_names()
        table["metrics"] = {k: metrics.get(k, 0.0) for k, _ in units}
        table["plan_hash"] = raw["plan_hash"]
        with open(os.path.join(out_dir, "layers.json"), "w") as f:
            json.dump(table, f, indent=1)
        write_perfetto(os.path.join(out_dir, "trace.json"), spans, raw["bench_spans"])
    else:
        metrics = e2e_metrics(raw)
        units = END_TO_END
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    if not all(checks.values()):
        failed = attempted  # a failed output check voids every iteration
    correct = failed == 0

    print(f"workload {args.workload} seed {args.seed} plan {raw['plan_hash']} "
          f"timed_iterations {attempted}")
    print(f"ops_failed_frac {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for name, value in checks.items():
        print(f"check {name} {'ok' if value else 'FAILED'}")
    result = {}
    for name, unit in units:
        value = float(metrics.get(name) or 0.0)  # null: a failed check
        print(f"{name} {value:.6g} {unit}")
        result[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
