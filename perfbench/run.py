"""The frey2 benchmark: three certification workloads, end to end and per layer.

    python3 perfbench/run.py --workload table --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Each pass is a fresh interpreter
(worker.py) that runs every item of the workload once, as one caller in a
closed loop; passes repeat, one at a time, while another fits in
--seconds.  A few extra set-up-only interpreters make the set-up median.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics.  Human-readable lines come
first; the last line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only when every output checked
correct, traced outputs matched untraced ones byte for byte, and every pass
saw the same inputs.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPANS_DIR = os.path.join(ROOT, ".perfbench")
SETUP_ONLY_RUNS = 8
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def environment():
    """What identifies the measured program besides its inputs."""
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    commit = fh.read().strip()
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "FREY2_PURE": os.environ.get("FREY2_PURE", ""),
    }


def spawn(args, started, extra=()):
    """Run one worker to completion; returns (record, seconds from spawn to exit)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed), *extra]
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("out of time before the next pass")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {DEADLINE_S} s deadline") from None
    took = time.monotonic() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["first_item_at"] - t0
    return record, took


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(args):
    started = time.monotonic()
    setups = [spawn(args, started, ["--setup-only"])[0] for _ in range(SETUP_ONLY_RUNS)]
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans = os.path.join(SPANS_DIR, f"spans-{args.workload}.json")
    passes, longest, window = [], 0.0, time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        extra = ["--trace", "--spans", spans] if traced else []
        record, took = spawn(args, started, extra)
        record["traced"] = traced
        passes.append(record)
        longest = max(longest, took)
        need_more = args.trace and len(passes) < 2
        if not need_more and time.monotonic() - window + longest > args.seconds:
            return setups, passes


def report(args, setups, passes):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests_in = {p["input_digest"] for p in setups + passes}
    digests_out = {p["output_digest"] for p in passes}
    backends = {p["kernel_backend"] for p in setups + passes}
    correct = failed == 0 and len(digests_in) == 1 and len(digests_out) == 1

    env = environment()
    env["kernel_backend"] = "/".join(sorted(backends))
    print(f"perfbench {args.workload} seed={args.seed} passes={len(plain)} untraced, "
          f"{len(traced)} traced; closed loop, one caller, one pass per interpreter")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"inputs {'/'.join(sorted(digests_in))} {json.dumps(passes[0]['shape'])}")
    print(f"outputs {'/'.join(sorted(digests_out))}"
          + (" (traced and untraced identical)" if traced and len(digests_out) == 1 else ""))
    for p in passes:
        for index, problems in p["problems"].items():
            print(f"FAILED item {index}: {' | '.join(problems)}")

    items = [s * 1000 for p in plain for s in p["item_s"]]
    wall = statistics.median(p["wall_s"] for p in plain)
    e2e = {
        "setup_s": statistics.median(p["setup_s"] for p in setups + passes),
        "wall_s": wall,
        "cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "item_p50_ms": nearest_rank(items, 0.5),
        "item_p90_ms": nearest_rank(items, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    notes = {
        "setup_s": f"median of {len(setups) + len(passes)} set-ups",
        "wall_s": f"median of {len(plain)} passes",
        "cpu_s": f"median of {len(plain)} passes",
        "item_p50_ms": f"n={len(items)}",
        "item_p90_ms": f"n={len(items)}",
        "peak_rss_mb": f"median of {len(plain)} passes",
    }
    print("pass wall_s " + " ".join(f"{p['wall_s']:.4g}" + ("t" if p["traced"] else "")
                                    for p in passes))
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {END_TO_END[name]} ({notes[name]})")
    plain_items = sum(p["attempted"] for p in plain)
    plain_failed = sum(p["failed"] for p in plain)
    print(f"fail_share {plain_failed / plain_items:.6g} share ({plain_failed} of {plain_items} items)")

    if args.trace:
        layers = {}
        for key in traced[0]["layers"]:
            layers[key] = statistics.median(p["layers"][key] for p in traced)
        layers["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - wall
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        for k, m in metrics.items():
            print(f"{k} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    return correct, {"correct": correct, "attempted": attempted, "failed": failed,
                     "metrics": metrics}


def layer_unit(name):
    if name.endswith(".calls"):
        return "count"
    if name.endswith("max_order"):
        return "rows"
    if name.endswith("distinct_per_call"):
        return "ratio"
    return "s"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "frey2", "__init__.py")):
        print(f"no frey2 sources under {ROOT}/src: run from a source checkout", file=sys.stderr)
        return 2
    try:
        setups, passes = measure(args)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    correct, result = report(args, setups, passes)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
