"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload table --seed 1 [--trace] [--setup-only]

Set-up is import, input generation and input checks; it ends when the
first item starts.  The pass runs every item once, untimed checks follow,
and the last line of standard output is a JSON record for run.py.  Every
pass pays the program's caches cold, as each `frey2` CLI call does.
"""

import argparse
import hashlib
import importlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table", "verify", "fibers")


def sha(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def run_pass(workload, items, tracer=None):
    """Run every item once; returns (outputs, per-item seconds, wall, cpu,
    errors).  An item that raises gets the output None, and its traceback
    goes into errors under its index."""
    if tracer:
        tracer.install()
    outs, lat, errors = [], [], {}
    clock = time.perf_counter
    wall0, cpu0 = clock(), time.process_time()
    try:
        for i, it in enumerate(items):
            t0 = clock()
            try:
                out = workload.run(it)
            except Exception:
                out = None
                errors[i] = traceback.format_exc(limit=3)
            lat.append(clock() - t0)
            outs.append(out)
        wall, cpu = clock() - wall0, time.process_time() - cpu0
    finally:
        if tracer:
            tracer.uninstall()
    return outs, lat, wall, cpu, errors


def check_pass(workload, items, outs, errors):
    """Problems by index of the item that raised or gave a wrong answer."""
    problems = {}
    for i, (it, out) in enumerate(zip(items, outs)):
        found = [errors[i]] if out is None else workload.check(it, out)
        if found:
            problems[i] = found
    return problems


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="write the traced pass's spans here")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    workload = importlib.import_module(f"workload_{args.workload}")
    gf2 = importlib.import_module("frey2.gf2")
    items = workload.generate(args.seed)
    workload.check_inputs(items)
    record = {
        "first_item_at": time.monotonic(),
        "input_digest": sha([json.dumps(items, sort_keys=True)]),
        "shape": workload.describe(items),
        "kernel_backend": gf2.KERNEL_BACKEND,
    }
    if not args.setup_only:
        tracer = None
        if args.trace:
            tracer = importlib.import_module("tracer").Tracer()
        outs, lat, wall, cpu, errors = run_pass(workload, items, tracer)
        problems = check_pass(workload, items, outs, errors)
        record.update({
            "wall_s": wall,
            "cpu_s": cpu,
            "item_s": lat,
            "attempted": len(items),
            "failed": len(problems),
            "problems": {str(i): v for i, v in list(problems.items())[:5]},
            "output_digest": sha(workload.render(o) if o is not None else "error" for o in outs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        if tracer:
            record["layers"] = tracer.summary()
            if args.spans:
                tracer.dump(args.spans)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
