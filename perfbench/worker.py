"""One workload in one fresh process; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--trace SPANS.jsonl] [--setup-only]

The set-up clock starts before the package is imported and stops when the
operation list is built.  Operations then run one at a time, each timed in
wall and process CPU time, with a garbage collection between them outside
the timed region.  Peak resident memory is read after the last operation,
before the checks (which import sympy).  With --trace every operation runs
twice, once untraced and once traced, in alternating order, so the tracing
overhead is measured on identical work.  The last line of stdout is one
JSON object.
"""
import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _timed(fn, arg):
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        result, error = fn(arg), None
    except Exception as exc:  # a crash is a failed operation, not a dead run
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, time.perf_counter() - wall, time.process_time() - cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", metavar="SPANS",
                        help="trace, and write the spans to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads  # imports the package under test

    workload = workloads.WORKLOADS[args.workload]
    # a traced run executes every operation twice, so it takes half the list
    ops = workload.inputs(args.seed, args.seconds / (2 if args.trace else 1))
    setup_s = time.perf_counter() - SETUP_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    # the modules and the operation list outlive every operation; frozen,
    # they cost nothing to the collections between operations (about 10 ms
    # each otherwise) and do not lengthen collections inside one
    gc.collect()
    gc.freeze()

    outputs, wall, cpu, untraced_wall = [], [], [], []
    for i, op in enumerate(ops):
        gc.collect()
        if tracer is None:
            result, error, w, c = _timed(workload.run, op)
            outputs.append([(result, error)])
        else:
            # alternate which copy runs first so warm-up favours neither
            timed = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                gc.collect()
                if traced:
                    tracer.install()
                    timed[traced] = _timed(
                        lambda o: tracer.run(i, workload.root_span,
                                             workload.run, o), op)
                    tracer.uninstall()
                else:
                    timed[traced] = _timed(workload.run, op)
            result, error, w, c = timed[True]
            untraced_wall.append(timed[False][2])
            outputs.append([timed[False][:2], (result, error)])
        wall.append(w)
        cpu.append(c)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checks run after the timed loop and the memory reading
    problems = []
    for index, (op, outs) in enumerate(zip(ops, outputs)):
        faults = []
        for result, error in outs:
            if error:
                faults.append(error)
                continue
            try:
                faults += workload.check(op, result)
            except Exception as exc:  # output too broken to check
                faults.append(f"check failed: {type(exc).__name__}: {exc}")
        if faults:
            problems.append({"op": index, "problems": faults})

    body = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": len(ops),
        "failed": len(problems),
        "problems": problems[:20],
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        body["layers"] = tracer.layer_metrics()
        body["untraced_wall_s"] = untraced_wall
        tracer.dump(Path(args.trace))
    print(json.dumps(body))
    return 0


if __name__ == "__main__":
    sys.exit(main())
