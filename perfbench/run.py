"""The benchmark command: run workloads, check every output, print metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload runs in a fresh worker process (worker.py) with one BLAS
thread, on a fixed operation list made from the seed and the run length.
Around it the runner times a fixed calibration loop, before and after, so
that a change in the machine's speed can be told apart from a change in
the program; the calibration is written to the run output, not reported as
a metric.  Set-up time is the median over the worker and SETUP_PROBES extra
fresh processes that only import the package and build the inputs.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run and the tracing
overhead.  Full records, and the spans of traced runs, go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("exact-line", "exact-plane", "degree-modp", "membership")
SETUP_PROBES = 4
PROBE_TIMEOUT = 60
WORKER_TIMEOUT = 150
TAIL_SAMPLES = 10


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=str(ROOT / "src"))
    return env


def python(args: list[str], timeout: float) -> str:
    """Run the interpreter on args in the checkout; return its stdout."""
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT,
                              env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} ran past {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def preflight() -> None:
    """Fail unless the package imports from this checkout's src/."""
    package = ROOT / "src" / "voronoi_cells"
    if not package.is_dir():
        raise BenchError(f"no program source at {package}")
    where = python(["-c", "import voronoi_cells.cli as m; print(m.__file__)"],
                   PROBE_TIMEOUT).strip()
    if Path(where).resolve().parent != package.resolve():
        raise BenchError(f"voronoi_cells imported from {where}, not the "
                         "checkout")


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop: the machine's speed now."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def tail(values: list[float]):
    """The highest percentile with TAIL_SAMPLES samples beyond it, or None."""
    n = len(values)
    if n < 4 * TAIL_SAMPLES:
        return None
    return 100.0 * (n - TAIL_SAMPLES) / n, sorted(values)[n - TAIL_SAMPLES - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    base = [str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds)]

    def probe_setups(count):
        return [last_json(python(base + ["--setup-only"], PROBE_TIMEOUT))
                ["setup_s"] for _ in range(count)]

    # set-up is probed before and after the workload, so that one slow
    # stretch of the machine does not set every sample
    OUT.mkdir(exist_ok=True)
    calib_before = calibrate()
    setups = probe_setups(SETUP_PROBES // 2)
    args = list(base)
    if trace:
        args += ["--trace", str(OUT / f"{name}-seed{seed}-spans.jsonl")]
    body = last_json(python(args, WORKER_TIMEOUT))
    setups += [body.pop("setup_s")] + probe_setups(SETUP_PROBES - SETUP_PROBES // 2)
    calib_after = calibrate()

    wall = body["wall_s"]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": body["attempted"], "failed": body["failed"],
        "problems": body["problems"],
        "calibration_s": {"before": calib_before, "after": calib_after},
        "setup_samples_s": setups,
        "cpu_p50_s": statistics.median(body["cpu_s"]),
        "wall_s": wall,
    }
    e2e = {
        "ops_per_s": (len(wall) / sum(wall), "1/s"),
        "latency_p50_s": (statistics.median(wall), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (body["peak_rss_mb"], "MB"),
    }
    record["end_to_end"] = {k: {"value": v, "unit": u}
                            for k, (v, u) in e2e.items()}
    found = tail(wall)
    if found:
        record["latency_tail_s"] = {"percentile": found[0], "value": found[1],
                                    "samples": len(wall)}
    if trace:
        untraced = body["untraced_wall_s"]
        overhead = statistics.median((t - u) / u for t, u in zip(wall, untraced))
        record["untraced_latency_p50_s"] = statistics.median(untraced)
        record["metrics"] = dict(body["layers"])
        record["metrics"]["trace.overhead_pct"] = {"value": 100.0 * overhead,
                                                   "unit": "%"}
    else:
        record["metrics"] = record["end_to_end"]
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return record


def show(record: dict) -> None:
    name = record["workload"]
    print(f"{name}: attempted {record['attempted']}, failed "
          f"{record['failed']}, calibration {1000 * record['calibration_s']['before']:.1f}"
          f" -> {1000 * record['calibration_s']['after']:.1f} ms")
    for problem in record["problems"]:
        print(f"  op {problem['op']}: {'; '.join(problem['problems'])}")
    if record["trace"]:
        print(f"  traced run; untraced latency_p50_s "
              f"{record['untraced_latency_p50_s']:.6g} s")
    for metric, m in record["metrics"].items():
        print(f"  {metric:28s} {m['value']:12.6g} {m['unit']}")
    if "latency_tail_s" in record:
        t = record["latency_tail_s"]
        print(f"  {'latency_tail_s':28s} {t['value']:12.6g} s  "
              f"(p{t['percentile']:.1f} of {t['samples']} operations)")
    print(f"  {'cpu_p50_s':28s} {record['cpu_p50_s']:12.6g} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        preflight()
        records = [run_workload(name, args.seed, args.seconds,
                                bool(args.trace)) for name in names]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for record in records:
        show(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
