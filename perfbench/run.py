"""Benchmark of spherestress on two seeded workloads.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 60 --trace 0

One client, one thread, no pool: requests run in-process one after the
other (a closed loop).  With ``--trace 0`` the run measures whole passes
over the workload's request list, starting another pass only while the
time used plus the last pass's time stays within ``--seconds`` (at least
one pass), and reports the end-to-end metrics:

- ``setup_s``: median over fresh processes of importing spherestress and
  generating the workload's inputs;
- ``wall_s`` / ``cpu_s``: median wall and process CPU time of a pass;
- ``req_p50_ms``: median request latency over all passes;
- ``req_tail_ms``: median over passes of the pass's tail latency, the
  highest percentile with at least ten requests of the pass beyond it,
  or the pass's maximum when it has ten requests or fewer.  Taken per
  pass, the percentile does not move with the number of passes.  The
  oracle pass is a single request;
- ``peak_rss_mb``: ``ru_maxrss`` of this process.

With ``--trace 1`` the run makes one untraced pass, then one pass with
every layer wrapped (see tracer.py), and reports the per-layer metrics;
``trace.overhead_s`` is the traced minus the untraced pass time.  Spans
are written to ``.bench_out/trace-<workload>-<seed>.jsonl``.

Outputs are checked after each pass, outside the timed region.  The last
line of stdout is the result JSON; the line before it holds the run's
metadata.  The exit code is 1 when a request fails its check or the
tracer fails its self-test, 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    outputs: list        # per request: (output, error text or None)
    latencies_ms: list


def run_pass(requests, tracer=None) -> Pass:
    outputs, times = [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i, req in enumerate(requests):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = req.run()
            else:
                with tracer.request(i):
                    out = req.run()
            outputs.append((out, None))
        except Exception:  # one failed request must not stop the pass
            outputs.append((None, traceback.format_exc()))
        times.append(1000.0 * (time.perf_counter() - t0))
    return Pass(time.perf_counter() - wall0, time.process_time() - cpu0, outputs, times)


def count_failures(requests, passes) -> int:
    failed = 0
    for p in passes:
        for req, (out, err) in zip(requests, p.outputs):
            reason = err if err is not None else req.check(out)
            if reason is not None:
                failed += 1
                print(f"FAILED {req.label}: {reason}", file=sys.stderr)
    return failed


def tail(samples_ms):
    """(value, percentile, samples beyond it): the highest percentile with
    at least ten samples beyond it, nearest rank; the maximum if none."""
    xs = sorted(samples_ms)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def setup_times(workload: str, seed: int) -> list[float]:
    """Import plus input generation, each in a fresh interpreter."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_once.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, linalg) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "rational_backend": f"{linalg.QQ.__module__}.{linalg.QQ.__qualname__}",
        "commit": git_commit(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, requests, meta):
    setup = setup_times(args.workload, args.seed)
    start = time.perf_counter()
    passes = [run_pass(requests)]
    while time.perf_counter() - start + passes[-1].wall_s <= args.seconds:
        passes.append(run_pass(requests))
    latencies = [x for p in passes for x in p.latencies_ms]
    tails = [tail(p.latencies_ms) for p in passes]
    _, tail_pct, beyond = tails[0]
    meta.update({"setup_probes": len(setup), "passes": len(passes),
                 "requests_per_pass": len(requests), "latency_samples": len(latencies),
                 "tail_percentile": round(tail_pct, 2), "tail_samples_beyond": beyond})
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": metric(statistics.median(p.cpu_s for p in passes), "s"),
        "req_p50_ms": metric(statistics.median(latencies), "ms"),
        "req_tail_ms": metric(statistics.median(t[0] for t in tails), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return passes, metrics


def measure_traced(args, requests, meta, package):
    from tracer import Tracer, metric_names

    untraced = run_pass(requests)
    tracer = Tracer(package)
    tracer.install()
    problems = [f"original still bound: {x}" for x in tracer.leftovers()]
    if problems:
        return [untraced], {}, problems
    traced = run_pass(requests, tracer)
    problems = tracer.nesting_errors()
    self_sum = sum(tracer.self_times())
    if self_sum > traced.wall_s:
        problems.append(f"self times sum to {self_sum} s > traced wall {traced.wall_s} s")
    values = tracer.metrics(overhead_s=traced.wall_s - untraced.wall_s)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write(trace_file)
    meta.update({"passes": 1, "requests_per_pass": len(requests),
                 "untraced_wall_s": untraced.wall_s, "traced_wall_s": traced.wall_s,
                 "trace.overhead_s": values["trace.overhead_s"],
                 "spans": len(tracer.spans), "trace_file": str(trace_file.relative_to(ROOT))})
    metrics = {name: metric(values[name], unit) for name, unit in metric_names()}
    return [untraced, traced], metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
        from spherestress import linalg
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.BUILDERS)}", file=sys.stderr)
        return 2

    meta = metadata(args, linalg)
    requests = workloads.make(args.workload, args.seed)
    problems = []
    if args.trace:
        passes, metrics, problems = measure_traced(args, requests, meta,
                                                   sys.modules["spherestress"])
    else:
        passes, metrics = measure(args, requests, meta)
    failed = count_failures(requests, passes)
    for p in problems:
        print(f"TRACER: {p}", file=sys.stderr)
    if problems:
        return 1
    attempted = len(requests) * len(passes)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
