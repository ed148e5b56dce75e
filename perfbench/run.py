"""multinv benchmark: the entry point.

    python3 perfbench/run.py --workload census|weyl|certificate|all
        --seed N --seconds S --trace 0|1

Closed loop, one client: every pass runs the workload's cases one after
another in a fresh child process (perfbench/child.py), so no in-process
cache carries over from one pass to the next, just as for a user's first
CLI run.  Passes repeat until the next one would overrun --seconds.  A
run with --trace 0 makes at least three plain passes; with --trace 1 at
least one plain and two traced passes.  Metric names and units are read
from BENCHMARK.json.

Every time is host-normalised: a pass samples the speed of the host
while it runs, and scales each case's time, and its set-up time, to a
host that runs a fixed reference work in child.REF_NOMINAL_S (see
child.HostSpeed).  On a shared 2-vCPU host this cut the spread of wall_s
between runs from 0.07-0.41 of the median to 0.01-0.04, and the drift of
the median setup_s between two sets of ten runs from up to 18% to 6%.

End-to-end metrics, from the plain passes:
  setup_s      median over the run's passes of each child's interpreter
               start, import and input generation
  wall_s       one pass: the sum over cases of each case's median time
               over the passes
  ok_frac      cases that exited 0 and passed every check / attempted
  peak_rss_mb  median peak resident memory of a plain pass
  case_p50_s, case_p90_s   median and 90th percentile of the cases'
               median times (census has 100 cases; weyl 3 and
               certificate 5, where the 90th percentile is the slowest
               case, nearly)

With --trace 0 the result's metrics are the end-to-end ones; with
--trace 1 plain and traced passes alternate after the first three, and
the metrics are the per-layer ones from the traced passes (see spans.py),
plus the traced-over-plain wall time.  Every metric is printed by name
and unit with the check result; the last line of stdout is the JSON
result.  Full results, including the environment and the load average
around each pass, go to perfbench/out/, and the spans of the last traced
pass to perfbench/out/spans-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import cases  # noqa: E402

OVERHEAD = "trace.overhead_ratio"
# Passes a run makes even if they overrun --seconds; each case's time is
# its median over the plain passes, and with --trace 1 the per-layer
# counts are compared between two traced passes.
REQUIRED_PASSES = {0: ("plain",) * 3, 1: ("plain", "traced", "traced")}
# A run must end within 180 s; no child may outlive this many seconds
# after the run starts.
HARD_LIMIT_S = 165


def metric_units():
    """BENCHMARK.json's end-to-end and per-layer metrics, each as a dict
    from metric name to unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def spawn(mode, workload, seed, deadline, spans_path=None):
    """Run one child; returns (its result dict or None, seconds, error)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans_path:
        cmd += ["--spans", spans_path]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(t0)], cwd=ROOT, env=env,
            capture_output=True, text=True,
            timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0, f"{mode} pass timed out"
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        return None, seconds, (f"{mode} pass exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), seconds, None
    except (ValueError, IndexError):
        return None, seconds, f"{mode} pass printed no result"


def quantile90(values):
    """Inclusive 90th percentile: never outside the observed range, which
    matters for the three- and five-case workloads."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def case_times(passes):
    """Each case's time on the nominal host, median over the passes."""
    return [statistics.median(times)
            for times in zip(*(p["case_s"] for p in passes))]


def run_workload(workload, seed, seconds, trace, units):
    end_to_end, per_layer = units
    n_cases = len(cases.workload_cases(workload, seed))
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload}.json")
    start = time.perf_counter()
    deadline = start + seconds
    hard_deadline = start + HARD_LIMIT_S
    errors, passes = [], []
    required = REQUIRED_PASSES[trace]
    cycle = ("plain", "traced") if trace else ("plain",)
    attempted = failed = 0
    while True:
        if len(passes) < len(required):
            mode = required[len(passes)]
        else:
            mode = cycle[len(passes) % len(cycle)]
            estimate = statistics.median(
                p["pass_s"] for p in passes if p["mode"] == mode)
            if time.perf_counter() + estimate > deadline:
                break
        res, pass_s, err = spawn(mode, workload, seed, hard_deadline,
                                 spans_path if mode == "traced" else None)
        attempted += n_cases
        if err:
            errors.append(err)
            failed += n_cases
            passes.append({"mode": mode, "pass_s": pass_s})
            if time.perf_counter() > deadline:
                break
            continue
        res["pass_s"] = pass_s
        passes.append(res)
        failed += res["failed"]
        errors += res["failures"]

    plain = [p for p in passes if p["mode"] == "plain" and "wall_s" in p]
    traced = [p for p in passes if p["mode"] == "traced" and "wall_s" in p]
    setups = [p["setup_s"] for p in passes if "wall_s" in p]
    metrics = {}
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    if plain:
        case_s = case_times(plain)
        metrics.update(
            wall_s=sum(case_s),
            peak_rss_mb=statistics.median(p["peak_rss_mb"] for p in plain),
            case_p50_s=statistics.median(case_s),
            case_p90_s=quantile90(case_s),
        )
    metrics["ok_frac"] = (attempted - failed) / attempted if attempted else 0
    metrics = {m: metrics[m] for m in end_to_end if m in metrics}
    layers = {}
    counts_repeat = len(traced) >= 2
    if traced:
        for m, unit in per_layer.items():
            values = [p["layers"].get(m) for p in traced]
            if m == OVERHEAD or None in values:
                continue
            if unit == "s":
                layers[m] = statistics.median(values)
            else:
                layers[m] = values[0]
                counts_repeat &= len(set(values)) == 1
        if plain:
            layers[OVERHEAD] = sum(case_times(traced)) / metrics["wall_s"]
    wanted, got = (per_layer, layers) if trace else (end_to_end, metrics)
    errors += [f"metric {m} was not measured" for m in wanted if m not in got]
    correct = failed == 0 and not errors and (counts_repeat or not trace)

    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
        },
        "passes": passes,
        "errors": errors,
        "correct": correct, "attempted": attempted, "failed": failed,
        "counts_repeat": counts_repeat,
        "end_to_end": metrics, "per_layer": layers,
        "units": {**end_to_end, **per_layer},
    }
    with open(os.path.join(OUT, f"result-{workload}-trace{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print_report(report)
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": got[m], "unit": unit}
                    for m, unit in wanted.items() if m in got},
    }


def print_report(r):
    w = r["workload"]
    env = r["environment"]
    print(f"[{w}] seed {r['seed']}, {r['seconds']} s, trace {r['trace']}, "
          f"python {env['python']}, nproc {env['nproc']}")
    for i, p in enumerate(r["passes"], 1):
        if "wall_s" not in p:
            print(f"[{w}] pass {i} {p['mode']}: FAILED after "
                  f"{p['pass_s']:.3f} s")
            continue
        print(f"[{w}] pass {i} {p['mode']:6s} wall {p['wall_s']:.3f} s "
              f"(as measured {sum(p['raw_case_s']):.3f} s), "
              f"setup {p['setup_s']:.3f} s, rss {p['peak_rss_mb']:.1f} MB, "
              f"load {p['loadavg_before'][0]:.2f} -> "
              f"{p['loadavg_after'][0]:.2f}, "
              f"{p['cases'] - p['failed']}/{p['cases']} cases correct")
    for m, v in r["end_to_end"].items():
        print(f"[{w}] {m:34s} {v:.6g} {r['units'][m]}")
    for m, v in r["per_layer"].items():
        print(f"[{w}] {m:34s} {v:.6g} {r['units'][m]}")
    for e in r["errors"][:10]:
        print(f"[{w}] error: {e}")
    verdict = "PASS" if r["correct"] else "FAIL"
    print(f"[{w}] check: {verdict}, {r['attempted'] - r['failed']}/"
          f"{r['attempted']} cases correct"
          + ("" if r["counts_repeat"] or not r["trace"] else
             ", per-layer counts not repeated by two traced passes"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=cases.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "multinv", "cli.py")):
        print(f"error: no multinv sources under {ROOT}/src", file=sys.stderr)
        return 2
    workloads = cases.WORKLOADS if args.workload == "all" else (args.workload,)
    units = metric_units()
    results = {w: run_workload(w, args.seed, args.seconds, args.trace, units)
               for w in workloads}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
