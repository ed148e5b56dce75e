"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py --workload W --seed N --mode plain|traced
        --spawned-at T [--spans FILE]

Imports multinv from the checkout's src/, generates the workload's inputs,
then runs every case through `multinv.cli.main([command, "-", "--json"])`
in-process with stdin and stdout captured, checks each output, and prints
one JSON line with the timings, checks, memory and load averages.  Case
times are scaled to a host of nominal speed (see HostSpeed); the times
as measured are kept beside them.
`--spawned-at` is the parent's time.perf_counter() just before starting
this process; on Linux both read the same monotonic clock, so the
difference is the set-up time including interpreter start.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import multinv.cli  # noqa: E402

import cases  # noqa: E402

# The host's speed is sampled every SAMPLE_S seconds by running the
# reference work from a timer signal, also in the middle of a case; the
# time spent sampling is taken out of every measured time.
SAMPLE_S = 0.1
# A case is scaled by the samples taken while it ran or within WINDOW_S
# of it; the timer fires every SAMPLE_S, so there are always a few.
WINDOW_S = 0.2
# Every time is reported as if the host ran the reference work in this
# many seconds.
REF_NOMINAL_S = 0.01


def loadavg():
    with open("/proc/loadavg", encoding="ascii") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def reference_s():
    """Seconds for a fixed piece of pure-Python work shaped like a small
    group closure: S5 as 5x5 permutation matrices, closed under products
    of integer tuples held in a set.  It does not use multinv, and runs
    with the garbage collector off so that the heap a case leaves behind
    does not change its cost."""
    n = 5
    gens = (cases.B.permutation((1, 2, 3, 4, 0)),
            cases.B.permutation((1, 0, 2, 3, 4)))
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    seen = {cases.B.identity(n)}
    frontier = list(seen)
    while frontier:
        frontier = [p for p in {cases.B.matmul(m, g)
                                for m in frontier for g in gens}
                    if p not in seen]
        seen.update(frontier)
    seconds = time.perf_counter() - t0
    if collecting:
        gc.enable()
    assert len(seen) == 120
    return seconds


class HostSpeed:
    """Samples of the reference work over a pass, and a clock that leaves
    out the time they took.

    On a shared host the speed of plain Python code changes by up to 1.8x
    from one moment to the next (another tenant's load on the same core
    comes and goes, in spells of a fraction of a second to minutes), and
    that moves the reference work and the cases alike.  Scaling a case's
    time by the host's speed measured around it cancels the change, and
    no change to multinv can move the reference."""

    def __init__(self):
        self.at: list[float] = []  # clock() when each sample ended
        self.ref: list[float] = []
        self.spent = 0.0
        self.sampling = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def sample(self, *_signal):
        if self.sampling:  # the timer fired again during a sample
            return
        self.sampling = True
        t0 = time.perf_counter()
        self.ref.append(reference_s())
        self.spent += time.perf_counter() - t0
        self.at.append(self.clock())
        self.sampling = False

    def start(self):
        reference_s()  # warm-up
        for _ in range(3):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, start: float, end: float) -> float:
        """The mean of REF_NOMINAL_S / reference time over the samples
        around the interval [start, end] of clock(): above 1 while the
        host runs slower than nominal.  The samples are evenly spaced in
        time, so this is the host's mean speed over the interval, which
        is what a case's time integrates; the median speed would ignore
        spells shorter than half the case."""
        return statistics.mean(
            REF_NOMINAL_S / r for t, r in zip(self.at, self.ref)
            if start - WINDOW_S <= t <= end + WINDOW_S + SAMPLE_S)


def run_case(case, clock):
    """(seconds, exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(case.document)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            try:
                code = multinv.cli.main([case.command, "-", "--json"])
            except Exception as exc:  # a crash is a failed case, not a stop
                code = f"{type(exc).__name__}: {exc}"
            seconds = clock() - t0
    finally:
        sys.stdin = saved_stdin
    return seconds, code, out.getvalue(), err.getvalue()


def check(case, code, stdout, stderr, facts):
    if code != 0:
        return [f"exit {code}: {stderr.strip()[-300:]}"]
    if case.digest is not None:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if digest != case.digest:
            return [f"output sha256 {digest} differs from the recorded "
                    f"{case.digest}"]
    try:
        problems = cases.check_report(case, json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]
    if facts is not None:
        problems += [f"{k}: theory says {v}, traced call returned "
                     f"{facts.get(k)}"
                     for k, v in case.theory.items() if facts.get(k) != v]
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=cases.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "traced"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--spans", help="write the traced pass's spans here")
    args = ap.parse_args(argv)

    workload = cases.workload_cases(args.workload, args.seed)
    setup_s = time.perf_counter() - args.spawned_at
    speed = HostSpeed()
    speed.start()

    tracer = None
    if args.mode == "traced":
        import spans
        tracer = spans.Tracer(clock=speed.clock)
        tracer.install()

    load_before = loadavg()
    starts, raw, failures, per_case = [], [], [], []
    failed = 0
    for case in workload:
        if tracer is not None:
            lo = tracer.mark()
            tracer.counters, tracer.facts = Counter(), {}
        starts.append(speed.clock())
        seconds, code, stdout, stderr = run_case(case, speed.clock)
        raw.append(seconds)
        problems = check(case, code, stdout, stderr,
                         tracer.facts if tracer is not None else None)
        failures += [f"{case.name}: {p}" for p in problems]
        failed += bool(problems)
        if tracer is not None:
            hi = tracer.mark()
            per_case.append({
                "case": case.name, "first_span": lo, "end_span": hi,
                "summary": tracer.summarize(lo, hi),
                "counters": tracer.counters,
            })
    speed.stop()
    for _ in range(2):  # samples after the last case
        speed.sample()

    scales = [speed.scale(a, a + s) for a, s in zip(starts, raw)]
    times = [s * k for s, k in zip(raw, scales)]
    result = {
        "mode": args.mode,
        # the samples right after set-up: the set-up time is mostly
        # imports, and follows the host's speed as the cases do
        "setup_s": setup_s * statistics.mean(
            REF_NOMINAL_S / r for r in speed.ref[:3]),
        "raw_setup_s": setup_s,
        "wall_s": sum(times),
        "case_s": times,
        "raw_case_s": raw,
        "ref_s": speed.ref,
        "ref_at": [t - starts[0] for t in speed.at],
        "case_at": [a - starts[0] for a in starts],
        "cases": len(workload),
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
    }
    if tracer is not None:
        summary, counters = Counter(), Counter()
        for c, k, t in zip(per_case, scales, times):
            c["wall_s"] = t
            c["summary"] = {m: v * k if m.endswith("_s") else v
                            for m, v in c["summary"].items()}
            summary.update(c["summary"])
            counters.update(c["counters"])
            c["metrics"] = spans.layer_metrics(c.pop("summary"),
                                               c.pop("counters"))
        result["layers"] = spans.layer_metrics(summary, counters)
        if args.spans:
            tracer.dump(args.spans, {"workload": args.workload,
                                     "seed": args.seed, "cases": per_case})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
