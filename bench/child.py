"""One workload in a fresh interpreter: set-up, timed passes, oracles, trace.

Started by ``run.py`` with ``src`` on PYTHONPATH; prints one JSON line.

    python3 bench/child.py --setup-only
    python3 bench/child.py --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]

Set-up time is the first thing measured: importing ``towerbound.cli`` and
building its parser, before any module of the benchmark is imported.  Six
more samples come from fresh interpreters started between passes, so the
samples are spread over the run.  The ops then run in a closed loop with one
client: each starts when the previous one has returned.  A pass runs every
op once; passes repeat until the next one would overrun ``--seconds``, and
at least one runs.  Each op's output is checked by its oracle after the op
returns, outside the op's timed region, in the first pass; later passes must
reproduce the first pass's output digest.  With ``--trace 1`` the same
budget is spent again on passes with span tracing installed, and the
per-layer metrics come from those.

Times are reported at a reference CPU speed.  On a shared host the speed one
process gets moves by up to 2x over tens of seconds, with its neighbours'
load, so raw times of the same code differ by that much from run to run.
``calibrate`` is a fixed piece of work of the same kind as the package's
(big-integer products, decimal conversion and parsing, sorting); it runs
before every op and around every set-up sample, outside the timed regions,
and each time t is reported as t * REF_CAL_S / c, where c is the mean of the
calibrations on either side.  An op's latency is then the median of these
over the run's passes.  The raw times are kept in the run's record.
"""

import sys
import time

#: set-up samples per run: this interpreter's own, then one fresh interpreter
#: after each pass until there are this many
SETUP_SAMPLES = 7
#: ``calibrate``'s duration at the reference speed.  Its fastest time on a
#: 2-core x86-64 machine under CPython 3.11 was 0.88 ms.
REF_CAL_S = 0.001


def calibrate() -> float:
    """Seconds taken by a fixed reference computation; uses no imports."""
    t = time.perf_counter()
    acc = 1
    for q in range(3, 3000, 2):
        acc *= q
    digits = str(acc % 10**4000)
    parts = [int(digits[i:i + 9]) for i in range(0, len(digits), 9)]
    parts.sort()
    return time.perf_counter() - t


def main() -> int:
    calibrate()
    c0 = calibrate()
    t0 = time.perf_counter()
    from towerbound import cli

    cli.build_parser()
    setup_raw = time.perf_counter() - t0
    setup_s = setup_raw * REF_CAL_S * 2 / (c0 + calibrate())
    if sys.argv[1:] == ["--setup-only"]:
        print('{"setup_s": %r, "raw_s": %r}' % (setup_s, setup_raw))
        return 0

    import argparse
    import json

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    result = run_workload(cli, (setup_s, setup_raw), args)
    print(json.dumps(result, sort_keys=True))
    return 0


def run_workload(cli, setup: tuple[float, float], args) -> dict:
    import gc
    import hashlib
    import io
    import resource
    import statistics
    from contextlib import redirect_stderr, redirect_stdout
    from time import perf_counter

    import ops as workloads
    import tracing
    from towerbound import gf

    wl = workloads.WORKLOADS[args.workload]
    ops = workloads.build(args.workload, args.seed)

    def run_op(op):
        if op.argv is not None:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                t = perf_counter()
                try:
                    code = cli.main(op.argv)
                except Exception as exc:  # an uncaught error is a failed op
                    code = exc
                dt = perf_counter() - t
            return dt, code, out.getvalue(), err.getvalue()
        name, call_args = op.call
        t = perf_counter()
        try:
            value, code = getattr(gf, name)(*call_args), 0
        except Exception as exc:
            value, code = None, exc
        return perf_counter() - t, code, value, ""

    digests: list = [None] * len(ops)
    verdicts: list = [None] * len(ops)
    failures: dict[int, str] = {}
    counts = {"attempted": 0, "failed": 0}

    def check(i: int, code, out, err) -> None:
        text = out if isinstance(out, str) else repr(out)
        digest = hashlib.sha256(f"{code!r}\0{text}".encode()).hexdigest()
        if digests[i] is None:
            try:
                reason = ops[i].check(code, out, err)
            except Exception as exc:  # the output did not parse as expected
                reason = f"oracle could not read the output: {type(exc).__name__}: {exc}"
            digests[i], verdicts[i] = digest, reason
        elif digest != digests[i]:
            reason = "output differs from the first pass"
        else:
            reason = verdicts[i]
        counts["attempted"] += 1
        if reason:
            counts["failed"] += 1
            failures.setdefault(i, reason)

    def one_pass(runner, tracer=None) -> tuple[list[float], list[float], float]:
        """Raw op latencies, the calibrations around them, and seconds spent checking."""
        times, cals, check_s = [], [calibrate()], 0.0
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            dt, code, out, err = runner(op)
            times.append(dt)
            cals.append(calibrate())
            c0 = perf_counter()
            check(i, code, out, err)
            check_s += perf_counter() - c0
        return times, cals, check_s

    def timed_passes(runner, budget: float, tracer=None, after_pass=None):
        """Passes until the budget is spent: (raw, scaled) op latencies per pass."""
        raw, scaled, spent = [], [], 0.0
        while True:
            gc.collect()
            if tracer is not None:
                tracer.reset()
            t = perf_counter()
            times, cals, check_s = one_pass(runner, tracer)
            spent += perf_counter() - t - check_s
            raw.append(times)
            scaled.append([dt * REF_CAL_S * 2 / (a + b) for dt, a, b in zip(times, cals, cals[1:])])
            if after_pass is not None:
                after_pass()
            if spent * (len(raw) + 1) / len(raw) > budget:
                return raw, scaled

    setup_samples = [setup]

    def setup_probe():
        """One more set-up sample from a fresh interpreter, between passes."""
        if len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(_setup_probe())

    run_op(ops[0])  # warm-up, not counted
    raw, scaled = timed_passes(run_op, args.seconds, after_pass=setup_probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup_samples) < SETUP_SAMPLES:
        setup_probe()

    defects = []
    for argv in wl.known_defects:
        _, code, _, _ = run_op(workloads.Op(" ".join(argv), None, argv=list(argv)))
        outcome = f"{type(code).__name__}: {str(code)[:100]}" if isinstance(code, BaseException) \
            else f"exit {code}"
        defects.append({"argv": " ".join(argv), "outcome": outcome})

    def per_op(passes):
        return [statistics.median(ts) for ts in zip(*passes)]

    latency = per_op(scaled)
    sweep = [(op.size, t) for op, t in zip(ops, latency) if op.size is not None]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(raw),
        "ops": len(ops),
        "metrics": {
            "setup_s": statistics.median(s for s, _ in setup_samples),
            "wall_s": sum(latency),
            "op_p50_ms": statistics.median(latency) * 1e3,
            "op_p90_ms": statistics.quantiles(latency, n=10)[8] * 1e3,
            "scaling_slope": _slope(sweep),
            "peak_rss_mb": peak_rss_mb,
        },
        "raw": {
            "setup_s": [r for _, r in setup_samples],
            "pass_wall_s": [sum(p) for p in raw],
            "op_latency_s": per_op(raw),
        },
        "setup_samples_s": [s for s, _ in setup_samples],
        "known_defects": defects,
        "op_labels": [op.label for op in ops],
        "op_latency_s": latency,
        "op_digests": digests,
    }

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        traced_runner = tracer.wrap(tracing.OP_SPAN, run_op)
        per_pass = []

        def collect():
            calls, self_s = tracer.totals()
            per_pass.append((calls, self_s, dict(tracer.counts)))

        traced_raw, traced = timed_passes(traced_runner, args.seconds, tracer, collect)
        if args.spans:
            tracer.write(args.spans)
        calls, _, counters = per_pass[0]
        # self times at the reference speed: each pass scaled like its ops
        factors = [sum(s) / sum(r) for s, r in zip(traced, traced_raw)]
        self_s = {name: statistics.median(p[1][name] * f for p, f in zip(per_pass, factors))
                  for name in set().union(*(p[1] for p in per_pass))}
        layer = {}
        for name, unit in tracing.LAYER_METRICS:
            span, _, kind = name.rpartition(".")
            if kind == "calls":
                layer[name] = calls.get(span, 0)
            elif kind == "self_s":
                layer[name] = self_s.get(span, 0.0)
        cand = counters.get("arith.candidates", 0)
        layer["arith.candidates"] = cand
        layer["arith.accept_ratio"] = counters.get("arith.accepted", 0) / cand if cand else 0.0
        layer["report.bytes_out"] = counters.get("report.bytes_out", 0)
        layer["trace.overhead_ratio"] = sum(per_op(traced)) / sum(latency)
        shares = tracing.module_shares(self_s)
        result["trace"] = {
            "passes": len(traced),
            "spans_per_pass": len(tracer.sid),
            "layer": layer,
            "module_shares": shares,
            "calls": dict(calls),
            "self_s": self_s,
            "rationale": _rationale(wl, calls, shares),
        }

    result["attempted"] = counts["attempted"]
    result["failed"] = counts["failed"]
    result["failures"] = {f"#{i} {ops[i].label}": r for i, r in sorted(failures.items())}
    return result


def _setup_probe() -> tuple[float, float]:
    import json
    import subprocess

    proc = subprocess.run([sys.executable, __file__, "--setup-only"], capture_output=True,
                          text=True, timeout=60, check=True)
    rec = json.loads(proc.stdout)
    return rec["setup_s"], rec["raw_s"]


def _slope(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    import math

    xs = [math.log(s) for s, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _rationale(wl, calls, shares) -> dict:
    """What the workload's rationale promises, checked against this trace.

    Zero-call spans and a dominant module that is no longer called are
    errors; a dominant module overtaken by another is reported, because an
    optimisation of that module is exactly what this benchmark exists to
    measure.
    """
    errors = [f"{span} was called {calls[span]} times; this workload must bypass it"
              for span in wl.zero_calls if calls.get(span, 0)]
    if not any(name.split(".", 1)[0] in wl.dominant for name, n in calls.items() if n):
        errors.append(f"no call into {'/'.join(wl.dominant)}, the layer this workload exists for")
    top = next(iter(shares), None)
    return {
        "expected_dominant": list(wl.dominant),
        "observed_dominant": top,
        "dominant_holds": top in wl.dominant,
        "errors": errors,
    }


if __name__ == "__main__":
    sys.exit(main())
