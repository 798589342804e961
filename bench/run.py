"""Benchmark for towerbound: four seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]

The first form runs one workload and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The second form runs every workload and prints a table.

Workloads (see ``ops.py``; the rationale of each is in BENCHMARK.json):
``cli-cyclo``, ``cli-cubic``, ``cli-factor`` and ``lib-gf``.  Each runs in
its own fresh interpreter (``child.py``), one client in a closed loop,
calling ``towerbound.cli.main`` or the public ``gf`` API in-process.  Every
op's output is checked by an oracle in ``oracles.py`` that never calls the
package.  The default seed is ``ops.DEFAULT_SEED``; ``ops.HELD_OUT_SEED`` is
kept out of tuning so that a claimed gain can be confirmed on inputs it was
not tuned on.

End-to-end metrics, from untraced passes only.  Times are scaled to a
reference CPU speed by a calibration run next to each measurement, because
the speed a process gets on a shared host moves by up to 2x; ``child.py``
says how.

- ``setup_s``: import ``towerbound.cli`` and build its parser in a fresh
  interpreter, with ``.pyc`` files compiled; the median over the workload's
  interpreter and six more started between its passes.
- ``wall_s``: time for one pass over the op list (every op once, after one
  warm-up op), as the sum of the ops' latencies.  An op's latency is its
  median over the run's passes.
- ``op_p50_ms``, ``op_p90_ms``: median and 90th percentile of the op
  latencies (each workload has at least 100 ops).
- ``scaling_slope``: least-squares slope of log(op latency) on log(size)
  over the workload's sweep ops.
- ``peak_rss_mb``: ``ru_maxrss`` of the workload's interpreter after the
  untraced passes.

``fail_ratio`` (failed / attempted) is printed and carried by the result's
``attempted`` and ``failed``; it is not a bounded metric because it is 0
whenever the program is right.

Each run also writes ``bench/out/<workload>-seed<N>-trace<T>.json`` with the
Python version, commit, ``nproc``, seed, op count, ``src/`` line count, the
stdout digest of every op (to compare bytes out between commits), failures,
the known-defect probes and, when traced, the module self-time shares and
the rationale checks; a traced run also writes its spans to
``bench/out/<workload>-seed<N>.spans.tsv.gz``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = BENCH / "child.py"

sys.path.insert(0, str(BENCH))
import ops as workloads  # noqa: E402
import tracing  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("scaling_slope", "1"),
    ("peak_rss_mb", "MB"),
)
#: a run must end within 180 s
RUN_LIMIT_S = 170.0


class RunFailed(Exception):
    """The workload could not produce a result."""


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
                PYTHONHASHSEED="0")


def _child(args: list[str], timeout: float) -> dict:
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"child.py {' '.join(args)} ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RunFailed(f"child.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in its own interpreter; returns its record."""
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{workload}-seed{seed}.spans.tsv.gz"
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--spans", str(spans)] if trace else [])
    rec = _child(args, RUN_LIMIT_S)
    rec["env"] = {
        "python": platform.python_version(),
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "src_lines": _src_lines(),
        "seconds": seconds,
        "trace": trace,
    }
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(rec, indent=1, sort_keys=True) + "\n")
    return rec


def _benchmark_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec["why"] = {w["name"]: w["why"] for w in spec["workloads"]}
    return spec


def _describe(rec: dict) -> list[str]:
    env = rec["env"]
    lines = [
        f"workload {rec['workload']}  seed {rec['seed']}  {rec['ops']} ops x {rec['passes']} passes"
        f"  python {env['python']}  nproc {env['nproc']}  commit {env['commit'] or 'unknown'}"
        f"  src {env['src_lines']} lines",
        f"  why: {_benchmark_spec()['why'][rec['workload']]}",
    ]
    for name, unit in END_TO_END:
        lines.append(f"  {name:<14}{rec['metrics'][name]:.6g} {unit}")
    lines.append(f"  {'fail_ratio':<14}{rec['failed'] / rec['attempted']:.6g} 1"
                 f"  ({rec['failed']} of {rec['attempted']} op runs)")
    for label, reason in rec["failures"].items():
        lines.append(f"  FAILED {label}: {reason}")
    for d in rec["known_defects"]:
        lines.append(f"  known defect, outside the timed ops: {d['argv']} -> {d['outcome']}")
    tr = rec.get("trace")
    if tr:
        lines.append(f"  traced: {tr['passes']} passes, {tr['spans_per_pass']} spans per pass")
        shares = ", ".join(f"{m} {s:.1%}" for m, s in tr["module_shares"].items())
        lines.append(f"  self-time shares: {shares}")
        rat = tr["rationale"]
        lines.append(f"  dominant layer: {rat['observed_dominant']}"
                     f" (rationale: {'/'.join(rat['expected_dominant'])})"
                     + ("" if rat["dominant_holds"] else "  <- NO LONGER THE RATIONALE'S LAYER"))
        for name, unit in tracing.LAYER_METRICS:
            lines.append(f"  {name:<44}{tr['layer'][name]:.6g} {unit}")
    return lines


def result_line(rec: dict, trace: int) -> str:
    if trace:
        metrics = {n: {"value": rec["trace"]["layer"][n], "unit": u} for n, u in tracing.LAYER_METRICS}
    else:
        metrics = {n: {"value": rec["metrics"][n], "unit": u} for n, u in END_TO_END}
    return json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                       "failed": rec["failed"], "metrics": metrics})


def _prepare() -> None:
    if not (SRC / "towerbound" / "cli.py").is_file():
        raise RunFailed(f"no towerbound sources under {SRC}; run from a checkout of the repository")
    if not compileall.compile_dir(str(SRC), quiet=1):
        raise RunFailed("src/ does not compile")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = _benchmark_spec()["run_seconds"]
    try:
        _prepare()
        names = [args.workload] if args.workload else sorted(workloads.WORKLOADS)
        recs = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except RunFailed as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    errors = [f"{r['workload']}: {e}" for r in recs for e in r.get("trace", {}).get("rationale", {}).get("errors", ())]
    for rec in recs:
        print("\n".join(_describe(rec)))
    if errors:
        print("RATIONALE CHECK FAILED:\n  " + "\n  ".join(errors), file=sys.stderr)
        return 1
    if args.workload:
        print(result_line(recs[0], args.trace))
        return 0
    return 0 if all(r["failed"] == 0 for r in recs) else 1


if __name__ == "__main__":
    sys.exit(main())
