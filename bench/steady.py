"""Steadiness check: do two sets of runs of the same code agree within the bounds?

    python3 bench/steady.py [--seconds S]

Each of the two sets runs every workload of BENCHMARK.json once per seed
1-10 through ``run.py`` (untraced), as a comparison of two commits would.
For each end-to-end metric and workload it reports the median of each set,
the spread of each set (distance between the first and third quartile as a
share of the median) and the drift (difference of the two medians as a share
of the first), and holds every spread and the absolute drift to the metric's
``bound`` in BENCHMARK.json.  Exits 1 if any of them exceeds its bound.  The
table is also written to ``bench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {res['failed']} failed ops")
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]

    values = {}  # (set, workload) -> metric -> list
    for s in range(SETS):
        for w in workloads:
            runs = [run_once(w, seed, args.seconds) for seed in SEEDS]
            values[s, w] = {m["name"]: [r[m["name"]] for r in runs] for m in metrics}
            print(f"set {s + 1} {w}: " + ", ".join(
                f"{m['name']} {statistics.median(values[s, w][m['name']]):.5g}" for m in metrics),
                flush=True)

    ok, table = True, []
    print(f"\n{'workload':<11}{'metric':<15}{'bound':>6}  " + "  ".join(
        f"{'median' + str(s + 1):>10}{'spread' + str(s + 1):>9}" for s in range(SETS)) + "     drift")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [values[s, w][name] for s in range(SETS)]
            medians = [statistics.median(v) for v in sets]
            row = {"workload": w, "metric": name, "bound": bound, "median": medians,
                   "spread": [spread(v) for v in sets], "values": sets,
                   "drift": (medians[1] - medians[0]) / medians[0]}
            row["ok"] = all(sp <= bound for sp in row["spread"]) and abs(row["drift"]) <= bound
            ok = ok and row["ok"]
            table.append(row)
            cells = "  ".join(f"{med:>10.5g}{sp:>9.3f}" for med, sp in zip(medians, row["spread"]))
            print(f"{w:<11}{name:<15}{bound:>6}  {cells}{row['drift']:>+10.3f}"
                  f"  {'ok' if row['ok'] else 'OUT OF BOUND'}")
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "steady.json").write_text(json.dumps(table, indent=1) + "\n")
    print("\nsteady" if ok else "\nNOT STEADY: some spread or drift exceeds its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
