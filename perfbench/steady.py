"""Steadiness check: two interleaved sets of runs of every workload.

    python3 perfbench/steady.py

Runs the benchmark command of ``BENCHMARK.json`` (from the root of the
checkout) ``RUNS`` times per set and workload. Both sets run the same seeds,
one seed per round, and alternate which set goes first, so the two sets
differ only by run-to-run noise. For every end-to-end metric it prints
each set's median and quartiles, the spread (quartile distance over the
median), and whether the second set's median is within the metric's bound
of the first's. It also checks that both sets fail the same share of
operations. Exits 1 if any run fails, any bound is broken or the shares
differ. The bounds in ``BENCHMARK.json`` are set from this output.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Runs per set and workload.
RUNS = 10
#: Round ``i`` runs both sets at seed ``SEED_BASE + i``.
SEED_BASE = 100


def run_once(spec: dict, workload: str, seed: int) -> tuple[dict, float]:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    runs: dict = {n: {"A": [], "B": []} for n in names}
    ok = True
    for i in range(RUNS):
        seed = SEED_BASE + i
        for label in ("A", "B") if i % 2 == 0 else ("B", "A"):
            for name in names:
                result, wall = run_once(spec, name, seed)
                runs[name][label].append(result)
                ok &= bool(result["correct"])
                print(
                    f"[{i + 1}/{RUNS}] {label} {name} seed {seed}: "
                    f"{wall:.1f} s, correct={result['correct']} "
                    f"failed={result['failed']}/{result['attempted']} "
                    + " ".join(
                        f"{k}={v['value']:.4g}"
                        for k, v in result["metrics"].items()
                    ),
                    file=sys.stderr, flush=True,
                )

    for name in names:
        print(f"\n{name}")
        print(f"  {'metric':<12} {'set':<3} {'q1':>10} {'median':>10} "
              f"{'q3':>10} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            key, bound = m["name"], m["bound"]
            sets = {
                label: quartiles(
                    [r["metrics"][key]["value"] for r in runs[name][label]]
                )
                for label in ("A", "B")
            }
            spreads = {lab: (q3 - q1) / med for lab, (q1, med, q3) in sets.items()}
            med_a, med_b = sets["A"][1], sets["B"][1]
            worse = (med_b - med_a) / med_a
            if m["better"] == "higher":
                worse = -worse
            agree = worse <= bound
            steady = key == "setup_s" or max(spreads.values()) <= bound
            ok &= agree and steady
            for label, (q1, med, q3) in sets.items():
                verdict = ""
                if label == "B":
                    verdict = (
                        f"B worse by {worse:+.1%}: "
                        f"{'agree' if agree else 'DISAGREE'}"
                        + ("" if steady else ", spread over bound")
                    )
                print(f"  {key:<12} {label:<3} {q1:>10.4g} {med:>10.4g} "
                      f"{q3:>10.4g} {spreads[label]:>8.1%} {bound:>6.0%}  "
                      f"{verdict}")
        shares = {
            label: sum(r["failed"] for r in runs[name][label])
            / sum(r["attempted"] for r in runs[name][label])
            for label in ("A", "B")
        }
        same_share = shares["A"] == shares["B"]
        ok &= same_share
        print(f"  failed share A {shares['A']:.4f}, B {shares['B']:.4f}: "
              f"{'same' if same_share else 'DIFFERENT'}")

    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
