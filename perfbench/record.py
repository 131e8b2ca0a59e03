#!/usr/bin/env python3
"""Run the benchmark over several seeds; record a baseline or compare two.

    python3 perfbench/record.py [--out FILE]
    python3 perfbench/record.py --compare OLD.json NEW.json

The first form runs perfbench/run.py once per BENCHMARK.json workload and
seed 1-10 with --trace 0, and once per workload with --trace 1 on seed 1.  For
each end-to-end metric it prints the median, the quartiles and their
distance as a share of the median (the spread), next to the bound from
BENCHMARK.json; a spread under a third of its bound is steady (set-up
time is exempt).  It also prints the case-level fail fraction with its
base.  With --out it writes all of this, every run's values, the traced
run's per-layer metrics and the environment fingerprint to FILE.

The second form refuses to compare files whose fingerprints differ, and
otherwise prints each metric's change of median as a share of the old one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    # exit code 1 still prints a result, with correct false
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# fingerprint "):
            result["fingerprint"] = json.loads(line[len("# fingerprint "):])
        elif line.startswith("# FAIL "):
            print(f"  {workload} seed {seed}: {line[2:]}", file=sys.stderr)
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def record(spec: dict) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    fingerprints = set()
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, 0))
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), file=sys.stderr)
        traced = run_once(workload, SEEDS[0], 1)
        fingerprints.update(json.dumps(r["fingerprint"], sort_keys=True) for r in runs + [traced])
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        metrics = {}
        for m in spec["end_to_end"]:
            entry = spread([r["metrics"][m["name"]]["value"] for r in runs])
            entry.update(unit=m["unit"], bound=bounds[m["name"]])
            metrics[m["name"]] = entry
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "fail_frac": {"value": failed / attempted, "failed": failed, "attempted": attempted},
            "end_to_end": metrics,
            "per_layer": {"seed": SEEDS[0], **traced["metrics"]},
        }
    if len(fingerprints) != 1:
        raise RuntimeError(f"runs disagree on the environment fingerprint: {fingerprints}")
    out["fingerprint"] = json.loads(fingerprints.pop())
    return out


def print_table(result: dict) -> None:
    print(f"fingerprint {json.dumps(result['fingerprint'])}, seeds {result['seeds']}")
    print(f"{'workload':16s} {'metric':12s} {'median':>10s} {'unit':5s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for workload, data in result["workloads"].items():
        for name, m in data["end_to_end"].items():
            # set-up time is gated on its median only, not on its spread
            flag = "" if name == "setup_s" or m["spread"] < m["bound"] / 3 else "  UNSTEADY"
            print(f"{workload:16s} {name:12s} {m['median']:10.4f} {m['unit']:5s} {m['q1']:10.4f} "
                  f"{m['q3']:10.4f} {m['spread']:7.3f} {m['bound']:6.2f}{flag}")
        ff = data["fail_frac"]
        print(f"{workload:16s} {'fail_frac':12s} {ff['value']:10.4f} ratio ({ff['failed']} of "
              f"{ff['attempted']} cases), correct {data['correct']}")


def compare(old_path: str, new_path: str) -> int:
    with open(old_path) as handle:
        old = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    if old["fingerprint"] != new["fingerprint"]:
        print(f"error: fingerprints differ, refusing to compare: {old['fingerprint']} vs "
              f"{new['fingerprint']}", file=sys.stderr)
        return 2
    for workload, data in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            continue
        for name, m in data["end_to_end"].items():
            base = before["end_to_end"][name]["median"]
            change = (m["median"] - base) / base
            print(f"{workload:16s} {name:12s} {base:10.4f} -> {m['median']:10.4f} {m['unit']:5s} "
                  f"{change:+7.3f} (bound {m['bound']})")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    result = record(spec)
    print_table(result)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
