#!/usr/bin/env python3
"""The ncbinom benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --golden

Run from the root of a source checkout; the engine is imported from
./src.  Every pass of a workload starts a fresh interpreter
(perfbench/passes.py), because every real `ncbinom` run starts with empty
memo tables.  Passes repeat until the next one would end after --seconds
(at least three), and each metric is the median over passes; each pass's
times are first scaled for the host's speed drift by the reference loops
timed around it (see perfbench/reference.py).  Every pass
checks every verdict against the known answer and hashes its report
stream; the hashes must agree across passes.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json.
--trace 1 prints the per-layer metrics instead: four untraced and four
traced passes, alternating (their verdicts and report hashes must match,
their counts must repeat exactly, every layer the workload uses must show
work and every layer it leaves alone none), scalar micro-timings, the
reach-n scaling probe, and the serial over parallel speed-up of `verify
all --n-max 4`.  Every time in it is scaled by reference loops timed next
to it.  The tracing overhead is the traced minus the untraced median
verdict_s.  Each traced pass writes its spans to
.perfbench/spans-<workload>-seed<n>.jsonl.

--golden runs the default `verify all --format json` once (about three
minutes) and checks its sha256 against the reference stream.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  The lines before it print every metric by name and unit, the
case-level fail fraction with its base, and the environment fingerprint
(CPython version, CPU count, rational backend); runs whose fingerprints
differ are not comparable (see perfbench/record.py).  The exit code is 1
when any check fails, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from reference import REFERENCE_S, reference_loop

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPANS_DIR = os.path.join(ROOT, ".perfbench")
MIN_PASSES = 3
TIME_METRICS = ("verdict_s", "setup_s", "case_ms_p50", "case_ms_p90")
TRACE_PAIRS = 4
SPEEDUP_ROUNDS = 2
PASS_TIMEOUT_S = 150
GOLDEN_TIMEOUT_S = 900
GOLDEN_SHA256 = "d95b9ac7ed9e08bd5fc90001bd990c5e4b8e217a401d25b7df0aec925c7a723e"

# Metric that shows a layer ran.  Each workload must show work in the
# layers it uses and none in the layers it leaves alone.
LAYER_WORK = {
    "scalars": ("scalars.mul_calls",),
    "freealg": ("freealg.mul_calls",),
    "rewrite": ("rewrite.normalize_calls",),
    "binomial": ("binomial.build_calls",),
    "realize": ("realize.apply_calls", "realize.matrix_mul_calls"),
    "report": ("report.calls",),
    "cli": ("cli.cases",),
}
LAYERS_USED = {
    "symbolic": ("scalars", "freealg", "rewrite", "binomial", "report", "cli"),
    "function-space": ("scalars", "freealg", "binomial", "realize", "report", "cli"),
}
LAYERS_UNUSED = {
    "symbolic": ("realize",),
    "function-space": ("rewrite",),
}


class PassError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run argv in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def run_pass(*args) -> dict:
    """One pass of perfbench/passes.py; `launch` in args becomes the start time."""
    argv = [repr(time.monotonic()) if a == "launch" else str(a) for a in args]
    proc = run_child([sys.executable, os.path.join(HERE, "passes.py"), *argv], PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise PassError(f"pass {' '.join(argv[:2])} exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def bracketed_passes(passes) -> list[tuple[dict, float]]:
    """Run passes with a reference loop before, between and after them.

    Each pass comes back with its time scale: REFERENCE_S over the mean of
    the two loops around it.  On a shared 2-vCPU virtual machine, over 143
    passes of one symbolic input, medians of 18 passes scaled this way
    varied less than half as much as with one scale per run.
    """
    loops = [reference_loop()]
    out = []
    for args in passes:
        result = run_pass(*args)
        loops.append(reference_loop())
        out.append((result, 2 * REFERENCE_S / (loops[-2] + loops[-1])))
    return out


def for_seconds(seconds: float, args: tuple):
    """Yield args until the next pass would end after `seconds` (at least MIN_PASSES times)."""
    start = time.monotonic()
    last = 0.0
    count = 0
    while count < MIN_PASSES or time.monotonic() - start + last <= seconds:
        begun = time.monotonic()
        yield args
        last = time.monotonic() - begun
        count += 1


def end_to_end(workload: str, seed: int, seconds: float, spec: dict):
    """Median end-to-end metrics over the passes, plus correctness findings."""
    problems = []
    passes = bracketed_passes(for_seconds(seconds, ("run", workload, seed, "launch")))
    if len({p["sha256"] for p, _ in passes}) != 1:
        problems.append("report stream hash changed between passes")
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        metrics[name] = (statistics.median(p[name] * (s if name in TIME_METRICS else 1.0)
                                           for p, s in passes), m["unit"])
    attempted = sum(p["attempted"] for p, _ in passes)
    failed = min(attempted, sum(len(p["misses"]) for p, _ in passes))
    problems += [m for p, _ in passes for m in p["misses"]]
    first = passes[0][0]
    notes = [
        f"passes {len(passes)}, cases per pass {first['attempted']}, "
        f"lambdas {', '.join(first['lambdas'])}",
        "raw verdict_s per pass " + " ".join(f"{p['verdict_s']:.3f}" for p, _ in passes),
        "time scale per pass " + " ".join(f"{s:.3f}" for _, s in passes),
    ]
    return metrics, attempted, failed, problems, notes, first["backend"]


def per_layer(workload: str, seed: int, spec: dict):
    """Per-layer metrics from traced passes, checked against untraced ones.

    Untraced and traced passes alternate TRACE_PAIRS times, each scaled like
    the end-to-end passes.  Times are scaled medians over the
    traced passes; counts must repeat exactly.  The micro pass scales its
    own timings.  The parallel speed-up is measured on the `verify all
    --n-max 4` grid whatever the workload, from SPEEDUP_ROUNDS serial and
    parallel passes, alternating; all their report streams must match.
    """
    problems = []
    pairs = bracketed_passes([(mode, workload, seed, "launch")
                              for _ in range(TRACE_PAIRS) for mode in ("run", "traced")])
    untraced, traced = pairs[0::2], pairs[1::2]
    micro = run_pass("micro", seed)
    jobs = bracketed_passes([("verify-all", n, seed) for _ in range(SPEEDUP_ROUNDS)
                             for n in (1, 2)])
    serial, parallel = jobs[0::2], jobs[1::2]
    if len({p["sha256"] for p, _ in pairs}) != 1:
        problems.append("traced report stream differs from the untraced one")
    if len({p["sha256"] for p, _ in jobs}) != 1:
        problems.append("parallel report stream differs from the serial one")
    values = {}
    for name in traced[0][0]["layers"]:
        if name.endswith("_s"):
            values[name] = statistics.median(p["layers"][name] * s for p, s in traced)
            continue
        observed = [p["layers"][name] for p, _ in traced]
        if len(set(observed)) != 1:
            problems.append(f"count {name} changed between traced passes: {observed}")
        values[name] = observed[0]
    for layer in LAYERS_USED[workload]:
        if not any(values[name] for name in LAYER_WORK[layer]):
            problems.append(f"traced counts show no work in layer {layer}")
    for layer in LAYERS_UNUSED[workload]:
        for name in LAYER_WORK[layer]:
            if values[name]:
                problems.append(f"{workload} must not use layer {layer}: {name} = {values[name]}")
    for p, _ in pairs + jobs:
        problems += p["misses"]
    values.update({k: v for k, v in micro.items() if k != "backend"})
    serial_s = statistics.median(p["verdict_s"] * s for p, s in serial)
    parallel_s = statistics.median(p["verdict_s"] * s for p, s in parallel)
    values["cli.parallel_speedup"] = serial_s / parallel_s
    traced_s = statistics.median(p["verdict_s"] * s for p, s in traced)
    untraced_s = statistics.median(p["verdict_s"] * s for p, s in untraced)
    values["trace.overhead_s"] = traced_s - untraced_s
    metrics = {}
    for m in spec["per_layer"]:
        if m["name"] not in values:
            raise PassError(f"per-layer metric {m['name']} was not measured")
        metrics[m["name"]] = (values[m["name"]], m["unit"])
    attempted = sum(p["attempted"] for p, _ in pairs)
    failed = min(attempted, sum(len(p["misses"]) for p, _ in pairs))
    notes = [
        f"lambdas {', '.join(traced[0][0]['lambdas'])}",
        f"scaled verdict_s median traced {traced_s:.4f} s, untraced {untraced_s:.4f} s "
        f"({TRACE_PAIRS} passes each)",
        "pass scales " + " ".join(f"{s:.3f}" for _, s in pairs),
        "verify all --jobs 1, 2 raw s " + " ".join(f"{p['verdict_s']:.3f}" for p, _ in jobs)
        + ", scales " + " ".join(f"{s:.3f}" for _, s in jobs),
    ]
    return metrics, attempted, failed, problems, notes, micro["backend"]


def golden() -> int:
    started = time.monotonic()
    proc = run_child([sys.executable, "-m", "ncbinom", "verify", "all", "--format", "json"],
                     GOLDEN_TIMEOUT_S)
    data = proc.stdout.encode()
    digest = hashlib.sha256(data).hexdigest()
    ok = proc.returncode == 0 and digest == GOLDEN_SHA256
    print(json.dumps({"golden_ok": ok, "sha256": digest, "lines": data.count(b"\n"),
                      "bytes": len(data), "seconds": round(time.monotonic() - started, 1)}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(LAYERS_USED))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ncbinom", "__init__.py")):
        print(f"error: no ncbinom source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(SPANS_DIR, exist_ok=True)
    if args.golden:
        return golden()
    if args.workload is None:
        parser.error("--workload is required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        if args.trace:
            result = per_layer(args.workload, args.seed, spec)
        else:
            result = end_to_end(args.workload, args.seed, seconds, spec)
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics, attempted, failed, problems, notes, backend = result
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "rational_backend": backend}
    print(f"# fingerprint {json.dumps(env)}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(f"# {note}")
    for problem in problems[:20]:
        print(f"# FAIL {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'fail_frac':40s} {failed / attempted:.6g} ratio ({failed} of {attempted} cases)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
