"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/passes.py run|traced WORKLOAD SEED LAUNCH
    python3 perfbench/passes.py micro SEED
    python3 perfbench/passes.py verify-all JOBS SEED

`run` runs the `symbolic` or `function-space` grid case by case in this
process, as a user's run does; `traced` runs it under perfbench/tracer.py.
LAUNCH is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is system-wide on Linux, so set-up time counts
interpreter start and `import ncbinom`.  `micro` times scalar operations
and the reach-n scaling probe.  `verify-all` runs `verify all --n-max 4`
with JOBS workers, the grid of the parallel speed-up.  The last stdout line
is one JSON object.

The engine is driven only through its public entry points: `cli.iter_cases`
and `cli.run_case` for the workloads, `cli.main` for verify-all.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

import ncbinom  # noqa: E402  (timed as part of set-up)
from ncbinom import cli  # noqa: E402
from reference import REFERENCE_S, reference_loop  # noqa: E402

# The lambdas are those every default `ncbinom verify` runs, cli.BASE_LAMBDAS:
# its rational part takes the scalar fast path, its non-rational part the
# general 4x4 product.  Each seed draws one rational lambda; every pass runs
# both non-rational ones, because 1+i costs about a tenth more than i and
# drawing between them made up most of the seed-to-seed spread.  They are
# copied, not imported, so that a change of the CLI defaults does not change
# the benchmark's inputs.
RATIONAL_POOL = ("1", "2", "-3", "1/2")
NONRATIONAL = ("i", "1+i")

# (suite, n_max, cor-vw variant or None).  Degrees are cut from the CLI
# defaults so that a pass takes a few seconds and a run holds several.
SERIAL_GRIDS = {
    "symbolic": (
        ("thm-nou", 6, None),
        ("rec-3", 6, None),
        ("thm-wrongsign", 6, None),
        ("rec-6", 6, None),
        ("thm-2nd", 6, None),
        ("rec-7", 7, None),
        ("cor-kernel", 6, None),
        ("lemma-l2", 6, None),
        ("lemma-l3", 6, None),
        ("final-remark", 5, None),
        ("cor-vw", 5, "abstract"),
    ),
    "function-space": (
        ("exp", 6, None),
        ("sin", 6, None),
        ("linear", 6, None),
        ("chvar-gauss", 5, None),
        ("chvar-log", 5, None),
        ("vector", 4, None),
        ("eq5-matrix", 5, None),
        ("third-order", 3, None),
        ("cor-vw", 3, "realized"),
    ),
}
SUITES_WITHOUT_LAMBDA = frozenset({"rec-7", "linear", "eq5-matrix"})
ALL_JOBS_N_MAX = 4

MICRO_PAIRS = 300
MICRO_ROUNDS = 7

# reach-n probe: largest n whose build plus normalize fits the budget.
REACH_PRESETS = (
    ("first-order-plus", "U"),
    ("first-order-minus", "U"),
    ("second-order", "U"),
    ("invertible-plus", "U"),
    ("partial-vw", "V"),
    ("free", "U"),
)
REACH_BUDGET_S = 0.25
REACH_MAX_N = 40
REACH_SWEEPS = 2


def draw_lambdas(seed: int) -> tuple[str, ...]:
    return (random.Random(seed).choice(RATIONAL_POOL),) + NONRATIONAL


def serial_cases(workload: str, seed: int) -> list[dict]:
    lambdas = draw_lambdas(seed)
    cases = []
    for suite, n_max, variant in SERIAL_GRIDS[workload]:
        cfg = cli.SuiteConfig(
            n_max=n_max,
            lambdas=None if suite in SUITES_WITHOUT_LAMBDA else lambdas,
            seed=seed,
        )
        cases.extend(
            c for c in cli.iter_cases(suite, cfg)
            if variant is None or c.get("variant") == variant
        )
    return cases


def check_verify_stream(lines: list[dict], cases: list[dict]) -> list[str]:
    """Misses of a `verify` report stream against the grid it was built from."""
    misses = [f"no report for {case}" for case in cases[len(lines):]]
    misses += [f"report beyond the grid: {line}" for line in lines[len(cases):]]
    for line, case in zip(lines, cases):
        want = "skipped" if "skip" in case else "pass"
        if line["suite"] != case["suite"] or line["status"] != want:
            misses.append(f"{case}: {line['status']} (want {want})")
    return misses


def workload_pass(workload: str, seed: int, launch: float, tracer) -> dict:
    cases = serial_cases(workload, seed)
    buffer = io.StringIO()

    # the JSON line `verify --format json` would print for this report
    def emit(report) -> None:
        buffer.write(json.dumps(report.to_json_obj()) + "\n")

    if tracer is not None:
        emit = tracer.span("cli.emit", emit)
    latencies_ms = []
    statuses = []
    first = time.monotonic()
    for case in cases:
        start = time.monotonic()
        report = cli.run_case(case)
        latencies_ms.append(1000.0 * (time.monotonic() - start))
        statuses.append(report.status)
        emit(report)
    counts = {"total": len(cases), "passed": statuses.count("pass"),
              "failed": statuses.count("fail"), "skipped": statuses.count("skipped")}
    buffer.write(json.dumps({"summary": counts}) + "\n")
    end = time.monotonic()
    stream = buffer.getvalue().encode()
    lines = [{"suite": c["suite"], "status": s} for c, s in zip(cases, statuses)]
    return {
        "setup_s": first - launch,
        "verdict_s": end - first,
        "case_ms_p50": statistics.median(latencies_ms),
        "case_ms_p90": statistics.quantiles(latencies_ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(cases),
        "lambdas": draw_lambdas(seed),
        "misses": check_verify_stream(lines, cases),
        "sha256": hashlib.sha256(stream).hexdigest(),
        "bytes": len(stream),
    }


def traced_pass(workload: str, seed: int, launch: float) -> dict:
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    result = workload_pass(workload, seed, launch, tracer)
    result["layers"] = tracer.summary(report_bytes=result["bytes"], cases=result["attempted"])
    tracer.write_spans(os.path.join(ROOT, ".perfbench", f"spans-{workload}-seed{seed}.jsonl"))
    return result


def verify_all_pass(jobs: int, seed: int) -> dict:
    """`verify all --n-max 4 --jobs JOBS`, timed from cli.main's call to its return."""
    lambdas = ",".join(draw_lambdas(seed))
    argv = ["verify", "all", "--jobs", str(jobs), "--format", "json",
            "--n-max", str(ALL_JOBS_N_MAX), "--seed", str(seed), f"--lambda={lambdas}"]
    buffer = io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    verdict_s = time.monotonic() - start
    stream = buffer.getvalue()
    cfg = cli.SuiteConfig(n_max=ALL_JOBS_N_MAX, lambdas=tuple(lambdas.split(",")), seed=seed)
    cases = [c for suite in cli.SUITE_ORDER for c in cli.iter_cases(suite, cfg)]
    lines = [json.loads(x) for x in stream.splitlines()[:-1]]
    misses = check_verify_stream(lines, cases) + ([f"exit code {code}"] if code else [])
    return {"verdict_s": verdict_s, "attempted": len(cases), "misses": misses,
            "sha256": hashlib.sha256(stream.encode()).hexdigest()}


# ---- micro pass: scalar costs and the reach-n scaling curve -------------------


def _random_general_scalar(rng: random.Random):
    text = "0"
    for power in range(4):
        text += f" {rng.choice('+-')} {rng.randint(1, 9)}/{rng.randint(1, 9)}*z^{power}"
    return ncbinom.parse_scalar(text)


def _sweep_s(op, pairs: list, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        for a, b in pairs:
            op(a, b)
    return (time.perf_counter() - start) / repeats


def _reach(name: str, u_name: str, lam, mu) -> int:
    """Best of REACH_SWEEPS sweeps from an empty memo, budget scaled per sweep."""
    best = 0
    for _ in range(REACH_SWEEPS):
        budget = REACH_BUDGET_S * reference_loop() / REFERENCE_S
        preset = ncbinom.make_preset(name, lam, mu)
        u, d = preset.generator(u_name), preset.generator("D")
        reach = 0
        for n in range(1, REACH_MAX_N + 1):
            start = time.perf_counter()
            ncbinom.normalize(ncbinom.build_binomial(n, lam, u, d), preset)
            if time.perf_counter() - start > budget:
                break
            reach = n
        best = max(best, reach)
    return best


def micro_pass(seed: int) -> dict:
    """Per-call scalar costs, each round scaled by a reference loop timed just before."""
    rng = random.Random(seed)
    pairs = [(_random_general_scalar(rng), _random_general_scalar(rng))
             for _ in range(MICRO_PAIRS)]
    # (operation, sweeps per timing): an add is ten times cheaper than a
    # multiplication, so it is swept more often to take about as long
    ops = {
        "scalars.mul_general_us": (lambda a, b: a * b, 1),
        "scalars.add_us": (lambda a, b: a + b, 10),
        "scalars.inv_us": (lambda a, b: a.inv(), 1),
    }
    ratios = {name: [] for name in ops}
    for _ in range(MICRO_ROUNDS):
        loop_s = reference_loop()
        for name, (op, repeats) in ops.items():
            ratios[name].append(_sweep_s(op, pairs, repeats) / loop_s)
    metrics = {name: 1e6 * REFERENCE_S * statistics.median(r) / MICRO_PAIRS
               for name, r in ratios.items()}
    lam, mu = ncbinom.parse_scalar("1"), ncbinom.parse_scalar("2")
    for name, u_name in REACH_PRESETS:
        metrics[f"binomial.reach_n.{name}"] = _reach(name, u_name, lam, mu)
    return metrics


def main(argv: list[str]) -> int:
    engine = os.path.join(ROOT, "src", "ncbinom")
    if os.path.dirname(os.path.abspath(ncbinom.__file__)) != engine:
        print(f"ncbinom imported from {ncbinom.__file__}, not {engine}", file=sys.stderr)
        return 2
    mode = argv[0]
    if mode == "run":
        result = workload_pass(argv[1], int(argv[2]), float(argv[3]), None)
    elif mode == "traced":
        result = traced_pass(argv[1], int(argv[2]), float(argv[3]))
    elif mode == "micro":
        result = micro_pass(int(argv[1]))
    elif mode == "verify-all":
        result = verify_all_pass(int(argv[1]), int(argv[2]))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    rational = ncbinom.parse_scalar("1/2").coords[0]
    result["backend"] = f"{type(rational).__module__}.{type(rational).__qualname__}"
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
