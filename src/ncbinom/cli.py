"""Command-line harness: expand expressions, run verification suites.

Exit codes: 0 when every non-skipped case passes, 1 when any case fails,
2 on usage or literal-parse errors, out-of-range flags and runs with no
cases; flags are checked before any case runs.  Output is deterministic:
identical flags and seed give byte-identical output, regardless of --jobs.
`SuiteConfig` and `Suite` are named tuples and `build_parser` alone imports
`argparse`, so a caller of `iter_cases` and `run_case` loads neither
`dataclasses` nor `argparse`.
"""

from __future__ import annotations

import json
import os
import sys
from collections import namedtuple
from collections.abc import Callable
from types import MappingProxyType

from . import binomial
from .report import FAIL, PASS, VerificationReport, report_from_clauses, skipped_report
from .rewrite import (
    PRESET_NAMES,
    cached_preset,
    check_confluence,
    make_preset,
    normalize,
)
from .scalars import ZERO, format_scalar, parse_scalar

DEFAULT_SEED = 1729

BASE_LAMBDAS = ("1", "2", "-3", "1/2", "i", "1+i")

VW_MU_SAMPLES = ("0", "2")
LINEAR_AB_SAMPLES = (("1", "0"), ("2", "5"))  # canonical literals
EQ5_DIMS = (2, 3)
EQ5_SEEDS = (7, 42)
VECTOR_DIMS = (2, 3)

NONZERO_LAMBDA = "hypothesis requires lambda != 0"

# smallest value of each flag, whatever the suite
FLAG_MINIMUMS = {"n_max": 0, "jobs": 1}

# flags only some suites read; a single named suite that does not rejects them
SUITE_FLAGS = ("j", "m", "seed")


# the flags of one run; None takes the suite's default
SuiteConfig = namedtuple("SuiteConfig", "n_max lambdas j m seed jobs",
                         defaults=(None, None, None, None, None, 1))

# One verification suite: its defaults, its case grid and its runner.
#   n_max: default degree bound; None when the grid has no degree
#   lambdas: default lambda literals; None: takes no lambda
#   grid: (suite, n_max, lambda literals, cfg) -> list of case dicts
#   run: (case, parsed lambda) -> list of Clause; None for confluence
#   flags: SUITE_FLAGS it reads -> smallest value, None: any; read-only when defaulted
#   realizes: its runner calls into `realize` (for cor-vw, the realized variant only)
Suite = namedtuple("Suite", "n_max lambdas grid run flags realizes",
                   defaults=(MappingProxyType({}), False))


def _seed(cfg: SuiteConfig) -> int:
    return cfg.seed if cfg.seed is not None else DEFAULT_SEED


def _js(n: int, cfg: SuiteConfig) -> list[int]:
    return [cfg.j] if cfg.j is not None else list(range(n))


def _lambda_grid(min_n: int, nonzero: bool = False) -> Callable:
    """n from min_n for each lambda; lambda = 0 is skipped when `nonzero`."""

    def grid(suite, n_max, lambdas, cfg):
        cases = []
        for lam in lambdas:
            skip = nonzero and parse_scalar(lam).is_zero
            for n in range(min_n, n_max + 1):
                cases.append({"suite": suite, "n": n, "lambda": lam})
                if skip:
                    cases[-1]["skip"] = NONZERO_LAMBDA
        return cases

    return grid


def _degree_grid(min_n: int) -> Callable:
    return lambda suite, n_max, lambdas, cfg: [
        {"suite": suite, "n": n} for n in range(min_n, n_max + 1)
    ]


def _kernel_grid(suite, n_max, lambdas, cfg):
    return [{"suite": suite, "n": n, "lambda": lam, "j": j}
            for lam in lambdas for n in range(0, n_max + 1) for j in _js(n, cfg)]


def _vw_grid(suite, n_max, lambdas, cfg):
    cases = []
    for lam in lambdas:
        for n in range(0, n_max + 1):
            cases += [{"suite": suite, "n": n, "lambda": lam, "mu": mu, "variant": "abstract"}
                      for mu in VW_MU_SAMPLES]
            # one operator identity per (n, lambda) on n + 1 slots; degree 6 keeps 42 by default
            if n <= 6:
                cases.append({"suite": suite, "n": n, "lambda": lam, "seed": _seed(cfg),
                              "variant": "realized"})
    return cases


def _exp_grid(suite, n_max, lambdas, cfg):
    cases = []
    for lam in lambdas:
        # n = 0 reads no j, so it carries none and runs only when --j is unset
        if cfg.j is None:
            cases.append({"suite": suite, "n": 0, "lambda": lam})
        cases += [{"suite": suite, "n": n, "lambda": lam, "j": j}
                  for n in range(1, n_max + 1) for j in _js(n, cfg) if j <= n - 1]
    return cases


def _linear_grid(suite, n_max, lambdas, cfg):
    return [{"suite": suite, "n": n, "a": a, "b": b}
            for a, b in LINEAR_AB_SAMPLES for n in range(0, n_max + 1)]


def _chvar_grid(suite, n_max, lambdas, cfg):
    cases = []
    for lam in lambdas:
        zero_lam = parse_scalar(lam).is_zero
        for n in range(1, n_max + 1):
            for j in _js(n, cfg):
                if j <= n - 1:
                    cases.append({"suite": suite, "n": n, "lambda": lam, "j": j})
                    if zero_lam:
                        cases[-1]["skip"] = NONZERO_LAMBDA
    return cases


def _vector_grid(suite, n_max, lambdas, cfg):
    dims = (cfg.m,) if cfg.m is not None else VECTOR_DIMS
    seed = _seed(cfg)
    cases = []
    for item in range(1, 8):
        for lam in lambdas:
            zero_lam = parse_scalar(lam).is_zero
            for n in range(0, n_max + 1):
                for m in dims:
                    cases.append({"suite": suite, "item": item, "n": n,
                                  "lambda": lam, "m": m, "seed": seed})
                    if zero_lam and item in (5, 6, 7):
                        cases[-1]["skip"] = "sine items need lambda != 0"
    cases += [{"suite": suite, "item": 8, "n": n, "lambda": "0", "m": m, "seed": seed}
              for n in range(0, n_max + 1) for m in dims]
    return cases


def _eq5_grid(suite, n_max, lambdas, cfg):
    dims = (cfg.m,) if cfg.m is not None else EQ5_DIMS
    seeds = (cfg.seed,) if cfg.seed is not None else EQ5_SEEDS
    return [{"suite": suite, "n": n, "dim": dim, "seed": s}
            for n in range(0, n_max + 1) for dim in dims for s in seeds]


def _third_order_grid(suite, n_max, lambdas, cfg):
    cases = []
    for lam in lambdas:
        if parse_scalar(lam).is_zero:
            if n_max >= 3:
                cases.append({"suite": suite, "n": 3, "lambda": lam,
                              "skip": "scan needs lambda != 0"})
            continue
        cases += [{"suite": suite, "n": n, "lambda": lam} for n in range(3, n_max + 1, 2)]
    return cases


def _confluence_grid(suite, n_max, lambdas, cfg):
    return [{"suite": suite, "preset": name} for name in PRESET_NAMES]


def _realize():
    # imported on first use: the symbolic suites, expand and confluence never load it
    from . import realize

    return realize


def needs_realize(case: dict) -> bool:
    """Whether running `case` calls into `realize`; cor-vw's abstract variant does not."""
    return SUITES[case["suite"]].realizes and case.get("variant") != "abstract"


WITH_ZERO = BASE_LAMBDAS + ("0",)

# Runners look verifiers up on their module at call time, so that a
# rebinding of, say, binomial.verify_u_independence is seen here.
SUITES: dict[str, Suite] = {
    "thm-nou": Suite(10, WITH_ZERO, _lambda_grid(0),
                     lambda c, lam: binomial.verify_u_independence(c["n"], lam)),
    "rec-3": Suite(10, BASE_LAMBDAS, _lambda_grid(1),
                   lambda c, lam: binomial.verify_ascending_recurrence(c["n"], lam)),
    "thm-wrongsign": Suite(10, BASE_LAMBDAS, _lambda_grid(0, nonzero=True),
                           lambda c, lam: binomial.verify_minus_commutator_theorem(c["n"], lam)),
    "rec-6": Suite(8, BASE_LAMBDAS, _lambda_grid(2, nonzero=True),
                   lambda c, lam: binomial.verify_minus_recurrence(c["n"], lam)),
    "thm-2nd": Suite(8, WITH_ZERO, _lambda_grid(0),
                     lambda c, lam: binomial.verify_second_commutator_theorem(c["n"], lam)),
    "rec-7": Suite(8, None, _degree_grid(3),
                   lambda c, lam: binomial.verify_central_recurrence(c["n"])),
    "cor-kernel": Suite(8, BASE_LAMBDAS, _kernel_grid,
                        lambda c, lam: binomial.verify_kernel_vectors(c["n"], lam, c["j"]),
                        {"j": 0}),
    "cor-vw": Suite(8, BASE_LAMBDAS, _vw_grid, lambda c, lam: (
        binomial.verify_w_independence(c["n"], lam, parse_scalar(c["mu"]))
        if c["variant"] == "abstract"
        else _realize().verify_w_independence_realized(c["n"], lam, c["seed"])),
        {"seed": None}, realizes=True),
    "lemma-l2": Suite(10, WITH_ZERO, _lambda_grid(1),
                      lambda c, lam: binomial.verify_alt_expansion(c["n"], lam)),
    "lemma-l3": Suite(8, BASE_LAMBDAS, _lambda_grid(0),
                      lambda c, lam: binomial.verify_inverse_factorization(c["n"], lam)),
    "lemma-eq5": Suite(8, None, _degree_grid(0),
                       lambda c, lam: binomial.verify_shift_binomial(c["n"])),
    "final-remark": Suite(8, BASE_LAMBDAS, _lambda_grid(0),
                          lambda c, lam: binomial.verify_noncommuting_binomial_form(c["n"], lam)),
    "exp": Suite(8, BASE_LAMBDAS, _exp_grid,
                 lambda c, lam: _realize().verify_exponential(c["n"], lam, c.get("j")), {"j": 0},
                 realizes=True),
    "sin": Suite(8, BASE_LAMBDAS, _lambda_grid(0, nonzero=True),
                 lambda c, lam: _realize().verify_sine(c["n"], lam), realizes=True),
    "linear": Suite(8, None, _linear_grid, lambda c, lam: (
        _realize().verify_linear(c["n"], parse_scalar(c["a"]), parse_scalar(c["b"]))),
        realizes=True),
    "chvar-gauss": Suite(6, BASE_LAMBDAS, _chvar_grid, lambda c, lam: (
        _realize().verify_change_of_variables(c["n"], lam, c["j"], "gauss")), {"j": 0},
        realizes=True),
    "chvar-log": Suite(6, BASE_LAMBDAS, _chvar_grid, lambda c, lam: (
        _realize().verify_change_of_variables(c["n"], lam, c["j"], "log")), {"j": 0},
        realizes=True),
    "vector": Suite(6, BASE_LAMBDAS, _vector_grid, lambda c, lam: (
        _realize().verify_vector_item(c["item"], c["n"], lam, c["m"], c["seed"])),
        {"m": 1, "seed": None}, realizes=True),
    "eq5-matrix": Suite(6, None, _eq5_grid, lambda c, lam: (
        _realize().verify_shift_binomial_matrices(c["n"], c["dim"], c["seed"])),
        {"m": 2, "seed": None}, realizes=True),
    "third-order": Suite(5, ("1",), _third_order_grid,
                         lambda c, lam: _realize().verify_third_order(c["n"], lam),
                         realizes=True),
    "confluence": Suite(None, None, _confluence_grid, None),  # run_case reports it
}

SUITE_ORDER = tuple(SUITES)


def iter_cases(suite: str, cfg: SuiteConfig) -> list[dict]:
    """Deterministic case list for one suite."""
    entry = SUITES.get(suite)
    if entry is None:
        raise ValueError(f"unknown suite {suite!r}")
    n_max = cfg.n_max if cfg.n_max is not None else entry.n_max
    literals = () if entry.lambdas is None else (
        cfg.lambdas if cfg.lambdas is not None else entry.lambdas
    )
    lambdas = tuple(format_scalar(parse_scalar(s)) for s in literals)
    return entry.grid(suite, n_max, lambdas, cfg)


def run_case(case: dict) -> VerificationReport:
    """Execute one case; pure function of the case dict.

    The one place that names a case: its report's params are the case's
    fields but suite and skip, in order, over the clauses its runner returns.
    """
    suite = case["suite"]
    params = {k: v for k, v in case.items() if k not in ("suite", "skip")}
    if "skip" in case:
        return skipped_report(suite, params, case["skip"])
    if suite == "confluence":
        conf = check_confluence(cached_preset(case["preset"], 1, 2))
        return VerificationReport(
            suite, params, PASS if conf.ok else FAIL,
            f"overlaps: {conf.overlap_list}", "confluent", "0" if conf.ok else str(conf),
        )
    lam = parse_scalar(case["lambda"]) if "lambda" in case else ZERO
    return report_from_clauses(suite, params, SUITES[suite].run(case, lam))


def check_flags(suite: str, cfg: SuiteConfig) -> None:
    """Reject out-of-range flags for `suite` (or all) before any case runs.

    Under `all`, --lambda, --n-max and the SUITE_FLAGS go only to the
    suites that read them; a single named suite that does not read one
    rejects it.
    """
    names = SUITE_ORDER if suite == "all" else (suite,)
    limits = [(flag, low, "") for flag, low in FLAG_MINIMUMS.items()]
    limits += [(flag, low, f" for {name}") for name in names
               for flag, low in SUITES[name].flags.items() if low is not None]
    for flag, low, where in limits:
        value = getattr(cfg, flag)
        if value is not None and value < low:
            raise ValueError(f"--{flag.replace('_', '-')} must be >= {low}{where}, got {value}")
    if suite == "all":
        return
    if cfg.lambdas is not None and SUITES[suite].lambdas is None:
        raise ValueError(f"--lambda given, but {suite} takes no lambda")
    for flag in SUITE_FLAGS:
        if getattr(cfg, flag) is not None and flag not in SUITES[suite].flags:
            raise ValueError(f"--{flag} given, but {suite} does not read it")
    if cfg.n_max is not None and SUITES[suite].n_max is None:
        raise ValueError(f"--n-max given, but {suite} does not read it")


def worker_count(jobs: int, cases: int, cpus: int | None) -> int:
    """Pool size: --jobs capped by the CPU count and by the number of cases."""
    return min(jobs, cpus or 1, cases)


def _emit_reports(reports: list[VerificationReport], fmt: str, out) -> dict:
    counts = {"total": len(reports), "passed": 0, "failed": 0, "skipped": 0}
    for rep in reports:
        counts["passed" if rep.status == PASS else
               "failed" if rep.status == FAIL else "skipped"] += 1
        if fmt == "json":
            out.write(json.dumps(rep.to_json_obj()) + "\n")
        else:
            out.write(rep.to_text_line() + "\n")
    if fmt == "json":
        out.write(json.dumps({"summary": counts}) + "\n")
    else:
        out.write(
            "total={total} passed={passed} failed={failed} skipped={skipped}\n".format(**counts)
        )
    return counts


def _run_cases(cases: list[dict], jobs: int) -> list[VerificationReport]:
    workers = worker_count(jobs, len(cases), os.cpu_count())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # imported before the pool forks, the workers share it instead of each compiling it
        if any(map(needs_realize, cases)):
            _realize()

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_case, cases, chunksize=8))
    return [run_case(c) for c in cases]


def cmd_verify(args, out) -> int:
    suites = SUITE_ORDER if args.suite == "all" else (args.suite,)
    cfg = SuiteConfig(
        n_max=args.n_max,
        lambdas=None if args.lambdas is None else tuple(args.lambdas.split(",")),
        j=args.j, m=args.m, seed=args.seed, jobs=args.jobs,
    )
    check_flags(args.suite, cfg)
    cases = [case for suite in suites for case in iter_cases(suite, cfg)]
    if not cases:
        raise ValueError(f"{args.suite} has no cases at these flags; an empty run is no pass")
    reports = _run_cases(cases, cfg.jobs)
    counts = _emit_reports(reports, args.format, out)
    return 1 if counts["failed"] else 0


def cmd_expand(args, out) -> int:
    lam = parse_scalar(args.lambdas)
    preset_name = args.preset or "free"
    preset = make_preset(preset_name, lam, ZERO)
    names = preset.alphabet.names
    if "U" not in names or "D" not in names:
        raise ValueError(f"preset {preset_name!r} has no U/D generators to expand over")
    free_form = binomial.build_binomial(
        args.n, lam, preset.generator("U"), preset.generator("D")
    )
    normal_form = normalize(free_form, preset)
    if args.format == "json":
        out.write(json.dumps({"n": args.n, "lambda": format_scalar(lam), "preset": preset_name,
                              "free": str(free_form), "normal": str(normal_form)}) + "\n")
    else:
        out.write(f"free: {free_form}\n")
        out.write(f"normal ({preset_name}): {normal_form}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only a parse of argv needs it; `iter_cases` and `run_case` do not

    parser = argparse.ArgumentParser(
        prog="ncbinom",
        description="Exact verification of binomial-type identities for "
        "non-commuting operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    expand = sub.add_parser("expand", help="print one combination, free and normalized")
    expand.add_argument("--n", type=int, required=True)
    expand.add_argument("--lambda", dest="lambdas", default="0", metavar="SCALAR")
    expand.add_argument("--preset", choices=PRESET_NAMES, default="free")
    expand.add_argument("--format", choices=("text", "json"), default="text")
    expand.set_defaults(run=cmd_expand)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITE_ORDER + ("all",), metavar="SUITE")
    verify.add_argument("--n-max", dest="n_max", type=int)
    verify.add_argument("--lambda", dest="lambdas", metavar="LIST")
    verify.add_argument("--j", type=int)
    verify.add_argument("--m", type=int)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--jobs", type=int, default=1)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(run=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, sys.stdout)
    except ValueError as exc:  # ScalarParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
