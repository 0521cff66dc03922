"""Command-line front end.

Subcommands:
  exact      exact reduced-count tables (unconditional or conditioned)
  simulate   conditioned Monte Carlo batches
  limits     limit-law pmf and gf values on a grid
  compare    exact vs limit vs Monte Carlo comparison reports
  selftest   closed-form and cross-implementation consistency checks

Exit codes: 0 success, 1 user error (message on stderr), among them an
allocation the machine refuses, 2 internal invariant violation (full
diagnostic dump on stderr).
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .errors import GWReducedError
from .harness import (
    CONFIG_KEYS,
    ExperimentConfig,
    format_report_summary,
    parse_config_file,
    run_experiment,
)
from .limits import LimitQuery, Regime
from .offspring import law_from_name
from .output import write_output
from .reduced import (
    EPSILON_DEFAULT,
    bounded_survival_prob,
    conditional_reduced_pmf,
    joint_reduced_bounded,
    mrca_distance_cdf,
    reduced_pmf,
)
from .series import extinction_prob, iterates, pmf_Zn
from .simulate import MAX_REPLICATES_DEFAULT, run_conditioned_batch


def _add_common(
    parser: argparse.ArgumentParser, out_help: str = "output path (default: stdout)"
) -> None:
    parser.add_argument("--out", help=out_help)
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwreduced",
        description="exact and simulated reduced critical branching processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact reduced-count table")
    p.add_argument("--law", default="linear_fractional")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--bound", type=int, help="condition on 0 < Z(n) <= bound")
    p.add_argument("--epsilon", type=float, default=EPSILON_DEFAULT)
    _add_common(p)
    p.set_defaults(handler=_cmd_exact)

    p = sub.add_parser("simulate", help="conditioned Monte Carlo batch")
    p.add_argument("--law", default="linear_fractional")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--m", default="", help="comma-separated query generations")
    p.add_argument("--replicates", type=int, default=1000, help="accepted target")
    p.add_argument("--max-replicates", type=int, default=MAX_REPLICATES_DEFAULT)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("limits", help="limit-law values on a grid")
    p.add_argument(
        "--regime",
        choices=tuple(r.value for r in Regime),
        default=Regime.SMALL_PHI.value,
    )
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--a", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(handler=_cmd_limits)

    p = sub.add_parser("compare", help="exact vs limit vs Monte Carlo report")
    p.add_argument("--config", help="flat key=value config file")
    for key in CONFIG_KEYS:
        flag = "--n" if key == "n_grid" else "--" + key.replace("_", "-")
        p.add_argument(flag, dest=key, help=f"config key {key}, read as in the file")
    _add_common(p, "report path (the report is written only here; the summary "
                   "always goes to stdout)")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("selftest", help="closed-form consistency checks")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def _serialised(result, fmt: str):
    """The JSON dict or the CSV rows of a table, batch or report."""
    return result.to_json_dict() if fmt == "json" else result.csv_rows()


def _cmd_exact(args) -> int:
    law = law_from_name(args.law)
    if args.bound is not None:
        table = conditional_reduced_pmf(
            law, args.m, args.n, args.bound, epsilon=args.epsilon
        )
    else:
        table = reduced_pmf(law, args.m, args.n, epsilon=args.epsilon)
    write_output(_serialised(table, args.format), args.out)
    return 0


def _cmd_simulate(args) -> int:
    law = law_from_name(args.law)
    try:
        queries = [int(tok) for tok in args.m.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(
            f"--m expects comma-separated generations, got {args.m!r}"
        ) from None
    batch = run_conditioned_batch(
        law,
        args.n,
        args.bound,
        queries,
        target_accepted=args.replicates,
        max_replicates=args.max_replicates,
        seed=args.seed,
        workers=args.workers,
    )
    write_output(_serialised(batch, args.format), args.out)
    return 0


def _cmd_limits(args) -> int:
    table = LimitQuery(args.regime, x=args.x, t=args.t, a=args.a).table()
    write_output(_serialised(table, args.format), args.out)
    return 0


def _cmd_compare(args) -> int:
    raw = parse_config_file(args.config) if args.config else {}
    flags = vars(args)
    raw.update({key: flags[key] for key in CONFIG_KEYS if flags[key] is not None})
    config = ExperimentConfig.from_mapping(raw)
    report = run_experiment(config)
    if args.out:
        write_output(_serialised(report, args.format), args.out)
    print(format_report_summary(report))
    return 0 if all(v["passed"] for v in report.verdicts) else 1


def _selftest_checks():
    lf = law_from_name("linear_fractional")

    def check_extinction():
        for n in range(0, 101, 10):
            want = n / (n + 1)
            got = extinction_prob(lf, n)
            assert abs(got - want) < 1e-12, (n, got, want)

    def check_population_pmf():
        n, kmax = 50, 120
        series = pmf_Zn(lf, n, kmax)
        base = n / (n + 1)
        for k in range(1, kmax + 1):
            want = (1.0 / (n + 1) ** 2) * base ** (k - 1)
            assert abs(series.coeffs[k] - want) < 1e-12, k

    def check_derivatives():
        # row 1 of f_n(q + (1-q)s) is (1-q) f_n'(q), at q = q_r
        for r in (1, 5, 20):
            q = r / (r + 1)
            for n, row in enumerate(iterates(lf, 60, 1, q, 1 - q)):
                want = (r + 1) / (n + r + 1) ** 2
                assert abs(row[1] - want) < 1e-12 * want, (n, r)

    def check_reduced_rows():
        # P(Z(m,n) = j) = (1-q)^j m^(j-1) / (m+1-m q)^(j+1), q = q_{n-m}
        m, n = 30, 40
        q = (n - m) / (n - m + 1)
        table = reduced_pmf(lf, m, n)
        for j, got in enumerate(table.pmf, start=1):
            want = (1 - q) ** j * m ** (j - 1) / (m + 1 - m * q) ** (j + 1)
            assert abs(got - want) < 1e-12, j

    def check_jet_closed_form():
        # row k of f_n(q + (1-q)s) is (1-q)^k f_n^(k)(q)/k!
        n = 5
        for q in (0.3, 2.0 / 3.0, 0.9):
            for row in iterates(lf, n, 6, q, 1 - q):
                pass
            for k in range(1, 7):
                want = (1 - q) ** k * n ** (k - 1) / (n + 1 - n * q) ** (k + 1)
                assert abs(row[k] - want) < 1e-9 * want, (q, k)

    def check_duality():
        for x in (0.25, 1.0, 4.0):
            q = LimitQuery(regime=Regime.SMALL_PHI, x=x)
            pmf = q.pmf_values()
            for s in (0.2, 0.5, 0.8):
                series = sum(s**j * p for j, p in enumerate(pmf, start=1))
                assert abs(q.gf(s) - series) < 1e-10, (x, s)

    def check_limit_mass():
        queries = [LimitQuery(Regime.SMALL_PHI, x=x) for x in (1e-3, 1.0, 4.0)]
        queries += [LimitQuery(Regime.LINEAR_BAND, t=t, a=1.0) for t in (0.5, 0.999)]
        for q in queries:
            assert abs(q.pmf_values().sum() - 1.0) < 1e-12, q

    def check_decomposition():
        for (m, n, C) in ((2, 6, 2), (3, 9, 3), (5, 12, 4)):
            total = sum(joint_reduced_bounded(lf, m, n, C).pmf)
            want = bounded_survival_prob(lf, n, C)
            assert abs(total - want) < 1e-10, (m, n, C)

    def check_mrca():
        # (u+1)/(n+1) (1 - (u/(u+1))^C) / (1 - (n/(n+1))^C)
        n, C = 10, 5
        cdf = mrca_distance_cdf(lf, n, C, range(0, n + 1))
        for u in range(n + 1):
            near = 1 - (u / (u + 1)) ** C
            want = (u + 1) / (n + 1) * near / (1 - (n / (n + 1)) ** C)
            assert abs(cdf[u] - want) < 1e-12 * want, u

    return [
        ("extinction_closed_form", check_extinction),
        ("population_pmf_closed_form", check_population_pmf),
        ("iterate_derivative_closed_form", check_derivatives),
        ("reduced_row_closed_form", check_reduced_rows),
        ("jet_closed_form", check_jet_closed_form),
        ("limit_gf_pmf_duality", check_duality),
        ("limit_pmf_unit_mass", check_limit_mass),
        ("joint_mass_decomposition", check_decomposition),
        ("mrca_cdf_closed_form", check_mrca),
    ]


def _cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    if failures:
        print(f"{failures} selftest check(s) failed")
        return 2
    print("all selftest checks passed")
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse handles --help (code 0) and usage errors (code 2);
        # usage problems are user errors here.
        return 0 if not exc.code else 1
    try:
        return args.handler(args)
    except (GWReducedError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        print("internal invariant violation; diagnostic dump follows", file=sys.stderr)
        traceback.print_exc()
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
