"""Command-line front end: the ``zetaodd`` script of an installed
package, or ``python -m zetaodd.cli`` from a source tree.

Exit codes: 0 success, 1 verification failure, 2 usage error (argparse
also exits 2 on unknown commands and flags), 3 quadrature
non-convergence.  Inputs are bounded, so that an out-of-range value
fails at once (exit 2) instead of running for hours: ``--digits`` must
lie in 15..300, ``zeta --m``, ``weights --m`` and ``tau --m`` must be at
most 101, ``scan --to`` at most 500, ``linform --n`` at most 50
(degree 101), ``integral --n`` at most 400, ``bernoulli --n`` and
``--l`` at most 300, and ``bernoulli --max-n`` and ``--max-l`` at most
101.  Results go to stdout, diagnostics to stderr.  JSON output, apart from
``verify``'s check times, is deterministic for a given invocation:
fixed key order, rationals as exact ``num/den`` strings, decimals with
exactly ``--digits`` significant digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import mpmath as mp

from .bernoulli import gen_bernoulli, gen_bernoulli_row
from .hyperbolic import tau_row
from .quadrature import NonConvergenceError, PrecisionConfig, integral_In
from .weights import solve_weights
from .zeta import (
    dimension_scan,
    linear_form,
    zeta_reference,
    zeta_report,
    zeta_via_asech_kernel,
    zeta_via_exp_kernel,
)

__all__ = ["main", "entrypoint"]

MIN_DIGITS = 15
MAX_DIGITS = 300
MAX_ZETA_M = 101
MAX_WEIGHTS_M = 101      # weights --m and tau --m
MAX_SCAN_N = 500         # scan --to
MAX_FORM_N = 50          # linform --n: degree 2n + 1 <= 101
MAX_INTEGRAL_N = 400
MAX_BERNOULLI_N = 300    # bernoulli --n and --l
MAX_BERNOULLI_GRID = 101  # bernoulli --max-n and --max-l


def _precision(digits: int) -> PrecisionConfig:
    return PrecisionConfig(target_digits=digits, working_digits=digits + 20)


class UsageError(Exception):
    pass


def _decimal(value, digits: int) -> str:
    # mp.mpf(value) at ambient precision would silently truncate a
    # high-precision result, so convert under a wide-enough context
    with mp.workdps(digits + 10):
        return mp.nstr(mp.mpf(value), digits, strip_zeros=False)


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, indent=2))


def _emit_csv(header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue())


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _require_at_most(command: str, flag: str, value: int, limit: int) -> None:
    _require(value <= limit, f"{command} requires {flag} <= {limit}, got {value}")


def _require_odd(m: int, command: str) -> None:
    _require(m % 2 == 1, f"{command} requires odd m, got {m}")


# -- command handlers ------------------------------------------------------

def _cmd_weights(args: argparse.Namespace) -> int:
    _require(args.m >= 1, "weights requires --m >= 1")
    _require_at_most("weights", "--m", args.m, MAX_WEIGHTS_M)
    wv = solve_weights(args.m)
    if args.format == "json":
        _emit_json(
            {
                "m": wv.m,
                "s_m": str(wv.s_m),
                "weights": [str(w) for w in wv.weights],
            }
        )
    elif args.format == "csv":
        _emit_csv(
            ["l", "weight"],
            [[l, str(w)] for l, w in enumerate(wv.weights, start=1)],
        )
    else:
        _emit(f"m = {wv.m}")
        _emit(f"s_m = {wv.s_m}")
        for l, w in enumerate(wv.weights, start=1):
            _emit(f"w_{l} = {w}")
    return 0


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    single = args.n is not None or args.l is not None
    rect = args.max_n is not None or args.max_l is not None
    flags = (args.n, args.l) if single else (args.max_n, args.max_l)
    _require(
        single != rect and None not in flags,
        "bernoulli requires either --n and --l, or --max-n and --max-l",
    )
    if single:
        _require(args.n >= 0, "--n must be >= 0")
        _require(args.l >= 1, "--l must be >= 1")
        _require_at_most("bernoulli", "--n", args.n, MAX_BERNOULLI_N)
        _require_at_most("bernoulli", "--l", args.l, MAX_BERNOULLI_N)
        entries = [(args.n, args.l, str(gen_bernoulli(args.n, args.l)))]
        payload = {"n": args.n, "l": args.l, "value": entries[0][2]}
    else:
        _require(args.max_n >= 0, "--max-n must be >= 0")
        _require(args.max_l >= 1, "--max-l must be >= 1")
        _require_at_most("bernoulli", "--max-n", args.max_n, MAX_BERNOULLI_GRID)
        _require_at_most("bernoulli", "--max-l", args.max_l, MAX_BERNOULLI_GRID)
        # computed row by row, so each degree's l-independent terms are
        # built once; printed column by column
        orders = range(1, args.max_l + 1)
        rows = [gen_bernoulli_row(n, orders) for n in range(args.max_n + 1)]
        entries = [(n, l, str(rows[n][l - 1])) for l in orders for n in range(args.max_n + 1)]
        payload = {
            "max_n": args.max_n,
            "max_l": args.max_l,
            "entries": [{"n": n, "l": l, "value": v} for n, l, v in entries],
        }
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        _emit_csv(["n", "l", "value"], entries)
    else:
        for n, l, v in entries:
            _emit(f"B({n}, {l}) = {v}")
    return 0


def _cmd_tau(args: argparse.Namespace) -> int:
    _require(args.m >= 3, "tau requires --m >= 3")
    _require_at_most("tau", "--m", args.m, MAX_WEIGHTS_M)
    _require_odd(args.m, "tau")
    items = sorted(tau_row(args.m).items())
    if args.format == "json":
        _emit_json(
            {"m": args.m, "taus": {str(j): str(t) for j, t in items}}
        )
    elif args.format == "csv":
        _emit_csv(["j", "tau"], [[j, str(t)] for j, t in items])
    else:
        _emit(f"m = {args.m}")
        for j, t in items:
            _emit(f"tau_{j} = {t}")
    return 0


def _cmd_integral(args: argparse.Namespace) -> int:
    _require(args.n >= 1, "integral requires --n >= 1")
    _require_at_most("integral", "--n", args.n, MAX_INTEGRAL_N)
    result = integral_In(args.n, _precision(args.digits))
    value = _decimal(result.value, args.digits)
    err = mp.nstr(result.error_estimate, 3)
    if args.format == "json":
        _emit_json(
            {
                "n": args.n,
                "digits": args.digits,
                "value": value,
                "error_estimate": err,
                "nodes": result.nodes_used,
                "levels": result.levels,
            }
        )
    elif args.format == "csv":
        _emit_csv(
            ["n", "value", "error_estimate", "nodes", "levels"],
            [[args.n, value, err, result.nodes_used, result.levels]],
        )
    else:
        _emit(f"I_{args.n} = {value}")
        _emit(f"error estimate = {err}")
        _emit(f"nodes = {result.nodes_used}, levels = {result.levels}")
    return 0


def _cmd_zeta(args: argparse.Namespace) -> int:
    _require(args.m >= 3, "zeta requires --m >= 3")
    _require_at_most("zeta", "--m", args.m, MAX_ZETA_M)
    _require_odd(args.m, "zeta")
    precision = _precision(args.digits)
    if args.method == "all":
        report = zeta_report(args.m, precision)
        fields = [
            ("reference", report.reference),
            ("via_exp_kernel", report.via_exp_kernel),
            ("via_asech_kernel", report.via_asech_kernel),
        ]
        if args.format == "json":
            payload = {"m": report.m}
            payload.update((k, _decimal(v, args.digits)) for k, v in fields)
            payload["max_abs_diff"] = mp.nstr(report.max_abs_diff, 3)
            payload["pass"] = report.passed
            _emit_json(payload)
        elif args.format == "csv":
            _emit_csv(
                ["m", "method", "value"],
                [[report.m, k, _decimal(v, args.digits)] for k, v in fields],
            )
        else:
            _emit(f"m = {report.m}")
            for k, v in fields:
                _emit(f"{k} = {_decimal(v, args.digits)}")
            _emit(f"max_abs_diff = {mp.nstr(report.max_abs_diff, 3)}")
            _emit(f"pass = {str(report.passed).lower()}")
        return 0 if report.passed else 1
    route = {
        "reference": lambda: zeta_reference(args.m, args.digits + 10),
        "exp": lambda: zeta_via_exp_kernel(args.m, precision),
        "asech": lambda: zeta_via_asech_kernel(args.m, precision),
    }[args.method]
    value = _decimal(route(), args.digits)
    if args.format == "json":
        _emit_json({"m": args.m, "method": args.method, "value": value})
    elif args.format == "csv":
        _emit_csv(["m", "method", "value"], [[args.m, args.method, value]])
    else:
        _emit(f"zeta({args.m}) [{args.method}] = {value}")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    _require(args.n_max >= 1, "scan requires --to >= 1")
    _require_at_most("scan", "--to", args.n_max, MAX_SCAN_N)
    report = dimension_scan(args.n_max)
    if args.format == "json":
        _emit_json(
            {
                "n_max": args.n_max,
                "rows": [
                    {
                        "n": r.n,
                        "m": r.m,
                        "tau_top": str(r.tau_value),
                        "is_zero": r.is_zero,
                    }
                    for r in report.rows
                ],
                "all_nonzero": report.all_nonzero,
                "summary": report.summary(),
            }
        )
    elif args.format == "csv":
        _emit_csv(
            ["n", "tau_numerator", "tau_denominator", "is_zero"],
            [
                [r.n, r.tau_value.numerator, r.tau_value.denominator,
                 str(r.is_zero).lower()]
                for r in report.rows
            ],
        )
    else:
        for r in report.rows:
            _emit(f"n = {r.n:2d}  tau_top = {r.tau_value}")
        _emit(report.summary())
    return 0


def _cmd_linform(args: argparse.Namespace) -> int:
    _require(args.n >= 1, "linform requires --n >= 1")
    _require_at_most("linform", "--n", args.n, MAX_FORM_N)
    form = linear_form(args.n)
    if args.format == "json":
        _emit_json(
            {
                "n": form.n,
                "thetas": [str(t) for t in form.thetas],
                "theta_next": str(form.theta_next),
            }
        )
    elif args.format == "csv":
        rows = [[k, str(t)] for k, t in enumerate(form.thetas, start=1)]
        rows.append(["next", str(form.theta_next)])
        _emit_csv(["k", "theta"], rows)
    else:
        _emit(f"n = {form.n}")
        for k, t in enumerate(form.thetas, start=1):
            _emit(f"theta_{k} = {t}")
        _emit(f"theta_next = {form.theta_next}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # imported here so that no other command compiles or loads the checks
    from .verify import format_result, run_checks

    if args.suite == "all":
        ids = None
    else:
        try:
            ids = [int(tok) for tok in args.suite.split(",")]
        except ValueError:
            raise UsageError(
                f"--suite must be 'all' or comma-separated check ids, got {args.suite!r}"
            ) from None

    def report(result):
        if args.format == "text":
            _emit(format_result(result))
        else:
            print(format_result(result), file=sys.stderr)

    try:
        results = run_checks(ids, reporter=report)
    except ValueError as exc:  # unknown ids, raised before any check runs
        raise UsageError(str(exc)) from None
    all_ok = all(r.ok for r in results)
    if args.format == "json":
        _emit_json(
            {
                "results": [
                    {
                        "id": r.check_id,
                        "title": r.title,
                        "passed": r.ok,
                        "detail": r.note,
                        "elapsed": round(r.elapsed, 2),
                        "budget": r.budget,
                        "within_budget": r.within_budget,
                    }
                    for r in results
                ],
                "all_passed": all_ok,
            }
        )
    elif args.format == "csv":
        _emit_csv(
            ["id", "title", "passed", "elapsed_s", "detail"],
            [
                [r.check_id, r.title, str(r.ok).lower(), f"{r.elapsed:.2f}", r.note]
                for r in results
            ],
        )
    else:
        _emit(f"{sum(r.ok for r in results)}/{len(results)} checks passed")
    return 0 if all_ok else 1


_HANDLERS = {
    "weights": _cmd_weights,
    "bernoulli": _cmd_bernoulli,
    "tau": _cmd_tau,
    "integral": _cmd_integral,
    "zeta": _cmd_zeta,
    "scan": _cmd_scan,
    "linform": _cmd_linform,
    "verify": _cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetaodd",
        description=(
            "Exact weight systems, tau coefficients, and high-precision "
            "integral representations of zeta at odd integers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--digits",
        type=int,
        default=30,
        help=f"significant digits ({MIN_DIGITS}..{MAX_DIGITS})",
    )
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="output format"
    )

    p = sub.add_parser("weights", parents=[common], help="solve the degree-m weight system")
    p.add_argument("--m", type=int, required=True, help=f"degree, 1..{MAX_WEIGHTS_M}")

    p = sub.add_parser("bernoulli", parents=[common], help="generalized Bernoulli numbers")
    p.add_argument("--n", type=int, default=None, help=f"degree, 0..{MAX_BERNOULLI_N}")
    p.add_argument("--l", type=int, default=None, help=f"order, 1..{MAX_BERNOULLI_N}")
    p.add_argument(
        "--max-n", dest="max_n", type=int, default=None,
        help=f"grid of degrees 0..max-n, at most {MAX_BERNOULLI_GRID}",
    )
    p.add_argument(
        "--max-l", dest="max_l", type=int, default=None,
        help=f"grid of orders 1..max-l, at most {MAX_BERNOULLI_GRID}",
    )

    p = sub.add_parser("tau", parents=[common], help="tau coefficients of odd degree m")
    p.add_argument("--m", type=int, required=True, help=f"odd degree, 3..{MAX_WEIGHTS_M}")

    p = sub.add_parser("integral", parents=[common], help="singular moment I_n")
    p.add_argument("--n", type=int, required=True, help=f"moment index, 1..{MAX_INTEGRAL_N}")

    p = sub.add_parser("zeta", parents=[common], help="zeta(m) for odd m, three routes")
    p.add_argument("--m", type=int, required=True, help=f"odd degree, 3..{MAX_ZETA_M}")
    p.add_argument(
        "--method",
        choices=("reference", "exp", "asech", "all"),
        default="all",
    )

    p = sub.add_parser("scan", parents=[common], help="top tau coefficients for n = 1..n_max")
    p.add_argument(
        "--to", dest="n_max", type=int, default=20, help=f"n_max, 1..{MAX_SCAN_N}"
    )

    p = sub.add_parser("linform", parents=[common], help="exact telescoping linear form")
    p.add_argument("--n", type=int, required=True, help=f"moment index, 1..{MAX_FORM_N}")

    p = sub.add_parser("verify", parents=[common], help="run the acceptance checks")
    p.add_argument("--suite", default="all", help="'all' or comma-separated check ids")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _require(
            args.digits >= MIN_DIGITS, f"--digits must be >= {MIN_DIGITS}, got {args.digits}"
        )
        _require(
            args.digits <= MAX_DIGITS, f"--digits must be <= {MAX_DIGITS}, got {args.digits}"
        )
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"quadrature did not converge: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
