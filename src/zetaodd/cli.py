"""Command-line front end: the ``zetaodd`` script of an installed
package, or ``python -m zetaodd.cli`` from a source tree.

Exit codes: 0 success, 1 verification failure, 2 usage error (argparse
also exits 2 on unknown commands and flags), 3 quadrature
non-convergence.  A reader that closes stdout early ends the process by
SIGPIPE, with nothing on stderr; a shell reports 141 (128 + SIGPIPE).
Inputs are bounded, so that an out-of-range value fails at once (exit
2) instead of running for hours: ``--digits`` must lie in 15..300,
``zeta --m``, ``weights --m`` and ``tau --m`` must be at most 101,
``scan --to`` at most 500, ``linform --n`` at most 50 (degree 101),
``integral --n`` at most 400, ``bernoulli --n`` and ``--l`` at most
300, and ``bernoulli --max-n`` and ``--max-l`` at most 101.  Results
go to stdout, diagnostics to stderr.  JSON output, apart from
``verify``'s check times, is deterministic for a given invocation:
fixed key order, rationals as exact ``num/den`` strings, decimals with
exactly ``--digits`` significant digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import signal
import sys
from typing import TYPE_CHECKING

from .bernoulli import gen_bernoulli, gen_bernoulli_row
from .hyperbolic import dimension_scan, linear_form, tau_row
from .weights import solve_weights

if TYPE_CHECKING:
    from .quadrature import PrecisionConfig

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


# The numeric commands import mpmath, quadrature and zeta when they run,
# so that the exact commands, and ``--help``, load none of them.

def _precision(digits: int) -> PrecisionConfig:
    from .quadrature import PrecisionConfig

    return PrecisionConfig(target_digits=digits, working_digits=digits + 20)


class UsageError(Exception):
    pass


def _decimal(value, digits: int) -> str:
    import mpmath as mp

    # mp.mpf(value) at ambient precision would silently truncate a
    # high-precision result, so convert under a wide-enough context
    with mp.workdps(digits + 10):
        return mp.nstr(mp.mpf(value), digits, strip_zeros=False)


def _write(fmt: str, payload, header: list[str], rows, lines) -> None:
    """Write one result to stdout in the chosen format: ``payload`` as
    indented JSON, ``header`` and ``rows`` as CSV, or ``lines`` as text,
    one per line."""
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        text = buf.getvalue()
    else:
        text = "".join(f"{line}\n" for line in lines)
    sys.stdout.write(text)


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
    weights = [(l, str(w)) for l, w in enumerate(wv.weights, start=1)]
    _write(
        args.format,
        {"m": wv.m, "s_m": str(wv.s_m), "weights": [w for _, w in weights]},
        ["l", "weight"],
        weights,
        [f"m = {wv.m}", f"s_m = {wv.s_m}", *(f"w_{l} = {w}" for l, w in weights)],
    )
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
    _write(
        args.format, payload, ["n", "l", "value"], entries,
        [f"B({n}, {l}) = {v}" for n, l, v in entries],
    )
    return 0


def _cmd_tau(args: argparse.Namespace) -> int:
    _require(args.m >= 3, "tau requires --m >= 3")
    _require_at_most("tau", "--m", args.m, MAX_WEIGHTS_M)
    _require_odd(args.m, "tau")
    items = [(j, str(t)) for j, t in sorted(tau_row(args.m).items())]
    _write(
        args.format,
        {"m": args.m, "taus": {str(j): t for j, t in items}},
        ["j", "tau"],
        items,
        [f"m = {args.m}", *(f"tau_{j} = {t}" for j, t in items)],
    )
    return 0


def _cmd_integral(args: argparse.Namespace) -> int:
    _require(args.n >= 1, "integral requires --n >= 1")
    _require_at_most("integral", "--n", args.n, MAX_INTEGRAL_N)
    import mpmath as mp

    from .quadrature import integral_In

    result = integral_In(args.n, _precision(args.digits))
    value = _decimal(result.value, args.digits)
    err = mp.nstr(result.error_estimate, 3)
    nodes, levels = result.nodes_used, result.levels
    _write(
        args.format,
        {"n": args.n, "digits": args.digits, "value": value, "error_estimate": err,
         "nodes": nodes, "levels": levels},
        ["n", "value", "error_estimate", "nodes", "levels"],
        [[args.n, value, err, nodes, levels]],
        [f"I_{args.n} = {value}", f"error estimate = {err}",
         f"nodes = {nodes}, levels = {levels}"],
    )
    return 0


def _cmd_zeta(args: argparse.Namespace) -> int:
    _require(args.m >= 3, "zeta requires --m >= 3")
    _require_at_most("zeta", "--m", args.m, MAX_ZETA_M)
    _require_odd(args.m, "zeta")
    import mpmath as mp

    from . import zeta

    precision = _precision(args.digits)
    if args.method == "all":
        report = zeta.zeta_report(args.m, precision)
        values = [
            (k, _decimal(getattr(report, k), args.digits))
            for k in ("reference", "via_exp_kernel", "via_asech_kernel")
        ]
        diff = mp.nstr(report.max_abs_diff, 3)
        payload = {"m": args.m, **dict(values), "max_abs_diff": diff, "pass": report.passed}
        lines = [
            f"m = {args.m}",
            *(f"{k} = {v}" for k, v in values),
            f"max_abs_diff = {diff}",
            f"pass = {str(report.passed).lower()}",
        ]
        status = 0 if report.passed else 1
    else:
        route = {
            "reference": lambda: zeta.zeta_reference(args.m, args.digits + 10),
            "exp": lambda: zeta.zeta_via_exp_kernel(args.m, precision),
            "asech": lambda: zeta.zeta_via_asech_kernel(args.m, precision),
        }[args.method]
        value = _decimal(route(), args.digits)
        values = [(args.method, value)]
        payload = {"m": args.m, "method": args.method, "value": value}
        lines = [f"zeta({args.m}) [{args.method}] = {value}"]
        status = 0
    _write(
        args.format, payload, ["m", "method", "value"],
        [[args.m, k, v] for k, v in values], lines,
    )
    return status


def _cmd_scan(args: argparse.Namespace) -> int:
    _require(args.n_max >= 1, "scan requires --to >= 1")
    _require_at_most("scan", "--to", args.n_max, MAX_SCAN_N)
    report = dimension_scan(args.n_max)
    _write(
        args.format,
        {
            "n_max": args.n_max,
            "rows": [
                {"n": r.n, "m": r.m, "tau_top": str(r.tau_value), "is_zero": r.is_zero}
                for r in report.rows
            ],
            "all_nonzero": report.all_nonzero,
            "summary": report.summary(),
        },
        ["n", "tau_numerator", "tau_denominator", "is_zero"],
        [
            [r.n, r.tau_value.numerator, r.tau_value.denominator, str(r.is_zero).lower()]
            for r in report.rows
        ],
        [*(f"n = {r.n:2d}  tau_top = {r.tau_value}" for r in report.rows), report.summary()],
    )
    return 0


def _cmd_linform(args: argparse.Namespace) -> int:
    _require(args.n >= 1, "linform requires --n >= 1")
    _require_at_most("linform", "--n", args.n, MAX_FORM_N)
    form = linear_form(args.n)
    thetas = [(k, str(t)) for k, t in enumerate(form.thetas, start=1)]
    _write(
        args.format,
        {"n": form.n, "thetas": [t for _, t in thetas], "theta_next": str(form.theta_next)},
        ["k", "theta"],
        [*thetas, ("next", str(form.theta_next))],
        [
            f"n = {form.n}",
            *(f"theta_{k} = {t}" for k, t in thetas),
            f"theta_next = {form.theta_next}",
        ],
    )
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

    # each check's line as it lands: on stdout in text, where it is the
    # output, and on stderr otherwise, so JSON and CSV stay parseable
    progress = sys.stdout if args.format == "text" else sys.stderr
    try:
        results = run_checks(ids, reporter=lambda r: print(format_result(r), file=progress))
    except ValueError as exc:  # unknown ids, raised before any check runs
        raise UsageError(str(exc)) from None
    all_ok = all(r.ok for r in results)
    _write(
        args.format,
        {
            "results": [
                {"id": r.check_id, "title": r.title, "passed": r.ok, "detail": r.note,
                 "elapsed": round(r.elapsed, 2), "budget": r.budget,
                 "within_budget": r.within_budget}
                for r in results
            ],
            "all_passed": all_ok,
        },
        ["id", "title", "passed", "elapsed_s", "detail"],
        [[r.check_id, r.title, str(r.ok).lower(), f"{r.elapsed:.2f}", r.note] for r in results],
        [f"{sum(r.ok for r in results)}/{len(results)} checks passed"],
    )
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
    except ArithmeticError as exc:
        # NonConvergenceError is an ArithmeticError, so the exact commands
        # need not import quadrature to tell it apart
        from .quadrature import NonConvergenceError

        if not isinstance(exc, NonConvergenceError):
            raise
        print(f"quadrature did not converge: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    # Python ignores SIGPIPE, so a write to a stdout that its reader has
    # closed (``zetaodd ... | head``) would raise, or be cut short and
    # dropped; restore the default action, as ``cat`` has it: the process
    # ends at that write, with nothing on stderr, and a shell reports 141
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
