"""Command-line front end: the ``zetaodd`` script of an installed
package, or ``python -m zetaodd.cli`` from a source tree.

Exit codes: 0 success, 1 verification failure, 2 usage error (argparse
also exits 2 on unknown commands and flags), 3 quadrature
non-convergence.  Inputs are bounded, so that an out-of-range value
fails at once (exit 2) instead of running for hours: ``--digits`` must
lie in 15..300, ``zeta --m`` must be at most 101 and ``integral --n``
at most 400.  On a 2.1 GHz core ``zeta --m 101 --digits 15`` takes
about 9 s cold, while the exact weights alone take about 40 s at
m = 151.  Results go to stdout, diagnostics to stderr.  JSON output is
deterministic for a given invocation: fixed key order,
rationals as exact ``num/den`` strings, decimals with exactly
``--digits`` significant digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

import mpmath as mp

from .bernoulli import gen_bernoulli
from .exact import format_rational
from .hyperbolic import tau_row
from .quadrature import NonConvergenceError, PrecisionConfig, integral_In
from .verify import CHECKS, format_result, run_checks
from .weights import solve_weights
from .zeta import (
    dimension_scan,
    linear_form,
    zeta_reference,
    zeta_report,
    zeta_via_asech_kernel,
    zeta_via_exp_kernel,
)

__all__ = ["RunConfig", "main", "entrypoint"]

MIN_DIGITS = 15
MAX_DIGITS = 300
MAX_ZETA_M = 101
MAX_INTEGRAL_N = 400


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: one command plus its parameters."""

    command: str
    digits: int = 30
    format: str = "text"
    m: int | None = None
    n: int | None = None
    l: int | None = None
    max_n: int | None = None
    max_l: int | None = None
    n_max: int | None = None
    method: str = "all"
    suite: str = "all"

    def precision(self) -> PrecisionConfig:
        return PrecisionConfig(
            target_digits=self.digits, working_digits=self.digits + 20
        )


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


def _require_odd(m: int, command: str) -> None:
    _require(m % 2 == 1, f"{command} requires odd m, got {m}")


# -- command handlers ------------------------------------------------------

def _cmd_weights(cfg: RunConfig) -> int:
    _require(cfg.m is not None and cfg.m >= 1, "weights requires --m >= 1")
    wv = solve_weights(cfg.m)
    if cfg.format == "json":
        _emit_json(
            {
                "m": wv.m,
                "s_m": format_rational(wv.s_m),
                "weights": [format_rational(w) for w in wv.weights],
            }
        )
    elif cfg.format == "csv":
        _emit_csv(
            ["l", "weight"],
            [[l, format_rational(w)] for l, w in enumerate(wv.weights, start=1)],
        )
    else:
        _emit(f"m = {wv.m}")
        _emit(f"s_m = {format_rational(wv.s_m)}")
        for l, w in enumerate(wv.weights, start=1):
            _emit(f"w_{l} = {format_rational(w)}")
    return 0


def _cmd_bernoulli(cfg: RunConfig) -> int:
    single = cfg.n is not None or cfg.l is not None
    rect = cfg.max_n is not None or cfg.max_l is not None
    flags = (cfg.n, cfg.l) if single else (cfg.max_n, cfg.max_l)
    _require(
        single != rect and None not in flags,
        "bernoulli requires either --n and --l, or --max-n and --max-l",
    )
    if single:
        _require(cfg.n >= 0, "--n must be >= 0")
        _require(cfg.l >= 1, "--l must be >= 1")
        value = gen_bernoulli(cfg.n, cfg.l)
        if cfg.format == "json":
            _emit_json({"n": cfg.n, "l": cfg.l, "value": format_rational(value)})
        elif cfg.format == "csv":
            _emit_csv(["n", "l", "value"], [[cfg.n, cfg.l, format_rational(value)]])
        else:
            _emit(f"B({cfg.n}, {cfg.l}) = {format_rational(value)}")
        return 0
    _require(cfg.max_n >= 0, "--max-n must be >= 0")
    _require(cfg.max_l >= 1, "--max-l must be >= 1")
    entries = [
        (n, l, gen_bernoulli(n, l))
        for l in range(1, cfg.max_l + 1)
        for n in range(cfg.max_n + 1)
    ]
    if cfg.format == "json":
        _emit_json(
            {
                "max_n": cfg.max_n,
                "max_l": cfg.max_l,
                "entries": [
                    {"n": n, "l": l, "value": format_rational(v)}
                    for n, l, v in entries
                ],
            }
        )
    elif cfg.format == "csv":
        _emit_csv(
            ["n", "l", "value"],
            [[n, l, format_rational(v)] for n, l, v in entries],
        )
    else:
        for n, l, v in entries:
            _emit(f"B({n}, {l}) = {format_rational(v)}")
    return 0


def _cmd_tau(cfg: RunConfig) -> int:
    _require(cfg.m is not None and cfg.m >= 3, "tau requires --m >= 3")
    _require_odd(cfg.m, "tau")
    row = tau_row(cfg.m)
    items = sorted(row.taus.items())
    if cfg.format == "json":
        _emit_json(
            {"m": row.m, "taus": {str(j): format_rational(t) for j, t in items}}
        )
    elif cfg.format == "csv":
        _emit_csv(["j", "tau"], [[j, format_rational(t)] for j, t in items])
    else:
        _emit(f"m = {row.m}")
        for j, t in items:
            _emit(f"tau_{j} = {format_rational(t)}")
    return 0


def _cmd_integral(cfg: RunConfig) -> int:
    _require(cfg.n is not None and cfg.n >= 1, "integral requires --n >= 1")
    _require(
        cfg.n <= MAX_INTEGRAL_N,
        f"integral requires --n <= {MAX_INTEGRAL_N}, got {cfg.n}",
    )
    result = integral_In(cfg.n, cfg.precision())
    value = _decimal(result.value, cfg.digits)
    err = mp.nstr(result.error_estimate, 3)
    if cfg.format == "json":
        _emit_json(
            {
                "n": cfg.n,
                "digits": cfg.digits,
                "value": value,
                "error_estimate": err,
                "nodes": result.nodes_used,
                "levels": result.levels,
            }
        )
    elif cfg.format == "csv":
        _emit_csv(
            ["n", "value", "error_estimate", "nodes", "levels"],
            [[cfg.n, value, err, result.nodes_used, result.levels]],
        )
    else:
        _emit(f"I_{cfg.n} = {value}")
        _emit(f"error estimate = {err}")
        _emit(f"nodes = {result.nodes_used}, levels = {result.levels}")
    return 0


def _cmd_zeta(cfg: RunConfig) -> int:
    _require(cfg.m is not None and cfg.m >= 3, "zeta requires --m >= 3")
    _require(cfg.m <= MAX_ZETA_M, f"zeta requires --m <= {MAX_ZETA_M}, got {cfg.m}")
    _require_odd(cfg.m, "zeta")
    precision = cfg.precision()
    if cfg.method == "all":
        report = zeta_report(cfg.m, precision)
        fields = [
            ("reference", report.reference),
            ("via_exp_kernel", report.via_exp_kernel),
            ("via_asech_kernel", report.via_asech_kernel),
        ]
        if cfg.format == "json":
            payload = {"m": report.m}
            payload.update((k, _decimal(v, cfg.digits)) for k, v in fields)
            payload["max_abs_diff"] = mp.nstr(report.max_abs_diff, 3)
            payload["pass"] = report.passed
            _emit_json(payload)
        elif cfg.format == "csv":
            _emit_csv(
                ["m", "method", "value"],
                [[report.m, k, _decimal(v, cfg.digits)] for k, v in fields],
            )
        else:
            _emit(f"m = {report.m}")
            for k, v in fields:
                _emit(f"{k} = {_decimal(v, cfg.digits)}")
            _emit(f"max_abs_diff = {mp.nstr(report.max_abs_diff, 3)}")
            _emit(f"pass = {str(report.passed).lower()}")
        return 0 if report.passed else 1
    route = {
        "reference": lambda: zeta_reference(cfg.m, cfg.digits + 10),
        "exp": lambda: zeta_via_exp_kernel(cfg.m, precision),
        "asech": lambda: zeta_via_asech_kernel(cfg.m, precision),
    }[cfg.method]
    value = _decimal(route(), cfg.digits)
    if cfg.format == "json":
        _emit_json({"m": cfg.m, "method": cfg.method, "value": value})
    elif cfg.format == "csv":
        _emit_csv(["m", "method", "value"], [[cfg.m, cfg.method, value]])
    else:
        _emit(f"zeta({cfg.m}) [{cfg.method}] = {value}")
    return 0


def _cmd_scan(cfg: RunConfig) -> int:
    _require(cfg.n_max is not None and cfg.n_max >= 1, "scan requires --to >= 1")
    report = dimension_scan(cfg.n_max)
    if cfg.format == "json":
        _emit_json(
            {
                "n_max": cfg.n_max,
                "rows": [
                    {
                        "n": r.n,
                        "m": r.m,
                        "tau_top": format_rational(r.tau_value),
                        "is_zero": r.is_zero,
                    }
                    for r in report.rows
                ],
                "all_nonzero": report.all_nonzero,
                "summary": report.summary(),
            }
        )
    elif cfg.format == "csv":
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
            _emit(f"n = {r.n:2d}  tau_top = {format_rational(r.tau_value)}")
        _emit(report.summary())
    return 0


def _cmd_linform(cfg: RunConfig) -> int:
    _require(cfg.n is not None and cfg.n >= 1, "linform requires --n >= 1")
    form = linear_form(cfg.n)
    if cfg.format == "json":
        _emit_json(
            {
                "n": form.n,
                "thetas": [format_rational(t) for t in form.thetas],
                "theta_next": format_rational(form.theta_next),
            }
        )
    elif cfg.format == "csv":
        rows = [[k, format_rational(t)] for k, t in enumerate(form.thetas, start=1)]
        rows.append(["next", format_rational(form.theta_next)])
        _emit_csv(["k", "theta"], rows)
    else:
        _emit(f"n = {form.n}")
        for k, t in enumerate(form.thetas, start=1):
            _emit(f"theta_{k} = {format_rational(t)}")
        _emit(f"theta_next = {format_rational(form.theta_next)}")
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    if cfg.suite == "all":
        ids = None
    else:
        try:
            ids = [int(tok) for tok in cfg.suite.split(",")]
        except ValueError:
            raise UsageError(
                f"--suite must be 'all' or comma-separated check ids, got {cfg.suite!r}"
            ) from None
        known = {c[0] for c in CHECKS}
        bad = sorted(set(ids) - known)
        if bad:
            raise UsageError(f"unknown check ids: {bad}")

    def report(result):
        if cfg.format == "text":
            _emit(format_result(result))
        else:
            print(format_result(result), file=sys.stderr)

    results = run_checks(ids, reporter=report)
    all_ok = all(r.ok for r in results)
    if cfg.format == "json":
        _emit_json(
            {
                "results": [
                    {
                        "id": r.check_id,
                        "title": r.title,
                        "passed": r.ok,
                        "detail": r.note,
                    }
                    for r in results
                ],
                "all_passed": all_ok,
            }
        )
    elif cfg.format == "csv":
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
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("bernoulli", parents=[common], help="generalized Bernoulli numbers")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--max-n", dest="max_n", type=int, default=None)
    p.add_argument("--max-l", dest="max_l", type=int, default=None)

    p = sub.add_parser("tau", parents=[common], help="tau coefficients of odd degree m")
    p.add_argument("--m", type=int, required=True)

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
    p.add_argument("--to", dest="n_max", type=int, default=20)

    p = sub.add_parser("linform", parents=[common], help="exact telescoping linear form")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify", parents=[common], help="run the acceptance checks")
    p.add_argument("--suite", default="all", help="'all' or comma-separated check ids")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.digits < MIN_DIGITS:
        raise UsageError(f"--digits must be >= {MIN_DIGITS}, got {args.digits}")
    if args.digits > MAX_DIGITS:
        raise UsageError(f"--digits must be <= {MAX_DIGITS}, got {args.digits}")
    return RunConfig(
        command=args.command,
        digits=args.digits,
        format=args.format,
        m=getattr(args, "m", None),
        n=getattr(args, "n", None),
        l=getattr(args, "l", None),
        max_n=getattr(args, "max_n", None),
        max_l=getattr(args, "max_l", None),
        n_max=getattr(args, "n_max", None),
        method=getattr(args, "method", "all"),
        suite=getattr(args, "suite", "all"),
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _HANDLERS[cfg.command](cfg)
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
