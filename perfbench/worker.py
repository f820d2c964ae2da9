"""One benchmark worker: a fresh interpreter that imports zetaodd, runs
the operations it reads as JSON on stdin, and prints one JSON line.

The first thing it does is import zetaodd and its CLI module; the
monotonic time right after that import is reported as ``ready`` so
``run.py`` can measure set-up from spawn to import.  Operations go
through the package's public functions and ``zetaodd.cli.main``, looked
up at call time so that span wrappers installed for a traced run are
the ones called.

Run it only from ``perfbench/run.py``; it expects PYTHONPATH to name
the checkout's ``src`` directory.
"""

import time

import zetaodd
import zetaodd.cli

READY = time.monotonic()

import contextlib  # noqa: E402  (after the timed import on purpose)
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

import mpmath as mp  # noqa: E402


def _rational(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _precision(digits: int):
    # the CLI's own choice: 20 guard digits above the target
    return zetaodd.PrecisionConfig(target_digits=digits, working_digits=digits + 20)


def op_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = zetaodd.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return {"exit": code, "stdout": out.getvalue()}


def op_zeta_report(m, digits):
    report = zetaodd.zeta_report(m, _precision(digits))
    with mp.workdps(digits + 30):
        values = {
            k: mp.nstr(getattr(report, k), digits + 10, strip_zeros=False)
            for k in ("reference", "via_exp_kernel", "via_asech_kernel")
        }
    return {"m": report.m, "passed": bool(report.passed), **values}


def op_dimension_scan(n_max):
    scan = zetaodd.dimension_scan(n_max)
    return {"rows": [[r.n, r.m, _rational(r.tau_value), bool(r.is_zero)] for r in scan.rows]}


def op_linear_form(n):
    form = zetaodd.linear_form(n)
    return {
        "n": form.n,
        "thetas": [_rational(t) for t in form.thetas],
        "theta_next": _rational(form.theta_next),
    }


def op_solve_weights(m):
    wv = zetaodd.solve_weights(m)
    return {"m": wv.m, "weights": [_rational(w) for w in wv.weights]}


OPS = {
    "cli": op_cli,
    "zeta_report": op_zeta_report,
    "dimension_scan": op_dimension_scan,
    "linear_form": op_linear_form,
    "solve_weights": op_solve_weights,
}


def main() -> int:
    src = os.path.realpath(os.environ.get("PERFBENCH_SRC", ""))
    here = os.path.realpath(os.path.dirname(zetaodd.__file__))
    if not src or os.path.dirname(here) != src:
        print(f"zetaodd imported from {here}, expected it under {src}", file=sys.stderr)
        return 2
    job = json.load(sys.stdin)
    recorder = None
    if job.get("trace"):
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    results = []
    for op in job["ops"]:
        try:
            results.append({"ok": True, "value": OPS[op["op"]](**op["args"])})
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
    usage = resource.getrusage(resource.RUSAGE_SELF)
    payload = {
        "ready": READY,
        "results": results,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }
    if recorder is not None:
        payload["spans"] = recorder.spans
        payload["missing"] = recorder.missing
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
