"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It runs every workload of
``BENCHMARK.json`` at its smallest size, with tracing off and on, and
checks that each run is correct and emits exactly the named metrics,
and that the traced layer self times plus ``other.self_s`` add up to
``trace.wall_s`` with none of them negative.  It then feeds real results, each perturbed, to the
checker and requires every perturbation to count as a failure.  Last,
it runs the benchmark in a directory without ``src/`` and requires it
to fail without printing a result.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

import mpmath as mp

import run

HERE = os.path.dirname(os.path.abspath(__file__))
SELF_KEYS = [f"{layer}.self_s" for layer in run.LAYERS] + [
    "quadrature.integrand_s",
    "other.self_s",
]


def bench(*args: str, cwd: str | None = None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=180)


def check_metric_names(spec: dict) -> None:
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", workload["name"], "--seed", "0", "--seconds", "1",
                         "--trace", str(trace), "--size", "small")
            if proc.returncode != 0:
                raise AssertionError(f"{workload['name']} trace {trace}: {proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            name = f"{workload['name']} trace {trace}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, name
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, name
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in metrics.items()}
            assert got == want, f"{name}: metrics {sorted(got)} != {sorted(want)}"
            if trace:
                total = sum(metrics[k]["value"] for k in SELF_KEYS)
                wall = metrics["trace.wall_s"]["value"]
                assert abs(total - wall) <= 1e-9 * max(1.0, wall), f"{name}: {total} != {wall}"
                # spans that overlapped or were counted twice would show here
                for k in SELF_KEYS:
                    assert metrics[k]["value"] >= 0, f"{name}: {k} < 0"
            print(f"ok  {name}: {len(metrics)} metrics")


def _bump_decimal(text: str, digits: int) -> str:
    with mp.workdps(digits + 20):
        return mp.nstr(mp.mpf(text) * (1 + mp.mpf(10) ** (3 - digits)), digits + 10)


def _bump_fraction(text: str) -> str:
    x = Fraction(text) + 1
    return f"{x.numerator}/{x.denominator}"


def perturbations(op: dict, value: dict):
    """Yield (label, perturbed value) pairs for one real result."""
    kind = op["check"]
    if kind == "cli_zeta":
        digits = op["expect"]["digits"]
        payload = json.loads(value["stdout"])
        yield "exit code", dict(value, exit=1)
        yield "pass false", dict(value, stdout=json.dumps(dict(payload, **{"pass": False})))
        for key in ("reference", "via_exp_kernel", "via_asech_kernel"):
            wrong = dict(payload, **{key: _bump_decimal(payload[key], digits)})
            yield f"cli {key}", dict(value, stdout=json.dumps(wrong))
    elif kind == "zeta_report":
        digits = op["expect"]["digits"]
        yield "passed false", dict(value, passed=False)
        for key in ("reference", "via_exp_kernel", "via_asech_kernel"):
            yield key, dict(value, **{key: _bump_decimal(value[key], digits)})
    elif kind == "dimension_scan":
        rows = [list(r) for r in value["rows"]]
        rows[-1][2] = _bump_fraction(rows[-1][2])
        yield "scan tau", dict(value, rows=rows)
    elif kind == "linear_form":
        thetas = list(value["thetas"])
        thetas[0] = _bump_fraction(thetas[0])
        yield "theta_1", dict(value, thetas=thetas)
        yield "theta_next", dict(value, theta_next=_bump_fraction(value["theta_next"]))
    elif kind == "solve_weights":
        weights = list(value["weights"])
        weights[-1] = _bump_fraction(weights[-1])
        yield "w_m", dict(value, weights=weights)


def check_perturbed_results_fail() -> None:
    env = run._worker_env(os.path.abspath("src"))
    for name, workload in run.WORKLOADS.items():
        for ops in workload(random.Random(0), True):
            worker = run.run_worker(ops, False, env)
            assert worker.payload is not None, worker.error
            results = worker.payload["results"]
            clean = run.Iteration(False)
            run.check_results(clean, ops, results)
            assert clean.failed == 0, clean.errors
            for i, (op, res) in enumerate(zip(ops, results)):
                for label, wrong in perturbations(op, res["value"]):
                    it = run.Iteration(False)
                    bad = list(results)
                    bad[i] = dict(res, value=wrong)
                    run.check_results(it, ops, bad)
                    assert it.failed > 0, f"{name}: perturbed {label} passed the checker"
                    print(f"ok  {name}: perturbed {label} -> error_rate {it.failed / it.attempted:.3g}")
            it = run.Iteration(False)
            run.check_results(it, ops, None, "worker died")
            assert it.failed == len(ops)


def check_refuses_without_source() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=".") as tmp:
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", tmp)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact_tables", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=tmp, timeout=180,
        )
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print(f"ok  no src/: exit {proc.returncode}, nothing printed")


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    check_metric_names(spec)
    check_perturbed_results_fail()
    check_refuses_without_source()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
