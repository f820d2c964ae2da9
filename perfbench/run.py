"""zetaodd benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from
``src/``.  Each workload is a list of jobs, and each job runs in a fresh
worker process (``worker.py``), started one at a time from this
process, the way a CLI user pays cold memo and node-table costs on
every invocation.  One pass over a workload's jobs is an iteration;
iterations repeat until ``--seconds`` is used up and timings are
reported as medians.  Every result is checked against an oracle the
package does not share (``oracles.py``).  The seed only permutes the
order of operations, never their set.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations; traced workers wrap the public
functions (``spans.py``) and the per-layer metrics are means over the
traced iterations, so the layer self times plus ``other.self_s`` add
up to ``trace.wall_s``.  ``--size small`` shrinks every workload for
the self-test.

The human-readable report goes first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

from oracles import CHECKS
from spans import INTEGRATORS, MOMENT

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
START = time.monotonic()
HARD_LIMIT_S = 170.0  # the whole run must end within 180 s
SETUP_SAMPLES = 8  # import-only workers per run, besides the real ones


# -- workloads -------------------------------------------------------------
#
# Each returns a list of jobs; a job is the list of operations one worker
# runs.  An operation is {"op", "args", "check", "expect"}: the worker sees
# only "op" and "args"; this process checks the result with CHECKS[check].

def _cli_zeta(m: int, digits: int) -> dict:
    argv = ["zeta", "--m", str(m), "--digits", str(digits), "--format", "json"]
    return {"op": "cli", "args": {"argv": argv}, "check": "cli_zeta",
            "expect": {"m": m, "digits": digits}}


def zeta_highprec(rng: random.Random, small: bool) -> list[list[dict]]:
    """Three cold CLI calls at deep precision; call order from the seed."""
    calls = [(3, 20), (5, 20)] if small else [(3, 100), (13, 100), (5, 150)]
    rng.shuffle(calls)
    return [[_cli_zeta(m, d)] for m, d in calls]


def zeta_sweep(rng: random.Random, small: bool) -> list[list[dict]]:
    """One library session: zeta_report for every odd m in 3..41 at 30
    digits, m order from the seed."""
    ms = [3, 5, 7] if small else list(range(3, 42, 2))
    rng.shuffle(ms)
    return [[
        {"op": "zeta_report", "args": {"m": m, "digits": 30}, "check": "zeta_report",
         "expect": {"m": m, "digits": 30}}
        for m in ms
    ]]


def exact_tables(rng: random.Random, small: bool) -> list[list[dict]]:
    """One cold session: dimension_scan(30), linear_form(20), and the
    weights of the deepest degree the scan reached (m = 61), read back
    for the closed-form check.  Op order from the seed."""
    n_scan, n_form = (4, 3) if small else (30, 20)
    m = 2 * n_scan + 1
    ops = [
        {"op": "dimension_scan", "args": {"n_max": n_scan}, "check": "dimension_scan",
         "expect": {"n_max": n_scan}},
        {"op": "linear_form", "args": {"n": n_form}, "check": "linear_form",
         "expect": {"n": n_form}},
        {"op": "solve_weights", "args": {"m": m}, "check": "solve_weights",
         "expect": {"m": m}},
    ]
    rng.shuffle(ops)
    return [ops]


WORKLOADS = {
    "zeta_highprec": zeta_highprec,
    "zeta_sweep": zeta_sweep,
    "exact_tables": exact_tables,
}


# -- workers -----------------------------------------------------------------

class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _worker_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env["PERFBENCH_SRC"] = src
    return env


@dataclass
class WorkerRun:
    spawned: float
    payload: dict | None
    error: str = ""

    @property
    def setup_s(self) -> float | None:
        return None if self.payload is None else self.payload["ready"] - self.spawned


def run_worker(ops: list[dict], trace: bool, env: dict) -> WorkerRun:
    job = json.dumps({"trace": trace, "ops": [{"op": o["op"], "args": o["args"]} for o in ops]})
    timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - START))
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, text=True,
    )
    try:
        out, err = proc.communicate(job, timeout=timeout)
    except subprocess.TimeoutExpired:
        return WorkerRun(spawned, None, f"worker timed out after {timeout:.0f} s")
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return WorkerRun(spawned, None, f"worker exit {proc.returncode}: {err.strip()[-400:]}")
    return WorkerRun(spawned, json.loads(lines[-1]), err)


# -- iterations --------------------------------------------------------------

@dataclass
class Iteration:
    traced: bool
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    margins: list[float] = field(default_factory=list)
    workers: list[WorkerRun] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def run_iteration(jobs: list[list[dict]], traced: bool, env: dict) -> Iteration:
    """Run the jobs one worker at a time and check every result; the wall
    time covers spawning the first worker to checking the last result."""
    it = Iteration(traced)
    start = time.monotonic()
    for ops in jobs:
        worker = run_worker(ops, traced, env)
        it.workers.append(worker)
        check_results(it, ops, worker.payload["results"] if worker.payload else None,
                      worker.error)
    it.wall_s = time.monotonic() - start
    return it


def check_results(it: Iteration, ops: list[dict], results: list[dict] | None,
                  worker_error: str = "") -> None:
    """Count every operation of one worker as attempted, and as failed on
    an exception, a missing result or a wrong value."""
    if results is None or len(results) != len(ops):
        results = [None] * len(ops)
    for op, res in zip(ops, results):
        it.attempted += 1
        if res is None or not res.get("ok"):
            it.failed += 1
            it.errors.append(f"{op['op']} {op['args']}: "
                             f"{res.get('error') if res else worker_error}")
            continue
        ok, margin, detail = CHECKS[op["check"]](res["value"], **op["expect"])
        if margin is not None:
            it.margins.append(margin)
        if not ok:
            it.failed += 1
            it.errors.append(detail)


def measure(workload, rng: random.Random, small: bool, seconds: float, trace: bool,
            env: dict) -> list[Iteration]:
    """Repeat iterations until the next one would overrun ``seconds``.

    A traced run alternates untraced and traced iterations so that the
    tracing overhead is measured under the same conditions; it always
    makes at least one of each.
    """
    pattern = [False, True] if trace else [False]
    iterations: list[Iteration] = []
    began = time.monotonic()
    while True:
        for traced in pattern:
            iterations.append(run_iteration(workload(rng, small), traced, env))
        per_round = statistics.median(i.wall_s for i in iterations) * len(pattern)
        now = time.monotonic()
        if now - began + per_round > seconds or now - START + per_round > HARD_LIMIT_S:
            return iterations


# -- metrics -----------------------------------------------------------------

INCLUSIVE = {
    "bernoulli.series_oracle": "bernoulli.oracle_s",
    "zeta.zeta_reference": "zeta.reference_s",
    "zeta.zeta_via_exp_kernel": "zeta.exp_route_s",
    "zeta.zeta_via_asech_kernel": "zeta.asech_route_s",
    "zeta.dimension_scan": "zeta.scan_s",
    "zeta.linear_form": "zeta.linform_s",
}
LAYERS = ("bernoulli", "weights", "hyperbolic", "quadrature", "zeta", "cli")


def end_to_end(iterations: list[Iteration], setups: list[float]) -> dict:
    plain = [i for i in iterations if not i.traced]
    rss = [w.payload["maxrss_kb"] for i in plain for w in i.workers if w.payload]
    return {
        "wall_s": (statistics.median(i.wall_s for i in plain), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB"),
    }


def iteration_layers(it: Iteration) -> dict[str, float]:
    """Per-layer sums over one traced iteration's spans."""
    out: dict[str, float] = defaultdict(float)
    for worker in it.workers:
        if worker.payload is None:
            continue
        out["cpu_s"] += worker.payload["cpu_s"]
        spans = worker.payload.get("spans", [])
        covered: dict[int, float] = defaultdict(float)
        names: dict[int, tuple[str, int]] = {}
        for sid, parent, name, start, end, *_ in spans:
            covered[parent] += end - start
            names[sid] = (name, parent)
        for sid, parent, name, start, end, integrand_s, integrand_evals, extra in spans:
            layer = name.partition(".")[0]
            out[f"{layer}.self_s"] += end - start - covered[sid] - integrand_s
            out[f"{layer}.calls"] += 1
            out["quadrature.integrand_s"] += integrand_s
            out["quadrature.integrand_evals"] += integrand_evals
            if name in INCLUSIVE and not _nested_in_same(names, parent, name):
                out[INCLUSIVE[name]] += end - start
            if name in INTEGRATORS and extra:
                out["quadrature.evals"] += extra[0]
                out["quadrature.levels"] += extra[1]
                out["quadrature.eval_digits_max"] = max(out["quadrature.eval_digits_max"], extra[2])
            elif name == MOMENT and extra:
                out["quadrature.In_calls"] += 1
                out["quadrature.In_hits"] += extra[0]
    return out


def _nested_in_same(names: dict, parent: int, name: str) -> bool:
    while parent:
        pname, parent = names.get(parent, ("", 0))
        if pname == name:
            return True
    return False


def per_layer(iterations: list[Iteration]) -> dict:
    traced = [i for i in iterations if i.traced]
    plain = [i for i in iterations if not i.traced]
    sums: dict[str, float] = defaultdict(float)
    digits_max = 0.0
    for it in traced:
        layers = iteration_layers(it)
        digits_max = max(digits_max, layers.pop("quadrature.eval_digits_max", 0.0))
        for key, value in layers.items():
            sums[key] += value
    mean = {k: v / len(traced) for k, v in sums.items()}
    wall = statistics.fmean(i.wall_s for i in traced)
    self_keys = [f"{layer}.self_s" for layer in LAYERS] + ["quadrature.integrand_s"]
    margins = [m for i in iterations for m in i.margins]
    in_calls = mean.get("quadrature.In_calls", 0.0)
    metrics = {f"{layer}.self_s": (mean.get(f"{layer}.self_s", 0.0), "s") for layer in LAYERS}
    metrics.update({f"{layer}.calls": (mean.get(f"{layer}.calls", 0.0), "count")
                    for layer in ("bernoulli", "weights", "hyperbolic", "quadrature")})
    metrics.update({
        "bernoulli.oracle_s": (mean.get("bernoulli.oracle_s", 0.0), "s"),
        "quadrature.evals": (mean.get("quadrature.evals", 0.0), "count"),
        "quadrature.levels": (mean.get("quadrature.levels", 0.0), "count"),
        "quadrature.eval_digits_max": (digits_max, "digits"),
        "quadrature.integrand_s": (mean.get("quadrature.integrand_s", 0.0), "s"),
        "quadrature.integrand_evals": (mean.get("quadrature.integrand_evals", 0.0), "count"),
        "quadrature.In_calls": (in_calls, "count"),
        "quadrature.In_hit_ratio": (
            mean.get("quadrature.In_hits", 0.0) / in_calls if in_calls else 0.0, "ratio"),
        "zeta.min_margin_digits": (min(margins) if margins else 0.0, "digits"),
        "cpu_s": (mean.get("cpu_s", 0.0), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_ratio": (
            statistics.median(i.wall_s for i in traced)
            / statistics.median(i.wall_s for i in plain), "ratio"),
        "other.self_s": (wall - sum(mean.get(k, 0.0) for k in self_keys), "s"),
    })
    for name, key in INCLUSIVE.items():
        metrics[key] = (mean.get(key, 0.0), "s")
    return metrics


# -- entry point -------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full")
    return p.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "zetaodd", "__init__.py")):
        raise BenchError("no src/zetaodd here: run from the root of a zetaodd checkout")
    env = _worker_env(src)
    rng = random.Random(args.seed)
    small = args.size == "small"
    workload = WORKLOADS[args.workload]

    setups = []
    for _ in range(0 if args.trace else SETUP_SAMPLES):
        probe = run_worker([], False, env)
        if probe.payload is None:
            raise BenchError(f"cannot start a worker: {probe.error}")
        setups.append(probe.setup_s)

    iterations = measure(workload, rng, small, args.seconds, bool(args.trace), env)
    if not any(w.payload for i in iterations for w in i.workers):
        raise BenchError(f"no worker produced a result: {iterations[0].workers[0].error}")
    setups += [w.setup_s for i in iterations if not i.traced for w in i.workers if w.payload]
    attempted = sum(i.attempted for i in iterations)
    failed = sum(i.failed for i in iterations)
    metrics = per_layer(iterations) if args.trace else end_to_end(iterations, setups)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(iterations)} iterations, {attempted} operations, {failed} failed")
    for err in sorted({e for i in iterations for e in i.errors}):
        print(f"  FAILED {err}")
    missing = {m for i in iterations for w in i.workers if w.payload
               for m in w.payload.get("missing", [])}
    if missing:
        print(f"  not in the package, 0 calls: {', '.join(sorted(missing))}")
    print(f"  {'error_rate':28s} {failed / attempted:.4g} ({failed}/{attempted})")
    for traced in sorted({i.traced for i in iterations}):
        walls = " ".join(f"{i.wall_s:.3f}" for i in iterations if i.traced == traced)
        print(f"  {'traced' if traced else 'untraced'} iteration walls (s): {walls}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    # turn SIGTERM into SystemExit so a running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
