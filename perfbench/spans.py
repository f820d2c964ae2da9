"""Span recording around zetaodd's public functions, for traced runs.

Spans are kept in memory as flat lists

    [span_id, parent_id, name, start, end, integrand_s, integrand_evals, extra]

and shipped to ``run.py`` when the worker ends.  Times come from
``time.monotonic``.  Integrand calls made by the quadrature layer are
too many to keep one by one, so each is folded into the quadrature span
that called it: ``integrand_s`` is their time minus the time of any
span nested inside them, ``integrand_evals`` their count.  Spans that
start inside an integrand take that quadrature span as their parent.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

_now = time.monotonic

# Layer -> attributes of ``zetaodd.<layer>`` to wrap.  The helpers of
# ``exact.py`` are folded into their callers and ``verify`` is not
# driven, so neither has an entry.  ``asech_stable`` runs inside the
# asech integrand, so its time is integrand time, not a span.
TARGETS = {
    "bernoulli": (
        "gen_bernoulli",
        "gen_bernoulli_poly",
        "series_oracle",
        "GenBernoulliTable.value",
        "GenBernoulliTable.ensure",
    ),
    "weights": (
        "coeff_b",
        "d_coefficients",
        "s_constant",
        "triangular_system",
        "solve_weights",
    ),
    "hyperbolic": (
        "q_coeff",
        "partial_fraction_residual",
        "tau",
        "tau_top",
        "tau_row",
    ),
    "quadrature": (
        "integrate_01_singular",
        "integrate_0inf_decaying",
        "integral_In",
        "integral_In_crosscheck",
    ),
    "zeta": (
        "zeta_reference",
        "zeta3_exp_integral",
        "zeta_via_exp_kernel",
        "zeta_via_asech_kernel",
        "zeta_report",
        "linear_form",
        "linear_form_residual",
        "dimension_scan",
        "in_sequence_report",
    ),
    "cli": ("main",),
}

INTEGRATORS = ("quadrature.integrate_01_singular", "quadrature.integrate_0inf_decaying")
MOMENT = "quadrature.integral_In"


class Recorder:
    """Installs span wrappers and collects the spans they record."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._next_id = 1
        self._moments_seen: dict[int, object] = {}  # holds results so ids stay unique

    def install(self) -> None:
        """Wrap every target at every ``zetaodd`` module attribute that
        holds the same object.  A target that does not exist is listed in
        ``missing`` and simply records no calls."""
        replacements: dict[int, tuple] = {}
        for layer, attrs in TARGETS.items():
            module = sys.modules.get(f"zetaodd.{layer}")
            for attr in attrs:
                owner_path, _, leaf = attr.rpartition(".")
                owner = module
                if owner is not None and owner_path:
                    owner = getattr(owner, owner_path, None)
                fn = getattr(owner, leaf, None)
                name = f"{layer}.{attr}"
                if not callable(fn):
                    self.missing.append(name)
                    continue
                wrapped = self._span(name, fn)
                if owner_path:
                    setattr(owner, leaf, wrapped)  # a class attribute lives in one place
                else:
                    replacements[id(fn)] = (fn, wrapped)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.partition(".")[0] != "zetaodd":
                continue
            for key, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])

    def _span(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        observe = None
        if name in INTEGRATORS:
            observe = self._integrate_observer(fn)
        elif name == MOMENT:
            observe = self._moment_observer

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0, 0.0, 0]  # id, time covered by children, integrand_s, evals
            stack.append(frame)
            extra = None
            start = _now()
            try:
                if observe is None:
                    result = fn(*args, **kwargs)
                else:
                    result, extra = observe(frame, fn, args, kwargs)
            finally:
                end = _now()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append([sid, parent, name, start, end, frame[2], frame[3], extra])
            return result

        return functools.update_wrapper(wrapper, fn)

    def _integrand(self, owner: list, f):
        stack = self._stack

        def integrand(*args):
            frame = [owner[0], 0.0, 0.0, 0]
            stack.append(frame)
            start = _now()
            try:
                return f(*args)
            finally:
                end = _now()
                stack.pop()
                owner[2] += end - start - frame[1]
                owner[3] += 1

        return integrand

    def _integrate_observer(self, fn):
        """Wrap the integrand argument; read nodes, levels, eval digits."""
        try:
            default_cfg = inspect.signature(fn).parameters["cfg"].default
        except (KeyError, TypeError, ValueError):
            default_cfg = None

        def observe(frame, fn, args, kwargs):
            if args:
                args = (self._integrand(frame, args[0]),) + tuple(args[1:])
            elif "f" in kwargs:
                kwargs = dict(kwargs, f=self._integrand(frame, kwargs["f"]))
            result = fn(*args, **kwargs)
            cfg = args[1] if len(args) > 1 else kwargs.get("cfg", default_cfg)
            extra = [
                int(getattr(result, "nodes_used", 0) or 0),
                int(getattr(result, "levels", 0) or 0),
                int(getattr(cfg, "eval_digits", 0) or 0),
            ]
            return result, extra

        return observe

    def _moment_observer(self, frame, fn, args, kwargs):
        """A call is a hit when it returns an object seen before."""
        result = fn(*args, **kwargs)
        hit = id(result) in self._moments_seen
        self._moments_seen.setdefault(id(result), result)
        return result, [int(hit)]
