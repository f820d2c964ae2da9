"""The release gate: every check in the verification suite, one test each.

Each test runs a single check through the same runner the CLI uses and
prints its one-line result, so `pytest -v tests/test_acceptance.py -s`
reads as the full acceptance report.  A check fails this gate if its
assertion fails OR it overruns its time budget (checks with no budget
only need to pass).
"""

import math
from dataclasses import replace

import pytest

import zetaodd.verify as verify
from zetaodd.verify import CHECKS, format_result, run_checks

_IDS = [c[0] for c in CHECKS]
_TITLES = {c[0]: c[1] for c in CHECKS}


@pytest.mark.parametrize(
    "check_id",
    _IDS,
    ids=[f"{i:02d}-{_TITLES[i].replace(' ', '-')}" for i in _IDS],
)
def test_acceptance_check(check_id):
    results = run_checks([check_id])
    assert len(results) == 1
    result = results[0]
    print(format_result(result))
    assert result.passed, f"check {check_id} failed: {result.detail}"
    assert result.within_budget, (
        f"check {check_id} passed but overran its budget: "
        f"{result.elapsed:.2f} s > {result.budget} s"
    )


def test_suite_is_complete():
    # ids must be 1..11 with no gaps so the CLI surface stays stable
    assert _IDS == list(range(1, 12))


_ORIGINAL = {
    name: getattr(verify, name)
    for name in (
        "back_substitute", "solve_weights", "q_coeff", "tau_row", "tau_top",
        "linear_form", "exp_kernel_polynomial",
    )
}


def _perturbed_weights(system, m):
    wv = _ORIGINAL["back_substitute"](system, m)
    if m != 17:
        return wv
    weights = list(wv.weights)
    weights[5] += 1
    return replace(wv, weights=tuple(weights))


def _perturbed_closed_form(m):
    # an even degree above 61, which check 11 once left to the closed form
    wv = _ORIGINAL["solve_weights"](m)
    if m != 84:
        return wv
    weights = list(wv.weights)
    weights[40] *= 2
    return replace(wv, weights=tuple(weights))


def _perturbed_q(j, l):
    return _ORIGINAL["q_coeff"](j, l) + (1 if (j, l) == (30, 101) else 0)


def _off_by_one_q(j, l):
    # C(l-j, j) in place of C(l-j, j-1): a plausible misreading of the
    # closed form, which check 11 must catch against the recursion
    return (-1) ** (j - 1) * math.comb(l - j, j)


def _perturbed_tau_row(m):
    row = _ORIGINAL["tau_row"](m)
    if m == 87:
        row[30] += 1
    return row


def _perturbed_linear_form(n):
    form = _ORIGINAL["linear_form"](n)
    if n != 37:
        return form
    thetas = list(form.thetas)
    thetas[11] *= 2
    return replace(form, thetas=tuple(thetas))


def _perturbed_tau_top(n):
    return _ORIGINAL["tau_top"](n) * (2 if n == 13 else 1)


def _perturbed_kernel_polynomial(m):
    coeffs = _ORIGINAL["exp_kernel_polynomial"](m)
    if m != 23:
        return coeffs
    return coeffs[:7] + (coeffs[7] + 1,) + coeffs[8:]


@pytest.mark.parametrize(
    "name,fake,where",
    [
        ("back_substitute", _perturbed_weights, "at m=17"),
        ("solve_weights", _perturbed_closed_form, "at m=84"),
        ("q_coeff", _perturbed_q, "q(30,101)"),
        ("q_coeff", _off_by_one_q, "q(1,1)"),
        ("tau_row", _perturbed_tau_row, "tau_row(87)"),
        ("tau_top", _perturbed_tau_top, "tau_top(13)"),
        ("linear_form", _perturbed_linear_form, "linear_form(37)"),
        ("exp_kernel_polynomial", _perturbed_kernel_polynomial, "at m=23, q^7"),
    ],
    ids=["solve_weights", "solve_weights_closed_form", "q_coeff", "q_closed_form_off_by_one", "tau_row", "tau_top",
         "linear_form", "exp_kernel_polynomial"],
)
def test_check_11_catches_one_wrong_entry(monkeypatch, name, fake, where):
    monkeypatch.setattr(verify, name, fake)
    (result,) = run_checks([11])
    print(format_result(result))
    assert not result.passed
    assert where in result.detail


def test_check_3_catches_one_wrong_entry(monkeypatch):
    real = verify.gen_bernoulli_row

    def wrong(n, orders):
        orders = list(orders)
        return [b + (1 if (n, l) == (30, 37) else 0) for l, b in zip(orders, real(n, orders))]

    monkeypatch.setattr(verify, "gen_bernoulli_row", wrong)
    (result,) = run_checks([3])
    print(format_result(result))
    assert not result.passed
    assert "B(30, 37)" in result.detail


def test_full_run_summary():
    results = run_checks()
    assert len(results) == len(CHECKS)
    assert all(r.ok for r in results)
