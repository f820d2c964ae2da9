import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetaodd
import zetaodd.cli as cli
import zetaodd.verify as verify
from zetaodd.cli import MAX_DIGITS, MAX_INTEGRAL_N, MAX_ZETA_M, main

I1_30_DIGITS = "0.852556797635011581847042853192"
ZETA3_PREFIX = "1.2020569031595942853997381615"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestWeights:
    def test_json_golden(self, capsys):
        rc, out, _ = run(capsys, "weights", "--m", "3", "--format", "json")
        assert rc == 0
        assert json.loads(out) == {
            "m": 3,
            "s_m": "-2",
            "weights": ["1", "-3", "2"],
        }

    def test_text(self, capsys):
        rc, out, _ = run(capsys, "weights", "--m", "5")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "m = 5"
        assert lines[1] == "s_m = 24"
        assert lines[2:] == [
            "w_1 = -1",
            "w_2 = 15",
            "w_3 = -50",
            "w_4 = 60",
            "w_5 = -24",
        ]

    def test_csv(self, capsys):
        rc, out, _ = run(capsys, "weights", "--m", "3", "--format", "csv")
        assert rc == 0
        assert out == "l,weight\n1,1\n2,-3\n3,2\n"

    def test_deterministic(self, capsys):
        rc1, out1, _ = run(capsys, "weights", "--m", "7", "--format", "json")
        rc2, out2, _ = run(capsys, "weights", "--m", "7", "--format", "json")
        assert (rc1, out1) == (rc2, out2)


class TestBernoulli:
    def test_single(self, capsys):
        rc, out, _ = run(capsys, "bernoulli", "--n", "2", "--l", "3")
        assert rc == 0
        assert out == "B(2, 3) = 2\n"

    def test_single_json(self, capsys):
        rc, out, _ = run(
            capsys, "bernoulli", "--n", "4", "--l", "1", "--format", "json"
        )
        assert rc == 0
        assert json.loads(out) == {"n": 4, "l": 1, "value": "-1/30"}

    def test_rectangle_csv(self, capsys):
        rc, out, _ = run(
            capsys, "bernoulli", "--max-n", "2", "--max-l", "2", "--format", "csv"
        )
        assert rc == 0
        assert out == (
            "n,l,value\n"
            "0,1,1\n"
            "1,1,-1/2\n"
            "2,1,1/6\n"
            "0,2,1\n"
            "1,2,-1\n"
            "2,2,5/6\n"
        )

    def test_mode_flags_are_exclusive(self, capsys):
        rc, _, err = run(capsys, "bernoulli", "--n", "2")
        assert rc == 2
        assert "usage error" in err
        for argv in (
            ["--n", "2", "--l", "3", "--max-n", "4", "--max-l", "4"],
            ["--n", "3", "--l", "2", "--max-n", "5"],
            ["--max-n", "5", "--max-l", "5", "--n", "3"],
        ):
            rc, out, err = run(capsys, "bernoulli", *argv)
            assert rc == 2, argv
            assert out == ""
            assert "usage error" in err


class TestTau:
    def test_json(self, capsys):
        rc, out, _ = run(capsys, "tau", "--m", "5", "--format", "json")
        assert rc == 0
        assert json.loads(out) == {"m": 5, "taus": {"2": "-1/93", "3": "1/31"}}

    def test_even_degree_rejected(self, capsys):
        rc, _, err = run(capsys, "tau", "--m", "4")
        assert rc == 2
        assert "odd" in err


class TestIntegral:
    def test_default_digits(self, capsys):
        rc, out, _ = run(capsys, "integral", "--n", "1")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == f"I_1 = {I1_30_DIGITS}"
        mantissa = I1_30_DIGITS.partition(".")[2]
        assert len(mantissa.lstrip("0")) == 30
        assert lines[1].startswith("error estimate = ")
        assert lines[2].startswith("nodes = ")

    def test_json_fields(self, capsys):
        rc, out, _ = run(capsys, "integral", "--n", "2", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["n"] == 2
        assert payload["digits"] == 30
        assert payload["value"].startswith("0.61418313915610699755114334408")
        assert payload["nodes"] > 0
        assert payload["levels"] >= 2

    def test_more_digits(self, capsys):
        rc, out, _ = run(capsys, "integral", "--n", "1", "--digits", "40")
        assert rc == 0
        value = out.splitlines()[0].partition(" = ")[2]
        assert value == "0.8525567976350115818470428531923337461160"

    def test_domain(self, capsys):
        rc, _, err = run(capsys, "integral", "--n", "0")
        assert rc == 2
        assert "requires --n >= 1" in err

    def test_large_n_converges(self, capsys):
        # I_180 = 0.0660401717814... (Gauss-Legendre crosscheck)
        rc, out, _ = run(capsys, "integral", "--n", "180", "--format", "json")
        assert rc == 0
        assert json.loads(out)["value"].startswith("0.0660401717814")


class TestZeta:
    def test_all_methods_json(self, capsys):
        rc, out, _ = run(capsys, "zeta", "--m", "3", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert list(payload) == [
            "m",
            "reference",
            "via_exp_kernel",
            "via_asech_kernel",
            "max_abs_diff",
            "pass",
        ]
        assert payload["m"] == 3
        assert payload["pass"] is True
        for key in ("reference", "via_exp_kernel", "via_asech_kernel"):
            assert payload[key].startswith(ZETA3_PREFIX)

    def test_single_method(self, capsys):
        rc, out, _ = run(capsys, "zeta", "--m", "3", "--method", "reference")
        assert rc == 0
        assert out.startswith(f"zeta(3) [reference] = {ZETA3_PREFIX}")

    def test_even_degree_rejected(self, capsys):
        rc, _, err = run(capsys, "zeta", "--m", "4")
        assert rc == 2
        assert "odd" in err


class TestScan:
    def test_csv_golden(self, capsys):
        rc, out, _ = run(capsys, "scan", "--to", "3", "--format", "csv")
        assert rc == 0
        assert out == (
            "n,tau_numerator,tau_denominator,is_zero\n"
            "1,1,7,false\n"
            "2,1,31,false\n"
            "3,1,127,false\n"
        )

    def test_json_summary(self, capsys):
        rc, out, _ = run(capsys, "scan", "--to", "5", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["all_nonzero"] is True
        assert len(payload["rows"]) == 5
        assert payload["rows"][0] == {
            "n": 1, "m": 3, "tau_top": "1/7", "is_zero": False,
        }
        assert "nonzero" in payload["summary"]


class TestLinform:
    def test_json_golden(self, capsys):
        rc, out, _ = run(capsys, "linform", "--n", "2", "--format", "json")
        assert rc == 0
        assert json.loads(out) == {
            "n": 2,
            "thetas": ["7/3", "31"],
            "theta_next": "1",
        }

    def test_text(self, capsys):
        rc, out, _ = run(capsys, "linform", "--n", "1")
        assert rc == 0
        assert out == "n = 1\ntheta_1 = 7\ntheta_next = 1\n"


class TestVerify:
    def test_subset_runs_green(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "1,2,11")
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(" PASS " in line for line in lines[:3])
        assert lines[3] == "3/3 checks passed"

    def test_subset_json(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "1,2", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert [r["id"] for r in payload["results"]] == [1, 2]
        for r in payload["results"]:
            assert r["passed"] is True
            assert "elapsed" not in r  # keeps JSON deterministic

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_over_budget_reason_in_every_format(self, capsys, monkeypatch, fmt):
        # a check that passes but overruns its budget says why it failed
        check_id, title, _, func = verify.CHECKS[0]
        monkeypatch.setattr(
            verify, "CHECKS", ((check_id, title, 0.0, func), *verify.CHECKS[1:])
        )
        rc, out, _ = run(capsys, "verify", "--suite", "1", "--format", fmt)
        assert rc == 1
        assert "over budget; exact match at m = 3, 5, 7" in out

    def test_unknown_id(self, capsys):
        rc, _, err = run(capsys, "verify", "--suite", "99")
        assert rc == 2
        assert "unknown check ids" in err

    def test_malformed_suite(self, capsys):
        rc, _, err = run(capsys, "verify", "--suite", "1;2")
        assert rc == 2


class TestCommonFlags:
    def test_digits_floor(self, capsys):
        rc, _, err = run(capsys, "weights", "--m", "3", "--digits", "10")
        assert rc == 2
        assert "--digits must be >= 15" in err

    def test_unknown_command_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class _RouteStarted(Exception):
    pass


class TestInputLimits:
    """--digits, zeta --m and integral --n have upper limits.  Every
    route is replaced by one that raises, so no test here starts a
    computation."""

    @pytest.fixture(autouse=True)
    def _routes_raise(self, monkeypatch):
        def started(*args, **kwargs):
            raise _RouteStarted

        for name in (
            "integral_In", "zeta_report", "zeta_reference",
            "zeta_via_exp_kernel", "zeta_via_asech_kernel",
        ):
            monkeypatch.setattr(cli, name, started)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["zeta", "--m", "3", "--digits", str(MAX_DIGITS + 1)],
             f"--digits must be <= {MAX_DIGITS}, got {MAX_DIGITS + 1}"),
            (["integral", "--n", "1", "--digits", "100000"],
             f"--digits must be <= {MAX_DIGITS}, got 100000"),
            (["zeta", "--m", str(MAX_ZETA_M + 2)],
             f"zeta requires --m <= {MAX_ZETA_M}, got {MAX_ZETA_M + 2}"),
            (["zeta", "--m", str(10**6 + 1), "--method", "exp"],
             f"zeta requires --m <= {MAX_ZETA_M}, got {10**6 + 1}"),
            (["integral", "--n", str(MAX_INTEGRAL_N + 1)],
             f"integral requires --n <= {MAX_INTEGRAL_N}, got {MAX_INTEGRAL_N + 1}"),
            (["integral", "--n", str(10**9), "--format", "json"],
             f"integral requires --n <= {MAX_INTEGRAL_N}, got {10**9}"),
        ],
        ids=[
            "zeta-digits", "integral-digits", "zeta-m", "zeta-m-exp",
            "integral-n", "integral-n-json",
        ],
    )
    def test_above_limit_is_usage_error(self, capsys, argv, message):
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert f"usage error: {message}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["zeta", "--m", "3", "--digits", str(MAX_DIGITS)],
            ["zeta", "--m", str(MAX_ZETA_M), "--digits", "15"],
            ["zeta", "--m", str(MAX_ZETA_M), "--method", "asech"],
            ["integral", "--n", "1", "--digits", str(MAX_DIGITS)],
            ["integral", "--n", str(MAX_INTEGRAL_N), "--digits", str(MAX_DIGITS)],
            # the largest documented runs stay admitted
            ["zeta", "--m", "3", "--digits", "300"],
            ["zeta", "--m", "61", "--digits", "15"],
        ],
        ids=[
            "zeta-digits", "zeta-m", "zeta-m-asech", "integral-digits",
            "integral-n", "zeta-3-300", "zeta-61-15",
        ],
    )
    def test_at_limit_starts_the_route(self, argv):
        with pytest.raises(_RouteStarted):
            main(argv)


class TestRemovedFlags:
    """The disk-cache flags are gone; passing one fails loudly."""

    @pytest.mark.parametrize(
        "argv,flag,value",
        [
            (["bernoulli", "--max-n", "4", "--max-l", "4"], "cache", ["x"]),
            (["weights", "--m", "3"], "trust-cache", []),
        ],
        ids=["cache", "trust-cache"],
    )
    def test_cache_flags_are_usage_errors(self, capsys, argv, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--{flag}", *value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestModuleEntryPoint:
    """``python -m zetaodd.cli`` runs the CLI instead of exiting silently."""

    @staticmethod
    def run_module(*argv):
        src = str(Path(zetaodd.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        return subprocess.run(
            [sys.executable, "-m", "zetaodd.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_prints_csv_golden(self):
        proc = self.run_module("weights", "--m", "3", "--format", "csv")
        assert proc.returncode == 0
        assert proc.stdout == "l,weight\n1,1\n2,-3\n3,2\n"

    def test_usage_error_exit_code(self):
        proc = self.run_module("weights", "--m", "3", "--digits", "10")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--digits must be >= 15" in proc.stderr
