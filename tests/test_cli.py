import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import zetaodd
import zetaodd.bernoulli as bernoulli
import zetaodd.cli as cli
import zetaodd.quadrature as quadrature
import zetaodd.verify as verify
import zetaodd.zeta as zeta_mod
from zetaodd.cli import (
    MAX_BERNOULLI_GRID,
    MAX_BERNOULLI_N,
    MAX_DIGITS,
    MAX_FORM_N,
    MAX_INTEGRAL_N,
    MAX_SCAN_N,
    MAX_WEIGHTS_M,
    MAX_ZETA_M,
    main,
)

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

    def test_grid_at_the_limit_builds_each_row_once(self, capsys, monkeypatch):
        # each degree's l-independent terms are built once, not once per
        # order
        built = []
        real = bernoulli._row_terms

        def counted(n):
            built.append(n)
            return real(n)

        monkeypatch.setattr(bernoulli, "_row_terms", counted)
        rc, _, _ = run(
            capsys, "bernoulli", "--max-n", str(MAX_BERNOULLI_GRID), "--max-l", "2"
        )
        assert rc == 0
        assert built == list(range(MAX_BERNOULLI_GRID + 1))

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


class TestNonConvergence:
    @pytest.mark.parametrize(
        "argv",
        [["integral", "--n", "1"], ["zeta", "--m", "3", "--method", "asech"]],
        ids=["integral", "zeta-asech"],
    )
    def test_exit_3(self, capsys, monkeypatch, argv):
        # with two levels allowed no integral meets the stopping rule: exit
        # 3, the reason on stderr, nothing on stdout
        monkeypatch.setattr(quadrature, "_MAX_LEVELS", 2)
        rc, out, err = run(capsys, *argv)
        assert rc == 3
        assert out == ""
        assert err.startswith("quadrature did not converge: ")


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


_ZETA3_100 = (
    "1.20205690315959428539973816151144999076498629234049888179227155534183820578631"
    "3090186455873609335258"
)
_ZETA5_150 = (
    "1.03692775514336992633136548645703416805708091950191281197419267790380358978628"
    "148456004310655713333637962034146655660904280096177915597084183511072180"
)
_I5_100 = (
    "0.39308841630677500524602726986164908783554440883522734582532339628723771726422"
    "64358744046284987619351"
)

_I400_300 = (
    "0.044306731517281785854105234747612498689163965348495330890364999350972399347967"
    "19979310096194062359150207102643301350146398272819131343962919131618997774243277"
    "74095658214617096544916348115905158852630911313777097775481325798865712002678404"
    "970040474460063057017642866267088398022842008401343533862816705"
)
_I200_100 = (
    "0.062652657223949437694165789539483279553785650592578582437249238823439753328177"
    "09780645179216693915802"
)


class TestNumericGoldens:
    """Byte-for-byte output of the quadrature commands, so a change to
    how the level sums are formed cannot move a printed digit, an error
    estimate or a node count unnoticed."""

    @pytest.mark.parametrize(
        "argv, want",
        [
            (
                ["zeta", "--m", "3", "--digits", "100", "--format", "json"],
                '{\n  "m": 3,\n'
                f'  "reference": "{_ZETA3_100}",\n'
                f'  "via_exp_kernel": "{_ZETA3_100}",\n'
                f'  "via_asech_kernel": "{_ZETA3_100}",\n'
                '  "max_abs_diff": "1.03e-103",\n  "pass": true\n}\n',
            ),
            (
                ["zeta", "--m", "41", "--format", "json"],
                '{\n  "m": 41,\n'
                '  "reference": "1.00000000000045474737830421540",\n'
                '  "via_exp_kernel": "1.00000000000045474737830421540",\n'
                '  "via_asech_kernel": "1.00000000000045474737830421540",\n'
                '  "max_abs_diff": "1.19e-32",\n  "pass": true\n}\n',
            ),
            (
                ["zeta", "--m", "61", "--digits", "15", "--method", "exp"],
                "zeta(61) [exp] = 1.00000000000000\n",
            ),
            (
                ["zeta", "--m", "5", "--digits", "150", "--method", "asech", "--format", "csv"],
                f"m,method,value\n5,asech,{_ZETA5_150}\n",
            ),
            (
                ["integral", "--n", "5", "--digits", "100", "--format", "json"],
                '{\n  "n": 5,\n  "digits": 100,\n'
                f'  "value": "{_I5_100}",\n'
                '  "error_estimate": "2.86e-102",\n  "nodes": 731,\n  "levels": 7\n}\n',
            ),
            (
                ["integral", "--n", "400", "--digits", "300", "--format", "json"],
                '{\n  "n": 400,\n  "digits": 300,\n'
                f'  "value": "{_I400_300}",\n'
                '  "error_estimate": "7.02e-302",\n  "nodes": 3477,\n  "levels": 9\n}\n',
            ),
            (
                ["integral", "--n", "1", "--digits", "15"],
                "I_1 = 0.852556797635012\nerror estimate = 1.16e-17\nnodes = 127, levels = 5\n",
            ),
            (
                ["integral", "--n", "200", "--digits", "100", "--format", "csv"],
                f"n,value,error_estimate,nodes,levels\n200,{_I200_100},2.27e-103,1463,8\n",
            ),
        ],
        ids=["zeta3-100-json", "zeta41-json", "zeta61-exp-15", "zeta5-asech-150-csv",
             "I5-100-json", "I400-300-json", "I1-15-text", "I200-100-csv"],
    )
    def test_output(self, capsys, argv, want):
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        assert out == want


# sha256 of stdout in text, json and csv for commands that exit 0.
# Recorded before the three formats shared one writer; any change to how
# a handler assembles its output must leave every byte where it was.
_FORMAT_SHA256 = {
    "weights --m 5": (
        "a99da9b6def94571ef2ee138d85b1c20a81fae5ca48a8b7d5da501f7f1c5a335",
        "a135d378f6aaf27206e11b9b52d5e173608e9d53c5453ee5fdc793b05099f328",
        "826aaffbaec9c470eb1fee178519219c390cc156132ff43ffbd86670a2950cb4",
    ),
    "tau --m 9": (
        "ccc6aa5fa14dfe632c0f0fff65bc0be63d12f33eb3a420ac74694acf561e7a88",
        "bedd3de4459b8fdddddcdbe981e449606a250e61c9f7e63040862888d38dbb9f",
        "5bad7d834fe369704baab320c58b4d656a26ca1f87fb85fc71d84987803bbfcd",
    ),
    "linform --n 3": (
        "59a18ad98a41e1b899b47b5fc049e69239e54c9e3034c87575f3142d95a79966",
        "a1f16b220030b01cfef2611c84b627a7aa975f8865221184a4b0d208f5defc09",
        "33b084891fd6a3be3630dc3cde51f908f31af834d2b68456fa0828efd1e4301a",
    ),
    "scan --to 5": (
        "b71023e1ac3ee881c458a7e9b3001d3fdd293ebb99a523215b223ecf953e98d4",
        "e83402aa9d3ad1adc53e44d44a454ea421c2ff55a38d0c161abc082a097bbb47",
        "e1231cc208c0fca90f178960f2835477c3338a3d81c789a9240337decc83dc25",
    ),
    "bernoulli --n 4 --l 2": (
        "728fb792ea6e780a04f9242e1dc88bed19a1c0b4809fc1adda614f6840fd0683",
        "beef6ce17267f83bce0a5d06a32ca8d5176c39d9887b7fa34f8c3af6770236cd",
        "5f8615d5701abcc3ba3d68ab788d61225bfa26d49c8df2c331a04a837546f88a",
    ),
    "bernoulli --max-n 3 --max-l 3": (
        "9157f11ee9b8df52230637d30c27a9faf670472d587f04af945ae16fd77b2e7b",
        "f519562675f3342f127106a903355686864d0e8fcc93276fb0d894a45f1d278c",
        "7c24bfd70ac398d192d5e1ac67573fc40718a50ae8cb50e9ac917e897a15e078",
    ),
    "integral --n 2 --digits 20": (
        "18a2c280200319760f9f44e8a0f5bb4c20cb52695b6499288e21e06df3823aec",
        "8456dbd3e6df622902ed5f30de74351edff01f992eac5caea028473ec3366d82",
        "738c1e27792d9e28e01573ab2adcfcc8e83ad2a89c544d5ef09685addd775efc",
    ),
    "zeta --m 5 --digits 20": (
        "10cd7de22dd11c6585096aec87da8f20a5c11fe266048b3001e9e0ea431ff2c2",
        "ca0f0e766802a0e3a304a9b705b8ae312de23b7f89d552b88830610f640b23a9",
        "451158e6cdea2c9c97353a004d7312f3548e174817122ae0bb5e9c16b84ac5d3",
    ),
    "zeta --m 7 --method exp --digits 20": (
        "73a8083787102ea0ba152dfc7635e0a85be67fe84361af66226cf6726e176ae3",
        "c55a1cde4a024b420526d0325477271040b1a5d6caa9be8fba65facace46305a",
        "c54b8dc8f8b09d2973dae252d874531192a6b6d779a0d92b628a06a946ab7225",
    ),
    "zeta --m 7 --method asech --digits 20": (
        "c92d51d27032ab3e2715b92ddff5fa074abb3eba527d679e7afd5f55d5faa174",
        "d043022092b5149a573c5c55fa0f3f09be4c5bec035e4da5993552792c05610e",
        "224080ce4c087acd0aab6a81fa7cabefb88b088577cbe7e57263aefa934cedb3",
    ),
    "zeta --m 3 --method reference --digits 20": (
        "2f54abe38884728036d55f0f42ea6e755afb85680dfd15298575756feb1419a5",
        "a81dadd3df07069066daa53387e51158f729e4a3a683576653f6a35631f0d1ea",
        "2bf3c92e0efe584cd06113483b38d14c0121941c015bd226743761fb678cd96c",
    ),
}


class TestFormatGoldens:
    """Every command's stdout, byte for byte, in each of the three
    formats: ``json.loads`` equality would miss indentation and key
    order."""

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("command", list(_FORMAT_SHA256))
    def test_stdout_sha256(self, capsys, command, fmt):
        rc, out, _ = run(capsys, *command.split(), "--format", fmt)
        assert rc == 0
        want = _FORMAT_SHA256[command][("text", "json", "csv").index(fmt)]
        assert hashlib.sha256(out.encode()).hexdigest() == want


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
        for r, (_, _, budget, _) in zip(payload["results"], verify.CHECKS):
            assert r["passed"] is True
            assert r["budget"] == budget
            assert r["within_budget"] is True
            assert 0 <= r["elapsed"] < budget

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
        # rejected before any check runs, so nothing reaches stdout
        rc, out, err = run(capsys, "verify", "--suite", "1,99,0")
        assert rc == 2
        assert out == ""
        assert err == "usage error: unknown check ids: [0, 99]\n"

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
    """--digits and every size argument have upper limits.  Every route
    is replaced by one that raises, so no test here starts a
    computation."""

    @pytest.fixture(autouse=True)
    def _routes_raise(self, monkeypatch):
        def started(*args, **kwargs):
            raise _RouteStarted

        # the numeric handlers read their routes from quadrature and zeta
        # when they run, the exact ones from the names cli imported
        for module, names in (
            (quadrature, ("integral_In",)),
            (zeta_mod, ("zeta_report", "zeta_reference",
                        "zeta_via_exp_kernel", "zeta_via_asech_kernel")),
            (cli, ("solve_weights", "gen_bernoulli", "gen_bernoulli_row", "tau_row",
                   "dimension_scan", "linear_form")),
        ):
            for name in names:
                monkeypatch.setattr(module, name, started)

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
            (["weights", "--m", str(MAX_WEIGHTS_M + 1)],
             f"weights requires --m <= {MAX_WEIGHTS_M}, got {MAX_WEIGHTS_M + 1}"),
            (["tau", "--m", str(MAX_WEIGHTS_M + 2)],
             f"tau requires --m <= {MAX_WEIGHTS_M}, got {MAX_WEIGHTS_M + 2}"),
            (["scan", "--to", str(MAX_SCAN_N + 1)],
             f"scan requires --to <= {MAX_SCAN_N}, got {MAX_SCAN_N + 1}"),
            (["linform", "--n", str(MAX_FORM_N + 1), "--format", "csv"],
             f"linform requires --n <= {MAX_FORM_N}, got {MAX_FORM_N + 1}"),
            (["bernoulli", "--n", str(MAX_BERNOULLI_N + 1), "--l", "1"],
             f"bernoulli requires --n <= {MAX_BERNOULLI_N}, got {MAX_BERNOULLI_N + 1}"),
            (["bernoulli", "--n", "0", "--l", str(10**6)],
             f"bernoulli requires --l <= {MAX_BERNOULLI_N}, got {10**6}"),
            (["bernoulli", "--max-n", str(MAX_BERNOULLI_GRID + 1), "--max-l", "1"],
             f"bernoulli requires --max-n <= {MAX_BERNOULLI_GRID}, "
             f"got {MAX_BERNOULLI_GRID + 1}"),
            (["bernoulli", "--max-n", "0", "--max-l", str(MAX_BERNOULLI_GRID + 1)],
             f"bernoulli requires --max-l <= {MAX_BERNOULLI_GRID}, "
             f"got {MAX_BERNOULLI_GRID + 1}"),
        ],
        ids=[
            "zeta-digits", "integral-digits", "zeta-m", "zeta-m-exp",
            "integral-n", "integral-n-json", "weights-m", "tau-m", "scan-to",
            "linform-n", "bernoulli-n", "bernoulli-l", "bernoulli-max-n",
            "bernoulli-max-l",
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
            ["weights", "--m", str(MAX_WEIGHTS_M)],
            ["tau", "--m", str(MAX_WEIGHTS_M)],
            ["scan", "--to", str(MAX_SCAN_N)],
            ["linform", "--n", str(MAX_FORM_N)],
            ["bernoulli", "--n", str(MAX_BERNOULLI_N), "--l", str(MAX_BERNOULLI_N)],
            ["bernoulli", "--max-n", str(MAX_BERNOULLI_GRID),
             "--max-l", str(MAX_BERNOULLI_GRID)],
            # the largest documented runs stay admitted
            ["zeta", "--m", "3", "--digits", "300"],
            ["zeta", "--m", "61", "--digits", "15"],
        ],
        ids=[
            "zeta-digits", "zeta-m", "zeta-m-asech", "integral-digits",
            "integral-n", "weights-m", "tau-m", "scan-to", "linform-n",
            "bernoulli-n-l", "bernoulli-grid", "zeta-3-300", "zeta-61-15",
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
    def module_env():
        src = str(Path(zetaodd.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def run_module(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "zetaodd.cli", *argv],
            capture_output=True, text=True, env=self.module_env(), timeout=120,
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

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
    @pytest.mark.parametrize("argv, read_lines", [
        # closed before the child has even imported the package, so its
        # first write meets no reader
        *((("weights", "--m", "3", "--format", fmt), 0) for fmt in ("text", "json", "csv")),
        (("--help",), 0),  # argparse writes, then raises SystemExit
        # 154 to 352 kB in one write, more than the pipe holds: closed
        # after one line, partway through that write
        *((("bernoulli", "--max-n", "60", "--max-l", "60", "--format", fmt), 1)
          for fmt in ("text", "json", "csv")),
    ], ids=["text", "json", "csv", "help", "grid-text", "grid-json", "grid-csv"])
    def test_closed_stdout_ends_quietly(self, argv, read_lines):
        # the process ends by SIGPIPE, which a shell reports as 141
        proc = subprocess.Popen(
            [sys.executable, "-m", "zetaodd.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.module_env(),
        )
        for _ in range(read_lines):
            proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == -signal.SIGPIPE
        assert err == b""
