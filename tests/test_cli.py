"""Command-line interface: config parsing, analysis records, sweeps and
serialization round-trips."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from advisorgame import (
    AdmissibilitySource,
    AdvisorGameError,
    InvalidParameter,
    ModelParams,
    PosFlag,
    maximize_welfare,
    nash_equilibria,
)
from advisorgame import cli
from advisorgame.cli import (
    COLUMNS,
    ConfigError,
    build_params,
    emit_csv,
    main,
    parse_config,
    parse_csv,
    run_single,
    run_sweep,
)

FIG1_CONFIG = """\
# two-equilibria configuration
d = 0.1
x = 0.4
w = 0.5
n = 1
alpha = 0.05
beta = 0.1
gamma = 0.2
zeta = 10
r_d = 0.3
r_s = 0.2
"""

# A point whose quartic invariants Delta and D overflow the doubles.
OVERFLOWING_INVARIANTS_ARGV = [
    "--d", "0.05754184505787924", "--x", "0.4703541388242204", "--w", "0.6961366347622424",
    "--n", "2", "--alpha", "1295749196264.3904", "--beta", "1.0488151042308345e+38",
    "--gamma", "7.304077022015147e+30", "--zeta", "50134874757.81474",
    "--r_d", "0.8976226523941698", "--r_s", "0.444446689866281"]

# Points where zeta |s - d| underflows and a customer coordinate leaves
# the doubles.
INFINITE_CUSTOMER_ARGV = [
    "--d", "1.0", "--x", "0.0", "--w", "0.0", "--n", "1000", "--alpha", "1e13", "--beta", "1.0",
    "--gamma", "1e-299", "--zeta", "1e-298", "--r_d", "1.0", "--r_s", "0.0"]
INFINITE_CUSTOMER_PAIR_ARGV = [
    "--d", "0.8707149526916379", "--x", "0.9110575305699193", "--w", "0.0", "--n", "631012",
    "--alpha", "4.0233686262222805e+133", "--beta", "1.949248335e-314",
    "--gamma", "3.588175018508565e-201", "--zeta", "1.14104e-319",
    "--r_d", "0.0", "--r_s", "0.6940411277241348"]

FIG1_VALUES = dict(d=0.1, x=0.4, w=0.5, n=1, alpha=0.05, beta=0.1,
                   gamma=0.2, zeta=10.0, r_d=0.3, r_s=0.2)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(FIG1_CONFIG)
    return str(path)


class TestConfig:
    def test_parse_round_trip(self, config_path):
        assert parse_config(config_path) == FIG1_VALUES

    def test_unknown_key_diagnostic(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = 0.05\nbogus = 1\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2.*bogus"):
            parse_config(str(path))

    def test_non_numeric_diagnostic(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = fast\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:1.*alpha"):
            parse_config(str(path))

    def test_line_without_equals_diagnostic(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = 0.05\nbeta 0.1\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2: expected 'key = value', got 'beta 0\.1'"):
            parse_config(str(path))

    def test_integral_float_n_in_a_file(self, capsys, tmp_path, config_path):
        # A flag and a file both read a non-integer literal as a float.
        assert main(["analyze", "--config", config_path, "--n", "1000"]) == 0
        expected = capsys.readouterr().out
        for text in ("1000.0", "1e3"):
            path = tmp_path / "n.cfg"
            path.write_text(FIG1_CONFIG.replace("n = 1", f"n = {text}"))
            assert main(["analyze", "--config", str(path)]) == 0
            assert capsys.readouterr().out == expected
        with pytest.raises(SystemExit):
            main(["analyze", "--config", config_path, "--n", "abc"])
        assert "invalid number value: 'abc'" in capsys.readouterr().err

    def test_missing_field_diagnostic(self):
        with pytest.raises(ConfigError, match="zeta"):
            build_params({k: v for k, v in FIG1_VALUES.items() if k != "zeta"})


class TestAnalyze:
    def test_reference_record(self):
        record = run_single(build_params(FIG1_VALUES))
        assert record["a"] == pytest.approx(0.3, abs=1e-9)
        assert record["b"] == pytest.approx(0.2, abs=1e-9)
        assert record["c_star"] == pytest.approx(0.275, abs=1e-9)
        assert record["c_dagger"] == pytest.approx(0.15, abs=1e-9)
        assert record["star_admissible"] and record["dagger_admissible"]
        assert record["r_d_1"] == pytest.approx(0.1125, rel=1e-12)
        assert record["zeta_bar"] == pytest.approx(12.5 * (0.1 / 0.09), rel=1e-12)
        assert record["flags"] == ""

    def test_no_equilibrium_record(self):
        record = run_single(build_params(dict(FIG1_VALUES, zeta=5.0)))
        assert record["discriminant"] == pytest.approx(-0.07, rel=1e-12)
        assert record["a"] is None and record["c_star"] is None
        assert "NoEquilibria" in record["flags"]

    def test_region_geometry_disagreement_flag(self):
        # r_s lies one ulp above r_d - r_d_2, the upper edge of the P+
        # window: the closed form rejects P+, the triangle test keeps it.
        values = dict(d=0.1331298322064609, x=0.819626719119277, w=0.6832869060032571, n=3,
                      alpha=1.18629823188593, beta=0.07642448450779726, gamma=1.2727066761628194,
                      zeta=1.0141875658207862, r_d=0.08155261736351271, r_s=0.027836330096622914)
        p = build_params(values)
        eq = nash_equilibria(p)
        assert (eq.star_region, eq.dagger_region) == (True, False)
        assert eq.star_admissible and eq.dagger_admissible
        assert eq.admissibility_source is AdmissibilitySource.GEOMETRIC
        assert run_single(p)["flags"] == "RegionGeometryDisagreement"
        # Where the verdicts agree, neither reports a disagreement.
        fig1 = build_params(FIG1_VALUES)
        assert nash_equilibria(fig1).admissibility_source is AdmissibilitySource.BOTH
        assert run_single(fig1)["flags"] == ""

    @pytest.mark.parametrize("values, flags", [
        (dict(d=0.0, x=0.5, w=0.5, n=2, alpha=1.0, beta=1.0, gamma=1.0, zeta=1.0, r_d=0.0, r_s=0.0),
         "ZeroDenominator"),
        (dict(d=0.1, x=0.1, w=0.9, n=1, alpha=5.0, beta=5.0, gamma=0.2, zeta=10.0, r_d=0.0, r_s=0.0),
         "Degenerate;NegativeDenominator"),
        (dict(FIG1_VALUES, zeta=5.0), "NoEquilibria"),
    ])
    def test_pos_flags_match_the_library_in_flag_order(self, values, flags):
        p = build_params(values)
        record = run_single(p)
        assert record["flags"] == flags
        tokens = [flag.value for flag in PosFlag if flag in maximize_welfare(p).pos_flags]
        assert record["flags"].split(";")[-len(tokens):] == tokens
        assert record["pos"] is None

    def test_face_root_within_eps_den_at_zeta_bar(self, capsys, config_path):
        # The face root at zeta_bar is 3e-14 above d; see TestCriticalZeta.
        assert main(["analyze", "--config", config_path, "--alpha", "1e-13", "--gamma", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        (row,) = parse_csv(captured.out)
        assert row["zeta_bar"] == 5.5555555555566616e+25

    def test_invalid_field_exit_code(self, capsys, config_path):
        code = main(["analyze", "--config", config_path, "--gamma", "-1"])
        assert code == 1
        assert "gamma" in capsys.readouterr().err

    def test_fractional_n_exit_code(self, capsys, config_path):
        code = main(["analyze", "--config", config_path, "--n", "2.7"])
        assert code == 1
        assert "n:" in capsys.readouterr().err

    def test_infinite_weight_exit_code(self, capsys, config_path):
        code = main(["analyze", "--config", config_path, "--alpha", "inf"])
        assert code == 1
        assert "alpha" in capsys.readouterr().err

    def test_underflowing_weights_exit_code(self, capsys, config_path):
        # alpha * zeta underflows to 0 in the discriminant's denominator.
        code = main(["analyze", "--config", config_path,
                     "--alpha", "1e-170", "--zeta", "1e-170"])
        assert code == 2
        assert capsys.readouterr().err.startswith("DegenerateDenominator: alpha * zeta")

    @pytest.mark.parametrize("d", ["8.4e-184", "1e-160"])
    def test_vanishing_opinion_gap_exit_code(self, capsys, config_path, d):
        # (x - d)^2 underflows to 0 or to a subnormal that zeta_bar overflows on.
        code = main(["analyze", "--config", config_path, "--x", "0", "--d", d])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "DegenerateDenominator: the critical dissonance value")

    # Closed forms that leave the doubles: infinite quartic coefficients and
    # an overflowing discriminant. Each must end in a library error, not a
    # traceback or non-finite cells.
    @pytest.mark.parametrize("argv, message", [
        (["--d", "0.2266260633591367", "--x", "0.6890271371485683", "--w", "0.9271669354015911",
          "--n", "10", "--alpha", "4.785184967897344e+44", "--beta", "2.3082456361035305e+70",
          "--gamma", "8528.938133807445", "--zeta", "7.195903409967981e+278",
          "--r_d", "0.5550966788978652", "--r_s", "0.04201178906868608"],
         "NumericalContractError: quartic coefficients"),
        (["--d", "0.3004813430917278", "--x", "0.3004813430917278", "--w", "0.6559283927641014",
          "--n", "10", "--alpha", "8.864472531241219e-107", "--beta", "8.160395500160584e-192",
          "--gamma", "7.824742046755414e+142", "--zeta", "1.4074000600665851e-192",
          "--r_d", "0.05647656212768215", "--r_s", "0.7555856371678873"],
         "NumericalContractError: quadratic discriminant inf is not finite"),
        # (gamma + zeta) n overflows, so the c = d face vertex is inf / inf.
        (["--d", "0.1", "--x", "0.4", "--w", "0.5", "--n", "1000", "--alpha", "0.05",
          "--beta", "1e-300", "--gamma", "0.2", "--zeta", "1e306", "--r_d", "0.3", "--r_s", "0.2"],
         "NumericalContractError: welfare nan at face:c=d is not finite"),
        # Finite coefficients whose quotients omega_k / omega_4 overflow.
        (["--d", "0.8604658728152004", "--x", "0.6214875774287129", "--w", "0.6449939110567907",
          "--n", "9007199254740992", "--alpha", "9.478973150583034e-276",
          "--beta", "4.5872446655289855e-244", "--gamma", "3.1570461478185253e-204",
          "--zeta", "4.589801511259801e-72", "--r_d", "0.7672271445785919", "--r_s", "0.5240527310642786"],
         "NumericalContractError: the companion matrix of the quartic coefficients"),
        # gamma * n overflows as the row batch is built. Under pytest a
        # numpy warning there would be an error, not a line before this one.
        (["--d", "0.1", "--x", "0.4", "--w", "0.5", "--n", "1000", "--alpha", "0.05",
          "--beta", "0.1", "--gamma", "1e306", "--zeta", "10", "--r_d", "0.3", "--r_s", "0.2"],
         "NumericalContractError: quartic coefficients (9.999999999999995, -7.999999999999999, 0.0, "
         "-1.6005999999999999e+308, inf) are not finite\n"),
        # zeta (s - d) underflows, so the P* customer coordinate is inf.
        (INFINITE_CUSTOMER_ARGV,
         "NumericalContractError: customer coordinate inf of P* is not finite\n"),
        # The same with c_star = inf and c_dagger = -inf, in JSON, where
        # either would print as null.
        (INFINITE_CUSTOMER_PAIR_ARGV + ["--format", "json"],
         "NumericalContractError: customer coordinate inf of P* is not finite\n"),
    ], ids=["infinite-coefficients", "infinite-discriminant", "nan-face-welfare", "overflowing-companion",
            "overflowing-influence", "infinite-customer", "infinite-customer-pair"])
    def test_non_finite_closed_form_exit_code(self, capsys, argv, message):
        assert main(["analyze"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert captured.out == ""

    def test_overflowing_quartic_invariants_leave_analyze_finite(self, capsys):
        # The quartic's invariants overflow here (see test_welfare), but no
        # output cell depends on them.
        assert main(["analyze"] + OVERFLOWING_INVARIANTS_ARGV) == 0
        (row,) = parse_csv(capsys.readouterr().out)
        assert row["sw_max"] is not None
        assert all(math.isfinite(v) for v in row.values() if isinstance(v, float))

    def test_equilibrium_above_the_welfare_maximum_exit_code(self, capsys):
        # The admissible P* has welfare 2.256 while the candidates give a
        # maximum of 1.062 at face:c=s: the maximum is wrong, not the PoS.
        argv = ["--d", "0.08631337118440073", "--x", "0.9895834721480227", "--w", "0.814304286357178",
                "--n", "10", "--alpha", "6.715223243936532e+35", "--beta", "4.923007814323495e-40",
                "--gamma", "1.774792609451653e-29", "--zeta", "0.7984097340295095",
                "--r_d", "0.6639652598931836", "--r_s", "0.10623159926334069"]
        assert main(["analyze"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("NumericalContractError: welfare 2.256")
        assert "at P* exceeds the maximum 1.062" in captured.err
        assert captured.out == ""

    def test_tiny_quartic_roots_keep_analyze_healthy(self, capsys, config_path):
        # At alpha = 1.25e61 three quartic roots have moduli near 1e-22, and
        # an unguarded Newton step from their real part lands on y = 0.585,
        # which is no root. The optimum must stay that of alpha = 1e60.
        rows = []
        for alpha in ("1e60", "1.25e61"):
            assert main(["analyze", "--config", config_path, "--alpha", alpha]) == 0
            (row,) = parse_csv(capsys.readouterr().out)
            rows.append(row)
        assert rows[1]["sw_location"] == "interior"
        assert rows[1]["sw_max"] == pytest.approx(rows[0]["sw_max"], rel=1e-12)

    def test_missing_config_exit_code(self, capsys):
        assert main(["analyze", "--config", "/nonexistent.cfg"]) == 1

    def test_csv_output(self, tmp_path, config_path):
        out = tmp_path / "row.csv"
        assert main(["analyze", "--config", config_path, "--out", str(out)]) == 0
        rows = parse_csv(out.read_text())
        assert len(rows) == 1
        assert rows[0]["a"] == pytest.approx(0.3, abs=1e-9)

    def test_json_output(self, tmp_path, config_path):
        out = tmp_path / "row.json"
        assert main(["analyze", "--config", config_path, "--format", "json",
                     "--out", str(out)]) == 0
        (obj,) = [json.loads(line) for line in out.read_text().splitlines()]
        assert set(obj) == set(COLUMNS)
        assert obj["star_admissible"] is True

    def test_flag_overrides_file(self, tmp_path, config_path):
        out = tmp_path / "row.csv"
        assert main(["analyze", "--config", config_path, "--zeta", "5",
                     "--out", str(out)]) == 0
        (row,) = parse_csv(out.read_text())
        assert row["discriminant"] == pytest.approx(-0.07, rel=1e-12)


class TestSweep:
    def test_row_count_and_order(self):
        rows = run_sweep(FIG1_VALUES, "zeta", 10.0, 25.0, 31)
        assert len(rows) == 31
        values = [r["value"] for r in rows]
        assert values == sorted(values)

    def test_rows_match_single_analysis(self):
        rows = run_sweep(FIG1_VALUES, "zeta", 10.0, 25.0, 4)
        for row in rows:
            single = run_single(build_params(dict(FIG1_VALUES, zeta=row["value"])),
                                value=row["value"])
            assert row == single

    def test_dissonance_sweep_crossing(self):
        # Both equilibria stay real from 10 to 25; the lower branch's
        # customer coordinate drops below the baseline near 13.889.
        rows = run_sweep(FIG1_VALUES, "zeta", 10.0, 25.0, 151)
        assert all(r["a"] is not None for r in rows)
        crossings = [
            (lo["value"], hi["value"])
            for lo, hi in zip(rows, rows[1:])
            if (lo["c_dagger"] - 0.1) > 0 >= (hi["c_dagger"] - 0.1)
        ]
        assert len(crossings) == 1
        lo, hi = crossings[0]
        assert lo < 12.5 * (0.1 / 0.09) <= hi

    def test_influence_sweep_merging(self):
        # Equilibria approach each other as the influence weight grows and
        # go complex just past the discriminant zero at 0.225.
        rows = run_sweep(FIG1_VALUES, "gamma", 0.05, 0.223, 30)
        gaps = [r["a"] - r["b"] for r in rows]
        assert all(r["a"] is not None for r in rows)
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
        beyond = run_single(build_params(dict(FIG1_VALUES, gamma=0.23)))
        assert beyond["a"] is None and beyond["discriminant"] < 0

    def test_strong_advisor_sweep(self):
        base = dict(d=0.5, x=0.7, w=0.5, n=1, alpha=8.0, beta=0.1,
                    gamma=10.0, zeta=100.0, r_d=0.3, r_s=0.2)
        rows = run_sweep(base, "gamma", 10.0, 100.0, 46)
        assert all(r["a"] is not None for r in rows)
        assert all(r["star_admissible"] for r in rows)
        # The lower branch enters the feasible triangle as gamma grows.
        verdicts = [r["dagger_admissible"] for r in rows]
        assert verdicts[0] is False and verdicts[-1] is True
        assert verdicts == sorted(verdicts)

    def test_invalid_rows_kept_with_marker(self):
        rows = run_sweep(FIG1_VALUES, "d", -0.1, 0.1, 5)
        assert len(rows) == 5
        assert rows[0]["flags"] == "error:d"
        assert rows[0]["a"] is None
        assert rows[-1]["flags"] == ""

    def test_range_validation(self):
        with pytest.raises(ConfigError):
            run_sweep(FIG1_VALUES, "zeta", 10.0, 5.0, 10)
        with pytest.raises(ConfigError):
            run_sweep(FIG1_VALUES, "zeta", 10.0, 25.0, 1)
        with pytest.raises(ConfigError):
            run_sweep(FIG1_VALUES, "typo", 10.0, 25.0, 10)

    def test_cli_sweep_exit_code(self, tmp_path, config_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", config_path, "--param", "zeta",
                     "--range", "10:25:7", "--out", str(out)])
        assert code == 0
        assert len(parse_csv(out.read_text())) == 7

    def test_sweep_into_a_failing_region_reports_its_first_failing_row(self, capsys, config_path):
        # alpha grows until the quartic's coefficients leave the doubles;
        # the sweep fails as analyze does at the first row that fails.
        failing = None
        for i, alpha in enumerate(np.linspace(0.05, 1e308, 9).tolist()):
            if main(["analyze", "--config", config_path, "--alpha", repr(alpha)]) == 2:
                failing = i
                break
        message = capsys.readouterr().err
        assert failing is not None and failing > 0
        code = main(["sweep", "--config", config_path, "--param", "alpha", "--range", "0.05:1e308:9"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == message
        assert captured.out == ""

    def test_missing_base_parameter_exit_code(self, capsys):
        code = main(["sweep", "--d", "0.1", "--x", "0.4", "--w", "0.5", "--n", "1",
                     "--alpha", "0.05", "--gamma", "0.2", "--r_d", "0.3", "--r_s", "0.2",
                     "--param", "zeta", "--range", "10:25:3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: missing parameter(s): beta\n"
        assert captured.out == ""

    def test_customer_counts_beyond_the_doubles_are_error_rows(self, capsys):
        base = {k: v for k, v in FIG1_VALUES.items() if k != "n"}
        rows = run_sweep(base, "n", 1.0, 1e19, 3)
        assert [r["flags"] for r in rows] == ["", "error:n", "error:n"]
        argv = ["sweep", "--param", "n", "--range=1:inf:3"]
        argv += [a for k, v in base.items() for a in (f"--{k}", repr(v))]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: sweep range needs finite lo, hi and hi - lo, got 1.0:inf\n"
        assert captured.out == ""

    @pytest.mark.parametrize("sweep_range", ["10:inf:3", "nan:25:3", "-1e308:1e308:3"])
    def test_non_finite_range_exit_code(self, capsys, config_path, sweep_range):
        # linspace would turn each of these into NaN or inf values.
        code = main(["sweep", "--config", config_path, "--param", "zeta", f"--range={sweep_range}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: sweep range needs finite lo, hi and hi - lo, got ")
        assert captured.out == ""

    def test_bad_range_exit_code(self, config_path):
        code = main(["sweep", "--config", config_path, "--param", "zeta",
                     "--range", "10-25-7"])
        assert code == 1


class TestSubcommandFlags:
    # Each subcommand registers only the flags it reads.
    @pytest.mark.parametrize("argv", [
        ["analyze", "--seed", "3"],
        ["analyze", "--grid-resolution", "0.002"],
        ["sweep", "--param", "zeta", "--range", "10:25:3", "--seed", "3"],
        ["sweep", "--param", "zeta", "--range", "10:25:3", "--grid-resolution", "0.002"],
        ["oracle-check", "--format", "json"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_unread_flag_is_a_usage_error(self, capsys, config_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + ["--config", config_path] + argv[1:])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in captured.err
        assert captured.out == ""


class TestParserReuse:
    def test_output_after_failed_calls_matches_a_fresh_process(self, capsys, tmp_path, config_path):
        argv = ["analyze", "--config", config_path]
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        fresh = subprocess.run(
            [sys.executable, "-c", "import sys; from advisorgame.cli import main; sys.exit(main(sys.argv[1:]))"]
            + argv, env=env, capture_output=True, text=True, timeout=120)
        assert fresh.returncode == 0, fresh.stderr
        with pytest.raises(SystemExit):
            main(["analyze", "--no-such-flag"])
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus = 1\n")
        assert main(["analyze", "--config", str(bad)]) == 1
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == fresh.stdout


class TestSerialization:
    def test_csv_round_trip_is_byte_identical(self):
        rows = run_sweep(FIG1_VALUES, "zeta", 4.0, 25.0, 9)  # includes empty cells
        first = io.StringIO()
        emit_csv(rows, first)
        reparsed = parse_csv(first.getvalue())
        second = io.StringIO()
        emit_csv(reparsed, second)
        assert first.getvalue() == second.getvalue()

    def test_seventeen_digit_cells(self):
        rows = run_sweep(FIG1_VALUES, "zeta", 10.0, 25.0, 3)
        stream = io.StringIO()
        emit_csv(rows, stream)
        reparsed = parse_csv(stream.getvalue())
        for row, back in zip(rows, reparsed):
            assert back["a"] == row["a"]  # exact double round-trip
            assert back["sw_max"] == row["sw_max"]


class TestOracleCheck:
    def test_reference_configuration_passes(self, capsys, config_path):
        code = main(["oracle-check", "--config", config_path,
                     "--grid-resolution", "0.002", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] welfare grid agreement" in out
        assert "[FAIL]" not in out

    def test_inadmissible_equilibrium_is_not_checked(self, capsys, config_path):
        # Past zeta_bar, P+ has c < d: present, but outside the triangle.
        code = main(["oracle-check", "--config", config_path, "--zeta", "20",
                     "--grid-resolution", "0.002", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] P* Nash deviation check" in out
        assert "P+" not in out

    def test_equilibrium_on_the_baseline_is_skipped(self, capsys, config_path):
        # With x = d and r_s = r_d both equilibria are admissible at s = d,
        # where the best-response dynamics cannot start.
        code = main(["oracle-check", "--config", config_path, "--x", "0.1", "--r_s", "0.3",
                     "--grid-resolution", "0.002"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("[PASS] welfare grid agreement")
        assert out.count("\n") == 1

    def test_out_path_is_written_and_closed(self, capsys, monkeypatch, tmp_path, config_path):
        opened = []

        def spy(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(cli, "open", spy, raising=False)
        path = tmp_path / "oracle.txt"
        code = main(["oracle-check", "--config", config_path, "--grid-resolution", "0.002",
                     "--out", str(path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert opened and all(fh.closed for fh in opened)
        text = path.read_text()
        assert text.startswith("[PASS] welfare grid agreement")
        assert "[PASS] P+ is a best-response fixed point" in text

    def test_grid_over_budget_exit_code(self, capsys, config_path):
        # The finest resolution on the full [0, 1] axis exceeds the point
        # budget; the check fails before the 2-D grid is allocated.
        code = main(["oracle-check", "--config", config_path, "--d", "0",
                     "--grid-resolution", "1e-4"])
        assert code == 1
        captured = capsys.readouterr()
        assert "budget" in captured.err
        assert captured.out == ""


# Weights over the whole decade range of positive doubles, subnormals
# included (10.0**308.3 overflows in Python): every closed form that
# leaves the doubles must end in a library error.
_WEIGHT = st.floats(-323.0, 308.0).map(lambda e: 10.0**e)
_UNIT = st.floats(0.0, 1.0)


@st.composite
def _edge_params(draw):
    d = draw(st.one_of(st.just(1.0), _UNIT))
    r_d = draw(_UNIT)
    return ModelParams(
        d=d,
        x=draw(st.one_of(st.just(d), _UNIT)),
        w=draw(_UNIT),
        n=draw(st.one_of(st.just(1), st.just(1000), st.just(2**53), st.integers(1, 2**53))),
        alpha=draw(_WEIGHT),
        beta=draw(_WEIGHT),
        gamma=draw(_WEIGHT),
        zeta=draw(_WEIGHT),
        r_d=r_d,
        r_s=draw(st.one_of(st.just(r_d), _UNIT)),
    )


def _params_of(argv):
    """The ModelParams of a ``--key value`` argument list."""
    return build_params({key[2:]: float(value) for key, value in zip(argv[::2], argv[1::2])})


class TestRobustness:
    @settings(max_examples=300, deadline=None)
    @given(_edge_params())
    @example(ModelParams(**dict(FIG1_VALUES, d=8.38991333608418e-184, x=0.0)))
    @example(ModelParams(**dict(FIG1_VALUES, d=1e-160, x=0.0)))
    @example(_params_of(INFINITE_CUSTOMER_ARGV))
    @example(_params_of(INFINITE_CUSTOMER_PAIR_ARGV))
    def test_run_single_is_finite_or_raises_a_library_error(self, p):
        try:
            record = run_single(p)
        except AdvisorGameError:
            return
        for key, value in record.items():
            if isinstance(value, float):
                assert math.isfinite(value), key

    def test_customer_count_above_2_53_is_rejected(self, capsys, tmp_path, config_path):
        # n is held as a float64 in the kernels; 2**53 + 1 would round.
        with pytest.raises(InvalidParameter, match=r"^n: must be at most 2\*\*53, got 9007199254740993$"):
            ModelParams(**dict(FIG1_VALUES, n=2**53 + 1))
        with pytest.raises(InvalidParameter, match=r"^n: must be an integer >= 1, got 0$"):
            ModelParams(**dict(FIG1_VALUES, n=0))
        assert main(["analyze", "--config", config_path, "--n", "1e19"]) == 1
        assert capsys.readouterr().err == "error: n: must be at most 2**53, got 10000000000000000000\n"
        # A flag reads an integer literal exactly, as a file does.
        assert main(["analyze", "--config", config_path, "--n", str(2**53 + 1)]) == 1
        assert capsys.readouterr().err == "error: n: must be at most 2**53, got 9007199254740993\n"
        path = tmp_path / "huge.cfg"
        path.write_text(FIG1_CONFIG.replace("n = 1", f"n = {2**53 + 1}"))
        assert f"n = {2**53 + 1}" in path.read_text()
        assert main(["analyze", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: n: must be at most 2**53, got 9007199254740993\n"
        assert captured.out == ""

    def test_customer_count_of_2_53_is_analyzed(self, capsys, config_path):
        # The welfare of a profile is a closed form in n, so its cost does
        # not grow with the number of customers.
        assert main(["analyze", "--config", config_path, "--n", str(2**53), "--r_s", "0.3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        (row,) = parse_csv(captured.out)
        cells = [v for v in row.values() if isinstance(v, float)]
        assert cells and all(math.isfinite(v) for v in cells)
        assert row["pos"] is not None
