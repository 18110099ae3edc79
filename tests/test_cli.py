"""Command-line interface: config parsing, analysis records, sweeps and
serialization round-trips."""

import io
import json

import numpy as np
import pytest

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

    def test_bad_range_exit_code(self, config_path):
        code = main(["sweep", "--config", config_path, "--param", "zeta",
                     "--range", "10-25-7"])
        assert code == 1


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

    def test_grid_over_budget_exit_code(self, capsys, config_path):
        # The finest resolution on the full [0, 1] axis exceeds the point
        # budget; the check fails before the 2-D grid is allocated.
        code = main(["oracle-check", "--config", config_path, "--d", "0",
                     "--grid-resolution", "1e-4"])
        assert code == 1
        captured = capsys.readouterr()
        assert "budget" in captured.err
        assert captured.out == ""
