import importlib.util
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import sampspectra.cli
import sampspectra.field_sim
import sampspectra.volumes
from sampspectra.cli import MAX_GRID_VALUES, main
from sampspectra.combinatorics import MAX_ORDER, narayana
from sampspectra.field_sim import build_T, estimate_bytes, hermitian_eigenvalues, instance_for
from sampspectra.marchenko_pastur import mp_lmmse
from sampspectra.moments import moment_limit

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "sampspectra.cli", *argv],
        capture_output=True, text=True,
    )


def load_benchmark_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse_csv(text):
    comments, rows = [], []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif line:
            rows.append(line.split(","))
    return comments, rows[0], rows[1:]


class TestMoments:
    def test_symbolic_and_values(self, capsys):
        assert main(["moments", "--p", "4", "--d", "1,3", "--beta", "0.5"]) == 0
        comments, header, rows = parse_csv(capsys.readouterr().out)
        assert any("b^3 + (6 + (2/3)^d) b^2 + 6 b + 1" in c for c in comments)
        assert header == ["p", "d", "beta", "moment", "limit_moment"]
        assert [row[1] for row in rows] == ["1", "3"]
        assert float(rows[0][3]) == pytest.approx(139 / 24)
        assert float(rows[0][4]) == pytest.approx(5.625)

    def test_first_order_rows_are_unit(self, capsys):
        main(["moments", "--p", "1", "--d", "1,2", "--beta", "0.3,0.9"])
        _, _, rows = parse_csv(capsys.readouterr().out)
        assert [float(row[3]) for row in rows] == [1.0] * 4

    def test_crossing_free_order(self, capsys):
        main(["moments", "--p", "3", "--d", "7", "--beta", "0.4"])
        _, _, rows = parse_csv(capsys.readouterr().out)
        assert float(rows[0][3]) == pytest.approx(0.4**2 + 3 * 0.4 + 1)

    def test_capacity_exit_code(self, capsys):
        p = str(MAX_ORDER + 1)
        assert main(["moments", "--p", p, "--d", "1", "--beta", "0.5"]) == 3
        assert p in capsys.readouterr().err

    def test_highest_order_passes_the_moment_checks(self, capsys):
        # The benchmark's checks: per block count the multiplicities sum to
        # the Stirling number and the unit volumes to the Narayana number,
        # crossing volumes lie in (0, 2/3], and every value follows from
        # the printed expansion and falls with d towards the limit.
        p = MAX_ORDER
        assert main(["moments", "--p", str(p), "--d", "1,3", "--beta", "0.4,1",
                     "--format", "json"]) == 0
        output = capsys.readouterr().out
        assert load_benchmark_checks().check_moments(output, p, [1, 3], [0.4, 1.0]) == []

    @pytest.mark.parametrize("d, beta", [("0", "0.5"), ("1", "1.5"), (",", "0.5")])
    def test_bad_arguments_fail_before_the_expansion(self, d, beta, monkeypatch, capsys):
        def expansion_not_allowed(p):
            raise AssertionError("moment_expansion ran before validation")

        monkeypatch.setattr(sampspectra.cli, "moment_expansion", expansion_not_allowed)
        try:
            code = main(["moments", "--p", "9", "--d", d, "--beta", beta])
        except SystemExit as exc:  # argparse rejects the empty list
            code = exc.code
        assert code == 2
        assert capsys.readouterr().out == ""


class TestVolume:
    def test_trace_collapsing_six_elements(self, capsys):
        assert main(["volume", "1,2,3,2,2,1"]) == 0
        out = capsys.readouterr().out
        for line in [
            "[1,2,3,2,2,1]  rule 1, i = 3",
            "[1,2,2,2,1]    rule 2, i = 2",
            "[1,2,2,1]      rule 2, i = 2",
            "[1,2,1]        rule 1, i = 2",
            "[1,1]          rule 2, i = 2",
            "[1]            rule 1, i = 1",
            "[]             (fully reduced)",
        ]:
            assert line in out
        assert "volume = 1" in out

    def test_trace_with_crossing_remainder(self, capsys):
        main(["volume", "1,2,3,1,2,1"])
        out = capsys.readouterr().out
        assert "[1,2,3,1,2,1]  rule 1, i = 3" in out
        assert "[1,2,1,2,1]    rule 2, i = 5" in out
        assert "[1,2,1,2]      (fully reduced)" in out
        assert "volume = 2/3" in out
        assert "quadrature = 0.666" in out

    def test_single_element(self, capsys):
        main(["volume", "1"])
        out = capsys.readouterr().out
        assert "[1]  rule 1, i = 1" in out
        assert "volume = 1" in out

    def test_json_report(self, capsys):
        main(["volume", "1,2,1,2", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["volume"] == "2/3"
        assert doc["trace"] == [{"path": [1, 2, 1, 2], "rule": None, "index": None}]
        assert abs(doc["quadrature"] - 2 / 3) < 1e-5

    @pytest.mark.parametrize("path, volume", [
        ("1,2,3,4,1,2,3,4", "2/5"), ("1,2,3,1,4,2,3,4", "11/30"),
        ("1,2,1,2,3,4,3,4", "9/20"),
    ])
    def test_four_block_paths_cross_check(self, path, volume, capsys):
        # Reduced paths of 4 blocks take the three-dimensional quadrature.
        assert main(["volume", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["volume"] == volume
        assert abs(doc["quadrature"] - doc["volume_float"]) < 1e-4

    def test_three_block_path_cross_check(self, capsys):
        # Reduced paths of 3 blocks take the two-dimensional quadrature.
        assert main(["volume", "1,2,3,1,2,3", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["volume"] == "1/2"
        assert abs(doc["quadrature"] - doc["volume_float"]) < 1e-6

    def test_core_two_past_the_cap_is_refused_before_counting(self, capsys, monkeypatch):
        # 1..n,1..n is its own core, of order 2n = MAX_ORDER + 2.
        def never(path, M):
            raise AssertionError("lattice points counted")

        monkeypatch.setattr(sampspectra.volumes, "zeta_count", never)
        labels = list(range(1, (MAX_ORDER + 2) // 2 + 1)) * 2
        assert len(labels) == MAX_ORDER + 2
        assert main(["volume", ",".join(map(str, labels))]) == 3
        captured = capsys.readouterr()
        assert "capacity error" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_long_path_reducing_to_nothing(self, capsys):
        assert main(["volume", ",".join(map(str, range(1, 21)))]) == 0
        out = capsys.readouterr().out
        assert "[]" in out and "volume = 1" in out

    @pytest.mark.parametrize("bad", ["1,2,x,2", "2,1", "1,3", ""])
    def test_parse_errors(self, bad, capsys):
        assert main(["volume", bad]) == 2
        assert "position" in capsys.readouterr().err


class TestMse:
    def test_rows_and_sentinel(self, capsys):
        assert main([
            "mse", "--d", "1", "--M", "5", "--beta", "0.5",
            "--snr", "inf,10", "--trials", "4",
        ]) == 0
        comments, header, rows = parse_csv(capsys.readouterr().out)
        config = json.loads(comments[0][2:])
        assert config["snr_db"] == ["inf", 10.0]
        assert "threads" not in config
        assert header[:7] == ["d", "M", "r", "beta", "snr_db", "mse_mp",
                              "mse_empirical"]
        noiseless = rows[0]
        assert noiseless[4] == "inf"
        assert float(noiseless[5]) == 0.0
        assert float(noiseless[6]) == 0.0
        noisy = rows[1]
        beta_actual = float(noisy[3])
        assert float(noisy[5]) == pytest.approx(mp_lmmse(beta_actual, 0.1))
        assert 0 < float(noisy[6]) < 1

    def test_rows_match_the_spectra_trial_by_trial(self, capsys):
        # Every row recomputed from each trial's own instance and spectrum,
        # as separate arrays: the (trials, N) path keeps the same floats.
        assert main(["mse", "--d", "1,2", "--M", "3", "--beta", "0.4,0.7",
                     "--snr", "0,10,inf", "--trials", "4", "--seed", "5",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        got = [dict(zip(doc["columns"], row)) for row in doc["rows"]]
        expected = []
        for i_d, d in enumerate((1, 2)):
            for i_b, beta in enumerate((0.4, 0.7)):
                instances = [instance_for(d, 3, beta, (5, i_d, i_b, t)) for t in range(4)]
                spectra = [hermitian_eigenvalues(build_T(inst)) for inst in instances]
                for snr_db in (0.0, 10.0, np.inf):
                    alpha = 0.0 if snr_db == np.inf else 10.0 ** (-snr_db / 10.0)
                    shift = alpha * instances[0].beta
                    per_trial = np.array([
                        float(np.mean(shift / (lam + shift))) if alpha else 0.0
                        for lam in spectra
                    ])
                    expected.append({
                        "r": instances[0].r, "beta": instances[0].beta,
                        "mse_empirical": float(per_trial.mean()),
                        "stderr": float(per_trial.std(ddof=1) / np.sqrt(4)),
                    })
        assert [{key: row[key] for key in expected[0]} for row in got] == expected

    def test_grid_expansion(self, capsys):
        main(["mse", "--d", "1", "--M", "4", "--beta", "0.5",
              "--snr-grid", "0:20:5", "--trials", "2"])
        _, _, rows = parse_csv(capsys.readouterr().out)
        assert [row[4] for row in rows] == ["0.0", "5.0", "10.0", "15.0", "20.0"]

    def test_snr_flags_are_exclusive(self, capsys):
        assert main(["mse", "--d", "1", "--M", "4", "--beta", "0.5",
                     "--snr", "10", "--snr-grid", "0:10:5"]) == 2
        assert main(["mse", "--d", "1", "--M", "4", "--beta", "0.5"]) == 2
        capsys.readouterr()

    def test_invalid_ratio(self, capsys):
        assert main(["mse", "--d", "1", "--M", "4", "--beta", "1.5",
                     "--snr", "10"]) == 2
        capsys.readouterr()

    def test_nan_in_the_matrix_exits_four(self, monkeypatch, capsys):
        build_T = sampspectra.field_sim.build_T

        def with_nan(instance, max_bytes=None):
            R = build_T(instance, max_bytes)
            R[0, 1] = R[1, 0] = float("nan")
            return R

        monkeypatch.setattr(sampspectra.field_sim, "build_T", with_nan)
        assert main(["mse", "--d", "1", "--M", "4", "--beta", "0.5",
                     "--snr", "10", "--trials", "1"]) == 4
        captured = capsys.readouterr()
        assert "non-Hermitian" in captured.err
        assert "Traceback" not in captured.err

    def test_capacity_precheck_leaves_no_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = main(["mse", "--d", "1", "--M", "300", "--beta", "0.5",
                     "--snr", "10", "--max-mem", "10000", "--out", str(out)])
        assert code == 3
        assert not out.exists()
        # One trial fits, but four threads would run four at once.
        budget = str(2 * estimate_bytes(1, 20, 0.5) + 8 * 41 * 4)
        code = main(["mse", "--d", "1", "--M", "20", "--beta", "0.5", "--snr", "10",
                     "--trials", "4", "--threads", "4", "--max-mem", budget,
                     "--out", str(out)])
        assert code == 3
        assert not out.exists()
        capsys.readouterr()


class TestSpectrum:
    def test_single_bin_holds_all_mass(self, capsys):
        assert main(["spectrum", "--d", "1", "--M", "4", "--beta", "0.5",
                     "--trials", "3", "--bins", "1"]) == 0
        _, header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["bin_left", "bin_right", "bin_center", "mass", "mp_pdf"]
        assert len(rows) == 1
        assert float(rows[0][3]) == 1.0

    def test_mass_sums_to_one(self, capsys):
        main(["spectrum", "--d", "1", "--M", "6", "--beta", "0.4",
              "--trials", "5", "--bins", "20"])
        _, _, rows = parse_csv(capsys.readouterr().out)
        assert sum(float(row[3]) for row in rows) == pytest.approx(1.0, abs=1e-12)
        assert all(float(row[4]) >= 0 for row in rows)

    def test_bad_bins(self, capsys):
        assert main(["spectrum", "--d", "1", "--M", "4", "--beta", "0.5",
                     "--bins", "0"]) == 2
        capsys.readouterr()

    def test_histogram_past_the_budget_exits_three_before_any_trial(
            self, monkeypatch, capsys):
        # Three billion bins take terabytes; the trials would take kilobytes.
        trials = []
        monkeypatch.setattr(sampspectra.cli, "collect_spectra",
                            lambda *args, **kwargs: trials.append(args))
        assert main(["spectrum", "--d", "1", "--M", "2", "--beta", "0.5",
                     "--trials", "1", "--bins", "3000000000"]) == 3
        captured = capsys.readouterr()
        assert "3000000000 bins" in captured.err
        assert captured.out == "" and trials == []

    def test_three_dimensional_histogram_tracks_limit_density(self, capsys):
        # At d=3 the pooled histogram already sits close to the limiting
        # density: total-variation distance over the bins stays below 0.1.
        main(["spectrum", "--d", "3", "--M", "2", "--beta", "0.5",
              "--trials", "100", "--bins", "40", "--seed", "0"])
        _, _, rows = parse_csv(capsys.readouterr().out)
        width = float(rows[0][1]) - float(rows[0][0])
        tv = 0.5 * sum(
            abs(float(row[3]) - float(row[4]) * width) for row in rows
        )
        assert tv < 0.1


class TestMp:
    def test_moment_mode(self, capsys):
        assert main(["mp", "--beta", "0.5", "--p", "4"]) == 0
        _, header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["beta", "p", "moment_mp"]
        assert [float(r[2]) for r in rows] == [
            pytest.approx(moment_limit(p, 0.5)) for p in (1, 2, 3, 4)
        ]

    def test_lmmse_mode(self, capsys):
        assert main(["mp", "--beta", "0.4", "--snr", "10,inf"]) == 0
        _, header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["beta", "snr_db", "alpha", "mse_mp"]
        assert float(rows[0][3]) == pytest.approx(0.060232526704, abs=1e-10)
        assert rows[1][1] == "inf" and float(rows[1][3]) == 0.0

    def test_lowest_snr_loses_the_whole_signal(self, capsys):
        # alpha = 1e300: theta^2 in the closed form would overflow.
        assert main(["mp", "--beta", "0.5,1", "--snr", "-3000"]) == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        assert [float(row[3]) for row in rows] == [1.0, 1.0]

    def test_moment_past_every_float_narayana_number(self, capsys):
        # Nar(600, k) reaches 1e355, but at beta = 0.01 the moment is 3.1e46.
        assert main(["mp", "--beta", "0.01", "--p", "600"]) == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 600
        exact = sum(narayana(600, k) * Fraction(0.01) ** (600 - k) for k in range(1, 601))
        assert float(rows[-1][2]) == float(exact)

    def test_moment_past_the_float_range_exits_two(self, capsys):
        # (1 + sqrt(0.5))^(2p) passes 1.8e308 at p = 673.
        assert main(["mp", "--beta", "0.5", "--p", "700"]) == 2
        captured = capsys.readouterr()
        assert "p=673" in captured.err and "beta=0.5" in captured.err
        assert captured.out == "" and "Traceback" not in captured.err

    def test_modes_are_exclusive(self, capsys):
        assert main(["mp", "--beta", "0.4"]) == 2
        assert main(["mp", "--beta", "0.4", "--p", "3", "--snr", "10"]) == 2
        capsys.readouterr()


class TestOut:
    @pytest.mark.parametrize("argv", [
        ["moments", "--p", "2", "--d", "1", "--beta", "0.5"],
        ["volume", "1,2,1,2"],
    ], ids=["moments", "volume"])
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_out_exits_two(self, argv, target, tmp_path):
        out = tmp_path / "missing" / "x.csv" if target == "missing-directory" else tmp_path
        result = run_cli(*argv, "--out", str(out))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: cannot write {out}: ")
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
        assert list(tmp_path.iterdir()) == []


class TestArgparse:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_malformed_grid_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["mse", "--d", "1", "--M", "4", "--beta", "0.5",
                  "--snr-grid", "0:30"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command", [
        ["mse", "--d", "1", "--M", "4", "--beta", "0.5"],
        ["mp", "--beta", "0.5"],
    ])
    def test_empty_snr_grid_exits_two(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main(command + ["--snr-grid", "30:0:5"])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", [
        ["mse", "--d", "1", "--M", "4", "--beta", "0.5"],
        ["mp", "--beta", "0.5"],
    ])
    @pytest.mark.parametrize("grid", ["0:1e12:1", "0:10000:1", "0:1:1e-320"])
    def test_snr_grid_past_the_cap_exits_two(self, command, grid):
        # The values are counted before any is listed: a trillion would
        # otherwise fill memory.
        result = subprocess.run(
            [sys.executable, "-m", "sampspectra.cli", *command, f"--snr-grid={grid}"],
            capture_output=True, text=True, timeout=30,
        )
        assert result.returncode == 2
        assert f"more than {MAX_GRID_VALUES} values" in result.stderr
        assert result.stdout == ""

    def test_snr_grid_cap_is_in_the_help(self, capsys):
        for command in ("mse", "mp"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert f"at most {MAX_GRID_VALUES} values" in capsys.readouterr().out

    def test_snr_flags_have_one_help_text(self, capsys):
        for command in ("mse", "mp"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            text = " ".join(capsys.readouterr().out.split())
            assert "--snr SNR comma list of SNRs in dB; 'inf' for noiseless" in text

    def test_snr_grid_at_the_cap_runs(self, capsys):
        assert main(["mp", "--beta", "0.5", "--snr-grid", "0:9999:1"]) == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == MAX_GRID_VALUES

    @pytest.mark.parametrize("grid", [
        "0:inf:5", "-inf:0:5", "nan:0:5", "0:30:nan", "0:30:inf",
    ])
    def test_non_finite_snr_grid_exits_two(self, grid, capsys):
        with pytest.raises(SystemExit) as info:
            main(["mp", "--beta", "0.5", f"--snr-grid={grid}"])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("snr", [",", "10, ,20"])
    def test_malformed_snr_list_exits_two(self, snr, capsys):
        with pytest.raises(SystemExit) as info:
            main(["mse", "--d", "1", "--M", "2", "--beta", "0.5", "--trials", "1",
                  "--snr", snr])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", [
        ["mse", "--d", "1", "--M", "2", "--beta", "0.5", "--trials", "1"],
        ["mp", "--beta", "0.5"],
    ])
    @pytest.mark.parametrize("snr", ["-inf", "10,nan"])
    def test_snr_below_any_level_exits_two(self, command, snr, monkeypatch, capsys):
        def trials_not_allowed(*args, **kwargs):
            raise AssertionError("trials ran before the SNR check")

        monkeypatch.setattr(sampspectra.cli, "collect_spectra", trials_not_allowed)
        assert main(command + [f"--snr={snr}"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", [
        ["mse", "--d", "1", "--M", "2", "--beta", "0.5", "--trials", "1"],
        ["mp", "--beta", "0.5"],
    ])
    def test_snr_whose_noise_ratio_overflows_exits_two(self, command):
        # 10^(4000/10) is past the float range; -3000 dB is not.
        result = run_cli(*command, "--snr=-3000,-4000")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "-4000" in result.stderr and "float range" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", [
        ["mse", "--d", "1", "--M", "2", "--beta", "0.5", "--trials", "2"],
        ["mp", "--beta", "0.5"],
    ])
    def test_negative_snr_list_reads_as_a_value(self, command):
        # argparse takes "-5,0,5" for an option unless it is joined on.
        joined = run_cli(*command, "--snr=-5,0,5")
        assert joined.returncode == 0, joined.stderr
        spaced = run_cli(*command, "--snr", "-5,0,5")
        assert spaced.returncode == 0, spaced.stderr
        assert spaced.stdout == joined.stdout

    @pytest.mark.parametrize("command", [
        ["mse", "--d", "1", "--M", "2", "--beta", "0.5", "--trials", "2"],
        ["mp", "--beta", "0.5"],
    ])
    def test_negative_snr_grid_start_runs(self, command, capsys):
        assert main(command + ["--snr-grid", "-10:10:5"]) == 0
        _, header, rows = parse_csv(capsys.readouterr().out)
        column = header.index("snr_db")
        assert [float(row[column]) for row in rows] == [-10.0, -5.0, 0.0, 5.0, 10.0]

    @pytest.mark.parametrize("command", [
        ["mse", "--d", "1", "--M", "2", "--trials", "1", "--snr", "10"],
        ["mp", "--snr", "10"],
    ])
    def test_negative_beta_list_is_a_range_error(self, command, capsys):
        assert main(command + ["--beta", "-0.5,0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "beta must lie in" in captured.err

    @pytest.mark.parametrize("command", [
        ["mse", "--d", "1", "--M", "2", "--beta", "0.5", "--trials", "2"],
        ["mp", "--beta", "0.5"],
    ])
    def test_abbreviated_flag_takes_a_negative_value(self, command):
        joined = run_cli(*command, "--snr-grid=-10:10:5")
        assert joined.returncode == 0, joined.stderr
        abbreviated = run_cli(*command, "--snr-g", "-10:10:5")
        assert abbreviated.returncode == 0, abbreviated.stderr
        assert abbreviated.stdout == joined.stdout

    @pytest.mark.parametrize("command", [
        ["moments", "--p", "3", "--beta", "0.5"],
        ["mse", "--M", "2", "--beta", "0.5", "--trials", "1", "--snr", "10"],
    ])
    def test_negative_dimension_list_is_a_dimension_error(self, command, capsys):
        assert main(command + ["--d", "-1,2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dimension must be" in captured.err

    @pytest.mark.parametrize("flag", ["--help", "--he"])
    def test_help_is_not_joined_to_a_negative_token(self, flag, capsys):
        with pytest.raises(SystemExit) as info:
            main(["mp", flag, "-1,2"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: sampspectra mp")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads_exit_two(self, threads, capsys):
        # d = 2, M = 3000 is past the budget (N = 6001^2): still exit 2, not 3.
        for d, M in (("1", "4"), ("2", "3000")):
            assert main(["spectrum", "--d", d, "--M", M, "--beta", "0.5",
                         "--threads", threads]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: threads must be positive, got {threads}\n"

    def test_negative_order_is_named(self, capsys):
        assert main(["spectrum", "--d", "1", "--M", "-1", "--beta", "0.5"]) == 2
        assert "M must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["mp", "--beta", "0.5", "--p", "0"], "--p"),
        (["mp", "--beta", "0.5", "--p", "-1"], "--p"),
        (["mse", "--d", "1", "--M", "2", "--beta", "0.5", "--snr", "10",
          "--seed", "-1"], "--seed"),
        (["spectrum", "--d", "1", "--M", "2", "--beta", "0.5", "--seed", "-1"], "--seed"),
        (["mse", "--d", "1", "--M", "2", "--beta", "0.5", "--snr", "10",
          "--max-mem", "0"], "--max-mem"),
        (["spectrum", "--d", "1", "--M", "2", "--beta", "0.5", "--max-mem", "-5"],
         "--max-mem"),
        # Past the budget the flag is still the error: exit 2, not 3.
        (["mse", "--d", "2", "--M", "3000", "--beta", "0.5", "--snr", "10",
          "--seed", "-1"], "--seed"),
        (["spectrum", "--d", "2", "--M", "3000", "--beta", "0.5", "--seed", "-1"],
         "--seed"),
        (["spectrum", "--d", "1", "--M", "2", "--beta", "0.5", "--trials", "0",
          "--bins", "10000000"], "--trials"),
    ])
    def test_unusable_integer_flag_is_named(self, argv, flag, capsys):
        name = {"--p": "order", "--seed": "seed", "--max-mem": "max_bytes",
                "--trials": "trials"}[flag]
        value = argv[argv.index(flag) + 1]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        kind = "non-negative" if flag == "--seed" else "positive"
        assert captured.err == f"error: {name} must be {kind}, got {value}\n"

    @pytest.mark.parametrize("beta", ["2", "0", "nan", "1"])
    def test_simulation_beta_refusal_names_its_bound(self, beta, capsys):
        assert main(["mse", "--d", "1", "--M", "2", "--beta", beta, "--snr", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: beta must lie in (0, 1), got {float(beta)}\n"

    @pytest.mark.parametrize("budget", ["0", "-5", "abc"])
    def test_unusable_memory_variable_is_named(self, budget, monkeypatch, capsys):
        monkeypatch.setenv("SAMPSPECTRA_MAX_MEM", budget)
        assert main(["mse", "--d", "1", "--M", "2", "--beta", "0.5", "--snr", "10",
                     "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "SAMPSPECTRA_MAX_MEM" in captured.err


class TestDeterminism:
    def test_thread_count_never_changes_bytes(self, tmp_path):
        base = ["mse", "--d", "1,2", "--M", "4", "--beta", "0.3,0.6",
                "--snr-grid", "0:20:10", "--trials", "4", "--seed", "11"]
        outputs = []
        for threads in ("1", "3"):
            out = tmp_path / f"t{threads}.csv"
            result = run_cli(*base, "--threads", threads, "--out", str(out))
            assert result.returncode == 0, result.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_repeat_run_is_identical(self, tmp_path):
        base = ["spectrum", "--d", "2", "--M", "2", "--beta", "0.5",
                "--trials", "6", "--bins", "16", "--seed", "3"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for path, threads in ((first, "2"), (second, "1")):
            result = run_cli(*base, "--threads", threads, "--out", str(path))
            assert result.returncode == 0, result.stderr
        assert first.read_bytes() == second.read_bytes()


class TestImport:
    def test_cli_import_leaves_scipy_unloaded(self):
        # Neither the command line nor the MP quadrature needs scipy.
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, sampspectra.cli\n"
             "from sampspectra.marchenko_pastur import mp_expectation\n"
             "mp_expectation(lambda x: x, 0.5)\n"
             "print('scipy' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_mp_import_loads_no_other_package_module(self):
        # The law is a function of beta alone: moments stays unloaded.
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, sampspectra.marchenko_pastur\n"
             "print('\\n'.join(sorted(m for m in sys.modules"
             " if m.startswith('sampspectra.'))))"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "sampspectra.errors", "sampspectra.marchenko_pastur",
        ]

    def test_cli_import_leaves_thread_pools_unloaded(self):
        # Only collect_spectra with more than one thread needs them.
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, sampspectra.cli\n"
             "print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


def run_python(code):
    """Run ``code`` in a fresh interpreter and return its stdout."""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


# Runs one command line through main with stdout captured, then prints the
# package modules it loaded, each on its own line.
LOADED_BY_MAIN = """
import contextlib, io, sys
import sampspectra.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({argv!r}) == 0
print("\\n".join(sorted(m for m in sys.modules if m.startswith("sampspectra."))))
"""

MOMENTS_P9 = ["moments", "--p", "9", "--d", "1,2,3", "--beta", "0.1,0.4,0.8",
              "--format", "json"]


class TestLazySimulation:
    SIMULATION = {"sampspectra.field_sim", "sampspectra._linalg",
                  "sampspectra.marchenko_pastur"}

    @pytest.mark.parametrize("argv", [
        ["moments", "--p", "9", "--d", "1,2,3", "--beta", "0.1,0.4,0.8"],
        ["volume", "1,2,1,2"],
    ])
    def test_exact_commands_leave_the_simulation_unloaded(self, argv):
        loaded = set(run_python(LOADED_BY_MAIN.format(argv=argv)).split())
        assert "sampspectra.moments" in loaded
        assert not loaded & self.SIMULATION

    def test_mp_lmmse_loads_the_limit_law_only(self):
        loaded = set(run_python(LOADED_BY_MAIN.format(
            argv=["mp", "--beta", "0.5", "--snr", "0"])).split())
        assert "sampspectra.marchenko_pastur" in loaded
        assert "sampspectra.field_sim" not in loaded

    def test_moments_main_imports_only_the_class_table(self):
        # The benchmark times main after `import sampspectra.cli`: set-up
        # loads what `moments` runs, and main adds only the class table,
        # which volumes.table_rows imports on its first call.
        out = run_python(
            "import contextlib, io, sys\n"
            "import sampspectra.cli as cli\n"
            "def ours():\n"
            "    return {m for m in sys.modules if m.startswith('sampspectra.')}\n"
            "before = ours()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({MOMENTS_P9!r}) == 0\n"
            "print(' '.join(sorted(before)))\n"
            "print(' '.join(sorted(ours() - before)))\n")
        before, added = out.splitlines()
        assert before.split() == [
            "sampspectra.cli", "sampspectra.combinatorics", "sampspectra.errors",
            "sampspectra.moments", "sampspectra.volumes",
        ]
        assert added.split() == ["sampspectra._core_classes"]

    def test_wrappers_set_before_main_are_the_functions_called(self):
        # perfbench/tracer.py replaces these attributes before the first
        # simulation command runs; main must call the replacements.
        argv = ["mse", "--d", "1", "--M", "2", "--beta", "0.4,0.7", "--snr", "0,10",
                "--trials", "2", "--seed", "3", "--format", "json"]
        out = run_python(
            "import contextlib, io, json\n"
            "import sampspectra.cli as cli\n"
            "calls = {}\n"
            "def counting(name):\n"
            "    fn = getattr(cli, name)\n"
            "    def wrapper(*args, **kwargs):\n"
            "        calls[name] = calls.get(name, 0) + 1\n"
            "        return fn(*args, **kwargs)\n"
            "    return wrapper\n"
            "for name in ('collect_spectra', 'empirical_lmmse', 'mp_lmmse'):\n"
            "    setattr(cli, name, counting(name))\n"
            "buffer = io.StringIO()\n"
            "with contextlib.redirect_stdout(buffer):\n"
            f"    assert cli.main({argv!r}) == 0\n"
            "print(json.dumps({'calls': calls, 'output': buffer.getvalue()}))\n")
        traced = json.loads(out)
        assert traced["calls"] == {"collect_spectra": 2, "empirical_lmmse": 4,
                                   "mp_lmmse": 4}
        plain = run_cli(*argv)
        assert plain.returncode == 0, plain.stderr
        assert traced["output"] == plain.stdout
