"""Each output check passes the program's real output and rejects a corrupted one.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json

import pytest

import checks
import run
import worker
from sampspectra import cli

SEED = 7


def cli_output(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(argv) == 0
    return buffer.getvalue()


def edit(output, change):
    doc = json.loads(output)
    change(doc)
    return json.dumps(doc)


# --- moments-p9 -------------------------------------------------------------------


@pytest.fixture(scope="module")
def moments_output():
    return cli_output(worker.MOMENTS_ARGV)


def moments_problems(output):
    return checks.check_moments(output, 9, [1, 2, 3], [0.1, 0.4, 0.8])


def symbolic_replace(old, new):
    def change(doc):
        assert old in doc["symbolic p=9"]
        doc["symbolic p=9"] = doc["symbolic p=9"].replace(old, new, 1)
    return change


def test_moments_output_passes(moments_output):
    assert moments_problems(moments_output) == []


def test_reference_sequences():
    assert [checks.stirling2(4, k) for k in range(1, 5)] == [1, 7, 6, 1]
    assert [checks.narayana(4, k) for k in range(1, 5)] == [1, 6, 6, 1]


@pytest.mark.parametrize("old, new, expected", [
    ("(11/20)^d", "(11/21)^d", "!= expansion"),     # a volume nudged off its value
    ("(2/3)^d", "(7/10)^d", "outside (0, 2/3]"),   # a crossing volume above 2/3
    ("(36 + ", "(35 + ", "N(9,2)"),                # unit-volume part off Narayana
    ("126*(2/3)^d", "125*(2/3)^d", "S(9,2)"),      # a multiplicity off Stirling
])
def test_moments_rejects_corrupted_expansion(moments_output, old, new, expected):
    problems = moments_problems(edit(moments_output, symbolic_replace(old, new)))
    assert any(expected in p for p in problems), problems


def test_moments_rejects_wrong_limit(moments_output):
    def change(doc):
        doc["rows"][4][4] *= 1 + 1e-9
    problems = moments_problems(edit(moments_output, change))
    assert any("Narayana" in p for p in problems), problems


def test_moments_rejects_moment_that_does_not_fall_with_d(moments_output):
    def change(doc):
        # d=2 and d=1 rows at beta=0.1 trade places in value
        doc["rows"][0][3], doc["rows"][3][3] = doc["rows"][3][3], doc["rows"][0][3]
    problems = moments_problems(edit(moments_output, change))
    assert any("do not fall strictly" in p for p in problems), problems


# --- mse-d3m4 ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def mse_output():
    return cli_output(worker.mse_argv(SEED))


def jensen_bound(row):
    alpha_beta = 10.0 ** (-row[4] / 10.0) * row[3]
    return alpha_beta / (1 + alpha_beta)


def mse_problems(output):
    return checks.check_mse(output, 3, 4, [0.4, 0.8], run.SNR_GRID, worker.MSE_TRIALS,
                            SEED, run.MSE_GAP_LIMITS)


def set_cell(row, column, value):
    def change(doc):
        doc["rows"][row][checks.MSE_COLUMNS.index(column)] = value(doc["rows"][row])
    return change


def test_mse_output_passes(mse_output):
    assert mse_problems(mse_output) == []


def test_mse_quadrature_matches_closed_form():
    from sampspectra.marchenko_pastur import mp_lmmse

    for beta in (0.1, 0.4, 0.8):
        for alpha in (1.0, 0.1, 0.001):
            assert abs(checks.mp_quadrature(beta, alpha) - mp_lmmse(beta, alpha)) < 1e-12


@pytest.mark.parametrize("row, column, value, expected", [
    # a row set below its Jensen bound alpha beta / (1 + alpha beta)
    (3, "mse_empirical", lambda r: 0.999 * jensen_bound(r), "outside ["),
    (2, "mse_mp", lambda r: r[5] + 1e-6, "quadrature"),
    (9, "mse_empirical", lambda r: r[6] + 0.04, "gap to MP"),
    (0, "r", lambda r: r[2] + 1, "expected max(round(N/beta), N+1)"),
    (8, "mse_empirical", lambda r: r[6] * 0.5, "does not fall as SNR rises"),
    (5, "seed", lambda r: r[9] + 1, "row echoes"),
])
def test_mse_rejects_corrupted_row(mse_output, row, column, value, expected):
    problems = mse_problems(edit(mse_output, set_cell(row, column, value)))
    assert any(expected in p for p in problems), problems


def test_mse_rejects_a_flipped_byte_in_the_repeated_output(mse_output):
    first = {"output": mse_output}
    assert run.check("mse-d3m4", SEED, {"output": mse_output}, first) == []
    i = mse_output.index("0.", mse_output.index('"rows"')) + 2
    flipped = mse_output[:i] + chr(ord(mse_output[i]) ^ 1) + mse_output[i + 1:]
    problems = run.check("mse-d3m4", SEED, {"output": flipped}, first)
    assert any("differs from the run's first repetition" in p for p in problems), problems


# --- reconstruct-d2m10 ----------------------------------------------------------------


@pytest.fixture(scope="module")
def reconstruction():
    record, _ = worker.run_reconstruct(SEED, trace=False)
    return record


def test_reconstruct_passes(reconstruction):
    r = reconstruction
    assert checks.check_reconstruct(r["mse"], r["mu"], r["alpha"]) == []


def test_reconstruct_rejects_biased_errors(reconstruction):
    r = reconstruction
    # one standard error is about 1.1% of the mean at 40 draws
    biased = [m * 1.1 for m in r["mse"]]
    assert checks.check_reconstruct(biased, r["mu"], r["alpha"]) != []


def test_reconstruct_rejects_the_wrong_spectrum(reconstruction):
    r = reconstruction
    assert checks.check_reconstruct(r["mse"], [m * 1.1 for m in r["mu"]], r["alpha"]) != []


def test_unreadable_output_is_a_failed_check():
    assert run.check("moments-p9", SEED, {"output": "not json"}, None)
    assert run.check("mse-d3m4", SEED, {"output": '{"columns": []}'}, None)
