"""The committed core-class table that ``moment_expansion`` and ``volume_of`` read.

Rows are read through the table's one reader, ``volumes.table_rows``. Rows
through e = 12 are rebuilt from the cores by the script that writes the
table; the rows of order 13 and 14 are checked one by one.
"""

import importlib.util
import itertools
import runpy
from fractions import Fraction
from pathlib import Path

import pytest

import sampspectra._core_classes
import sampspectra.combinatorics
import sampspectra.moments
import sampspectra.volumes
from sampspectra.combinatorics import MAX_ORDER, multigraph_class, reduce_path
from sampspectra.errors import IntegrityError
from sampspectra.moments import moment_expansion
from sampspectra.volumes import table_rows, volume_exact

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "core_classes.py"
ROWS = list(table_rows(MAX_ORDER))
ROWS_OF_ORDER = {
    e: list(rows) for e, rows in itertools.groupby(ROWS, key=lambda row: len(row[0]))
}


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("core_classes_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def rebuilt(script):
    return {e: script.class_rows(e) for e in range(1, 13)}


def _use_table(monkeypatch, tmp_path, script, rows):
    """Write ``rows`` with the script and let ``moment_expansion`` read them."""
    path = tmp_path / "table.py"
    script.write_table(rows, path)
    monkeypatch.setattr(sampspectra._core_classes, "CORE_CLASSES",
                        runpy.run_path(str(path))["CORE_CLASSES"])


def test_rows_through_twelve_are_rebuilt(rebuilt):
    for e in range(1, 13):
        assert rebuilt[e] == ROWS_OF_ORDER.get(e, []), e


def test_written_rows_read_back_unchanged(rebuilt, script, tmp_path, monkeypatch):
    written = [row for e in range(1, 13) for row in rebuilt[e]]
    _use_table(monkeypatch, tmp_path, script, written)
    assert list(table_rows(MAX_ORDER)) == ROWS[:len(written)] == written


def test_rows_are_sorted_by_order():
    orders = [len(labels) for labels, _, _ in ROWS]
    assert orders == sorted(orders)
    assert len(ROWS) == 842
    assert len(ROWS) - len(ROWS_OF_ORDER[13]) - len(ROWS_OF_ORDER[14]) == 155
    assert (len(ROWS_OF_ORDER[13]), len(ROWS_OF_ORDER[14])) == (166, 521)


def test_every_row_is_its_own_class():
    assert len({multigraph_class(labels) for labels, _, _ in ROWS}) == len(ROWS)


@pytest.mark.parametrize("e", [13, 14])
def test_rows_past_twelve_are_cores_with_their_volume(e):
    for labels, count, volume in ROWS_OF_ORDER[e]:
        assert reduce_path(labels).labels == labels, labels
        assert count >= 1, labels
        assert volume_exact(labels) == volume, labels


def _patched_table(monkeypatch, tmp_path, script, index, change):
    labels, count, volume = ROWS[index]
    rows = list(ROWS)
    rows[index] = (labels, *change(count, volume))
    _use_table(monkeypatch, tmp_path, script, rows)
    return len(labels)


@pytest.mark.parametrize("index", [0, 154, -1])
def test_a_wrong_core_count_is_rejected(index, monkeypatch, tmp_path, script):
    p = _patched_table(monkeypatch, tmp_path, script, index,
                       lambda count, volume: (count + 1, volume))
    with pytest.raises(IntegrityError, match=f"S\\({p}, "):
        moment_expansion(p)


@pytest.mark.parametrize("index", [0, -1])
def test_a_volume_above_two_thirds_is_rejected(index, monkeypatch, tmp_path, script):
    p = _patched_table(monkeypatch, tmp_path, script, index,
                       lambda count, volume: (count, Fraction(3, 4)))
    with pytest.raises(IntegrityError, match="3/4 outside"):
        moment_expansion(p)


def test_rows_above_the_order_are_not_read(monkeypatch, tmp_path, script):
    # A corrupt order-14 row leaves every lower order alone.
    _patched_table(monkeypatch, tmp_path, script, -1,
                   lambda count, volume: (count, Fraction(3, 4)))
    assert len(moment_expansion(13).terms) == 399


def test_expansion_lists_no_core_and_counts_no_lattice_point(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("run-time enumeration or lattice count")

    expected = moment_expansion(12)
    for module, name in [
        (sampspectra.combinatorics, "iter_cores"),
        (sampspectra.combinatorics, "multigraph_class"),
        (sampspectra.volumes, "volume_exact"),
        (sampspectra.volumes, "zeta_count"),
    ]:
        monkeypatch.setattr(module, name, never)
        monkeypatch.setattr(sampspectra.moments, name, never, raising=False)
    assert moment_expansion(12) == expected
    assert len(expected.terms) == 210
