"""The committed core-class table that ``moment_expansion`` reads.

Rows through e = 12 are rebuilt from the cores by the script that wrote the
table; the rows of order 13 and 14 are checked one by one.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

import sampspectra._core_classes
import sampspectra.combinatorics
import sampspectra.moments
import sampspectra.volumes
from sampspectra.combinatorics import multigraph_class, reduce_path
from sampspectra.errors import IntegrityError
from sampspectra.moments import moment_expansion
from sampspectra.volumes import volume_exact

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "core_classes.py"
ROWS = sampspectra._core_classes.CORE_CLASSES.splitlines()
# 155 rows of order at most 12, then 166 of order 13 and 521 of order 14.
ROWS_OF_ORDER = {13: ROWS[155:321], 14: ROWS[321:]}


def _load_script():
    spec = importlib.util.spec_from_file_location("core_classes_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse(row):
    core, count, volume = row.split(" ")
    return tuple(int(label) for label in core.split(",")), int(count), Fraction(volume)


def test_rows_through_twelve_are_rebuilt():
    script = _load_script()
    built = [row for e in range(1, 13) for row in script.class_rows(e)]
    assert built == ROWS[:len(built)]
    assert len(built) == 155
    assert len(parse(ROWS[len(built)])[0]) == 13


def test_rows_are_sorted_by_order():
    orders = [len(parse(row)[0]) for row in ROWS]
    assert orders == sorted(orders)
    assert len(ROWS) == 842


def test_every_row_is_its_own_class():
    assert len({multigraph_class(parse(row)[0]) for row in ROWS}) == len(ROWS)


@pytest.mark.parametrize("e", [13, 14])
def test_rows_past_twelve_are_cores_with_their_volume(e):
    for row in ROWS_OF_ORDER[e]:
        core, count, volume = parse(row)
        assert reduce_path(core).labels == core, row
        assert len(core) == e and count >= 1, row
        assert volume_exact(core) == volume, row


def _patched_table(monkeypatch, index, change):
    core, count, volume = parse(ROWS[index])
    rows = list(ROWS)
    rows[index] = " ".join(map(str, change(",".join(map(str, core)), count, volume)))
    monkeypatch.setattr(sampspectra._core_classes, "CORE_CLASSES", "\n".join(rows) + "\n")
    return len(core)


@pytest.mark.parametrize("index", [0, 154, -1])
def test_a_wrong_core_count_is_rejected(index, monkeypatch):
    p = _patched_table(monkeypatch, index, lambda core, count, volume: (core, count + 1, volume))
    with pytest.raises(IntegrityError, match=f"S\\({p}, "):
        moment_expansion(p)


@pytest.mark.parametrize("index", [0, -1])
def test_a_volume_above_two_thirds_is_rejected(index, monkeypatch):
    p = _patched_table(monkeypatch, index,
                       lambda core, count, volume: (core, count, Fraction(3, 4)))
    with pytest.raises(IntegrityError, match="3/4 outside"):
        moment_expansion(p)


def test_rows_above_the_order_are_not_read(monkeypatch):
    # A corrupt order-14 row leaves every lower order alone.
    _patched_table(monkeypatch, -1, lambda core, count, volume: (core, count, Fraction(3, 4)))
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
