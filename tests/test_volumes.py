import functools
import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sampspectra._core_classes
import sampspectra.volumes
from sampspectra.combinatorics import (
    PartitionPath,
    is_crossing,
    iter_cores,
    iter_partition_paths,
    multigraph_class,
    reduce_path,
)
from sampspectra.errors import CapacityError, ConvergenceError, IntegrityError
from sampspectra.volumes import (
    table_rows,
    volume_exact,
    volume_of,
    volume_quadrature,
    zeta_count,
)


CLASS_VOLUMES = {
    "1212": Fraction(2, 3),
    "121212": Fraction(11, 20),
    "121323": Fraction(1, 2),
    "1212313": Fraction(9, 20),
    "12121212": Fraction(151, 315),
    "12121313": Fraction(4, 9),
    "12121323": Fraction(71, 180),
    "12123434": Fraction(9, 20),
    "12132434": Fraction(11, 30),
    "12134243": Fraction(2, 5),
    "121212313": Fraction(233, 630),
    "121213434": Fraction(4, 9),
    "121231323": Fraction(12, 35),
    "121231434": Fraction(61, 180),
    "121314234": Fraction(19, 60),
    "1212121212": Fraction(15619, 36288),
    "1212121313": Fraction(11, 30),
    "1212121323": Fraction(1699, 5040),
    "1212123434": Fraction(233, 630),
    "1212131323": Fraction(1597, 5040),
    "1212131434": Fraction(1, 3),
    "1212132434": Fraction(92, 315),
    "1212134243": Fraction(43, 140),
    "1212134343": Fraction(4, 9),
    "1212313414": Fraction(383, 1260),
    "1212313424": Fraction(47, 168),
    "1212313434": Fraction(383, 1260),
    "1212323414": Fraction(43, 140),
    "1212343545": Fraction(61, 180),
    "1212345453": Fraction(4, 9),
    "1213142324": Fraction(181, 630),
    "1213243545": Fraction(49, 180),
    "1213245354": Fraction(13, 45),
    "1213452543": Fraction(1, 3),
    "1231425345": Fraction(1, 4),
}


def zeta_brute(labels, M):
    # Direct enumeration of integer vectors in [-M, M]^p against the
    # constraint matrix: row j - 1 weighs block j's positions +1 and their
    # circular successors -1. Exponential, so keep p and M tiny.
    labels = np.array(labels)
    blocks = np.arange(1, labels.max(initial=0) + 1)[:, None]
    W = (labels == blocks).astype(int) - (np.roll(labels, 1) == blocks)
    count = 0
    for z in itertools.product(range(-M, M + 1), repeat=len(labels)):
        if not (W @ z).any():
            count += 1
    return count


def class_representatives(max_order):
    # The first core that iter_cores gives for each multigraph class.
    reps = {}
    for e in range(1, max_order + 1):
        for core in iter_cores(e):
            reps.setdefault(multigraph_class(core), core)
    return list(reps.values())


def relabelled(labels):
    # Renumber blocks by first appearance, back to restricted growth.
    seen = {}
    return tuple(seen.setdefault(v, len(seen) + 1) for v in labels)


def lagrange_eval(points, x):
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if i != j:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


def monomial_coefficients(xs, ys):
    # Interpolating polynomial through (xs, ys), lowest degree first.
    newton = [Fraction(y) for y in ys]
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            newton[i] = (newton[i] - newton[i - 1]) / (xs[i] - xs[i - level])
    poly = []
    for x0, c in zip(reversed(xs), reversed(newton)):
        # poly <- poly * (x - x0) + c
        poly = [c] + poly
        for j in range(len(poly) - 1):
            poly[j] -= x0 * poly[j + 1]
    return poly


def _to_rgs(raw):
    labels = []
    mx = 0
    for r in raw:
        label = 1 + r % (mx + 1)
        labels.append(label)
        mx = max(mx, label)
    return tuple(labels)


class TestZetaCount:
    @pytest.mark.parametrize("p", range(1, 6))
    @pytest.mark.parametrize("M", [0, 1, 2])
    def test_matches_brute_force(self, p, M):
        for labels in iter_partition_paths(p):
            assert zeta_count(labels, M) == zeta_brute(labels, M)

    def test_single_block_is_free(self):
        assert zeta_count([1, 1, 1], 2) == 125
        assert zeta_count([1], 7) == 15

    def test_alternating_pair_sequence(self):
        # Frozen from the brute-force oracle above.
        assert [zeta_count([1, 2, 1, 2], M) for M in range(6)] == [
            1, 19, 85, 231, 489, 891,
        ]

    def test_zero_width_box(self):
        for labels in [(1,), (1, 2, 1, 2), (1, 2, 3, 1, 2, 3)]:
            assert zeta_count(labels, 0) == 1

    @pytest.mark.parametrize("M", [2.5, 2.0])
    def test_non_integral_order_is_refused(self, M):
        with pytest.raises(ValueError, match="M must be an integer"):
            zeta_count([1, 2, 1, 2], M)

    def test_big_count_falls_back_to_exact_objects(self):
        # (2M+1)^p over 2^62 switches the tally to Python integers. The
        # count is a degree-11 polynomial in 2M+1, so interpolating the
        # small-M values and extrapolating checks the wide path exactly.
        labels = (1, 2) * 6
        points = [(2 * M + 1, zeta_count(labels, M)) for M in range(12)]
        expected = lagrange_eval(points, 2 * 18 + 1)
        assert expected.denominator == 1
        assert zeta_count(labels, 18) == expected.numerator

    @given(st.lists(st.integers(0, 10), min_size=1, max_size=5).map(_to_rgs),
           st.integers(0, 2))
    @settings(deadline=None, max_examples=60)
    def test_matches_brute_force_random(self, labels, M):
        assert zeta_count(labels, M) == zeta_brute(labels, M)

    def test_every_class_to_order_eight_matches_brute_force(self):
        cores = class_representatives(8)
        assert len(cores) == 10
        for core in cores:
            assert zeta_count(core, 1) == zeta_brute(core, 1), core

    def test_rotation_reflection_and_relabelling_keep_the_count(self):
        # Each variant walks the same multigraph from another start or the
        # other way round, so its blocks are renumbered, a different block
        # is dropped and the edges are added in a different order.
        for core in class_representatives(9):
            expected = [zeta_count(core, M) for M in (1, 2)]
            for shift in range(len(core)):
                rotated = core[shift:] + core[:shift]
                for variant in (rotated, rotated[::-1]):
                    variant = relabelled(variant)
                    assert [zeta_count(variant, M) for M in (1, 2)] == expected, variant


class TestVolumeExact:
    def test_empty_path(self):
        assert volume_exact(PartitionPath.of([])) == 1

    @pytest.mark.parametrize("labels, value", [
        ([1], 1), ([1, 1], 1), ([1, 2], 1), ([1, 2, 2, 1], 1),
        ([1, 2, 1, 2], Fraction(2, 3)),
        ([1, 2, 1, 2, 1, 2], Fraction(11, 20)),
        ([1, 2, 3, 1, 2, 3], Fraction(1, 2)),
        ([1, 2, 1, 3, 2, 3], Fraction(1, 2)),
        ([1, 2, 3, 4, 1, 2, 3, 4], Fraction(2, 5)),
    ])
    def test_known_volumes(self, labels, value):
        # Fractions frozen from the interpolation itself after its lattice
        # counts were cross-checked against brute-force enumeration.
        assert volume_exact(PartitionPath.of(labels)) == value

    def test_class_volumes_to_order_ten(self):
        # Frozen from the constraint-matrix lattice counts that preceded the
        # flow count, keyed by the first core of each class.
        assert {"".join(map(str, core)): volume_exact(core)
                for core in class_representatives(10)} == CLASS_VOLUMES

    def test_volume_in_unit_interval(self):
        for p in range(1, 7):
            for labels in iter_partition_paths(p):
                v = volume_of(labels)
                assert 0 < v <= 1

    def test_invariant_under_reduction(self):
        for p in range(1, 7):
            for labels in iter_partition_paths(p):
                direct = volume_exact(PartitionPath.of(labels))
                assert direct == volume_of(labels)

    @pytest.mark.parametrize("labels", [
        [1], [1, 2, 1, 2], [1, 2, 3, 1, 2, 3], [1, 2, 1, 2, 1, 2],
    ], ids=lambda labels: "".join(map(str, labels)))
    def test_any_corrupted_count_is_rejected(self, labels, monkeypatch):
        # Every count enters the top divided difference with a non-zero
        # weight, so one wrong count at any M of the fit moves a difference
        # that must vanish.
        path = PartitionPath.of(labels)
        true_zeta = sampspectra.volumes.zeta_count
        # The parity fit uses M = 0..D//2+2, D = p - k + 1, and counts all
        # but M = 0, whose count is 1.
        counted = list(range(1, (path.p - path.k + 1) // 2 + 3))
        seen = []
        monkeypatch.setattr(
            sampspectra.volumes, "zeta_count",
            lambda path, M: seen.append(M) or true_zeta(path, M),
        )
        volume_exact(path)
        assert seen == counted
        for bad_M in counted:
            monkeypatch.setattr(
                sampspectra.volumes, "zeta_count",
                lambda path, M, bad_M=bad_M: true_zeta(path, M) + (M == bad_M),
            )
            with pytest.raises(IntegrityError, match="lattice count mismatch"):
                volume_exact(path)

    def test_zero_width_box_is_never_counted(self, monkeypatch):
        # zeta_0 is 1, so volume_exact takes it as given; the frozen class
        # volumes come out the same.
        true_zeta = sampspectra.volumes.zeta_count
        asked = set()
        monkeypatch.setattr(
            sampspectra.volumes, "zeta_count",
            lambda path, M: asked.add(M) or true_zeta(path, M),
        )
        assert {"".join(map(str, core)): volume_exact(core)
                for core in class_representatives(10)} == CLASS_VOLUMES
        assert 0 not in asked and 1 in asked

    @pytest.mark.parametrize("bad_M", [4, 5])
    def test_non_polynomial_counts_are_rejected(self, bad_M, monkeypatch):
        # [1,2,1,2,1,2,1,2] has degree D = 7, so the parity fit counts
        # M = 0..5 and M = 4 and 5 are its two vanishing checkpoints.
        true_zeta = sampspectra.volumes.zeta_count

        def corrupted(path, M):
            value = true_zeta(path, M)
            return value + 1 if M == bad_M else value

        monkeypatch.setattr(sampspectra.volumes, "zeta_count", corrupted)
        with pytest.raises(IntegrityError, match=f"M={bad_M}:"):
            volume_exact(PartitionPath.of([1, 2, 1, 2, 1, 2, 1, 2]))

    def test_full_fit_has_the_parity_of_its_degree(self):
        # Independent of the parity fit: interpolate the counts at
        # M = 0..D+2 in x = 2M + 1 by a polynomial of degree D + 2, expand
        # it into monomials, and check that only degrees D, D-2, ... occur.
        cores = class_representatives(10)
        assert len(cores) == 35
        for core in cores:
            path = PartitionPath.of(core)
            degree = path.p - path.k + 1
            xs = [2 * M + 1 for M in range(degree + 3)]
            coeffs = monomial_coefficients(
                xs, [zeta_count(path, M) for M in range(degree + 3)]
            )
            assert not any(coeffs[degree + 1:]), core
            assert not any(coeffs[degree - 1::-2]), core
            assert coeffs[degree] == volume_exact(path), core


@pytest.fixture
def fresh_class_index():
    """volume_of builds its class index from the table the test patches,
    and no later test reads that index."""
    sampspectra.volumes._class_volumes.cache_clear()
    yield
    sampspectra.volumes._class_volumes.cache_clear()


class TestVolumeOf:
    def test_reduces_first(self):
        assert volume_of([1, 2, 1, 2, 2]) == Fraction(2, 3)
        assert volume_of([1, 1, 2, 1, 2]) == Fraction(2, 3)
        assert volume_of([1, 2, 3, 2, 2, 1]) == 1

    def test_reads_the_table_without_counting(self, monkeypatch):
        # The 21 survivors of p <= 7, then every core of order 13 and 14 with
        # a singleton block appended, which reduction removes first.
        survivors = sorted({reduce_path(labels).labels
                            for p in range(1, 8) for labels in iter_partition_paths(p)})
        expected = [volume_exact(labels) for labels in survivors]
        rows = [(labels + (max(labels) + 1,), volume)
                for labels, _, volume in table_rows(14) if len(labels) >= 13]
        assert (len(survivors), len(rows)) == (21, 166 + 521)

        def never(*args):
            raise AssertionError("lattice count at run time")

        monkeypatch.setattr(sampspectra.volumes, "volume_exact", never)
        monkeypatch.setattr(sampspectra.volumes, "zeta_count", never)
        assert [volume_of(labels) for labels in survivors] == expected
        for labels, volume in rows:
            assert volume_of(labels) == volume, labels

    def test_core_past_the_table_is_refused(self):
        with pytest.raises(CapacityError, match="path order 16 exceeds the maximum 14"):
            volume_of([1, 2, 3, 4, 5, 6, 7, 8] * 2)

    def test_core_missing_from_the_table_is_an_integrity_error(
            self, monkeypatch, fresh_class_index):
        lines = sampspectra._core_classes.CORE_CLASSES.splitlines()
        dropped = next(line for line in lines if line.split(" ")[0].count(",") == 7)
        core = [int(label) for label in dropped.split(" ")[0].split(",")]
        monkeypatch.setattr(sampspectra._core_classes, "CORE_CLASSES",
                            "\n".join(line for line in lines if line != dropped))
        with pytest.raises(IntegrityError, match=re.escape(str(PartitionPath.of(core)))):
            volume_of(core)

    def test_random_removal_order_gives_same_volume(self):
        # Independent reducer: apply the two removal rules at positions
        # chosen at random rather than by the canonical scan. The lattice
        # count of that core must equal the table's volume for the path.
        def moves(labels):
            p = len(labels)
            out = []
            for i in range(1, p + 1):
                if labels.count(labels[i - 1]) == 1:
                    out.append(i)
                elif p > 1 and labels[i - 1] == labels[i % p]:
                    out.append(i)
            return out

        def remove(labels, i):
            rest = labels[: i - 1] + labels[i:]
            seen = {}
            return tuple(seen.setdefault(lab, len(seen) + 1) for lab in rest)

        rng = random.Random(20260815)
        pool = [labels for p in range(3, 8) for labels in iter_partition_paths(p)]
        for labels in rng.sample(pool, 60):
            scrambled = labels
            while True:
                options = moves(scrambled)
                if not options:
                    break
                scrambled = remove(scrambled, rng.choice(options))
            assert volume_exact(PartitionPath.of(scrambled)) == volume_of(labels)
            assert reduce_path(scrambled).p == reduce_path(labels).p


def class_key(labels):
    return multigraph_class(reduce_path(labels).labels)


class TestMultigraphClass:
    def test_non_crossing_paths_form_the_empty_class(self):
        for p in range(1, 8):
            for labels in iter_partition_paths(p):
                assert (class_key(labels) == ()) == (not is_crossing(labels))

    def test_every_survivor_has_its_class_volume(self):
        # volume_of reads the committed table by class, volume_exact counts
        # lattice points for the survivor itself: the two sources must agree
        # on every survivor of its class.
        survivors = {reduce_path(labels).labels
                     for p in range(1, 8) for labels in iter_partition_paths(p)}
        pool = [labels for p in (8, 9) for labels in iter_partition_paths(p)]
        rng = random.Random(20261018)
        rng.shuffle(pool)
        sampled = set()
        for labels in pool:
            reduced = reduce_path(labels).labels
            if len(reduced) >= 8:
                sampled.add(reduced)
                if len(sampled) == 100:
                    break
        assert len(survivors) == 21 and len(sampled) == 100
        for labels in sorted(survivors) + sorted(sampled):
            survivor = PartitionPath.of(labels)
            assert volume_exact(survivor) == volume_of(survivor), labels

    def test_relabelling_blocks_keeps_the_class(self):
        rng = random.Random(7)
        pool = [labels for p in range(4, 10) for labels in iter_partition_paths(p)]
        for labels in rng.sample(pool, 300):
            # A relabelled path is not restricted-growth, so relabel the
            # core it reduces to.
            core = reduce_path(labels).labels
            k = max(core, default=0)
            images = rng.sample(range(1, k + 1), k)
            relabelled = [images[v - 1] for v in core]
            assert multigraph_class(relabelled) == class_key(labels), (labels, relabelled)

    def test_multiplicities_separate_classes(self):
        # Both walks run around the 4-cycle 1-2-3-4 and are fully reduced:
        # every edge doubled, against edges 1-2 and 3-4 tripled and 2-3 and
        # 4-1 single. Same vertices, edges and underlying simple graph.
        doubled = (1, 2, 3, 4, 1, 2, 3, 4)
        uneven = (1, 2, 1, 2, 3, 4, 3, 4)
        for labels in (doubled, uneven):
            assert reduce_path(labels).labels == labels
        assert class_key(doubled) != class_key(uneven)
        assert volume_exact(PartitionPath.of(doubled)) == Fraction(2, 5)
        assert volume_exact(PartitionPath.of(uneven)) != Fraction(2, 5)


class TestVolumeQuadrature:
    def test_alternating_pair(self):
        q = volume_quadrature(PartitionPath.of([1, 2, 1, 2]), tolerance=1e-6)
        assert abs(q - 2 / 3) < 1e-5

    def test_two_dimensional(self):
        q = volume_quadrature(PartitionPath.of([1, 2, 3, 1, 2, 3]), tolerance=1e-4)
        assert abs(q - 0.5) < 5e-4

    def test_three_dimensional(self):
        q = volume_quadrature(
            PartitionPath.of([1, 2, 3, 4, 1, 2, 3, 4]), tolerance=1e-3
        )
        assert abs(q - 0.4) < 5e-3

    def test_extrapolation_reaches_the_slow_four_block_tail(self):
        # The truncation error of 1,2,1,2,3,4,3,4 only halves per doubling
        # of the half-width; extrapolated, it is within 1e-5 by Y = 64.
        path = PartitionPath.of([1, 2, 1, 2, 3, 4, 3, 4])
        assert volume_exact(path) == Fraction(9, 20)
        q = volume_quadrature(path, tolerance=1e-5)
        assert abs(q - 9 / 20) < 1e-5

    def test_reduced_sample_agrees_with_exact(self):
        unique = {}
        for p in range(1, 9):
            for labels in iter_partition_paths(p):
                red = reduce_path(labels)
                if red.p and red.k - 1 <= 2:
                    unique[red.labels] = red
        chosen = sorted(unique)[::5]
        assert len(chosen) >= 10
        for labels in chosen:
            path = unique[labels]
            q = volume_quadrature(path, tolerance=1e-4)
            assert abs(q - float(volume_exact(path))) <= 5e-4, labels

    @pytest.mark.parametrize("labels", [
        [1, 2, 1, 2], [1, 2, 3, 1, 2, 3], [1, 2, 3, 1, 4, 2, 3, 4],
    ])
    def test_nyquist_step_leaves_only_truncation_error(self, labels):
        # The midpoint rule at the Nyquist step is exact on the whole space,
        # so at a fixed half-width a finer step barely moves the estimate,
        # while a wider grid moves it by the truncated tail.
        path = PartitionPath.of(labels)
        rate = sampspectra.volumes._nyquist_rate(path)
        estimate = functools.partial(sampspectra.volumes._grid_estimate, path)
        base = estimate(8, rate)
        finer = estimate(8, 2 * rate)
        wider = estimate(16, rate)
        assert abs(finer - base) < 0.01 * abs(wider - base)

    def test_rejects_unreduced_or_unsupported(self):
        with pytest.raises(ValueError):
            volume_quadrature(PartitionPath.of([1, 1, 2]), tolerance=1e-4)
        with pytest.raises(ValueError):
            volume_quadrature(PartitionPath.of([]), tolerance=1e-4)
        with pytest.raises(ValueError):
            volume_quadrature(PartitionPath.of([1, 2, 1, 2]), tolerance=0.0)
        wide = PartitionPath.of([1, 2, 3, 4, 5, 1, 2, 3, 4, 5])
        with pytest.raises(ValueError):
            volume_quadrature(wide, tolerance=1e-3)

    def test_nan_tolerance_is_refused(self):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            volume_quadrature(PartitionPath.of([1, 2, 1, 2]), float("nan"))

    def test_grid_over_the_cap_is_refused_before_work(self, monkeypatch):
        # Two half-widths of [1,2,1,2] need 2 * 16 * 4 = 128 points per axis.
        def never(*args):
            raise AssertionError("grid estimated")

        monkeypatch.setattr(sampspectra.volumes, "_MAX_POINTS", {1: 127})
        monkeypatch.setattr(sampspectra.volumes, "_grid_estimate", never)
        with pytest.raises(CapacityError):
            volume_quadrature(PartitionPath.of([1, 2, 1, 2]), tolerance=1e-6)

    def test_unreachable_tolerance_reports_estimates(self):
        with pytest.raises(ConvergenceError) as info:
            volume_quadrature(PartitionPath.of([1, 2, 1, 2]), tolerance=1e-17)
        estimates = info.value.estimates
        assert len(estimates) >= 2
        assert all(abs(e - 2 / 3) < 1e-3 for e in estimates)

    def test_unconverged_error_keeps_the_last_two_estimates(self):
        # The three-dimensional cap stops the half-width at 256 for this
        # path, short of 1e-12; both of the last two estimates are
        # reported, not the last one twice.
        with pytest.raises(ConvergenceError) as info:
            volume_quadrature(PartitionPath.of([1, 2, 3, 4, 1, 2, 3, 4]), tolerance=1e-12)
        first, last = info.value.estimates
        assert first != last
        assert f"{first} and {last}" in str(info.value)
