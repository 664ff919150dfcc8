import math
from collections import Counter
from fractions import Fraction

import pytest

from sampspectra.combinatorics import (
    MAX_ORDER,
    bell,
    catalan,
    iter_cores,
    iter_partition_paths,
    multigraph_class,
    narayana,
    reduce_path,
    stirling2,
)
from sampspectra.errors import CapacityError
from sampspectra.moments import (
    crossing_envelope,
    moment_eval,
    moment_expansion,
    moment_limit,
    symbolic_expansion,
)
from sampspectra.volumes import volume_exact, volume_of

ONE = Fraction(1)


class TestExpansionStructure:
    def test_first_order_is_trivial(self):
        expansion = moment_expansion(1)
        assert expansion.term_map() == {(ONE, 1): 1}
        for d in (1, 2, 5):
            assert moment_eval(expansion, d, 0.7) == 1.0

    def test_second_order(self):
        # Two partitions of {1,2}, both with volume 1.
        assert moment_expansion(2).term_map() == {(ONE, 1): 1, (ONE, 2): 1}

    def test_third_order_has_no_crossings(self):
        assert moment_expansion(3).term_map() == {
            (ONE, 1): 1, (ONE, 2): 3, (ONE, 3): 1,
        }

    def test_fourth_order(self):
        # The single crossing partition [1,2,1,2] contributes 2/3.
        assert moment_expansion(4).term_map() == {
            (ONE, 1): 1,
            (ONE, 2): 6, (Fraction(2, 3), 2): 1,
            (ONE, 3): 6,
            (ONE, 4): 1,
        }

    def test_sixth_order(self):
        # Frozen after cross-checking every volume against the lattice
        # counts; multiplicities per block count sum to S(6, k).
        assert moment_expansion(6).term_map() == {
            (ONE, 1): 1,
            (ONE, 2): 15, (Fraction(2, 3), 2): 15, (Fraction(11, 20), 2): 1,
            (ONE, 3): 50, (Fraction(2, 3), 3): 36, (Fraction(1, 2), 3): 4,
            (ONE, 4): 50, (Fraction(2, 3), 4): 15,
            (ONE, 5): 15,
            (ONE, 6): 1,
        }

    @pytest.mark.parametrize("p", range(1, 9))
    def test_matches_per_path_reference(self, p):
        # Reference without the class machinery or any cache: reduce every
        # path and count its survivor's lattice points.
        reference = {}
        for labels in iter_partition_paths(p):
            key = (volume_exact(reduce_path(labels)), max(labels))
            reference[key] = reference.get(key, 0) + 1
        assert moment_expansion(p).term_map() == reference

    def test_class_counts_are_binomial(self):
        # Partitions per (core class, block count), counted by enumeration,
        # against A_c C(p, k - v_c) C(p, k + e_c - v_c). The empty class
        # holds the non-crossing partitions, counted by Narayana numbers.
        cores = Counter(
            multigraph_class(core) for e in range(1, 10) for core in iter_cores(e)
        )
        for p in range(1, 10):
            counted = Counter(
                (multigraph_class(reduce_path(labels).labels), max(labels))
                for labels in iter_partition_paths(p)
            )
            expected = {((), k): narayana(p, k) for k in range(1, p + 1)}
            for cls, count in cores.items():
                e = sum(m for _, _, m in cls)
                v = 1 + max(w for _, w, _ in cls)
                for k in range(v, p + 1):
                    n = count * math.comb(p, k - v) * math.comb(p, k + e - v)
                    if n:
                        expected[(cls, k)] = n
            assert counted == expected, p

    def test_per_class_sum_matches_per_core_sum(self):
        # moment_expansion asks one volume per class and weights it by the
        # class's core count; summing core by core, with each core's volume
        # looked up by volume_of, must give the same terms.
        classes = {multigraph_class(core) for e in range(1, 11) for core in iter_cores(e)}
        orders = [sum(m for _, _, m in cls) for cls in classes]
        assert (sum(e <= 9 for e in orders), len(orders)) == (15, 35)
        for p in range(1, 11):
            per_core = {(ONE, k): narayana(p, k) for k in range(1, p + 1)}
            for e in range(1, p + 1):
                for core in iter_cores(e):
                    volume, v = volume_of(core), max(core)
                    for k in range(v, p - e + v + 1):
                        n = math.comb(p, k - v) * math.comb(p, k + e - v)
                        per_core[(volume, k)] = per_core.get((volume, k), 0) + n
            assert moment_expansion(p).term_map() == per_core, p

    @pytest.mark.parametrize("p", [10, 11, 12, 13, 14])
    def test_tenth_order_structure(self, p):
        by_k = {}
        for t in moment_expansion(p).terms:
            by_k.setdefault(t.k, []).append(t)
        assert sorted(by_k) == list(range(1, p + 1))
        for k, terms in by_k.items():
            assert sum(t.multiplicity for t in terms) == stirling2(p, k)
            assert sum(t.multiplicity for t in terms if t.volume == 1) == narayana(p, k)
            assert all(0 < t.volume <= Fraction(2, 3) for t in terms if t.volume != 1)

    def test_order_cap(self):
        with pytest.raises(CapacityError):
            moment_expansion(MAX_ORDER + 1)


class TestEvaluation:
    def test_exact_rational_value(self):
        # By hand: 1/8 + (6 + 2/3)/4 + 6/2 + 1 = 139/24.
        expansion = moment_expansion(4)
        value = moment_eval(expansion, 1, Fraction(1, 2))
        assert value == Fraction(139, 24)
        assert moment_eval(expansion, 1, 0.5) == pytest.approx(139 / 24, abs=1e-12)

    def test_beta_one_is_mean_free_case(self):
        # At beta = 1 the first-order value stays 1 and higher orders match
        # the expansion term sums exactly.
        expansion = moment_expansion(4)
        value = moment_eval(expansion, 2, ONE)
        assert value == 1 + 6 + Fraction(4, 9) + 6 + 1

    def test_decreases_with_dimension(self):
        expansion = moment_expansion(6)
        values = [moment_eval(expansion, d, 0.8) for d in range(1, 7)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > moment_limit(6, 0.8) for v in values)

    def test_converges_into_envelope(self):
        # The bound is attained at p=4, beta=1 (the lone crossing partition
        # has volume exactly 2/3), so allow rounding slack at equality.
        for p in (4, 5, 6):
            expansion = moment_expansion(p)
            for d in range(1, 11):
                for beta in (0.2, 0.7, 1.0):
                    gap = moment_eval(expansion, d, beta) - moment_limit(p, beta)
                    assert 0 <= gap <= crossing_envelope(p, d) * (1 + 1e-12)

    def test_argument_validation(self):
        expansion = moment_expansion(3)
        with pytest.raises(ValueError):
            moment_eval(expansion, 0, 0.5)
        with pytest.raises(ValueError):
            moment_eval(expansion, 1, 0.0)
        with pytest.raises(ValueError):
            moment_eval(expansion, 1, 1.2)


class TestLimitPolynomial:
    def test_known_values(self):
        assert moment_limit(1, 0.4) == pytest.approx(1.0)
        assert moment_limit(2, 0.4) == pytest.approx(1.4)
        assert moment_limit(3, 0.5) == pytest.approx(2.75)
        assert moment_limit(4, 0.5) == pytest.approx(5.625)

    def test_beta_one_gives_central_catalan(self):
        # Sum of all Narayana numbers of order p.
        assert moment_limit(4, 1.0) == pytest.approx(14.0)
        assert moment_limit(6, 1.0) == pytest.approx(132.0)

    @pytest.mark.parametrize("p", [522, 560, 600])
    def test_exact_sum_past_every_float_narayana_number(self, p):
        # From p = 522 on, Nar(p, k) exceeds the float range for some k, so
        # the sum at beta = 0.01 is taken exactly and rounded once.
        with pytest.raises(OverflowError):
            float(narayana(p, (p + 1) // 2))
        beta = Fraction(0.01)
        exact = sum(narayana(p, k) * beta ** (p - k) for k in range(1, p + 1))
        assert moment_limit(p, 0.01) == float(exact)

    def test_envelope_is_positive_and_shrinks(self):
        values = [crossing_envelope(4, d) for d in range(1, 8)]
        assert values[0] == pytest.approx((15 - 14) * (2 / 3))
        assert all(a > b > 0 for a, b in zip(values, values[1:]))


class TestSymbolicForm:
    @pytest.mark.parametrize("p, text", [
        (1, "1"),
        (2, "b + 1"),
        (3, "b^2 + 3 b + 1"),
        (4, "b^3 + (6 + (2/3)^d) b^2 + 6 b + 1"),
        (5, "b^4 + (10 + 5*(2/3)^d) b^3 + (20 + 5*(2/3)^d) b^2 + 10 b + 1"),
    ])
    def test_low_orders(self, p, text):
        assert symbolic_expansion(moment_expansion(p)) == text

    def test_eighth_order_coefficient(self):
        # Frozen from the expansion itself; the three multiplicities sum to
        # S(8, 5) = 1050, which pins the crossing split at that block count.
        text = symbolic_expansion(moment_expansion(8))
        assert "(490 + 448*(2/3)^d + 112*(1/2)^d) b^3" in text
        assert text.startswith("b^7 + ")
        assert text.endswith("+ 28 b + 1")


class TestOrderRule:
    # Every function of an order p shares one rule: an integer, at least 1
    # (at least 0 where the empty partition counts).
    @pytest.mark.parametrize("call", [
        lambda: moment_expansion(2.5),
        lambda: moment_limit(2.5, 0.5),
        lambda: stirling2(2.5, 2),
        lambda: narayana(2.5, 1),
        lambda: bell(2.5),
        lambda: catalan(2.5),
        lambda: list(iter_partition_paths(2.5)),
        lambda: list(iter_cores(2.5)),
    ], ids=["moment_expansion", "moment_limit", "stirling2", "narayana", "bell",
            "catalan", "iter_partition_paths", "iter_cores"])
    def test_non_integral_order_is_refused(self, call):
        with pytest.raises(ValueError, match="order must be an integer, got 2.5"):
            call()
