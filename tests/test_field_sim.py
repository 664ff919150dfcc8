import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from sampspectra import _linalg, field_sim
from sampspectra.errors import CapacityError, IntegrityError
from sampspectra.field_sim import (
    FieldRealization,
    SamplingInstance,
    _gram_bytes,
    build_G,
    build_T,
    check_trial_budget,
    collect_spectra,
    draw_realization,
    empirical_lmmse,
    estimate_bytes,
    frequency_grid,
    hermitian_eigenvalues,
    instance_for,
    reconstruct_field,
    rng_for,
    trial_sizes,
)


def complex_G(instance):
    """The complex synthesis matrix N^(-1/2) exp(-2 pi j x_q . ell), as an oracle."""
    grid = frequency_grid(instance.M, instance.d)
    return np.exp(-2j * np.pi * (grid @ instance.X.T)) / np.sqrt(len(grid))


def hartley_frame(n):
    """W = e^(-i pi/4) (I + iJ) / sqrt(2), J the n x n exchange matrix."""
    return np.exp(-0.25j * np.pi) * (np.eye(n) + 1j * np.eye(n)[::-1]) / np.sqrt(2)


def direct_generator(instance):
    """S[k] = mean_q exp(-2 pi j x_q . k) for every k in [-2M..2M]^d, flat.

    Summed over blocks of 256 points, so that d = 1, M = 600 holds 10 MB
    of phasors at a time, not 92 MB.
    """
    k = frequency_grid(2 * instance.M, instance.d)
    blocks = np.split(instance.X, range(256, instance.r, 256))
    return sum(np.exp(-2j * np.pi * (k @ X.T)).sum(axis=1) for X in blocks) / instance.r


class TestIndexing:
    @pytest.mark.parametrize("M, d", [(1, 1), (2, 2), (1, 3), (3, 2)])
    def test_grid_rows_round_trip(self, M, d):
        # Row i holds the frequency vector with mixed-radix index
        # nu(ell) = sum_m (2M+1)^(m-1) ell_m = i - (N-1)/2.
        grid = frequency_grid(M, d)
        n = (2 * M + 1) ** d
        assert grid.shape == (n, d)
        nu = grid @ (2 * M + 1) ** np.arange(d)
        assert np.array_equal(nu, np.arange(n) - (n - 1) // 2)


class TestRng:
    def test_streams_are_reproducible_and_distinct(self):
        a = rng_for(7, 1).random(4)
        b = rng_for(7, 1).random(4)
        c = rng_for(7, 2).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_tuple_seed_extends_entropy(self):
        assert np.array_equal(rng_for((5, 3)).random(3), rng_for(5, 3).random(3))


class TestInstances:
    def test_point_count_from_ratio(self):
        instance = instance_for(1, 10, 0.5, 0)
        assert instance.r == 42
        assert instance.beta == pytest.approx(21 / 42)
        assert instance.X.shape == (42, 1)
        assert ((instance.X >= 0) & (instance.X < 1)).all()

    def test_oversampling_floor(self):
        # Near-unit ratios still get at least one extra sample point.
        instance = instance_for(1, 2, 0.99, 0)
        assert instance.r == 6

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            instance_for(1, 5, 0.0, 0)
        with pytest.raises(ValueError):
            instance_for(1, 5, 1.0, 0)
        with pytest.raises(ValueError):
            instance_for(0, 2, 1 / 50, 0)
        with pytest.raises(ValueError):
            instance_for(1, -1, 0.5, 0)

    @pytest.mark.parametrize("d, M", [(1.5, 2), (1, 2.5), (2.0, 1), (1, 2.0)])
    def test_non_integral_sizes_are_refused(self, d, M):
        # N = (2M+1)^d and the point array's shape need integers.
        with pytest.raises(ValueError, match="must be an integer"):
            trial_sizes(d, M, 0.5)
        with pytest.raises(ValueError, match="must be an integer"):
            instance_for(d, M, 0.5, 0)

    def test_budget_estimate_grows_with_order(self):
        assert estimate_bytes(1, 20, 0.5) < estimate_bytes(1, 40, 0.5)
        assert estimate_bytes(2, 3, 0.5) < estimate_bytes(3, 3, 0.5)


class TestSynthesisMatrix:
    def test_single_point_column(self):
        # One sample at x = 1/4 with M = 1: the phases 2 pi x ell are -pi/2,
        # 0 and pi/2, whose cas = cos + sin are -1, 1 and 1, scaled by 3^(-1/2).
        instance = SamplingInstance(d=1, M=1, r=1, beta=3.0, X=np.array([[0.25]]))
        G = build_G(instance)
        assert G.dtype == np.float64
        expected = np.array([-1.0, 1.0, 1.0]) / np.sqrt(3)
        assert np.allclose(G[:, 0], expected, atol=1e-15)

    @pytest.mark.parametrize("d, M", [(1, 7), (2, 3), (3, 2), (4, 1), (2, 0)])
    def test_gram_is_the_hartley_product(self, d, M):
        # W* G is the real Hartley matrix, so R = W* T W = beta Gr Gr^T.
        instance = instance_for(d, M, 0.5, (29, d, M))
        G = build_G(instance)
        W = hartley_frame(len(G))
        assert np.max(np.abs(W.conj().T @ complex_G(instance) - G)) <= 1e-12
        R = build_T(instance)
        assert np.max(np.abs(R - instance.beta * (G @ G.T))) <= 1e-12

    @staticmethod
    def real_form(T):
        W = hartley_frame(len(T))
        return W.conj().T @ T @ W

    def test_gram_entries_match_direct_sum(self):
        # R = Re T + J Im T: each entry is the real part of the empirical
        # average of one oscillation over the sample points plus the
        # imaginary part of another; T's own diagonal is exactly 1.
        instance = instance_for(1, 3, 7 / 40, 7)
        R = build_T(instance)
        x = instance.X[:, 0]
        ell = np.arange(7) - 3

        def direct(k):
            return np.mean(np.exp(-2j * np.pi * k * x))

        for i in range(7):
            for j in range(7):
                re = 1.0 if i == j else direct(ell[i] - ell[j]).real
                expected = re + direct(-ell[i] - ell[j]).imag
                assert abs(R[i, j] - expected) < 1e-12
        assert R[3, 3] == 1.0

    def test_gram_entries_multidimensional(self):
        instance = instance_for(2, 1, 9 / 60, 11)
        R = build_T(instance)
        grid = frequency_grid(1, 2)

        def direct(k):
            return np.mean(np.exp(-2j * np.pi * (instance.X @ k)))

        for i in range(9):
            for j in range(9):
                diff = grid[i] - grid[j]
                re = 1.0 if not diff.any() else direct(diff).real
                expected = re + direct(-grid[i] - grid[j]).imag
                assert abs(R[i, j] - expected) < 1e-12

    @pytest.mark.parametrize("d, M", [(1, 7), (2, 3), (3, 2), (4, 1)])
    def test_toeplitz_assembly_matches_gram_product(self, d, M):
        instance = instance_for(d, M, 0.5, (19, d, M))
        G = complex_G(instance)
        T = instance.beta * (G @ G.conj().T)
        np.fill_diagonal(T, 1.0)
        R = build_T(instance)
        assert R.dtype == np.float64
        assert np.max(np.abs(R - self.real_form(T))) <= 1e-12

    @pytest.mark.parametrize("d, M", [(1, 7), (2, 3), (3, 2), (4, 1), (2, 0)])
    def test_real_form_keeps_the_spectrum(self, d, M):
        instance = instance_for(d, M, 0.5, (23, d, M))
        G = build_G(instance)
        expected = np.linalg.eigvalsh(instance.beta * (G @ G.conj().T))
        lam = hermitian_eigenvalues(build_T(instance))
        assert np.max(np.abs(lam - expected)) <= 1e-12

    def test_gather_that_drops_the_imaginary_part_fails(self, monkeypatch):
        # Re T alone is real symmetric too, but it has a smaller Frobenius
        # norm than T; the identity on the generating values tells them apart.
        assemble = field_sim._assemble_real
        monkeypatch.setattr(field_sim, "_assemble_real",
                            lambda re, im: assemble(re, 0 * im))
        with pytest.raises(IntegrityError, match="Frobenius"):
            build_T(instance_for(2, 3, 0.5, 5))

    def test_gather_that_leaves_a_nan_fails(self, monkeypatch):
        assemble = field_sim._assemble_real

        def with_nan(re, im):
            R = assemble(re, im)
            R[0, 1] = R[1, 0] = np.nan
            return R

        monkeypatch.setattr(field_sim, "_assemble_real", with_nan)
        with pytest.raises(IntegrityError, match="Frobenius"):
            build_T(instance_for(2, 3, 0.5, 5))

    @pytest.mark.parametrize("d, M", [(1, 5), (2, 2), (3, 1), (4, 1),
                                      (1, 0), (2, 0), (3, 0), (4, 0), (1, 600)])
    def test_half_generator_matches_direct_sum(self, d, M):
        # Only k_{d-1} >= 0 is summed; the mirrored rest must equal the sum.
        # The phasors of step k are k products of the unit step, so (1, 600),
        # whose k reaches 1200, bounds the error that recurrence adds.
        instance = instance_for(d, M, 0.5, (41, d, M))
        S = field_sim._toeplitz_generator(instance)
        assert S.shape == (4 * M + 1,) * d
        assert np.max(np.abs(S.ravel() - direct_generator(instance))) <= 1e-12

    def test_generator_mirrored_without_conjugate_fails(self, monkeypatch):
        # Re S is even in k but Im S is odd: copying the half-space without
        # conjugating flips the sign of Im S on the other half. The direct
        # sum sees it, and so does the Frobenius check of build_T, since the
        # Toeplitz and Hankel parts of R no longer cancel in ||R||_F^2.
        def copy_only(S, M):
            flipped = S[(slice(None, None, -1),) * S.ndim]
            S[:2 * M] = flipped[:2 * M]

        monkeypatch.setattr(field_sim, "_mirror", copy_only)
        instance = instance_for(2, 2, 0.5, (41, 2, 2))
        S = field_sim._toeplitz_generator(instance)
        assert np.max(np.abs(S.ravel() - direct_generator(instance))) > 1e-3
        with pytest.raises(IntegrityError, match="Frobenius"):
            build_T(instance)

    def test_chunked_sums_match_one_chunk(self, monkeypatch):
        instance = instance_for(2, 3, 0.5, 6)
        whole = build_T(instance)
        point = field_sim._generator_point_bytes(2, 3)
        monkeypatch.setattr(field_sim, "_GENERATOR_CHUNK_BYTES", 7 * point)
        assert field_sim._generator_chunk(2, 3) == 7
        assert np.max(np.abs(build_T(instance) - whole)) <= 1e-14

    def test_memory_budget_enforced(self, monkeypatch):
        with pytest.raises(CapacityError):
            build_T(instance_for(1, 200, 0.5, 0), max_bytes=10_000)
        monkeypatch.setenv("SAMPSPECTRA_MAX_MEM", "10000")
        with pytest.raises(CapacityError):
            build_G(instance_for(1, 200, 0.5, 0))

    @pytest.mark.parametrize("d, M", [(1, 30), (2, 6), (3, 2), (4, 1), (2, 10)])
    def test_synthesis_budget_covers_measured_working_set(self, d, M, monkeypatch):
        # build_G's one array is the real N x r matrix, made in place.
        instance = instance_for(d, M, 0.5, 3)
        counted = 8 * (2 * M + 1) ** d * instance.r
        tracemalloc.start()
        try:
            build_G(instance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counted / 2 <= peak <= counted + 2**19
        monkeypatch.setenv("SAMPSPECTRA_MAX_MEM", str(counted - 1))
        with pytest.raises(CapacityError, match="build_G"):
            build_G(instance)
        monkeypatch.setenv("SAMPSPECTRA_MAX_MEM", str(counted))
        build_G(instance)

    # (1, 600) sums its generating values over several chunks of points;
    # (3, 4) and (4, 2) fail if the budget leaves out the Khatri-Rao block.
    @pytest.mark.parametrize("d, M", [(1, 30), (2, 6), (3, 2), (4, 1), (1, 600), (3, 4), (4, 2)])
    def test_budget_covers_measured_working_set(self, d, M):
        # The counted bytes bound what build_T really allocates, up to the
        # fixed-size buffers numpy's ufuncs use for casts and broadcasts.
        instance = instance_for(d, M, 0.5, 3)
        counted = _gram_bytes(d, M, instance.r)
        tracemalloc.start()
        try:
            build_T(instance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counted / 2 <= peak <= counted + 2**19
        with pytest.raises(CapacityError):
            build_T(instance, max_bytes=counted - 1)


class TestSpectra:
    def test_eigenvalues_clamped_sorted_and_traced(self):
        instance = instance_for(1, 8, 0.4, 11)
        lam = hermitian_eigenvalues(build_T(instance))
        assert (lam >= 0).all()
        assert (np.diff(lam) >= 0).all()
        assert lam.sum() == pytest.approx(17, rel=1e-12)
        assert np.mean(lam) == pytest.approx(1.0, rel=1e-12)

    def test_hermitian_check_works_in_row_blocks(self):
        # The check and the eigensolve allocate a small fraction of T
        # (numpy's linalg copy of T is not visible to tracemalloc).
        instance = instance_for(3, 4, 0.5, 1)
        T = build_T(instance)
        tracemalloc.start()
        try:
            hermitian_eigenvalues(T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * T.nbytes

    def test_rejects_non_hermitian(self):
        # N=81 spans two 64-row blocks of the Hermitian check; the entries
        # lie in different block pairs.
        for M, i, j in [(3, 0, 1), (40, 80, 79), (40, 2, 70), (40, 70, 2)]:
            instance = instance_for(1, M, 0.5, 0)
            T = build_T(instance)
            T[i, j] += 1e-3
            with pytest.raises(IntegrityError, match="non-Hermitian"):
                hermitian_eigenvalues(T)

    def test_rejects_complex_symmetric(self):
        # The simulation works in the real frame only: complex input is
        # rejected, even when it is Hermitian.
        instance = instance_for(1, 40, 0.5, 0)
        T = build_T(instance).astype(complex)
        with pytest.raises(ValueError, match="real symmetric"):
            hermitian_eigenvalues(T)

    @pytest.mark.parametrize("i, j", [(0, 1), (80, 79), (2, 70), (40, 40)])
    def test_rejects_a_symmetric_nan(self, i, j):
        # T stays symmetric, but every comparison with nan is false, so the
        # check must fail on it before eigvalsh raises numpy's LinAlgError.
        instance = instance_for(1, 40, 0.5, 0)
        T = build_T(instance)
        T[i, j] = T[j, i] = np.nan
        with pytest.raises(IntegrityError, match="non-Hermitian"):
            hermitian_eigenvalues(T)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.ones((3, 4)))

    def test_spectral_error_form(self):
        instance = instance_for(1, 6, 0.5, 3)
        lam, beta = hermitian_eigenvalues(build_T(instance)), instance.beta
        assert empirical_lmmse(lam, beta, 0.0) == 0.0
        shift = 0.1 * beta
        direct = float(np.mean(shift / (lam + shift)))
        assert empirical_lmmse(lam, beta, 0.1) == pytest.approx(direct, rel=1e-14)
        assert empirical_lmmse(lam, beta, 1e9) == pytest.approx(1.0, abs=1e-6)
        for alpha in (-0.5, np.nan, np.inf):
            with pytest.raises(ValueError):
                empirical_lmmse(lam, beta, alpha)

    def test_spectral_error_form_is_row_wise(self):
        # One value per row of a (trials, N) array, equal as floats to each
        # row on its own; at alpha = 0 a clamped zero gives 0, not 0/0.
        spectra = collect_spectra(1, 6, 0.5, trials=7, seed=3)
        n_coeff, r = trial_sizes(1, 6, 0.5)
        beta = n_coeff / r
        for alpha in (0.0, 0.1, 3.0):
            rows = empirical_lmmse(spectra, beta, alpha)
            assert rows.shape == (7,)
            assert list(rows) == [empirical_lmmse(lam, beta, alpha) for lam in spectra]
        clamped = np.array([[0.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
        assert list(empirical_lmmse(clamped, 0.5, 0.0)) == [0.0, 0.0]


class TestSpectrumChecks:
    """A corrupted eigensolver result must fail a check that needs no
    eigenvectors: the trace or the Frobenius identity."""

    @pytest.fixture
    def case(self):
        T = build_T(instance_for(2, 2, 0.5, 5))
        return T, np.linalg.eigvalsh(T)

    @staticmethod
    def solver_returns(monkeypatch, eigenvalues):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda _: eigenvalues)

    def test_unpatched_spectrum_passes(self, case):
        T, lam = case
        assert np.allclose(hermitian_eigenvalues(T), lam, atol=1e-14)

    def test_single_shift_fails_trace(self, case, monkeypatch):
        T, lam = case
        bad = lam.copy()
        bad[-1] += 1e-6
        self.solver_returns(monkeypatch, bad)
        with pytest.raises(IntegrityError, match="disagrees with trace"):
            hermitian_eigenvalues(T)

    def test_trace_preserving_pair_shift_fails_frobenius(self, case, monkeypatch):
        T, lam = case
        bad = lam.copy()
        bad[len(bad) // 2] -= 1e-4
        bad[-1] += 1e-4
        assert abs(bad.sum() - lam.sum()) < 1e-12
        self.solver_returns(monkeypatch, bad)
        with pytest.raises(IntegrityError, match="Frobenius"):
            hermitian_eigenvalues(T)

    def test_spectrum_of_nudged_matrix_fails_frobenius(self, case, monkeypatch):
        # Hermitian and with the same diagonal, so its spectrum keeps the
        # trace of T; only the sum of squares can tell the two apart.
        T, _ = case
        nudged = T.copy()
        step = 1e-3 * T[0, 1] / abs(T[0, 1])
        nudged[0, 1] += step
        nudged[1, 0] += np.conj(step)
        self.solver_returns(monkeypatch, np.linalg.eigvalsh(nudged))
        with pytest.raises(IntegrityError, match="Frobenius"):
            hermitian_eigenvalues(T)

    def test_nan_spectrum_fails_trace(self, case, monkeypatch):
        T, lam = case
        bad = lam.copy()
        bad[-1] = np.nan
        self.solver_returns(monkeypatch, bad)
        with pytest.raises(IntegrityError, match="disagrees with trace"):
            hermitian_eigenvalues(T)

    def test_eigenvalue_below_clamp_floor(self):
        # A Hermitian unit-diagonal matrix that no Gram matrix can be: its
        # lowest eigenvalue is 1 - sqrt(2). Trace and Frobenius identities
        # hold, so only the clamp floor rejects it.
        T = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float)
        with pytest.raises(IntegrityError, match="clamping floor"):
            hermitian_eigenvalues(T)


class TestCollect:
    def test_thread_count_never_changes_results(self):
        serial = collect_spectra(1, 6, 0.5, trials=6, seed=77, threads=1)
        threaded = collect_spectra(1, 6, 0.5, trials=6, seed=77, threads=4)
        assert serial.shape == threaded.shape == (6, 13)
        assert np.array_equal(serial, threaded)

    def test_trials_are_distinct_and_reproducible(self):
        once = collect_spectra(1, 5, 0.5, trials=3, seed=9)
        again = collect_spectra(1, 5, 0.5, trials=3, seed=9)
        assert np.array_equal(once, again)
        assert not np.array_equal(once[0], once[1])

    def test_rows_are_the_trials_spectra(self):
        # Row t is trial t's own verified spectrum, under the key (seed, t).
        spectra = collect_spectra(2, 2, 0.4, trials=3, seed=(4, 1))
        assert spectra.dtype == np.float64 and spectra.flags.c_contiguous
        for t, row in enumerate(spectra):
            instance = instance_for(2, 2, 0.4, (4, 1, t))
            assert np.array_equal(row, hermitian_eigenvalues(build_T(instance)))

    def test_list_seed_matches_the_tuple_seed(self):
        listed = collect_spectra(1, 3, 0.5, trials=2, seed=[1, 2])
        assert np.array_equal(listed, collect_spectra(1, 3, 0.5, trials=2, seed=(1, 2)))

    def test_kept_spectra_hold_eight_bytes_an_eigenvalue(self):
        # N = 5: the returned array holds 40 bytes a trial plus one header.
        # What it holds is what dropping it frees; caches and free lists
        # that the trials filled stay out of the count.
        trials, n_coeff = 5000, 5
        tracemalloc.start()
        try:
            spectra = collect_spectra(1, 2, 0.5, trials=trials, seed=0)
            shape = spectra.shape
            held = tracemalloc.get_traced_memory()[0]
            del spectra
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert shape == (trials, n_coeff)
        assert held <= 8 * n_coeff * trials + 1024

    def test_kept_spectra_alone_past_the_budget_fail_before_work(self, monkeypatch):
        # One trial at N = 5 needs kilobytes; 10^6 of them keep 40 MB.
        built = []
        monkeypatch.setattr(field_sim, "build_T", lambda *a, **k: built.append(a))
        budget = 8 * 5 * 10**6 - 1
        assert estimate_bytes(1, 2, 0.5) < budget // 1000
        with pytest.raises(CapacityError, match="spectra of 1000000"):
            check_trial_budget(1, 2, 0.5, trials=10**6, max_bytes=budget)
        with pytest.raises(CapacityError):
            collect_spectra(1, 2, 0.5, trials=10**6, seed=0, max_bytes=budget)
        assert built == []

    def test_argument_and_budget_checks(self):
        with pytest.raises(ValueError):
            collect_spectra(1, 5, 0.5, trials=0, seed=0)
        with pytest.raises(CapacityError):
            collect_spectra(1, 100, 0.5, trials=1, seed=0, max_bytes=10_000)

    def test_threaded_peak_within_checked_budget(self):
        # Four threads run four trials at once; the check counts all four.
        checked = 4 * estimate_bytes(3, 4, 0.5) + 8 * 729 * 4
        with pytest.raises(CapacityError):
            collect_spectra(3, 4, 0.5, trials=4, seed=1, threads=4, max_bytes=checked - 1)
        tracemalloc.start()
        try:
            collect_spectra(3, 4, 0.5, trials=4, seed=1, threads=4, max_bytes=checked)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= checked

    def test_concurrent_trials_over_budget_fail_before_work(self, monkeypatch):
        one_trial = estimate_bytes(1, 20, 0.5) + 8 * 41 * 4
        collect_spectra(1, 20, 0.5, trials=2, seed=0, threads=1, max_bytes=one_trial)
        check_trial_budget(1, 20, 0.5, trials=4, threads=1, max_bytes=one_trial)
        built = []
        monkeypatch.setattr(field_sim, "build_T", lambda *a, **k: built.append(a))
        with pytest.raises(CapacityError, match="4 concurrent"):
            collect_spectra(1, 20, 0.5, trials=4, seed=0, threads=4,
                            max_bytes=2 * one_trial)
        assert built == []

    @pytest.mark.parametrize("d, M, fits", [
        (3, 10, True), (3, 11, False), (2, 53, True), (2, 54, False),
        (1, 4000, True), (1, 5791, True), (1, 5792, False), (1, 5793, False),
    ])
    def test_default_budget_caps(self, d, M, fits, monkeypatch):
        # One trial needs 16 N^2 bytes at these sizes, and its kept spectrum
        # 8 N more, so the 2 GiB default stops at N = 11583 (d=1), M = 53
        # (d=2) and M = 10 (d=3).
        monkeypatch.delenv("SAMPSPECTRA_MAX_MEM", raising=False)
        if fits:
            check_trial_budget(d, M, 0.5, 1)
        else:
            with pytest.raises(CapacityError):
                check_trial_budget(d, M, 0.5, 1)

    @pytest.mark.parametrize("d, M, beta", [
        (0, 3, 0.5), (1, -1, 0.5), (1, 3, 1.0), (1, 3, 0.0), (1, 3, float("nan")),
    ])
    def test_invalid_sizes_are_rejected(self, d, M, beta):
        with pytest.raises(ValueError):
            estimate_bytes(d, M, beta)
        with pytest.raises(ValueError):
            check_trial_budget(d, M, beta, trials=1)

    @pytest.mark.parametrize("trials, threads", [(0, 1), (1, 0), (2, -1)])
    def test_nonpositive_counts_fail_before_work(self, trials, threads, monkeypatch):
        built = []
        monkeypatch.setattr(field_sim, "build_T", lambda *a, **k: built.append(a))
        with pytest.raises(ValueError):
            check_trial_budget(1, 3, 0.5, trials, threads)
        with pytest.raises(ValueError):
            collect_spectra(1, 3, 0.5, trials=trials, seed=0, threads=threads)
        assert built == []

    @pytest.mark.parametrize("trials, threads", [(2.5, 1), (2, 1.5), (2.0, 1)])
    def test_non_integral_counts_are_refused(self, trials, threads):
        with pytest.raises(ValueError, match="must be an integer"):
            check_trial_budget(1, 2, 0.5, trials, threads)

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("SAMPSPECTRA_MAX_MEM", "10000")
        with pytest.raises(CapacityError):
            collect_spectra(1, 100, 0.5, trials=1, seed=0)


class TestReconstruction:
    def test_sample_vector_consistency(self):
        instance = instance_for(1, 5, 0.5, 21)
        G = build_G(instance)
        realization = draw_realization(instance, 0.25, (21, 0), G=G)
        assert realization.p.shape == (instance.r,)
        assert np.allclose(realization.p - realization.n,
                           complex_G(instance).conj().T @ realization.a)

    def test_noiseless_recovery(self):
        instance = instance_for(1, 10, 0.5, 4242)
        G = build_G(instance)
        realization = draw_realization(instance, 0.0, (4242, 1), G=G)
        assert not realization.n.any()
        a_hat, mse = reconstruct_field(instance, realization, 1e-12, G=G)
        assert mse < 1e-18
        assert np.allclose(a_hat, realization.a, atol=1e-9)

    def test_error_matches_spectral_form_on_average(self):
        # Averaged over coefficient and noise draws, the per-draw error of
        # the solver equals the eigenvalue trace form of the same instance.
        instance = instance_for(1, 6, 0.5, 8)
        G = build_G(instance)
        lam = hermitian_eigenvalues(build_T(instance))
        alpha = 0.2
        predicted = empirical_lmmse(lam, instance.beta, alpha)
        draws = [
            reconstruct_field(instance, draw_realization(instance, alpha, (8, i), G=G),
                              alpha, G=G)[1]
            for i in range(200)
        ]
        assert np.mean(draws) == pytest.approx(predicted, rel=0.1)

    def test_estimate_matches_the_complex_normal_equations(self):
        instance = instance_for(2, 3, 0.5, 12)
        G = build_G(instance)
        alpha = 0.3
        realization = draw_realization(instance, alpha, (12, 0), G=G)
        a_hat, mse = reconstruct_field(instance, realization, alpha, G=G)
        G = complex_G(instance)
        A = G @ G.conj().T + alpha * np.eye(len(G))
        expected = np.linalg.solve(A, G @ realization.p)
        assert np.max(np.abs(a_hat - expected)) <= 1e-10
        assert mse == pytest.approx(np.linalg.norm(expected - realization.a) ** 2 / len(G),
                                    rel=1e-10)

    def test_normal_matrix_is_under_the_budget(self, monkeypatch):
        instance = instance_for(1, 20, 0.5, 0)
        G = build_G(instance)
        realization = draw_realization(instance, 0.1, (0, 0), G=G)
        monkeypatch.setenv("SAMPSPECTRA_MAX_MEM", "10000")
        with pytest.raises(CapacityError, match="build_T"):
            reconstruct_field(instance, realization, 0.1, G=G)

    @pytest.mark.parametrize("G", [
        lambda instance: complex_G(instance),
        lambda instance: build_G(instance)[:, :-1],
        lambda instance: build_G(instance).astype(np.float32),
        lambda instance: build_G(instance).tolist(),
    ], ids=["complex", "short", "float32", "list"])
    def test_draw_rejects_a_matrix_not_from_build_G(self, G):
        # A complex G would broadcast into samples of the wrong length.
        instance = instance_for(1, 4, 0.5, 0)
        with pytest.raises(ValueError, match="build_G"):
            draw_realization(instance, 0.1, (0, 0), G=G(instance))

    def test_reconstruct_rejects_a_matrix_not_from_build_G(self, monkeypatch):
        instance = instance_for(1, 4, 0.5, 0)
        realization = draw_realization(instance, 0.1, (0, 0), G=build_G(instance))
        built = []
        monkeypatch.setattr(field_sim, "build_T", lambda *a, **k: built.append(a))
        for G in (complex_G(instance), build_G(instance_for(1, 4, 0.5, 1))[:-1]):
            with pytest.raises(ValueError, match="build_G"):
                reconstruct_field(instance, realization, 0.1, G=G)
        assert built == []

    def test_another_instances_matrix_is_refused(self, monkeypatch):
        # Same shape, other sample points: over 20 draws at alpha = 0.1 that G
        # would give a mean error near 10, against 0.1 with the instance's own.
        instance = instance_for(2, 5, 0.5, (1, 0))
        G = build_G(instance)
        realization = draw_realization(instance, 0.1, (0, 0), G=G)
        corrupted = G.copy()
        corrupted[0, 0] = np.nan
        built = []
        monkeypatch.setattr(field_sim, "build_T", lambda *a, **k: built.append(a))
        for other in (build_G(instance_for(2, 5, 0.5, (2, 0))), corrupted):
            with pytest.raises(ValueError, match="build_G"):
                draw_realization(instance, 0.1, (0, 0), G=other)
            with pytest.raises(ValueError, match="build_G"):
                reconstruct_field(instance, realization, 0.1, G=other)
        assert built == []

    def test_alpha_must_be_positive(self):
        instance = instance_for(1, 4, 0.5, 0)
        G = build_G(instance)
        realization = draw_realization(instance, 0.1, (0, 0), G=G)
        with pytest.raises(ValueError):
            reconstruct_field(instance, realization, 0.0, G=G)
        with pytest.raises(ValueError):
            draw_realization(instance, -1.0, (0, 0), G=G)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_alpha_must_be_finite(self, alpha):
        instance = instance_for(1, 3, 0.5, 1)
        G = build_G(instance)
        realization = draw_realization(instance, 0.1, (1, 0), G=G)
        with pytest.raises(ValueError, match="finite"):
            draw_realization(instance, alpha, (1, 0), G=G)
        with pytest.raises(ValueError, match="finite"):
            reconstruct_field(instance, realization, alpha, G=G)


class TestNormalSystem:
    """The normal matrix is built and inverted once per (instance, alpha)."""

    @pytest.fixture
    def builds(self, monkeypatch):
        # An empty slot for the test; the one held before comes back after it.
        monkeypatch.setattr(field_sim, "_normal_slot", None)
        calls = []

        def counted(instance, *args, **kwargs):
            calls.append(instance)
            return build_T(instance, *args, **kwargs)

        monkeypatch.setattr(field_sim, "build_T", counted)
        return calls

    @staticmethod
    def complex_estimate(instance, p, alpha):
        G = complex_G(instance)
        return np.linalg.solve(G @ G.conj().T + alpha * np.eye(len(G)), G @ p)

    def test_draws_at_one_pair_build_once(self, builds):
        instance = instance_for(2, 3, 0.5, 31)
        G = build_G(instance)
        for k in range(5):
            realization = draw_realization(instance, 0.2, (31, k), G=G)
            a_hat, _ = reconstruct_field(instance, realization, 0.2, G=G)
            expected = self.complex_estimate(instance, realization.p, 0.2)
            assert np.max(np.abs(a_hat - expected)) <= 1e-10
        assert builds == [instance]

    def test_alternating_alpha_rebuilds(self, builds):
        instance = instance_for(2, 3, 0.5, 32)
        G = build_G(instance)
        for k, alpha in enumerate([0.3, 0.05, 0.3]):
            realization = draw_realization(instance, alpha, (32, k), G=G)
            a_hat, _ = reconstruct_field(instance, realization, alpha, G=G)
            expected = self.complex_estimate(instance, realization.p, alpha)
            assert np.max(np.abs(a_hat - expected)) <= 1e-10
        assert builds == [instance] * 3

    def test_equal_instances_are_built_apart(self, builds):
        first, second = instance_for(1, 6, 0.5, 33), instance_for(1, 6, 0.5, 33)
        assert np.array_equal(first.X, second.X)
        G = build_G(first)
        realization = draw_realization(first, 0.1, (33, 0), G=G)
        a_first, _ = reconstruct_field(first, realization, 0.1, G=G)
        a_second, _ = reconstruct_field(second, realization, 0.1, G=G)
        assert np.array_equal(a_first, a_second)
        assert len(builds) == 2
        assert builds[0] is first and builds[1] is second

    def test_instance_points_are_read_only(self):
        instance = instance_for(1, 4, 0.5, 34)
        with pytest.raises(ValueError):
            instance.X[0, 0] = 0.5

    def test_budget_counts_the_inverse_before_work(self, builds, monkeypatch):
        # At d=2, M=6 build_T's peak is below the 16 N^2 bytes of A and the
        # copy the kernel overwrites, plus its row blocks, so only the
        # second count rejects.
        instance = instance_for(2, 6, 0.5, 35)
        n_coeff = 13**2
        held = 16 * n_coeff**2 + _linalg.inverse_cholesky_bytes(n_coeff)
        assert _gram_bytes(2, 6, instance.r) < held
        G = build_G(instance)
        realization = draw_realization(instance, 0.1, (35, 0), G=G)
        monkeypatch.setenv("SAMPSPECTRA_MAX_MEM", str(held - 1))
        with pytest.raises(CapacityError, match="build_T"):
            reconstruct_field(instance, realization, 0.1, G=G)
        assert builds == []
        monkeypatch.setenv("SAMPSPECTRA_MAX_MEM", str(held))
        reconstruct_field(instance, realization, 0.1, G=G)
        assert builds == [instance]

    def test_budget_covers_measured_peak(self, builds, monkeypatch):
        # The peak is A, the copy the kernel overwrites and its row blocks,
        # all traced; only the leaf blocks numpy's linalg extension copies
        # are not, and the kernel's count includes them.
        instance = instance_for(2, 10, 0.5, 38)
        n_coeff = 21**2
        factor = 16 * n_coeff**2 + _linalg.inverse_cholesky_bytes(n_coeff)
        counted = max(_gram_bytes(2, 10, instance.r), factor)
        kernel, held = field_sim.inverse_cholesky, []

        def traced_kernel(A):
            tracemalloc.reset_peak()
            X = kernel(A)
            held.append(tracemalloc.get_traced_memory()[1])
            return X

        monkeypatch.setattr(field_sim, "inverse_cholesky", traced_kernel)
        tracemalloc.start()
        try:
            field_sim._normal_system(instance, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counted / 2 <= peak <= counted
        assert factor / 2 <= held[0] <= factor

    def test_default_budget_reaches_the_spectra_cap(self, monkeypatch):
        # Dense spectra at d=2 stop at M=53 under the 2 GiB default, and so
        # does reconstruction. build_T stops each run before anything N x N
        # is built.
        monkeypatch.setattr(field_sim, "_normal_slot", None)
        monkeypatch.delenv("SAMPSPECTRA_MAX_MEM", raising=False)

        class Built(Exception):
            pass

        def stop(instance, max_bytes=None):
            raise Built

        monkeypatch.setattr(field_sim, "build_T", stop)
        with pytest.raises(Built):
            field_sim._normal_system(instance_for(2, 53, 0.5, 44), 0.1)
        with pytest.raises(CapacityError, match="build_T"):
            field_sim._normal_system(instance_for(2, 54, 0.5, 44), 0.1)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 441])
    def test_lower_inverse_matches_inv(self, n):
        # inverse_cholesky's L^(-1) against inv(cholesky(A)): 64 rows are one
        # leaf; 65 and 441 split into blocks.
        rng = rng_for(40, n)
        B = rng.standard_normal((n, n + 8))
        A = B @ B.T / n + 0.1 * np.eye(n)
        expected = np.linalg.inv(np.linalg.cholesky(A))
        X = _linalg.inverse_cholesky(A.copy())
        assert not np.triu(X, 1).any()
        assert np.max(np.abs(X - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_indefinite_schur_complement_is_not_positive_definite(self):
        # [[I, 1.5 I], [1.5 I, I]] in 64-row blocks: the leading block and
        # the trailing one are positive definite, the Schur complement
        # I - 2.25 I is not.
        I = np.eye(64)
        A = np.block([[I, 1.5 * I], [1.5 * I, I]])
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            _linalg.inverse_cholesky(A)

    def test_indefinite_normal_matrix_is_an_integrity_error(self, builds, monkeypatch):
        # -R / beta + alpha I has negative eigenvalues; numpy's LinAlgError
        # must not escape.
        instance = instance_for(2, 3, 0.5, 39)
        G = build_G(instance)
        realization = draw_realization(instance, 0.1, (39, 0), G=G)
        monkeypatch.setattr(field_sim, "build_T", lambda instance: -build_T(instance))
        with pytest.raises(IntegrityError, match="not positive definite"):
            reconstruct_field(instance, realization, 0.1, G=G)

    def test_held_system_is_A_and_its_inverted_factor(self, builds):
        instance = instance_for(2, 3, 0.5, 43)
        A, L_inv, A_norm = field_sim._normal_system(instance, 0.1)
        expected = build_T(instance) / instance.beta + 0.1 * np.eye(49)
        assert np.max(np.abs(A - expected)) <= 1e-14
        assert A_norm == np.linalg.norm(A)
        assert not np.triu(L_inv, 1).any()
        assert np.max(np.abs(L_inv.T @ L_inv @ A - np.eye(49))) <= 1e-12

    def test_first_solve_that_meets_the_bound_is_returned(self, builds):
        instance = instance_for(2, 3, 0.5, 41)
        G = build_G(instance)
        realization = draw_realization(instance, 0.1, (41, 0), G=G)
        a_hat, _ = reconstruct_field(instance, realization, 0.1, G=G)
        _, L_inv, _ = field_sim._normal_system(instance, 0.1)
        B = G @ realization.p.view(float).reshape(-1, 2)
        y = (L_inv.T @ (L_inv @ B)).view(complex).ravel()
        assert np.array_equal(a_hat, (y + 1j * y[::-1]) * (0.5 - 0.5j))

    @staticmethod
    def scale_factor_inverse(monkeypatch, scale):
        # Scaling L^(-1) by sqrt(s) scales the applied inverse L^(-T) L^(-1) by s.
        inverse = field_sim.inverse_cholesky
        monkeypatch.setattr(field_sim, "inverse_cholesky",
                            lambda A: np.sqrt(scale) * inverse(A))

    def test_slightly_wrong_inverse_is_refined(self, builds, monkeypatch):
        # An inverse 1e-6 too large leaves a first residual of about 1e-6 |B|,
        # over the 1e-8 tolerance; one refinement step takes it to about
        # 1e-12 |B|. Unrefined, a_hat would be 1e-6 off in relative terms.
        self.scale_factor_inverse(monkeypatch, 1 + 1e-6)
        instance = instance_for(2, 3, 0.5, 42)
        G = build_G(instance)
        realization = draw_realization(instance, 0.1, (42, 0), G=G)
        a_hat, _ = reconstruct_field(instance, realization, 0.1, G=G)
        expected = self.complex_estimate(instance, realization.p, 0.1)
        assert np.max(np.abs(a_hat - expected)) <= 1e-10

    def test_bad_inverse_fails_the_residual_check(self, builds, monkeypatch):
        # One refinement step takes a half-scaled inverse's residual from
        # B / 2 to B / 4, far above the 1e-8 tolerance.
        self.scale_factor_inverse(monkeypatch, 0.5)
        instance = instance_for(2, 3, 0.5, 36)
        G = build_G(instance)
        realization = draw_realization(instance, 0.1, (36, 0), G=G)
        with pytest.raises(IntegrityError, match="residual"):
            reconstruct_field(instance, realization, 0.1, G=G)

    def test_nan_inverse_fails_the_residual_check(self, builds, monkeypatch):
        # A nan residual compares false with any bound, so the check must
        # fail on it rather than pass it.
        monkeypatch.setattr(field_sim, "inverse_cholesky",
                            lambda A: np.full_like(A, np.nan))
        instance = instance_for(2, 3, 0.5, 37)
        G = build_G(instance)
        realization = draw_realization(instance, 0.1, (37, 0), G=G)
        with pytest.raises(IntegrityError, match="residual"):
            reconstruct_field(instance, realization, 0.1, G=G)

    def test_reconstruction_leaves_scipy_unloaded(self):
        # Like the command line (see test_cli), the field path needs only numpy.
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from sampspectra.field_sim import (build_G, draw_realization,\n"
             "    instance_for, reconstruct_field)\n"
             "instance = instance_for(2, 3, 0.5, 0)\n"
             "G = build_G(instance)\n"
             "reconstruct_field(instance, draw_realization(instance, 0.1, 0, G), 0.1, G)\n"
             "print('scipy' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestRealizationContainer:
    def test_fields_are_kept_verbatim(self):
        a = np.ones(3, dtype=complex)
        n = np.zeros(2, dtype=complex)
        p = np.ones(2, dtype=complex)
        realization = FieldRealization(a=a, n=n, p=p)
        assert realization.a is a and realization.n is n and realization.p is p
