"""Monte Carlo simulation of irregularly sampled multidimensional fields.

A bandlimited field over the d-dimensional torus keeps N = (2M+1)^d Fourier
coefficients, one per frequency vector ell in [-M..M]^d, flattened by the
mixed-radix index nu(ell) = sum_m (2M+1)^(m-1) ell_m. Sampling it at r
uniform points gives the N x r synthesis matrix G with entries
N^(-1/2) exp(-2 pi j x_q . ell), and the scaled Gram matrix T = beta G G*
(beta = N/r) whose eigenvalue distribution the analytic moments describe.

Row N-1-i of the frequency grid holds -ell_i, so with J the exchange matrix
the unitary W = e^(-i pi/4) (I + iJ) / sqrt(2) makes everything real: W* G
is the Hartley matrix Gr[nu(ell), q] = N^(-1/2) cas(2 pi x_q . ell), with
cas = cos + sin, and W* T W = beta Gr Gr^T is the real symmetric form R of
T with the same spectrum. The simulation works in that frame only: G below
is Gr, coefficient vectors are carried as a = W y, and a complex vector
meets a real matrix as its N x 2 array of real and imaginary parts.

Everything here is exactly reproducible: randomness comes from a Philox
counter-based generator keyed by a seed sequence, and independent streams
are derived by extending the key, e.g. (seed, trial) for the trial's sample
points and (seed, draw) for a noise realization. Reported statistics depend
only on those keys, never on scheduling.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._linalg import inverse_cholesky, inverse_cholesky_bytes
from .errors import CapacityError, IntegrityError

#: Default cap on the working set of a single simulation, overridable per
#: call or through the environment variable SAMPSPECTRA_MAX_MEM (bytes).
DEFAULT_MEMORY_BUDGET = 2 * 1024**3
MEMORY_ENV_VAR = "SAMPSPECTRA_MAX_MEM"

_HERMITIAN_TOL = 1e-8
_RESIDUAL_TOL = 1e-8
_CLAMP_PER_N = 1e-10
_TRACE_RTOL = 1e-10
# Largest difference between an entry of G and its value recomputed from X.
_G_ENTRY_TOL = 1e-12
# Rows per block of the Hermitian check.
_ROW_BLOCK = 64
# Working set of one chunk of sample points in the generating-value sums.
_GENERATOR_CHUNK_BYTES = 16 * 2**20


def _seed_key(seed) -> tuple:
    """The seed as a tuple: an int, or a tuple or list of ints."""
    return tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)


def rng_for(seed, *stream) -> np.random.Generator:
    """Counter-based generator for the given seed and stream tags.

    ``seed`` may be an int or a tuple or list of ints; extra tags extend the
    key so that distinct (seed, tag...) combinations give independent streams.
    """
    entropy = [*_seed_key(seed), *(int(s) for s in stream)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _resolve_budget(max_bytes):
    if max_bytes is not None:
        return int(max_bytes)
    env = os.environ.get(MEMORY_ENV_VAR)
    if not env:
        return DEFAULT_MEMORY_BUDGET
    try:
        budget = int(env)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"{MEMORY_ENV_VAR} must be a positive number of bytes, got {env!r}")
    return budget


# --- index bookkeeping -------------------------------------------------------


def frequency_grid(M: int, d: int) -> np.ndarray:
    """All N frequency vectors; row i holds the ell with nu(ell) = i - (N-1)/2."""
    width = 2 * M + 1
    n = width**d
    a = np.arange(n)
    cols = []
    for _ in range(d):
        a, digit = np.divmod(a, width)
        cols.append(digit - M)
    return np.stack(cols, axis=1).astype(np.int64)


# --- sampling instances -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SamplingInstance:
    """An irregular sampling configuration: r points in [0,1)^d at order M.

    ``beta`` is the exact ratio N/r of the instance. :func:`instance_for`,
    the simulation's one constructor, enforces beta < 1, i.e. oversampling;
    degenerate instances for targeted tests can still be constructed
    directly.
    """

    d: int
    M: int
    r: int
    beta: float
    X: np.ndarray


@dataclass(frozen=True, eq=False)
class FieldRealization:
    """One draw of coefficients ``a``, noise ``n``, and samples ``p = G* a + n``.

    All three are complex; G here is the complex synthesis matrix, which
    :func:`draw_realization` applies as Gr^T W*.
    """

    a: np.ndarray
    n: np.ndarray
    p: np.ndarray


def _check_integer(name, value):
    if not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def trial_sizes(d: int, M: int, beta: float) -> tuple:
    """Validated (N, r) of a trial, with r = round(N / beta) but at least N + 1."""
    _check_integer("dimension", d)
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    _check_integer("M", M)
    if M < 0:
        raise ValueError(f"M must be non-negative, got {M}")
    if not 0 < beta < 1:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    n_coeff = (2 * M + 1) ** d
    return n_coeff, max(round(n_coeff / beta), n_coeff + 1)


def instance_for(d: int, M: int, beta: float, seed) -> SamplingInstance:
    """Draw r uniform points in [0,1)^d, (N, r) from :func:`trial_sizes`; beta = N/r."""
    n_coeff, r = trial_sizes(d, M, beta)
    X = rng_for(seed).random((r, d))
    # Read-only, so that nothing keyed on the instance (see _normal_system)
    # can go stale.
    X.flags.writeable = False
    return SamplingInstance(d=d, M=M, r=r, beta=n_coeff / r, X=X)


def _generator_point_bytes(d: int, M: int) -> int:
    """Bytes that one sample point holds while :func:`_phasor_sum` runs.

    Its per-axis phasors, 4M+1 on each axis but the last, which keeps its
    2M+1 non-negative ones (plus the one complex phase that ``exp`` reads),
    and its column of the half-width Khatri-Rao block of (2M+1)(4M+1)^(d-2)
    entries (plus the previous stage while the block grows).
    """
    width, half = 4 * M + 1, 2 * M + 1
    block_rows = (half * width ** (d - 2) if d > 1 else 1) + (
        half * width ** (d - 3) if d > 2 else 1)
    return 16 * ((d - 1) * width + half + 1 + block_rows)


def _generator_chunk(d: int, M: int) -> int:
    """Sample points per chunk of :func:`_toeplitz_generator`."""
    return max(1, _GENERATOR_CHUNK_BYTES // _generator_point_bytes(d, M))


def _gram_bytes(d: int, M: int, r: int) -> int:
    """Peak working set of :func:`build_T`, the larger of its two phases.

    Summing the generating values holds one chunk of sample points (see
    :func:`_generator_point_bytes`), the (4M+1)^d complex values and one
    chunk's sums over the (2M+1)(4M+1)^(d-1) values of the half-space.
    Assembling holds the values, the real N^2 matrix and, for the Frobenius
    check, the squared moduli with their weights (three real arrays).
    """
    values = (4 * M + 1) ** d
    half = (2 * M + 1) * (4 * M + 1) ** (d - 1)
    n_coeff = (2 * M + 1) ** d
    generate = (min(r, _generator_chunk(d, M)) * _generator_point_bytes(d, M)
                + 16 * values + 16 * half)
    assemble = 40 * values + 8 * n_coeff**2
    return max(generate, assemble)


def estimate_bytes(d: int, M: int, beta: float) -> int:
    """Rough working-set size of one trial at these parameters.

    The larger of :func:`build_T`'s peak and the verified eigensolve's 16 N^2
    bytes: the real matrix and the copy of it that ``eigvalsh`` makes inside
    numpy's linalg extension. That copy is allocated outside numpy's array
    allocator, so tracemalloc does not see it.
    """
    n_coeff, r = trial_sizes(d, M, beta)
    return max(_gram_bytes(d, M, r), 16 * n_coeff**2)


def check_budget(required, max_bytes, what):
    """Raise CapacityError if ``what`` needs more than the budget's bytes."""
    budget = _resolve_budget(max_bytes)
    if required > budget:
        raise CapacityError(
            f"{what} needs about {required} bytes, over the budget {budget} "
            f"(raise it via {MEMORY_ENV_VAR} or max_bytes)"
        )


def check_trial_budget(d: int, M: int, beta: float, trials: int, threads: int = 1,
                       max_bytes=None):
    """Raise CapacityError unless the trials that run at once fit the budget.

    ``threads`` workers run min(threads, trials) trials concurrently, each
    with the working set of :func:`estimate_bytes`, beside the 8 N bytes a
    trial of the (trials, N) array that :func:`collect_spectra` fills.
    Invalid parameters raise ValueError before any work.
    """
    for name, count in (("trials", trials), ("threads", threads)):
        _check_integer(name, count)
        if count < 1:
            raise ValueError(f"{name} must be positive, got {count}")
    concurrent = min(threads, trials)
    n_coeff, _ = trial_sizes(d, M, beta)
    check_budget(concurrent * estimate_bytes(d, M, beta) + 8 * n_coeff * trials,
                 max_bytes, f"{concurrent} concurrent trial(s) and the spectra of "
                 f"{trials} at d={d}, M={M}, beta={beta}")


# --- matrices and spectra -----------------------------------------------------


def build_G(instance: SamplingInstance) -> np.ndarray:
    """Real synthesis matrix Gr = W* G of the Hartley frame, float64 N x r.

    Gr[nu(ell), q] = N^(-1/2) cas(2 pi x_q . ell) = sqrt(2/N) cos(2 pi x_q .
    ell - pi/4), computed in place on the phase array. W* maps the complex
    G's row of ell and its row of -ell, e^(-i theta) and e^(i theta), to
    e^(i pi/4) (e^(-i theta) - i e^(i theta)) / sqrt(2) = cas(theta).
    """
    n_coeff = (2 * instance.M + 1) ** instance.d
    check_budget(8 * n_coeff * instance.r, None, "build_G")
    grid = frequency_grid(instance.M, instance.d) * (2 * np.pi)
    G = grid @ instance.X.T
    G -= np.pi / 4
    np.cos(G, out=G)
    G *= np.sqrt(2 / n_coeff)
    return G


def _axis_phasors(x: np.ndarray, K: int, half: bool) -> np.ndarray:
    """exp(-2 pi j x k), one row per k in -K..K (0..K if ``half``), one
    column per entry of x.

    Only the row k = 1 calls ``exp``: row k is row k-1 times row 1, and row
    -k the conjugate of row k. The rounding error grows like k ulp, about
    4e-14 relative at k = 1200.
    """
    z = np.empty((K + 1 if half else 2 * K + 1, len(x)), dtype=complex)
    rows = z[-K - 1:]
    rows[0] = 1
    if K:
        np.exp(x * (-2j * np.pi), out=rows[1])
    for k in range(2, K + 1):
        np.multiply(rows[k - 1], rows[1], out=rows[k])
    if not half:
        np.conjugate(z[:K:-1], out=z[:K])
    return z


def _phasor_sum(X: np.ndarray, K: int) -> np.ndarray:
    """sum_q prod_m exp(-2 pi j x_{q,m} k_m) over the rows x_q of X.

    Each k_m runs over -K..K, except the last axis's k_{d-1}, which runs
    over 0..K. The result has one row per (k_{d-1}, ..., k_1) and one column
    per k_0. Each axis contributes its own phasors (see
    :func:`_axis_phasors`); a Khatri-Rao product combines axes d-1..1 (axis
    1 varying fastest) and one matrix product with axis 0 sums over the
    points.
    """
    count, d = X.shape
    phasors = [_axis_phasors(x, K, m == d - 1) for m, x in enumerate(X.T)]
    block = np.ones((1, count), dtype=complex)
    for z in phasors[:0:-1]:
        block = (block[:, None, :] * z[None, :, :]).reshape(-1, count)
    return block @ phasors[0].T


def _mirror(S: np.ndarray, M: int) -> None:
    """Fill the half-space k_{d-1} < 0 of S in place from S(-k) = conj S(k)."""
    flipped = S[(slice(None, None, -1),) * S.ndim]
    np.conjugate(flipped[:2 * M], out=S[:2 * M])


def _toeplitz_generator(instance: SamplingInstance) -> np.ndarray:
    """Generating values S[k] = (1/r) sum_q prod_m exp(-2 pi j x_{q,m} k_m).

    k runs over [-2M..2M]^d; the returned d-dimensional array holds S[k] at
    (k_{d-1} + 2M, ..., k_0 + 2M), so its flat index is sum_m (k_m + 2M)
    (4M+1)^m. Only the half-space k_{d-1} >= 0 is summed; the sample points
    are real, so :func:`_mirror` fills the rest. The sum runs over chunks of
    sample points, so that the per-point phasors never take more than about
    _GENERATOR_CHUNK_BYTES.
    """
    d, M, r = instance.d, instance.M, instance.r
    S = np.empty((4 * M + 1,) * d, dtype=complex)
    half = S[2 * M:]
    half[...] = 0
    chunk = _generator_chunk(d, M)
    for start in range(0, r, chunk):
        half += _phasor_sum(instance.X[start:start + chunk], 2 * M).reshape(half.shape)
    half /= r
    _mirror(S, M)
    return S


def _assemble_real(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """R[i, j] = re(ell_i - ell_j) + im(-ell_i - ell_j) from d-dimensional
    generating arrays laid out as :func:`_toeplitz_generator` returns them.

    Reversed along every axis, the (2M+1)^d window at offset s holds at t
    the value of index 4M - s - t on each axis: with s the row's ell + M and
    t the column's, that is the Hankel part, and with the offsets reversed
    too it is the Toeplitz part. R is one np.add of the two strided views.
    """
    d = re.ndim
    width = (re.shape[0] + 1) // 2
    flip = (slice(None, None, -1),) * d
    toeplitz = sliding_window_view(re[flip], (width,) * d)[flip]
    hankel = sliding_window_view(im[flip], (width,) * d)
    R = np.empty((width**d, width**d))
    np.add(toeplitz, hankel, out=R.reshape((width,) * (2 * d)))
    return R


def build_T(instance: SamplingInstance, max_bytes=None) -> np.ndarray:
    """Real symmetric form R = W* T W of the scaled Gram matrix T = beta G G*.

    T[i, j] = (1/r) sum_q exp(-2 pi j x_q . (ell_i - ell_j)) depends only on
    the frequency difference, so T is multilevel Toeplitz with (4M+1)^d
    generating values S, which cost (4M+1)^d r multiply-adds instead of the
    N^2 r of G G* (see :func:`_toeplitz_generator`). J T J is the conjugate
    of T, so the frame change W of the module docstring takes T to the real
    symmetric R = Re T + J Im T = beta Gr Gr^T with the same spectrum:

        R[i, j] = Re S(ell_i - ell_j) + Im S(-ell_i - ell_j),

    a multilevel Toeplitz plus a multilevel Hankel part (see
    :func:`_assemble_real`). Re S(0) = beta r / N = 1 identically, so the
    diagonal is written as 1.0 + Im S(-2 ell_i) instead of trusting
    accumulated round-off. The Frobenius identity ||R||_F^2 = ||T||_F^2 =
    sum_k c_k |S_k|^2, where c_k counts the index pairs with frequency
    difference k, ties R to T and raises IntegrityError if the assembly
    loses either part.
    """
    d, M = instance.d, instance.M
    check_budget(_gram_bytes(d, M, instance.r), max_bytes, "build_T")
    S = _toeplitz_generator(instance)
    R = _assemble_real(S.real, S.imag)
    # Stepping down by 2 from 4M reaches k_m = -2 ell_m at row ell on each axis.
    R[np.diag_indices_from(R)] = 1.0 + S.imag[(slice(None, None, -2),) * d].ravel()

    side = (2 * M + 1 - np.abs(np.arange(-2 * M, 2 * M + 1))).astype(float)
    pairs = functools.reduce(np.multiply.outer, [side] * d).ravel()
    moduli = S.real**2
    moduli += S.imag**2
    expected = float(pairs @ moduli.ravel())
    frobenius = float(np.vdot(R, R))
    if not abs(frobenius - expected) <= _TRACE_RTOL * expected:  # also for nan
        raise IntegrityError(
            f"squared Frobenius norm {frobenius} of the real form disagrees "
            f"with {expected} from the generating values"
        )
    return R


def hermitian_eigenvalues(T: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the real symmetric T with integrity checks.

    Rejects complex and visibly non-symmetric input, verifies the trace
    identity sum(lambda) = tr T and the Frobenius identity sum(lambda^2) =
    ||T||_F^2, and clamps round-off negatives (within 1e-10 N of zero) to
    exactly zero. Both identities hold for any symmetric matrix, so no
    eigenvector is needed to check the spectrum.
    """
    n = T.shape[0]
    if T.shape != (n, n):
        raise ValueError(f"T must be square, got {T.shape}")
    if np.iscomplexobj(T):
        raise ValueError(f"T must be real symmetric, got {T.dtype}")
    # Row blocks from the diagonal on meet each pair once, in temporaries of
    # a few rows of T. np.maximum keeps a nan, and every check below fails on one.
    deviation = 0.0
    for s in range(0, n, _ROW_BLOCK):
        e = s + _ROW_BLOCK
        deviation = np.maximum(deviation, np.max(np.abs(T[s:e, s:] - T[s:, s:e].T)))
    if not deviation <= _HERMITIAN_TOL:
        raise IntegrityError(f"input is non-Hermitian (max deviation {deviation})")
    eigenvalues = np.linalg.eigvalsh(T)

    trace = float(np.trace(T))
    if not abs(eigenvalues.sum() - trace) <= _TRACE_RTOL * max(abs(trace), 1.0):
        raise IntegrityError(
            f"eigenvalue sum {eigenvalues.sum()} disagrees with trace {trace}"
        )

    frobenius = float(np.vdot(T, T))
    squares = float(eigenvalues @ eigenvalues)
    if not abs(squares - frobenius) <= _TRACE_RTOL * max(frobenius, 1.0):
        raise IntegrityError(
            f"eigenvalue sum of squares {squares} disagrees with squared "
            f"Frobenius norm {frobenius}"
        )

    clamp = _CLAMP_PER_N * n
    if not eigenvalues[0] >= -clamp:
        raise IntegrityError(
            f"eigenvalue {eigenvalues[0]} below the clamping floor -{clamp}"
        )
    return np.maximum(eigenvalues, 0.0)


def empirical_lmmse(eigenvalues: np.ndarray, beta: float, alpha: float):
    """Spectral form of the mean reconstruction error, one value per spectrum.

    Equals (1/N) trace of alpha beta (T + alpha beta I)^(-1) for a spectrum
    of T at ratio beta; exactly the (a, n)-averaged LMMSE error of that
    realization's sampling operator. The mean runs over the last axis, so a
    (trials, N) array gives one value per row and one spectrum a scalar.
    """
    if not 0 <= alpha < np.inf:
        raise ValueError(f"alpha must be finite and non-negative, got {alpha}")
    shift = alpha * beta
    # At alpha = 0 a clamped zero eigenvalue would give 0/0; the error is 0.
    ratio = shift / (eigenvalues + shift) if alpha else np.zeros_like(eigenvalues)
    return np.mean(ratio, axis=-1)


# --- field synthesis and reconstruction --------------------------------------


def _check_G(instance: SamplingInstance, G) -> int:
    """N, after checking that G is the instance's real matrix from build_G.

    Beyond dtype and shape, the first and last entries of G's first column
    are recomputed from the first sample point x, so that the matrix of
    another instance of the same size is refused too. Those rows hold ell =
    -+(M, ..., M), so the entries are sqrt(2/N) cos(-+theta - pi/4) with
    theta = 2 pi M sum(x): O(d) work.
    """
    n_coeff = (2 * instance.M + 1) ** instance.d
    shape = (n_coeff, instance.r)
    if not (isinstance(G, np.ndarray) and G.dtype == np.float64 and G.shape == shape):
        raise ValueError(
            f"G must be the float64 {shape} matrix from build_G, got "
            f"{getattr(G, 'dtype', type(G).__name__)} {np.shape(G)}"
        )
    theta = 2 * math.pi * instance.M * sum(instance.X[0].tolist())
    for row, sign in ((0, -1), (n_coeff - 1, 1)):
        expected = math.sqrt(2 / n_coeff) * math.cos(sign * theta - math.pi / 4)
        if not abs(G[row, 0] - expected) <= _G_ENTRY_TOL:  # also for nan
            raise ValueError(
                f"G[{row}, 0] = {G[row, 0]} is not {expected}, its value from "
                f"build_G for this instance's sample points"
            )
    return n_coeff


def draw_realization(instance: SamplingInstance, alpha: float, seed, G) -> FieldRealization:
    """Draw unit-variance coefficients and noise of variance alpha; p = G* a + n.

    ``G`` is the instance's real matrix Gr from :func:`build_G`, and G* a =
    Gr^T (W* a): one real product with the N x 2 real and imaginary parts
    of W* a = e^(i pi/4) (a - i J a) / sqrt(2), read back as r complex
    values. Raises ValueError for any other G.
    """
    if not 0 <= alpha < np.inf:
        raise ValueError(f"alpha must be finite and non-negative, got {alpha}")
    n_coeff = _check_G(instance, G)
    rng = rng_for(seed)
    a = (rng.standard_normal(n_coeff) + 1j * rng.standard_normal(n_coeff)) / np.sqrt(2)
    noise = np.sqrt(alpha / 2) * (
        rng.standard_normal(instance.r) + 1j * rng.standard_normal(instance.r)
    )
    c = (a - 1j * a[::-1]) * (0.5 + 0.5j)
    p = (G.T @ c.view(float).reshape(n_coeff, 2)).view(complex).ravel()
    p += noise
    return FieldRealization(a=a, n=noise, p=p)


# The last (instance, alpha) that _normal_system built, with its A, L^(-1)
# and ||A||_F; None before the first reconstruction.
_normal_slot = None


def _normal_system(instance: SamplingInstance, alpha: float):
    """(A, L^(-1), ||A||_F) for the real normal matrix A = R / beta + alpha I.

    One module-level slot holds the last (instance, alpha), keyed on the
    instance's identity, so draws against a fixed (instance, alpha) build
    and factor A once. The slot keeps its instance alive, so that identity
    is never reused, and :func:`instance_for` makes X read-only. A miss
    drops the held pair before building the next, so one pair (16 N^2
    bytes) stays resident at most. A = L L^T is positive definite for
    alpha > 0, and numpy has no triangular solve, so
    :func:`inverse_cholesky` overwrites a copy of A with L^(-1) and A stays
    for the residual check; an indefinite A raises IntegrityError. The
    budget check counts the larger of :func:`build_T`'s peak and 16 N^2
    bytes plus the kernel's row-block temporaries
    (:func:`inverse_cholesky_bytes`), all of it numpy memory that
    tracemalloc sees.
    """
    global _normal_slot
    slot = _normal_slot
    if slot is not None and slot[0] is instance and slot[1] == alpha:
        return slot[2:]
    # Release the held pair, this local reference included, before building.
    slot = _normal_slot = None
    d, M, r = instance.d, instance.M, instance.r
    n_coeff = (2 * M + 1) ** d
    factor = 16 * n_coeff**2 + inverse_cholesky_bytes(n_coeff)
    check_budget(max(_gram_bytes(d, M, r), factor), None,
                 "build_T and the factor of the normal matrix")
    A = build_T(instance)
    A /= instance.beta
    A[np.diag_indices_from(A)] += alpha
    try:
        L_inv = inverse_cholesky(A.copy())
    except np.linalg.LinAlgError as exc:
        raise IntegrityError(f"matrix is not positive definite ({exc})") from None
    A.flags.writeable = L_inv.flags.writeable = False
    slot = _normal_slot = (instance, alpha, A, L_inv, float(np.linalg.norm(A)))
    return slot[2:]


def reconstruct_field(instance: SamplingInstance, realization: FieldRealization,
                      alpha: float, G):
    """LMMSE estimate of the coefficients from the noisy samples.

    ``G`` is the instance's real matrix Gr from :func:`build_G`; any other G
    raises ValueError before any work. Returns (a_hat, mse), where a_hat
    solves (G G* + alpha I) a_hat = G p for the complex G and mse =
    ||a_hat - a||^2 / N for this single draw. In the frame of the module
    docstring a_hat = W y, where y solves the real system A y = Gr p with
    A = R / beta + alpha I; the real and imaginary parts of p make Gr p two
    real columns. W is unitary, so the residual check reads the same in
    either frame. A and L^(-1), for its Cholesky factor L, come from
    :func:`_normal_system`, built on the first draw at this (instance,
    alpha). Each draw solves y = L^(-T) L^(-1) B and takes one step of
    iterative refinement, y += L^(-T) L^(-1) (B - A y), only when that first
    residual misses the bound; the bound is checked on the y returned.
    Requires a finite alpha > 0 so the normal matrix stays positive definite.
    """
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    n_coeff = _check_G(instance, G)
    A, L_inv, A_norm = _normal_system(instance, alpha)
    p = np.ascontiguousarray(realization.p, dtype=complex)
    B = G @ p.view(float).reshape(-1, 2)
    B_norm = np.linalg.norm(B)

    def allowed(Y):
        return _RESIDUAL_TOL * (A_norm * np.linalg.norm(Y) + B_norm)

    Y = L_inv.T @ (L_inv @ B)
    residual = B - A @ Y
    if not np.linalg.norm(residual) <= allowed(Y):
        Y += L_inv.T @ (L_inv @ residual)
        residual = B - A @ Y
    error, bound = np.linalg.norm(residual), allowed(Y)
    if not error <= bound:  # also for nan
        raise IntegrityError(f"solver residual {error} exceeds {bound}")
    y = Y.view(complex).ravel()
    # W y = e^(-i pi/4) (y + i J y) / sqrt(2); J reverses the coefficients.
    a_hat = (y + 1j * y[::-1]) * (0.5 - 0.5j)
    mse = float(np.linalg.norm(a_hat - realization.a) ** 2 / n_coeff)
    return a_hat, mse


# --- trial orchestration ------------------------------------------------------


def collect_spectra(d: int, M: int, beta: float, trials: int, seed,
                    threads: int = 1, max_bytes=None) -> np.ndarray:
    """Spectra of ``trials`` independent sampling instances, as (trials, N).

    Row t holds the clamped, ascending eigenvalues of trial t, whose instance
    uses the stream key (seed, t), so the array is a pure function of the
    arguments; the thread count only affects wall time.
    """
    check_trial_budget(d, M, beta, trials, threads, max_bytes)
    n_coeff, _ = trial_sizes(d, M, beta)
    base = _seed_key(seed)
    spectra = np.empty((trials, n_coeff))

    def one(trial):
        instance = instance_for(d, M, beta, base + (trial,))
        spectra[trial] = hermitian_eigenvalues(build_T(instance, max_bytes=max_bytes))

    if threads <= 1:
        for trial in range(trials):
            one(trial)
        return spectra
    # Imported on first threaded use: it adds milliseconds to every import.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(one, range(trials)))  # raises a failed trial's error
    return spectra
