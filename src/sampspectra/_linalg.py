"""The inverted Cholesky factor of a symmetric positive definite matrix.

numpy has ``cholesky`` but no triangular solve or inverse, and scipy.linalg
takes longer to import than the reconstructions that need it, so the
factorization and the triangular inverse are built here from numpy's matrix
products. ``np.linalg.cholesky`` copies its operand inside numpy's linalg
extension, where tracemalloc does not see it; here it only ever sees blocks
of _BLOCK rows or fewer.
"""

import numpy as np

# Rows of the largest diagonal block handed to np.linalg.cholesky and
# np.linalg.inv, and of each row block of the off-diagonal products.
_BLOCK = 64


def inverse_cholesky_bytes(n: int) -> int:
    """Upper bound on the bytes :func:`inverse_cholesky` allocates besides
    its operand: two row-block products of at most n/2 + 1 columns, or at a
    leaf four float64 blocks of _BLOCK^2 entries: the factor, its inverse and
    the copies numpy's linalg extension makes."""
    return 8 * _BLOCK * (n + 2) + 32 * _BLOCK**2


def inverse_cholesky(A: np.ndarray) -> np.ndarray:
    """Overwrite the symmetric positive definite A with L^(-1), A = L L^T.

    Only the lower triangle of A is read. With A = [[A11, .], [A21, A22]],
    2 x 2 block recursion (Gustavson and Jonsson, IBM J. Res. Dev. 44(6),
    2000) takes A11 to X11 = L11^(-1), then A21 to L21 = A21 X11^T, then A22
    to its Schur complement A22 - L21 L21^T and that to X22 = L22^(-1), and
    last L21 to X21 = -X22 L21 X11. The off-diagonal steps run over row
    blocks of _BLOCK rows, so their temporaries take a few rows of A (see
    :func:`inverse_cholesky_bytes`): a block of L21 and its rows of the
    Schur complement need only the rows of L21 above it, and X21 runs
    bottom-up, so that each block reads only rows of L21 not yet
    overwritten. Diagonal blocks of
    _BLOCK rows or fewer go to ``np.linalg.cholesky`` and ``np.linalg.inv``,
    which raise ``LinAlgError`` on a pivot that is not positive, the
    indefinite Schur complement of an indefinite A included. The upper
    triangle is set to zero. Returns A.
    """
    n = len(A)
    if n <= _BLOCK:
        A[...] = np.tril(np.linalg.inv(np.linalg.cholesky(A)))
        return A
    h = n // 2
    X11 = inverse_cholesky(A[:h, :h])
    blocks = range(h, n, _BLOCK)
    for s in blocks:
        e = s + _BLOCK
        A[s:e, :h] = A[s:e, :h] @ X11.T
        A[s:e, h:e] -= A[s:e, :h] @ A[h:e, :h].T
    X22 = inverse_cholesky(A[h:, h:])
    for s in reversed(blocks):
        e = s + _BLOCK
        A[s:e, :h] = (X22[s - h:e - h, :e - h] @ A[h:e, :h]) @ X11
        A[s:e, :h] *= -1
    A[:h, h:] = 0
    return A
