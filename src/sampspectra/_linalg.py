"""The inverse of a symmetric positive definite matrix from its Cholesky factor.

numpy has ``cholesky`` but no triangular solve or inverse, and scipy.linalg
takes longer to import than the reconstructions that need it, so the
triangular inverse is built here from numpy's matrix products.
"""

import numpy as np

from .errors import IntegrityError

# Largest triangular block that lower_inverse hands to np.linalg.inv.
_INVERSE_BLOCK = 64


def lower_inverse(L: np.ndarray) -> np.ndarray:
    """Invert the lower triangular L in place, by 2 x 2 block recursion.

    With L = [[L11, 0], [L21, L22]] the inverse is [[X11, 0], [X21, X22]],
    Xii = Lii^(-1) and X21 = -X22 L21 X11, two matrix products whose
    temporaries take a quarter of L each. Blocks of _INVERSE_BLOCK rows or
    fewer go to ``np.linalg.inv``. The upper triangle stays zero. Returns L.
    """
    n = len(L)
    if n <= _INVERSE_BLOCK:
        L[...] = np.linalg.inv(L)
    else:
        h = n // 2
        X11, X22 = lower_inverse(L[:h, :h]), lower_inverse(L[h:, h:])
        L[h:, :h] = -(X22 @ (L[h:, :h] @ X11))
    return L


def spd_inverse(A: np.ndarray) -> np.ndarray:
    """A^(-1) = X^T X for the symmetric positive definite A = L L^T, X = L^(-1).

    About 2 n^3 flops: n^3 / 3 for the factor, 2 n^3 / 3 for its inverse
    and n^3 for X^T X, which numpy evaluates as a symmetric rank-k update;
    ``np.linalg.inv`` takes about 8 n^3 / 3. Raises IntegrityError if the
    factorization finds A not positive definite (a nan in A included).
    """
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise IntegrityError(f"matrix is not positive definite ({exc})") from None
    X = lower_inverse(L)
    return X.T @ X
