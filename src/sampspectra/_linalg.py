"""The inverse of a lower triangular matrix, such as a Cholesky factor.

numpy has ``cholesky`` but no triangular solve or inverse, and scipy.linalg
takes longer to import than the reconstructions that need it, so the
triangular inverse is built here from numpy's matrix products.
"""

import numpy as np

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
