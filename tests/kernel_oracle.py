"""The K+/- oracle: K(x,t) = R(x,t) + P(x-t) + int_t^x R(x,s) P(s-t) ds
from ``solve_R`` and ``solve_P``, an O(N^3) route to K that does not march
K itself."""

import numpy as np

from diracbvp.gridfn import GridMismatchError, SampledFunction, TriangularKernel
from diracbvp.transformop import solve_P, solve_R


_K_BLOCK = 64  # rows and columns per block of the triangular products


def _toeplitz_lower(column: np.ndarray) -> np.ndarray:
    """T[i, j] = column[i - j] on and below the diagonal, zero above, as a
    read-only strided view of the reversed column padded with N zeros."""
    n = column.shape[0] - 1
    padded = np.concatenate([column[::-1], np.zeros(n, dtype=column.dtype)])
    return np.lib.stride_tricks.sliding_window_view(padded, n + 1)[::-1]


def assemble_K(r: TriangularKernel, pplus: SampledFunction, pminus: SampledFunction, n: int):
    """K(x,t) = R(x,t) + P(x-t) + int_t^x R(x,s) P(s-t) ds for both signs.

    Only the lower-triangular blocks of the integral are formed: for each
    block of rows I and block of columns J <= I, one matrix product takes
    R's rows I for both first indices against the Toeplitz rows j0..i1 of
    P_b with P_b(0) halved (the trapezoid weight at s = t), and the s = x
    weight comes off as half of R(x, x) times the Toeplitz row P_b(x - t).
    The halving touches that row only at t = x, where the one-point path
    s = t = x integrates to zero and is set so.  Each block is scaled by h
    and added into K; R and P vanish above the diagonal, so every term does
    too and no mask is applied."""
    if r.n != n or pplus.n != n or pminus.n != n:
        raise GridMismatchError("kernel and P factors must share the grid")
    h = 1.0 / n
    npts = n + 1
    nb = min(_K_BLOCK, npts)
    idx = np.arange(npts)
    rmat = r.data
    rdiag = 0.5 * rmat[idx, idx].transpose(1, 2, 0)  # [a, b, i] = R_ab(x_i, x_i) / 2
    datas = []
    # per b: (data, Toeplitz view T[k, c] = P_b(k - c) with P_b(0) halved);
    # its leading rows hold every block T[j0 + k, j0 + c]
    factors = ([], [])
    for p in (pplus, pminus):
        data = rmat.copy()
        for b in (0, 1):
            col = p.samples[:, b]
            data[:, :, b, b] += _toeplitz_lower(col)
            if col.any():
                half = col.copy()
                half[0] *= 0.5
                factors[b].append((data, _toeplitz_lower(half)))
        datas.append(data)
    for i0 in range(0, npts, nb):
        i1 = min(i0 + nb, npts)
        rows = i1 - i0
        for b in (0, 1):
            if not factors[b]:
                continue
            # R's rows I for both a, stacked: (2 * rows) x i1
            rrows = rmat[i0:i1, :i1, :, b].transpose(2, 0, 1).reshape(2 * rows, i1)
            for data, toep in factors[b]:
                for j0 in range(0, i1, nb):
                    j1 = min(j0 + nb, i1)
                    cols = j1 - j0
                    block = (rrows[:, j0:] @ toep[: i1 - j0, :cols]).reshape(2, rows, cols)
                    block -= rdiag[:, b, i0:i1, None] * toep[i0 - j0 : i1 - j0, :cols]
                    if j0 == i0:
                        block[:, idx[:rows], idx[:rows]] = 0.0
                    block *= h
                    data[i0:i1, j0:j1, :, b] += block.transpose(1, 2, 0)
            del rrows  # freed before the next gather
    return TriangularKernel(datas[0]), TriangularKernel(datas[1])


def oracle_K(sys, n: int):
    """(K+, K-) of ``sys`` on the N-grid by R, P+/- and ``assemble_K``."""
    r = solve_R(sys, n)
    pplus, pminus, _ = solve_P(r, sys, n)
    return assemble_K(r, pplus, pminus, n)
