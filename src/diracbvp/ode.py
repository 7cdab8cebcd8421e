"""Direct integration of the 2x2 Dirac-type system -i B^{-1} y' + Q y = lam y.

Rewritten as y' = i B (lam I - Q(x)) y, the system is integrated with the
classical fixed-step fourth-order Runge-Kutta method on the shared uniform
grid; Q is evaluated at half-nodes by linear interpolation.  For this linear
system one RK4 step is a fixed 2x2 matrix M_i(lam), so the fundamental
matrix at the nodes is the prefix product M_{i-1} .. M_0, formed a block of
steps at a time (``_phi_blocks``).  This module is the numerical oracle
against which the transformation-operator reconstruction is checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryConditions, minors
from .gridfn import SampledFunction

__all__ = ["DiracSystem", "FundamentalMatrix", "char_det_direct", "e_pm", "fundamental_matrix"]


@dataclass(frozen=True)
class DiracSystem:
    """Weights b1 < 0 < b2 and the off-diagonal potential entries Q12, Q21."""

    b1: float
    b2: float
    q12: SampledFunction
    q21: SampledFunction

    def __post_init__(self):
        if not (self.b1 < 0.0 < self.b2):
            raise ValueError(f"weights must satisfy b1 < 0 < b2, got {self.b1}, {self.b2}")
        if self.q12.samples.ndim != 1 or self.q21.samples.ndim != 1:
            raise ValueError("potential entries must be scalar sampled functions")

    @classmethod
    def zero(cls, b1: float, b2: float, n: int = 16) -> "DiracSystem":
        return cls(b1, b2, SampledFunction.zero(n), SampledFunction.zero(n))

    # derived quantities a_k = 1/b_k, gamma_k = b_j/b_k, alpha_k = b_j/(b_j - b_k)
    @property
    def alpha1(self) -> float:
        return self.b2 / (self.b2 - self.b1)

    @property
    def alpha2(self) -> float:
        return -self.b1 / (self.b2 - self.b1)


@dataclass(frozen=True)
class FundamentalMatrix:
    """Matrix solution Phi(x, lam) with Phi(0, lam) = I at every grid node,
    for a scalar lam or an array of them: ``values`` has shape
    lam.shape + (N+1, 2, 2)."""

    values: np.ndarray
    lam: complex | np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[-3] - 1

    def at_one(self) -> np.ndarray:
        return self.values[..., -1, :, :]

    def det_at_one(self):
        v = self.at_one()
        det = v[..., 0, 0] * v[..., 1, 1] - v[..., 0, 1] * v[..., 1, 0]
        return complex(det) if det.ndim == 0 else det


# The step loop runs once per block of _BLOCK steps over a chunk of at most
# _CHUNK lam.  Both are fixed, never taken from the batch, so the order of
# every product depends on N alone and a lam array gets bitwise the numbers
# of one call per lam.  A chunk's block temporaries are a few dozen arrays of
# _CHUNK * _BLOCK complex entries (about 128 KiB each).
_BLOCK = 64
_CHUNK = 128


def _mul(a, b):
    """2x2 matrix product on component tuples (m11, m12, m21, m22), written
    out: for small blocks this is about 10x faster than a batched matmul."""
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22, a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)


def _plus_identity(k, c):
    """I + c k on a component tuple."""
    return (1.0 + c * k[0], c * k[1], c * k[2], 1.0 + c * k[3])


def _phi_blocks(sys: DiracSystem, lam: np.ndarray, n: int):
    """Phi at the nodes of each block, for the flat lam array: yields
    (chunk, s, phi) with phi the component tuple of Phi at x_{s+1} .. x_e
    for the lam of the chunk, each of shape (chunk size, e - s).

    RK4 applied to Phi' = A(x) Phi is linear, so step i is Phi_{i+1} = M_i Phi_i
    with M_i the step applied to Phi = I.  A block forms its M_i for all its
    steps at once, takes their prefix products M_j .. M_s by doubling (Hillis
    and Steele; Blelloch, CMU-CS-90-190) and multiplies them onto the carry
    Phi(x_s).  A(x) = i B (lam I - Q(x)) splits into the lam diagonal
    (i b1 lam, i b2 lam) and the off-diagonal (-i b1 Q12, -i b2 Q21)."""
    h = 1.0 / n
    x = np.linspace(0.0, 1.0, n + 1)
    xm = x[:-1] + 0.5 * h
    u = -1j * sys.b1 * sys.q12(x)
    v = -1j * sys.b2 * sys.q21(x)
    um = -1j * sys.b1 * sys.q12(xm)
    vm = -1j * sys.b2 * sys.q21(xm)
    for c0 in range(0, lam.size, _CHUNK):
        chunk = slice(c0, min(c0 + _CHUNK, lam.size))
        d1 = 1j * sys.b1 * lam[chunk, None]
        d2 = 1j * sys.b2 * lam[chunk, None]
        one, zero = np.ones_like(d1), np.zeros_like(d1)
        carry = (one, zero, zero, one)
        for s in range(0, n, _BLOCK):
            e = min(s + _BLOCK, n)
            a0 = (d1, u[None, s:e], v[None, s:e], d2)
            am = (d1, um[None, s:e], vm[None, s:e], d2)
            a1 = (d1, u[None, s + 1 : e + 1], v[None, s + 1 : e + 1], d2)
            k2 = _mul(am, _plus_identity(a0, 0.5 * h))
            k3 = _mul(am, _plus_identity(k2, 0.5 * h))
            k4 = _mul(a1, _plus_identity(k3, h))
            rk4 = tuple(p + 2.0 * q + 2.0 * r + w for p, q, r, w in zip(a0, k2, k3, k4))
            prefix = np.array(_plus_identity(rk4, h / 6.0))
            step = 1
            while step < e - s:
                prefix[..., step:] = _mul(prefix[..., step:], prefix[..., :-step])
                step *= 2
            phi = _mul(prefix, carry)
            yield chunk, s, phi
            carry = tuple(p[:, -1:] for p in phi)


def fundamental_matrix(sys: DiracSystem, lam, n: int) -> FundamentalMatrix:
    """Classical RK4 for Phi' = i B (lam I - Q(x)) Phi, Phi(0) = I_2, over a
    scalar lam or an array of them, with Q linearly interpolated at the
    half-nodes.  Each step is the fixed 2x2 matrix M_i(lam) that RK4 makes
    of this linear system, and Phi at the nodes are its prefix products,
    taken in blocks of _BLOCK steps for chunks of _CHUNK lam (see
    ``_phi_blocks``), so no per-step Python loop runs.  Array and per-lam
    calls give bitwise the same values."""
    if n < 2:
        raise ValueError("grid size N must be >= 2")
    lam = np.asarray(lam, dtype=complex)
    values = np.empty((lam.size, n + 1, 2, 2), dtype=complex)
    values[:, 0] = np.eye(2)
    nodes = values.reshape(lam.size, n + 1, 4)
    for chunk, s, phi in _phi_blocks(sys, lam.ravel(), n):
        for k in range(4):
            nodes[chunk, s + 1 : s + 1 + phi[k].shape[1], k] = phi[k]
    values = values.reshape(lam.shape + (n + 1, 2, 2))
    return FundamentalMatrix(values, complex(lam) if lam.ndim == 0 else lam)


def e_pm(sys: DiracSystem, lam: complex, sign: int, n: int) -> SampledFunction:
    """Solution with initial vector (1, +/-1)^T, i.e. Phi(x, lam) (1, +/-1)^T."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    phi = fundamental_matrix(sys, lam, n)
    init = np.array([1.0, float(sign)], dtype=complex)
    return SampledFunction(phi.values @ init)


def char_det_direct(sys: DiracSystem, bc: BoundaryConditions, lam, n: int):
    """Characteristic determinant assembled from the fundamental matrix at
    x = 1 and the boundary-matrix minors, over a scalar lam or an array:

        Delta(lam) = J12 + J34 e^{i(b1+b2)lam} + J32 phi_11 + J13 phi_12
                     + J42 phi_21 + J14 phi_22.
    """
    if n < 2:
        raise ValueError("grid size N must be >= 2")
    m = minors(bc)
    lam = np.asarray(lam, dtype=complex)
    phi = np.empty((lam.size, 4), dtype=complex)
    for chunk, _, block in _phi_blocks(sys, lam.ravel(), n):  # a chunk's last block leaves Phi(1)
        phi[chunk] = np.stack([p[:, -1] for p in block], axis=-1)
    phi = phi.reshape(lam.shape + (4,))
    exp_sum = np.exp(1j * (sys.b1 + sys.b2) * lam)
    total = (
        m[1, 2]
        + m[3, 4] * exp_sum
        + m[3, 2] * phi[..., 0]
        + m[1, 3] * phi[..., 1]
        + m[4, 2] * phi[..., 2]
        + m[1, 4] * phi[..., 3]
    )
    return complex(total) if lam.ndim == 0 else total
