"""Direct integration of the 2x2 Dirac-type system -i B^{-1} y' + Q y = lam y.

Rewritten as y' = i B (lam I - Q(x)) y, the system is integrated columnwise
with the classical fixed-step fourth-order Runge-Kutta method on the shared
uniform grid; Q is evaluated at half-nodes by linear interpolation.  This
module is the numerical oracle against which the transformation-operator
reconstruction is checked.
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

    def q_matrix(self, x) -> np.ndarray:
        """Potential matrix at points x, shape (..., 2, 2)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape + (2, 2), dtype=complex)
        out[..., 0, 1] = self.q12(x)
        out[..., 1, 0] = self.q21(x)
        return out


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


def fundamental_matrix(sys: DiracSystem, lam, n: int) -> FundamentalMatrix:
    """Classical RK4 for Phi' = i B (lam I - Q(x)) Phi, Phi(0) = I_2, over a
    scalar lam or an array of them.  The step loop runs once for the whole
    batch; each step's coefficients i B lam - i B Q(x) are built for all lam
    at once, so no per-node coefficient table of the batch is held.  (Q has
    a zero diagonal, so this split is bitwise i B (lam I - Q).)"""
    if n < 2:
        raise ValueError("grid size N must be >= 2")
    lam = np.asarray(lam, dtype=complex)
    h = 1.0 / n
    ib = 1j * np.array([[sys.b1], [sys.b2]])
    x = np.linspace(0.0, 1.0, n + 1)
    ibq_nodes = ib * sys.q_matrix(x)
    ibq_half = ib * sys.q_matrix(x[:-1] + 0.5 * h)
    ib_lam = ib * (lam[..., None, None] * np.eye(2))
    values = np.empty(lam.shape + (n + 1, 2, 2), dtype=complex)
    # a contiguous identity per lam, so every slice takes the same matmul path
    phi = np.broadcast_to(np.eye(2, dtype=complex), ib_lam.shape).copy()
    values[..., 0, :, :] = phi
    a1 = ib_lam - ibq_nodes[0]
    for i in range(n):
        a0 = a1
        am = ib_lam - ibq_half[i]
        a1 = ib_lam - ibq_nodes[i + 1]
        k1 = a0 @ phi
        k2 = am @ (phi + 0.5 * h * k1)
        k3 = am @ (phi + 0.5 * h * k2)
        k4 = a1 @ (phi + h * k3)
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values[..., i + 1, :, :] = phi
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
    m = minors(bc)
    lam = np.asarray(lam, dtype=complex)
    phi = fundamental_matrix(sys, lam, n).at_one()
    exp_sum = np.exp(1j * (sys.b1 + sys.b2) * lam)
    total = (
        m[1, 2]
        + m[3, 4] * exp_sum
        + m[3, 2] * phi[..., 0, 0]
        + m[1, 3] * phi[..., 0, 1]
        + m[4, 2] * phi[..., 1, 0]
        + m[1, 4] * phi[..., 1, 1]
    )
    return complex(total) if lam.ndim == 0 else total
