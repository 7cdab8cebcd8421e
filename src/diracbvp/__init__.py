"""Numerical toolkit for 2x2 Dirac-type boundary value problems.

Computes transformation-operator kernels, characteristic determinants and
canonically ordered spectra of -i B^{-1} y' + Q(x) y = lam y on [0,1], and
runs desk-scale experiments checking the Lipschitz-type stability of these
objects under potential perturbations and the Bari-basis criterion for the
unperturbed problem.
"""

import os as _os

# honor the documented thread cap before the numerics stack loads
_threads = _os.environ.get("DIRACBVP_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .boundary import BoundaryConditions, Minors, RegularityVerdict, canonicalize, classify, delta0, minors
from .gridfn import (
    GridMismatchError,
    InvalidExponentError,
    IterationLimitError,
    PNorm,
    SampledFunction,
    TriangularKernel,
    compose_kernels,
    lp_norm,
    resolvent_kernel,
    x_norm,
)
from .ode import DiracSystem, FundamentalMatrix, char_det_direct, e_pm, fundamental_matrix
from .fourier import BesselReport, bessel_sum, fourier, maximal_fourier, sFk
from .transformop import (
    ComboKernels,
    KernelSet,
    assemble_K,
    build_kernels,
    combos,
    determinant_evaluator,
    kernel_deviation_norms,
    potential_diff_norm,
    r_equation_residual,
    read_kernel,
    reconstruct_e,
    solve_P,
    solve_R,
    write_kernel,
)
from .spectrum import (
    SpectrumEntry,
    SpectrumWindow,
    count_zeros_disk,
    export_csv,
    incompressible_density,
    zeros_delta0,
    zeros_deltaQ,
)
from .bari import BariReport, bari_criterion, bari_terms, ej_quantities, selfadjoint_check
from .stability import (
    DeviationReport,
    PotentialBallSampler,
    eigen_deviation,
    eigenfunction_deviation,
    run_ball_experiment,
    two_sided_check,
)
