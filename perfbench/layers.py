"""What the traced run wraps, and the metrics the benchmark reports.

``BENCHMARK.json`` lists the same metrics; a test keeps the two in step.
"""

from __future__ import annotations

import os

import numpy as np

# module -> functions to wrap (None: every function in the module's __all__).
# The CLI is wrapped at its entry point, so cli.main.self_s holds config
# parsing, artifact writing and manifest hashing.
LAYERS = {
    "transformop": None,
    "spectrum": None,
    "ode": None,
    "stability": None,
    "gridfn": None,
    "boundary": None,
    "cli": ["main"],
}


def _kernelset_bytes(tracer, span, args, kwargs, result):
    # computed from array sizes, not measured
    span.bytes = sum(
        a.nbytes
        for a in (result.r.data, result.pplus.samples, result.pminus.samples, result.kplus.data, result.kminus.data)
    )
    return result


def _file_bytes(tracer, span, args, kwargs, result):
    span.bytes = os.path.getsize(kwargs["path"] if "path" in kwargs else args[1])
    return result


def _lambda_points(tracer, span, args, kwargs, result):
    span.points = int(np.size(kwargs["lam"] if "lam" in kwargs else args[0]))
    return result


def _traced_delta(tracer, span, args, kwargs, result):
    return tracer.wrap("transformop.delta", result, _lambda_points)


def _keep_solved_r(tracer, span, args, kwargs, result):
    sys_ = kwargs["sys"] if "sys" in kwargs else args[0]
    tracer.captured["solve_R"] = (sys_, result[0] if isinstance(result, tuple) else result)
    return result


HOOKS = {
    "transformop.build_kernels": _kernelset_bytes,
    "transformop.write_kernel": _file_bytes,
    "transformop.determinant_evaluator": _traced_delta,
    "transformop.solve_R": _keep_solved_r,
}

# (name, unit, better, bound); timings are medians over a run's requests
END_TO_END = [
    ("solve_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# (name, unit, better); span statistics are per request, medians over the
# traced requests.  det_err, eig_err and unverified_head are the output
# checks' numbers (0 on a workload that makes no such output).
PER_LAYER = [
    ("transformop.solve_R.s", "s", "lower"),
    ("transformop.solve_R.calls", "count", "lower"),
    ("transformop.r_sweep_s", "s", "lower"),
    ("transformop.solve_P.s", "s", "lower"),
    ("transformop.assemble_K.s", "s", "lower"),
    ("transformop.build_kernels.calls", "count", "lower"),
    ("transformop.build_kernels.bytes", "bytes-computed", "lower"),
    ("transformop.delta.points", "count", "lower"),
    ("transformop.delta.s", "s", "lower"),
    ("transformop.kernel_deviation_norms.s", "s", "lower"),
    ("gridfn.x_norm.s", "s", "lower"),
    ("transformop.write_kernel.s", "s", "lower"),
    ("transformop.write_kernel.bytes", "bytes", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("spectrum.zeros_delta0.s", "s", "lower"),
    ("spectrum.zeros_delta0.calls", "count", "lower"),
    ("spectrum.count_zeros_disk.s", "s", "lower"),
    ("spectrum.count_zeros_disk.calls", "count", "lower"),
    ("spectrum.count_zeros_disk.failed", "count", "lower"),
    ("spectrum.zeros_deltaQ.self_s", "s", "lower"),
    ("spectrum.zeros_deltaQ.calls", "count", "lower"),
    ("ode.fundamental_matrix.s", "s", "lower"),
    ("ode.fundamental_matrix.calls", "count", "lower"),
    ("ode.char_det_direct.calls", "count", "lower"),
    ("stability.eigen_deviation.s", "s", "lower"),
    ("stability.eigenfunction_deviation.s", "s", "lower"),
    ("stability.run_ball_experiment.self_s", "s", "lower"),
    ("boundary.classify.calls", "count", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("det_err", "abs", "lower"),
    ("eig_err", "abs", "lower"),
    ("unverified_head", "count", "lower"),
]
