"""Batch front-end: JSON experiment configs in, CSV/JSON artifacts out.

Usage:  diracbvp <task> --config cfg.json [--out DIR]
with task one of classify, spectrum, kernels, stability, bari, fourier.

Every run writes a manifest (config echo, package version, timings) next
to its outputs; output files cross-reference the manifest by the hash of
the canonical config, so identical configs and seeds give byte-identical
artifacts.  Exit codes: 1 invalid config, 2 numerical failure, 3 I/O
failure.  The environment variable DIRACBVP_THREADS caps the linear
algebra thread count (it is applied on package import).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bari import bari_criterion, selfadjoint_check
from .boundary import BoundaryConditions, canonicalize, classify
from .fourier import bessel_sum
from .gridfn import IterationLimitError, SampledFunction
from .ode import DiracSystem
from .spectrum import (
    ContourTooCloseError,
    NonIntegerWindingError,
    NonRegularError,
    csv_table,
    zeros_delta0,
    zeros_deltaQ,
)
from .stability import PotentialBallSampler, run_ball_experiment
from .transformop import build_kernels, write_kernel

TASKS = ("classify", "spectrum", "kernels", "stability", "bari", "fourier")

_NUMERIC_ERRORS = (
    IterationLimitError,
    NonRegularError,
    ContourTooCloseError,
    NonIntegerWindingError,
    ArithmeticError,
    ValueError,  # after ConfigError, which is handled first
    np.linalg.LinAlgError,
)


class ConfigError(ValueError):
    pass


def _as_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list) and len(value) == 2:
        return complex(value[0], value[1])
    raise ConfigError(f"expected number or [re, im] pair, got {value!r}")


def _as_number(value, where: str, integer: bool = False):
    """A JSON number (integral when ``integer``); booleans and strings are
    config errors, not something for the numerics to trip over later."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if ok and integer and isinstance(value, float):
        ok = value.is_integer()
    if not ok:
        raise ConfigError(f"{where} must be {'an integer' if integer else 'a number'}, got {value!r}")
    return int(value) if integer else float(value)


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def load_potential(spec: dict, n: int, b1: float, b2: float) -> DiracSystem:
    """Builtin potential constructors: zero, trig(coefficients), step
    (breakpoints, values) and file (CSV of x, Re/Im Q12, Re/Im Q21)."""
    _check_keys(spec, {"kind", "q12", "q21", "breakpoints", "q12_values", "q21_values", "path"}, "potential")
    kind = spec.get("kind")
    x = np.linspace(0.0, 1.0, n + 1)
    if kind == "zero":
        return DiracSystem.zero(b1, b2, n)
    if kind == "trig":
        entries = {}
        for key in ("q12", "q21"):
            vals = np.zeros(n + 1, dtype=complex)
            for harm, coeff in (spec.get(key) or {}).items():
                try:
                    m = int(harm)
                except ValueError:
                    raise ConfigError(f"trig harmonic {harm!r} in {key} is not an integer") from None
                vals += _as_complex(coeff) * np.exp(2j * np.pi * m * x)
            entries[key] = SampledFunction(vals)
        return DiracSystem(b1, b2, entries["q12"], entries["q21"])
    if kind == "step":
        breaks = np.asarray(spec.get("breakpoints", []), dtype=float)
        if breaks.size and np.any(np.diff(breaks) <= 0):
            raise ConfigError("step breakpoints must be strictly increasing")
        entries = {}
        for key in ("q12_values", "q21_values"):
            levels = np.array([_as_complex(v) for v in spec.get(key, [0.0])])
            if levels.size != breaks.size + 1:
                raise ConfigError(f"{key} must have len(breakpoints)+1 values")
            entries[key] = SampledFunction(levels[np.searchsorted(breaks, x)])
        return DiracSystem(b1, b2, entries["q12_values"], entries["q21_values"])
    if kind == "file":
        return _load_potential_file(spec.get("path"), n, b1, b2)
    raise ConfigError(f"unknown potential kind {kind!r}")


def _load_potential_file(path, n: int, b1: float, b2: float) -> DiracSystem:
    if path is None:
        raise ConfigError("potential kind 'file' needs a path")
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for line_no, row in enumerate(csv.reader(fh), 1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if len(row) != 5:
                raise ConfigError(f"{path}:{line_no}: need 5 columns (x, ReQ12, ImQ12, ReQ21, ImQ21)")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ConfigError(f"{path}:{line_no}: {exc}") from exc
    if len(rows) < 2:
        raise ConfigError(f"{path}: need at least two sample rows")
    data = np.asarray(rows)
    xs = data[:, 0]
    if np.any(np.diff(xs) <= 0):
        raise ConfigError(f"{path}: x column must be strictly increasing")
    grid = np.linspace(0.0, 1.0, n + 1)
    q12 = np.interp(grid, xs, data[:, 1]) + 1j * np.interp(grid, xs, data[:, 2])
    q21 = np.interp(grid, xs, data[:, 3]) + 1j * np.interp(grid, xs, data[:, 4])
    return DiracSystem(b1, b2, SampledFunction(q12), SampledFunction(q21))


def save_potential(sys: DiracSystem, path) -> None:
    """Counterpart of the 'file' loader; written samples reload bit-exactly
    on the same grid."""
    x = sys.q12.grid
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for xi, v12, v21 in zip(x, sys.q12.samples, sys.q21.samples):
            writer.writerow(
                [repr(float(xi)), repr(float(v12.real)), repr(float(v12.imag)), repr(float(v21.real)), repr(float(v21.imag))]
            )


def _load_bc(spec: dict) -> BoundaryConditions:
    _check_keys(spec, {"matrix", "canonical"}, "bc")
    if "canonical" in spec:
        vals = [_as_complex(v) for v in spec["canonical"]]
        if len(vals) != 4:
            raise ConfigError("canonical bc needs exactly (a, b, c, d)")
        return BoundaryConditions.from_canonical(*vals)
    if "matrix" in spec:
        rows = spec["matrix"]
        if len(rows) != 2 or any(len(r) != 4 for r in rows):
            raise ConfigError("bc matrix must be 2x4")
        return BoundaryConditions(np.array([[_as_complex(v) for v in r] for r in rows]))
    raise ConfigError("bc needs either 'matrix' or 'canonical'")


_TOP_KEYS = {
    "task", "system", "bc", "n", "n_max", "p", "r", "seed", "pairs",
    "tolerances", "eps_ladder", "allow_nonstrict", "fourier", "family",
}
# The tolerance keys each task reads; any other is refused, not ignored.
_TOLERANCE_KEYS = {"kernels": {"kernel_tol", "max_iter"}, "spectrum": {"kernel_tol"}}


def _parse_config(path, task: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")
    if "task" in cfg and cfg["task"] != task:
        raise ConfigError(f"config task {cfg['task']!r} does not match subcommand {task!r}")
    if "tolerances" in cfg:
        _check_keys(cfg["tolerances"], _TOLERANCE_KEYS.get(task, set()), f"tolerances of task {task!r}")
        for key, integer in (("kernel_tol", False), ("max_iter", True)):
            if key in cfg["tolerances"]:
                _as_number(cfg["tolerances"][key], f"tolerances.{key}", integer)
    ranges = {"n": (8, 1 << 16), "n_max": (1, 4096), "pairs": (0, 4096), "seed": (0, 2**63 - 1)}
    for key, (lo, hi) in ranges.items():
        if key in cfg and not (lo <= _as_number(cfg[key], key, integer=True) <= hi):
            raise ConfigError(f"{key} out of range [{lo}, {hi}]")
    if "p" in cfg and not _as_number(cfg["p"], "p") >= 1.0:
        raise ConfigError(f"p must be >= 1, got {cfg['p']!r}")
    if "r" in cfg:
        _as_number(cfg["r"], "r")
    if "family" in cfg and cfg["family"] not in PotentialBallSampler.FAMILIES:
        raise ConfigError(f"family must be one of {PotentialBallSampler.FAMILIES}, got {cfg['family']!r}")
    if "eps_ladder" in cfg:
        ladder = cfg["eps_ladder"]
        if not (isinstance(ladder, list) and ladder and all(_as_number(e, "eps_ladder entry") > 0.0 for e in ladder)):
            raise ConfigError(f"eps_ladder must be a non-empty list of positive numbers, got {ladder!r}")
    _weights(cfg)
    _check_memory(task, _grid_size(cfg, task))
    return cfg


def _weights(cfg: dict) -> tuple[float, float]:
    """(b1, b2) from the config's ``system`` object, whose keys are checked;
    the weights default to the Dirac pair (-1, 1)."""
    system = cfg.get("system", {})
    _check_keys(system, {"b1", "b2", "potential"}, "system")
    b1 = _as_number(system.get("b1", -1.0), "system.b1")
    b2 = _as_number(system.get("b2", 1.0), "system.b2")
    if not b1 < 0.0 < b2:
        raise ConfigError(f"weights must satisfy b1 < 0 < b2, got b1={b1}, b2={b2}")
    return b1, b2


def _grid_size(cfg: dict, task: str) -> int:
    """N from the config, or the task's default: the memory estimate and
    the run read the same value."""
    return int(cfg.get("n", 128 if task == "stability" else 256))


# Tasks that build dense (N+1) x (N+1) x 2 x 2 complex kernels, 64 (N+1)^2
# bytes each.  The kernels task's peak RSS above import measured 4.2 of them
# at N = 1024 and 4.05 at N = 2048 (during assemble_K), so five bound it.
_KERNEL_TASKS = {"spectrum", "kernels", "stability"}
_LIVE_KERNELS = 5


def _check_memory(task: str, n: int) -> None:
    """Refuse, before any numerics run, a request whose estimated peak
    exceeds the machine's physical memory."""
    if task not in _KERNEL_TASKS:
        return
    need = _LIVE_KERNELS * 64 * (n + 1) ** 2
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return  # no way to tell on this platform
    if need > have:
        raise ConfigError(
            f"n={n} needs an estimated {need / 2**30:.1f} GiB of kernel storage, "
            f"more than the {have / 2**30:.1f} GiB of physical memory"
        )


def _config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _system_from(cfg: dict, task: str) -> tuple[DiracSystem, int]:
    spec = cfg.get("system")
    if not isinstance(spec, dict):
        raise ConfigError("config needs a 'system' object")
    n = _grid_size(cfg, task)
    sys_ = load_potential(spec.get("potential", {"kind": "zero"}), n, *_weights(cfg))
    return sys_, n


def _json_sanitize(obj):
    """NaN/inf have no strict-JSON encoding; map them to null."""
    if isinstance(obj, dict):
        return {k: _json_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path: Path, payload: dict, manifest_hash: str) -> None:
    payload = _json_sanitize({"manifest_hash": manifest_hash, **payload})
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list, rows: list, manifest_hash: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["# manifest", manifest_hash])
        writer.writerow(header)
        writer.writerows(rows)


def _complex_json(z: complex):
    return [z.real, z.imag]


def run(task: str, cfg: dict, out_dir: Path) -> int:
    """Dispatch a validated config; returns the exit status."""
    started = time.time()
    out_dir.mkdir(parents=True, exist_ok=True)
    mhash = _config_hash(cfg)
    timings = {}

    bc = _load_bc(cfg.get("bc", {"canonical": [1, 0, 0, 1]}))
    tol = float(cfg.get("tolerances", {}).get("kernel_tol", 1e-10))
    max_iter = int(cfg.get("tolerances", {}).get("max_iter", 200))

    if task == "classify":
        sys_, _ = _system_from(cfg, task)
        verdict = classify(bc, sys_.b1, sys_.b2)
        _write_json(out_dir / "classify.json", {"kind": verdict.kind, "reason": verdict.reason, "ratio": verdict.ratio}, mhash)
    elif task == "spectrum":
        sys_, n = _system_from(cfg, task)
        window = zeros_deltaQ(
            sys_, bc, int(cfg.get("n_max", 20)),
            eps_ladder=tuple(cfg.get("eps_ladder", (0.4, 0.2, 0.1, 0.05))),
            n_grid=n, allow_nonstrict=bool(cfg.get("allow_nonstrict", False)),
            tol=tol,
        )
        _write_csv(out_dir / "spectrum.csv", *csv_table(window), mhash)
        _write_json(out_dir / "spectrum.json", {"head_estimate": window.head_estimate, "strip_height": window.strip_height}, mhash)
    elif task == "kernels":
        sys_, n = _system_from(cfg, task)
        ks = build_kernels(sys_, n, max_iter=max_iter, tol=tol)
        write_kernel(ks.r, out_dir / "kernel_r.bin")
        write_kernel(ks.kplus, out_dir / "kernel_kplus.bin")
        write_kernel(ks.kminus, out_dir / "kernel_kminus.bin")
        _write_json(out_dir / "kernels.json", {"n": n, "residuals": ks.residuals}, mhash)
    elif task == "stability":
        b1, b2 = _weights(cfg)
        sampler = PotentialBallSampler(
            float(cfg.get("p", 2.0)), float(cfg.get("r", 1.0)), int(cfg.get("seed", 0)),
            family=cfg.get("family", "trig"),
        )
        rows, summary = run_ball_experiment(
            sampler, bc, int(cfg.get("pairs", 4)), int(cfg.get("n_max", 12)),
            float(cfg.get("p", 2.0)), n_grid=_grid_size(cfg, task), b1=b1, b2=b2,
        )
        csv_rows = [
            [
                r["pair"], repr(float(r["dq_norm"])), repr(float(r["kernel_dev"])), repr(float(r["eigen_dev"])),
                repr(float(r["eigenfunction_dev"])), repr(float(r["kernel_ratio"])), repr(float(r["eigen_ratio"])),
                repr(float(r["eigenfunction_ratio"])),
            ]
            for r in rows
        ]
        _write_csv(
            out_dir / "stability.csv",
            ["pair", "dq_norm", "kernel_dev", "eigen_dev", "eigenfunction_dev",
             "kernel_ratio", "eigen_ratio", "eigenfunction_ratio"],
            csv_rows, mhash,
        )
        per_n_rows = [
            [r["pair"], n, repr(float(d)), flag]
            for r in rows
            for n, d, flag in r["eigen_rows"]
        ]
        _write_csv(out_dir / "stability_rows.csv", ["pair", "n", "eigen_dev", "flag"], per_n_rows, mhash)
        a, b, c, d = canonicalize(bc)
        _write_json(
            out_dir / "stability.json",
            {
                "experiment_id": mhash,
                "bc_canonical": [_complex_json(v) for v in (a, b, c, d)],
                "p": cfg.get("p", 2.0),
                "r": cfg.get("r", 1.0),
                "summary": summary,
                "pairs": [
                    {k: v for k, v in r.items() if k not in ("eigen_rows", "eigenfunction_rows")}
                    for r in rows
                ],
            },
            mhash,
        )
    elif task == "bari":
        b1, b2 = _weights(cfg)
        report = bari_criterion(bc, b1, b2, int(cfg.get("n_max", 30)))
        payload = {
            "verdict": report.verdict,
            "gate_value": report.gate_value,
            "sum_im2": report.sum_im2,
            "sum_z": report.sum_z,
            "sum_alpha": report.sum_alpha,
            "selfadjoint": selfadjoint_check(bc, b1, b2),
            "detail": report.detail,
            "rows": [
                {"n": n, "lam0": _complex_json(lam0), "im_lam0": im, "z": _complex_json(z),
                 "alpha": None if math.isnan(alpha) else alpha}
                for n, lam0, im, z, alpha in report.rows
            ],
        }
        _write_json(out_dir / "bari.json", payload, mhash)
    elif task == "fourier":
        fcfg = cfg.get("fourier", {})
        _check_keys(fcfg, {"g", "seq", "weighted", "use_maximal"}, "fourier")
        n = _grid_size(cfg, task)
        gspec = fcfg.get("g", {"kind": "trig", "q12": {}, "q21": {"1": 1.0}})
        gsys = load_potential(gspec, n, -1.0, 1.0)
        g = gsys.q21
        seq_spec = fcfg.get("seq", {"kind": "harmonic", "n_max": 50})
        _check_keys(seq_spec, {"kind", "n_max"}, "fourier.seq")
        n_max = int(seq_spec.get("n_max", 50))
        if seq_spec.get("kind") == "harmonic":
            seq = [2 * math.pi * k for k in range(-n_max, n_max + 1)]
            indices = list(range(-n_max, n_max + 1))
        elif seq_spec.get("kind") == "delta0_zeros":
            window = zeros_delta0(bc, *_weights(cfg), n_max)
            seq = [lam for _, lam, _ in window]
            indices = [nn for nn, _, _ in window]
        else:
            raise ConfigError(f"unknown seq kind {seq_spec.get('kind')!r}")
        report = bessel_sum(
            g, seq, float(cfg.get("p", 2.0)),
            weighted=bool(fcfg.get("weighted", False)),
            use_maximal=bool(fcfg.get("use_maximal", True)),
            indices=indices,
        )
        _write_json(
            out_dir / "fourier.json",
            {"sum": report.total, "norm_ref": report.norm_ref, "ratio": report.ratio,
             "weighted": report.weighted, "p": report.p},
            mhash,
        )
    else:  # pragma: no cover - argparse restricts the choices
        raise ConfigError(f"unknown task {task!r}")

    timings["total_s"] = time.time() - started
    artifacts = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }
    manifest = {
        "config": cfg,
        "config_hash": mhash,
        "version": __version__,
        "task": task,
        "artifacts": artifacts,
        "timings": timings,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="diracbvp", description=__doc__.splitlines()[0])
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", default="out", help="output directory (default ./out)")
    args = parser.parse_args(argv)
    try:
        cfg = _parse_config(args.config, args.task)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(args.task, cfg, Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
