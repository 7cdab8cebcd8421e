"""Batch front-end: JSON experiment configs in, CSV/JSON artifacts out.

Usage:  diracbvp <task> --config cfg.json [--out DIR]
with task one of classify, spectrum, kernels, stability, bari, fourier.

Each task reads only its own keys, listed with their defaults in
``_TASK_KEYS`` and in the README (``system.b1`` is the key ``b1`` of the
object ``system``).  Any other key, or a value of the wrong type or out of
range, is a config error, refused before the output directory is made.

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
import io
import json
import math
import os
import sys
import time
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from . import __version__
from .bari import bari_criterion, selfadjoint_check
from .boundary import BoundaryConditions, canonicalize, classify
from .fourier import bessel_sum
from .gridfn import InvalidExponentError, IterationLimitError, PNorm, SampledFunction
from .ode import DiracSystem
from .spectrum import (
    EPS_LADDER_DEFAULT,
    ContourTooCloseError,
    NonIntegerWindingError,
    NonRegularError,
    csv_table,
    zeros_delta0,
    zeros_deltaQ,
)
from .stability import PotentialBallSampler, run_ball_experiment
from .transformop import (
    DEFAULT_TOL,
    _march_dumps,
    build_kernels,  # noqa: F401  kept bound here: perfbench's tracer wraps every module's binding
)

TASKS = ("classify", "spectrum", "kernels", "stability", "bari", "fourier")

_NUMERIC_ERRORS = (
    IterationLimitError,
    NonRegularError,
    ContourTooCloseError,
    NonIntegerWindingError,
    ArithmeticError,
    ValueError,  # after ConfigError and InvalidExponentError, which are handled first
    np.linalg.LinAlgError,
)


class ConfigError(ValueError):
    pass


def _as_number(value, where: str, integer: bool = False):
    """A finite JSON number, kept as written (an int when ``integer``, which
    also accepts an integral float); booleans, strings, NaN and +-Infinity
    are config errors, not something for the numerics to trip over later."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if ok and isinstance(value, float):
        ok = value.is_integer() if integer else math.isfinite(value)
    if not ok:
        raise ConfigError(f"{where} must be {'an integer' if integer else 'a finite number'}, got {value!r}")
    return int(value) if integer else value


def _as_complex(value, where: str) -> complex:
    """A JSON number or [re, im] pair of numbers."""
    pair = value if isinstance(value, list) and len(value) == 2 else [value, 0.0]
    return complex(*(_as_number(v, f"{where} (a number or [re, im] pair)") for v in pair))


def _as_list(value, where: str, length: int | None = None) -> list:
    if not isinstance(value, list) or length not in (None, len(value)):
        raise ConfigError(f"{where} must be a list{f' of {length}' if length else ''}, got {value!r}")
    return value


def _as_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    return value


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(_as_object(obj, where)) - allowed
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
            for harm, coeff in _as_object(spec.get(key) or {}, f"trig {key}").items():
                try:
                    m = int(harm)
                except ValueError:
                    raise ConfigError(f"trig harmonic {harm!r} in {key} is not an integer") from None
                vals += _as_complex(coeff, f"trig {key}") * np.exp(2j * np.pi * m * x)
            entries[key] = SampledFunction(vals)
        return DiracSystem(b1, b2, entries["q12"], entries["q21"])
    if kind == "step":
        breaks = _as_list(spec.get("breakpoints", []), "step breakpoints")
        breaks = np.array([_as_number(v, "step breakpoints") for v in breaks], dtype=float)
        if breaks.size and np.any(np.diff(breaks) <= 0):
            raise ConfigError("step breakpoints must be strictly increasing")
        entries = {}
        for key in ("q12_values", "q21_values"):
            levels = np.array([_as_complex(v, key) for v in _as_list(spec.get(key, [0.0]), key)])
            if levels.size != breaks.size + 1:
                raise ConfigError(f"{key} must have len(breakpoints)+1 values")
            entries[key] = SampledFunction(levels[np.searchsorted(breaks, x)])
        return DiracSystem(b1, b2, entries["q12_values"], entries["q21_values"])
    if kind == "file":
        return _load_potential_file(spec.get("path"), n, b1, b2)
    raise ConfigError(f"unknown potential kind {kind!r}")


def _load_potential_file(path, n: int, b1: float, b2: float) -> DiracSystem:
    if not isinstance(path, str):
        raise ConfigError(f"potential kind 'file' needs a path, got {path!r}")
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for line_no, row in enumerate(csv.reader(fh), 1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if len(row) != 5:
                raise ConfigError(f"{path}:{line_no}: need 5 columns (x, ReQ12, ImQ12, ReQ21, ImQ21)")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise ConfigError(f"{path}:{line_no}: {exc}") from exc
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"{path}:{line_no}: numbers must be finite, got {row}")
            rows.append(values)
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


def _load_bc(spec: dict, key: str) -> BoundaryConditions:
    _check_keys(spec, {"matrix", "canonical"}, key)
    if "canonical" in spec:
        vals = _as_list(spec["canonical"], f"{key}.canonical", 4)
        return BoundaryConditions.from_canonical(*(_as_complex(v, f"{key}.canonical") for v in vals))
    if "matrix" in spec:
        rows = [_as_list(r, f"{key}.matrix row", 4) for r in _as_list(spec["matrix"], f"{key}.matrix", 2)]
        matrix = np.array([[_as_complex(v, f"{key}.matrix") for v in r] for r in rows])
        try:
            return BoundaryConditions(matrix)
        except ValueError as exc:  # rows of rank < 2 define no problem
            raise ConfigError(f"{key}.matrix: {exc}") from exc
    raise ConfigError(f"{key} needs either 'matrix' or 'canonical'")


def _check(rule: str, ok, read=lambda value, key: value):
    """The check of one key: ``read`` parses its value and ``ok`` must hold
    for the result, which is what the task runs with."""
    def check(value, key):
        parsed = read(value, key)
        if not ok(parsed):
            raise ConfigError(f"{key} must be {rule}, got {value!r}")
        return parsed
    return check


def _integer(lo: int, hi: int):
    return _check(f"an integer in [{lo}, {hi}]", lambda v: lo <= v <= hi, lambda v, key: _as_number(v, key, integer=True))


def _exponent(value, key: str):
    """An L^p exponent, which PNorm checks (InvalidExponentError, exit 1);
    p = Infinity is the sup norm."""
    PNorm(value if value == math.inf else _as_number(value, key))
    return value


_POSITIVE = _check("positive", lambda v: v > 0.0, _as_number)
_BOOLEAN = _check("true or false", lambda v: isinstance(v, bool))
_COUNT = _integer(1, 4096)
# One check per config key, by its dotted path.
_CHECKS = {
    "system.b1": _check("negative", lambda v: v < 0.0, _as_number),
    "system.b2": _POSITIVE,
    "system.potential": _as_object,
    "bc": _load_bc,
    "n": _integer(8, 1 << 16),
    "n_max": _COUNT,
    "pairs": _integer(0, 4096),
    "seed": _integer(0, 2**63 - 1),
    "p": _exponent,
    "r": _POSITIVE,
    "family": _check(f"one of {PotentialBallSampler.FAMILIES}", lambda v: v in PotentialBallSampler.FAMILIES),
    "eps_ladder": _check(
        "a non-empty list of positive numbers",
        lambda v: isinstance(v, list) and v and all(_as_number(e, "eps_ladder entry") > 0.0 for e in v),
    ),
    "allow_nonstrict": _BOOLEAN,
    "tolerances.kernel_tol": _POSITIVE,
    "fourier.g": _as_object,
    "fourier.seq.kind": _check("harmonic or delta0_zeros", lambda v: v in ("harmonic", "delta0_zeros")),
    "fourier.seq.n_max": _COUNT,
    "fourier.weighted": _BOOLEAN,
    "fourier.use_maximal": _BOOLEAN,
}
# Objects whose keys are config keys in their own right.
_GROUPS = {key.rpartition(".")[0] for key in _CHECKS} - {""}

_WEIGHTS = {"system.b1": -1.0, "system.b2": 1.0}
_BC = {"bc": {"canonical": [1, 0, 0, 1]}}
# (1, 0, 0, 1) is regular but not strictly regular under the default
# weights (-1, 1), which the tasks that pair spectra refuse
_BC_STRICT = {"bc": {"canonical": [0, 1, 1, 0]}}
_GRID = {"n": 256}
_P = {"p": 2.0}
_TOL = {"tolerances.kernel_tol": DEFAULT_TOL}
_SYSTEM = {**_WEIGHTS, "system.potential": {"kind": "zero"}, **_GRID}
# The keys each task reads and their defaults, written as in a config (the
# README lists them); a task refuses every other key.
_TASK_KEYS = {
    "classify": {**_WEIGHTS, **_BC},
    "spectrum": {**_SYSTEM, **_BC_STRICT, "n_max": 20, "eps_ladder": list(EPS_LADDER_DEFAULT), "allow_nonstrict": False, **_TOL},
    "kernels": {**_SYSTEM, **_TOL},
    "stability": {**_WEIGHTS, **_BC_STRICT, "n": 128, "n_max": 12, "pairs": 4, **_P, "r": 1.0, "seed": 0, "family": "trig"},
    "bari": {**_WEIGHTS, **_BC, "n_max": 30},
    "fourier": {
        **_WEIGHTS, **_BC, **_GRID, **_P, "fourier.g": {"kind": "trig", "q12": {}, "q21": {"1": 1.0}},
        "fourier.seq.kind": "harmonic", "fourier.seq.n_max": 50, "fourier.weighted": False, "fourier.use_maximal": True,
    },
}


def _flatten(obj: dict, prefix: str = ""):
    """(dotted path, value) for every key of a config, inside groups too."""
    for key, value in obj.items():
        if prefix + key in _GROUPS:
            yield from _flatten(_as_object(value, prefix + key), prefix + key + ".")
        else:
            yield prefix + key, value


def _parse_config(path, task: str) -> tuple[dict, dict]:
    """The config as given, and the values the task runs with: one per key
    of ``_TASK_KEYS[task]``, checked, defaults filled in, with ``bc`` as
    BoundaryConditions and the potential specs (``system.potential``,
    ``fourier.g``) as DiracSystems on the task's grid."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    given = dict(_flatten(_as_object(cfg, "config")))
    if given.pop("task", task) != task:
        raise ConfigError(f"config task {cfg['task']!r} does not match subcommand {task!r}")
    keys = _TASK_KEYS[task]
    unknown = sorted(set(given) - set(keys))
    if unknown:
        raise ConfigError(f"unknown keys for task {task!r}: {', '.join(unknown)}")
    values = {key: _CHECKS[key](given.get(key, default), key) for key, default in keys.items()}
    if task in _LIVE_KERNELS:
        _check_memory(task, values["n"])
    for key in {"system.potential", "fourier.g"} & set(values):
        values[key] = load_potential(values[key], values["n"], values["system.b1"], values["system.b2"])
    return cfg, values


# Tasks that march kernels on the (N+1) x (N+1) grid, and an upper bound on
# their peak in dense kernels of 64 (N+1)^2 bytes each: kernels 0.98 of
# resident growth from N = 16 to N = 512 (R, K+ and K- marched into a
# mapped store of their three packed dumps, 1.5 dense kernels, whose
# finished rows are released as the march goes; tracemalloc does not see
# it), and, from traced peaks at N = 256, spectrum 0.18 and stability
# 0.60 (each K+/- row's trace at x = 1 and, for stability, the kernel
# deviation's row and column sums; 0.09 and 0.29 at N = 512).
_LIVE_KERNELS = {"spectrum": 1, "kernels": 2, "stability": 1}


def _check_memory(task: str, n: int) -> None:
    """Refuse, before any numerics run, a request whose estimated peak
    exceeds the machine's physical memory."""
    need = _LIVE_KERNELS[task] * 64 * (n + 1) ** 2
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


def _json_sanitize(obj):
    """NaN/inf have no strict-JSON encoding; map them to null."""
    if isinstance(obj, dict):
        return {k: _json_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _json_bytes(payload: dict, manifest_hash: str) -> bytes:
    payload = _json_sanitize({"manifest_hash": manifest_hash, **payload})
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _csv_bytes(header: list, rows: list, manifest_hash: str) -> bytes:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["# manifest", manifest_hash])
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode("utf-8")


def _complex_json(z: complex):
    return [z.real, z.imag]


def run(task: str, cfg: dict, v: dict, out_dir: Path) -> int:
    """Run a task on ``v``, the checked values that ``_parse_config`` made
    from the config ``cfg``; returns the exit status.  The manifest lists
    the files the run wrote, each with the first 16 hex digits of the
    sha256 of the bytes it wrote."""
    started = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    mhash = _config_hash(cfg)
    timings = {}
    artifacts = {}
    bc, b1, b2 = v.get("bc"), v["system.b1"], v["system.b2"]

    def write(name: str, data) -> None:
        (out_dir / name).write_bytes(data)
        artifacts[name] = hashlib.sha256(data).hexdigest()[:16]

    if task == "classify":
        verdict = classify(bc, b1, b2)
        write("classify.json", _json_bytes({"kind": verdict.kind, "reason": verdict.reason, "ratio": verdict.ratio}, mhash))
    elif task == "spectrum":
        window = zeros_deltaQ(
            v["system.potential"], bc, v["n_max"], eps_ladder=v["eps_ladder"], n_grid=v["n"],
            allow_nonstrict=v["allow_nonstrict"], tol=v["tolerances.kernel_tol"],
        )
        write("spectrum.csv", _csv_bytes(*csv_table(window), mhash))
        write("spectrum.json", _json_bytes({"head_estimate": window.head_estimate, "strip_height": window.strip_height}, mhash))
    elif task == "kernels":
        # build_kernels' march into the dumps' packed triangles, which hands
        # each dump's rows over as they become final: each is hashed and
        # written to a .part file, renamed once every check has passed
        system, n = v["system.potential"], v["n"]
        names = ("kernel_r.bin", "kernel_kplus.bin", "kernel_kminus.bin")
        parts = [out_dir / f"{name}.part" for name in names]
        hashes = [hashlib.sha256() for _ in names]
        done = []
        dumps_s = 0.0
        try:
            with ExitStack() as files:
                sinks = [files.enter_context(open(part, "wb")) for part in parts]

                def sink(s, chunk):
                    nonlocal dumps_s
                    clock = time.perf_counter()
                    hashes[s].update(chunk)
                    sinks[s].write(chunk)
                    dumps_s += time.perf_counter() - clock

                start = time.perf_counter()
                *_, residuals, p_s = _march_dumps(system, n, v["tolerances.kernel_tol"], sink)
                timings.update(march_s=time.perf_counter() - start - p_s - dumps_s, p_s=p_s, dumps_s=dumps_s)
            for part, name in zip(parts, names):
                os.replace(part, out_dir / name)
                done.append(out_dir / name)
        except BaseException:
            for path in parts + done:
                path.unlink(missing_ok=True)
            raise
        artifacts.update((name, digest.hexdigest()[:16]) for name, digest in zip(names, hashes))
        write("kernels.json", _json_bytes({"n": n, "residuals": residuals}, mhash))
    elif task == "stability":
        sampler = PotentialBallSampler(v["p"], v["r"], v["seed"], family=v["family"])
        rows, summary = run_ball_experiment(sampler, bc, v["pairs"], v["n_max"], v["p"], n_grid=v["n"], b1=b1, b2=b2)
        columns = ["dq_norm", "kernel_dev", "eigen_dev", "eigenfunction_dev", "kernel_ratio", "eigen_ratio",
                   "eigenfunction_ratio"]
        csv_rows = [[r["pair"], *(repr(float(r[c])) for c in columns)] for r in rows]
        write("stability.csv", _csv_bytes(["pair", *columns], csv_rows, mhash))
        per_n_rows = [[r["pair"], n, repr(float(d)), flag] for r in rows for n, d, flag in r["eigen_rows"]]
        write("stability_rows.csv", _csv_bytes(["pair", "n", "eigen_dev", "flag"], per_n_rows, mhash))
        a, b, c, d = canonicalize(bc)
        payload = {
            "experiment_id": mhash,
            "bc_canonical": [_complex_json(z) for z in (a, b, c, d)],
            "p": v["p"],
            "r": v["r"],
            "summary": summary,
            "pairs": [{k: x for k, x in r.items() if k not in ("eigen_rows", "eigenfunction_rows")} for r in rows],
        }
        write("stability.json", _json_bytes(payload, mhash))
    elif task == "bari":
        report = bari_criterion(bc, b1, b2, v["n_max"])
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
        write("bari.json", _json_bytes(payload, mhash))
    elif task == "fourier":
        n_max = v["fourier.seq.n_max"]
        if v["fourier.seq.kind"] == "harmonic":
            indices = list(range(-n_max, n_max + 1))
            seq = [2 * math.pi * k for k in indices]
        else:
            window = zeros_delta0(bc, b1, b2, n_max)
            seq = [lam for _, lam, _ in window]
            indices = [nn for nn, _, _ in window]
        report = bessel_sum(v["fourier.g"].q21, seq, v["p"], weighted=v["fourier.weighted"],
                            use_maximal=v["fourier.use_maximal"], indices=indices)
        payload = {"sum": report.total, "norm_ref": report.norm_ref, "ratio": report.ratio,
                   "weighted": report.weighted, "p": report.p}
        write("fourier.json", _json_bytes(payload, mhash))

    timings["total_s"] = time.perf_counter() - started
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
        cfg, values = _parse_config(args.config, args.task)
        return run(args.task, cfg, values, Path(args.out))
    except (ConfigError, InvalidExponentError) as exc:
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
