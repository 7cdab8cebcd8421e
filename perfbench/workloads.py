"""Workload inputs, requests and output checks of the diracbvp benchmark.

Inputs come from the workload seed alone, and the program receives only
the generated config.  Every output is checked against a route that shares
no code with the one that produced it: the characteristic determinant by a
batched RK4 written here and run on the analytic potential.  The sizes,
norms and thresholds live in ``workloads.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import diracbvp
import diracbvp.cli

SPEC = json.loads(Path(__file__).with_name("workloads.json").read_text(encoding="utf-8"))
CHECKS = SPEC["checks"]


def _trig_values(entry: dict, x: np.ndarray) -> np.ndarray:
    """sum_m c_m e^{2 pi i m x} for a config entry {"m": [re, im]}."""
    out = np.zeros(np.shape(x), dtype=complex)
    for m, (re, im) in entry.items():
        out += complex(re, im) * np.exp(2j * np.pi * int(m) * x)
    return out


def trig_potential(rng: np.random.Generator, harmonics: int, l1_norm: float) -> dict:
    """Seeded trig potential config rescaled to ||Q12||_1 + ||Q21||_1 = l1_norm."""
    ms = range(-harmonics, harmonics + 1)
    coeffs = {
        key: {m: complex(rng.standard_normal(), rng.standard_normal()) / (1.0 + abs(m)) ** 2 for m in ms}
        for key in ("q12", "q21")
    }
    x = np.linspace(0.0, 1.0, 4097)
    norm = sum(
        float(np.trapezoid(np.abs(sum(c * np.exp(2j * np.pi * m * x) for m, c in cs.items())), x))
        for cs in coeffs.values()
    )
    scale = l1_norm / norm
    return {
        "kind": "trig",
        **{key: {str(m): [c.real * scale, c.imag * scale] for m, c in cs.items()} for key, cs in coeffs.items()},
    }


def make_config(name: str, seed: int, overrides: dict | None = None) -> dict:
    """The config one request of workload ``name`` sends, made from ``seed``.

    ``overrides`` replaces sizes from workloads.json (smoke tests use it).
    """
    w = {**SPEC["workloads"][name], **(overrides or {})}
    rng = np.random.default_rng(seed)
    b1, b2 = w["b"]
    cfg: dict = {"system": {"b1": b1, "b2": b2}, "n": w["n"]}
    if w["route"] == "cli":
        cfg["task"] = w["task"]
    if "bc_canonical" in w:
        cfg["bc"] = {"canonical": list(w["bc_canonical"])}
    if "n_max" in w:
        cfg["n_max"] = w["n_max"]
    if "pairs" in w:
        # the program's own ball sampler draws the potentials from this seed
        cfg.update(pairs=w["pairs"], p=w["p"], r=w["r"], family="trig", seed=int(rng.integers(2**31)))
    else:
        pot = SPEC["potential"]
        cfg["system"]["potential"] = trig_potential(rng, pot["harmonics"], pot["l1_norm"])
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


# ------------------------------------------------------------ requests --
class Workload:
    """Sends one workload's requests through the program's public API.

    Module attributes are looked up at call time, so a tracer that
    replaced them sees the call.
    """

    def __init__(self, name: str, cfg: dict, work_dir: Path):
        self.cfg = cfg
        self.route = SPEC["workloads"][name]["route"]
        self.work_dir = work_dir
        work_dir.mkdir(parents=True, exist_ok=True)
        self.cfg_path = work_dir / "config.json"
        self.cfg_path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        if self.route == "library":
            b1, b2 = cfg["system"]["b1"], cfg["system"]["b2"]
            self.sys = diracbvp.cli.load_potential(cfg["system"]["potential"], cfg["n"], b1, b2)
            self.bc = diracbvp.BoundaryConditions.from_canonical(*cfg["bc"]["canonical"])
            self.determinant = SPEC["workloads"][name]["determinant"]

    def request(self, index: int):
        """Send one request; returns its output (a directory or a window).

        Raises RuntimeError when the CLI exits with a non-zero code.
        """
        if self.route == "library":
            return diracbvp.spectrum.zeros_deltaQ(
                self.sys, self.bc, self.cfg["n_max"], n_grid=self.cfg["n"], determinant=self.determinant
            )
        out = self.work_dir / f"req-{index}"
        code = diracbvp.cli.main([self.cfg["task"], "--config", str(self.cfg_path), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"CLI exited with code {code}")
        return out


def output_hashes(output) -> dict:
    """Artifact hashes: the CLI manifest's, or a digest of the window."""
    if isinstance(output, Path):
        return json.loads((output / "manifest.json").read_text(encoding="utf-8"))["artifacts"]
    rows = [
        [e.n, repr(e.lam0), repr(e.lam), e.multiplicity, repr(e.ladder_eps), e.verified] for e in output.entries
    ]
    payload = json.dumps({"entries": rows, "head_estimate": output.head_estimate})
    return {"window": hashlib.sha256(payload.encode()).hexdigest()[:16]}


def artifact_bytes(output) -> int:
    if isinstance(output, Path):
        return sum(p.stat().st_size for p in output.iterdir() if p.is_file())
    return 0


# -------------------------------------------------- independent oracle --
def phi_at_one(b1: float, b2: float, q12, q21, lams, n: int) -> np.ndarray:
    """Phi(1, lam) of Phi' = i B (lam I - Q(x)) Phi, Phi(0) = I, by classical
    RK4 with N steps, batched over lam; q12, q21 are callables of x."""
    lams = np.asarray(lams, dtype=complex).ravel()
    h = 1.0 / n
    x = np.linspace(0.0, 1.0, 2 * n + 1)  # nodes and half-nodes
    off = np.stack([-1j * b1 * q12(x), -1j * b2 * q21(x)], axis=1)
    coeff = np.zeros((lams.size, 2, 2), dtype=complex)
    coeff[:, 0, 0] = 1j * b1 * lams
    coeff[:, 1, 1] = 1j * b2 * lams

    def at(k):
        coeff[:, 0, 1], coeff[:, 1, 0] = off[k]
        return coeff.copy()

    phi = np.broadcast_to(np.eye(2, dtype=complex), coeff.shape).copy()
    a1 = at(0)
    for i in range(n):
        a0, am, a1 = a1, at(2 * i + 1), at(2 * i + 2)
        k1 = a0 @ phi
        k2 = am @ (phi + 0.5 * h * k1)
        k3 = am @ (phi + 0.5 * h * k2)
        k4 = a1 @ (phi + h * k3)
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return phi


def oracle_determinant(cfg: dict, canonical, lams, n: int) -> np.ndarray:
    """Delta(lam) = J12 + J34 e^{i(b1+b2)lam} + J32 phi11 + J13 phi12
    + J42 phi21 + J14 phi22, with J_jk the minors of the canonical bc."""
    a, b, c, d = (complex(v) for v in canonical)
    rows = np.array([[1.0, b, a, 0.0], [0.0, d, c, 1.0]], dtype=complex)

    def j(p, q):
        return rows[0, p - 1] * rows[1, q - 1] - rows[0, q - 1] * rows[1, p - 1]

    b1, b2 = cfg["system"]["b1"], cfg["system"]["b2"]
    pot = cfg["system"]["potential"]
    lams = np.asarray(lams, dtype=complex)
    phi = phi_at_one(
        b1, b2, lambda x: _trig_values(pot.get("q12", {}), x), lambda x: _trig_values(pot.get("q21", {}), x), lams, n
    )
    return (
        j(1, 2)
        + j(3, 4) * np.exp(1j * (b1 + b2) * lams.ravel())
        + j(3, 2) * phi[:, 0, 0]
        + j(1, 3) * phi[:, 0, 1]
        + j(4, 2) * phi[:, 1, 0]
        + j(1, 4) * phi[:, 1, 1]
    ).reshape(lams.shape)


def newton_distance(cfg: dict, lams, n: int) -> float:
    """Largest Newton step |Delta/Delta'| from the given points to the zeros
    of the oracle determinant on the N-step grid."""
    lams = np.asarray(lams, dtype=complex)
    step = 1e-6 * (1.0 + np.abs(lams))
    pts = np.concatenate([lams, lams + step, lams - step])
    vals = oracle_determinant(cfg, cfg["bc"]["canonical"], pts, n).reshape(3, -1)
    deriv = (vals[1] - vals[2]) / (2 * step)
    return float(np.max(np.abs(vals[0] / deriv)))


# -------------------------------------------------------------- checks --
def _csv_rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[2:]  # skip the manifest and header rows


def check_output(name: str, cfg: dict, output) -> dict:
    """Check one request's output; returns the measured errors and, under
    "failure", why the output is wrong (None when it passes)."""
    if name == "kernels":
        return _check_kernels(cfg, output)
    if name == "stability":
        return _check_stability(cfg, output)
    if isinstance(output, Path):
        rows = _csv_rows(output / "spectrum.csv")
        ns = [int(r[0]) for r in rows]
        lams = [complex(float(r[3]), float(r[4])) for r in rows]
        head = json.loads((output / "spectrum.json").read_text(encoding="utf-8"))["head_estimate"]
    else:
        ns = [e.n for e in output.entries]
        lams = [e.lam for e in output.entries]
        head = output.head_estimate
    n_max = cfg["n_max"]
    res = {"unverified_head": head, "eig_err": math.nan, "failure": None}
    if ns != list(range(-n_max, n_max + 1)):
        res["failure"] = f"indices {ns[:3]}... are not -n_max..n_max"
        return res
    res["eig_err"] = newton_distance(cfg, lams, 2 * cfg["n"])
    if not res["eig_err"] <= CHECKS["eig_err_max"]:
        res["failure"] = f"eig_err {res['eig_err']:.3e} > {CHECKS['eig_err_max']}"
    return res


def _check_kernels(cfg: dict, out: Path) -> dict:
    n = cfg["n"]
    b1, b2 = cfg["system"]["b1"], cfg["system"]["b2"]
    res = {"det_err": math.nan, "failure": None}
    kernels = {key: diracbvp.read_kernel(out / f"kernel_{key}.bin") for key in ("r", "kplus", "kminus")}
    if any(k.n != n for k in kernels.values()):
        res["failure"] = "kernel dump has the wrong grid size"
        return res
    residual = json.loads((out / "kernels.json").read_text(encoding="utf-8"))["residuals"]["R"]
    if not residual <= CHECKS["kernel_residual_max"]:
        res["failure"] = f"R residual {residual} > {CHECKS['kernel_residual_max']}"
        return res
    canonical = CHECKS["det_bc_canonical"]
    bc = diracbvp.BoundaryConditions.from_canonical(*canonical)
    delta = diracbvp.determinant_evaluator(bc, diracbvp.combos(kernels["kplus"], kernels["kminus"]), b1, b2)
    re = np.linspace(*CHECKS["det_lambda_re"])
    im = np.linspace(*CHECKS["det_lambda_im"])
    lams = (re[:, None] + 1j * im[None, :]).ravel()
    res["det_err"] = float(np.max(np.abs(delta(lams) - oracle_determinant(cfg, canonical, lams, n))))
    if not res["det_err"] <= CHECKS["det_err_max"]:
        res["failure"] = f"det_err {res['det_err']:.3e} > {CHECKS['det_err_max']}"
    return res


def _check_stability(cfg: dict, out: Path) -> dict:
    report = json.loads((out / "stability.json").read_text(encoding="utf-8"))
    pairs = report["pairs"]
    res = {"unverified_head": max((p["head"] for p in pairs), default=0), "failure": None}
    if len(pairs) != cfg["pairs"] or len(_csv_rows(out / "stability.csv")) != cfg["pairs"]:
        res["failure"] = f"expected {cfg['pairs']} pairs, got {len(pairs)}"
        return res
    for key, agg in sorted(report["summary"].items()):
        spread = agg["spread"]
        if spread is None or not spread <= CHECKS["ratio_spread_max"]:
            res["failure"] = f"{key} spread {spread} > {CHECKS['ratio_spread_max']}"
            return res
    return res
