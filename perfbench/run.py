#!/usr/bin/env python3
"""diracbvp benchmark: a closed loop of one client sending one request at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads, sizes and thresholds are in perfbench/workloads.json.  A run
builds one config from the seed, sends it repeatedly for S seconds (at
least ``min_requests`` times) from this single process, then checks every
output against an independent route, outside the timed region.  The
linear-algebra thread count is capped at the number of usable cores
through DIRACBVP_THREADS.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
spends half the time untraced and half traced and reports the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Records, spans and kernel dumps go under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))


def load_program():
    """Import diracbvp from this checkout's src/ and nowhere else.

    The package turns DIRACBVP_THREADS into the BLAS thread variables on
    import, so this runs before anything loads numpy.
    """
    os.environ["DIRACBVP_THREADS"] = str(NPROC)
    if not (SRC / "diracbvp" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program source at {SRC.relative_to(ROOT)}/diracbvp")
    sys.path.insert(0, str(SRC))
    import diracbvp
    import diracbvp.cli

    if Path(diracbvp.__file__).resolve().parent != SRC / "diracbvp":
        raise SystemExit(f"benchmark: imported diracbvp from {diracbvp.__file__}, not from src/")
    return diracbvp


diracbvp = load_program()

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Request:
    index: int
    seconds: float
    output: object
    error: str | None
    traced: bool
    hashes: dict = field(default_factory=dict)
    check: dict = field(default_factory=dict)


# ------------------------------------------------------------- numbers --
def median(samples) -> float:
    return statistics.median(samples) if samples else math.nan


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None below 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def timings(reqs) -> list:
    """Wall times, with failed requests as missing every latency limit."""
    return [math.inf if r.error else r.seconds for r in reqs]


def measure_setup(repeats: int) -> list:
    """Seconds from process start to `import diracbvp` done, fresh processes."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = []
    for _ in range(repeats):
        t0 = perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import diracbvp"], env=env, cwd=ROOT, check=True)
        out.append(perf_counter() - t0)
    return out


# --------------------------------------------------------- environment --
def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(name: str, seed: int, trace: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "diracbvp").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "threads_env": {k: os.environ.get(k) for k in ("DIRACBVP_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": NPROC,
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "program_version": diracbvp.__version__,
    }


# ---------------------------------------------------------------- loop --
def closed_loop(wl, seconds: float, min_requests: int, first: int, tracer=None) -> list:
    """Send requests one after another while the next one is expected to
    finish within ``seconds``, and at least ``min_requests`` times."""
    reqs: list[Request] = []
    start = perf_counter()
    while len(reqs) < min_requests or perf_counter() - start + median([r.seconds for r in reqs]) <= seconds:
        index = first + len(reqs)
        if tracer is not None:
            tracer.request = index
        t0 = perf_counter()
        try:
            output, error = wl.request(index), None
        except (Exception, SystemExit) as exc:  # a failed request is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            output, error = None, f"{type(exc).__name__}: {exc}"
        reqs.append(Request(index, perf_counter() - t0, output, error, tracer is not None))
    return reqs


def verify(name: str, cfg: dict, reqs: list, src_sha256: str) -> None:
    """Check each output and compare its artifact hashes with every other
    request's and with earlier runs of the same config on the same program
    source; a failed check or a mismatch marks the request failed."""
    registry = OUT / "hashes" / f"{name}-{workloads.config_hash(cfg)}-{src_sha256}.json"
    reference = json.loads(registry.read_text(encoding="utf-8")) if registry.is_file() else None
    verdicts: dict = {}
    for r in reqs:
        if r.error:
            continue
        try:
            r.hashes = workloads.output_hashes(r.output)
            key = json.dumps(r.hashes, sort_keys=True)
            if key not in verdicts:  # identical bytes get the same verdict
                verdicts[key] = workloads.check_output(name, cfg, r.output)
            r.check = verdicts[key]
            r.error = r.check["failure"]
        except Exception as exc:  # a broken output must not stop the run
            traceback.print_exc(file=sys.stderr)
            r.error = f"output check raised {type(exc).__name__}: {exc}"
        if r.error is None and reference is not None and r.hashes != reference:
            r.error = "artifact hashes differ from an earlier request with the same seed"
        if r.error is None and reference is None:
            reference = r.hashes
            registry.parent.mkdir(parents=True, exist_ok=True)
            tmp = registry.with_suffix(".tmp")
            tmp.write_text(json.dumps(reference, sort_keys=True), encoding="utf-8")
            os.replace(tmp, registry)


def check_numbers(reqs: list) -> dict:
    """Worst det_err / eig_err / unverified_head over the checked outputs."""
    out = {}
    for key in ("det_err", "eig_err", "unverified_head"):
        vals = [r.check[key] for r in reqs if key in r.check and not math.isnan(r.check[key])]
        if vals:
            out[key] = max(vals)
    return out


def time_r_sweep(tracer) -> float:
    """One R sweep: the public residual check on the last solved R."""
    if "solve_R" not in tracer.captured:
        return 0.0
    sys_, r = tracer.captured.pop("solve_R")
    t0 = perf_counter()
    diracbvp.r_equation_residual(sys_, r)
    return perf_counter() - t0


def per_layer_metrics(tracer, untraced: list, traced: list, artifact_bytes: dict, derived: dict) -> dict:
    """Per-request span totals, as medians over the traced requests that
    passed, plus the numbers in ``derived``."""
    totals = spans.request_totals(tracer.spans)
    per_req = [{**totals.get(r.index, {}), "cli.artifact_bytes": artifact_bytes[r.index]} for r in traced if not r.error]
    derived = {"trace.overhead_frac": median(timings(traced)) / median(timings(untraced)) - 1.0, **derived}
    return {
        metric: {"value": derived[metric] if metric in derived else median([t.get(metric, 0.0) for t in per_req]),
                 "unit": unit}
        for metric, unit, _ in layers.PER_LAYER
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    spec = workloads.SPEC
    env = environment(name, seed, trace)
    print("env " + json.dumps(env, sort_keys=True))
    setup = measure_setup(spec["setup_repeats"])
    cfg = workloads.make_config(name, seed)
    work = OUT / f"work-{name}-{os.getpid()}"
    try:
        wl = workloads.Workload(name, cfg, work)
        if trace:
            untraced = closed_loop(wl, seconds / 2, 1, 0)
            tracer = spans.Tracer("diracbvp", layers.LAYERS, layers.HOOKS)
            with tracer:
                traced = closed_loop(wl, seconds / 2, 1, len(untraced), tracer)
            r_sweep = time_r_sweep(tracer)
            reqs = untraced + traced
        else:
            reqs = closed_loop(wl, seconds, spec["min_requests"], 0)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        artifact_bytes = {r.index: workloads.artifact_bytes(r.output) for r in reqs if not r.error}
        verify(name, cfg, reqs, env["src_sha256"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in reqs if r.error)
    checks = check_numbers(reqs)
    solve = timings(reqs)
    lines = [f"request {r.index} failed: {r.error}" for r in reqs if r.error]
    if trace:
        metrics = per_layer_metrics(
            tracer, untraced, traced, artifact_bytes, {"transformop.r_sweep_s": r_sweep, **checks}
        )
        tracer.write(_record_path(name, seed, trace, ".spans.jsonl"))
        lines.append(f"{len(tracer.spans)} spans over {len(traced)} traced and {len(untraced)} untraced requests")
    else:
        metrics = {
            "solve_s": {"value": median(solve), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": median(setup), "unit": "s"},
        }
        t = tail(solve)
        lines += [
            f"solve_s = {median(solve)} s (median of {len(solve)} requests)",
            f"solve_s_tail = {t[1]} s (p{t[0]:.1f} of {len(solve)} requests)" if t
            else f"solve_s_tail omitted ({len(solve)} requests < 11)",
            f"setup_s = {median(setup)} s (median of {len(setup)} fresh processes)",
            f"peak_rss_mb = {peak_rss_mb} MB",
        ]
    lines.append(f"failed_frac = {failed / len(reqs)} ({failed} of {len(reqs)} requests)")
    lines += [f"{key} = {value}" for key, value in sorted(checks.items())]
    if trace:
        lines += [f"{metric} = {m['value']} {m['unit']}" for metric, m in metrics.items()]
    for line in lines:
        print(f"{name}: {line}")

    result = {"correct": failed == 0, "attempted": len(reqs), "failed": failed, "metrics": metrics}
    record = {
        "env": env,
        "config": cfg,
        "setup_s": setup,
        "requests": [
            {"index": r.index, "seconds": r.seconds, "traced": r.traced, "error": r.error, "hashes": r.hashes}
            for r in reqs
        ],
        "checks": checks,
        "result": result,
    }
    _record_path(name, seed, trace, ".json").write_text(
        json.dumps(_finite(record), indent=1, sort_keys=True), encoding="utf-8"
    )
    return result


def _record_path(name: str, seed: int, trace: int, suffix: str) -> Path:
    path = OUT / "records" / f"{name}-seed{seed}-trace{trace}{suffix}"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def run_all(args) -> dict:
    """Every workload in its own process, so each peak RSS is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.SPEC["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"benchmark: workload {name} exited with code {proc.returncode}")
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def _finite(obj):
    """Non-finite numbers (a failed run's timings) become null."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(_finite(result), allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
