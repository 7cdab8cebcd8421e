"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, the
tail-percentile rule, BENCHMARK.json consistency and tiny smoke runs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import diracbvp  # noqa: E402
import diracbvp.cli  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMOKE_SIZES = {
    "kernels": {"n": 256},
    "spectrum": {"n": 64, "n_max": 3},
    "stability": {"n": 32, "n_max": 3},
    "spectrum-rk4": {"n": 32, "n_max": 1},
}


def _span(sid, parent, start, end, name="f", request=0):
    return spans.Span(sid, parent, name, request, start, end)


def test_self_time_on_nested_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]; b -> b1 [6, 7], b2 [6.5, 8]
    tree = [
        _span(0, None, 0.0, 10.0, "root"),
        _span(1, 0, 1.0, 4.0, "a"),
        _span(2, 1, 2.0, 3.0, "a1"),
        _span(3, 0, 5.0, 9.0, "b"),
        _span(4, 3, 6.0, 7.0, "b1"),
        _span(5, 3, 6.5, 8.0, "b2"),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 1.0, 5: 1.5})


def test_request_totals_count_recursion_once():
    tree = [
        _span(0, None, 0.0, 4.0, "f"),
        _span(1, 0, 1.0, 3.0, "f"),
        _span(2, 1, 1.5, 2.0, "g"),
        _span(3, None, 0.0, 1.0, "f", request=1),
    ]
    tree[2].error = "ValueError"
    totals = spans.request_totals(tree)
    assert totals[0]["f.s"] == pytest.approx(4.0)
    assert totals[0]["f.calls"] == 2
    assert totals[0]["f.self_s"] == pytest.approx(2.0 + 1.5)
    assert totals[0]["g.failed"] == 1
    assert totals[1]["f.s"] == pytest.approx(1.0)


def _snapshot():
    return {(mod.__name__, attr): value for mod in spans.package_modules("diracbvp") for attr, value in vars(mod).items()}


def test_install_and_remove_restore_every_attribute():
    before = _snapshot()
    tracer = spans.Tracer("diracbvp", layers.LAYERS, layers.HOOKS)
    with tracer:
        # one wrapper at every binding of a function imported by name
        bound = {diracbvp.transformop.build_kernels, diracbvp.spectrum.build_kernels,
                 diracbvp.stability.build_kernels, diracbvp.cli.build_kernels, diracbvp.build_kernels}
        assert len(bound) == 1 and bound.pop() is not before[("diracbvp.transformop", "build_kernels")]
        assert diracbvp.ode.fundamental_matrix is diracbvp.stability.fundamental_matrix
        assert diracbvp.cli.main is not before[("diracbvp.cli", "main")]
        assert diracbvp.cli.run is before[("diracbvp.cli", "run")]
        bc = diracbvp.BoundaryConditions.from_canonical(0, 1, 1, 0)
        diracbvp.spectrum.zeros_delta0(bc, -1.0, 1.0, 2)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = [s.name for s in tracer.spans]
    assert names[0] == "spectrum.zeros_delta0" and "boundary.classify" in names
    root = tracer.spans[0]
    assert all(s.parent == root.sid for s in tracer.spans[1:] if s.name == "boundary.classify")
    assert root.end >= max(s.end for s in tracer.spans)


def test_tail_needs_eleven_samples():
    assert run.tail([1.0] * 10) is None
    assert run.tail(list(range(11))) == (pytest.approx(100 / 11), 0)
    assert run.tail(list(range(20))) == (50.0, 9)


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.SPEC["workloads"])
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == [
        tuple(m) for m in layers.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [tuple(m) for m in layers.PER_LAYER]


@pytest.mark.parametrize("name", sorted(SMOKE_SIZES))
def test_tiny_workload_passes_its_check(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    cfg = workloads.make_config(name, 7, SMOKE_SIZES[name])
    wl = workloads.Workload(name, cfg, tmp_path / "work")
    reqs = run.closed_loop(wl, 0.0, 2, 0)
    run.verify(name, cfg, reqs, "smoke")
    assert [r.error for r in reqs] == [None, None]
    assert reqs[0].hashes == reqs[1].hashes and reqs[0].hashes
    assert "failure" in reqs[0].check


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectrum", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
