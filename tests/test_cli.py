import csv
import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from diracbvp import cli
from diracbvp.cli import ConfigError, load_potential, main, save_potential
from diracbvp.gridfn import SampledFunction
from diracbvp.ode import DiracSystem
from diracbvp.transformop import read_kernel


TRIG = {"system": {"potential": {"kind": "trig", "q21": {"1": [0.5, 0.0]}}}}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoadPotential:
    def test_zero(self):
        sys = load_potential({"kind": "zero"}, 32, -1.0, 1.0)
        assert np.abs(sys.q12.samples).max() == 0.0

    def test_trig_single_coefficient(self):
        sys = load_potential({"kind": "trig", "q21": {"1": [1.0, 0.0]}}, 64, -1.0, 1.0)
        x = np.linspace(0, 1, 65)
        assert np.abs(sys.q21.samples - np.exp(2j * np.pi * x)).max() < 1e-14
        assert np.abs(sys.q12.samples).max() == 0.0

    def test_step(self):
        spec = {"kind": "step", "breakpoints": [0.5], "q12_values": [1.0, 2.0], "q21_values": [0.0, 0.0]}
        sys = load_potential(spec, 8, -1.0, 1.0)
        assert sys.q12.samples[0] == 1.0
        assert sys.q12.samples[-1] == 2.0

    def test_step_breakpoints_must_increase(self):
        spec = {"kind": "step", "breakpoints": [0.7, 0.2], "q12_values": [1, 2, 3], "q21_values": [0, 0, 0]}
        with pytest.raises(ConfigError):
            load_potential(spec, 8, -1.0, 1.0)

    def test_file_round_trip_bit_exact(self, tmp_path):
        n = 48
        rng = np.random.default_rng(3)
        sys = DiracSystem(
            -1.0,
            1.0,
            SampledFunction(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)),
            SampledFunction(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)),
        )
        path = tmp_path / "potential.csv"
        save_potential(sys, path)
        back = load_potential({"kind": "file", "path": str(path)}, n, -1.0, 1.0)
        assert np.array_equal(back.q12.samples, sys.q12.samples)
        assert np.array_equal(back.q21.samples, sys.q21.samples)

    def test_file_non_increasing_x(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1,0,0,0\n0.5,1,0,0,0\n0.4,1,0,0,0\n")
        with pytest.raises(ConfigError):
            load_potential({"kind": "file", "path": str(path)}, 8, -1.0, 1.0)

    def test_file_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1,0\n1.0,2,0\n")
        with pytest.raises(ConfigError):
            load_potential({"kind": "file", "path": str(path)}, 8, -1.0, 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            load_potential({"kind": "wavelet"}, 8, -1.0, 1.0)


class TestRunTasks:
    def test_classify_dirac_antiperiodic(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "task": "classify",
                "system": {"b1": -1.0, "b2": 1.0},
                "bc": {"canonical": [1, 0, 0, 1]},
            },
        )
        out = tmp_path / "out"
        assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
        verdict = json.loads((out / "classify.json").read_text())
        assert verdict["kind"] == "regular"
        assert verdict["reason"] == "dirac_discriminant_zero"
        assert verdict["ratio"] == [1, 1]

    def test_spectrum_free_separated(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "system": {"b1": -1.0, "b2": 1.0, "potential": {"kind": "zero"}},
                "bc": {"canonical": [0, 1, 1, 0]},
                "n": 64,
                "n_max": 10,
            },
        )
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "spectrum.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "# manifest"
        data = rows[2:]
        assert len(data) == 21
        for row in data:
            assert abs(float(row[1]) - float(row[3])) < 1e-10
            assert abs(float(row[2]) - float(row[4])) < 1e-10

    def test_bari_modulus_two_not_bari(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "system": {"b1": -1.0, "b2": 2.0},
                "bc": {"canonical": [1, 0, 0, 2]},
                "n_max": 24,
            },
        )
        out = tmp_path / "out"
        assert main(["bari", "--config", cfg, "--out", str(out)]) == 0
        verdict = json.loads((out / "bari.json").read_text())
        assert verdict["verdict"] == "not_bari"
        assert verdict["selfadjoint"] is False

    def test_kernels_round_trip(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "system": {"b1": -1.0, "b2": 1.0, "potential": {"kind": "trig", "q21": {"1": [0.5, 0.0]}}},
                "n": 32,
            },
        )
        out = tmp_path / "out"
        assert main(["kernels", "--config", cfg, "--out", str(out)]) == 0
        kern = read_kernel(out / "kernel_kplus.bin")
        assert kern.n == 32
        meta = json.loads((out / "kernels.json").read_text())
        assert meta["residuals"]["P"] < 1e-10

    def test_fourier_task(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "p": 2.0,
                "n": 128,
                "fourier": {"g": {"kind": "trig", "q21": {"-2": [1.0, 0.0]}}, "seq": {"kind": "harmonic", "n_max": 20}, "use_maximal": False},
            },
        )
        out = tmp_path / "out"
        assert main(["fourier", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "fourier.json").read_text())
        assert abs(rep["sum"] - 1.0) < 1e-6

    def test_stability_task(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "system": {"b1": -1.0, "b2": 1.0},
                "bc": {"canonical": [0, 1, 1, 0]},
                "n": 64,
                "n_max": 4,
                "pairs": 1,
                "p": 2.0,
                "r": 0.3,
                "seed": 11,
            },
        )
        out = tmp_path / "out"
        assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "stability.json").read_text())
        assert "kernel_ratio" in summary["summary"]

    def test_stability_task_at_p_one(self, tmp_path):
        # every pair's eigen_dev read 1.0 (0 ** (1/inf)); at p = 1 it is the
        # largest verified tail row
        cfg = write_config(tmp_path, {"system": {"b1": -1.0, "b2": 2.0}, "bc": {"canonical": [0.5, 1, 1, 0.5]},
                                      "n": 64, "n_max": 5, "pairs": 2, "p": 1, "seed": 11})
        out = tmp_path / "out"
        assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
        heads = [pair["head"] for pair in json.loads((out / "stability.json").read_text())["pairs"]]
        with open(out / "stability.csv", encoding="utf-8") as fh:
            devs = [float(row[3]) for row in list(csv.reader(fh))[2:]]
        with open(out / "stability_rows.csv", encoding="utf-8") as fh:
            per_n = list(csv.reader(fh))[2:]
        assert len(devs) == len(heads) == 2
        for pair, (dev, head) in enumerate(zip(devs, heads)):
            tail = [float(d) for i, n, d, flag in per_n if int(i) == pair and flag == "ok" and abs(int(n)) > head]
            assert dev == max(tail)

    @pytest.mark.parametrize("task, payload", [("spectrum", {"n": 32, "n_max": 4}),
                                               ("stability", {"n": 32, "n_max": 4, "pairs": 1})])
    def test_default_bc_runs(self, tmp_path, task, payload):
        # both exited 2: the shared default bc (1, 0, 0, 1) is not strictly
        # regular under the default weights (-1, 1)
        out = tmp_path / "out"
        assert main([task, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "system": {"b1": -1.0, "b2": 1.0, "potential": {"kind": "zero"}},
                "bc": {"canonical": [0, 1, 1, 0]},
                "n": 64,
                "n_max": 5,
            },
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["spectrum", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["spectrum", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()
        assert (out1 / "spectrum.json").read_bytes() == (out2 / "spectrum.json").read_bytes()

    def test_outputs_reference_manifest_hash(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "system": {"b1": -1.0, "b2": 1.0, "potential": {"kind": "zero"}},
                "bc": {"canonical": [0, 1, 1, 0]},
                "n": 64,
                "n_max": 3,
            },
        )
        out = tmp_path / "out"
        main(["spectrum", "--config", cfg, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        with open(out / "spectrum.csv", newline="") as fh:
            first = next(csv.reader(fh))
        assert first == ["# manifest", manifest["config_hash"]]
        meta = json.loads((out / "spectrum.json").read_text())
        assert meta["manifest_hash"] == manifest["config_hash"]
        # the manifest carries a digest of every artifact (the linkage used
        # by fixed-format binary outputs)
        assert set(manifest["artifacts"]) == {"spectrum.csv", "spectrum.json"}
        for name, digest in manifest["artifacts"].items():
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]

    def test_artifact_digest_reads_in_chunks(self, tmp_path):
        # a file over several 1 MiB reads hashes as if it were read whole
        path = tmp_path / "blob.bin"
        data = np.random.default_rng(3).bytes(3 * 2**20 + 5)
        path.write_bytes(data)
        assert cli._file_digest(path) == hashlib.sha256(data).hexdigest()[:16]


class TestExitCodes:
    def test_invalid_config_unknown_key(self, tmp_path):
        cfg = write_config(tmp_path, {"sistema": {}})
        assert main(["classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_invalid_config_task_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, {"task": "bari"})
        assert main(["classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_invalid_config_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["classify", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    def test_numerical_failure(self, tmp_path):
        # spectrum of a non-regular problem cannot be paired
        cfg = write_config(
            tmp_path,
            {
                "system": {"b1": -1.0, "b2": 1.0, "potential": {"kind": "zero"}},
                "bc": {"canonical": [1, 1, 1, 1]},
                "n": 64,
                "n_max": 4,
            },
        )
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_out_of_range_knob(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 2})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "patch",
        [
            {"n": "abc"},
            {"n": None},
            {"system": {"b1": 1, "b2": 1.0}},
            {"system": {"b1": -1.0, "b2": 1.0, "potential": {"kind": "trig", "q21": {"x": 1.0}}}},
            {"tolerances": 5},
            {"system": {"b1": -1.0, "b2": 1.0, "potential": 3}},
        ],
        ids=["n-string", "n-null", "b1-positive", "trig-key-not-integer", "tolerances-not-object",
             "potential-not-object"],
    )
    def test_mistyped_config_is_a_config_error(self, tmp_path, capsys, patch):
        # these reached the numerics and surfaced as a traceback or as a
        # "numerical failure" (exit 2); each is a config error (exit 1)
        payload = {"system": {"b1": -1.0, "b2": 1.0}, "bc": {"canonical": [0, 1, 1, 0]}, "n": 32, "n_max": 2, **patch}
        code = main(["spectrum", "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize(
        "patch",
        [{"p": 0.5}, {"family": "nope"}, {"eps_ladder": "abc"}, {"eps_ladder": [0.4, -1]}],
        ids=["p-below-one", "unknown-family", "ladder-string", "ladder-negative"],
    )
    def test_bad_stability_knob_is_refused_before_numerics(self, tmp_path, capsys, patch):
        # these exited 2, crashed with a traceback or ran (exit 0); the
        # config check refuses them before the output directory exists
        payload = {"system": {"b1": -1.0, "b2": 2.0}, "n": 32, "n_max": 2, "pairs": 1, **patch}
        out = tmp_path / "o"
        code = main(["stability", "--config", write_config(tmp_path, payload), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("task", cli.TASKS)
    def test_mistyped_system_key_is_refused(self, tmp_path, capsys, task):
        # stability, bari and fourier never checked the system keys and ran
        # with the default b2 = 1.0 (exit 0)
        payload = {"system": {"b1": -1.0, "b_2": 2.0}, "bc": {"canonical": [0, 1, 1, 0]}, "n": 32, "n_max": 2}
        out = tmp_path / "o"
        assert main([task, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 1
        assert "b_2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "task, tolerances",
        [("stability", {"kernel_tol": 1e-300, "max_iter": 1}), ("spectrum", {"max_iter": 1})],
    )
    def test_tolerance_the_task_does_not_read_is_refused(self, tmp_path, capsys, task, tolerances):
        # both ran to completion (exit 0) with the tolerances ignored; no
        # task reads max_iter
        payload = {"system": {"b1": -1.0, "b2": 2.0}, "bc": {"canonical": [0.5, 1, 1, 0.5]}, "n": 32, "n_max": 2,
                   "pairs": 1, "tolerances": tolerances}
        out = tmp_path / "o"
        assert main([task, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 1
        assert "max_iter" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "task, patch",
        [
            ("spectrum", {"allow_nonstrict": "false"}),
            ("fourier", {"fourier": {"weighted": "false"}}),
            ("fourier", {"fourier": {"use_maximal": 0}}),
        ],
        ids=["allow_nonstrict-string", "weighted-string", "use_maximal-int"],
    )
    def test_switch_must_be_a_json_boolean(self, tmp_path, capsys, task, patch):
        # bool("false") is True: the spectrum run paired against a
        # non-strict Delta_0 and exited 0, where false exits 2
        payload = {"bc": {"canonical": [1, 0, 0, 1]}, "n": 32, **patch}
        out = tmp_path / "o"
        assert main([task, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()
        if task == "spectrum":  # the JSON boolean is read
            payload["allow_nonstrict"] = False
            assert main([task, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2

    @pytest.mark.parametrize(
        "bc",
        [{"matrix": 5}, {"canonical": 5}, {"matrix": [[1, 0, 0, 0], 5]}, {"canonical": [["a", "b"], 0, 0, 1]}],
        ids=["matrix-number", "canonical-number", "matrix-row-number", "canonical-pair-strings"],
    )
    def test_malformed_bc_is_a_config_error(self, tmp_path, capsys, bc):
        # each raised a TypeError traceback
        out = tmp_path / "o"
        assert main(["classify", "--config", write_config(tmp_path, {"bc": bc}), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("task", ["classify", "bari", "spectrum"])
    def test_dependent_bc_rows_are_a_config_error(self, tmp_path, capsys, task):
        # each exited 2 as a numerical failure
        out = tmp_path / "o"
        payload = {"bc": {"matrix": [[1, 0, 0, 0], [2, 0, 0, 0]]}}
        assert main([task, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "linearly dependent" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "task, payload",
        [
            ("kernels", {**TRIG, "n": 32, "tolerances": {"kernel_tol": 0.0}}),
            ("kernels", {**TRIG, "n": 32, "tolerances": {"kernel_tol": -1.0}}),
            ("kernels", {**TRIG, "n": 32, "tolerances": {"max_iter": 0}}),
            ("stability", {"n": 32, "n_max": 2, "pairs": 1, "r": -1}),
            ("fourier", {"n": 32, "p": 3}),
            ("fourier", {"n": 32, "fourier": {"seq": {"n_max": "abc"}}}),
            ("kernels", {"n": 32, "system": {"potential": {"kind": "step", "breakpoints": "x"}}}),
        ],
        ids=["kernel_tol-zero", "kernel_tol-negative", "max_iter-zero", "r-negative", "fourier-p-3",
             "seq-n_max-string", "step-breakpoints-string"],
    )
    def test_out_of_range_value_is_a_config_error(self, tmp_path, capsys, task, payload):
        # these exited 2 ("did not reach tol=-1.0 in 200 sweeps", "Bessel
        # sums require p in (1, 2]", ...) or ran (r = -1, exit 0); max_iter
        # is no key of any task now, so it is refused as unknown
        assert main([task, "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_kernels_task_reads_both_tolerances(self, tmp_path, capsys):
        # a kernel_tol below the substitution check's roundoff is refused
        # as a numerical failure, naming the tolerance
        potential = {"kind": "trig", "q12": {"1": [0.5, 0.0]}, "q21": {"0": [0.5, 0.0]}}
        payload = {"system": {"b1": -1.0, "b2": 1.0, "potential": potential},
                   "n": 32, "tolerances": {"kernel_tol": 1e-300}}
        assert main(["kernels", "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "o")]) == 2
        assert "tol=1e-300" in capsys.readouterr().err

    def test_kernels_task_peak_allocation(self, tmp_path):
        # each kernel owns the array its builder made, so the traced peak
        # is about 4.1 dense kernels of 64 (N+1)^2 bytes; one more copy of
        # a kernel in its constructor puts it at about 4.7
        n = 256
        potential = {"kind": "trig", "q12": {"1": [0.3, 0.1], "-1": [0.1, 0.0]}, "q21": {"0": [0.2, -0.1]}}
        cfg = write_config(tmp_path, {"system": {"b1": -1.0, "b2": 1.0, "potential": potential}, "n": n})
        tracemalloc.start()
        try:
            code = main(["kernels", "--config", cfg, "--out", str(tmp_path / "o")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 4.25 * 64 * (n + 1) ** 2

    def test_memory_guard_refuses_before_numerics(self, tmp_path, capsys):
        # dense kernels at N = 65536 need ~1.4 TB; the request must fail
        # fast with the estimate instead of allocating
        cfg = write_config(tmp_path, {"system": {"b1": -1.0, "b2": 1.0}, "n": 65536})
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = main(["kernels", "--config", cfg, "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "GiB" in capsys.readouterr().err
        assert peak < 1 << 20
        assert not out.exists()

    def test_memory_guard_uses_the_grid_the_task_runs(self, tmp_path, monkeypatch):
        # a stability config without "n" runs at N = 128 and must be
        # estimated there: at N = 256 (21 MB) a 16 MB machine would refuse it
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 4096}
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        payload = {"system": {"b1": -1.0, "b2": 1.0}, "bc": {"canonical": [0, 1, 1, 0]},
                   "n_max": 2, "pairs": 1, "r": 0.3, "seed": 11}
        out = tmp_path / "o"
        assert main(["stability", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        assert (out / "stability.csv").exists()

    def test_io_failure(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"system": {"b1": -1.0, "b2": 1.0}, "bc": {"canonical": [0, 1, 1, 0]}},
        )
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        assert main(["classify", "--config", cfg, "--out", str(blocker)]) == 3


# A valid value for every top-level and system key, and the keys each task
# reads; everything else must be refused.
SAMPLE = {
    "system.b1": -1.0, "system.b2": 2.0, "system.potential": {"kind": "zero"}, "bc": {"canonical": [0, 1, 1, 0]},
    "n": 16, "n_max": 2, "pairs": 1, "seed": 3, "p": 1.5, "r": 0.5, "family": "step", "eps_ladder": [0.3],
    "allow_nonstrict": True, "tolerances": {"kernel_tol": 1e-9}, "fourier": {"weighted": True},
}
READS = {
    "classify": {"system.b1", "system.b2", "bc"},
    "spectrum": {"system.b1", "system.b2", "system.potential", "bc", "n", "n_max", "eps_ladder", "allow_nonstrict",
                 "tolerances"},
    "kernels": {"system.b1", "system.b2", "system.potential", "n", "tolerances"},
    "stability": {"system.b1", "system.b2", "bc", "n", "n_max", "pairs", "seed", "p", "r", "family"},
    "bari": {"system.b1", "system.b2", "bc", "n_max"},
    "fourier": {"system.b1", "system.b2", "bc", "n", "p", "fourier"},
}


def nested(keys):
    cfg = {}
    for key in keys:
        head, _, tail = key.partition(".")
        if tail:
            cfg.setdefault(head, {})[tail] = SAMPLE[key]
        else:
            cfg[key] = SAMPLE[key]
    return cfg


class TestTaskKeys:
    @pytest.mark.parametrize("task", cli.TASKS)
    def test_each_task_accepts_only_the_keys_it_reads(self, tmp_path, capsys, task):
        # one key set for all tasks let e.g. a stability config carry a
        # system.potential that the ball sampler never reads (exit 0)
        for key in sorted(set(SAMPLE) - READS[task]):
            out = tmp_path / "o"
            assert main([task, "--config", write_config(tmp_path, nested([key])), "--out", str(out)]) == 1, key
            assert key in capsys.readouterr().err
            assert not out.exists()
        cli._parse_config(write_config(tmp_path, nested(READS[task])), task)

    def test_readme_configs_parse_and_list_every_task_default(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, flags=re.S)]
        assert blocks
        for block in blocks:
            cli._parse_config(write_config(tmp_path, block), block["task"])
        flat = [dict(cli._flatten(block)) for block in blocks]
        for task in cli.TASKS:
            assert {"task": task, **cli._TASK_KEYS[task]} in flat, task
