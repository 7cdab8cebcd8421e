import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from diracbvp import cli, transformop
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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_file_non_finite_sample(self, tmp_path, value):
        # float() reads nan and inf: a NaN sample reached the march, which
        # exited 2 ("max|R| = nan")
        path = tmp_path / "bad.csv"
        path.write_text(f"0.0,1,0,0,0\n1.0,{value},0,0,0\n")
        with pytest.raises(ConfigError, match="bad.csv:2: numbers must be finite"):
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
        residuals = json.loads((out / "kernels.json").read_text())["residuals"]
        assert set(residuals) == {"R", "K_boundary"}  # no P+/- is solved
        assert residuals["R"] < 1e-10 and residuals["K_boundary"] < 1e-10

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

    def test_strictness_refusals_name_only_options_the_task_takes(self, tmp_path, capsys):
        # at an irrational weight ratio generic bc are of unknown strictness:
        # both tasks refuse them (exit 2), and only spectrum, which takes
        # allow_nonstrict, tells the user to pass it
        payload = {"system": {"b1": -1.0, "b2": math.sqrt(2.0)}, "bc": {"canonical": [0.5, 1, 1, 0.5]},
                   "n": 64, "n_max": 4, "pairs": 1, "seed": 11}
        assert main(["stability", "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert "strictly regular" in err and "allow_nonstrict" not in err
        payload = {key: value for key, value in payload.items() if key not in ("pairs", "seed")}
        assert main(["spectrum", "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "p")]) == 2
        assert "allow_nonstrict" in capsys.readouterr().err

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

    def test_stability_task_at_p_infinity(self, tmp_path):
        # p ranges over [1, inf]: Infinity is the one non-finite number a
        # config may hold
        cfg = write_config(tmp_path, {"system": {"b1": -1.0, "b2": 2.0}, "bc": {"canonical": [0.5, 1, 1, 0.5]},
                                      "n": 64, "n_max": 5, "pairs": 2, "p": math.inf, "seed": 11})
        out = tmp_path / "out"
        assert main(["stability", "--config", cfg, "--out", str(out)]) == 0

        def refuse(token):
            raise ValueError(f"{token} is not strict JSON")

        # every JSON file of the run, the manifest's config echo included,
        # writes the non-finite p as null
        for path in sorted(out.glob("*.json")):
            json.loads(path.read_text(), parse_constant=refuse)
        assert json.loads((out / "manifest.json").read_text())["config"]["p"] is None

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

    def test_manifest_lists_only_what_the_run_wrote(self, tmp_path):
        # a kernels run into a directory that already held classify.json
        # listed it among its artifacts, as the manifest digested every file
        out = tmp_path / "out"
        classify_cfg = write_config(tmp_path, {"system": {"b1": -1.0, "b2": 1.0}}, "classify_cfg.json")
        kernels_cfg = write_config(tmp_path, {"system": {"b1": -1.0, "b2": 1.0, **TRIG["system"]}, "n": 16})
        assert main(["classify", "--config", classify_cfg, "--out", str(out)]) == 0
        assert main(["kernels", "--config", kernels_cfg, "--out", str(out)]) == 0
        assert (out / "classify.json").exists()
        artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
        assert set(artifacts) == {"kernel_r.bin", "kernel_kplus.bin", "kernel_kminus.bin", "kernels.json"}
        for name, digest in artifacts.items():
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]

    def test_kernels_stage_timings(self, tmp_path):
        # the march and the dumps are timed apart, in the manifest only
        cfg = write_config(tmp_path, {"system": {"b1": -1.0, "b2": 2.0, **TRIG["system"]}, "n": 64})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["kernels", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["kernels", "--config", cfg, "--out", str(out2)]) == 0
        timings = json.loads((out1 / "manifest.json").read_text())["timings"]
        assert set(timings) == {"march_s", "dumps_s", "total_s"}
        stages = [timings[key] for key in ("march_s", "dumps_s")]
        assert min(stages) >= 0.0 and sum(stages) <= timings["total_s"]
        for name in ("kernel_r.bin", "kernel_kplus.bin", "kernel_kminus.bin", "kernels.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_stability_stage_timings(self, tmp_path):
        # the window, the march, the pairing and the eigenfunctions are
        # timed apart, in the manifest only
        cfg = write_config(tmp_path, {"system": {"b1": -1.0, "b2": 2.0}, "bc": {"canonical": [0.5, 1, 1, 0.5]},
                                      "n": 64, "n_max": 5, "pairs": 2, "p": 2.0, "r": 1.0, "seed": 11})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["stability", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["stability", "--config", cfg, "--out", str(out2)]) == 0
        timings = json.loads((out1 / "manifest.json").read_text())["timings"]
        assert set(timings) == {"window_s", "march_s", "pairing_s", "eigenfunctions_s", "total_s"}
        stages = [timings[key] for key in ("window_s", "march_s", "pairing_s", "eigenfunctions_s")]
        assert min(stages) > 0.0 and sum(stages) <= timings["total_s"]
        for name in ("stability.csv", "stability_rows.csv", "stability.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestExitCodes:
    @pytest.mark.parametrize("b1", [-1e-13, -1e-16])
    @pytest.mark.parametrize("task", ["spectrum", "stability", "kernels"])
    def test_tiny_weight_ratio_is_refused(self, tmp_path, capsys, task, b1):
        # at |b1|/b2 <= 1e-13 alpha_1 is within 1e-13 of 1 and the kernel
        # march has no line spacing: each task exited 1 with an IndexError
        payload = {"system": {"b1": b1, "b2": 1.0}, "n": 16}
        if task == "kernels":
            payload["system"].update(TRIG["system"])
        else:
            payload.update(bc={"canonical": [0, 1, 1, 0]}, n_max=3)
        if task == "stability":
            payload.update(pairs=1, seed=3)
        assert main([task, "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "o")]) == 2
        assert f"|b1|/b2 = {-b1:.3g} (b1 = {b1!r}, b2 = 1.0)" in capsys.readouterr().err

    @pytest.mark.parametrize("b1, b2", [(-1e-300, 1.0), (-1e-16, 2.0)])
    @pytest.mark.parametrize("task", ["spectrum", "stability"])
    def test_coincident_delta0_rates_are_refused(self, tmp_path, capsys, task, b1, b2):
        # b1 + b2 rounds to b2: Delta_0's sweep strip took its J14 lead by
        # rate, found J34 (0 here) and exited 2 with a bare "float division
        # by zero"; now the strip refuses and names the weights
        payload = {"system": {"b1": b1, "b2": b2}, "n": 16, "bc": {"canonical": [0, 1, 1, 0]}, "n_max": 3}
        if task == "stability":
            payload.update(pairs=1, seed=3)
        assert main([task, "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "o")]) == 2
        assert f"b1 + b2 rounds to b2 (b1 = {b1!r}, b2 = {b2!r})" in capsys.readouterr().err

    @pytest.mark.parametrize("amplitude", [3.0, 0.5])
    def test_bessel_sum_out_of_range_is_refused(self, tmp_path, capsys, amplitude):
        # p = 1.0001 makes p' = 10001: ||g||_p^{p'} overflowed (exit 2 with a
        # bare "Numerical result out of range") at amplitude 3 and underflowed
        # to 0 at 0.5, which wrote sum, norm_ref and ratio 0.0 with exit 0,
        # though the k = -1 term alone makes the ratio at least 1
        g = {"kind": "trig", "q12": {}, "q21": {"1": amplitude}}
        payload = {"n": 64, "p": 1.0001, "fourier": {"g": g, "seq": {"kind": "harmonic", "n_max": 5}}}
        out = tmp_path / "o"
        assert main(["fourier", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "p = 1.0001 (p' = 10001." in err and "||g||_p = " in err
        assert not (out / "fourier.json").exists()

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
        "payload, key",
        [({"system": {"b1": -1.0, "b2": math.inf}}, "system.b2"),
         ({"bc": {"canonical": [0, 1, math.nan, 0]}}, "bc.canonical")],
        ids=["b2-infinity", "canonical-nan"],
    )
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, payload, key):
        # b2 = Infinity ran (exit 0, strictly_regular) and a NaN in
        # bc.canonical exited 2 ("SVD did not converge")
        out = tmp_path / "o"
        assert main(["classify", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not out.exists()

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

    def test_failed_kernel_check_writes_no_dump(self, tmp_path):
        # the three kernels are certified before any dump is written
        potential = {"kind": "trig", "q12": {"1": [0.5, 0.0]}, "q21": {"0": [0.5, 0.0]}}
        payload = {"system": {"b1": -1.0, "b2": 1.0, "potential": potential}, "n": 32,
                   "tolerances": {"kernel_tol": 1e-300}}
        out = tmp_path / "o"
        assert main(["kernels", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert not list(out.glob("kernel_*"))

    def test_failed_dump_write_leaves_no_dump(self, tmp_path, monkeypatch, capsys):
        # the dumps are written while the march runs: an I/O error partway
        # through is an I/O failure, and the partial files are removed
        march = cli._march_dumps

        def failing_march(system, n, tol, sink):
            calls = []

            def failing_sink(s, chunk):
                calls.append(s)
                if len(calls) > 7:
                    raise OSError("no space left on device")
                sink(s, chunk)

            return march(system, n, tol, failing_sink)

        monkeypatch.setattr(cli, "_march_dumps", failing_march)
        out = tmp_path / "o"
        assert main(["kernels", "--config", write_config(tmp_path, {**TRIG, "n": 64}), "--out", str(out)]) == 3
        assert "no space left" in capsys.readouterr().err
        assert out.is_dir() and not list(out.glob("kernel_*"))

    def test_kernels_task_solves_no_p(self, tmp_path, monkeypatch):
        # the kernels task writes no P+/-, so it never calls solve_P: with
        # solve_P broken it still succeeds and writes the same dumps
        names = ("kernel_r.bin", "kernel_kplus.bin", "kernel_kminus.bin", "kernels.json")
        cfg = write_config(tmp_path, {**TRIG, "n": 32})
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path / "ref")]) == 0

        def broken(*args, **kwargs):
            raise RuntimeError("solve_P called")

        monkeypatch.setattr(transformop, "solve_P", broken)
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        for name in names:
            assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
    def test_kernels_task_resident_peak(self, tmp_path):
        # tracemalloc does not see the store, a private mapping whose final
        # rows are released as they are handed off: the growth of the peak
        # RSS from a request at N = 16 to one at N = 512 read 1.54 dense
        # kernels of 64 (N+1)^2 bytes when the store held three whole
        # triangles, and reads about 0.98 now.  A process's ru_maxrss starts
        # at its parent's peak when it execs, which here is this test
        # run's, so the requests run in a fork of a fresh interpreter.
        script = textwrap.dedent("""
            import json, os, resource, sys
            from pathlib import Path
            pid = os.fork()
            if pid:
                sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
            from diracbvp.cli import main
            tmp = Path(sys.argv[1])
            potential = {"kind": "trig", "q12": {"1": [0.3, 0.1], "-1": [0.1, 0.0]}, "q21": {"0": [0.2, -0.1]}}
            peaks = []
            for n in (16, 512):
                cfg = tmp / f"cfg{n}.json"
                cfg.write_text(json.dumps({"system": {"b1": -1.0, "b2": 1.0, "potential": potential}, "n": n}))
                assert main(["kernels", "--config", str(cfg), "--out", str(tmp / f"o{n}")]) == 0
                peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            print(1024 * (peaks[1] - peaks[0]))
        """)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True,
                              timeout=600, check=True)
        assert int(proc.stdout) <= 1.2 * 64 * 513**2

    def test_kernels_task_peak_allocation(self, tmp_path):
        # R, K+ and K- are marched into their packed dumps, 1.5 dense
        # kernels of 64 (N+1)^2 bytes, on a mapping that tracemalloc does
        # not trace: the traced peak leaves the store out, and
        # test_kernels_task_resident_peak bounds it.  Three dense kernels
        # marched and then written read 3.56 at N = 256
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
        assert peak <= 2 * 64 * (n + 1) ** 2

    def test_memory_guard_refuses_before_numerics(self, tmp_path, capsys):
        # two dense kernels at N = 65536 need ~0.55 TB; the request must fail
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
        # estimated there (1.1 MB): at N = 256 (4.2 MB) a 2 MiB machine
        # would refuse it
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 512}
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        payload = {"system": {"b1": -1.0, "b2": 1.0}, "bc": {"canonical": [0, 1, 1, 0]},
                   "n_max": 2, "pairs": 1, "r": 0.3, "seed": 11}
        out = tmp_path / "o"
        assert main(["stability", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        assert (out / "stability.csv").exists()
        assert main(["stability", "--config", write_config(tmp_path, {**payload, "n": 256}), "--out",
                     str(tmp_path / "o256")]) == 1

    def test_memory_guard_estimates_each_task(self, tmp_path, monkeypatch, capsys):
        # at N = 64 a machine of 1.5 dense kernels fits a spectrum or
        # stability request (one) and refuses a kernels one (two)
        n = 64
        dense = 64 * (n + 1) ** 2
        monkeypatch.setattr(cli.os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 3 * dense // 8192 + 1}.__getitem__)
        system = {"b1": -1.0, "b2": 1.0, "potential": {"kind": "trig", "q21": {"1": [0.3, 0.0]}}}
        payload = {"system": system, "n": n, "n_max": 2}
        assert main(["spectrum", "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "spectrum")]) == 0
        payload = {"system": {"b1": -1.0, "b2": 1.0}, "n": n, "n_max": 2, "pairs": 1}
        assert main(["stability", "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "stability")]) == 0
        out = tmp_path / "kernels"
        assert main(["kernels", "--config", write_config(tmp_path, {"system": system, "n": n}), "--out", str(out)]) == 1
        assert "needs an estimated" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task", sorted(cli._LIVE_KERNELS))
    def test_peak_within_the_task_estimate(self, task, tmp_path):
        # the traced peak at N = 256, lazy imports made by a small request
        # first; at N = 128 stability reads 8.1 dense kernels, and the
        # estimate of five refused kernels and spectrum requests that fit
        system = {"b1": -1.0, "b2": 2.0, "potential": {"kind": "trig", "q12": {"1": [0.3, 0.1]}, "q21": {"0": [0.2, -0.1]}}}
        extra = {"stability": {"n_max": 4, "pairs": 2, "bc": {"canonical": [0.5, 1, 1, 0.5]}},
                 "spectrum": {"n_max": 4, "bc": {"canonical": [0.5, 1, 1, 0.5]}}, "kernels": {}}[task]
        if task == "stability":
            system = {"b1": -1.0, "b2": 2.0}
        payloads = [{"system": system, "n": n, **extra} for n in (16, 256)]
        assert main([task, "--config", write_config(tmp_path, payloads[0]), "--out", str(tmp_path / "warm")]) == 0
        cfg = write_config(tmp_path, payloads[1])
        tracemalloc.start()
        try:
            code = main([task, "--config", cfg, "--out", str(tmp_path / "o")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= cli._LIVE_KERNELS[task] * 64 * 257**2

    def test_stability_peak_below_one_dense_kernel(self, tmp_path):
        # the march keeps each K+/- row's trace at x = 1 and the kernel
        # deviation's row and column sums, so a request holds no dense
        # kernel: 0.60 of one at N = 256, where assembling K+/- read 8.0
        payloads = [{"system": {"b1": -1.0, "b2": 2.0}, "n": n, "n_max": 4, "pairs": 2,
                     "bc": {"canonical": [0.5, 1, 1, 0.5]}} for n in (16, 256)]
        assert main(["stability", "--config", write_config(tmp_path, payloads[0]), "--out", str(tmp_path / "warm")]) == 0
        cfg = write_config(tmp_path, payloads[1])
        tracemalloc.start()
        try:
            code = main(["stability", "--config", cfg, "--out", str(tmp_path / "o")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 64 * 257**2

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
