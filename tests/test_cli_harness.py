import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trotterbench import cli_harness, reference_oracle
from trotterbench.cli_harness import main
from trotterbench.reference_oracle import adaptive_simpson

REPO = Path(__file__).resolve().parents[1]


def write_config(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def scalar_config(profile, **overrides):
    doc = {
        "family": {"kind": "scalar", "profile": profile},
        "dim": 1,
        "T": 1.0,
        "alpha": 0.0,
        "n_list": [2, 4, 8, 16],
        "grid_n": 8,
        "tol": 1e-10,
        "command_options": {},
    }
    doc.update(overrides)
    return doc


def fixture_config(name, **options):
    """A committed fixture config with ``options`` merged into its command options."""
    doc = json.loads((REPO / "tests" / "configs" / f"{name}.json").read_text(encoding="utf-8"))
    doc["command_options"].update(options)
    return doc


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"family": None, "bogus": 1})
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 64

    def test_unknown_profile_key(self, tmp_path):
        doc = scalar_config({"kind": "linear", "frequency": 3})
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 64

    def test_tol_out_of_range(self, tmp_path):
        doc = scalar_config({"kind": "linear"}, tol=1e-4)
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 64

    def test_n_list_not_increasing(self, tmp_path):
        doc = scalar_config({"kind": "linear"}, n_list=[4, 2, 8, 16])
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 64

    @pytest.mark.parametrize(
        "command, doc, named",
        [
            ("check", scalar_config({"kind": "linear"}, alpha=1.0), "alpha"),
            *(
                (
                    "semigroup",
                    scalar_config({"kind": "linear"}, n_list=[2, 4], command_options={"N": n}),
                    "option N",
                )
                for n in (0, "abc", -4)
            ),
            (
                "converge",
                scalar_config({"kind": "linear"}, command_options={"slope_tolerance": "x"}),
                "slope_tolerance",
            ),
            ("bounds", {"command_options": {"n_max": 10, "z_params": {"gamma": 1.5}}}, "z_params"),
            *(
                ("semigroup", fixture_config("semigroup_scalar", **{key: value}), key)
                for key, value in (
                    ("onestep_tau_factors", [-0.1]),
                    ("onestep_tau_factors", [2.0]),
                    ("sandwich_tau_exponents", [-1]),
                )
            ),
            ("bounds", {"command_options": {"n_max": 10, "m_params": {"n": "x"}}}, "m_params.n"),
        ],
        ids=[
            "alpha", "N_zero", "N_text", "N_negative", "slope_tolerance_text", "z_gamma",
            "onestep_factor_negative", "onestep_factor_above_one", "sandwich_exponent_negative",
            "m_params_n_text",
        ],
    )
    def test_bad_value(self, tmp_path, capsys, command, doc, named):
        cfg = write_config(tmp_path / "c.json", doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 64
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    def test_missing_config_file(self, tmp_path):
        assert main(["check", "--config", str(tmp_path / "nope.json")]) == 64

    def test_dim_mismatch(self, tmp_path):
        doc = scalar_config({"kind": "linear"}, dim=3)
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 64


class TestCheckCommand:
    def test_sqrt_profile_passes(self, tmp_path, capsys):
        doc = scalar_config({"kind": "power", "c": 1.0, "beta": 0.5}, grid_n=64)
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        code = main(["check", "--config", cfg, "--out", str(out), "--stdout"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.45 <= report["holder"]["beta_hat"] <= 0.55
        assert report["flags"]["beta_gt_alpha"] is True
        assert report["flags"]["beta_gt_2alpha_minus_1"] is True
        assert (out / "report.json").is_file()

    def test_sqrt_profile_fails_at_large_alpha(self, tmp_path):
        # 2 * 0.9 - 1 = 0.8 exceeds the measured beta of ~0.5
        doc = scalar_config({"kind": "power", "c": 1.0, "beta": 0.5}, alpha=0.9, grid_n=64)
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_zero_family(self, tmp_path):
        doc = scalar_config({"kind": "power", "c": 0.0, "beta": 0.5}, grid_n=16)
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "o"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["c_alpha_hat"] == 0.0
        assert report["holder"]["l_hat"] == 0.0
        assert report["holder"]["degenerate"] is True


class TestConvergeCommand:
    def test_linear_scalar(self, tmp_path):
        doc = scalar_config({"kind": "linear", "c": 1.0}, n_list=[2, 4, 8, 16, 32, 64])
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "o"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert 0.85 <= report["slope_left"] <= 1.15
        lines = (out / "table.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n,sup_error_left,sup_error_right"
        assert len(lines) == 7
        n, left, right = lines[1].split(",")
        assert int(n) == 2 and float(left) > 0.0 and float(right) > 0.0

    def test_zero_family_below_floor(self, tmp_path):
        doc = scalar_config({"kind": "power", "c": 0.0, "beta": 0.5})
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "o"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["all_below_floor"] is True
        assert report["slope_left"] is None

    def test_deterministic_outputs(self, tmp_path):
        doc = scalar_config({"kind": "weierstrass", "c": 1.0, "beta": 0.5, "terms": 6})
        cfg = write_config(tmp_path / "c.json", doc)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["converge", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["converge", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "table.csv").read_bytes() == (out2 / "table.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_needs_four_points(self, tmp_path):
        doc = scalar_config({"kind": "linear"}, n_list=[2, 4, 8])
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 64


class TestSemigroupCommand:
    def test_scalar_linear(self, tmp_path):
        doc = scalar_config(
            {"kind": "linear", "c": 1.0},
            n_list=[2, 4],
            tol=1e-8,
            command_options={"N": 8, "gamma": 0.5},
        )
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "o"
        assert main(["semigroup", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["max_gap"] <= 1e-10
        assert report["onestep"]["ok"] is True
        assert report["sandwich"]["ok"] is True

    def test_indivisible_grid(self, tmp_path):
        doc = scalar_config(
            {"kind": "linear", "c": 1.0},
            n_list=[3],
            tol=1e-8,
            command_options={"N": 8},
        )
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["semigroup", "--config", cfg, "--out", str(tmp_path / "o")]) == 65

    def test_defect_series_built_once(self, tmp_path, monkeypatch):
        # the non-reversed series comes from the correspondence check
        calls = []
        original = cli_harness.semigroup_defect_series

        def counted(*args, **kwargs):
            calls.append(kwargs.get("reversed_product", False))
            return original(*args, **kwargs)

        monkeypatch.setattr(cli_harness, "semigroup_defect_series", counted)
        doc = scalar_config(
            {"kind": "linear", "c": 1.0},
            n_list=[2, 4],
            tol=1e-8,
            command_options={"N": 8, "gamma": 0.5},
        )
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "o"
        assert main(["semigroup", "--config", cfg, "--out", str(out)]) == 0
        assert calls == [True]
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["defect_series"] == [
            [c["n"], c["semigroup_error"]] for c in report["correspondence"]
        ]

    def test_reference_grid_refined_once(self, tmp_path, monkeypatch):
        # one 2N-slot grid: each of its 2N adjacent intervals is refined once, at tol / 2N
        calls = []
        refine = reference_oracle.refine_to_tol

        def counted(a_op, fam, s, t, tol):
            calls.append((s, t, tol))
            return refine(a_op, fam, s, t, tol)

        monkeypatch.setattr(reference_oracle, "refine_to_tol", counted)
        doc = scalar_config(
            {"kind": "linear", "c": 1.0},
            n_list=[2, 4],
            tol=1e-8,
            command_options={"N": 8, "gamma": 0.5},
        )
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["semigroup", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        edges = [k / 16 for k in range(17)]
        assert [(s, t) for s, t, _ in calls] == list(zip(edges[:-1], edges[1:]))
        assert all(tol == 1e-8 / 16 for _, _, tol in calls)

    def test_zero_family(self, tmp_path):
        doc = scalar_config(
            {"kind": "power", "c": 0.0, "beta": 0.5},
            n_list=[2, 4],
            tol=1e-8,
            command_options={"N": 8, "gamma": 0.5},
        )
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "o"
        assert main(["semigroup", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["max_gap"] <= 1e-12
        assert all(c["semigroup_error"] <= 1e-12 for c in report["correspondence"])


class TestBoundsCommand:
    def test_small_scan(self, tmp_path):
        doc = {"T": 1.0, "command_options": {"n_max": 60}}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "o"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "table.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n,alpha,gamma,lhs,rhs,holds"
        assert lines[1] == "2,0.0,0.0,1.0,2.0,true"
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["all_hold"] is True
        assert report["z_constant"]["value"] == pytest.approx(5.2)
        assert report["m_solve"]["value"] == pytest.approx(6.25, rel=1e-6)
        assert report["n0_threshold"]["value"] == 10

    def test_stdout_machine_parseable(self, tmp_path, capsys):
        doc = {"T": 1.0, "command_options": {"n_max": 10}}
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o"), "--stdout"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "bounds"

    def test_quiet_without_stdout_flag(self, tmp_path, capsys):
        doc = {"T": 1.0, "command_options": {"n_max": 10}}
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().out == ""


class TestCliSurface:
    def test_numeric_failure_exit_code(self, tmp_path):
        # a nearly-flat power profile defeats the step-halving oracle
        doc = scalar_config({"kind": "power", "c": 1.0, "beta": 0.05}, tol=1e-12)
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 70

    def test_per_interval_tolerance_floor_exit_code(self, tmp_path, capsys):
        # the first grid refined has 2N slots: tol / 2N = 1e-11 / 32 lies below the 1e-12 floor
        doc = scalar_config(
            {"kind": "linear", "c": 1.0}, tol=1e-11, n_list=[2, 4], command_options={"N": 16}
        )
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["semigroup", "--config", cfg, "--out", str(tmp_path / "o")]) == 70
        err = capsys.readouterr().err
        assert "grid_n" in err and "32" in err
        assert "Traceback" not in err

    def test_quadrature_depth_exit_code(self, tmp_path, capsys, monkeypatch):
        # no command calls adaptive_simpson; a stand-in grid builder raises its depth error
        def unresolvable_grid(*args):
            return adaptive_simpson(lambda x: (x > 1.0 / 3.0) * 1.0, 0.0, 1.0, 1e-15, max_depth=2)

        monkeypatch.setattr(cli_harness, "reference_grid", unresolvable_grid)
        cfg = write_config(tmp_path / "c.json", scalar_config({"kind": "linear", "c": 1.0}))
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 70
        err = capsys.readouterr().err
        assert "depth" in err
        assert "Traceback" not in err

    def test_runtime_loads_no_scipy(self, tmp_path):
        # scipy is a test-only dependency: a fresh CLI run must not import it
        code = (
            "import sys\n"
            "import trotterbench.cli_harness as cli\n"
            "assert cli.main(['converge', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        config = REPO / "tests" / "configs" / "rate_lipschitz_scalar.json"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(config), str(tmp_path / "o")],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_threads_flag_accepted(self, tmp_path):
        doc = {"T": 1.0, "command_options": {"n_max": 10}}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "o"
        assert main(["bounds", "--config", cfg, "--out", str(out), "--threads", "4"]) == 0
        assert main(["bounds", "--config", cfg, "--out", str(out), "--threads", "0"]) == 64
