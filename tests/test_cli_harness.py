import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotterbench import cli_harness, errors, evolution_semigroup, reference_oracle
from trotterbench.cli_harness import build_problem, main, parse_config

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


def family_config(**family):
    """A config holding only a family with a linear profile and the given keys."""
    return {"family": {"profile": {"kind": "linear"}, **family}}


# The keys each family kind accepts
FAMILY_KEYS = {
    "scalar": {"kind", "profile"},
    "synthetic": {"kind", "b0", "b1", "profile", "declared_alpha", "a"},
    "heat1d": {"kind", "modes", "potential", "profile", "declared_alpha"},
}

# Arbitrary JSON, kept small
_JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 12),
        st.just(10 ** 400),
        st.floats(-4.0, 4.0),
        st.sampled_from([float("nan"), float("inf"), -float("inf")]),
        st.sampled_from(["", "x", "8", "0.5", "linear"]),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def config_docs(draw):
    """A valid config document, or one with a single value replaced by arbitrary JSON.

    Sizes stay small (modes and terms at most 8), so that building a valid
    family costs milliseconds.
    """
    count, real = st.integers(0, 8), st.floats(0.0, 1.0)
    matrix = st.lists(st.lists(real, min_size=1, max_size=3), min_size=1, max_size=3)
    kind = draw(st.sampled_from(sorted(FAMILY_KEYS)))
    profile = st.fixed_dictionaries(
        {"kind": st.sampled_from(["power", "linear", "weierstrass"])},
        optional={"c": real, "beta": real, "terms": count},
    )
    potential = st.fixed_dictionaries(
        {}, optional={"kind": st.sampled_from(["sin_squared", "constant", "zero"]), "value": real}
    )
    family_fields = {
        "potential": potential, "modes": count, "declared_alpha": real,
        "b0": matrix, "b1": matrix, "a": matrix,
    }
    family = st.fixed_dictionaries(
        {"kind": st.just(kind), "profile": profile},
        optional={k: v for k, v in family_fields.items() if k in FAMILY_KEYS[kind]},
    )
    doc = draw(
        st.fixed_dictionaries(
            {"family": family},
            optional={
                "dim": count,
                "T": st.floats(0.1, 2.0),
                "alpha": st.floats(0.0, 0.99),
                "n_list": st.lists(st.integers(1, 64), min_size=1, max_size=4, unique=True).map(sorted),
                "grid_n": count,
                "tol": st.sampled_from([1e-8, 1e-6]),
            },
        )
    )
    fam = doc["family"]
    owners = (doc, fam, fam["profile"], fam.get("potential", {}))
    places = [(owner, key) for owner in owners for key in owner]
    broken = draw(st.sampled_from(range(-1, len(places))))  # -1 leaves the document valid
    if broken >= 0:
        owner, key = places[broken]
        owner[key] = draw(_JSON)
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
            *(
                ("check", scalar_config({"kind": "linear"}, **{key: value}), key)
                for key, value in (
                    ("T", "abc"),
                    ("grid_n", "x"),
                    ("n_list", "abc"),
                    ("n_list", None),
                    ("dim", "x"),
                    ("T", float("nan")),
                    ("T", float("inf")),
                    ("grid_n", 8.7),
                )
            ),
            ("check", scalar_config({"kind": "linear", "c": "x"}), "c"),
            (
                "semigroup",
                scalar_config({"kind": "linear"}, n_list=[1], command_options={"N": True}),
                "option N",
            ),
            ("check", family_config(kind="synthetic", b1=[[1.0]]), "missing key 'b0'"),
            ("check", family_config(kind="heat1d"), "missing key 'modes'"),
            ("check", family_config(kind="heat1d", modes=100000), "modes"),
            ("check", family_config(kind="scalar", modes=3), "modes"),
            (
                "check",
                family_config(kind="synthetic", b0=np.eye(257).tolist(), b1=np.eye(257).tolist()),
                "b0",
            ),
            ("check", scalar_config({"c": 1.0}), "missing key 'kind'"),
            ("bounds", {"dim": 257, "command_options": {"n_max": 10}}, "dim"),
            ("converge", scalar_config({"kind": "weierstrass", "terms": 1100}), "terms"),
        ],
        ids=[
            "alpha", "N_zero", "N_text", "N_negative", "slope_tolerance_text", "z_gamma",
            "onestep_factor_negative", "onestep_factor_above_one", "sandwich_exponent_negative",
            "m_params_n_text", "T_text", "grid_n_text", "n_list_text", "n_list_null", "dim_text",
            "T_nan", "T_infinity", "grid_n_fraction", "profile_c_text", "N_true",
            "synthetic_without_b0", "heat1d_without_modes", "modes_above_cap", "scalar_with_modes",
            "synthetic_above_cap", "profile_without_kind", "dim_above_cap", "terms_above_cap",
        ],
    )
    def test_bad_value(self, tmp_path, capsys, command, doc, named):
        cfg = write_config(tmp_path / "c.json", doc)
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 64
        assert time.perf_counter() - start < 1.0  # rejected before any large allocation
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err
        assert not caught

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(doc=config_docs())
    def test_fuzzed_documents_raise_only_config_error(self, doc):
        try:
            build_problem(parse_config(doc))
        except errors.ConfigError:
            pass

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(doc=config_docs(), command=st.sampled_from(list(cli_harness.COMMANDS)))
    def test_fuzzed_cli_runs_exit_cleanly(self, doc, command):
        doc["command_options"] = {"n_max": 16} if command == "bounds" else {}  # a small scan
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out:
            cfg = write_config(Path(out) / "c.json", doc)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", cfg, "--out", out])
        assert code in {0, 1, 2, 3, 64, 65, 70}
        assert "Traceback" not in err.getvalue()

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

    def test_empty_tau_lists(self, tmp_path):
        doc = fixture_config("semigroup_scalar", onestep_tau_factors=[], sandwich_tau_exponents=[])
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "o"
        assert main(["semigroup", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["onestep"]["per_tau"] == [] and report["onestep"]["ok"] is True

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

    def test_checks_refine_tau_equal_horizon_once(self, tmp_path, monkeypatch):
        # tau = T leaves one base point, t = 0: each check refines [0, T] once, not grid_n + 1 times
        def run(label):
            calls = []
            refine = evolution_semigroup.refine_to_tol

            def counted(a_op, fam, s, t, tol, **kwargs):
                calls.append((s, t))
                return refine(a_op, fam, s, t, tol, **kwargs)

            with monkeypatch.context() as m:
                m.setattr(evolution_semigroup, "refine_to_tol", counted)
                doc = fixture_config(
                    "semigroup_scalar", onestep_tau_factors=[1.0], sandwich_tau_exponents=[0]
                )
                cfg, out = write_config(tmp_path / "c.json", doc), tmp_path / label
                assert main(["semigroup", "--config", cfg, "--out", str(out)]) == 0
            return calls, json.loads((out / "report.json").read_text(encoding="utf-8"))

        calls, report = run("distinct")
        assert calls == [(0.0, 1.0), (0.0, 1.0)]
        # evaluating all grid_n + 1 copies of t = 0 gives the same ratios
        monkeypatch.setattr(
            evolution_semigroup, "_onestep_grids",
            lambda fam, tau, grid_n: np.linspace(0.0, fam.horizon - tau, grid_n + 1),
        )
        repeated_calls, repeated = run("repeated")
        assert len(repeated_calls) == 2 * 9
        for check in ("onestep", "sandwich"):
            assert report[check] == repeated[check]

    @pytest.mark.parametrize(
        "profile", [None, {"kind": "power", "c": 1.0, "beta": 0.5}], ids=["weierstrass", "power"]
    )
    def test_warm_started_checks_match_cold_start(self, tmp_path, monkeypatch, profile):
        # heat1d fixture (Weierstrass profile, rough everywhere): warm starts save eigh
        # matrices and every refinement stops at its cold-start level.  Power profile,
        # singular at t = 0: each tau's first window is the hard one, and the warm
        # starts after it must cost no more than cold starts.  Reports are unchanged.
        def run(label, warm):
            counts = {"eigh": 0, "steps": []}
            eigh, refine = np.linalg.eigh, reference_oracle.refine_to_tol

            def counted_eigh(a, *args, **kwargs):
                counts["eigh"] += int(np.prod(np.shape(a)[:-2]))
                return eigh(a, *args, **kwargs)

            def counted_refine(a_op, fam, s, t, tol, **kwargs):
                prop = refine(a_op, fam, s, t, tol, **(kwargs if warm else {}))
                counts["steps"].append((s, t, prop.n_or_steps))
                return prop

            with monkeypatch.context() as m:
                m.setattr(np.linalg, "eigh", counted_eigh)
                m.setattr(reference_oracle, "refine_to_tol", counted_refine)
                m.setattr(evolution_semigroup, "refine_to_tol", counted_refine)
                doc = fixture_config("semigroup_heat1d")
                if profile is not None:
                    doc["family"]["profile"] = profile
                cfg, out = write_config(tmp_path / "c.json", doc), tmp_path / label
                assert main(["semigroup", "--config", cfg, "--out", str(out)]) == 0
            return counts, (out / "report.json").read_bytes()

        warm_counts, warm_report = run("warm", warm=True)
        cold_counts, cold_report = run("cold", warm=False)
        assert warm_report == cold_report
        assert len(warm_counts["steps"]) == 131
        assert warm_counts["steps"] == cold_counts["steps"]
        if profile is None:
            assert warm_counts["eigh"] <= 0.95 * cold_counts["eigh"]
        else:
            assert warm_counts["eigh"] <= cold_counts["eigh"]

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

    def test_numpy_scalars_written_as_json_values(self, tmp_path, capsys):
        report = {"flag": np.bool_(True), "count": np.int64(3), "value": np.float64(0.1)}
        cli_harness._write_outputs(tmp_path, report, None, True)
        stdout = capsys.readouterr().out
        for text in ((tmp_path / "report.json").read_text(encoding="utf-8"), stdout):
            written = json.loads(text)
            assert written == {"flag": True, "count": 3, "value": 0.1}
            types = {k: type(v) for k, v in written.items()}
            assert types == {"flag": bool, "count": int, "value": float}

    def test_threads_flag_accepted(self, tmp_path):
        doc = {"T": 1.0, "command_options": {"n_max": 10}}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "o"
        assert main(["bounds", "--config", cfg, "--out", str(out), "--threads", "4"]) == 0
        assert main(["bounds", "--config", cfg, "--out", str(out), "--threads", "0"]) == 64
