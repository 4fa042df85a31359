import json
import subprocess
import sys
from pathlib import Path

import pytest

from renyi_quant import cli
from renyi_quant.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


UNIFORM_CFG = {
    "source": {"family": "uniform", "a": 0.0, "b": 1.0},
    "alpha": 0.5,
    "r": 2.0,
    "n_grid": [4, 8, 16, 32],
    "tolerances": {"ratio": 1e-8},
}


def test_predict_prints_q(tmp_path, capsys):
    path = write_config(tmp_path, {"source": UNIFORM_CFG["source"], "alpha": 0.5, "r": 2.0},
                        name="uniform.json")
    code = main(["predict", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    values = dict(
        line.split(" = ") for line in out.strip().splitlines() if " = " in line
    )
    assert values["Q"] == "0.0833333333"
    assert float(values["beta1"]) == pytest.approx(0.6)
    assert float(values["beta2"]) == pytest.approx(5.0)


def test_predict_matches_theory_exactly(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {"source": {"family": "gaussian", "mean": 0.0, "sigma": 1.0}, "alpha": 0.5, "r": 2.0},
    )
    main(["predict", "--config", str(path)])
    out = capsys.readouterr().out
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    from renyi_quant import Gaussian, quantization_coefficient

    expected = quantization_coefficient(Gaussian(0.0, 1.0), 0.5, 2.0)
    assert values["Q"] == format(expected, ".9g")


def test_asymptotics_writes_reports(tmp_path, capsys):
    path = write_config(tmp_path, dict(UNIFORM_CFG, name="uniform_run"), name="u.json")
    out_dir = tmp_path / "out"
    code = main(["asymptotics", "--config", str(path), "--output-dir", str(out_dir)])
    assert code == 0
    csv_path = out_dir / "uniform_run.csv"
    summary_path = out_dir / "uniform_run_summary.json"
    assert csv_path.exists() and summary_path.exists()
    summary = json.loads(summary_path.read_text())
    assert summary["passed"] is True
    header = csv_path.read_text().splitlines()[0]
    assert header.split(",")[:5] == ["n", "H_alpha", "D", "eRH_D", "ratio"]


def test_mismatch_summary_contains_limit(tmp_path):
    cfg = {
        "source": {"family": "uniform", "a": 0.0, "b": 1.0},
        "mismatch_source": {"family": "uniform", "a": 0.0, "b": 0.5},
        "alpha": 0.5,
        "r": 2.0,
        "n_grid": [4, 8, 16, 32],
        "tolerances": {"shift_abs": 0.02, "distortion_rel": 0.05},
    }
    path = write_config(tmp_path, cfg, name="mismatch_uniform.json")
    code = main(["mismatch", "--config", str(path), "--output-dir", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "mismatch_uniform_summary.json").read_text())
    assert summary["limits"]["mismatch_distortion_limit"] == pytest.approx(
        0.0208333333, rel=1e-6
    )


def test_exit_code_1_on_missing_config(tmp_path, capsys):
    code = main(["asymptotics", "--config", str(tmp_path / "nope.json")])
    assert code == 1
    assert "nope.json" in capsys.readouterr().err


def test_exit_code_1_names_offending_field(tmp_path, capsys):
    path = write_config(tmp_path, {"source": UNIFORM_CFG["source"], "r": 2.0})
    code = main(["asymptotics", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "alpha" in err


def test_exit_code_1_on_hypothesis_violation(tmp_path, capsys):
    cfg = {
        "source": {"family": "gaussian", "mean": 0.0, "sigma": 1.0},
        "mismatch_source": {"family": "gaussian", "mean": 0.0, "sigma": 2.0},
        "alpha": 0.5,
        "r": 2.0,
        "n_grid": [4, 8],
    }
    path = write_config(tmp_path, cfg)
    code = main(["mismatch", "--config", str(path), "--output-dir", str(tmp_path)])
    assert code == 1
    assert "unbounded" in capsys.readouterr().err


def test_exit_code_2_on_tolerance_failure(tmp_path, capsys):
    # a coarse grid cannot reach a 1e-6 ratio tolerance for the gaussian source
    cfg = {
        "source": {"family": "gaussian", "mean": 0.0, "sigma": 1.0},
        "alpha": 0.5,
        "r": 2.0,
        "n_grid": [4, 8],
        "tolerances": {"ratio": 1e-6},
    }
    path = write_config(tmp_path, cfg, name="strict.json")
    code = main(["asymptotics", "--config", str(path), "--output-dir", str(tmp_path)])
    assert code == 2
    # CSV is still written with identical content semantics
    assert (tmp_path / "strict.csv").exists()


def test_overrides(tmp_path, capsys):
    path = write_config(tmp_path, {"source": UNIFORM_CFG["source"], "alpha": 0.5, "r": 2.0})
    code = main([
        "predict",
        "--config", str(path),
        "--set", "alpha=0.0",
        "--set", "source.b=2.0",
    ])
    out = capsys.readouterr().out
    assert code == 0
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(values["alpha"]) == 0.0
    assert float(values["beta1"]) == pytest.approx(1.0 / 3.0)
    # uniform span 2 at alpha 0, r 2: Q = (1/12) * (2^(2/3))^3 = 1/3
    assert float(values["Q"]) == pytest.approx(1.0 / 3.0, rel=1e-9)


def test_override_of_refine_codepoints_must_be_a_json_boolean(tmp_path, capsys):
    # False is not JSON, so the override is the string "False", which is refused
    path = write_config(tmp_path, UNIFORM_CFG)
    code = main(["predict", "--config", str(path), "--set", "refine_codepoints=False"])
    assert code == 1
    assert "refine_codepoints" in capsys.readouterr().err
    assert main(["predict", "--config", str(path), "--set", "refine_codepoints=false"]) == 0


def test_override_of_a_number_must_be_a_json_number(tmp_path, capsys):
    path = write_config(tmp_path, UNIFORM_CFG)
    assert main(["predict", "--config", str(path), "--set", 'alpha="0.5"']) == 1
    assert "alpha" in capsys.readouterr().err
    assert main(["predict", "--config", str(path), "--set", "alpha=0.5"]) == 0


def test_cli_and_from_json_name_a_config_alike(tmp_path, capsys):
    from renyi_quant.experiments import ExperimentConfig

    named = write_config(tmp_path, dict(UNIFORM_CFG, name="experiment"), name="named.json")
    unnamed = write_config(tmp_path, UNIFORM_CFG, name="unnamed.json")
    for path, name in ((named, "experiment"), (unnamed, "unnamed")):
        assert ExperimentConfig.from_json(path).name == name
        out_dir = tmp_path / path.stem
        assert main(["asymptotics", "--config", str(path), "--output-dir", str(out_dir)]) == 0
        assert (out_dir / f"{name}.csv").exists()


def test_sweep_reports_are_byte_stable(tmp_path, capsys):
    # n = 16 puts the outer cells' tails through the adaptive path
    path = write_config(tmp_path, {
        "name": "stable",
        "source": {"family": "gaussian", "mean": 0.0, "sigma": 1.0},
        "alpha": 0.5,
        "r": 2.0,
        "n_grid": [16, 32, 64],
    })
    first, second = _reports_of_two_runs(tmp_path, "asymptotics", path, "stable")
    assert first == second


def _reports_of_two_runs(tmp_path, command, path, name):
    runs = []
    for run in ("first", "second"):
        out_dir = tmp_path / run
        main([command, "--config", str(path), "--output-dir", str(out_dir)])
        runs.append([(out_dir / f).read_bytes() for f in (f"{name}.csv", f"{name}_summary.json")])
    return runs


@pytest.mark.parametrize(
    "command, name", [("asymptotics", "gaussian_asymptotics"), ("mismatch", "mismatch_uniform")]
)
def test_checked_in_sweep_reports_are_byte_stable(tmp_path, capsys, command, name):
    first, second = _reports_of_two_runs(tmp_path, command, CONFIG_DIR / f"{name}.json", name)
    assert first == second


def test_sanity_subcommand(tmp_path):
    cfg = {
        "source": {"family": "gaussian", "mean": 0.0, "sigma": 1.0},
        "alpha": 0.5,
        "r": 2.0,
        "interval": [0.0, 1.0],
        "n_grid": [8, 16, 32, 64],
        # the 3-nat divergence floor belongs to the full-depth sweep
        "tolerances": {"restricted_entropy_min": 0.5},
    }
    path = write_config(tmp_path, cfg, name="sanity_run.json")
    code = main(["sanity", "--config", str(path), "--output-dir", str(tmp_path)])
    assert code == 0
    header = (tmp_path / "sanity_run.csv").read_text().splitlines()[0]
    assert "max_cell_probability" in header
    assert "single_cell_ratio_p0" in header


def test_lemma_check_passes(capsys):
    code = main(["lemma-check", "--trials", "25"])
    out = capsys.readouterr().out
    assert code == 0
    assert "split-bound-strict-minimizer: PASS" in out
    assert "point-density-minimizer: PASS" in out


def test_checked_in_predict_config(capsys):
    code = main(["predict", "--config", str(CONFIG_DIR / "uniform_predict.json")])
    assert code == 0
    assert "Q = 0.0833333333" in capsys.readouterr().out


PREDICT_GAUSSIAN_INTERVAL = """\
alpha = 0.5
r = 2
beta1 = 0.6
beta2 = 5
C_r = 0.0833333333
Q = 1.87767531
interval_mass = 0.341344746
entropy_density_limit = 0.480466154
limit_distortion_measure = 0.52708409
tilted_mass = 0.280710987
Q_conditional = 0.0822882609
"""

PREDICT_GAUSSIAN_MISMATCH = """\
alpha = 0.5
r = 2
beta1 = 0.6
beta2 = 5
C_r = 0.0833333333
Q = 7.51070125
mismatch_entropy_shift = 0.755928946
mismatch_distortion_limit = 2.00243654
mismatch_loss = 1.06644451
Q_mismatch_source = 1.87767531
kl_divergence = 0.318147181
renyi_divergence = 0.223143551
fixed_rate_divergence = 0.464074498
"""


@pytest.mark.parametrize(
    "name, expected",
    [
        ("gaussian_distortion_density", PREDICT_GAUSSIAN_INTERVAL),
        ("mismatch_gaussian", PREDICT_GAUSSIAN_MISMATCH),
    ],
)
def test_predict_prints_interval_and_mismatch_values(capsys, name, expected):
    assert main(["predict", "--config", str(CONFIG_DIR / f"{name}.json")]) == 0
    assert capsys.readouterr().out == expected


def test_predict_at_alpha_zero_drops_the_renyi_divergence(capsys):
    path = str(CONFIG_DIR / "mismatch_gaussian.json")
    assert main(["predict", "--config", path, "--set", "alpha=0"]) == 0
    names = [line.partition(" = ")[0] for line in capsys.readouterr().out.splitlines()]
    expected = [line.partition(" = ")[0] for line in PREDICT_GAUSSIAN_MISMATCH.splitlines()]
    assert names == [name for name in expected if name != "renyi_divergence"]


@pytest.mark.filterwarnings("ignore:density ratio f/g appears unbounded")
def test_predict_prints_nothing_before_an_error(tmp_path, capsys):
    # Uniform(0, 2) against Uniform(0, 1): the Renyi divergence is infinite
    path = write_config(tmp_path, {
        "source": UNIFORM_CFG["source"],
        "mismatch_source": {"family": "uniform", "a": 0.0, "b": 2.0},
        "alpha": 0.5,
        "r": 2.0,
    })
    assert main(["predict", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "vanishes" in captured.err


def test_two_calls_build_the_parser_once(capsys):
    cli._build_parser.cache_clear()
    path = str(CONFIG_DIR / "uniform_predict.json")
    assert main(["predict", "--config", path]) == 0
    plain = capsys.readouterr().out
    assert main(["predict", "--config", path, "--set", "alpha=0.25"]) == 0
    assert "alpha = 0.25" in capsys.readouterr().out
    # the override of the second call does not stay in the shared parser
    assert main(["predict", "--config", path]) == 0
    assert capsys.readouterr().out == plain
    assert cli._build_parser.cache_info().misses == 1


def test_cli_import_loads_no_scipy():
    # a fresh isolated interpreter, so no other test's imports count
    script = (
        f"import sys; sys.path.insert(0, {str(SRC_DIR)!r}); import renyi_quant.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    child = subprocess.run([sys.executable, "-I", "-c", script],
                           capture_output=True, text=True, check=True)
    assert child.stdout.strip() == "[]"
