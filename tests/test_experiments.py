import json
import math
from pathlib import Path

import pytest

from renyi_quant import Interval, experiments, quantizer
from renyi_quant.errors import ConfigError, HypothesisError
from renyi_quant.experiments import (
    DEFAULT_N_GRID,
    RUNNERS,
    TOLERANCES,
    ExperimentConfig,
    run_asymptotics,
    run_distortion_density,
    run_entropy_density,
    run_mismatch,
    run_sanity,
)

UNIFORM = {"family": "uniform", "a": 0.0, "b": 1.0}
GAUSSIAN = {"family": "gaussian", "mean": 0.0, "sigma": 1.0}
SMALL_GRID = (4, 8, 16, 32)


# --- config parsing ------------------------------------------------------------


def test_config_defaults():
    cfg = ExperimentConfig(source=UNIFORM, alpha=0.5, r=2.0)
    assert cfg.n_grid == DEFAULT_N_GRID
    assert cfg.n_grid[0] == 4 and cfg.n_grid[-1] == 4096
    assert not cfg.refine_codepoints


def test_config_validation():
    with pytest.raises(ConfigError, match="alpha"):
        ExperimentConfig(source=UNIFORM, alpha=1.0, r=2.0)
    with pytest.raises(ConfigError, match="'r'"):
        ExperimentConfig(source=UNIFORM, alpha=0.5, r=1.0)
    with pytest.raises(ConfigError, match="n_grid"):
        ExperimentConfig(source=UNIFORM, alpha=0.5, r=2.0, n_grid=(8, 4))
    with pytest.raises(ConfigError, match="n_grid"):
        ExperimentConfig(source=UNIFORM, alpha=0.5, r=2.0, n_grid=(1, 4))


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="alpa"):
        ExperimentConfig.from_dict({"source": UNIFORM, "alpa": 0.5, "r": 2.0})


def test_config_from_dict_names_missing_field():
    with pytest.raises(ConfigError, match="'source'"):
        ExperimentConfig.from_dict({"alpha": 0.5, "r": 2.0})
    with pytest.raises(ConfigError, match="'alpha'"):
        ExperimentConfig.from_dict({"source": UNIFORM, "r": 2.0})


def test_config_from_dict_takes_only_a_json_boolean_for_refine_codepoints():
    base = {"source": UNIFORM, "alpha": 0.5, "r": 2.0}
    for value in ("false", "False", 0, 1, None):
        with pytest.raises(ConfigError, match="refine_codepoints"):
            ExperimentConfig.from_dict({**base, "refine_codepoints": value})
    for flag in (True, False):
        cfg = ExperimentConfig.from_dict({**base, "refine_codepoints": flag})
        assert cfg.refine_codepoints is flag


def test_config_from_dict_takes_only_integral_n_grid_entries():
    base = {"source": UNIFORM, "alpha": 0.5, "r": 2.0}
    for grid in ([4.7, 8.2], [4, "8"], [True, 8], "48", 8):
        with pytest.raises(ConfigError, match="n_grid"):
            ExperimentConfig.from_dict({**base, "n_grid": grid})
    assert ExperimentConfig.from_dict({**base, "n_grid": [4, 8.0, 16]}).n_grid == (4, 8, 16)


@pytest.mark.parametrize(
    "field, value",
    [
        ("alpha", {"alpha": "0.5"}),
        ("alpha", {"alpha": True}),
        ("r", {"r": "2"}),
        ("moment_slack", {"moment_slack": True}),
        ("tolerances.ratio", {"tolerances": {"ratio": True}}),
        ("tolerances.ratio", {"tolerances": {"ratio": "1e-3"}}),
        ("name", {"name": 5}),
        ("sanity_points", {"sanity_points": ["0.1"]}),
        ("sanity_points", {"sanity_points": 0.1}),
        ("interval", {"interval": ["0.2", 0.8]}),
        ("interval", {"interval": [0.2, False]}),
        ("interval", {"interval": [0.2]}),
    ],
)
def test_config_from_dict_takes_only_json_numbers_and_a_string_name(field, value):
    base = {"source": UNIFORM, "alpha": 0.5, "r": 2.0}
    with pytest.raises(ConfigError, match=f"field '{field}'"):
        ExperimentConfig.from_dict({**base, **value})


def test_config_from_dict_reads_json_numbers_as_floats():
    cfg = ExperimentConfig.from_dict({
        "source": UNIFORM, "alpha": 0, "r": 3, "moment_slack": 2, "name": "ints",
        "tolerances": {"ratio": 1}, "sanity_points": [0, 0.5], "interval": [None, 1],
    })
    assert (cfg.alpha, cfg.r, cfg.moment_slack) == (0.0, 3.0, 2.0)
    assert all(type(v) is float for v in (cfg.alpha, cfg.r, cfg.moment_slack))
    assert cfg.tolerances == {"ratio": 1.0} and cfg.sanity_points == (0.0, 0.5)
    assert cfg.interval == Interval(-math.inf, 1.0)


def test_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"source": UNIFORM, "alpha": 0.5, "r": 2.0}))
    cfg = ExperimentConfig.from_json(path)
    assert cfg.name == "cfg"  # falls back to the file stem
    assert cfg.alpha == 0.5
    path.write_text(json.dumps({"source": UNIFORM, "alpha": 0.5, "r": 2.0, "name": "experiment"}))
    assert ExperimentConfig.from_json(path).name == "experiment"  # a given name is kept


def test_checked_in_configs_parse():
    for path in sorted(Path(__file__).resolve().parent.parent.glob("configs/*.json")):
        cfg = ExperimentConfig.from_json(path)
        assert cfg.r > 1.0


# --- asymptotics ------------------------------------------------------------------


def test_asymptotics_uniform_exact_at_n4():
    cfg = ExperimentConfig(source=UNIFORM, alpha=0.5, r=2.0, n_grid=(4,), name="u4")
    report = run_asymptotics(cfg)
    row = report.rows[0]
    assert row["eRH_D"] == pytest.approx(1.0 / 12.0, abs=1e-8)
    assert row["ratio"] == pytest.approx(1.0, abs=1e-8)


def test_asymptotics_scaled_uniform():
    cfg = ExperimentConfig(
        source={"family": "uniform", "a": 0.0, "b": 2.0}, alpha=0.5, r=2.0, n_grid=(4,)
    )
    report = run_asymptotics(cfg)
    assert report.rows[0]["eRH_D"] == pytest.approx(1.0 / 3.0, rel=1e-8)


def test_asymptotics_gaussian_small_grid_report_shape():
    cfg = ExperimentConfig(source=GAUSSIAN, alpha=0.5, r=2.0, n_grid=SMALL_GRID)
    report = run_asymptotics(cfg)
    assert [row["n"] for row in report.rows] == list(SMALL_GRID)
    assert report.limits["Q"] == pytest.approx(1.8776753129507462, rel=1e-9)
    assert all(row["ratio"] > 0.0 and math.isfinite(row["ratio"]) for row in report.rows)


def test_asymptotics_exponential_deviation_shrinks_at_high_rate():
    # counting the tails past the quantile window makes ratio - 1 fall
    # monotonically (7.3e-7, 1.8e-7, 4.6e-8, 1.1e-8) instead of crossing zero
    cfg = ExperimentConfig(
        source={"family": "exponential", "rate": 1.0}, alpha=0.5, r=2.0,
        n_grid=(2048, 4096, 8192, 16384),
    )
    report = run_asymptotics(cfg)
    assert report.flags["deviation_nonincreasing"]
    assert all(row["ratio"] > 1.0 for row in report.rows)


def test_asymptotics_hypothesis_failure_aborts():
    two_bumps = {
        "family": "piecewise_linear",
        "knots": [[0.0, 0.5], [1.0, 0.5], [1.000001, 0.0], [1.999999, 0.0], [2.0, 0.5], [3.0, 0.5]],
    }
    cfg = ExperimentConfig(source=two_bumps, alpha=0.5, r=2.0, n_grid=SMALL_GRID)
    with pytest.raises(HypothesisError, match="unimodal"):
        run_asymptotics(cfg)


# --- entropy density ------------------------------------------------------------------


def test_entropy_density_uniform_half_exact():
    cfg = ExperimentConfig(
        source=UNIFORM, alpha=0.5, r=2.0, interval=Interval(0.0, 0.5), n_grid=SMALL_GRID
    )
    report = run_entropy_density(cfg)
    last = report.rows[-1]
    assert last["entropy_density_ratio_A1"] == pytest.approx(math.sqrt(0.5), abs=1e-9)
    assert last["normalization"] == pytest.approx(1.0, abs=1e-9)
    assert last["restricted_ratio"] == pytest.approx(1.0, abs=1e-9)
    assert report.limits["entropy_density_limit_A1"] == pytest.approx(
        math.sqrt(0.5), abs=1e-12
    )
    assert report.limits["Q_conditional"] == pytest.approx(1.0 / 48.0, rel=1e-10)
    assert report.passed


def test_entropy_density_requires_interval():
    cfg = ExperimentConfig(source=UNIFORM, alpha=0.5, r=2.0, n_grid=SMALL_GRID)
    with pytest.raises(ConfigError, match="interval"):
        run_entropy_density(cfg)


def test_entropy_density_rejects_full_mass_interval():
    cfg = ExperimentConfig(
        source=UNIFORM, alpha=0.5, r=2.0, interval=Interval(-1.0, 2.0), n_grid=SMALL_GRID
    )
    with pytest.raises(HypothesisError, match="probability"):
        run_entropy_density(cfg)


def test_partition_identity_holds_per_rate_point():
    cfg = ExperimentConfig(
        source=GAUSSIAN, alpha=0.4, r=2.0, interval=Interval(-0.3, 0.8), n_grid=SMALL_GRID
    )
    report = run_entropy_density(cfg)
    assert report.diagnostics["max_partition_identity_gap"] < 1e-9


# --- distortion density ---------------------------------------------------------------------


def test_distortion_density_uniform_symmetric_share():
    cfg = ExperimentConfig(
        source=UNIFORM, alpha=0.3, r=2.0, interval=Interval(0.0, 0.5), n_grid=(4, 8)
    )
    report = run_distortion_density(cfg)
    for row in report.rows:
        assert row["distortion_share"] == pytest.approx(0.5, abs=1e-9)
        assert row["coincidence_ratio"] == pytest.approx(1.0, abs=1e-9)
    assert report.limits["tilted_mass"] == pytest.approx(0.5, abs=1e-12)


def test_distortion_density_columns_present():
    cfg = ExperimentConfig(
        source=GAUSSIAN, alpha=0.5, r=2.0, interval=Interval(0.0, 1.0), n_grid=SMALL_GRID
    )
    report = run_distortion_density(cfg)
    for col in ("distortion_share", "power_sum_share", "coincidence_ratio", "Mg_n", "Mg_ratio"):
        assert col in report.columns
        assert all(math.isfinite(row[col]) for row in report.rows)


# --- mismatch ----------------------------------------------------------------------------------


def test_mismatch_matched_source_recovers_q():
    cfg = ExperimentConfig(
        source=UNIFORM,
        mismatch_source=UNIFORM,
        alpha=0.5,
        r=2.0,
        n_grid=SMALL_GRID,
        tolerances={"shift_abs": 1e-9, "distortion_rel": 1e-8},
    )
    report = run_mismatch(cfg)
    last = report.rows[-1]
    assert last["mismatch_entropy_shift_empirical"] == pytest.approx(1.0, abs=1e-9)
    assert last["eRH_D"] == pytest.approx(1.0 / 12.0, rel=1e-8)
    assert report.passed


def test_mismatch_uniform_pair_exact():
    cfg = ExperimentConfig(
        source=UNIFORM,
        mismatch_source={"family": "uniform", "a": 0.0, "b": 0.5},
        alpha=0.5,
        r=2.0,
        n_grid=SMALL_GRID,
        tolerances={"shift_abs": 0.02, "distortion_rel": 0.05},
    )
    report = run_mismatch(cfg)
    last = report.rows[-1]
    assert last["mismatch_entropy_shift_empirical"] == pytest.approx(
        math.sqrt(2.0) / 2.0, abs=1e-9
    )
    assert last["eRH_D"] == pytest.approx(1.0 / 48.0, rel=1e-8)
    assert report.limits["mismatch_distortion_limit"] == pytest.approx(1.0 / 48.0, rel=1e-8)
    assert report.passed


def test_mismatch_requires_mismatch_source():
    cfg = ExperimentConfig(source=UNIFORM, alpha=0.5, r=2.0, n_grid=SMALL_GRID)
    with pytest.raises(ConfigError, match="mismatch_source"):
        run_mismatch(cfg)


def test_mismatch_unbounded_ratio_aborts():
    cfg = ExperimentConfig(
        source=GAUSSIAN,
        mismatch_source={"family": "gaussian", "mean": 0.0, "sigma": 2.0},
        alpha=0.5,
        r=2.0,
        n_grid=SMALL_GRID,
    )
    with pytest.raises(HypothesisError, match="unbounded"):
        run_mismatch(cfg)


# --- sanity ----------------------------------------------------------------------------------------


def test_sanity_uniform_max_cell_prob():
    cfg = ExperimentConfig(
        source=UNIFORM, alpha=0.5, r=2.0, interval=Interval(0.1, 0.6), n_grid=SMALL_GRID
    )
    report = run_sanity(cfg)
    for row in report.rows:
        assert row["max_cell_probability"] == pytest.approx(1.0 / row["n"], abs=1e-12)


def test_sanity_default_interval_and_points():
    cfg = ExperimentConfig(source=GAUSSIAN, alpha=0.5, r=2.0, n_grid=SMALL_GRID)
    report = run_sanity(cfg)
    assert "single_cell_ratio_p0" in report.columns
    assert "single_cell_ratio_p1" in report.columns
    series = [row["single_cell_ratio_p0"] for row in report.rows]
    assert series[-1] < series[0]


# --- cell passes per rate point ------------------------------------------------------------


# a config every experiment runs: an interval for the density runs and a
# mismatched source whose ratio to the design source is bounded
EVERY_RUN = dict(
    source=GAUSSIAN,
    mismatch_source={"family": "gaussian", "mean": 0.2, "sigma": 0.8},
    alpha=0.5,
    r=2.0,
    interval=Interval(-0.3, 0.8),
    n_grid=SMALL_GRID,
)


def _count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)
    for name in calls:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize(
    "runner, probabilities_per_point",
    [
        (run_asymptotics, 1),
        (run_entropy_density, 1),
        (run_distortion_density, 1),
        (run_sanity, 1),
        (run_mismatch, 2),  # under the design source and under the mismatched one
    ],
    ids=lambda x: getattr(x, "__name__", str(x)),
)
def test_one_cell_pass_each_per_rate_point(monkeypatch, runner, probabilities_per_point):
    calls = _count_calls(monkeypatch, quantizer, ("cell_probabilities", "cell_distortions"))
    builds = _count_calls(monkeypatch, experiments, ("density_from_spec", "optimal_point_density"))
    report = runner(ExperimentConfig(**EVERY_RUN))
    points = len(report.rows)
    assert points == len(SMALL_GRID)
    assert calls == {
        "cell_probabilities": probabilities_per_point * points,
        "cell_distortions": points,
    }
    # one sweep builds each density once: the source, the mismatched source
    # of a mismatch run and the point density
    sources = 2 if runner is run_mismatch else 1
    assert builds == {"density_from_spec": sources, "optimal_point_density": 1}


# --- shared setup ---------------------------------------------------------------------------


@pytest.mark.parametrize("experiment", list(RUNNERS))
def test_unknown_tolerance_key_is_refused(experiment):
    cfg = ExperimentConfig(**EVERY_RUN, tolerances={"ratoi": 1e-30})
    with pytest.raises(ConfigError, match=f"'ratoi' for {experiment} runs"):
        RUNNERS[experiment](cfg)


@pytest.mark.parametrize("experiment", [e for e in RUNNERS if e != "asymptotics"])
def test_alpha_zero_is_refused_outside_asymptotics(experiment):
    cfg = ExperimentConfig(**{**EVERY_RUN, "alpha": 0.0})
    with pytest.raises(ConfigError, match=f"{experiment} runs need alpha"):
        RUNNERS[experiment](cfg)


@pytest.mark.parametrize("experiment", list(RUNNERS))
def test_summary_lists_the_tolerances_in_effect(experiment):
    # with no tolerance set, every default the run reads
    report = RUNNERS[experiment](ExperimentConfig(**EVERY_RUN))
    defaults = {k: v for k, v in TOLERANCES[experiment].items() if v is not None}
    assert report.diagnostics["tolerances"] == defaults


def test_mismatch_reads_shift_abs_in_place_of_shift_rel():
    # at n = 32 the shift is ~1e-4 off its limit: inside 1.0, outside 1e-12
    loose_abs = ExperimentConfig(
        **EVERY_RUN, tolerances={"shift_abs": 1.0, "shift_rel": 1e-12}
    )
    report = run_mismatch(loose_abs)
    assert report.flags["shift_within_tolerance"]
    assert report.diagnostics["tolerances"] == {"shift_abs": 1.0, "distortion_rel": 0.05}
    strict_rel = ExperimentConfig(**EVERY_RUN, tolerances={"shift_rel": 1e-12})
    report = run_mismatch(strict_rel)
    assert not report.flags["shift_within_tolerance"]
    assert report.diagnostics["tolerances"] == {"shift_rel": 1e-12, "distortion_rel": 0.05}


# --- report serialization -----------------------------------------------------------------------------


def test_reports_deterministic_and_17_digits(tmp_path):
    cfg = ExperimentConfig(source=GAUSSIAN, alpha=0.5, r=2.0, n_grid=(4, 8), name="det")
    a = run_asymptotics(cfg)
    b = run_asymptotics(cfg)
    assert a.to_csv_text() == b.to_csv_text()
    a.write_csv(tmp_path / "a.csv")
    b.write_csv(tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    header, first = a.to_csv_text().splitlines()[:2]
    assert header.startswith("n,H_alpha,D,eRH_D,ratio")
    # round-trip at 17 significant digits is exact
    values = first.split(",")
    assert float(values[2]) == a.rows[0]["D"]


def test_csv_identical_regardless_of_tolerance_outcome(tmp_path):
    # tolerances drive exit flags only; the CSV bytes must not change
    loose = ExperimentConfig(
        source=GAUSSIAN, alpha=0.5, r=2.0, n_grid=(4, 8), name="t", tolerances={"ratio": 0.5}
    )
    strict = ExperimentConfig(
        source=GAUSSIAN, alpha=0.5, r=2.0, n_grid=(4, 8), name="t", tolerances={"ratio": 1e-9}
    )
    rep_loose = run_asymptotics(loose)
    rep_strict = run_asymptotics(strict)
    assert rep_loose.passed and not rep_strict.passed
    assert rep_loose.to_csv_text() == rep_strict.to_csv_text()


def test_summary_json_serializable(tmp_path):
    cfg = ExperimentConfig(
        source=GAUSSIAN, alpha=0.5, r=2.0, interval=Interval(0.0, 1.0), n_grid=(4, 8, 16, 32)
    )
    report = run_sanity(cfg)
    out = tmp_path / "summary.json"
    report.write_summary(out)
    parsed = json.loads(out.read_text())
    assert parsed["experiment"] == "sanity"
    assert isinstance(parsed["passed"], bool)
    assert set(parsed) == {"experiment", "name", "limits", "flags", "diagnostics", "passed"}
