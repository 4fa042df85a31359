import json
import math
from pathlib import Path

import numpy as np
import pytest

from renyi_quant import Gaussian, Interval, Laplacian, PiecewiseLinear, cli, experiments, quantizer, theory
from renyi_quant.compander import build_companders, optimal_point_density
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
        # it names <name>.csv and <name>_summary.json inside the output directory
        ("name", {"name": ""}),
        ("name", {"name": "a/b"}),
        ("name", {"name": "../escaped"}),
        ("name", {"name": "/tmp/abs"}),
        ("name", {"name": "."}),
        ("name", {"name": "a\0b"}),
        # object fields: no list of pairs, string or number in place of an object
        ("source", {"source": [["family", "uniform"], ["a", 0.0], ["b", 1.0]]}),
        ("source", {"source": "gaussian"}),
        ("source", {"source": 1}),
        ("mismatch_source", {"mismatch_source": [["family", "uniform"]]}),
        ("mismatch_source", {"mismatch_source": "gaussian"}),
        ("tolerances", {"tolerances": [["ratio", 0.5]]}),
        ("tolerances", {"tolerances": 5}),
        ("tolerances", {"tolerances": None}),
        ("sanity_points", {"sanity_points": ["0.1"]}),
        ("sanity_points", {"sanity_points": 0.1}),
        ("interval", {"interval": ["0.2", 0.8]}),
        ("interval", {"interval": [0.2, False]}),
        ("interval", {"interval": [0.2]}),
        ("interval", {"interval": [0.8, 0.2]}),  # lo < hi, named like every other refusal
        # finite ones only: Python's json reads NaN and Infinity, and null
        # is the way to write an infinite interval end
        ("alpha", {"alpha": math.nan}),
        ("r", {"r": math.nan}),
        ("r", {"r": math.inf}),
        ("r", {"r": 10**400}),
        ("moment_slack", {"moment_slack": math.nan}),
        ("moment_slack", {"moment_slack": math.inf}),
        ("tolerances.ratio", {"tolerances": {"ratio": math.nan}}),
        ("sanity_points", {"sanity_points": [0.5, -math.inf]}),
        ("interval", {"interval": [0.2, math.inf]}),
        ("interval", {"interval": [math.nan, 0.8]}),
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


def _count_outermost(monkeypatch, module, name):
    """Count the calls of module.name that no call of it encloses."""
    calls, depth, original = [0], [0], getattr(module, name)

    def counting(*args, **kwargs):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return original(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize(
    "runner, mass_passes",
    [
        (run_asymptotics, 1),
        (run_entropy_density, 1),
        (run_distortion_density, 1),
        (run_sanity, 1),
        (run_mismatch, 2),  # under the mismatched source and under the design one
    ],
    ids=lambda x: getattr(x, "__name__", str(x)),
)
def test_one_build_and_cell_pass_each_per_group(monkeypatch, runner, mass_passes):
    """A group of rate points costs one compander build, one mass pass and one
    distortion pass, whatever its size."""
    monkeypatch.setattr(quantizer, "_BLOCK", 16)
    builds = _count_calls(monkeypatch, experiments, ("build_companders",))
    masses = _count_outermost(monkeypatch, quantizer, "group_probabilities")
    # mismatch's pass under the design source reaches it through experiments' name
    monkeypatch.setattr(experiments, "group_probabilities", quantizer.group_probabilities)
    distortions = _count_outermost(monkeypatch, quantizer, "_batch_distortions")
    loads = _count_calls(monkeypatch, experiments, ("density_from_spec", "optimal_point_density"))
    report = runner(ExperimentConfig(**EVERY_RUN))
    assert len(report.rows) == len(SMALL_GRID)
    # 4 + 8 + 16 cells and 32, at most 2 _BLOCK each, whether or not the
    # companders mirror under the evaluating source (the mismatched one is
    # centered elsewhere)
    groups = 2
    assert builds == {"build_companders": groups}
    assert masses[0] == mass_passes * groups
    assert distortions[0] == groups
    # one sweep builds each density once: the source, the mismatched source
    # of a mismatch run and the point density
    sources = 2 if runner is run_mismatch else 1
    assert loads == {"density_from_spec": sources, "optimal_point_density": 1}


@pytest.mark.parametrize(
    "runner, per_point",
    [
        # (entropies, exact distortion sums)
        (run_entropy_density, (3, 3)),  # H, H_A, H_Ac; D, D_A, D_Ac for the gap
        (run_distortion_density, (1, 3)),  # H; D, D_A, D_Ac
        (run_sanity, (3, 1)),  # H, H_A, H_Ac; D
    ],
    ids=lambda x: getattr(x, "__name__", str(x)),
)
def test_interval_runners_compute_only_what_they_report(monkeypatch, runner, per_point):
    """Per rate point, distortion-density computes no conditional entropy,
    sanity no conditional distortion, and none sums a region's distortions
    twice. Each sums p_i^alpha over a table's masses once, the sum inside
    renyi_entropy_vec included: distortion-density's power-sum share and
    sanity's single-cell ratios reuse the entropy's sum."""
    tables = []
    original_tables = experiments.cell_tables

    def recording(*args):
        made = original_tables(*args)
        tables.extend(made)
        return made

    monkeypatch.setattr(experiments, "cell_tables", recording)
    calls = []
    for name in ("renyi_entropy_vec", "power_sum", "fsum_array"):
        def wrapped(p, *args, _name=name, _original=getattr(quantizer, name)):
            calls.append((_name, p))
            return _original(p, *args)

        for module in (quantizer, experiments):  # where the runners and the columns reach it
            monkeypatch.setattr(module, name, wrapped)
    report = runner(ExperimentConfig(**EVERY_RUN))
    points = len(report.rows)
    assert len(tables) == points == len(SMALL_GRID)

    def count(name, array):
        return sum(called == name and p is array for called, p in calls)

    def count_equal(name, array):  # the same values, in any array
        return sum(called == name and np.array_equal(p, array) for called, p in calls)

    entropies, sums = per_point
    assert sum(name == "renyi_entropy_vec" for name, _ in calls) == entropies * points
    assert sum(name == "fsum_array" for name, _ in calls) == sums * points
    for table in tables:
        assert count("renyi_entropy_vec", table.masses) == 1
        assert count("fsum_array", table.distortions) == 1
        assert count_equal("power_sum", table.masses) == 1
        assert all(count("fsum_array", region.distortions) <= 1 for region in table.regions)


@pytest.mark.parametrize(
    "runner, changes",
    [
        # evaluated cells 2, 4, 8, 16: the companders mirror under N(0, 1)
        (run_entropy_density, {}),
        # the mirrors round about 0.3, so each group evaluates all 28 cells,
        # which the cell passes split into blocks
        (run_entropy_density, {"source": {"family": "gaussian", "mean": 0.3, "sigma": 1.7}}),
        # refined codepoints do not mirror, nor do cells under another center
        (run_entropy_density, {"refine_codepoints": True}),
        (run_mismatch, {}),
    ],
    ids=["mirrored", "mirror_rounds", "refined", "mismatch"],
)
def test_sweep_groups_rate_points_while_their_cells_fit_two_blocks(monkeypatch, runner, changes):
    """A group holds consecutive n of at most 2 _BLOCK cells, mirrored or not,
    and its rows are those of one group for the whole grid."""
    cfg = ExperimentConfig(**{**EVERY_RUN, **changes})
    rows = runner(cfg).rows
    groups = []
    original = experiments.cell_tables

    def recording(qs, *args):
        groups.append([q.size for q in qs])
        return original(qs, *args)

    monkeypatch.setattr(experiments, "cell_tables", recording)
    monkeypatch.setattr(quantizer, "_BLOCK", 16)
    assert runner(cfg).rows == rows
    assert groups == [[4, 8, 16], [32]]
    assert experiments._groups((2, 3, 20, 5, 6, 5)) == [[2, 3, 20, 5], [6, 5]]
    assert experiments._groups((40, 2, 31, 1)) == [[40], [2], [31, 1]]


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


# --- library behaviour the sweeps rest on ----------------------------------------------


def _deviations(d, alpha, r, ns):
    """ratio - 1 of the compander sweep of d over ns, as a sweep reports it."""
    q_coeff = theory.quantization_coefficient(d, alpha, r)
    qs = build_companders(optimal_point_density(d, alpha, r), ns)
    tables = quantizer.cell_tables(qs, d, r)
    return [experiments._rate_point(n, table, alpha, r, q_coeff)["ratio"] - 1.0
            for n, table in zip(ns, tables, strict=True)]


@pytest.mark.parametrize("alpha, r", [(0.5, 2.0), (0.2, 3.0)])
@pytest.mark.parametrize(
    "d",
    [Gaussian(0.0, 1.0), Laplacian(0.0, 1.0), PiecewiseLinear([(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)])],
    ids=repr,
)
def test_a_symmetric_source_deviates_as_its_half_at_half_the_cells(d, alpha, r):
    """The half identity: for d symmetric about 0, the compander of n cells
    is the compander of n / 2 cells of the half d restricted to [0, inf)
    and its mirror, with masses halved (H gains log 2) and the same D, so
    ratio - 1 is the half's at n / 2. The half has no center, so it runs
    the unmirrored passes: an oracle for the mirrored ones."""
    half = d.restrict(Interval(0.0, d.support.hi))
    assert half.center is None
    full = _deviations(d, alpha, r, (64, 1024))
    halves = _deviations(half, alpha, r, (32, 512))
    assert all(abs(dev) > 1e-6 for dev in full)
    np.testing.assert_allclose(full, halves, rtol=0.0, atol=1e-14)


BIMODAL = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 0.1), (3.0, 1.0), (4.0, 0.0)])


def test_a_bimodal_source_converges_though_the_cli_refuses_it(tmp_path, capsys):
    """The two-peaked source fails the weak-unimodality check, so a run exits 1
    naming it; through the library its compander's ratio - 1 is positive and
    falls over n = 64 ... 4096 (6.48e-4, 1.16e-4, 1.92e-5, 2.97e-6) at an
    order p = log4(dev(n) / dev(4n)) of 1.24, 1.29, 1.35, towards 4/3."""
    devs = _deviations(BIMODAL, 0.5, 2.0, (64, 256, 1024, 4096))
    assert all(dev > 0.0 for dev in devs)
    assert all(a > b for a, b in zip(devs, devs[1:]))
    orders = [math.log(a / b, 4.0) for a, b in zip(devs, devs[1:])]
    assert all(1.2 <= p <= 1.45 for p in orders)
    assert orders == sorted(orders)
    source = json.dumps({"family": "piecewise_linear", "knots": [list(k) for k in BIMODAL.knots]})
    code = cli.main(["asymptotics", "--config", "configs/gaussian_asymptotics.json",
                     "--set", f"source={source}", "--output-dir", str(tmp_path)])
    assert code == 1
    assert "weak-unimodality" in capsys.readouterr().err
