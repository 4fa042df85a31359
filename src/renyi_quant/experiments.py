"""Rate-sweep harness: reads a config and its density specs, builds compander
sequences, measures empirical entropy and distortion quantities, compares
them with the closed-form limits, and emits deterministic CSV + JSON reports.

The limit theorems only assert behavior as the rate grows, so convergence is
operationalized as a last-point tolerance plus a trend check: smooth
quantities (normalized distortion, sanity series) must not increase their
deviation over the final four grid points, while interval-sliced quantities
oscillate inside a shrinking envelope and are only required to end closer to
the limit than they started.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from .compander import build_companders, optimal_point_density, refine_codepoints
from .density import (
    Density,
    Exponential,
    Gaussian,
    Laplacian,
    PiecewiseLinear,
    Uniform,
    check_weak_unimodality,
)
from .errors import ConfigError, HypothesisError, InfiniteIntegralError, RenyiQuantError
from .intervals import Interval
from .quantizer import (
    CellTable,
    Quantizer,
    cell_tables,
    fsum_array,
    group_probabilities,
    power_sum,
    renyi_entropy_vec,
)
from . import quantizer, theory

DEFAULT_N_GRID = tuple(2**k for k in range(2, 13))
TREND_WINDOW = 4           # rate points over which deviations must not increase
TREND_FLOOR = 1e-9         # deviations below this count as converged noise
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)  # exp of at most this is finite

EXPERIMENTS = ("asymptotics", "entropy-density", "distortion-density", "mismatch", "sanity")

# each experiment's tolerance keys and their defaults; a config may set only the
# keys of the experiment it runs. shift_abs has no default: when set, it takes
# the place of shift_rel
TOLERANCES: dict[str, dict[str, float | None]] = {
    "asymptotics": {"ratio": 0.05},
    "entropy-density": {"ratio": 0.02, "normalization": 0.02, "restricted_distortion": 0.05},
    "distortion-density": {"share": 0.02, "coincidence": 0.05, "mg": 0.05},
    "mismatch": {"shift_abs": None, "shift_rel": 0.05, "distortion_rel": 0.05},
    "sanity": {"single_cell": 0.05, "restricted_entropy_min": 3.0},
}

# the fields each density family's spec takes besides its 'family'
_SPEC_FIELDS: dict[str, tuple[str, ...]] = {
    "uniform": ("a", "b"), "gaussian": ("mean", "sigma"), "normal": ("mean", "sigma"),
    "laplacian": ("mean", "scale"), "exponential": ("rate", "shift"),
    "piecewise_linear": ("knots",), "restricted": ("base", "interval"), "tilted": ("base", "beta"),
    "point_density_of": ("base", "alpha", "r"),
}
_SPEC_NON_NUMBERS = ("family", "base", "knots", "interval")  # the spec fields not one number


@dataclass(frozen=True)
class ExperimentConfig:
    source: dict
    alpha: float
    r: float
    name: str = "experiment"
    mismatch_source: dict | None = None
    moment_slack: float = 1.0
    interval: Interval | None = None
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    refine_codepoints: bool = False
    sanity_points: tuple[float, ...] | None = None
    tolerances: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigError(f"field 'alpha' must lie in [0, 1), got {self.alpha}")
        if self.r <= 1.0:
            raise ConfigError(f"field 'r' must exceed 1, got {self.r}")
        if self.moment_slack <= 0.0:
            raise ConfigError(f"field 'moment_slack' must be positive, got {self.moment_slack}")
        if len(self.n_grid) == 0 or any(n < 2 for n in self.n_grid):
            raise ConfigError("field 'n_grid' must list integers >= 2")
        if any(a >= b for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError("field 'n_grid' must be strictly increasing")

    def source_density(self) -> Density:
        return density_from_spec(self.source)

    def mismatch_density(self) -> Density:
        if self.mismatch_source is None:
            raise ConfigError("field 'mismatch_source' is required for mismatch runs")
        return density_from_spec(self.mismatch_source)

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config field {sorted(unknown)[0]!r}")
        for f in fields(cls):
            if f.default is MISSING and f.default_factory is MISSING and f.name not in obj:
                raise ConfigError(f"field '{f.name}' is required")
        interval, points = obj.get("interval"), obj.get("sanity_points")
        interval = None if interval is None else _interval("interval", interval)
        if points is not None and not isinstance(points, (list, tuple)):
            raise ConfigError(f"field 'sanity_points' must list numbers, got {points!r}")
        name = obj.get("name", "experiment")  # the output files' stem, in --output-dir
        if not isinstance(name, str) or not name or "\0" in name or Path(name).name != name:
            raise ConfigError(f"field 'name' must be a file name, got {name!r}")
        for key in ("source", "mismatch_source", "tolerances"):
            value = obj.get(key, {})
            if not isinstance(value, dict) and not (key == "mismatch_source" and value is None):
                raise ConfigError(f"field '{key}' must be a JSON object, got {value!r}")
        refine = obj.get("refine_codepoints", False)
        if not isinstance(refine, bool):
            raise ConfigError(f"field 'refine_codepoints' must be true or false, got {refine!r}")
        n_grid = obj.get("n_grid", DEFAULT_N_GRID)
        # JSON numbers with an integer value: 8 or 8.0, not 8.2, true or "8"
        if not isinstance(n_grid, (list, tuple)) or not all(
            type(n) is int or type(n) is float and n.is_integer() for n in n_grid
        ):
            raise ConfigError(f"field 'n_grid' must list integers, got {n_grid!r}")
        return cls(
            source=dict(obj["source"]),
            alpha=_number("alpha", obj["alpha"]),
            r=_number("r", obj["r"]),
            name=name,
            mismatch_source=None if obj.get("mismatch_source") is None
            else dict(obj["mismatch_source"]),
            moment_slack=_number("moment_slack", obj.get("moment_slack", 1.0)),
            interval=interval,
            n_grid=tuple(int(n) for n in n_grid),
            refine_codepoints=refine,
            sanity_points=None if points is None else tuple(
                _number("sanity_points", p) for p in points
            ),
            tolerances={
                str(k): _number(f"tolerances.{k}", v)
                for k, v in obj.get("tolerances", {}).items()
            },
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(read_config(path))


def _number(field_name: str, value) -> float:
    """A finite JSON number (an int or a float, never a bool) as a float.
    Python's json reads NaN and Infinity, and an int may pass the largest float:
    all are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {field_name!r} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # exact for an int; false for NaN
        raise ConfigError(f"field {field_name!r} must be a finite number, got {value!r}")
    return float(value)


def _interval(field_name: str, pair) -> Interval:
    """A JSON pair [lo, hi] of numbers, null for an infinite end, as an Interval."""
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ConfigError(f"field {field_name!r} must be a pair, got {pair!r}")
    lo, hi = (None if end is None else _number(field_name, end) for end in pair)
    lo, hi = -math.inf if lo is None else lo, math.inf if hi is None else hi
    if not lo < hi:
        raise ConfigError(f"field {field_name!r} requires lo < hi, got {pair!r}")
    return Interval(lo, hi)


def density_from_spec(spec: dict) -> Density:
    """Build a density from its JSON object form, its numbers read as a
    config's (`_number`) and a field its family does not take refused.

    Examples: {"family": "gaussian", "mean": 0.0, "sigma": 1.0},
    {"family": "uniform", "a": 0.0, "b": 1.0},
    {"family": "restricted", "base": {...}, "interval": [0.0, 0.5]}.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"density spec must be an object, got {type(spec).__name__}")
    try:
        family = str(spec["family"]).lower()
    except KeyError:
        raise ConfigError("density spec is missing the 'family' field") from None
    if family not in _SPEC_FIELDS:
        raise ConfigError(f"unknown density family '{spec['family']}'")
    unknown = sorted(set(spec) - {"family", *_SPEC_FIELDS[family]})
    if unknown:
        raise ConfigError(f"density family '{family}' takes no field {unknown[0]!r}")
    numbers = {k: _number(k, v) for k, v in spec.items() if k not in _SPEC_NON_NUMBERS}
    try:
        if family == "uniform":
            return Uniform(numbers["a"], numbers["b"])
        if family in ("gaussian", "normal"):
            return Gaussian(numbers.get("mean", 0.0), numbers["sigma"])
        if family == "laplacian":
            return Laplacian(numbers.get("mean", 0.0), numbers["scale"])
        if family == "exponential":
            return Exponential(numbers["rate"], numbers.get("shift", 0.0))
        if family == "piecewise_linear":
            return PiecewiseLinear([(_number("knots", x), _number("knots", y))
                                    for x, y in spec["knots"]])
        if family == "restricted":
            return density_from_spec(spec["base"]).restrict(_interval("interval", spec["interval"]))
        if family == "tilted":
            return density_from_spec(spec["base"]).tilt(numbers["beta"])
        base = density_from_spec(spec["base"])  # point_density_of
        return optimal_point_density(base, numbers["alpha"], numbers["r"])
    except KeyError as exc:
        raise ConfigError(
            f"density family '{family}' is missing required field {exc.args[0]!r}"
        ) from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid density spec for family '{family}': {exc}") from None


def read_config(path: str | Path) -> dict:
    """The JSON object of a config file, its name defaulting to the file stem."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    raw.setdefault("name", path.stem)
    return raw


@dataclass
class ConvergenceReport:
    experiment: str
    name: str
    columns: tuple[str, ...]
    rows: list[dict]
    limits: dict
    flags: dict
    diagnostics: dict
    passed: bool

    def __post_init__(self):
        for row in self.rows:
            ratio = row.get("ratio")
            if ratio is not None and not (math.isfinite(ratio) and ratio > 0.0):
                raise RenyiQuantError(
                    f"ratio to the theoretical limit must be finite and positive, "
                    f"got {ratio!r} at n={row.get('n')}"
                )

    def to_csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_fmt(row[c]) for c in self.columns))
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv_text())

    def summary_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "name": self.name,
            "limits": self.limits,
            "flags": self.flags,
            "diagnostics": self.diagnostics,
            "passed": self.passed,
        }

    def write_summary(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.summary_dict(), indent=2, sort_keys=True) + "\n"
        )


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def _deviations_nonincreasing(values: Sequence[float], target: float = 1.0) -> bool:
    """True when |value - target| is nonincreasing over the trailing window."""
    devs = [max(abs(v - target), TREND_FLOOR) for v in values]
    tail = devs[-TREND_WINDOW:]
    return all(b <= a * (1.0 + 1e-9) for a, b in zip(tail, tail[1:]))


def _deviation_shrinks(values: Sequence[float]) -> bool:
    """True when the final deviation from 1 is below the initial one.

    Interval-sliced quantities oscillate inside a shrinking envelope rather
    than decreasing monotonically, so only first-vs-last is compared.
    """
    first = max(abs(values[0] - 1.0), TREND_FLOOR)
    last = max(abs(values[-1] - 1.0), TREND_FLOOR)
    return last <= first * (1.0 + 1e-9)


def _values_increasing(values: Sequence[float]) -> bool:
    tail = values[-TREND_WINDOW:]
    return all(b >= a * (1.0 - 1e-9) for a, b in zip(tail, tail[1:]))


def _setup(cfg: ExperimentConfig, experiment: str) -> tuple[Density, Density | None, dict, dict]:
    """The source density, the mismatch density (mismatch runs only), the
    hypothesis checks (weak unimodality, the r + delta moment, the f/g bound)
    and the effective tolerances of one run."""
    defaults = TOLERANCES[experiment]
    unknown = sorted(set(cfg.tolerances) - set(defaults))
    if unknown:
        raise ConfigError(
            f"unknown tolerance key {unknown[0]!r} for {experiment} runs "
            f"(known: {', '.join(defaults)})"
        )
    if experiment != "asymptotics" and cfg.alpha <= 0.0:
        raise ConfigError(f"{experiment} runs need alpha strictly inside (0, 1)")
    d = cfg.source_density()
    check_weak_unimodality(d)
    checks: dict = {"weakly_unimodal": True}
    try:
        checks["moment_r_plus_delta"] = d.absolute_moment(cfg.r + cfg.moment_slack)
    except InfiniteIntegralError as exc:
        raise HypothesisError(f"moment condition fails at order "
                              f"{cfg.r + cfg.moment_slack}: {exc}") from None
    f = None
    if experiment == "mismatch":
        f = cfg.mismatch_density()
        checks["ratio_bound"] = theory.check_density_ratio_bound(f, d)
    return d, f, checks, {**defaults, **cfg.tolerances}


def _sweep(cfg: ExperimentConfig, design: Density, interval: Interval | None = None
           ) -> Iterator[tuple[int, Quantizer, CellTable]]:
    """Each rate point's n, the compander designed for `design` (refined if the
    config asks) and its cell table under `design`, with columns inside
    `interval` and its complement when one is given."""
    for group in _group_sweep(cfg, design, interval):
        yield from zip(*group)


def _group_sweep(cfg: ExperimentConfig, design: Density, interval: Interval | None = None,
                 evaluate: Density | None = None
                 ) -> Iterator[tuple[list[int], list[Quantizer], list[CellTable]]]:
    """_sweep by groups of rate points (`_groups`), each built once the one
    before it is done: its n, its companders from one `build_companders` call
    and their tables under `evaluate`, by default `design`, from one
    `cell_tables` call, the same as one by one."""
    h = optimal_point_density(design, cfg.alpha, cfg.r)
    evaluate = design if evaluate is None else evaluate
    regions = () if interval is None else ((interval,), interval.complement())
    for group in _groups(cfg.n_grid):
        qs = build_companders(h, group)
        if cfg.refine_codepoints:
            qs = [refine_codepoints(q, design, cfg.r) for q in qs]
        yield group, qs, cell_tables(qs, evaluate, cfg.r, regions)


def _groups(n_grid: Sequence[int]) -> list[list[int]]:
    """The grid in runs of consecutive n of at most 2 quantizer._BLOCK cells:
    about _BLOCK evaluated cells where the companders mirror under the
    evaluating source, else as many as the cell passes split into blocks."""
    groups: list[list[int]] = []
    for n in n_grid:
        if groups and sum(groups[-1]) + n <= 2 * quantizer._BLOCK:
            groups[-1].append(n)
        else:
            groups.append([n])
    return groups


def _theorem_interval(cfg: ExperimentConfig, d: Density) -> tuple[Interval, float]:
    """The configured interval and its probability, which must lie in (0, 1)."""
    if cfg.interval is None:
        raise ConfigError("field 'interval' is required for this experiment")
    if not cfg.interval.bounded:
        raise ConfigError("field 'interval' must be bounded for density experiments")
    mass = d.interval_mass(cfg.interval)
    if not 0.0 < mass < 1.0:
        raise HypothesisError(f"interval probability must lie strictly in (0,1), got {mass}")
    return cfg.interval, mass


def _rate_point(n: int, table: CellTable, alpha: float, r: float, limit: float,
                power: float | None = None) -> dict:
    """The columns every sweep starts with: the entropy and distortion of the
    table, the normalized distortion e^{rH} D and its ratio to the limit;
    `power` is the table's sum of p_i^alpha where the runner has it already."""
    entropy = renyi_entropy_vec(table.masses, alpha, power)
    dist = fsum_array(table.distortions)
    normalized = _normalized(r, entropy, dist)
    return {"n": n, "H_alpha": entropy, "D": dist, "eRH_D": normalized, "ratio": normalized / limit}


def _normalized(r: float, entropy: float, dist: float) -> float:
    """e^{rH} D; where e^{rH} alone passes the largest double, exp(rH + log D),
    which is inf where the product passes it too and 0 where D is 0."""
    try:
        return math.exp(r * entropy) * dist
    except OverflowError:
        log = r * entropy + math.log(dist) if dist > 0.0 else -math.inf
        return math.exp(log) if log <= _LOG_DOUBLE_MAX else math.inf


def _partition_gap(table: CellTable, inside_distortion: float, dist: float) -> float:
    """The partition identity gap |P(A) D_A + (1 - P(A)) D_Ac - D| of a table's
    interval A and its complement, for D_A and the total D."""
    inside, outside = table.regions
    return abs(inside.mass * inside_distortion + (1.0 - inside.mass) * outside.distortion() - dist)


def _report(cfg: ExperimentConfig, experiment: str, rows: list[dict], limits: dict,
            flags: dict, checks: dict, tolerances: dict, **diagnostics) -> ConvergenceReport:
    """A sweep's report: its CSV columns are the keys of its rows, in order,
    and it passes when every flag holds."""
    return ConvergenceReport(
        experiment, cfg.name, tuple(rows[0]), rows, limits, flags,
        {"hypothesis_checks": checks, "tolerances": tolerances, **diagnostics},
        all(flags.values()),
    )


# --- runners -----------------------------------------------------------------


def run_asymptotics(cfg: ExperimentConfig) -> ConvergenceReport:
    """Normalized distortion e^{rH} D against the quantization coefficient."""
    d, _, checks, tol = _setup(cfg, "asymptotics")
    q_coeff = theory.quantization_coefficient(d, cfg.alpha, cfg.r)
    params = theory.rate_params(cfg.alpha, cfg.r)
    rows = [_rate_point(n, table, cfg.alpha, cfg.r, q_coeff) for n, _, table in _sweep(cfg, d)]
    ratios = [row["ratio"] for row in rows]
    flags = {
        "final_ratio_within_tolerance": abs(ratios[-1] - 1.0) <= tol["ratio"],
        "deviation_nonincreasing": _deviations_nonincreasing(ratios),
    }
    return _report(
        cfg, "asymptotics", rows,
        limits={"Q": q_coeff, "beta1": params.beta1, "beta2": params.beta2,
                "C_r": params.c_r},
        flags=flags, checks=checks, tolerances=tol,
    )


def run_entropy_density(cfg: ExperimentConfig) -> ConvergenceReport:
    """Entropy contribution of an interval and of its complement."""
    d, _, checks, tol = _setup(cfg, "entropy-density")
    interval, mass_1 = _theorem_interval(cfg, d)
    alpha, r = cfg.alpha, cfg.r
    q_coeff = theory.quantization_coefficient(d, alpha, r)
    limit_1 = theory.entropy_density_limit(d, interval, alpha, r)
    mass_2 = 1.0 - mass_1
    tilted_mass = theory.tilted_measure(d, alpha, r).interval_mass(interval)
    limit_2 = (1.0 - tilted_mass) * mass_2 ** (-alpha)
    q_conditional = theory.quantization_coefficient(d.restrict(interval), alpha, r)

    rows = []
    for n, _, table in _sweep(cfg, d, interval):
        row = _rate_point(n, table, alpha, r, q_coeff)
        inside, outside = table.regions
        entropy_1, dist_1 = inside.entropy(alpha), inside.distortion()
        ratio_1 = math.exp((1.0 - alpha) * (entropy_1 - row["H_alpha"]))
        ratio_2 = math.exp((1.0 - alpha) * (outside.entropy(alpha) - row["H_alpha"]))
        restricted_nd = _normalized(r, entropy_1, dist_1)
        rows.append({
            **row,
            "entropy_density_ratio_A1": ratio_1,
            "entropy_density_ratio_A2": ratio_2,
            "normalization": ratio_1 * mass_1**alpha + ratio_2 * mass_2**alpha,
            "restricted_eRH_D": restricted_nd,
            "restricted_ratio": restricted_nd / q_conditional,
            "partition_identity_gap": _partition_gap(table, dist_1, row["D"]),
        })
    last = rows[-1]
    flags = {
        "interval_ratio_within_tolerance": abs(
            last["entropy_density_ratio_A1"] - limit_1
        ) <= tol["ratio"],
        "partition_normalization_ok": abs(last["normalization"] - 1.0) <= tol["normalization"],
        "restricted_distortion_ok": abs(last["restricted_ratio"] - 1.0)
        <= tol["restricted_distortion"],
        "deviation_shrinks": _deviation_shrinks(
            [row["entropy_density_ratio_A1"] / limit_1 for row in rows]
        ),
    }
    return _report(
        cfg, "entropy-density", rows,
        limits={
            "Q": q_coeff,
            "entropy_density_limit_A1": limit_1,
            "entropy_density_limit_A2": limit_2,
            "interval_mass": mass_1,
            "tilted_mass": tilted_mass,
            "Q_conditional": q_conditional,
        },
        flags=flags, checks=checks, tolerances=tol,
        max_partition_identity_gap=max(row["partition_identity_gap"] for row in rows),
    )


def run_distortion_density(cfg: ExperimentConfig) -> ConvergenceReport:
    """Distortion contribution of an interval and the coincidence identity."""
    d, _, checks, tol = _setup(cfg, "distortion-density")
    interval, mass_1 = _theorem_interval(cfg, d)
    alpha, r = cfg.alpha, cfg.r
    q_coeff = theory.quantization_coefficient(d, alpha, r)
    tilted_mass = theory.tilted_measure(d, alpha, r).interval_mass(interval)
    mg_limit = theory.limit_distortion_measure(d, interval, alpha, r)

    rows = []
    for n, _, table in _sweep(cfg, d, interval):
        total_power = power_sum(table.masses, alpha)
        row = _rate_point(n, table, alpha, r, q_coeff, total_power)
        inside = table.regions[0]
        dist_in = fsum_array(inside.distortions)
        share = dist_in / row["D"]
        power_share = power_sum(inside.masses, alpha) / total_power
        mg_n = _normalized(r, row["H_alpha"], dist_in)
        rows.append({
            **row,
            "distortion_share": share,
            "power_sum_share": power_share,
            "coincidence_ratio": share / power_share,
            "Mg_n": mg_n,
            "Mg_ratio": mg_n / mg_limit,
            "partition_identity_gap": _partition_gap(table, dist_in / inside.mass, row["D"]),
        })
    last = rows[-1]
    flags = {
        "share_within_tolerance": abs(last["distortion_share"] - tilted_mass) <= tol["share"],
        "coincidence_within_tolerance": abs(last["coincidence_ratio"] - 1.0)
        <= tol["coincidence"],
        "limit_measure_within_tolerance": abs(last["Mg_ratio"] - 1.0) <= tol["mg"],
        "deviation_shrinks": _deviation_shrinks(
            [row["distortion_share"] / tilted_mass for row in rows]
        ),
    }
    return _report(
        cfg, "distortion-density", rows,
        limits={
            "Q": q_coeff,
            "tilted_mass": tilted_mass,
            "Mg_limit": mg_limit,
            "interval_mass": mass_1,
        },
        flags=flags, checks=checks, tolerances=tol,
        max_partition_identity_gap=max(row["partition_identity_gap"] for row in rows),
    )


def run_mismatch(cfg: ExperimentConfig) -> ConvergenceReport:
    """Companders designed for the source density, evaluated under another."""
    g, f, checks, tol = _setup(cfg, "mismatch")
    alpha, r = cfg.alpha, cfg.r
    shift_limit = theory.mismatch_entropy_shift(g, f, alpha, r)
    dist_limit = theory.mismatch_distortion_limit(g, f, alpha, r)
    loss_limit = theory.mismatch_loss(g, f, alpha, r)
    q_f = theory.quantization_coefficient(f, alpha, r)
    q_g = theory.quantization_coefficient(g, alpha, r)

    rows = []
    for ns, qs, tables in _group_sweep(cfg, g, evaluate=f):  # and a mass pass under g
        for n, table, masses in zip(ns, tables, group_probabilities(qs, g)):
            h_mu = renyi_entropy_vec(masses, alpha)
            row = _rate_point(n, table, alpha, r, dist_limit)
            shift = math.exp((1.0 - alpha) * (row["H_alpha"] - h_mu))
            rows.append({
                **row,
                "H_mu": h_mu,
                "mismatch_entropy_shift_empirical": shift,
                "shift_ratio": shift / shift_limit,
                "loss_empirical": row["eRH_D"] / q_f,
                "loss_ratio": (row["eRH_D"] / q_f) / loss_limit,
            })
    last = rows[-1]
    if tol["shift_abs"] is None:
        del tol["shift_abs"]
        shift_ok = abs(last["shift_ratio"] - 1.0) <= tol["shift_rel"]
    else:
        del tol["shift_rel"]
        shift_ok = abs(last["mismatch_entropy_shift_empirical"] - shift_limit) <= tol["shift_abs"]
    flags = {
        "shift_within_tolerance": shift_ok,
        "distortion_within_tolerance": abs(last["ratio"] - 1.0) <= tol["distortion_rel"],
        "deviation_shrinks": _deviation_shrinks(
            [row["ratio"] for row in rows]
        ),
    }
    return _report(
        cfg, "mismatch", rows,
        limits={
            "mismatch_entropy_shift": shift_limit,
            "mismatch_distortion_limit": dist_limit,
            "mismatch_loss": loss_limit,
            "Q_mismatch_source": q_f,
            "Q_source": q_g,
        },
        flags=flags, checks=checks, tolerances=tol,
    )


def run_sanity(cfg: ExperimentConfig) -> ConvergenceReport:
    """Vanishing cell probabilities and diverging restricted entropies."""
    d, _, checks, tol = _setup(cfg, "sanity")
    alpha, r = cfg.alpha, cfg.r
    if cfg.interval is not None:
        interval, _ = _theorem_interval(cfg, d)
    else:
        interval = Interval(d.quantile(0.25), d.quantile(0.75))
    points = cfg.sanity_points if cfg.sanity_points is not None else (d.quantile(0.5), d.mode())
    q_coeff = theory.quantization_coefficient(d, alpha, r)
    point_cols = tuple(f"single_cell_ratio_p{i}" for i in range(len(points)))

    rows = []
    for n, q, table in _sweep(cfg, d, interval):
        total_power = power_sum(table.masses, alpha)
        row = _rate_point(n, table, alpha, r, q_coeff, total_power)
        inside, outside = table.regions
        row["max_cell_probability"] = float(table.masses.max())
        row["H_restricted_A1"] = inside.entropy(alpha)
        row["H_restricted_A2"] = outside.entropy(alpha)
        for col, p in zip(point_cols, points):
            mass_p = float(table.masses[q.cell_index(p)])
            row[col] = (mass_p**alpha / total_power) if mass_p > 0.0 else 0.0
        rows.append(row)
    flags = {
        "max_cell_probability_decreasing": _deviations_nonincreasing(
            [row["max_cell_probability"] for row in rows], target=0.0
        ),
        "restricted_entropies_diverging": (
            _values_increasing([row["H_restricted_A1"] for row in rows])
            and _values_increasing([row["H_restricted_A2"] for row in rows])
            and rows[-1]["H_restricted_A1"] > tol["restricted_entropy_min"]
            and rows[-1]["H_restricted_A2"] > tol["restricted_entropy_min"]
        ),
    }
    for col in point_cols:
        series = [row[col] for row in rows]
        flags[f"{col}_vanishing"] = bool(
            _deviations_nonincreasing(series, target=0.0) and series[-1] < tol["single_cell"]
        )
    return _report(
        cfg, "sanity", rows,
        limits={"Q": q_coeff, "interval": interval.to_json(), "points": list(points)},
        flags=flags, checks=checks, tolerances=tol,
    )


RUNNERS: dict[str, Callable[[ExperimentConfig], ConvergenceReport]] = {
    "asymptotics": run_asymptotics,
    "entropy-density": run_entropy_density,
    "distortion-density": run_distortion_density,
    "mismatch": run_mismatch,
    "sanity": run_sanity,
}
