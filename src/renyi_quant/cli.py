"""Command line front end.

Subcommands mirror the experiment runners plus two sweep-free utilities:
`predict` prints the closed-form limits for a config, and `lemma-check` runs
the split-bound and point-density property suites. Exit codes: 0 on pass,
2 on a tolerance failure, 1 on configuration or hypothesis errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .compander import optimal_point_density
from .errors import DomainError, RenyiQuantError
from .experiments import EXPERIMENTS, RUNNERS, ExperimentConfig, read_config
from . import theory

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TOLERANCE = 2


# built on the first call, not at import; argparse copies the `--set` default
# list before appending, so one parser serves every call
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renyi-quant",
        description=(
            "Construct companding scalar quantizers under a Renyi entropy "
            "constraint, sweep rates, and compare against the closed-form "
            "high-rate limits."
        ),
        epilog=(
            "Config schema (JSON object): name, source {family, ...}, alpha, r, "
            "mismatch_source, moment_slack, interval [lo, hi], n_grid, "
            "refine_codepoints, sanity_points, tolerances {key: value}. "
            "Density families: uniform {a, b}, gaussian {mean, sigma}, "
            "laplacian {mean, scale}, exponential {rate, shift}, "
            "piecewise_linear {knots}, restricted {base, interval}, "
            "tilted {base, beta}, point_density_of {base, alpha, r}. "
            "Defaults: moment_slack 1.0, n_grid 4..4096 in powers of two, "
            "refine_codepoints false. Each experiment refuses a tolerance key it "
            "does not read (README, Config schema, lists them). A mismatch run "
            "reads shift_abs, when set, in place of shift_rel."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config field (dotted paths reach nested objects; "
            "values parse as JSON, falling back to strings)",
        )

    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} rate sweep")
        add_config_args(p)
        p.add_argument("--output-dir", default=".", help="directory for CSV and summary files")

    p = sub.add_parser("predict", help="print closed-form limits without sweeping")
    add_config_args(p)

    p = sub.add_parser("lemma-check", help="run the split-bound and point-density suites")
    p.add_argument("--seed", type=int, default=20230915, help="RNG seed for the random cases")
    p.add_argument("--trials", type=int, default=100, help="random cases per property")
    return parser


def _apply_override(raw: dict, spec: str) -> None:
    key, sep, value = spec.partition("=")
    if not sep:
        raise RenyiQuantError(f"override {spec!r} is not of the form KEY=VALUE")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    node = raw
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise RenyiQuantError(f"override path {key!r} crosses a non-object field")
    node[parts[-1]] = parsed


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    raw = read_config(args.config)
    for spec in args.overrides:
        _apply_override(raw, spec)
    return ExperimentConfig.from_dict(raw)


def _run_experiment(command: str, args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = RUNNERS[command](cfg)
    csv_path = out_dir / f"{cfg.name}.csv"
    summary_path = out_dir / f"{cfg.name}_summary.json"
    report.write_csv(csv_path)
    report.write_summary(summary_path)
    status = "PASS" if report.passed else "FAIL"
    print(f"{command} {cfg.name}: {status}")
    for key, ok in report.flags.items():
        print(f"  [{'ok' if ok else 'FAIL'}] {key}")
    print(f"  wrote {csv_path} and {summary_path}")
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def _cmd_predict(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    d, alpha, r = cfg.source_density(), cfg.alpha, cfg.r
    params = theory.rate_params(alpha, r)
    values = {"alpha": params.alpha, "r": params.r, "beta1": params.beta1,
              "beta2": params.beta2, "C_r": params.c_r,
              "Q": theory.quantization_coefficient(d, alpha, r)}
    if cfg.interval is not None:
        interval = cfg.interval
        values["interval_mass"] = d.interval_mass(interval)
        values["entropy_density_limit"] = theory.entropy_density_limit(d, interval, alpha, r)
        values["limit_distortion_measure"] = theory.limit_distortion_measure(d, interval, alpha, r)
        values["tilted_mass"] = theory.tilted_measure(d, alpha, r).interval_mass(interval)
        values["Q_conditional"] = theory.quantization_coefficient(d.restrict(interval), alpha, r)
    if cfg.mismatch_source is not None:
        f = cfg.mismatch_density()
        values["mismatch_entropy_shift"] = theory.mismatch_entropy_shift(d, f, alpha, r)
        values["mismatch_distortion_limit"] = theory.mismatch_distortion_limit(d, f, alpha, r)
        values["mismatch_loss"] = theory.mismatch_loss(d, f, alpha, r)
        values["Q_mismatch_source"] = theory.quantization_coefficient(f, alpha, r)
        values["kl_divergence"] = theory.renyi_divergence(f, d, 1.0)
        if alpha > 0.0:
            values["renyi_divergence"] = theory.renyi_divergence(f, d, alpha)
        tilt = 1.0 / (1.0 + r)
        values["fixed_rate_divergence"] = theory.renyi_divergence(
            f.tilt(tilt), d.tilt(tilt), 1.0 + r
        )
    # printed only once every value is computed, so an error prints no partial table
    for name, value in values.items():
        print(f"{name} = {value:.9g}")
    return EXIT_OK


def _cmd_lemma_check(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if not ok:
            failures += 1
        suffix = f" ({detail})" if detail else ""
        print(f"lemma-check {name}: {'PASS' if ok else 'FAIL'}{suffix}")

    # split-bound strict minimizer on random inputs
    worst_gap = math.inf
    ok = True
    for _ in range(args.trials):
        a = float(rng.uniform(0.05, 10.0))
        b = float(rng.uniform(0.05, 10.0))
        gamma = float(rng.uniform(0.1, 5.0))
        z = float(rng.uniform(1e-3, 1.0 - 1e-3))
        res = theory.split_bound(a, b, gamma, z)
        at_min = theory.split_bound(a, b, gamma, res.z0)
        if abs(at_min.f_value - res.f_min) > 1e-9 * res.f_min:
            ok = False
        if abs(z - res.z0) > 1e-6 and not res.f_value > res.f_min:
            ok = False
        worst_gap = min(worst_gap, res.f_value - res.f_min)
        symmetric = theory.split_bound(1.0, 1.0, 2.0, 0.5)
        if not (abs(symmetric.z0 - 0.5) < 1e-15 and abs(symmetric.f_min - 8.0) < 1e-12):
            ok = False
    report("split-bound-strict-minimizer", ok, f"{args.trials} random cases")

    # the optimal point density minimizes the companding functional
    from .density import Gaussian, Laplacian, PiecewiseLinear, Uniform

    sources = (Uniform(0.0, 1.0), Gaussian(0.0, 1.0), Laplacian(0.0, 1.0))
    settings = ((0.5, 2.0), (0.3, 1.5))
    ok = True
    detail = []
    for d in sources:
        for alpha, r in settings:
            q_coeff = theory.quantization_coefficient(d, alpha, r)
            h_opt = optimal_point_density(d, alpha, r)
            if abs(h_opt.power_integral(1.0) - 1.0) > 1e-9:
                ok = False
            at_opt = theory.compander_performance(d, h_opt, alpha, r)
            if abs(at_opt / q_coeff - 1.0) > 1e-8:
                ok = False
                detail.append(f"{type(d).__name__} optimal off by {at_opt / q_coeff - 1.0:.2e}")
            if isinstance(d, Uniform):
                # tilting a uniform is a no-op, so slope the density instead
                perturbed = PiecewiseLinear([(d.a, 0.5), (d.b, 1.5)])
            else:
                perturbed = d.tilt(1.0 / theory.rate_params(alpha, r).beta2 * 0.8)
            if not theory.compander_performance(d, perturbed, alpha, r) > q_coeff:
                ok = False
                detail.append(f"{type(d).__name__} perturbed not worse")
    report("point-density-minimizer", ok, "; ".join(detail) if detail else "3 sources x 2 settings")

    return EXIT_OK if failures == 0 else EXIT_TOLERANCE


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "predict":
            return _cmd_predict(args)
        if args.command == "lemma-check":
            return _cmd_lemma_check(args)
        return _run_experiment(args.command, args)
    except (RenyiQuantError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
