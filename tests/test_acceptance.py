"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance below is fixed, nothing is calibrated at runtime.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from renyi_quant import (
    Gaussian,
    Laplacian,
    Uniform,
    build_compander,
    compander_performance,
    distortion,
    mismatch_loss,
    mismatch_loss_fixed_rate,
    mismatch_loss_variable_rate,
    optimal_point_density,
    quantization_coefficient,
    quantizer_entropy,
    renyi_divergence,
    renyi_entropy_vec,
    split_bound,
)
from renyi_quant.errors import HypothesisError
from renyi_quant.experiments import (
    ExperimentConfig,
    run_asymptotics,
    run_distortion_density,
    run_entropy_density,
    run_mismatch,
    run_sanity,
)
from renyi_quant.theory import check_density_ratio_bound

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# frozen oracle values (see test_theory.py for their derivations)
Q_GAUSS = 1.8776753129507462
KL_GAUSS_PAIR = 0.31814718055994531


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_uniform_exactness():
    start = time.monotonic()
    u = Uniform(0.0, 1.0)
    target = 1.0 / 12.0
    worst = 0.0
    for n in (2**k for k in range(1, 13)):
        q = build_compander(u, n)  # the optimal point density of a uniform is itself
        dist = distortion(q, u, 2.0)
        for alpha in (0.1, 0.5, 0.9):
            value = math.exp(2.0 * quantizer_entropy(q, u, alpha)) * dist
            worst = max(worst, abs(value - target))
    elapsed = time.monotonic() - start
    _report(
        "1 uniform-exactness",
        worst <= 1e-8 and elapsed < 5.0,
        f"max |e^rH D - 1/12| = {worst:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_2_gaussian_asymptotics():
    start = time.monotonic()
    cfg = ExperimentConfig.from_json(CONFIG_DIR / "gaussian_asymptotics.json")
    assert cfg.n_grid == tuple(2**k for k in range(4, 13))
    report = run_asymptotics(cfg)
    elapsed = time.monotonic() - start
    assert report.limits["Q"] == pytest.approx(Q_GAUSS, rel=1e-9)
    final_dev = abs(report.rows[-1]["ratio"] - 1.0)
    _report(
        "2 gaussian-asymptotics",
        report.passed and final_dev <= 0.05 and elapsed < 60.0,
        f"|ratio-1| = {final_dev:.2e} at n=4096, flags {report.flags}, "
        f"runtime {elapsed:.1f}s",
    )


def test_criterion_3_entropy_density():
    cfg = ExperimentConfig.from_json(CONFIG_DIR / "uniform_entropy_density.json")
    report = run_entropy_density(cfg)
    last = report.rows[-1]
    ratio_err = abs(last["entropy_density_ratio_A1"] - math.sqrt(0.5))
    norm = last["normalization"]
    restricted_dev = abs(last["restricted_ratio"] - 1.0)
    ok = (
        report.passed
        and ratio_err <= 0.02
        and 0.98 <= norm <= 1.02
        and restricted_dev <= 0.05
    )
    _report(
        "3 entropy-density",
        ok,
        f"|ratio - sqrt(1/2)| = {ratio_err:.2e}, normalization = {norm:.6f}, "
        f"restricted deviation = {restricted_dev:.2e}",
    )


def test_criterion_4_distortion_density():
    cfg = ExperimentConfig.from_json(CONFIG_DIR / "gaussian_distortion_density.json")
    report = run_distortion_density(cfg)
    last = report.rows[-1]
    share_err = abs(last["distortion_share"] - report.limits["tilted_mass"])
    coincidence_dev = abs(last["coincidence_ratio"] - 1.0)
    mg_dev = abs(last["Mg_ratio"] - 1.0)
    ok = report.passed and share_err <= 0.02 and coincidence_dev <= 0.05 and mg_dev <= 0.05
    _report(
        "4 distortion-density",
        ok,
        f"|share - tilted mass| = {share_err:.2e}, |coincidence - 1| = "
        f"{coincidence_dev:.2e}, |Mg ratio - 1| = {mg_dev:.2e}",
    )


def test_criterion_5_mismatch():
    cfg = ExperimentConfig.from_json(CONFIG_DIR / "mismatch_uniform.json")
    report = run_mismatch(cfg)
    last = report.rows[-1]
    shift_err = abs(last["mismatch_entropy_shift_empirical"] - math.sqrt(2.0) / 2.0)
    dist_dev = abs(last["eRH_D"] / (1.0 / 48.0) - 1.0)
    ok_uniform = report.passed and shift_err <= 0.02 and dist_dev <= 0.05

    cfg = ExperimentConfig.from_json(CONFIG_DIR / "mismatch_gaussian.json")
    report_g = run_mismatch(cfg)
    last_g = report_g.rows[-1]
    shift_dev_g = abs(last_g["shift_ratio"] - 1.0)
    dist_dev_g = abs(last_g["ratio"] - 1.0)
    ok_gauss = report_g.passed and shift_dev_g <= 0.10 and dist_dev_g <= 0.10
    _report(
        "5 mismatch",
        ok_uniform and ok_gauss,
        f"uniform: |shift - sqrt(2)/2| = {shift_err:.2e}, distortion dev = "
        f"{dist_dev:.2e}; gaussian: shift dev = {shift_dev_g:.2e}, "
        f"distortion dev = {dist_dev_g:.2e}",
    )


def test_criterion_6_property_suites():
    failures = []

    # Renyi entropy nonincreasing in alpha on 100 random probability vectors
    rng = np.random.default_rng(101)
    alphas = np.linspace(0.0, 1.0, 11)
    for _ in range(100):
        p = rng.dirichlet(np.ones(int(rng.integers(2, 16))))
        vals = [renyi_entropy_vec(p, float(a)) for a in alphas]
        if not all(b <= a + 1e-9 for a, b in zip(vals, vals[1:])):
            failures.append("entropy-monotonicity")
            break

    # divergence nonnegative, zero only for identical densities
    pool = [Uniform(0.0, 1.0), Uniform(0.0, 2.0), Gaussian(0.0, 1.0), Gaussian(0.0, 2.0),
            Laplacian(0.0, 1.0)]
    for u in pool:
        for v in pool:
            val = renyi_divergence(u, v, 0.5)
            if val < -1e-9:
                failures.append("divergence-negative")
            if u is v and abs(val) > 1e-9:
                failures.append("self-divergence-nonzero")
            if u is not v and math.isfinite(val) and val <= 1e-9:
                failures.append("distinct-divergence-zero")

    # Q scaling within 1e-6
    for d in (Uniform(0.0, 1.0), Gaussian(0.0, 1.0), Laplacian(0.0, 1.0)):
        q1 = quantization_coefficient(d, 0.5, 2.0)
        for s in (0.5, 2.0, 5.0):
            q2 = quantization_coefficient(type(d)(0.0, s), 0.5, 2.0)  # d scaled by s
            if abs(q2 / (s**2 * q1) - 1.0) > 1e-6:
                failures.append(f"Q-scaling-{s}")

    # split-bound strict minimizer on 100 random (A, B, gamma, z)
    rng = np.random.default_rng(202)
    for _ in range(100):
        a, b = rng.uniform(0.01, 5.0, size=2)
        gamma = float(rng.uniform(0.1, 4.0))
        z0 = split_bound(a, b, gamma, 0.5).z0
        z = float(rng.uniform(1e-6, 1.0 - 1e-6))
        if abs(z - z0) < 1e-9:
            continue
        res = split_bound(float(a), float(b), gamma, z)
        if not res.f_value > res.f_min:
            failures.append("split-bound-strict")
            break

    # compander performance minimized exactly at the optimal point density
    g = Gaussian(0.0, 1.0)
    q_coeff = quantization_coefficient(g, 0.5, 2.0)
    h_opt = optimal_point_density(g, 0.5, 2.0)
    if abs(compander_performance(g, h_opt, 0.5, 2.0) / q_coeff - 1.0) > 1e-8:
        failures.append("performance-at-optimum")
    for h in (Gaussian(0.0, 1.8), Gaussian(0.0, 4.0), Laplacian(0.0, 2.0)):
        if not compander_performance(g, h, 0.5, 2.0) > q_coeff:
            failures.append("performance-not-above")

    # mismatch loss at least 1 on a 3x3 grid of valid pairs
    grid = {
        Gaussian(0.0, 2.0): [Gaussian(0.0, 1.0), Gaussian(0.3, 1.5), Uniform(-1.0, 1.0)],
        Laplacian(0.0, 2.0): [Laplacian(0.0, 1.0), Gaussian(0.0, 1.0), Uniform(-1.0, 1.0)],
        Uniform(-2.0, 2.0): [Uniform(-1.0, 1.0), Uniform(-2.0, 2.0), Uniform(0.0, 1.5)],
    }
    for gg, fs in grid.items():
        for ff in fs:
            try:
                check_density_ratio_bound(ff, gg)
            except HypothesisError:
                failures.append("grid-pair-invalid")
            if mismatch_loss(gg, ff, 0.5, 2.0) < 1.0 - 1e-9:
                failures.append("loss-below-one")

    # endpoint consistency of the loss formulas
    gg, ff = Gaussian(0.0, 2.0), Gaussian(0.0, 1.0)
    generic0 = mismatch_loss(gg, ff, 0.0, 2.0)
    dedicated0 = mismatch_loss_fixed_rate(gg, ff, 2.0)
    if abs(generic0 / dedicated0 - 1.0) > 1e-8:
        failures.append("alpha0-endpoint")
    near_one = mismatch_loss(gg, ff, 1.0 - 1e-4, 2.0)
    target = math.exp(2.0 * KL_GAUSS_PAIR)
    if abs(near_one - target) > 1e-2:
        failures.append("alpha1-endpoint")
    if abs(mismatch_loss_variable_rate(gg, ff, 2.0) - target) > 1e-8:
        failures.append("alpha1-dedicated")

    _report(
        "6 property-suites",
        not failures,
        "all property checks passed" if not failures else f"failed: {sorted(set(failures))}",
    )


def test_criterion_7_sanity_lemmas():
    details = []
    ok = True
    for name in ("sanity_gaussian.json", "sanity_laplacian.json"):
        cfg = ExperimentConfig.from_json(CONFIG_DIR / name)
        report = run_sanity(cfg)
        last = report.rows[-1]
        ok = ok and report.passed
        ok = ok and last["H_restricted_A1"] > 3.0 and last["H_restricted_A2"] > 3.0
        details.append(
            f"{cfg.name}: flags {all(report.flags.values())}, "
            f"H_restricted = ({last['H_restricted_A1']:.2f}, {last['H_restricted_A2']:.2f})"
        )
    _report("7 sanity-lemmas", ok, "; ".join(details))
