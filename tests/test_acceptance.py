"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
lines. Every tolerance is fixed here; nothing is calibrated at run time.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from cfqmc.bench import CampaignConfig, emit_csv, run_campaign
from cfqmc.estimators import Integrand, cf_estimate, optimal_split, split_budget, worst_case_error
from cfqmc.genz import as_integrand, make_genz
from cfqmc.gp import (
    GPConfig,
    gp_predictive_mean_full,
    gp_predictive_mean_sor,
    run_prediction_study,
    synthetic_dataset,
)
from cfqmc.interpolate import control_functional, fit
from cfqmc.kernels import (
    KernelSpec,
    kernel_cross,
    kernel_double_integral,
    kernel_integral,
    kernel_integral_1d,
    wendland_1d,
)
from cfqmc.points import PointSet, halton, midpoint_grid, random_shift
from cfqmc.seeding import rng_for


def report(number, name, detail=""):
    suffix = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): PASS{suffix}")


def point_set(coords):
    arr = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    return PointSet(arr)


def test_criterion_1_kernel_closed_forms():
    start = time.monotonic()
    worst_single = 0.0
    for k in (0, 1, 2):
        for rho in (0.5, 1.0):
            for y in np.linspace(0.0, 1.0, 101):
                closed = kernel_integral_1d(k, rho, y)
                breaks = sorted({max(0.0, y - rho), y, min(1.0, y + rho)})
                oracle, _ = quad(
                    lambda x: wendland_1d(k, abs(x - y) / rho),
                    0.0, 1.0, points=breaks, limit=200, epsabs=1e-13, epsrel=1e-13,
                )
                worst_single = max(worst_single, abs(closed - oracle))
    assert worst_single <= 1e-10

    worst_double = 0.0
    for k in (0, 1, 2):
        for rho in (0.5, 1.0):
            closed = kernel_double_integral(KernelSpec(k, 1, rho))
            oracle, _ = quad(
                lambda y: kernel_integral_1d(k, rho, y),
                0.0, 1.0, points=[rho, 1.0 - rho], limit=200, epsabs=1e-13, epsrel=1e-13,
            )
            worst_double = max(worst_double, abs(closed - oracle))
    assert worst_double <= 1e-10

    def radial_op(phi, r):
        val, _ = quad(lambda t: t * phi(t), r, 1.0, limit=200, epsabs=1e-13, epsrel=1e-13)
        return val

    base1 = lambda t: max(0.0, 1.0 - t) ** 2
    norm1 = radial_op(base1, 0.0)
    base2 = lambda t: max(0.0, 1.0 - t) ** 3
    inner2 = lambda r: radial_op(base2, r)
    norm2 = radial_op(inner2, 0.0)
    worst_recursion = 0.0
    for r in np.linspace(0.0, 0.99, 100):
        worst_recursion = max(worst_recursion, abs(wendland_1d(1, r) - radial_op(base1, r) / norm1))
        worst_recursion = max(worst_recursion, abs(wendland_1d(2, r) - radial_op(inner2, r) / norm2))
    assert worst_recursion <= 1e-8

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(
        1, "kernel closed forms",
        f"1d integral {worst_single:.2e}, double {worst_double:.2e}, "
        f"recursion {worst_recursion:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_interpolation_exactness(surrogate_quadrature):
    start = time.monotonic()
    worst_rel = 0.0
    for d, m in ((1, 256), (2, 16), (3, 6)):
        nodes = midpoint_grid(m, d)
        rng = np.random.default_rng(d)
        freq = rng.uniform(1.0, 4.0, size=d)
        values = np.sin(nodes.points @ freq) + 0.5 * nodes.points[:, 0] ** 2
        interp = fit(KernelSpec(1, d), nodes, values[:, None])
        rel = interp.residual_norm / (1.0 + np.max(np.abs(values)))
        worst_rel = max(worst_rel, rel)
    assert worst_rel <= 1e-8

    nodes1 = midpoint_grid(12, 1)
    vals1 = np.exp(-3.0 * (nodes1.points[:, 0] - 0.4) ** 2)
    interp1 = fit(KernelSpec(1, 1), nodes1, vals1[:, None])
    err1 = abs(interp1.exact_integral[0] - surrogate_quadrature(interp1))
    assert err1 <= 1e-8

    nodes2 = midpoint_grid(5, 2)
    vals2 = np.sin(2.0 * nodes2.points[:, 0]) * (1.0 + nodes2.points[:, 1])
    interp2 = fit(KernelSpec(1, 2), nodes2, vals2[:, None])
    err2 = abs(interp2.exact_integral[0] - surrogate_quadrature(interp2))
    assert err2 <= 1e-8

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(
        2, "interpolation exactness",
        f"node residual {worst_rel:.2e}, integral errors {err1:.2e}/{err2:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_worst_case_error():
    start = time.monotonic()
    single = worst_case_error(KernelSpec(0, 1), point_set([[0.5]]))
    assert abs(single - math.sqrt(1.0 / 6.0)) <= 1e-12

    rng = np.random.default_rng(314)
    n_samples = 1_000_000
    for trial in range(5):
        d = int(rng.integers(1, 3))
        spec = KernelSpec(int(rng.integers(0, 3)), d)
        pts = point_set(rng.random((int(rng.integers(4, 24)), d)))
        x = rng.random((n_samples, d))
        y = rng.random((n_samples, d))
        pair = np.ones(n_samples)
        for i in range(d):
            pair *= wendland_1d(spec.k, np.abs(x[:, i] - y[:, i]))
        point_term = kernel_cross(spec, y, pts.points).mean(axis=1)
        const = float(np.sum(kernel_cross(spec, pts.points, pts.points))) / len(pts) ** 2
        samples = pair - 2.0 * point_term + const
        mc = samples.mean()
        se = samples.std(ddof=1) / math.sqrt(n_samples)
        closed = worst_case_error(spec, pts) ** 2
        assert abs(closed - mc) <= 3 * se

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(3, "worst-case error", f"single-point exact, 5 discrepancy oracles, {elapsed:.1f}s")


def test_criterion_4_zero_mean_control_functional():
    rng = np.random.default_rng(27)
    pts = rng.random((1_000_000, 2))
    for trial in range(5):
        d = 1 if trial % 2 == 0 else 2
        m = 24 if d == 1 else 6
        nodes = midpoint_grid(m, d)
        freq = rng.uniform(1.0, 5.0, size=d)
        values = np.sin(nodes.points @ freq) + rng.normal() * nodes.points[:, 0]
        interp = fit(KernelSpec(trial % 3, d), nodes, values[:, None])
        psi = control_functional(interp, pts[None, :, :d])[0]
        se = psi.std(ddof=1) / math.sqrt(len(psi))
        assert abs(psi.mean()) <= 3 * se
    report(4, "zero-mean control functional", "5 surrogates within 3 MC standard errors")


def test_criterion_5_shift_unbiasedness():
    inst = make_genz("gaussian", 2, [3.0, 2.0], [0.35, 0.65])
    split = split_budget(256, 0.5, dim=2)
    assert split.n_eval == 2**7
    nodes = midpoint_grid(split.m_per_axis, 2)
    base = halton(split.n_eval, 2, scramble=True)
    spec = KernelSpec(1, 2)
    rng = rng_for(41, "acceptance-shift")
    errors = []
    for _ in range(200):
        f = as_integrand(inst)
        (est,), _ = cf_estimate([f], nodes, [random_shift(base, rng.random(2))], spec)
        errors.append(est - inst.exact)
    errors = np.asarray(errors)
    t_stat = errors.mean() / (errors.std(ddof=1) / math.sqrt(len(errors)))
    assert abs(t_stat) <= 3.0
    report(5, "shift unbiasedness", f"|t| = {abs(t_stat):.2f} over 200 shifts")


@pytest.fixture(scope="module")
def rate_tables():
    tables = {}
    for d in (1, 2):
        cfg = CampaignConfig(
            families=("gaussian", "oscillatory"),
            dims=(d,),
            methods=("QMC", "QMC+CF"),
            sequence="halton-rr-shift",
            k_values=(1,),
            n_grid=(16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
            replicates=10,
            seed_base=0,
        )
        tables[d] = run_campaign(cfg)
    return tables


def test_criterion_6a_rates_d1(rate_tables):
    table = rate_tables[1]
    details = []
    for family in ("gaussian", "oscillatory"):
        q = table.slope_for(family, 1, "QMC", 1).slope
        c = table.slope_for(family, 1, "QMC+CF", 1).slope
        assert -1.4 <= q <= -0.7, f"{family}: QMC slope {q:.3f} outside [-1.4, -0.7]"
        assert c <= q - 0.5, f"{family}: CF slope {c:.3f} not below QMC {q:.3f} - 0.5"
        details.append(f"{family} QMC {q:.2f} / CF {c:.2f}")
    report("6a", "rate reproduction d=1", "; ".join(details))


def test_d1_cf_rmse_keeps_falling(rate_tables):
    # A nugget that does not shrink with the spectrum floors the d = 1 CF
    # error: with 1e-10 * M the RMSE fell only 4.6-14.7x from N = 1024 to
    # 4096 over seed_base 0-5, against 45-123x with the spectral nugget.
    rmse = {
        row.n_total: row.rmse
        for row in rate_tables[1].rows
        if (row.family, row.method, row.k) == ("gaussian", "QMC+CF", 1)
    }
    ratio = rmse[1024] / rmse[4096]
    assert ratio >= 25.0, f"QMC+CF RMSE fell only {ratio:.1f}x from N = 1024 to 4096"


def test_criterion_6b_rates_d2(rate_tables):
    table = rate_tables[2]
    details = []
    for family in ("gaussian", "oscillatory"):
        q = table.slope_for(family, 2, "QMC", 1).slope
        c = table.slope_for(family, 2, "QMC+CF", 1).slope
        assert c <= q - 0.25, f"{family}: CF slope {c:.3f} not below QMC {q:.3f} - 0.25"
        details.append(f"{family} QMC {q:.2f} / CF {c:.2f}")
    report("6b", "rate reproduction d=2", "; ".join(details))


def test_criterion_7_discontinuous_no_gain():
    cfg = CampaignConfig(
        families=("discontinuous",),
        dims=(2,),
        methods=("QMC", "QMC+CF"),
        sequence="halton-rr-shift",
        k_values=(1,),
        n_grid=(16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
        replicates=10,
        seed_base=0,
    )
    table = run_campaign(cfg)
    q = table.slope_for("discontinuous", 2, "QMC", 1).slope
    c = table.slope_for("discontinuous", 2, "QMC+CF", 1).slope
    assert abs(c - q) <= 0.3
    report(7, "discontinuous family parity", f"QMC {q:.2f} vs CF {c:.2f} (gap {c - q:+.2f})")


def test_criterion_8_exactness_on_span_functions():
    rng = np.random.default_rng(9)
    worst = 0.0
    for d in (1, 2):
        spec = KernelSpec(1, d)
        nodes = midpoint_grid(16 if d == 1 else 4, d)
        beta = rng.normal(size=len(nodes))
        f = Integrand(d, lambda x, b=beta, s=spec, u=nodes: kernel_cross(s, x, u.points) @ b)
        truth = float(beta @ kernel_integral(spec, nodes.points))
        eval_pts = random_shift(halton(64, d, scramble=True), rng.random(d))
        (est,), _ = cf_estimate([f], nodes, [eval_pts], spec)
        rel = abs(est - truth) / (1.0 + abs(truth))
        worst = max(worst, rel)
    assert worst <= 1e-8
    report(8, "exactness on span functions", f"worst scaled error {worst:.2e}")


def test_criterion_9_optimal_split():
    assert optimal_split(2.0, 1.0) == 0.5
    alphas = np.linspace(1.05, 12.0, 40)
    fracs = [optimal_split(a, 1.0) for a in alphas]
    assert all(0.0 < f < 1.0 for f in fracs)
    assert all(a < b for a, b in zip(fracs, fracs[1:]))
    report(9, "optimal split", "c*(2,1) = 0.5 exactly; strictly increasing in alpha")


def test_criterion_10_gp_application():
    start = time.monotonic()
    data, test_z = synthetic_dataset(n=200, p=4, n_test=20, seed=0)
    cfg = GPConfig(test_points=test_z, n_subset=100)

    theta = (1.3, 1.1)
    full = gp_predictive_mean_full(data, cfg, theta, test_z[0])
    sor = gp_predictive_mean_sor(data, cfg, theta, test_z[0], np.arange(data.n))
    assert abs(sor - full) <= 1e-6 * abs(full)

    study = run_prediction_study(
        data, cfg, ("QMC", "QMC+CF", "MC+CF"), budget=2**8, seeds=list(range(10))
    )
    sd = {(t, m): s for t, m, s in study.spread}
    n_points = len(test_z)
    beats_qmc = sum(sd[(i, "QMC+CF")] <= sd[(i, "QMC")] for i in range(n_points))
    beats_mccf = sum(sd[(i, "QMC+CF")] <= sd[(i, "MC+CF")] for i in range(n_points))
    assert beats_qmc >= 0.8 * n_points
    assert beats_mccf >= 0.8 * n_points

    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    report(
        10, "GP application",
        f"CF sd wins {beats_qmc}/{n_points} vs QMC, {beats_mccf}/{n_points} vs MC+CF; "
        f"SoR rel err {abs(sor - full) / abs(full):.2e}; {elapsed:.0f}s",
    )


def test_criterion_11_campaign_determinism(tmp_path):
    cfg = CampaignConfig(
        families=("gaussian", "discontinuous"),
        dims=(1, 2),
        methods=("QMC", "QMC+CF"),
        sequence="halton-rr-shift",
        k_values=(1,),
        n_grid=(16, 32, 64, 128, 256),
        replicates=3,
        seed_base=123,
    )
    paths = []
    for run in (1, 2):
        out = tmp_path / f"campaign_{run}.csv"
        emit_csv(run_campaign(cfg), out)
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    report(11, "campaign determinism", "two identical-config runs emit byte-identical CSV")
