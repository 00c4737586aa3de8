"""Acceptance suite: one test per exit criterion, one printed verdict line each.

Criteria 6 and 7 run the desk-scale replicate studies (20 replicates each)
and take a few minutes; everything else completes in seconds.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ndtr

import oracles
import tbd
from oracles import (
    LongParams,
    ObservedRecord,
    SurvivalParams,
    observed_dataset,
    patients,
    pc_draw,
    predict_s_mis,
    rmst_draw,
    rmst_integral,
    sace_draw,
    sim_draw,
    survival_prob,
)
from tbd.mcmc import Block, McmcConfig, ModelSpec, run_chains
from tbd.study import StudyConfig, bias_rows, coverage_rows, figure_rows, run_study


def _verdict(criterion: str, ok: bool, detail: str = "") -> bool:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    return ok


# --- criterion 1: exact simulator ground truths -------------------------------


def test_criterion_1_oracle_truths():
    ok = True
    details = []
    for name in ("no_effect", "no_effect_no_censoring"):
        table = tbd.simulate_science_table(tbd.get_scenario(name), seed=101)
        for t in table.visit_times:
            tr = tbd.true_estimands(table, t)
            good = tr.sace == 0.0 and tr.pc == 0.5 and tr.sim == 0.0 and tr.rmst == 0.0
            ok &= good
            if not good:
                details.append(f"{name}@{t}")
    table = tbd.simulate_science_table(tbd.get_scenario("beneficial"), seed=101)
    for t in table.visit_times:
        tr = tbd.true_estimands(table, t)
        good = abs(tr.sace - t) < 1e-9 and tr.pc == 1.0
        ok &= good
        if not good:
            details.append(f"beneficial@{t}")
    assert _verdict("criterion 1 (oracle truths exact)", ok, ";".join(details))


# --- criterion 2: composite-order semantics over 1e6 random cases -------------


def test_criterion_2_order_metric_partition():
    """The package's elementwise ``composite_metric`` against the scalar
    oracle, over 1e6 random cases and 36 boundary ones: it equals the
    oracle's metric, its sign is ``composite_order``, and it is finite
    exactly for the always-survivors of ``classify_stratum`` and for two
    deaths at one time; the strata partition the cases by survival under
    each arm."""
    rng = np.random.default_rng(2024)
    n = 1_000_000
    t0 = rng.uniform(0.01, 30.0, size=n)
    t1 = rng.uniform(0.01, 30.0, size=n)
    t = rng.uniform(0.01, 20.0, size=n)
    y0 = rng.normal(-5, 8, size=n)
    y1 = rng.normal(-5, 8, size=n)
    # and every boundary the draws miss: equal death times, a death at the
    # horizon, equal scores
    edges = itertools.product((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), (2.0,), (-1.0, 0.0), (-1.0, 0.0))
    t0, t1, t, y0, y1 = (np.concatenate([a, e]) for a, e in zip((t0, t1, t, y0, y1), zip(*edges)))
    metric = tbd.composite_metric(t0, t1, y0, y1, t)

    strata = {
        (True, True): oracles.Stratum.LL,
        (True, False): oracles.Stratum.LD,
        (False, True): oracles.Stratum.DL,
        (False, False): oracles.Stratum.DD,
    }
    violations = 0
    cases = zip(*(a.tolist() for a in (t0, t1, t, y0, y1, metric)))
    for a0, a1, h, v0, v1, m in cases:
        stratum = oracles.classify_stratum(a0, a1, h)
        if stratum is not strata[(a0 > h, a1 > h)]:
            violations += 1
        z1 = (oracles.CompositeOutcome(y=v1, t=h, d=0) if a1 > h
              else oracles.CompositeOutcome(y=None, t=min(a1, h), d=1))
        z0 = (oracles.CompositeOutcome(y=v0, t=h, d=0) if a0 > h
              else oracles.CompositeOutcome(y=None, t=min(a0, h), d=1))
        order = oracles.composite_order(z1, z0)
        if order > 0 and not m > 0:
            violations += 1
        elif order < 0 and not m < 0:
            violations += 1
        elif order == 0 and m != 0:
            violations += 1
        if m != oracles.composite_metric(z1, z0):
            violations += 1
        if math.isfinite(m) != (stratum is oracles.Stratum.LL or (stratum is oracles.Stratum.DD
                                                                 and a0 == a1)):
            violations += 1
    assert _verdict(
        "criterion 2 (order/metric/strata over 1e6 cases)",
        violations == 0,
        f"{violations} violations",
    )


# --- criterion 3: sampler conjugate oracles -----------------------------------


def test_criterion_3_sampler_oracles():
    cfg = McmcConfig(chains=4, samples=1000, seed=317)

    rng = np.random.default_rng(8)
    exposure = rng.uniform(0.5, 3.0, size=40)
    d = rng.poisson(0.8 * exposure)
    a0, b0 = 2.0, 1.0
    gp = ModelSpec(
        blocks=(Block("lam", 1, positive=True),),
        log_prior=lambda p: (a0 - 1) * np.log(p["lam"][:, 0]) - b0 * p["lam"][:, 0],
        log_likelihood=lambda p: d.sum() * np.log(p["lam"][:, 0]) - exposure.sum() * p["lam"][:, 0],
        initial=lambda r, c: {"lam": np.exp(r.normal(0, 1, size=(c, 1)))},
    )
    res = run_chains(gp, cfg, warmup=1000)
    lam = res.pooled("lam")[:, 0]
    post = stats.gamma(a=a0 + d.sum(), scale=1.0 / (b0 + exposure.sum()))
    ok = abs(lam.mean() - post.mean()) / post.mean() < 0.02
    ok &= abs(lam.std() - post.std()) / post.std() < 0.05

    y = np.random.default_rng(9).normal(1.3, 2.0, size=50)
    m0, s0, sigma = 0.0, 3.0, 2.0
    nn = ModelSpec(
        blocks=(Block("mu", 1),),
        log_prior=lambda p: -0.5 * ((p["mu"][:, 0] - m0) / s0) ** 2,
        log_likelihood=lambda p: -0.5 * ((y[None, :] - p["mu"]) ** 2).sum(axis=1) / sigma**2,
        initial=lambda r, c: {"mu": r.normal(0, 3, size=(c, 1))},
    )
    res_nn = run_chains(nn, cfg, warmup=1000)
    mu = res_nn.pooled("mu")[:, 0]
    prec = 1 / s0**2 + len(y) / sigma**2
    post_mean = (y.sum() / sigma**2) / prec
    post_sd = prec**-0.5
    ok &= abs(mu.mean() - post_mean) / abs(post_mean) < 0.02
    ok &= abs(mu.std() - post_sd) / post_sd < 0.05

    res2 = run_chains(gp, cfg, warmup=1000)
    ok &= np.array_equal(res.pooled("lam"), res2.pooled("lam"))
    assert _verdict("criterion 3 (conjugate oracles, bit-identical reruns)", bool(ok))


# --- criterion 4: closed forms vs adaptive quadrature --------------------------


def _one_draw_survival(grid, lambda0, lambda1, alpha0, alpha1):
    """A survival posterior holding the one given draw."""
    return tbd.SurvivalPosterior(
        grid=grid, lambda0=np.asarray(lambda0)[None], lambda1=np.asarray(lambda1)[None],
        alpha0=np.asarray(alpha0)[None], alpha1=np.asarray(alpha1)[None],
        diagnostics={}, converged=True,
    )


def test_criterion_4_closed_forms_vs_quadrature():
    """The scalar oracles and the shipped kernels (``s_mis_matrix``,
    ``rmst_matrix``) against quadrature. The kernels read one patient of arm
    1, whose unassigned arm 0 carries the parameters; arm 1 carries others,
    so reading the wrong arm shows. Every other patient has died at t and is
    read at the horizon 15, so at the death time."""
    grid = tbd.HazardGrid((0.0, 3.0, 6.0, 9.0, 12.0, 15.0))
    rng = np.random.default_rng(44)
    worst_s = 0.0
    worst_r = 0.0
    for trial in range(1000):
        lam = rng.uniform(1e-4, 0.4, size=5)
        if trial % 10 == 0:
            lam[rng.integers(5)] = 10.0 ** -rng.uniform(9, 16)  # hazard -> 0 limit
        alpha = rng.normal(0, 0.4)
        x = (rng.normal(),)
        t = rng.uniform(0.0, 15.0)
        p = SurvivalParams(
            grid=grid, lambda0=lam, lambda1=lam, alpha0=np.array([alpha]), alpha1=np.array([alpha])
        )
        post = _one_draw_survival(grid, lam, lam[::-1], [alpha], [-alpha])
        died = trial % 2
        patient = ObservedRecord(id=0, x=x, w=1, t_obs=t if died else 15.0, d_obs=died,
                                  y_obs={})
        data = observed_dataset((patient,), 15.0)
        scale = math.exp(alpha * x[0])
        cuts = list(grid.cutpoints)

        def hazard(u):
            return p.lambda0[grid.segment_of(max(u, 1e-12))] * scale

        cumhaz, _ = integrate.quad(hazard, 0.0, t, points=cuts, limit=200, epsabs=1e-12)
        s_kernel = post.s_mis_matrix(data, 15.0 if died else t, [0])[0, 0]
        for s in (survival_prob(p, x, 0, t), s_kernel):
            worst_s = max(worst_s, abs(s - math.exp(-cumhaz)))
        surv = lambda u: survival_prob(p, x, 0, u)
        quad, _ = integrate.quad(surv, 0.0, t, points=cuts, limit=200, epsabs=1e-12, epsrel=1e-12)
        for r in (rmst_integral(p, x, 0, t), post.rmst_matrix(data, t, [0])[0, 0]):
            worst_r = max(worst_r, abs(r - quad))
    ok = worst_s < 1e-8 and worst_r < 1e-8
    assert _verdict(
        "criterion 4 (closed forms and shipped kernels within 1e-8 of quadrature, 1e3 param sets)",
        ok,
        f"max survival err {worst_s:.2e}, max integral err {worst_r:.2e}",
    )


# --- criterion 5: brute-force estimator equivalence ----------------------------


def _fixture():
    def obs(id, w, t_obs, d_obs, y=None, x=0.0):
        return ObservedRecord(
            id=id, x=(x,), w=w, t_obs=t_obs, d_obs=d_obs,
            y_obs={} if y is None else {10.0: y},
        )

    data = observed_dataset(
        (
            obs(0, 1, 15.0, 0, y=-3.0, x=0.3),
            obs(1, 0, 15.0, 0, y=-6.0, x=-0.5),
            obs(2, 1, 7.0, 1, x=0.1),
            obs(3, 0, 4.0, 1, x=-1.2),
        ),
        15.0,
    )
    s = SurvivalParams(
        grid=tbd.HazardGrid((0.0, 5.0, 15.0)),
        lambda0=np.array([0.03, 0.08]),
        lambda1=np.array([0.05, 0.02]),
        alpha0=np.array([0.2]),
        alpha1=np.array([-0.1]),
    )
    l = LongParams(beta0=np.array([-5.0, -2.5]), beta1=np.array([[1.5], [0.8]]), sigma=1.3)
    return data, s, l


def test_criterion_5_brute_force_equivalence():
    """The scalar oracles and the shipped ``estimand_draws``, on a one-draw
    posterior of the same draw, against enumeration and quadrature."""
    data, s, l = _fixture()
    t = 10.0
    probs = [predict_s_mis(s, p, t) for p in patients(data)]

    num = den = pc_total = 0.0
    for config in itertools.product([True, False], repeat=4):
        weight = math.prod(pr if c else 1 - pr for pr, c in zip(probs, config))
        diffs = []
        win = 0.0
        for p, alive_cf in zip(patients(data), config):
            if p.alive_at(t):
                if alive_cf:
                    mu = l.mean(p.x, 1 - p.w)
                    diffs.append((2 * p.w - 1) * (p.y_obs[t] - mu))
                    win += float(ndtr((2 * p.w - 1) * (p.y_obs[t] - mu) / l.sigma))
                else:
                    win += 1.0 if p.w == 1 else 0.0
            else:
                win += (1.0 if p.w == 0 else 0.0) if alive_cf else (1.0 if p.w == 1 else 0.0)
        num += weight * sum(diffs)
        den += weight * len(diffs)
        pc_total += weight * win / 4

    rmst_total = 0.0
    for p in patients(data):
        integral, _ = integrate.quad(
            lambda u: survival_prob(s, p.x, 1 - p.w, u), 0, t,
            points=[5.0], limit=200, epsabs=1e-12, epsrel=1e-12,
        )
        rmst_total += (2 * p.w - 1) * (min(p.t_obs, t) - integral)

    atoms = []
    for p, prob in zip(patients(data), probs):
        sign = 2 * p.w - 1
        if p.alive_at(t):
            mu = l.mean(p.x, 1 - p.w)
            atoms.append((sign * (p.y_obs[t] - mu), prob))
            atoms.append((sign * math.inf, 1 - prob))
        else:
            atoms.append((-sign * math.inf, prob))
            atoms.append((sign * math.inf, 1 - prob))
    atoms.sort(key=lambda a: a[0])
    acc = 0.0
    expected_sim = None
    for idx, (v, m) in enumerate(atoms):
        acc += m
        if acc >= 2.0 - 1e-12:
            if abs(acc - 2.0) <= 1e-12 and idx + 1 < len(atoms):
                expected_sim = 0.5 * (v + atoms[idx + 1][0])
            else:
                expected_sim = v
            break

    expected = {"sace": (num / den, 1e-12), "pc": (pc_total, 1e-12),
                "rmst": (rmst_total / 4, 1e-9), "sim": (expected_sim, 1e-12)}
    scalar = {"sace": sace_draw(s, l, data, t), "pc": pc_draw(s, l, data, t),
              "rmst": rmst_draw(s, data, t), "sim": sim_draw(s, l, data, t)}
    lpost = tbd.LongitudinalPosterior(t=t, beta0=l.beta0[None], beta1=l.beta1[None],
                                      sigma=np.array([l.sigma]), diagnostics={}, converged=True)
    spost = _one_draw_survival(s.grid, s.lambda0, s.lambda1, s.alpha0, s.alpha1)
    shipped = {**tbd.estimand_draws(spost, lpost, data, t, 1).by_name(),
               "rmst": tbd.rmst_estimand_draws(spost, data, t, 1)}
    ok = True
    for name, (value, tol) in expected.items():
        ok &= abs(scalar[name] - value) < tol
        ok &= abs(shipped[name][0] - value) < tol
    assert _verdict("criterion 5 (4-patient enumeration oracle, scalar and shipped)", bool(ok))


# --- criteria 6 and 7: desk-scale replicate studies ----------------------------

REFERENCE_COVERAGE = {
    # reference coverage values for the censored no-effect scenario at t = 3, 6, 9
    "sace": {3.0: 67.0, 6.0: 67.0, 9.0: 80.0},
    "pc": {3.0: 65.0, 6.0: 61.0, 9.0: 80.0},
    "sim": {3.0: 65.0, 6.0: 61.0, 9.0: 80.0},
    "rmst": {3.0: 37.0, 6.0: 65.0, 9.0: 78.0},
}


@pytest.fixture(scope="module")
def no_effect_study(tmp_path_factory):
    cfg = StudyConfig(
        scenarios=(tbd.get_scenario("no_effect"),),
        replicates=20,
        k_draws=100,
        master_seed=20240901,
    )
    return run_study(cfg, tmp_path_factory.mktemp("accept_ne"), workers=1)


@pytest.fixture(scope="module")
def mixed_study(tmp_path_factory):
    cfg = StudyConfig(
        scenarios=(tbd.get_scenario("mixed"),),
        replicates=20,
        k_draws=100,
        master_seed=20240901,
    )
    return run_study(cfg, tmp_path_factory.mktemp("accept_mx"), workers=1)


def test_criterion_6_truths_and_bias(no_effect_study):
    ok = True
    for cell in no_effect_study.cells:
        for ct in cell.times:
            ok &= ct.truth.sace == 0.0 and ct.truth.pc == 0.5
            ok &= ct.truth.sim == 0.0 and ct.truth.rmst == 0.0
    straddle = True
    for row in bias_rows(no_effect_study):
        if row["estimand"] == "sace" and row["time"] in (3.0, 6.0, 9.0):
            straddle &= row["bias_lo"] < 0.0 < row["bias_hi"]
    ok &= straddle
    assert _verdict(
        "criterion 6a (study truths exact, SACE bias interval straddles 0)", bool(ok)
    )


def test_criterion_6_coverage_bands(no_effect_study):
    rows = {
        (r["estimand"], r["time"]): r
        for r in coverage_rows(no_effect_study)
        if r["time"] in (3.0, 6.0, 9.0)
    }
    failures = []
    lines = []
    for name, targets in REFERENCE_COVERAGE.items():
        for t, target in targets.items():
            row = rows[(name, t)]
            got = row["coverage_pct"]
            band = (target - 15.0, target + 15.0)
            inside = got is not None and band[0] <= got <= band[1]
            lines.append(f"{name}@{t}: {got:.0f}% vs {target:.0f}+/-15")
            if not inside:
                failures.append(lines[-1])
    ok = not failures
    assert _verdict(
        "criterion 6b (coverage within +/-15pp of reference values at t in {3,6,9})",
        ok,
        "; ".join(failures if failures else lines),
    )


def test_criterion_7_mixed_patterns(mixed_study):
    fig = {
        (r["estimand"], r["time"]): r for r in figure_rows(mixed_study)
    }
    times = [3.0, 6.0, 9.0, 12.0, 15.0]

    # the truth sequence carries the stated numeric endpoints (it exists for
    # every replicate whether or not the fits converged)
    truths_by_t = {t: [] for t in times}
    for cell in mixed_study.cells:
        for ct in cell.times:
            truths_by_t[ct.time].append(ct.truth.pc)
    pc_truths = [float(np.mean(truths_by_t[t])) for t in times]
    truth_pattern = (
        pc_truths[0] > 0.9
        and pc_truths[-1] < 0.2
        and all(a > b for a, b in zip(pc_truths, pc_truths[1:]))
    )

    # estimated medians: high early, low late (the estimator tracks the
    # reversal of the survival/longitudinal trade-off)
    pc_est = [fig[("pc", t)]["median"] for t in (3.0, 15.0)]
    est_pattern = pc_est[0] is not None and pc_est[0] > 0.5
    est_pattern &= pc_est[1] is not None and pc_est[1] < 0.5

    rmst_medians = [fig[("rmst", t)]["median"] for t in times]
    rmst_pattern = all(m is not None and m < 0 for m in rmst_medians) and all(
        a > b for a, b in zip(rmst_medians, rmst_medians[1:])
    )

    sim_undef = [
        fig[("sim", t)]["frac_undefined"]
        for t in (12.0, 15.0)
        if not math.isnan(fig[("sim", t)]["frac_undefined"])
    ]
    sim_pattern = bool(sim_undef) and all(f > 0.5 for f in sim_undef)

    ok = truth_pattern and est_pattern and rmst_pattern and sim_pattern
    assert _verdict(
        "criterion 7 (mixed-scenario qualitative patterns)",
        bool(ok),
        f"pc truths {['%.2f' % v for v in pc_truths]}, pc medians at 3/15 "
        f"{['%.2f' % v if v is not None else '-' for v in pc_est]}, "
        f"rmst medians {['%.2f' % v if v is not None else '-' for v in rmst_medians]}, "
        f"sim undef {['%.2f' % v for v in sim_undef]}",
    )


# --- criterion 8: survival-metric sanity ---------------------------------------


def test_criterion_8_metrics_sanity():
    def obs(id, t_obs, d_obs=1):
        return ObservedRecord(
            id=id, x=(0.0,), w=0, t_obs=t_obs, d_obs=d_obs, y_obs={},
        )

    pats = tuple(obs(i, t) for i, t in enumerate([2.0, 5.0, 9.0, 13.0]))
    data = observed_dataset(pats, 20.0)
    grid = np.array([1.0, 4.0, 8.0, 12.0])
    step = np.array([[1.0 if p.t_obs > g else 0.0 for g in grid] for p in pats])
    ok = tbd.ibs(step, data, grid) == 0.0
    ok &= abs(tbd.ibs(np.full((4, 4), 0.5), data, grid) - 0.25) < 1e-12

    rng = np.random.default_rng(88)
    times = rng.uniform(1, 14, size=10_000)
    big = observed_dataset(tuple(obs(i, t) for i, t in enumerate(times)), 20.0)
    ok &= abs(tbd.cdauc(-times, big, np.array([3.0, 6.0, 9.0])) - 1.0) < 1e-12
    random_auc = tbd.cdauc(rng.normal(size=10_000), big, np.array([3.0, 6.0, 9.0]))
    ok &= abs(random_auc - 0.5) < 0.02
    assert _verdict(
        "criterion 8 (IBS oracle/constant, cdAUC perfect/random)",
        bool(ok),
        f"random cdAUC {random_auc:.3f}",
    )


# --- criterion 9: the trial application is out of scope ------------------------


def test_criterion_9_application_out_of_scope():
    # The motivating trial's data are not public; no module here loads or
    # expects them, and the pipeline is validated by criteria 1-8 instead.
    import tbd.cli
    import tbd.study

    assert _verdict(
        "criterion 9 (application reproduction excluded; simulation-validated)", True
    )
