"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test prints a single [PASS]/[FAIL] line with the measured values so a
release run can be audited from the captured output alone (pytest -s or -rA
shows the lines for passing tests; failures carry them in the assertion).
"""

import json
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from lvef_fusion.cli import main
from lvef_fusion.fusion import (
    InstrumentSigma,
    fuse,
    fused_estimates,
    relative_reduction,
)
from lvef_fusion.propagation import SOURCES, PropagationConfig, propagate
from lvef_fusion.simulate import SimConfig, simulate
from lvef_fusion.survival import (
    cox_fit_from_arrays,
    cox_loglik_from_arrays,
    km_from_arrays,
    km_survival_at,
)

from fusion_oracles import theta_map
from sim_helpers import rmse_vs_truth

E2E_SEEDS = tuple(range(20))


def _criterion(name: str, passed: bool, detail: str) -> str:
    line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    print(line, flush=True)
    return line


class TestErrorCalibrationReference:
    def test_reference_values_reproduced(self, tmp_path):
        # Published reference computation: mean R -0.3355 (95% interval
        # [-0.5869, -0.1376]), predictive means 17.68 and 8.63.  Tolerances:
        # +/-0.05 on the mean, +/-0.08 on interval endpoints, +/-1.5 and
        # +/-1.0 on the predictive means; any seed; runtime < 30 s.
        started = time.perf_counter()
        failures = []
        for seed in (1, 42):
            out = tmp_path / f"seed{seed}"
            assert main(["calibrate-error", "--visual", "18.1",
                         "--simpson", "8.8", "--seed", str(seed),
                         "--output", str(out)]) == 0
            payload = json.loads((out / "calibration.json").read_text())
            reduction = payload["relative_reduction"]
            checks = [
                ("mean R", reduction["mean"], -0.3355, 0.05),
                ("q0.025", reduction["quantiles"]["0.025"], -0.5869, 0.08),
                ("q0.975", reduction["quantiles"]["0.975"], -0.1376, 0.08),
                ("visual predictive mean",
                 payload["visual"]["predictive"]["mean"], 17.68, 1.5),
                ("simpson predictive mean",
                 payload["simpson"]["predictive"]["mean"], 8.63, 1.0),
            ]
            for label, got, target, tol in checks:
                if abs(got - target) > tol:
                    failures.append(
                        f"seed {seed} {label}={got:.4f} target {target}+/-{tol}"
                    )
        elapsed = time.perf_counter() - started
        ok = not failures and elapsed < 30.0
        detail = (f"seeds (1, 42) within all tolerances, {elapsed:.1f}s"
                  if not failures else "; ".join(failures))
        line = _criterion("error-calibration reference reproduction", ok, detail)
        assert ok, line


class TestReductionPointValue:
    def test_point_value(self):
        value = relative_reduction(InstrumentSigma(18.1, 8.8, "paper-sd"))
        ok = abs(value - (-0.32714)) <= 1e-5
        line = _criterion("relative-reduction point value", ok,
                          f"got {value:.7f}, target -0.32714 +/- 1e-5")
        assert ok, line


class TestFusionOracle:
    def test_closed_form_oracle(self):
        # 1e5 random tuples: theta must equal the hand formula and theta_map
        # to 1e-10 relative; theta_sigma < min sigma; R in (-1, 0); < 5 s.
        started = time.perf_counter()
        rng = np.random.default_rng(2026)
        visual = rng.uniform(1.0, 99.0, 100_000)
        simpson = rng.uniform(1.0, 99.0, 100_000)
        sigma_v = rng.uniform(0.3, 30.0, 100_000)
        sigma_s = rng.uniform(0.3, 30.0, 100_000)
        bad = 0
        for v, s, sv, ss in zip(visual, simpson, sigma_v, sigma_s):
            sigmas = InstrumentSigma(sv, ss)
            est = fuse(v, s, sigmas)
            hand = (sv * s + ss * v) / (sv + ss)
            tol = 1e-10 * max(1.0, abs(hand))
            if (abs(est.theta - hand) > tol
                    or abs(theta_map(v, s, sigmas) - est.theta) > tol
                    or not est.theta_sigma < min(sv, ss)
                    or not -1.0 < est.relative_reduction < 0.0):
                bad += 1
        elapsed = time.perf_counter() - started
        ok = bad == 0 and elapsed < 5.0
        line = _criterion(
            "fusion closed-form oracle", ok,
            f"100000 random tuples, {bad} violations, {elapsed:.1f}s")
        assert ok, line


class TestSurvivalOracles:
    @staticmethod
    def _random_uncensored(rng):
        n = int(rng.integers(1, 40))
        if rng.random() < 0.5:
            times = rng.integers(1, 15, n).astype(float)
        else:
            times = rng.uniform(0.5, 300.0, n)
        return times, np.ones(n, dtype=int)

    @staticmethod
    def _simulated_dataset(rng, n=200):
        x = rng.uniform(20.0, 80.0, n)
        beta = rng.uniform(-0.05, 0.05)
        raw = rng.exponential(1.0 / (2e-3 * np.exp(beta * (x - 50.0))))
        time_v = np.minimum(raw, 365.0)
        event = (raw < 365.0).astype(int)
        return time_v, event, x

    @staticmethod
    def _grid_search_beta(time_v, event, x):
        grid = np.arange(-5.0, 5.0 + 1e-9, 0.01)
        values = [cox_loglik_from_arrays(b, time_v, event, x)[0] for b in grid]
        best = float(grid[int(np.argmax(values))])
        refined = minimize_scalar(
            lambda b: -cox_loglik_from_arrays(b, time_v, event, x)[0],
            bounds=(best - 0.02, best + 0.02), method="bounded",
            options={"xatol": 1e-9},
        )
        return float(refined.x)

    def test_survival_estimator_oracles(self):
        # (i) uncensored KM equals the counting survival function exactly on
        # 1e3 random datasets; (ii) cox_fit matches the grid-search maximizer
        # within 1e-4 on 100 random 200-record datasets; (iii) gradient and
        # hessian match finite differences within 1e-6 relative; < 60 s.
        started = time.perf_counter()
        rng = np.random.default_rng(4096)

        km_bad = 0
        for _ in range(1000):
            times, events = self._random_uncensored(rng)
            curve = km_from_arrays(times, events)
            n = times.size
            for t in np.unique(times):
                for probe in (t, t + 0.25):
                    oracle = float(np.sum(times > probe)) / n
                    if km_survival_at(curve, probe) != oracle:
                        km_bad += 1

        cox_worst = 0.0
        fitted = 0
        while fitted < 100:
            time_v, event, x = self._simulated_dataset(rng)
            if event.sum() < 2:
                continue
            fitted += 1
            beta_fit = cox_fit_from_arrays(time_v, event, x).beta
            beta_grid = self._grid_search_beta(time_v, event, x)
            cox_worst = max(cox_worst, abs(beta_fit - beta_grid))

        fd_worst = 0.0
        checked = 0
        while checked < 25:
            time_v, event, x = self._simulated_dataset(rng, n=60)
            if event.sum() < 2:
                continue
            checked += 1
            beta = float(rng.uniform(-0.3, 0.3))
            h = 1e-5
            _, grad, hess = cox_loglik_from_arrays(beta, time_v, event, x)
            v_hi, g_hi, _ = cox_loglik_from_arrays(beta + h, time_v, event, x)
            v_lo, g_lo, _ = cox_loglik_from_arrays(beta - h, time_v, event, x)
            grad_fd = (v_hi - v_lo) / (2.0 * h)
            hess_fd = (g_hi - g_lo) / (2.0 * h)
            fd_worst = max(
                fd_worst,
                abs(grad - grad_fd) / max(1.0, abs(grad)),
                abs(hess - hess_fd) / max(1.0, abs(hess)),
            )

        elapsed = time.perf_counter() - started
        ok = (km_bad == 0 and cox_worst < 1e-4 and fd_worst < 1e-6
              and elapsed < 60.0)
        line = _criterion(
            "survival estimator oracles", ok,
            f"KM exact mismatches {km_bad}, cox-vs-grid worst "
            f"{cox_worst:.2e} (tol 1e-4), FD worst {fd_worst:.2e} "
            f"(tol 1e-6), {elapsed:.1f}s")
        assert ok, line


@pytest.fixture(scope="module")
def end_to_end_rows():
    """Per-seed RMSE and HR band widths: 20 seeds, n=1366, 200 replicates."""
    started = time.perf_counter()
    rows = []
    for seed in E2E_SEEDS:
        config = SimConfig(seed=seed)
        cohort = simulate(config)
        sigmas = InstrumentSigma(config.visual_noise_sd, config.simpson_noise_sd)
        fused = fused_estimates(cohort, sigmas)
        rmse = {
            "visual": rmse_vs_truth(cohort, cohort.visual),
            "simpson": rmse_vs_truth(cohort, cohort.simpson),
            "fused": rmse_vs_truth(cohort, fused),
        }
        widths = {}
        for source in SOURCES:
            summary = propagate(cohort, PropagationConfig(
                source=source, sigmas=sigmas, seed=seed, replicates=200))
            quantiles = summary.hazard_ratio.quantiles
            widths[source] = quantiles[0.975] - quantiles[0.025]
        rows.append({"seed": seed, "rmse": rmse, "widths": widths})
    return rows, time.perf_counter() - started


class TestEndToEndProperties:
    def test_rmse_ordering(self, end_to_end_rows):
        rows, elapsed = end_to_end_rows
        hits = sum(r["rmse"]["fused"] < r["rmse"]["simpson"] < r["rmse"]["visual"]
                   for r in rows)
        ok = hits >= 18 and elapsed < 600.0
        line = _criterion(
            "e2e RMSE ordering fused < simpson < visual", ok,
            f"{hits}/20 seeds (need >= 18), suite built in {elapsed:.1f}s")
        assert ok, line

    def test_hr_band_width_ordering(self, end_to_end_rows):
        rows, _ = end_to_end_rows
        hits = sum(
            r["widths"]["assimilated"] <= r["widths"]["simpson"]
            <= r["widths"]["visual"]
            for r in rows)
        measured = "; ".join(
            f"seed {r['seed']}: a={r['widths']['assimilated']:.4f} "
            f"s={r['widths']['simpson']:.4f} v={r['widths']['visual']:.4f}"
            for r in rows)
        ok = hits >= 18
        line = _criterion(
            "e2e HR band-width ordering assimilated <= simpson <= visual", ok,
            f"{hits}/20 seeds (need >= 18); {measured}")
        assert ok, line

    def test_zero_noise_band_collapse(self):
        cohort = simulate(SimConfig(seed=0))
        sigmas = InstrumentSigma(0.0, 0.0)
        worst = 0.0
        for source in SOURCES:
            summary = propagate(cohort, PropagationConfig(
                source=source, sigmas=sigmas, seed=0, replicates=200))
            quantiles = summary.hazard_ratio.quantiles
            worst = max(worst, quantiles[0.975] - quantiles[0.025])
            for band in summary.km_bands.values():
                if band is not None:
                    worst = max(worst, float(np.max(band.upper - band.lower)))
        ok = worst == 0.0
        line = _criterion("e2e zero-noise collapse", ok,
                          f"largest band width {worst!r} (must be exactly 0.0)")
        assert ok, line


class TestReportDeterminism:
    def test_rerun_byte_identical_excluding_timestamp(self, tmp_path):
        data = tmp_path / "data"
        assert main(["simulate", "--n", "300", "--seed", "11",
                     "--output", str(data)]) == 0
        flags = ["report", "--input", str(data / "cohort.csv"),
                 "--seed", "7", "--replicates", "200"]
        for run in ("a", "b"):
            assert main(flags + ["--output", str(tmp_path / run)]) == 0

        def _stable_report(run):
            text = (tmp_path / run / "report.json").read_text()
            return "\n".join(l for l in text.splitlines()
                             if '"generated_at"' not in l)

        same_json = _stable_report("a") == _stable_report("b")
        same_csv = all(
            (tmp_path / "a" / f"km_bands_{s}.csv").read_bytes()
            == (tmp_path / "b" / f"km_bands_{s}.csv").read_bytes()
            for s in SOURCES)
        ok = same_json and same_csv
        line = _criterion(
            "report rerun determinism", ok,
            f"report.json identical excluding timestamp: {same_json}, "
            f"band CSVs byte-identical: {same_csv}")
        assert ok, line


class TestSlopeRecovery:
    def test_generative_slope_recovered(self):
        # Generative log-hazard is -0.0152 per LVEF point; the mean fitted
        # slope over 20 seeds must land within 2 Monte-Carlo standard errors.
        betas = []
        for seed in E2E_SEEDS:
            cohort = simulate(SimConfig(seed=seed))
            time_v = cohort.time
            event = cohort.event
            betas.append(cox_fit_from_arrays(time_v, event, cohort.true_lvef).beta)
        betas = np.array(betas)
        mc_se = betas.std(ddof=1) / np.sqrt(betas.size)
        gap = abs(betas.mean() - (-0.0152))
        ok = gap <= 2.0 * mc_se
        line = _criterion(
            "hazard-slope recovery", ok,
            f"mean beta {betas.mean():.5f} vs -0.0152, |gap| {gap:.5f} "
            f"<= 2*MC-SE {2 * mc_se:.5f}")
        assert ok, line
