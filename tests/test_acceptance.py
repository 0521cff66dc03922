"""End-to-end acceptance suite.

Each test checks one advertised capability at its stated tolerance and
prints a single verdict line (A01..A13).  Lines are emitted with output
capture suspended so they always reach the terminal.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

import brute_force
import lf_oracle
from gwreduced import (
    LimitQuery,
    Regime,
    bounded_survival_prob,
    classical_reduced_gf,
    conditional_reduced_pmf,
    extinction_prob,
    gf_supnorm,
    iter_extinction_probs,
    joint_reduced_bounded,
    make_builtin,
    mrca_distance_cdf,
    pmf_Zn,
    reduced,
    run_conditioned_batch,
    tv_distance,
)
from gwreduced.cli import cli_main
from gwreduced.series import iterates

BUILTIN_NAMES = ("linear_fractional", "poisson", "ternary_uniform")
LAWS = {name: make_builtin(name) for name in BUILTIN_NAMES}
LF = LAWS["linear_fractional"]


@pytest.fixture
def verdict(capsys):
    def emit(tag: str, ok: bool, detail: str) -> None:
        line = f"{tag} {'PASS' if ok else 'FAIL'}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def test_a01_linear_fractional_closed_forms(verdict):
    start = time.time()
    worst = 0.0
    for n, q in enumerate(iter_extinction_probs(LF, 100)):
        worst = max(worst, abs(q - lf_oracle.extinction(n)))
    for n in range(1, 101):
        series = pmf_Zn(LF, n, 200)
        worst = max(worst, float(np.abs(series.coeffs - lf_oracle.pmf(n, 200)).max()))
    for r in range(0, 101):
        # row 1 of f_n(q + (1-q)s) is (1-q) f_n'(q)
        q = lf_oracle.extinction(r)
        for n, row in enumerate(iterates(LF, 100, 1, q, 1 - q)):
            want = lf_oracle.derivative_at_extinction(n, 1, r)
            worst = max(worst, abs(row[1] / (1 - q) - want))
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 10.0
    verdict(
        "A01",
        ok,
        f"closed-form suite (n<=100, k<=200, r<=100) max dev {worst:.2e} "
        f"< 1e-10 in {elapsed:.1f}s",
    )


def test_a02_exhaustive_enumeration_oracle(verdict):
    start = time.time()
    tern = LAWS["ternary_uniform"]
    worst = 0.0
    for n in range(1, 5):
        for m in range(0, n + 1):
            q = extinction_prob(tern, n - m)
            rows = reduced._reduced_rows(tern, m, q, 16)
            for j in range(1, 17):
                want = brute_force.reduced_pmf(brute_force.TERNARY, m, n, j)
                worst = max(worst, abs(rows[j - 1] - float(want)))
        for C in (1, 2, 3):
            for m in range(0, n):
                table = joint_reduced_bounded(tern, m, n, C, epsilon=1e-15)
                for j in range(1, 17):
                    want = brute_force.joint_bounded(brute_force.TERNARY, m, n, j, C)
                    worst = max(worst, abs(table.prob(j) - float(want)))
            cdf = mrca_distance_cdf(tern, n, C, range(0, n + 1))
            for u in range(0, n + 1):
                want = brute_force.mrca_cdf(brute_force.TERNARY, n, C, u)
                worst = max(worst, abs(cdf[u] - float(want)))
    elapsed = time.time() - start
    ok = worst < 1e-12 and elapsed < 60.0
    verdict(
        "A02",
        ok,
        f"ternary enumeration oracle (n<=4, C<=3) max dev {worst:.2e} "
        f"< 1e-12 in {elapsed:.1f}s",
    )


def test_a03_joint_mass_decomposition(verdict):
    combos = []
    for name, law in LAWS.items():
        B = law.half_variance
        for n, m in ((60, 15), (60, 30), (240, 0), (240, 120), (1000, 250),
                     (1000, 500), (2000, 400), (2000, 1000)):
            small = max(1, int(B * math.sqrt(n)))
            wide = max(1, int(B * n / 4))
            combos.append((name, law, m, n, small))
            combos.append((name, law, m, n, wide))
    worst = 0.0
    for name, law, m, n, C in combos:
        total = float(joint_reduced_bounded(law, m, n, C).pmf.sum())
        event = bounded_survival_prob(law, n, C)
        worst = max(worst, abs(total - event))
    ok = worst < 1e-8 and len(combos) >= 20
    verdict(
        "A03",
        ok,
        f"row sums match event probability over {len(combos)} (law,m,n,C) "
        f"combos, max dev {worst:.2e} < 1e-8",
    )


def test_a04_survival_rate_asymptotics(verdict):
    n = 1000
    devs = {}
    for name, law in LAWS.items():
        Q = 1.0 - extinction_prob(law, n)
        devs[name] = abs(Q * law.half_variance * n - 1.0)
    ok = all(d < 0.05 for d in devs.values())
    detail = ", ".join(f"{k}={v:.4f}" for k, v in devs.items())
    verdict("A04", ok, f"|Q(n)*Bn-1| at n=1000: {detail} (< 0.05)")


def test_a05_local_population_asymptotics(verdict):
    # The geometric-type local approximation holds uniformly only for
    # counts that grow with n; at fixed small k the normalized pmf tends
    # to a law-dependent constant instead of 1 (the linear-fractional
    # family is the exception, matching exactly from k=1).  The window
    # therefore starts at ceil(sqrt(Bn)), which grows yet stays well
    # inside the k <= Bn range.
    n = 2000
    details = []
    ok = True
    for name, law in LAWS.items():
        B = law.half_variance
        kmax = int(B * n)
        klo = math.ceil(math.sqrt(B * n))
        series = pmf_Zn(law, n, kmax)
        k = np.arange(1, kmax + 1)
        scaled = n**2 * B**2 * (1 + 1 / (B * n)) ** (k + 1) * series.coeffs[1:]
        window_dev = float(np.abs(scaled[klo - 1 :] - 1).max())
        full_dev = float(np.abs(scaled - 1).max())
        ok = ok and window_dev < 0.05
        if name == "linear_fractional":
            ok = ok and full_dev < 0.05
        details.append(f"{name}: window {window_dev:.4f} (from k=1: {full_dev:.4f})")
    verdict(
        "A05",
        ok,
        f"scaled pmf dev at n=2000 over k in [ceil(sqrt(Bn)), Bn] < 0.05; "
        + "; ".join(details),
    )


def test_a06_small_event_probability_scale(verdict):
    details = []
    ok = True
    for name, law in LAWS.items():
        B = law.half_variance
        ratios = {}
        for n in (500, 2000):
            C = int(B * math.sqrt(n))
            ratios[n] = bounded_survival_prob(law, n, C) / (math.sqrt(n) / (n**2 * B))
        inside = 0.85 < ratios[2000] < 1.15
        toward = abs(ratios[2000] - 1) < abs(ratios[500] - 1)
        ok = ok and inside and toward
        details.append(f"{name}: {ratios[500]:.3f}->{ratios[2000]:.3f}")
    verdict(
        "A06",
        ok,
        "event probability over sqrt(n)/(n^2 B) in [0.85,1.15] at n=2000 "
        "and moving toward 1: " + ", ".join(details),
    )


def test_a07_small_window_tv_convergence(verdict):
    start = time.time()
    limit = LimitQuery(regime=Regime.SMALL_PHI, x=1.0).pmf_values()
    tvs = []
    for n in (500, 1000, 2000):
        width = math.ceil(math.sqrt(n))
        C = int(LF.half_variance * width)
        m = n - width
        table = conditional_reduced_pmf(LF, m, n, C)
        tvs.append(tv_distance(table.pmf, limit))
    elapsed = time.time() - start
    ok = tvs[0] > tvs[1] > tvs[2] and tvs[2] < 0.05 and elapsed < 300.0
    verdict(
        "A07",
        ok,
        "conditional law vs sublinear-window limit, TV "
        + " > ".join(f"{v:.4f}" for v in tvs)
        + f", final < 0.05, in {elapsed:.1f}s",
    )


def test_a08_band_tv_and_gf_convergence(verdict):
    t, a = 0.5, 1.0
    query = LimitQuery(regime=Regime.LINEAR_BAND, t=t, a=a)
    limit = query.pmf_values()
    tvs, sups = [], []
    for n in (200, 500, 1000):
        C = int(a * LF.half_variance * n)
        m = int(t * n)
        table = conditional_reduced_pmf(LF, m, n, C)
        tvs.append(tv_distance(table.pmf, limit))
        sups.append(gf_supnorm(table.pmf, query.gf))
    ok = tvs[0] > tvs[1] > tvs[2] and tvs[2] < 0.05 and sups[2] < 0.05
    verdict(
        "A08",
        ok,
        "conditional law vs linear-band limit (t=0.5, a=1), TV "
        + " > ".join(f"{v:.4f}" for v in tvs)
        + f", gf sup-norm {sups[2]:.4f} < 0.05",
    )


def test_a09_mrca_distance_limits(verdict):
    details = []
    worst = 0.0
    n, width = 2000, 45
    C = int(LF.half_variance * width)
    for x in (0.5, 1.0, 2.0):
        u = int(x * width)
        got = float(mrca_distance_cdf(LF, n, C, [u])[0])
        dev = abs(got - LimitQuery(regime=Regime.SMALL_PHI, x=x).pmf(1))
        worst = max(worst, dev)
        details.append(f"x={x}: {dev:.4f}")
    n, a = 1000, 1.0
    C = int(a * LF.half_variance * n)
    cdf = mrca_distance_cdf(LF, n, C, [250, 500, 750])
    for t, got in zip((0.25, 0.5, 0.75), cdf):
        limit = LimitQuery(regime=Regime.LINEAR_BAND, t=1.0 - t, a=a).pmf(1)
        dev = abs(float(got) - limit)
        worst = max(worst, dev)
        details.append(f"t={t}: {dev:.4f}")
    ok = worst < 0.05
    verdict(
        "A09",
        ok,
        "ancestor-distance cdf vs limiting cdfs, devs " + ", ".join(details) + " (< 0.05)",
    )


def _merged_chisquare(observed_counts, cell_probs, total):
    obs = list(observed_counts)
    exp = [p * total for p in cell_probs]
    i = 0
    while i < len(exp):
        if exp[i] < 5.0 and len(exp) > 1:
            j = i + 1 if i + 1 < len(exp) else i - 1
            exp[j] += exp[i]
            obs[j] += obs[i]
            del exp[i], obs[i]
        else:
            i += 1
    return stats.chisquare(obs, exp)


def test_a10_monte_carlo_agreement(verdict):
    start = time.time()
    law = LAWS["ternary_uniform"]
    n, a = 200, 1.0
    C = int(a * law.half_variance * n)
    m = n // 2
    table = conditional_reduced_pmf(law, m, n, C)
    # batches are byte-identical across worker counts, so two workers
    # draw the same sample in about half the time
    batch = run_conditioned_batch(
        law, n, C, [m], target_accepted=100_000, seed=20260814, workers=2
    )
    counts = np.bincount(batch.reduced_counts[:, 0], minlength=table.j_max + 2)
    observed = list(counts[1 : table.j_max + 1]) + [int(counts[table.j_max + 1 :].sum())]
    cell_probs = list(table.pmf) + [max(0.0, 1.0 - float(table.pmf.sum()))]
    result = _merged_chisquare(observed, cell_probs, batch.accepted)
    expected_rate = bounded_survival_prob(law, n, C)
    se = math.sqrt(expected_rate * (1 - expected_rate) / batch.replicates)
    rate_dev = abs(batch.acceptance_rate - expected_rate)
    elapsed = time.time() - start
    ok = (
        batch.accepted >= 100_000
        and result.pvalue > 0.001
        and rate_dev < 4 * se
        and elapsed < 600.0
    )
    verdict(
        "A10",
        ok,
        f"ternary n=200 C={C}: chi-square p={result.pvalue:.3f} > 0.001, "
        f"acceptance dev {rate_dev:.2e} < 4se={4 * se:.2e}, "
        f"{batch.accepted} accepted in {elapsed:.0f}s",
    )


def _jet_at(law, n, q, J):
    """f_n^(k)(q) for k = 0..J, from row k of f_n(q + (1-q)s), which is
    (1-q)^k f_n^(k)(q)/k!."""
    for row in iterates(law, n, J, q, 1 - q):
        pass
    k = np.arange(J + 1)
    return row * np.array([math.factorial(j) for j in k]) / (1 - q) ** k


def test_a11_derivative_ratio_asymptotics(verdict):
    details = []
    ok = True
    n = 2000
    for name, law in LAWS.items():
        B = law.half_variance
        q = extinction_prob(law, n)
        jet = _jet_at(law, n, q, 4)
        ratios = [
            jet[k] / (math.factorial(k) * (B * n) ** (k - 1) / 2 ** (k + 1))
            for k in range(1, 5)
        ]
        ok = ok and all(0.9 < r < 1.1 for r in ratios)
        details.append(f"{name} max|r-1|={max(abs(r - 1) for r in ratios):.4f}")
    trend_ok = True
    for name, law in LAWS.items():
        B = law.half_variance
        devs = {j: [] for j in (1, 2, 3)}
        for n_big in (10_000, 40_000, 160_000):
            width = math.ceil(math.sqrt(n_big))
            q = extinction_prob(law, width)
            jet = _jet_at(law, n_big - width, q, 3)
            for j in (1, 2, 3):
                ratio = jet[j] / (
                    math.factorial(j) * (B * width) ** (j + 1) / (B**2 * n_big**2)
                )
                devs[j].append(abs(ratio - 1))
        trend_ok = trend_ok and all(
            d[0] > d[1] > d[2] for d in devs.values()
        )
    ok = ok and trend_ok
    verdict(
        "A11",
        ok,
        "scaled derivatives at n=2000 within [0.9,1.1] ("
        + ", ".join(details)
        + f"); long-horizon ratios tighten monotonically: {trend_ok}",
    )


def test_a12_limit_law_consistency(verdict):
    worst_dual = 0.0
    s_grid = [round(0.1 * i, 1) for i in range(1, 10)]
    for x in (0.25, 1.0, 4.0):
        query = LimitQuery(regime=Regime.SMALL_PHI, x=x)
        for s in s_grid:
            series = sum(s**j * query.pmf(j) for j in range(1, 400))
            worst_dual = max(worst_dual, abs(query.gf(s) - series))
    for t in (0.2, 0.5, 0.8):
        for a in (0.5, 1.0, 2.0):
            query = LimitQuery(regime=Regime.LINEAR_BAND, t=t, a=a)
            for s in s_grid:
                series = sum(s**j * query.pmf(j) for j in range(1, 400))
                worst_dual = max(worst_dual, abs(query.gf(s) - series))
    worst_wide = 0.0
    for t in (0.2, 0.5, 0.8):
        for s in s_grid:
            wide = LimitQuery(regime=Regime.LINEAR_BAND, t=t, a=50.0).gf(s)
            worst_wide = max(worst_wide, abs(wide - classical_reduced_gf(s, t)))
    ok = worst_dual < 1e-10 and worst_wide < 1e-10
    verdict(
        "A12",
        ok,
        f"gf/pmf duality max dev {worst_dual:.2e}, wide-band vs classical "
        f"gf max dev {worst_wide:.2e} (< 1e-10)",
    )


def test_a13_comparison_report_determinism(verdict, tmp_path):
    args = [
        "compare",
        "--regime",
        "linear_band",
        "--law",
        "ternary_uniform",
        "--n",
        "24,40",
        "--t",
        "0.5",
        "--a",
        "1.0",
        "--replicates",
        "400",
        "--seed",
        "11",
    ]
    payloads = []
    for tag, workers in (("w1", "1"), ("w3", "3"), ("w1_again", "1")):
        out = tmp_path / f"report_{tag}.json"
        code = cli_main(args + ["--workers", workers, "--out", str(out)])
        assert code in (0, 1)
        payload = json.loads(out.read_text())
        payload.pop("timestamp")
        payloads.append(payload)
    ok = payloads[0] == payloads[1] == payloads[2]
    verdict(
        "A13",
        ok,
        "compare reports identical (excluding timestamp) across reruns "
        "with 1 and 3 workers",
    )
