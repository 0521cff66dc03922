"""Output checks of the benchmark, kept independent of the code they check.

Every operation of a pass gets one ``Outcome``.  An operation *fails*
when it raised, when the command exited with code 2, when a number is
wrong, or when a table misses the package's stated contract that the
unaccounted mass stays below epsilon.  A number is *wrong* when it
disagrees with an independent reference: the closed forms of the
linear-fractional law, the identity that joint rows sum to the event
probability, or, for Monte Carlo, a chi-square or binomial test against
the exact law at a false-alarm rate of at most 1e-6 per run.  A
``compare`` verdict of FAIL is a statement about the science and is
neither.

Linear-fractional closed forms, with b_r = r/(r+1) and n = m + r:

    q_n                    = n/(n+1)
    P(Z(n)=k)              = b_n^(k-1)/(n+1)^2,              k >= 1
    P(0 < Z(n) <= C)       = (1 - b_n^C)/(n+1)
    P(R_m = j)             = (r+1)/(n+1)^2 (m/(n+1))^(j-1)
    P(S_j <= C)            = P(Binomial(C, 1/(r+1)) >= j)
    P(mrca distance <= u)  = (u+1)(1 - b_u^C) / ((n+1)^2 P(0 < Z(n) <= C))

R_m is the reduced count at m and S_j the sum of j surviving subtrees
of height r, each geometric on {1, 2, ...} with parameter 1/(r+1).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import special, stats

import gwreduced as gw

EPSILON = 1e-9          # README contract: unaccounted mass below epsilon
ROW_SUM_RTOL = 1e-8     # joint rows sum to the event probability (A03)
LF_ATOL = 1e-12         # linear-fractional closed forms (A01)
REPORT_ATOL = 1e-8      # report distances recomputed from closed forms
FALSE_ALARM_PER_RUN = 1e-6
MIN_EXPECTED = 5.0      # chi-square cells are pooled up to this count


@dataclass
class Outcome:
    """Verdict on one operation: ``wrong`` implies ``failed``."""

    failed: bool = False
    wrong: bool = False
    notes: list = field(default_factory=list)
    bytes_written: int = 0

    def miss(self, note: str) -> None:
        self.failed = True
        self.notes.append(note)

    def error(self, note: str) -> None:
        self.failed = self.wrong = True
        self.notes.append(note)


# -- independent references -------------------------------------------


def lf_event_prob(n: int, C: int) -> float:
    return -math.expm1(C * math.log1p(-1.0 / (n + 1))) / (n + 1)


def lf_conditional_pmf(m: int, n: int, C: int) -> np.ndarray:
    """P(R_m = j | 0 < Z(n) <= C) for j = 1..C (S_j > C beyond that)."""
    r = n - m
    j = np.arange(1, C + 1)
    if m == 0:
        reduced = np.where(j == 1, 1.0 / (n + 1), 0.0)
    else:
        reduced = (r + 1) / (n + 1) ** 2 * (m / (n + 1)) ** (j - 1.0)
    fits = stats.binom.sf(j - 1, C, 1.0 / (r + 1))
    return reduced * fits / lf_event_prob(n, C)


def lf_terminal_pmf(n: int, C: int) -> np.ndarray:
    """P(Z(n) = k | 0 < Z(n) <= C) for k = 1..C."""
    k = np.arange(1, C + 1)
    return (n / (n + 1)) ** (k - 1.0) / (n + 1) ** 2 / lf_event_prob(n, C)


def lf_mrca_cdf(n: int, C: int, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore"):   # u = 0 gives log(0) and fits = 1
        fits = -np.expm1(C * np.log1p(-1.0 / (u + 1)))
    return (u + 1) * fits / ((n + 1) ** 2 * lf_event_prob(n, C))


def small_phi_limit_pmf(x: float) -> np.ndarray:
    """x P(Gamma(j, 1) <= 1/x), j = 1.., cut where terms underflow."""
    j = np.arange(1, 400)
    values = x * special.gammainc(j, 1.0 / x)
    return values[values > 0.0]


def small_phi_limit_gf(s: float, x: float) -> float:
    if s == 1.0:
        return 1.0
    return s * x * -math.expm1(-(1.0 - s) / x) / (1.0 - s)


def tv(p, q) -> float:
    """Total variation, mass missing from either table lumped in one cell."""
    width = max(len(p), len(q))
    pp = np.zeros(width)
    qq = np.zeros(width)
    pp[: len(p)] = p
    qq[: len(q)] = q
    tails = abs(max(0.0, 1.0 - pp.sum()) - max(0.0, 1.0 - qq.sum()))
    return 0.5 * float(np.abs(pp - qq).sum() + tails)


def window_geometry(law, n: int, x: float):
    """(m, C) of the sublinear window with phi = sqrt."""
    width = math.isqrt(n - 1) + 1   # ceil(sqrt(n))
    return n - int(math.floor(x * width)), int(math.floor(law.half_variance * width))


# -- per-kind checks ----------------------------------------------------


def _check_mass(out: Outcome, what: str, mass: float, epsilon: float = EPSILON) -> None:
    deficit = 1.0 - mass
    if mass > 1.0 + ROW_SUM_RTOL:
        out.error(f"{what}: mass {mass!r} exceeds 1 by more than {ROW_SUM_RTOL}")
    elif deficit >= epsilon:
        out.miss(f"{what}: unaccounted mass {deficit:.3e} >= epsilon {epsilon:g}")


def check_conditional(job, table, laws) -> Outcome:
    out = Outcome()
    p = job.params
    pmf = np.asarray(table.pmf, dtype=float)
    if (table.n, table.m, table.bound) != (p["n"], p["m"], p["C"]):
        out.error(f"table describes (n,m,C)=({table.n},{table.m},{table.bound})")
    if not np.all(np.isfinite(pmf)) or pmf.min() < 0.0:
        out.error("table has a negative or non-finite entry")
        return out
    _check_mass(out, "conditional table", float(pmf.sum()))
    if job.law == "linear_fractional":
        law = laws[job.law]
        n, m, C = p["n"], p["m"], p["C"]
        dev = abs(gw.extinction_prob(law, n) - n / (n + 1))
        if dev > LF_ATOL:
            out.error(f"q_n off its closed form by {dev:.2e}")
        dev = abs(gw.bounded_survival_prob(law, n, C) - lf_event_prob(n, C))
        if dev > LF_ATOL:
            out.error(f"P(0<Z(n)<=C) off its closed form by {dev:.2e}")
        want = lf_conditional_pmf(m, n, C)[: len(pmf)]
        dev = float(np.abs(pmf - want).max())
        if dev > LF_ATOL:
            out.error(f"table rows off their closed form by {dev:.2e}")
    return out


def check_mrca(job, cdf) -> Outcome:
    out = Outcome()
    p = job.params
    cdf = np.asarray(cdf, dtype=float)
    u = np.asarray(p["distances"])
    if cdf.shape != u.shape or not np.all(np.isfinite(cdf)):
        out.error("cdf has the wrong shape or a non-finite value")
        return out
    if cdf.min() < 0.0 or cdf.max() > 1.0 + LF_ATOL:
        out.error("cdf leaves [0, 1]")
    if np.any(np.diff(cdf[np.argsort(u)]) < -LF_ATOL):
        out.error("cdf decreases")
    if job.law == "linear_fractional":
        dev = float(np.abs(cdf - lf_mrca_cdf(p["n"], p["C"], u)).max())
        if dev > LF_ATOL:
            out.error(f"cdf off its closed form by {dev:.2e}")
    return out


def check_compare(job, result, laws) -> Outcome:
    out = Outcome()
    if result.exit_code not in (0, 1):
        out.error(f"compare exited with code {result.exit_code}")
        return out
    try:
        with open(result.path) as fh:
            text = fh.read()
        report = json.loads(text)
    except (OSError, ValueError) as exc:
        out.error(f"no readable report: {exc}")
        return out
    out.bytes_written = len(text.encode()) + len(result.stdout.encode())
    all_passed = all(v["passed"] for v in report["verdicts"])
    if (result.exit_code == 0) != all_passed:
        out.error(f"exit code {result.exit_code} disagrees with the verdicts")
    law = laws[job.law]
    x = job.params["x"]
    rows = report["rows"]
    if [row["n"] for row in rows] != list(job.params["n_grid"]):
        out.error("report rows do not follow the horizon grid")
        return out
    limit = small_phi_limit_pmf(x)
    for row in rows:
        n = row["n"]
        m, C = window_geometry(law, n, x)
        if (row["m"], row["C"]) != (m, C):
            out.error(f"n={n}: row geometry (m,C)=({row['m']},{row['C']}), want ({m},{C})")
            continue
        _check_mass(out, f"report row n={n}", row["mass_accounted"], row["epsilon"])
        if job.law != "linear_fractional":
            continue
        exact = lf_conditional_pmf(m, n, C)
        tol = REPORT_ATOL + max(0.0, 1.0 - row["mass_accounted"])
        dev = abs(row["tv_exact_limit"] - tv(exact, limit))
        if dev > tol:
            out.error(f"n={n}: tv_exact_limit off the closed form by {dev:.2e}")
        js = np.arange(1, len(exact) + 1)
        sup = max(
            abs(float(np.dot(s**js, exact)) - small_phi_limit_gf(s, x))
            for s in (0.1 * i for i in range(11))
        )
        dev = abs(row["gf_supnorm"] - sup)
        if dev > tol:
            out.error(f"n={n}: gf_supnorm off the closed form by {dev:.2e}")
    return out


# -- Monte Carlo --------------------------------------------------------


def mc_test_count(jobs) -> int:
    """Statistical tests per run: each marginal plus the acceptance rate."""
    return sum(len(j.params["queries"]) + 3 for j in jobs if j.kind == "mc")


def chisquare_pvalue(samples, probs) -> float:
    """Chi-square p-value of integer samples against cell probabilities.

    ``probs[i]`` is the probability of the value i; samples off the
    table and the table's missing mass share one overflow cell.
    Neighbouring cells are pooled until each expects MIN_EXPECTED.
    """
    samples = np.asarray(samples)
    probs = np.asarray(probs, dtype=float)
    total = len(samples)
    counts = np.bincount(samples, minlength=len(probs) + 1)
    observed = np.append(counts[: len(probs)], counts[len(probs):].sum())
    expected = np.append(probs, max(0.0, 1.0 - probs.sum())) * total
    cells_o, cells_e = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= MIN_EXPECTED:
            cells_o.append(acc_o)
            cells_e.append(acc_e)
            acc_o = acc_e = 0.0
    if cells_e:
        cells_o[-1] += acc_o
        cells_e[-1] += acc_e
    if len(cells_e) < 2:
        return 1.0
    cells_o = np.asarray(cells_o)
    cells_e = np.asarray(cells_e)
    stat = float(((cells_o - cells_e) ** 2 / cells_e).sum())
    return float(stats.chi2.sf(stat, len(cells_e) - 1))


def mc_references(job, laws) -> dict:
    """Exact laws the batch is tested against, computed outside timing."""
    p = job.params
    n, C = p["n"], p["C"]
    u = np.arange(n + 1)
    if job.law == "linear_fractional":
        ref = {
            "event": lf_event_prob(n, C),
            "terminal": lf_terminal_pmf(n, C),
            "mrca_cdf": lf_mrca_cdf(n, C, u),
            "reduced": {m: lf_conditional_pmf(m, n, C) for m in p["queries"]},
        }
    else:
        law = laws[job.law]
        series = gw.pmf_Zn(law, n, C)
        event = gw.bounded_survival_prob(law, n, C)
        ref = {
            "event": event,
            "terminal": series.coeffs[1:] / event,
            "mrca_cdf": gw.mrca_distance_cdf(law, n, C, u),
            "reduced": {
                m: gw.conditional_reduced_pmf(law, m, n, C).pmf for m in p["queries"]
            },
        }
    # the sampler looks for the ancestor among generations < n, so a lone
    # survivor has distance 1: its cells are u = 1..n, with P(1) = cdf(1)
    ref["mrca_pmf"] = np.diff(np.concatenate([[0.0], ref["mrca_cdf"][1:]]))
    return ref


def check_mc(job, batch, laws, alpha: float) -> Outcome:
    out = Outcome()
    p = job.params
    n, C, queries = p["n"], p["C"], tuple(p["queries"])
    counts = np.asarray(batch.reduced_counts)
    terminal = np.asarray(batch.terminal_sizes)
    distances = np.asarray(batch.mrca_distances)
    if batch.accepted < p["target"] or batch.accepted != len(terminal):
        out.error(f"{batch.accepted} accepted rows for a target of {p['target']}")
        return out
    if counts.shape != (batch.accepted, len(queries)):
        out.error(f"reduced counts have shape {counts.shape}")
        return out
    if terminal.min() < 1 or terminal.max() > C:
        out.error("a terminal size lies outside [1, C]")
    if counts.min() < 1 or np.any(counts > terminal[:, None]):
        out.error("a reduced count lies outside [1, terminal size]")
    order = np.argsort(queries)
    if np.any(np.diff(counts[:, order], axis=1) < 0):
        out.error("a reduced profile decreases")
    if distances.min() < 1 or distances.max() > n:
        out.error("an ancestor distance lies outside [1, n]")
    if out.wrong:
        return out
    ref = mc_references(job, laws)
    tests = [("terminal size", terminal - 1, ref["terminal"]),
             ("ancestor distance", distances - 1, ref["mrca_pmf"])]
    tests += [(f"reduced count at m={m}", counts[:, k] - 1, ref["reduced"][m])
              for k, m in enumerate(queries)]
    for what, samples, probs in tests:
        pvalue = chisquare_pvalue(samples, probs)
        if pvalue < alpha:
            out.error(f"{what}: chi-square p={pvalue:.2e} < {alpha:.2e}")
    N, A, rate = batch.replicates, batch.accepted, ref["event"]
    z = (A - N * rate) / math.sqrt(N * rate * (1.0 - rate))
    pvalue = 2.0 * float(stats.norm.sf(abs(z)))
    if pvalue < alpha:
        out.error(f"acceptance {A}/{N} against rate {rate:.3e}: p={pvalue:.2e}")
    return out


def check_job(job, output, laws, alpha: float) -> Outcome:
    if job.kind == "conditional":
        return check_conditional(job, output, laws)
    if job.kind == "mrca":
        return check_mrca(job, output)
    if job.kind == "compare":
        return check_compare(job, output, laws)
    return check_mc(job, output, laws, alpha)


# -- exact-repeat digest -------------------------------------------------


def digest(job, output) -> str:
    """Hash of an operation's numbers; reruns at one seed must match."""
    h = hashlib.sha256(job.kind.encode())
    if job.kind == "conditional":
        h.update(np.asarray(output.pmf, dtype=float).tobytes())
    elif job.kind == "mrca":
        h.update(np.asarray(output, dtype=float).tobytes())
    elif job.kind == "compare":
        h.update(str(output.exit_code).encode())
        if os.path.exists(output.path):
            with open(output.path) as fh:
                h.update(json.dumps(json.load(fh)["rows"], sort_keys=True).encode())
    else:
        for arr in (output.reduced_counts, output.mrca_distances,
                    output.terminal_sizes, output.replicate_ids):
            h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
        h.update(repr((output.replicates, output.accepted, output.stream_ids)).encode())
    return h.hexdigest()
