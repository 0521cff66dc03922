"""Experiment orchestration: exact tables vs limit laws vs Monte Carlo.

A comparison experiment walks a grid of horizons n, builds the exact
conditional reduced-count table for the regime geometry at each n,
evaluates the matching limit law, optionally runs a conditioned
Monte Carlo batch, and reports total-variation distances, generating
function sup-norms over the grid ``limits.GF_GRID``, and
acceptance-rate agreement.  The final distance and sup-norm pass below
``FINAL_THRESHOLD``.  `ExperimentConfig`
is the one definition of an experiment: its field table gives the
config keys, their text form and the `compare` flags, and building it
checks every value, down to each horizon's look-back and bound, and
asks of each horizon its table's first question,
``series.check_horizon``, which prices only work every table does.
`run_experiment` may refuse a grid the config accepts, never the
reverse.  Reports are pure functions of (config, seed), and a
report's ``config_hash`` is the hash of its ``parameters``, the
config's text form, which holds no output path, format or worker count.
"""

from __future__ import annotations

import hashlib
import math
import re
import time
from dataclasses import dataclass

import numpy as np

from . import series
from .errors import whole_number
from .limits import GF_GRID, LimitQuery, Regime
from .offspring import law_from_name
from .reduced import EPSILON_DEFAULT, check_epsilon, conditional_reduced_pmf
from .simulate import MAX_REPLICATES_DEFAULT, check_run_settings, run_conditioned_batch

BOOTSTRAP_RESAMPLES = 200
FINAL_THRESHOLD = 0.05

try:
    from importlib.metadata import version as _pkg_version

    VERSION = _pkg_version("gwreduced")
except Exception:  # pragma: no cover - metadata missing in odd installs
    VERSION = "unknown"


def tv_distance(p, q) -> float:
    """Total variation between two pmf tables over j >= 1.

    Mass beyond each table's last entry is lumped into one overflow
    cell per side, so truncation can only increase the reported
    distance, never hide a difference.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    width = max(len(p), len(q))
    pp = np.zeros(width)
    qq = np.zeros(width)
    pp[: len(p)] = p
    qq[: len(q)] = q
    tail_p = max(0.0, 1.0 - float(pp.sum()))
    tail_q = max(0.0, 1.0 - float(qq.sum()))
    return 0.5 * float(np.abs(pp - qq).sum()) + 0.5 * abs(tail_p - tail_q)


def gf_supnorm(pmf, gf) -> float:
    """Largest absolute deviation over the s values of GF_GRID between
    the generating function of a table over j = 1..J and ``gf``."""
    pmf = np.asarray(pmf, dtype=float)
    js = np.arange(1, len(pmf) + 1)
    return float(max(abs(float(np.dot(np.power(s, js), pmf)) - gf(s)) for s in GF_GRID))


@dataclass(frozen=True)
class PhiSpec:
    """Sublinear window growth phi(n) = n^param: sqrt or n^p, 0<p<1."""

    param: float

    def __str__(self) -> str:
        """The one text form: sqrt for n^0.5, otherwise n^ and repr(p)."""
        return "sqrt" if self.param == 0.5 else f"n^{self.param!r}"

    def window(self, n: int) -> int:
        """Integer window width, rounded up."""
        return int(math.ceil(float(n) ** self.param))


def parse_phi(expression: str) -> PhiSpec:
    text = expression.strip().lower().replace(" ", "")
    if text == "sqrt":
        return PhiSpec(param=0.5)
    m = re.fullmatch(r"n\^([0-9]*\.?[0-9]+(e[-+]?[0-9]+)?)", text)
    if m:
        p = float(m.group(1))
        if not 0.0 < p < 1.0:
            raise ValueError(f"window exponent {p} outside (0, 1)")
        return PhiSpec(param=p)
    raise ValueError(
        f"cannot parse window expression {expression!r}; "
        "expected a sublinear window: sqrt or n^p with 0<p<1"
    )


# no number reads the worker count, so to_mapping leaves it out
CONFIG_HASH_EXCLUDE = {"workers"}


# ExperimentConfig field -> (flat key, to text, from text), in the order
# to_mapping writes the keys; report parameters keep this order.  Each
# value has one text form: fields hold canonical values, reals as floats
_FIELD_TEXT = {
    "regime": ("regime", lambda regime: regime.value, Regime),
    "law_label": ("law", str, str),
    "n_grid": (
        "n_grid",
        lambda grid: ",".join(map(str, grid)),
        lambda text: tuple(int(tok) for tok in text.split(",") if tok.strip()),
    ),
    "phi": ("phi", str, parse_phi),
    "epsilon": ("epsilon", lambda eps: repr(float(eps)), float),
    "seed": ("seed", str, int),
    "replicates": ("replicates", str, int),
    "max_replicates": ("max_replicates", str, int),
    "x": ("x", lambda x: repr(float(x)), float),
    "t": ("t", lambda t: repr(float(t)), float),
    "a": ("a", lambda a: repr(float(a)), float),
    "workers": ("workers", str, int),
}
CONFIG_KEYS = tuple(key for key, _, _ in _FIELD_TEXT.values())
# keys only a Monte Carlo run reads
_MONTE_CARLO_KEYS = {"seed", "max_replicates"}


def _parse_value(key: str, parse, text: str):
    """One key's value from its text, a ValueError naming the key."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def parse_config_file(path) -> dict:
    """Flat key=value file; blank lines and # comments ignored."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {text!r}")
            key, _, value = map(str.strip, text.partition("="))
            if key in out:
                raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
            out[key] = value
    return out


def config_hash(config: dict) -> str:
    """Hex SHA-256 of every ``key=value`` of a flat mapping, in key order;
    a report's is the hash of its ``parameters``."""
    lines = [f"{key}={config[key]}" for key in sorted(config)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated comparison-experiment settings; building one also sets
    ``law``, ``limit_query`` and ``horizons``, the (n, m, C) of every
    horizon, and asks each its table's first question,
    ``series.check_horizon``; no pass runs.  Each field then holds its
    canonical value (the ints of ``errors.whole_number``, the parsed
    law's label, the ``Regime``), so every spelling has one config
    hash.  The window keeps ``x`` and ``phi`` (``sqrt`` when unset), the
    band ``t`` and ``a``, and the other regime's values are None: what
    no run reads is not hashed.
    ``seed`` and ``max_replicates`` keep their values but are written
    and hashed only when ``replicates > 0``, so ``dataclasses.replace``
    back to a Monte Carlo config still has them."""

    regime: Regime = Regime.SMALL_PHI
    law_label: str = "linear_fractional"
    n_grid: tuple = ()
    x: float | None = None
    t: float | None = None
    a: float | None = None
    phi: PhiSpec | None = None
    epsilon: float = EPSILON_DEFAULT
    seed: int = 0
    replicates: int = 0
    max_replicates: int = MAX_REPLICATES_DEFAULT
    workers: int = 1

    def __post_init__(self):
        if not self.n_grid:
            raise ValueError("n_grid must be nonempty")
        grid = tuple(whole_number("n_grid horizon", n, 2) for n in self.n_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"n_grid must be strictly increasing, got {self.n_grid}")
        check_epsilon(self.epsilon)
        max_replicates, seed, workers = check_run_settings(
            self.max_replicates, self.seed, self.workers
        )
        query = LimitQuery(self.regime, x=self.x, t=self.t, a=self.a)
        law = law_from_name(self.law_label)
        for name, value in dict(
            n_grid=grid, replicates=whole_number("replicates", self.replicates),
            max_replicates=max_replicates, seed=seed, workers=workers,
            law_label=law.label, law=law, regime=query.regime, limit_query=query,
            x=query.x, t=query.t, a=query.a,
            phi=None if query.x is None else self.phi or parse_phi("sqrt"),
        ).items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "horizons", tuple(
            (n, *_experiment_geometry(self, n)) for n in self.n_grid
        ))
        # before any table, so no horizon is computed before a refusal
        for n in grid:
            series.check_horizon(n)

    @classmethod
    def from_mapping(cls, raw: dict) -> "ExperimentConfig":
        """Config from a flat mapping of strings, the form ``to_mapping``
        writes plus ``workers``; an unknown key is a ValueError, and a
        missing or None entry keeps the field's default."""
        unknown = sorted(set(raw).difference(CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        return cls(**{
            name: _parse_value(key, parse, str(raw[key]))
            for name, (key, _, parse) in _FIELD_TEXT.items()
            if raw.get(key) is not None
        })

    def to_mapping(self) -> dict:
        """Flat text form of every set field outside CONFIG_HASH_EXCLUDE;
        ``seed`` and ``max_replicates`` only when Monte Carlo runs
        (``replicates > 0``), since no other run reads them."""
        unread = CONFIG_HASH_EXCLUDE | (set() if self.replicates else _MONTE_CARLO_KEYS)
        out = {}
        for name, (key, text, _) in _FIELD_TEXT.items():
            value = getattr(self, name)
            if key not in unread and value is not None:
                out[key] = text(value)
        return out


@dataclass(frozen=True)
class ComparisonReport:
    """Per-horizon comparison rows plus pass/fail verdicts."""

    experiment_id: str
    config_hash: str
    law_id: str
    regime: str
    parameters: dict
    rows: tuple
    verdicts: tuple
    version: str
    timestamp: str

    def to_json_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "config_hash": self.config_hash,
            "law": self.law_id,
            "regime": self.regime,
            "parameters": self.parameters,
            "rows": list(self.rows),
            "verdicts": list(self.verdicts),
            "version": self.version,
            "timestamp": self.timestamp,
        }

    def csv_rows(self):
        yield list(self.rows[0])
        for row in self.rows:
            yield list(row.values())


def format_report_summary(report: ComparisonReport) -> str:
    lines = [
        f"experiment {report.experiment_id}  law={report.law_id} "
        f"regime={report.regime}  config_hash={report.config_hash[:12]}"
    ]
    for row in report.rows:
        parts = [
            f"n={row['n']}",
            f"m={row['m']}",
            f"C={row['C']}",
            f"tv_exact_limit={row['tv_exact_limit']:.6f}",
            f"gf_supnorm={row['gf_supnorm']:.6f}",
        ]
        if "tv_mc_exact" in row:
            parts.append(
                f"tv_mc_exact={row['tv_mc_exact']:.6f}(se {row['tv_mc_se']:.6f})"
            )
        lines.append("  ".join(parts))
    for verdict in report.verdicts:
        status = "pass" if verdict["passed"] else "FAIL"
        lines.append(
            f"[{status}] {verdict['criterion']}: value={verdict['value']}"
            f" threshold={verdict['threshold']}"
        )
    return "\n".join(lines)


def _row_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def empirical_pmf(samples: np.ndarray, j_max: int) -> np.ndarray:
    """Relative frequencies of counts 1..j_max; overflow left to tails."""
    counts = np.bincount(samples, minlength=j_max + 1)
    return counts[1 : j_max + 1] / len(samples)


def bootstrap_tv_se(samples: np.ndarray, exact_pmf: np.ndarray, seed: int) -> float:
    """Bootstrap standard error of the empirical-vs-exact TV distance.

    Resampling N iid replicates with replacement is a multinomial draw
    over the observed cells, which keeps the loop fully vectorized.
    """
    n_samples = len(samples)
    j_max = len(exact_pmf)
    cells = np.bincount(np.minimum(samples, j_max + 1), minlength=j_max + 2)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB007)))
    draws = rng.multinomial(n_samples, cells / n_samples, size=BOOTSTRAP_RESAMPLES)
    exact_cells = np.append(exact_pmf, max(0.0, 1.0 - exact_pmf.sum()))
    emp = draws[:, 1:] / n_samples
    tvs = 0.5 * np.abs(emp - exact_cells).sum(axis=1)
    return float(tvs.std(ddof=1))


def _whole(name: str, value: float, n: int) -> int:
    """floor(value), refused when value is too large for a float."""
    if not math.isfinite(value):
        raise ValueError(f"{name} overflows at n={n}")
    return int(math.floor(value))


def _experiment_geometry(config: ExperimentConfig, n: int):
    """(m, C) for one horizon under the configured regime."""
    B = config.law.half_variance
    if config.regime is Regime.SMALL_PHI:
        width = config.phi.window(n)
        C = int(math.floor(B * width))
        reach = config.x * width
        lookback = _whole("look-back x * phi(n)", reach, n)
        if not 1 <= lookback <= n:
            raise ValueError(
                f"look-back x * phi(n) = {reach:.6g} at x={config.x!r} "
                f"outside [1, {n}] at n={n}"
            )
        m = n - lookback
    else:
        C = _whole("bound a * B * n", config.a * B * n, n)
        m = int(math.floor(config.t * n))
    if C < 1:
        raise ValueError(
            f"bound {C} below 1 at n={n}; the horizon is too small for the window"
        )
    return m, C


def run_experiment(config: ExperimentConfig) -> ComparisonReport:
    """Execute one comparison experiment and assemble its report."""
    law = config.law
    query = config.limit_query
    limit_pmf = query.pmf_values()

    rows = []
    for index, (n, m, C) in enumerate(config.horizons):
        table = conditional_reduced_pmf(law, m, n, C, epsilon=config.epsilon)
        row = {
            "n": n,
            "m": m,
            "C": C,
            "epsilon": config.epsilon,
            "mass_accounted": float(table.mass_accounted),
            "tv_exact_limit": tv_distance(table.pmf, limit_pmf),
            "gf_supnorm": gf_supnorm(table.pmf, query.gf),
        }
        if config.replicates > 0:
            seed = _row_seed(config.seed, index)
            batch = run_conditioned_batch(
                law,
                n,
                C,
                [m],
                target_accepted=config.replicates,
                max_replicates=config.max_replicates,
                seed=seed,
                workers=config.workers,
            )
            if batch.accepted == 0:
                raise ValueError(f"no replicate accepted at n={n} in {batch.replicates}"
                                 " replicates drawn; raise max_replicates")
            samples = batch.reduced_counts[:, 0]
            row.update(
                mc_replicates=int(batch.replicates),
                mc_accepted=int(batch.accepted),
                mc_seed=seed,
                tv_mc_exact=tv_distance(
                    empirical_pmf(samples, table.j_max), table.pmf
                ),
                tv_mc_se=bootstrap_tv_se(samples, table.pmf, seed),
                acceptance_rate=float(batch.acceptance_rate),
                acceptance_expected=table.event_prob,
            )
        rows.append(row)

    verdicts = _build_verdicts(config, rows)
    raw = config.to_mapping()
    digest = config_hash(raw)
    return ComparisonReport(
        experiment_id=(
            f"{config.regime.value}-{config.law_label}-"
            f"n{config.n_grid[0]}to{config.n_grid[-1]}-{digest[:8]}"
        ),
        config_hash=digest,
        law_id=config.law_label,
        regime=config.regime.value,
        parameters=raw,
        rows=tuple(rows),
        verdicts=tuple(verdicts),
        version=VERSION,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    )


def _verdict(criterion: str, value, threshold, passed) -> dict:
    return {
        "criterion": criterion,
        "value": value,
        "threshold": threshold,
        "passed": bool(passed),
    }


def _build_verdicts(config: ExperimentConfig, rows) -> list:
    verdicts = []
    tvs = [row["tv_exact_limit"] for row in rows]
    if len(tvs) > 1:
        verdicts.append(_verdict(
            "tv_exact_vs_limit_decreasing",
            ",".join(f"{v:.6f}" for v in tvs),
            "strictly decreasing in n",
            all(b < a for a, b in zip(tvs, tvs[1:])),
        ))
    verdicts.append(_verdict(
        "tv_exact_vs_limit_final",
        f"{tvs[-1]:.6f}",
        FINAL_THRESHOLD,
        tvs[-1] < FINAL_THRESHOLD,
    ))
    sups = [row["gf_supnorm"] for row in rows]
    verdicts.append(_verdict(
        "gf_supnorm_final",
        f"{sups[-1]:.6f}",
        FINAL_THRESHOLD,
        sups[-1] < FINAL_THRESHOLD,
    ))
    if config.replicates > 0:
        for row in rows:
            margin = 4.0 * row["tv_mc_se"] + 0.01
            verdicts.append(_verdict(
                f"mc_tv_near_exact_n{row['n']}",
                f"{row['tv_mc_exact']:.6f}",
                f"{margin:.6f}",
                row["tv_mc_exact"] < margin,
            ))
            rate = row["acceptance_rate"]
            expected = row["acceptance_expected"]
            se = math.sqrt(max(expected * (1 - expected), 1e-300) / row["mc_replicates"])
            verdicts.append(_verdict(
                f"acceptance_rate_within_4se_n{row['n']}",
                f"{rate:.8f} vs {expected:.8f}",
                f"4se={4 * se:.8f}",
                abs(rate - expected) < 4 * se,
            ))
    return verdicts
