"""Distances, config plumbing, comparison reports, and the CLI."""

import argparse
import dataclasses
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwreduced import (
    AcceptanceBudgetExhausted,
    ExperimentConfig,
    PhiSpec,
    Regime,
    bootstrap_tv_se,
    config_hash,
    empirical_pmf,
    gf_supnorm,
    parse_config_file,
    parse_phi,
    run_experiment,
    tv_distance,
)
from gwreduced import cli, harness, series
from gwreduced.cli import cli_main
from gwreduced.harness import CONFIG_HASH_EXCLUDE, CONFIG_KEYS
from gwreduced.limits import GF_GRID, LimitQuery
from gwreduced.offspring import make_builtin
from gwreduced.reduced import conditional_reduced_pmf, reduced_pmf


class TestTVDistance:
    def test_identical_tables(self):
        p = [0.5, 0.25, 0.125]
        assert tv_distance(p, p) == 0.0

    def test_disjoint_supports(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_point_mass_vs_leaked_mass(self):
        delta = 0.125
        assert tv_distance([1.0], [1.0 - delta, delta]) == pytest.approx(delta)

    def test_unaccounted_mass_lumps_into_tail(self):
        # tails 0.5 and 0.2 contribute |0.3|/2 on top of the cell term
        assert tv_distance([0.5], [0.5, 0.3]) == pytest.approx(0.3)

    def test_symmetry_and_length_padding(self):
        p = [0.3, 0.3]
        q = [0.2, 0.2, 0.2, 0.2]
        assert tv_distance(p, q) == pytest.approx(tv_distance(q, p))

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
    )
    def test_range_and_identity(self, wp, wq):
        p = np.array(wp) / (sum(wp) + 0.5)
        q = np.array(wq) / (sum(wq) + 0.5)
        d = tv_distance(p, q)
        assert 0.0 <= d <= 1.0
        assert tv_distance(p, p) == 0.0


class TestGfSupnorm:
    def test_geometric_table_gf(self):
        # sum_j s^j (1-t) t^{j-1} = s(1-t)/(1-ts)
        t = 0.5
        pmf = [(1 - t) * t ** (j - 1) for j in range(1, 200)]
        assert gf_supnorm(pmf, lambda s: s * (1 - t) / (1 - t * s)) < 1e-12

    def test_supnorm_zero_for_equal_functions(self):
        # the point mass at j = 1 has the gf s
        assert gf_supnorm([1.0], lambda s: s) == 0.0

    def test_supnorm_picks_largest_deviation(self):
        # s + 0.02 s^2 departs from s most at s = 1
        assert gf_supnorm([1.0], lambda s: s + 0.02 * s * s) == pytest.approx(0.02)


class TestPhiSpec:
    def test_sqrt_window(self):
        phi = parse_phi("sqrt")
        assert phi.param == 0.5
        assert phi.window(100) == 10
        assert phi.window(2000) == 45  # ceil(44.72)

    def test_power_window(self):
        phi = parse_phi("n^0.6")
        assert phi.param == 0.6
        assert phi.window(1000) == math.ceil(1000 ** 0.6)

    def test_whitespace_tolerated(self):
        assert parse_phi(" n^0.5 ").param == 0.5

    @pytest.mark.parametrize("p", [0.5, 0.6, 0.1 + 0.2, 1e-05])
    def test_text_form_round_trips(self, p):
        # the text is sqrt or n^ and repr(p), which for a small p has an
        # exponent
        assert parse_phi(str(PhiSpec(p))) == PhiSpec(p)
        assert (str(PhiSpec(p)) == "sqrt") == (p == 0.5)

    @pytest.mark.parametrize(
        "bad", ["n^1.2", "n^0", "n^1", "0*n", "0.5*n", "log n", "2n", ""]
    )
    def test_rejects_bad_expressions(self, bad):
        with pytest.raises(ValueError):
            parse_phi(bad)


class TestConfigHash:
    BASE = {
        "regime": "small_phi",
        "law": "linear_fractional",
        "n_grid": "100,200",
        "x": "1.0",
        "seed": "0",
    }

    def test_stable_across_runs(self):
        assert config_hash(dict(self.BASE)) == config_hash(dict(self.BASE))

    def test_ignores_output_and_worker_keys(self, tmp_path, capsys):
        # workers is not written, and --out and --format only say where
        # and how the report goes, so none of them moves a report's hash
        plain = ExperimentConfig(n_grid=(100,), x=1.0)
        digest = config_hash(plain.to_mapping())
        assert config_hash(dataclasses.replace(plain, workers=8).to_mapping()) == digest
        argv = ["compare", "--n", "100", "--x", "1"]
        cli_main(argv)
        bare = capsys.readouterr().out
        assert f"config_hash={digest[:12]}" in bare
        for fmt in ("json", "csv"):
            cli_main(argv + ["--format", fmt, "--out", str(tmp_path / f"r.{fmt}")])
            assert capsys.readouterr().out == bare
        assert json.loads((tmp_path / "r.json").read_text())["config_hash"] == digest

    def test_sensitive_to_semantic_keys(self):
        other = dict(self.BASE, seed="1")
        assert config_hash(other) != config_hash(dict(self.BASE))

    def test_key_order_irrelevant(self):
        reordered = dict(reversed(list(self.BASE.items())))
        assert config_hash(reordered) == config_hash(dict(self.BASE))

    @pytest.mark.parametrize(
        "base, unread",
        [
            (ExperimentConfig(n_grid=(100, 200), x=1.0), {"t", "a"}),
            (
                ExperimentConfig(
                    regime=Regime.LINEAR_BAND, n_grid=(100, 200), t=0.5, a=1.0,
                    replicates=50,
                ),
                {"x", "phi"},
            ),
        ],
        ids=["window", "band"],
    )
    def test_every_semantic_field_changes_the_hash(self, base, unread):
        # one changed value per dataclass field; a new field without an
        # entry here fails the test until its effect on the hash is known.
        # The other regime's parameters are dropped and move no hash; a
        # changed regime brings its own parameters.  Without Monte Carlo
        # (the window base) seed and max_replicates are kept but not hashed
        to_other_regime = {
            Regime.SMALL_PHI: dict(regime=Regime.LINEAR_BAND, t=0.5, a=1.0),
            Regime.LINEAR_BAND: dict(regime=Regime.SMALL_PHI, x=1.0),
        }[base.regime]
        changed = {
            "law_label": "poisson",
            "n_grid": (100, 300),
            "x": 2.0,
            "t": 0.25,
            "a": 2.0,
            "phi": parse_phi("n^0.4"),
            "epsilon": 1e-8,
            "seed": 1,
            "replicates": 10,
            "max_replicates": 1000,
            "workers": 2,
        }
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert fields == set(changed) | {"regime"}
        monte_carlo_only = set() if base.replicates else {"seed", "max_replicates"}
        base_hash = config_hash(base.to_mapping())
        for name in sorted(fields):
            change = to_other_regime if name == "regime" else {name: changed[name]}
            other = dataclasses.replace(base, **change)
            same = config_hash(other.to_mapping()) == base_hash
            assert same == (name in CONFIG_HASH_EXCLUDE | unread | monte_carlo_only), name
            assert (other == base) == (name in unread), name

    def test_monte_carlo_settings_are_hashed_only_with_replicates(self):
        plain = ExperimentConfig(n_grid=(100,), x=1.0)
        given = dataclasses.replace(plain, seed=5, max_replicates=10)
        assert (given.seed, given.max_replicates) == (5, 10)
        assert given.to_mapping() == plain.to_mapping()
        assert config_hash(given.to_mapping()) == config_hash(plain.to_mapping())
        # replaced back to a Monte Carlo config, the kept values count
        sampled = dataclasses.replace(given, replicates=10)
        assert sampled.to_mapping()["seed"] == "5"
        assert sampled.to_mapping()["max_replicates"] == "10"
        assert config_hash(sampled.to_mapping()) != config_hash(
            dataclasses.replace(plain, replicates=10).to_mapping()
        )


    # to_mapping text and config_hash of two configs; a change here
    # changes every report's config_hash and experiment_id
    PINNED = [
        (
            ExperimentConfig(
                regime=Regime.SMALL_PHI,
                law_label="ternary_uniform",
                n_grid=(100, 400),
                x=2.0,
                phi=parse_phi("n^0.6"),
            ),
            [
                ("regime", "small_phi"),
                ("law", "ternary_uniform"),
                ("n_grid", "100,400"),
                ("phi", "n^0.6"),
                ("epsilon", "1e-09"),
                ("replicates", "0"),
                ("x", "2.0"),
            ],
            "53b50d27005c21f63005f26f1ee9b6a064d05a6b820348c324437569c36f2140",
        ),
        (
            ExperimentConfig(
                regime=Regime.LINEAR_BAND,
                law_label="poisson",
                n_grid=(60, 120),
                t=0.5,
                a=1.5,
                replicates=200,
                seed=3,
                workers=2,
            ),
            [
                ("regime", "linear_band"),
                ("law", "poisson"),
                ("n_grid", "60,120"),
                ("epsilon", "1e-09"),
                ("seed", "3"),
                ("replicates", "200"),
                ("max_replicates", "100000000"),
                ("t", "0.5"),
                ("a", "1.5"),
            ],
            "7079568fa6ca13809be82848558ccfdac34386581a22c3ac20d91f535f464e1d",
        ),
    ]

    @pytest.mark.parametrize("index", range(len(PINNED)))
    def test_text_form_and_hash_are_pinned(self, index):
        config, items, digest = self.PINNED[index]
        mapping = config.to_mapping()
        assert list(mapping.items()) == items
        assert config_hash(mapping) == digest

    @pytest.mark.parametrize(
        "key, spellings",
        [
            ("phi", ["sqrt", "n^0.5", "n^.5", "n^0.50", " N^0.5 "]),
            ("law", ["poisson", " poisson"]),
            ("law", ["custom:0.25,0.5,0.25", "custom:0.25, 0.5, 0.25",
                     "custom:0.25,0.5,0.25,0"]),
            ("x", ["1", "1.0", "1e0"]),
        ],
        ids=["phi", "law", "custom-law", "x"],
    )
    def test_one_hash_per_value_however_spelled(self, key, spellings):
        base = {"regime": "small_phi", "n_grid": "100,400", "x": "1"}
        mappings = [
            ExperimentConfig.from_mapping(dict(base, **{key: text})).to_mapping()
            for text in spellings
        ]
        assert len({mapping[key] for mapping in mappings}) == 1
        assert len({config_hash(mapping) for mapping in mappings}) == 1

    def test_built_values_are_written_canonically(self):
        # integral floats, numpy numbers and a padded law name build the
        # config that plain values build, and write the same text
        plain = ExperimentConfig(n_grid=(100, 400), x=1.0, seed=3, workers=2)
        spelled = ExperimentConfig(
            law_label=" linear_fractional",
            n_grid=(100.0, np.int64(400)),
            x=np.float64(1),
            phi=parse_phi("n^0.50"),
            seed=3.0,
            workers=np.int64(2),
        )
        assert spelled == plain
        assert spelled.to_mapping() == plain.to_mapping()
        assert type(spelled.seed) is int and type(spelled.n_grid[1]) is int
        # workers is not written, nor seed without Monte Carlo, so the
        # text builds their defaults
        reread = ExperimentConfig.from_mapping(spelled.to_mapping())
        assert reread == dataclasses.replace(plain, workers=1, seed=0)

    @pytest.mark.parametrize(
        "index, unread",
        [(0, dict(t=0.5, a=1.0)), (1, dict(x=3.0, phi=parse_phi("n^0.3")))],
        ids=["window", "band"],
    )
    def test_other_regime_values_are_dropped(self, index, unread):
        # values the regime never reads build the config, text form,
        # hash, limit law and horizons of the config without them
        config, _, digest = self.PINNED[index]
        given = dataclasses.replace(config, **unread)
        assert given == config
        assert given.to_mapping() == config.to_mapping()
        assert config_hash(given.to_mapping()) == digest
        assert given.limit_query == config.limit_query
        assert given.horizons == config.horizons

    @pytest.mark.parametrize("index", range(len(PINNED)))
    def test_regime_text_builds_the_enum_config(self, index):
        # a regime given as its text builds the config, text form, hash
        # and limit law of the Regime
        config, _, digest = self.PINNED[index]
        spelled = dataclasses.replace(config, regime=config.regime.value)
        assert spelled == config and spelled.regime is config.regime
        assert spelled.to_mapping() == config.to_mapping()
        assert config_hash(spelled.to_mapping()) == digest
        assert spelled.limit_query == config.limit_query


class TestConfigParsing:
    def test_key_value_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# comparison run\n"
            "regime = small_phi\n"
            "law=linear_fractional\n"
            "\n"
            "n_grid = 100,200\n"
            "x = 1.0\n"
        )
        parsed = parse_config_file(cfg)
        assert parsed == {
            "regime": "small_phi",
            "law": "linear_fractional",
            "n_grid": "100,200",
            "x": "1.0",
        }

    def test_rejects_lines_without_equals(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("regime small_phi\n")
        with pytest.raises(ValueError, match="key=value"):
            parse_config_file(cfg)

    def test_rejects_a_repeated_key(self, tmp_path):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("regime=small_phi\nx=1\nn_grid=100\nx = 4\n")
        with pytest.raises(ValueError, match=r"twice\.cfg:4: key 'x' given twice$"):
            parse_config_file(cfg)

    def test_from_mapping_requires_x_for_sublinear_window(self):
        with pytest.raises(ValueError, match="needs x"):
            ExperimentConfig.from_mapping(
                {"regime": "small_phi", "n_grid": "100"}
            )

    def test_from_mapping_rejects_linear_window_in_small_phi(self):
        with pytest.raises(ValueError, match="sublinear"):
            ExperimentConfig.from_mapping(
                {"regime": "small_phi", "n_grid": "100", "x": "1", "phi": "0.5*n"}
            )

    def test_from_mapping_requires_band_parameters(self):
        with pytest.raises(ValueError, match="t and a"):
            ExperimentConfig.from_mapping(
                {"regime": "linear_band", "n_grid": "100", "t": "0.5"}
            )

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"regime": "small_phi", "x": "0"}, "x must be positive"),
            ({"regime": "linear_band", "t": "1.0", "a": "1"}, "outside"),
            ({"regime": "linear_band", "t": "0.5", "a": "-1"}, "a must be positive"),
        ],
    )
    def test_from_mapping_checks_limit_parameters(self, raw, message):
        # checked when the config is built, not first in run_experiment
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_mapping(dict(raw, n_grid="100"))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("replicates", "-5"),
            ("seed", "-1"),
            ("epsilon", "-1"),
            ("epsilon", "0"),
            ("epsilon", "1"),
            ("n_grid", ""),
            ("epsilon", "nan"),
            ("max_replicates", "0"),
            ("n_grid", "2000,500"),
            ("n_grid", "500,500"),
            ("workers", "0"),
            ("workers", "-4"),
        ],
    )
    def test_from_mapping_checks_every_field(self, key, value):
        raw = {"regime": "small_phi", "n_grid": "100", "x": "1", key: value}
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_mapping(raw)

    def test_unknown_key_is_rejected(self):
        raw = {"regime": "small_phi", "n_grid": "100", "x": "1",
               "replicatse": "500", "seed": "1"}
        with pytest.raises(ValueError, match="replicatse"):
            ExperimentConfig.from_mapping(raw)

    @pytest.mark.parametrize("key, value", [("s_grid", "0.5"), ("tv_threshold", "0.1")])
    def test_scoring_keys_are_refused(self, key, value):
        # the gf grid and the final threshold score a report; neither is
        # a config key
        raw = {"regime": "small_phi", "n_grid": "100", "x": "1", key: value}
        with pytest.raises(ValueError, match=f"unknown config key\\(s\\): {key}$"):
            ExperimentConfig.from_mapping(raw)

    @pytest.mark.parametrize("epsilon", [-1.0, 0.0, 1.0, math.nan])
    def test_epsilon_rule_is_the_tables(self, epsilon):
        # a config refuses the epsilon a table refuses, in the same words
        with pytest.raises(ValueError) as table_error:
            reduced_pmf(make_builtin("linear_fractional"), 5, 10, epsilon=epsilon)
        with pytest.raises(ValueError) as config_error:
            ExperimentConfig(n_grid=(100,), x=1.0, epsilon=epsilon)
        assert str(config_error.value) == str(table_error.value)

    def test_mapping_round_trips(self):
        # every field but workers (absent from to_mapping) off its default
        config = ExperimentConfig(
            regime=Regime.LINEAR_BAND,
            law_label="poisson",
            n_grid=(100, 300),
            x=2.0,
            t=0.25,
            a=2.0,
            phi=parse_phi("n^0.4"),
            epsilon=1e-8,
            seed=1,
            replicates=10,
            max_replicates=1000,
        )
        assert ExperimentConfig.from_mapping(config.to_mapping()) == config

    def test_rejects_tiny_horizons(self):
        with pytest.raises(ValueError, match="at least 2"):
            ExperimentConfig.from_mapping(
                {"regime": "small_phi", "n_grid": "1", "x": "1"}
            )


class TestBootstrap:
    def test_empirical_pmf_counts(self):
        samples = np.array([1, 1, 2, 3, 3, 3, 9])
        emp = empirical_pmf(samples, 3)
        assert emp == pytest.approx(np.array([2, 1, 3]) / 7)

    def test_se_positive_and_deterministic(self):
        rng = np.random.default_rng(5)
        samples = rng.geometric(0.5, size=4000)
        exact = np.array([0.5 * 0.5 ** (j - 1) for j in range(1, 30)])
        se1 = bootstrap_tv_se(samples, exact, seed=11)
        se2 = bootstrap_tv_se(samples, exact, seed=11)
        assert se1 == se2
        assert 0.0 < se1 < 0.05

    def test_se_shrinks_with_sample_size(self):
        rng = np.random.default_rng(6)
        exact = np.array([0.5 * 0.5 ** (j - 1) for j in range(1, 30)])
        small = bootstrap_tv_se(rng.geometric(0.5, 500), exact, seed=3)
        large = bootstrap_tv_se(rng.geometric(0.5, 50_000), exact, seed=3)
        assert large < small


def _small_phi_config(**overrides):
    raw = {
        "regime": "small_phi",
        "law": "linear_fractional",
        "n_grid": "100,200,400",
        "x": "1.0",
        "phi": "sqrt",
        "seed": "0",
    }
    raw.update(overrides)
    return ExperimentConfig.from_mapping(raw)


def _band_mc_config(**overrides):
    raw = {
        "regime": "linear_band",
        "law": "ternary_uniform",
        "n_grid": "16,24",
        "t": "0.5",
        "a": "1.0",
        "replicates": "300",
        "seed": "9",
    }
    raw.update(overrides)
    return ExperimentConfig.from_mapping(raw)


def _spy_on_work(monkeypatch):
    """Record, in order, each exact table, batch and limit pmf built."""
    calls = []
    for owner, name, tag in (
        (harness, "conditional_reduced_pmf", "table"),
        (harness, "run_conditioned_batch", "batch"),
        (LimitQuery, "pmf_values", "limit"),
    ):
        def spy(*args, _real=getattr(owner, name), _tag=tag, **kwargs):
            calls.append(_tag)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    return calls


class TestRunExperiment:
    def test_small_phi_geometry_and_rows(self):
        report = run_experiment(_small_phi_config())
        assert report.regime == "small_phi"
        assert [row["n"] for row in report.rows] == [100, 200, 400]
        first = report.rows[0]
        # windows: phi(100)=10, C=floor(B*10)=10 for B=1, m=100-10=90
        assert (first["m"], first["C"]) == (90, 10)
        assert 0.0 <= first["tv_exact_limit"] <= 1.0
        assert first["mass_accounted"] == pytest.approx(1.0, abs=1e-6)

    def test_tv_decreases_toward_limit(self):
        report = run_experiment(_small_phi_config())
        tvs = [row["tv_exact_limit"] for row in report.rows]
        assert tvs[0] > tvs[1] > tvs[2]
        names = {v["criterion"]: v["passed"] for v in report.verdicts}
        assert names["tv_exact_vs_limit_decreasing"]

    def test_band_geometry(self):
        report = run_experiment(_band_mc_config(replicates="0"))
        first = report.rows[0]
        # ternary B=1/4: C=floor(1*0.25*16)=4, m=floor(0.5*16)=8
        assert (first["m"], first["C"]) == (8, 4)

    def test_exact_only_report_has_no_mc_fields(self):
        report = run_experiment(_small_phi_config())
        assert all("tv_mc_exact" not in row for row in report.rows)

    def test_deterministic_rerun(self):
        a = run_experiment(_small_phi_config()).to_json_dict()
        b = run_experiment(_small_phi_config()).to_json_dict()
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b

    def test_mc_rows_and_worker_independence(self):
        one = run_experiment(_band_mc_config(workers="1")).to_json_dict()
        two = run_experiment(_band_mc_config(workers="2")).to_json_dict()
        one.pop("timestamp")
        two.pop("timestamp")
        assert one == two
        row = one["rows"][0]
        assert row["mc_accepted"] >= 300
        assert row["tv_mc_se"] > 0.0
        assert abs(row["acceptance_rate"] - row["acceptance_expected"]) < 0.05

    @pytest.mark.parametrize(
        "make", [_small_phi_config, lambda: _band_mc_config(replicates="0"),
                 _band_mc_config],
        ids=["window", "band", "monte-carlo"],
    )
    def test_config_hash_is_the_hash_of_the_parameters(self, make):
        report = run_experiment(make())
        assert report.config_hash == config_hash(report.parameters)

    def test_report_json_round_trips(self, tmp_path):
        from gwreduced import write_output

        exact_only = run_experiment(_small_phi_config(n_grid="100"))
        with_mc = run_experiment(_band_mc_config(replicates="50"))
        for report, first_n in ((exact_only, 100), (with_mc, 16)):
            jpath = tmp_path / "report.json"
            cpath = tmp_path / "report.csv"
            write_output(report.to_json_dict(), jpath)
            write_output(report.csv_rows(), cpath)
            payload = json.loads(jpath.read_text())
            assert payload["config_hash"] == report.config_hash
            assert payload["rows"][0]["n"] == first_n
            # the CSV columns are the JSON row keys, which every row shares
            keys = list(payload["rows"][0])
            assert all(list(row) == keys for row in payload["rows"])
            lines = cpath.read_text().splitlines()
            assert lines[0].split(",") == keys
            assert len(lines) == 1 + len(payload["rows"])
            assert all(len(line.split(",")) == len(keys) for line in lines)
            assert lines[0].startswith("n,m,C,epsilon")
            assert ("mc_seed" in keys) == (report is with_mc)

    @pytest.mark.parametrize(
        "raw, match",
        [
            ({"regime": "small_phi", "x": "1e308"}, r"x .*overflows"),
            ({"regime": "linear_band", "t": "0", "a": "1e308"}, r"a .*overflows"),
            # finite look-backs past generation 0 name x, not the generation
            ({"regime": "small_phi", "x": "1e300"},
             r"= 1e\+301 at x=1e\+300 outside \[1, 100\] at n=100"),
            ({"regime": "small_phi", "x": "11"},
             r"= 110 at x=11\.0 outside \[1, 100\] at n=100"),
        ],
        ids=["x-overflows", "a-overflows", "x-1e300", "x-11"],
    )
    def test_overflowing_geometry_is_user_error(self, raw, match):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_mapping(dict(raw, n_grid="100"))

    def test_window_too_small_is_user_error(self):
        with pytest.raises(ValueError, match="bound"):
            _small_phi_config(n_grid="4,8", law="ternary_uniform")

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["--law", "ternary_uniform", "--n", "400,4", "--x", "1",
              "--replicates", "500"], "error: "),
            (["--n", "100", "--x", "1e-7"], "error: "),
            (["--law", "nonsense", "--n", "100", "--x", "1"], "error: "),
            (["--regime", "linear_band", "--n", "100", "--t", "0", "--a", "1e308"],
             "error: "),
            # the n = 400 horizon is cheap, but the sweep of the n = 1e10
            # one is over the budget: refused with the message its table
            # would give, before the n = 400 work
            (["--law", "ternary_uniform", "--n", "400,10000000000", "--x", "1",
              "--replicates", "500"],
             "error: a pass of 20000000000 steps at degree 1 exceeds cap 1e+11, "
             "which admits 4999750\n"),
            # the subtree pass of the n = 1e7 window horizon is only 31
            # steps at degree C = 3163, but its table sweeps 1e7 generations
            (["--n", "10000000", "--x", "0.01"],
             "error: a pass of 20000000 steps at degree 1 exceeds cap"),
        ],
        ids=["ternary-400-4", "x-1e-7", "unknown-law", "a-1e308", "over-budget",
             "window-sweep-over-budget"],
    )
    def test_refused_config_starts_no_work(self, argv, err, monkeypatch, capsys):
        calls = _spy_on_work(monkeypatch)
        start = time.perf_counter()
        assert cli_main(["compare", *argv]) == 1
        assert time.perf_counter() - start < 0.1
        assert capsys.readouterr().err.startswith(err)
        assert calls == []

    def test_split_band_horizon_is_accepted(self):
        # 4000 steps at degree C = 8000 are over the budget, but the
        # table splits at r0 = 256 and the config prices no pass
        config = ExperimentConfig.from_mapping(
            {"regime": "linear_band", "t": "0.5", "a": "1", "n_grid": "8000"}
        )
        assert config.horizons == ((8000, 4000, 8000),)

    def test_table_passes_are_priced_only_by_the_table(self, monkeypatch, capsys):
        # at the least cap that admits the horizon, the config accepts
        # it; the table's degree-800 pass can afford 24 of its 200 steps,
        # too few for a split, and is refused once the table builds it
        monkeypatch.setattr(series, "DEFAULT_COST_CAP", 2 * 400 * (1 + series.STEP_COST))
        argv = ["--regime", "linear_band", "--t", "0.5", "--a", "2", "--n", "400"]
        calls = _spy_on_work(monkeypatch)
        assert cli_main(["compare", *argv]) == 1
        assert capsys.readouterr().err == (
            f"error: no split generation qualifies within the {series.step_allowance(800)} "
            "of 200 steps at degree 800 that the budget allows\n"
        )
        assert calls == ["limit", "table"]
        monkeypatch.setattr(series, "DEFAULT_COST_CAP", 2 * 400 * (1 + series.STEP_COST) - 1)
        calls.clear()
        assert cli_main(["compare", *argv]) == 1
        assert calls == []

    def test_limit_pmf_comes_first(self, monkeypatch):
        # one limit pmf serves every horizon
        calls = _spy_on_work(monkeypatch)
        run_experiment(_band_mc_config(replicates="50"))
        assert calls == ["limit", "table", "batch", "table", "batch"]


class TestCli:
    def test_selftest_passes(self, capsys):
        assert cli_main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "all selftest checks passed" in out
        assert out.count("ok   ") == 9

    def test_selftest_failure_exits_2_and_names_the_check(self, monkeypatch, capsys):
        def broken():
            raise AssertionError("off by one")

        monkeypatch.setattr(cli, "_selftest_checks", lambda: [("broken", broken)])
        assert cli_main(["selftest"]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out == ["FAIL broken: off by one", "1 selftest check(s) failed"]

    def test_help_exits_zero(self):
        assert cli_main(["--help"]) == 0

    def test_missing_subcommand_is_user_error(self):
        assert cli_main([]) == 1

    def test_exact_over_budget_sweep_allocates_nothing(self, monkeypatch, capsys):
        # the sweep of 1e10 generations would ask numpy for 80 GB
        sized = []
        monkeypatch.setattr(np, "fromiter", lambda *args: sized.append(args[2:]))
        assert cli_main(["exact", "--n", "10000000000", "--m", "1", "--bound", "3"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: a pass of 20000000000 steps at degree 1 exceeds cap"
        )
        assert sized == []

    def test_unknown_law_is_user_error(self, capsys):
        code = cli_main(["exact", "--law", "nonsense", "--n", "4", "--m", "2"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_value_is_user_error(self):
        assert cli_main(["exact", "--law", "poisson", "--n", "x", "--m", "2"]) == 1

    def test_internal_failure_returns_two(self, capsys, monkeypatch):
        import gwreduced.cli as climod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(climod, "reduced_pmf", boom)
        code = cli_main(["exact", "--law", "poisson", "--n", "4", "--m", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "diagnostic dump" in err
        assert "synthetic fault" in err

    def test_refused_allocation_is_user_error(self, capsys, monkeypatch):
        # n = 1e10 passes every argument check, and its extinction
        # sequence asks for 74.5 GiB; a stand-in raises what numpy
        # raises, since a real request may be granted and start filling
        message = ("Unable to allocate 74.5 GiB for an array with shape "
                   "(10000000001,) and data type float64")

        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "conditional_reduced_pmf", refuse)
        code = cli_main(["exact", "--n", "10000000000", "--m", "1", "--bound", "3"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_exact_json_output(self, capsys):
        code = cli_main(
            ["exact", "--law", "linear_fractional", "--n", "4", "--m", "2"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pmf"][0] == pytest.approx(0.12)
        assert payload["C"] is None

    def test_exact_conditional_to_file(self, tmp_path):
        out = tmp_path / "table.json"
        code = cli_main(
            [
                "exact",
                "--law",
                "ternary_uniform",
                "--n",
                "6",
                "--m",
                "3",
                "--bound",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["C"] == 2
        assert sum(payload["pmf"]) == pytest.approx(1.0, abs=1e-8)

    def test_exact_csv_output(self, capsys):
        code = cli_main(
            [
                "exact",
                "--law",
                "linear_fractional",
                "--n",
                "4",
                "--m",
                "2",
                "--format",
                "csv",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "j,p"
        assert lines[1].startswith("1,0.12")

    def test_limits_json_duality(self, capsys):
        code = cli_main(["limits", "--regime", "small_phi", "--x", "1.0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        series = sum(
            0.5 ** j * p for j, p in enumerate(payload["pmf"], start=1)
        )
        assert payload["gf"]["0.5"] == pytest.approx(series, abs=1e-10)

    @pytest.mark.parametrize(
        "argv, key",
        [
            pytest.param(["exact", "--n", "20", "--m", "10", "--epsilon", "-1"],
                         "epsilon", id="exact-epsilon"),
            pytest.param(["limits", "--x", "inf", "--format", "csv"], "x",
                         id="limits-x-inf"),
            pytest.param(["limits", "--regime", "linear_band", "--t", "0.5",
                          "--a", "inf"], "a", id="limits-a-inf"),
            pytest.param(["compare", "--regime", "small_phi", "--n", "100",
                          "--x", "inf"], "x", id="compare-x-inf"),
            pytest.param(["compare", "--regime", "small_phi", "--n", "100",
                          "--x", "1e308"], "x", id="compare-x-1e308"),
            pytest.param(["compare", "--regime", "linear_band", "--n", "100",
                          "--t", "0.5", "--a", "1e308"], "a", id="compare-a-1e308"),
            pytest.param(["compare", "--regime", "small_phi", "--n", "100",
                          "--x", "1e300"], "x=1e+300", id="compare-x-1e300"),
            pytest.param(["compare", "--regime", "linear_band", "--n", "40",
                          "--t", "0.5", "--a", "1", "--x", "0"],
                         "error: x must be positive and finite, got 0.0",
                         id="compare-band-x-0"),
            pytest.param(["simulate", "--n", "10", "--bound", "3", "--seed", "-1"],
                         "seed", id="simulate-seed"),
            pytest.param(["compare", "--regime", "small_phi", "--n", "100", "--x",
                          "1", "--replicates", "10", "--seed", "-1"], "seed",
                         id="compare-seed"),
            pytest.param(["simulate", "--n", "10", "--bound", "3", "--m", "x"],
                         "--m", id="simulate-m"),
            pytest.param(["simulate", "--n", "20", "--bound", "3", "--replicates",
                          "5", "--workers", "-4"], "workers", id="simulate-workers"),
            pytest.param(["compare", "--n", "100", "--x", "one"],
                         "error: x: could not convert string to float: 'one'",
                         id="compare-x-text"),
            pytest.param(["compare", "--regime", "bogus", "--n", "100", "--x", "1"],
                         "error: regime: 'bogus' is not a valid Regime",
                         id="compare-regime-text"),
            pytest.param(["compare", "--n", "100,abc", "--x", "1"],
                         "error: n_grid: invalid literal for int() with base 10: 'abc'",
                         id="compare-n-grid-text"),
            pytest.param(["compare", "--config", "BAD_CONFIG"],
                         "error: x: could not convert string to float: 'one'",
                         id="compare-config-x-text"),
        ],
    )
    def test_bad_parameter_is_named(self, argv, key, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("regime=small_phi\nn_grid=100\nx=one\n")
        argv = [str(cfg) if tok == "BAD_CONFIG" else tok for tok in argv]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and key in captured.err

    @pytest.mark.parametrize("argv", [["exact", "--n", "20", "--m", "10"], ["limits"]])
    def test_row_count_flag_is_refused(self, argv, capsys):
        # a table's length comes only from epsilon or the limit's term ratio
        assert cli_main(argv + ["--j-max", "3"]) == 1
        assert "unrecognized arguments: --j-max 3" in capsys.readouterr().err

    def test_limits_band_csv(self, capsys):
        code = cli_main(
            [
                "limits",
                "--regime",
                "linear_band",
                "--t",
                "0.5",
                "--a",
                "1.0",
                "--format",
                "csv",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "j,p"
        rows = LimitQuery(Regime.LINEAR_BAND, t=0.5, a=1.0).pmf_values()
        assert len(lines) == len(rows) + 1

    def test_simulate_csv_columns(self, tmp_path):
        out = tmp_path / "batch.csv"
        code = cli_main(
            [
                "simulate",
                "--law",
                "ternary_uniform",
                "--n",
                "8",
                "--bound",
                "2",
                "--m",
                "4",
                "--replicates",
                "50",
                "--seed",
                "3",
                "--out",
                str(out),
                "--format",
                "csv",
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "replicate_id,terminal_size,mrca_distance,reduced_at_4"
        assert len(lines) >= 51

    def test_compare_with_config_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "regime=small_phi\nlaw=linear_fractional\nn_grid=100,200\nx=1.0\n"
        )
        out = tmp_path / "report.json"
        code = cli_main(
            [
                "compare",
                "--config",
                str(cfg),
                "--n",
                "100,200,400",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert [row["n"] for row in payload["rows"]] == [100, 200, 400]
        assert "tv_exact_vs_limit_final" in capsys.readouterr().out

    def test_compare_without_acceptances_is_user_error(self, monkeypatch, capsys):
        # refused before the empirical pmf and the bootstrap divide by
        # zero accepted replicates
        for name in ("empirical_pmf", "bootstrap_tv_se"):
            monkeypatch.setattr(harness, name, None)
        argv = ["compare", "--regime", "small_phi", "--n", "100", "--x", "1",
                "--replicates", "10", "--max-replicates", "40"]
        with pytest.warns(AcceptanceBudgetExhausted):
            assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: no replicate accepted at n=100 in 40 replicates drawn; "
            "raise max_replicates\n"
        )

    def test_every_compare_flag_reaches_the_config(self, monkeypatch):
        argv = [
            "compare", "--regime", "linear_band", "--law", "poisson",
            "--n", "50,60", "--x", "2.0", "--t", "0.25", "--a", "3.0",
            "--phi", "n^0.4", "--epsilon", "1e-7", "--replicates", "5",
            "--max-replicates", "99", "--seed", "4", "--workers", "2",
        ]
        compare = next(
            action.choices["compare"]
            for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        config_flags = [
            action
            for action in compare._actions
            if action.dest not in ("help", "config", "out", "format")
        ]
        assert sorted(action.dest for action in config_flags) == sorted(CONFIG_KEYS)
        for action in config_flags:
            assert action.option_strings[0] in argv, action.option_strings
            # every value is text, parsed by from_mapping like a file line
            assert action.type is None and action.choices is None, action.dest
        seen = []

        def capture(config):
            seen.append(config)
            raise ValueError("captured")

        monkeypatch.setattr(cli, "run_experiment", capture)
        assert cli_main(argv) == 1
        assert seen == [
            ExperimentConfig(
                regime=Regime.LINEAR_BAND,
                law_label="poisson",
                n_grid=(50, 60),
                x=2.0,
                t=0.25,
                a=3.0,
                phi=parse_phi("n^0.4"),
                epsilon=1e-7,
                replicates=5,
                max_replicates=99,
                seed=4,
                workers=2,
            )
        ]

    def test_config_typo_is_user_error(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("regime=small_phi\nn_grid=100\nx=1\nreplicatse=500\n")
        assert cli_main(["compare", "--config", str(cfg)]) == 1
        assert "replicatse" in capsys.readouterr().err

    @pytest.mark.parametrize("route", ["file", "flag"])
    @pytest.mark.parametrize("key, value", [("s_grid", "0.5"), ("tv_threshold", "0.1")])
    def test_compare_refuses_scoring_keys(
        self, key, value, route, tmp_path, monkeypatch, capsys
    ):
        calls = _spy_on_work(monkeypatch)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("regime=small_phi\nn_grid=100\nx=1\n")
        argv = ["compare", "--config", str(cfg)]
        if route == "file":
            cfg.write_text(cfg.read_text() + f"{key}={value}\n")
            want = f"error: unknown config key(s): {key}\n"
        else:
            flag = "--" + key.replace("_", "-")
            argv += [flag, value]
            want = f"unrecognized arguments: {flag} {value}\n"
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(want)
        assert calls == []

    @pytest.mark.parametrize(
        "limit_argv, n_grid",
        [
            (["--regime", "small_phi", "--x", "2.0"], "100,400"),
            (["--regime", "linear_band", "--t", "0.5", "--a", "1.0"], "40,80"),
        ],
        ids=["small_phi", "linear_band"],
    )
    def test_limits_and_compare_share_one_gf_grid(
        self, limit_argv, n_grid, tmp_path, capsys
    ):
        assert cli_main(["limits", *limit_argv, "--format", "json"]) == 0
        limit = json.loads(capsys.readouterr().out)
        assert GF_GRID == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
        assert list(limit["gf"]) == [repr(s) for s in GF_GRID]
        out = tmp_path / "report.json"
        cli_main(["compare", *limit_argv, "--n", n_grid, "--out", str(out)])
        report = json.loads(out.read_text())
        law = make_builtin("linear_fractional")
        for row in report["rows"]:
            pmf = conditional_reduced_pmf(law, row["m"], row["n"], row["C"]).pmf
            js = np.arange(1, len(pmf) + 1)
            sup = max(
                abs(float(np.dot(np.power(float(s), js), pmf)) - value)
                for s, value in limit["gf"].items()
            )
            assert row["gf_supnorm"] == sup

    def test_compare_reruns_identically_across_workers(self, tmp_path):
        args = [
            "compare",
            "--regime",
            "linear_band",
            "--law",
            "ternary_uniform",
            "--n",
            "16,24",
            "--t",
            "0.5",
            "--a",
            "1.0",
            "--replicates",
            "200",
            "--seed",
            "5",
        ]
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        cli_main(args + ["--workers", "1", "--out", str(out1)])
        cli_main(args + ["--workers", "3", "--out", str(out2)])
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b
