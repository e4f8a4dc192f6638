"""Experiment runner: determinism, reproducibility from the echoed spec,
scenario structure, and emission contracts."""

import ast
import dataclasses
import hashlib
import io
import itertools
import json
import math
import re
import statistics
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from werm import analytic, biasgen, bounds, synthetic, train as train_mod, weights as weights_mod
from werm.core import EmptyStratumError, ValidationError, WeightVector, read_csv, write_csv
from werm.experiment import (
    SCENARIOS,
    ExperimentSpec,
    _dump_json,
    _modes,
    _summary,
    emit_results,
    ingest_csv,
    run_experiment,
)

FAST_TRAIN = {"lr": 0.05, "epochs": 4, "batch_size": 200}


def no_constant(token):
    """A ``json.loads`` ``parse_constant`` that refuses NaN and +-Infinity."""
    raise AssertionError(f"the JSON holds {token}")


def small_strata_spec(**overrides):
    kwargs = dict(
        scenario="strata_shift",
        modes=("uniform", "strata", "oracle"),
        replicates=2,
        base_seed=5,
        n_train=600,
        n_test=600,
        train=FAST_TRAIN,
        bias={"gamma": 0.3, "permutation": "identity"},
        synthetic={"n_strata": 4, "n_classes": 3, "n_source": 3000},
        top_k=2,
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestSpec:
    def test_unknown_scenario(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(scenario="imagenet")

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(scenario="pu", modes=("magic",))

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("mode", sorted([*weights_mod.modes(), "oracle"]))
    def test_scenario_mode_table(self, scenario, mode):
        """A mode builds on exactly the scenarios whose SCENARIOS record
        names it (oracle: those that train); any other pair is rejected,
        before any data is drawn, with an error naming the scenario's modes."""
        synthetic_fields = {"class_shift": {"p": 0.3, "p_train": 0.6}, "pu": {"p": 0.3, "q": 0.4}}
        build = lambda: ExperimentSpec(  # noqa: E731
            scenario=scenario, modes=(mode,), synthetic=synthetic_fields.get(scenario, {}),
        )
        if mode == "oracle":
            fits = SCENARIOS[scenario].curves is None
        else:
            fits = mode in SCENARIOS[scenario].modes
        if fits:
            assert build().modes == (mode,)
        else:
            runs = ", ".join(_modes(scenario))
            with pytest.raises(ValidationError, match=f"{scenario}.*{mode}.*it runs {runs}$"):
                build()

    @staticmethod
    def readme_table(caption):
        """The rows, as lists of cells, of the README table below ``caption``."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split(caption, 1)[1].strip().split("\n\n", 1)[0]
        return [[c.strip() for c in line.strip("|").split("|")] for line in block.splitlines()[2:]]

    def test_readme_table_lists_each_scenarios_modes(self):
        """README's scenario table names each scenario once, with exactly
        the modes it runs, in the order of the mode table."""
        rows = self.readme_table("Scenarios and the reweighting modes each can run:")
        listed = {row[0].strip("`"): tuple(re.findall(r"`(\w+)`", row[-1])) for row in rows}
        assert len(listed) == len(rows)
        assert listed == {name: _modes(name) for name in SCENARIOS}

    def test_readme_mode_table_states_each_row(self):
        """README's mode table gives each weights.modes row once, in order,
        with the prior it reads and the scenarios whose records name it."""
        rows = self.readme_table("The reweighting modes and the scenarios that run them:")
        flags = {"p": "`p` (`--p`)", "pk": "`pk` (`--pk-file`)", None: "none"}
        table = weights_mod.modes()
        assert [row[0] for row in rows] == [f"`{m}`" for m in table] + ["`oracle`"]
        for row, (mode, entry) in zip(rows, table.items()):
            assert row[2] == flags[entry.prior]
            fits = sorted(s for s, record in SCENARIOS.items() if mode in record.modes)
            assert row[3] == ("every scenario" if len(fits) == len(SCENARIOS) else
                              ", ".join(f"`{s}`" for s in fits))

    def test_each_relation_has_one_table(self):
        """Each scenario name is spelled in src/werm only as a SCENARIOS key,
        and each setting name only in weights.setting's table and in
        bounds._cell_law; a name of two kinds (pu is a scenario, a setting
        and a mode) may stand where either kind does, a mode name as a
        weights.modes key or in a SCENARIOS record.  Every mode a record
        names is a weights.modes row, in that table's order, and every
        setting row's bound kind is a deviation bound kind."""
        places = []  # (literal, "module.top-level name", with " key" for a dict key)
        for path in sorted((Path(__file__).resolve().parents[1] / "src" / "werm").glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                target = getattr(top, "targets", [getattr(top, "target", None)])[0]
                where = f"{path.stem}.{getattr(top, 'name', getattr(target, 'id', None))}"
                keys = {id(k) for d in ast.walk(top) if isinstance(d, ast.Dict) for k in d.keys}
                places += [(node.value, where + " key" * (id(node) in keys))
                           for node in ast.walk(top)
                           if isinstance(node, ast.Constant) and isinstance(node.value, str)]
        setting_names = [name for name, where in places if where == "weights.setting key"]
        kinds = {
            "scenario": (set(SCENARIOS), {"experiment.SCENARIOS key"}),
            "mode": (set(weights_mod.modes()), {"weights.modes key", "experiment.SCENARIOS"}),
            "setting": (set(setting_names), {"weights.setting key", "bounds._cell_law"}),
        }
        for name, where in places:
            allowed = set().union(*(at for names, at in kinds.values() if name in names))
            checked = name in kinds["scenario"][0] | kinds["setting"][0]
            assert not checked or where in allowed, f"{name!r} is spelled in {where}"
        assert sorted(setting_names) == ["class_shift", "pu", "stratum_shift"]
        for name in setting_names:
            assert weights_mod.setting(name).bound in bounds.DEVIATION_BOUND_KINDS
        for record in SCENARIOS.values():
            assert set(record.modes) <= set(weights_mod.modes())
            assert list(record.modes) == [m for m in weights_mod.modes() if m in record.modes]

    @pytest.mark.parametrize(
        "overrides,match",
        [
            ({"base_seed": -1}, "base_seed must be"),
            ({"base_seed": 2.5}, "base_seed must be"),
            ({"replicate_seeds": (4, -1)}, "replicate_seeds must be"),
        ],
    )
    def test_bad_seed_rejected_before_any_draw(self, monkeypatch, overrides, match):
        monkeypatch.setattr(synthetic, "gaussian_strata_sample", lambda *a: pytest.fail("drew"))
        with pytest.raises(ValidationError, match=match):
            run_experiment(small_strata_spec(**overrides))

    def test_top_k_below_one_rejected(self):
        with pytest.raises(ValidationError, match="top_k"):
            small_strata_spec(top_k=0)

    @pytest.mark.parametrize(
        "overrides,match",
        [
            ({"train": {"lr": -1.0}}, "lr must be > 0"),
            ({"train": {"lr": "fast"}}, "train"),
            ({"train": {"learning_rate": 0.1}}, "train.*learning_rate"),
            ({"train": {"seed": 3}}, "train.*seed"),
            ({"bias": {"gamma": 0.3, "exponent_style": "main"}}, "bias.*exponent_style"),
            ({"bias": {"permutation": "identity"}}, "bias.*gamma"),
            ({"bias": {"gamma": 1.5}}, "gamma"),
            ({"train": {"epochs": "many"}}, "epochs must be an integer >= 0"),
        ],
    )
    def test_bad_train_or_bias_rejected_before_work(self, monkeypatch, overrides, match):
        monkeypatch.setattr(synthetic, "gaussian_strata_sample", lambda *a: pytest.fail("drew"))
        with pytest.raises(ValidationError, match=match):
            small_strata_spec(**overrides)

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ValidationError):
            ExperimentSpec.from_json({"scenario": "pu", "gpu": True})

    def test_seeds_are_stable(self):
        spec = small_strata_spec()
        assert spec.seeds() == spec.seeds()
        assert spec.resolved()["replicate_seeds"] == list(spec.seeds())


class TestRunDeterminism:
    def test_identical_bundles(self):
        spec = small_strata_spec()
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert json.dumps(a, sort_keys=True, default=str) == json.dumps(
            b, sort_keys=True, default=str
        )

    def test_rerun_from_echoed_spec(self, tmp_path):
        spec = small_strata_spec(out_dir=str(tmp_path / "run1"))
        bundle = run_experiment(spec)
        emit_results(bundle, spec.out_dir)
        echoed = json.loads((tmp_path / "run1" / "spec_resolved.json").read_text())
        spec2 = ExperimentSpec.from_json(echoed)
        spec2.out_dir = str(tmp_path / "run2")
        bundle2 = run_experiment(spec2)
        emit_results(bundle2, spec2.out_dir)
        assert (tmp_path / "run1" / "results.json").read_bytes() == (
            tmp_path / "run2" / "results.json"
        ).read_bytes()

    def test_a_replicate_depends_on_its_seed_alone(self):
        """Replicate r of a run equals a one-replicate run on r's seed, so the
        replicates can be split across runs without changing a value."""
        spec = small_strata_spec(replicates=3)
        full = run_experiment(spec)["modes"]
        for r, seed in enumerate(spec.seeds()):
            alone = run_experiment(small_strata_spec(replicates=1, replicate_seeds=(seed,)))
            for mode, metrics in full.items():
                for metric, summary in metrics.items():
                    assert alone["modes"][mode][metric]["values"] == [summary["values"][r]]

    def test_byte_identical_results_json(self, tmp_path):
        spec = small_strata_spec()
        emit_results(run_experiment(spec), tmp_path / "a")
        emit_results(run_experiment(spec), tmp_path / "b")
        assert (tmp_path / "a" / "results.json").read_bytes() == (
            tmp_path / "b" / "results.json"
        ).read_bytes()


def tree_digest(directory):
    """SHA-256 over the relative paths and bytes of every file below directory."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(directory).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def small_csv_spec(tmp_path, monkeypatch):
    """A strata_shift spec over train/test CSVs written next to it, named
    by relative path so the echoed spec does not depend on tmp_path."""
    gspec = synthetic.GaussianStrataSpec(n_strata=4, n_classes=3)
    pk = [0.25] * 4
    monkeypatch.chdir(tmp_path)
    write_csv(synthetic.gaussian_strata_sample(gspec, 1500, pk, [3, 0]), "train.csv")
    write_csv(synthetic.gaussian_strata_sample(gspec, 500, pk, [3, 1]), "test.csv")
    return ExperimentSpec(
        scenario="strata_shift",
        modes=("uniform", "strata", "oracle"),
        replicates=3,
        base_seed=9,
        n_train=400,
        train=FAST_TRAIN,
        bias={"gamma": 0.3, "permutation": "identity"},
        top_k=2,
        train_csv="train.csv",
        test_csv="test.csv",
    )


class TestEmittedBytes:
    """The emitted trees are pinned.  Every tree that trains a model was
    re-pinned when the training step's plain class-major sums became its
    definition; only analytic_excess, which trains nothing, keeps its older
    pin (digests taken with numpy 2.4 and OpenBLAS; another BLAS build may
    differ in the last bits)."""

    SYNTHETIC = "c1e2f260f9909b0b92ff59ec38c489e121c3ecf1a640badb257563b28b6bf560"
    CSV = "8aee1e9b1f47b1557f1905bd94688ae91a4e83e4758892de9d544bf209a85db1"

    def test_synthetic_strata_tree(self, tmp_path):
        emit_results(run_experiment(small_strata_spec()), tmp_path / "out")
        assert tree_digest(tmp_path / "out") == self.SYNTHETIC

    def test_csv_strata_tree(self, tmp_path, monkeypatch):
        spec = small_csv_spec(tmp_path, monkeypatch)
        emit_results(run_experiment(spec), tmp_path / "out")
        assert tree_digest(tmp_path / "out") == self.CSV

    # the other scenarios; the analytic pairs are integers, which
    # results.json keeps as integers
    SCENARIOS = {
        "class_shift": (
            dict(modes=("uniform", "class", "oracle"), synthetic={"p": 0.3, "p_train": 0.7}),
            "90de180d2da30ab7ee665dae231a414b37a2f1e9c877db673cee9da195d0504c",
        ),
        "pu": (
            dict(modes=("uniform", "class", "pu", "oracle"),
                 synthetic={"alpha": 2.0, "beta": 0.5, "p": 0.4, "q": 0.3}),
            "261f536a068324d766b48fee96ce94ee4ab55daa44523f8af94bb8993a833b93",
        ),
        "censored": (
            dict(modes=("uniform", "ipcw", "oracle"), synthetic={"slope": 2.0, "censor_rate": 0.7}),
            "7013acdc832b46c1d1ea15cc8174eb5d3f2468aefcb0426eeb1622ac84d183d3",
        ),
        "analytic_excess": (
            dict(synthetic={"p": 0.3, "pairs": [[0, 0], [1, 1], [0.5, 2]]}),
            "669075550870916567ca4536a49293b694f4fc00fddd3d106e5a01ab8267c028",
        ),
    }

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_scenario_tree(self, tmp_path, scenario):
        fields, digest = self.SCENARIOS[scenario]
        spec = ExperimentSpec(
            scenario=scenario, replicates=2, base_seed=4, n_train=300, n_test=300,
            train=FAST_TRAIN, **fields,
        )
        emit_results(run_experiment(spec), tmp_path / "out")
        assert tree_digest(tmp_path / "out") == digest

    # the c10 acceptance spec (as in test_acceptance); perfbench's strata_c10
    # seed-7 output digest is the same hash
    C10 = "c9c139c7a1fd9ad9bd9065321d322c10560a0a7306ab09ed324c6c9316d3846b"

    def test_c10_tree(self, tmp_path):
        spec = ExperimentSpec(
            scenario="strata_shift", modes=("uniform", "strata", "oracle"), replicates=10,
            base_seed=7, model_kind="linear", top_k=2, n_train=5000, n_test=5000,
            train={"lr": 0.05, "momentum": 0.9, "weight_decay": 1e-3,
                   "batch_size": 1000, "epochs": 40},
            bias={"gamma": 0.2, "permutation": "identity"},
            synthetic={"n_strata": 5, "n_classes": 3, "class_radius": 2.0,
                       "rotation_deg": 22.5, "noise": 1.0, "n_source": 20000},
        )
        emit_results(run_experiment(spec), tmp_path / "out")
        assert tree_digest(tmp_path / "out") == self.C10


class TestEvaluationCount:
    def test_only_the_curve_replicate_is_evaluated_per_epoch(self, monkeypatch):
        """Replicate 0's stacked fit scores each mode's model once an epoch."""
        calls = []
        real = train_mod.classification_metrics

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(train_mod, "classification_metrics", counting)
        spec = small_strata_spec()
        bundle = run_experiment(spec)
        assert bundle["failures"] == []
        assert len(calls) == spec.train["epochs"] * len(spec.modes)
        assert all(len(rows) == spec.train["epochs"] for rows in bundle["curves"].values())


class TestScenarios:
    def test_strata_shift_structure(self):
        bundle = run_experiment(small_strata_spec())
        assert bundle["failures"] == []
        assert len(bundle["realized_p_prime"]) == 4
        for mode in ("uniform", "strata", "oracle"):
            vals = bundle["modes"][mode]["miss_rate"]["values"]
            assert len(vals) == 2
            assert all(0 <= v <= 1 for v in vals)

    def test_no_bias_makes_oracle_equal_uniform(self):
        """gamma=1 means the exact ratio weights are identically one, so the
        oracle and uniform runs coincide replicate by replicate."""
        spec = small_strata_spec(bias={"gamma": 1.0}, replicates=2)
        bundle = run_experiment(spec)
        u = bundle["modes"]["uniform"]["miss_rate"]["values"]
        o = bundle["modes"]["oracle"]["miss_rate"]["values"]
        assert u == o

    def test_class_shift_scenario(self):
        spec = ExperimentSpec(
            scenario="class_shift",
            modes=("uniform", "class", "oracle"),
            replicates=2,
            base_seed=1,
            n_train=500,
            n_test=500,
            train=FAST_TRAIN,
            synthetic={"alpha": 1.0, "beta": 1.0, "p": 0.3, "p_train": 0.7},
        )
        bundle = run_experiment(spec)
        assert bundle["failures"] == []
        assert set(bundle["modes"]) == {"uniform", "class", "oracle"}

    def test_pu_scenario(self):
        spec = ExperimentSpec(
            scenario="pu",
            modes=("uniform", "pu", "oracle"),
            replicates=2,
            base_seed=2,
            n_train=600,
            n_test=600,
            train=FAST_TRAIN,
            synthetic={"alpha": 1.0, "beta": 1.0, "p": 0.4, "q": 0.3},
        )
        bundle = run_experiment(spec)
        assert bundle["failures"] == []

    def test_censored_scenario(self):
        spec = ExperimentSpec(
            scenario="censored",
            modes=("uniform", "ipcw", "oracle"),
            replicates=2,
            base_seed=3,
            n_train=800,
            n_test=800,
            train=FAST_TRAIN,
            synthetic={"slope": 1.5, "censor_rate": 0.5, "horizon": 1.0},
        )
        bundle = run_experiment(spec)
        assert bundle["failures"] == []

    def test_analytic_excess_scenario(self):
        spec = ExperimentSpec(scenario="analytic_excess", synthetic={"p": 0.3})
        bundle = run_experiment(spec)
        curves = bundle["analytic"]["curves"]
        assert len(curves) == 4
        for curve in curves.values():
            assert min(curve["excess"]) >= 0.0

    def test_incompatible_mode_rejected_before_work(self, monkeypatch):
        monkeypatch.setattr(synthetic, "gaussian_strata_sample", lambda *a: pytest.fail("drew"))
        for mode in ("pu", "ipcw"):
            with pytest.raises(ValidationError, match="strata_shift"):
                small_strata_spec(modes=("strata", mode))

    def test_unusable_mode_recorded_as_failure(self, monkeypatch):
        """A mode whose estimator raises a typed error on a replicate's data
        is recorded per replicate; the other modes still run."""

        def empty(data, prior):
            raise EmptyStratumError(3)

        monkeypatch.setattr(weights_mod, "stratum_shift_weights", empty)
        spec = small_strata_spec(modes=("uniform", "strata"))
        bundle = run_experiment(spec)
        assert bundle["failures"] == [
            {"replicate": r, "mode": "strata", "error": "EmptyStratumError: stratum 3 is empty"}
            for r in range(spec.replicates)
        ]
        assert len(bundle["modes"]["uniform"]["miss_rate"]["values"]) == spec.replicates
        assert bundle["modes"]["strata"]["miss_rate"]["values"] == []

    def test_failing_modes_leave_the_others_alone(self, monkeypatch):
        """A replicate's modes train as one stacked fit.  When one mode's
        weights make the step overflow and another's raise a typed error,
        the failures read as if each mode had been fitted alone, in mode
        order, and the other modes keep the bytes of a run without those two."""

        def blowup(data, prior):
            return WeightVector(np.full(data.n, 1e308))

        def empty(*args):
            raise EmptyStratumError(2)

        def spec(*modes):
            # weights of 1e308 overflow the step, while the unit-scale
            # weights of the other modes stay finite
            return small_strata_spec(modes=modes, train={**FAST_TRAIN, "lr": 1000.0})

        monkeypatch.setattr(weights_mod, "stratum_shift_weights", blowup)
        monkeypatch.setattr(weights_mod, "oracle_stratum_shift_weights", empty)
        bundle = run_experiment(spec("uniform", "strata", "class", "oracle"))
        alone = run_experiment(spec("strata"))["failures"]
        replicates = bundle["replicates"]
        assert [f["replicate"] for f in alone] == list(range(replicates))
        assert all(re.match(r"NumericError: overflow encountered in \w+ \(epoch ", f["error"])
                   for f in alone)
        oracle = "EmptyStratumError: stratum 2 is empty"
        assert bundle["failures"] == [
            f for r in range(replicates)
            for f in (alone[r], {"replicate": r, "mode": "oracle", "error": oracle})
        ]
        rest = run_experiment(spec("uniform", "class"))
        for mode in ("uniform", "class"):
            assert json.dumps(bundle["modes"][mode]) == json.dumps(rest["modes"][mode])
            assert bundle["curves"][mode] == rest["curves"][mode]
        assert set(bundle["curves"]) == {"uniform", "class"}

    def test_mixed_failures_in_one_run(self, monkeypatch):
        """Replicate 0 loses its strata weights, replicate 1 its draw and
        replicate 2 its oracle fit: the failures read in replicate and mode
        order, each mode's values skip exactly its failed replicates, and
        the curves hold replicate 0's modes that ran."""
        modes = ("uniform", "class", "strata", "oracle")
        spec = small_strata_spec(modes=modes, replicates=3, train={**FAST_TRAIN, "lr": 1000.0})
        clean = run_experiment(spec)
        assert clean["failures"] == []
        draw = biasgen.subsample_to_distribution

        def nth_call(n, fake, original):
            """``original``, but ``fake`` on its n-th call."""
            calls = itertools.count(1)
            return lambda *args, **kwargs: (fake if next(calls) == n else original)(*args, **kwargs)

        def empty(*args):
            raise EmptyStratumError(0)

        def no_draw(data, p_prime, seed, **kwargs):
            if seed[0] == spec.seeds()[1]:
                raise EmptyStratumError(1)
            return draw(data, p_prime, seed, **kwargs)

        monkeypatch.setattr(biasgen, "subsample_to_distribution", no_draw)
        # each estimator runs in replicates 0 and 2, the ones that drew
        monkeypatch.setattr(weights_mod, "stratum_shift_weights",
                            nth_call(1, empty, weights_mod.stratum_shift_weights))
        monkeypatch.setattr(weights_mod, "oracle_stratum_shift_weights", nth_call(
            2, lambda data, *a: WeightVector(np.full(data.n, 1e308)),  # overflows the step
            weights_mod.oracle_stratum_shift_weights))
        bundle = run_experiment(spec)
        assert [(f["replicate"], f["mode"]) for f in bundle["failures"]] == [
            (0, "strata"), (1, "*"), (2, "oracle")]
        assert bundle["failures"][0]["error"] == "EmptyStratumError: stratum 0 is empty"
        assert bundle["failures"][1]["error"] == "EmptyStratumError: stratum 1 is empty"
        assert bundle["failures"][2]["error"].startswith("NumericError: overflow")
        ran = {"uniform": (0, 2), "class": (0, 2), "strata": (2,), "oracle": (0,)}
        for mode, replicates in ran.items():
            for metric, summary in bundle["modes"][mode].items():
                values = clean["modes"][mode][metric]["values"]
                assert summary["values"] == [values[r] for r in replicates]
        assert bundle["realized_p_prime"] == clean["realized_p_prime"]
        assert list(bundle["curves"]) == ["uniform", "class", "oracle"]
        assert all(bundle["curves"][m] == clean["curves"][m] for m in bundle["curves"])

    def test_csv_bias_that_does_not_fit_fails_once_before_any_draw(self, tmp_path, monkeypatch):
        """A CSV pair's strata are counted at run time: a bias permutation
        that does not fit them is one shared-data failure, reported for
        every replicate."""
        spec = dataclasses.replace(small_csv_spec(tmp_path, monkeypatch),
                                   bias={"gamma": 0.5, "permutation": [1, 2]})
        monkeypatch.setattr(biasgen, "subsample_to_distribution",
                            lambda *a, **k: pytest.fail("drew"))
        bundle = run_experiment(spec)
        error = "ValidationError: permutation must be a bijection of 1..4"
        assert bundle["failures"] == [
            {"replicate": r, "mode": "*", "error": error} for r in range(spec.replicates)
        ]
        assert bundle["realized_p_prime"] is None

    @pytest.mark.parametrize(
        "module,name,exc",
        [
            (biasgen, "power_law_distribution", KeyError("p")),  # shared data
            (biasgen, "subsample_to_distribution", IndexError("draw")),  # a replicate's draw
            (weights_mod, "stratum_shift_weights", TypeError("estimator")),  # a mode's run
        ],
    )
    def test_untyped_error_propagates(self, monkeypatch, module, name, exc):
        """A raw Python error is a bug, never a recorded replicate failure."""

        def broken(*args, **kwargs):
            raise exc

        spec = small_strata_spec()
        monkeypatch.setattr(module, name, broken)
        with pytest.raises(type(exc)):
            run_experiment(spec)

    def test_typed_draw_error_recorded(self, monkeypatch):
        def empty(*args, **kwargs):
            raise EmptyStratumError(1)

        spec = small_strata_spec()
        monkeypatch.setattr(biasgen, "subsample_to_distribution", empty)
        bundle = run_experiment(spec)
        assert bundle["failures"] == [
            {"replicate": r, "mode": "*", "error": "EmptyStratumError: stratum 1 is empty"}
            for r in range(spec.replicates)
        ]

    def test_csv_prior_length_checked_once_before_any_draw(self, tmp_path, monkeypatch):
        """A prior.pk whose length is not the train_csv's stratum count is
        one shared-data failure, reported for every replicate."""
        spec = dataclasses.replace(small_csv_spec(tmp_path, monkeypatch), prior={"pk": [0.5, 0.5]})
        monkeypatch.setattr(biasgen, "subsample_to_distribution",
                            lambda *a, **k: pytest.fail("drew"))
        bundle = run_experiment(spec)
        error = "ValidationError: prior.pk has 2 entries, train_csv 4 strata"
        assert bundle["failures"] == [
            {"replicate": r, "mode": "*", "error": error} for r in range(spec.replicates)
        ]

    @pytest.mark.parametrize("which", ["train_csv", "test_csv"])
    def test_csv_without_labels_fails_once_before_any_draw(self, tmp_path, monkeypatch, which):
        """A CSV with no y column is one shared-data failure, reported for
        every replicate; nothing is drawn or trained."""
        spec = dataclasses.replace(small_csv_spec(tmp_path, monkeypatch),
                                   modes=("uniform", "strata"), replicates=2)
        data = read_csv(getattr(spec, which))
        write_csv(dataclasses.replace(data, labels=None, n_classes=None), "unlabelled.csv")
        spec = dataclasses.replace(spec, **{which: "unlabelled.csv"})
        monkeypatch.setattr(biasgen, "subsample_to_distribution",
                            lambda *a, **k: pytest.fail("drew"))
        monkeypatch.setattr(train_mod, "fit", lambda *a, **k: pytest.fail("trained"))
        bundle = run_experiment(spec)
        error = "SchemaError: unlabelled.csv: no y column; training and its metrics need labels"
        assert bundle["failures"] == [{"replicate": r, "mode": "*", "error": error} for r in (0, 1)]

    def test_top_k_above_class_count_fails_once_without_training(self, tmp_path, monkeypatch):
        """A CSV pair's class count is read at run time: a top_k above it is
        one shared-data failure, reported for every replicate."""
        monkeypatch.setattr(train_mod, "fit", lambda *a, **k: pytest.fail("trained"))
        spec = dataclasses.replace(small_csv_spec(tmp_path, monkeypatch), top_k=5)  # 3 classes
        bundle = run_experiment(spec)
        assert [f["replicate"] for f in bundle["failures"]] == [0, 1, 2]
        assert all(f["mode"] == "*" and "top-k" in f["error"] for f in bundle["failures"])

    @pytest.mark.parametrize(
        "scenario,fields,match",
        [
            ("strata_shift", {"n_strat": 5}, "'synthetic'.*n_strat"),
            ("strata_shift", {"n_strata": 4, "noise": 0.0}, "noise must be > 0"),
            ("censored", {"slop": 1.0}, "'synthetic'.*slop"),
            ("class_shift", {"p": 0.3, "p_train": 0.6, "betta": 2.0}, "'synthetic'.*betta"),
            ("class_shift", {"p": 0.3}, "synthetic.p_train"),
            ("class_shift", {"p_train": 0.6}, "'synthetic'.*'p'"),
            ("pu", {"p": 0.3, "q": 0.4, "p_train": 0.6}, "'synthetic'.*p_train"),
            ("pu", {"p": 0.3}, "synthetic.q"),
            ("analytic_excess", {"p": 0.3, "pair": [[1, 1]]}, "'synthetic'.*takes p, pairs"),
        ],
    )
    def test_bad_synthetic_rejected_before_work(self, monkeypatch, scenario, fields, match):
        """An unknown, missing or invalid generator parameter fails when the
        spec is built, not as a failure of every replicate."""
        for module, name in ((synthetic, "gaussian_strata_sample"),
                             (synthetic, "censored_test_sample"), (analytic, "sample")):
            monkeypatch.setattr(module, name, lambda *a: pytest.fail("drew"))
        with pytest.raises(ValidationError, match=match):
            ExperimentSpec(scenario=scenario, synthetic=fields)

    def test_generator_defaults(self):
        spec = ExperimentSpec(scenario="pu", synthetic={"p": 0.3, "q": 0.4})
        assert spec.generator() == analytic.AnalyticModel(alpha=1.0, beta=1.0, p=0.3)
        assert ExperimentSpec(scenario="censored").generator() == synthetic.CensoredSpec()
        assert ExperimentSpec(scenario="analytic_excess").generator() == [
            analytic.AnalyticModel(alpha=a, beta=a, p=0.3) for a in (0.0, 0.5, 1.0, 2.0)
        ]


class TestEmit:
    def test_refuses_empty_bundle(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_results({}, tmp_path)

    def test_files_and_curve_header(self, tmp_path):
        bundle = run_experiment(small_strata_spec())
        written = emit_results(bundle, tmp_path)
        assert (tmp_path / "results.json").exists()
        assert (tmp_path / "spec_resolved.json").exists()
        curve = tmp_path / "curves" / "uniform.csv"
        assert curve.exists()
        assert curve.read_text().splitlines()[0] == "epoch,objective,miss_rate,top_k_error"
        assert all(str(tmp_path) in w for w in written)

    def test_curve_csv_bytes(self, tmp_path):
        """Learning and analytic curves: CRLF line ends, ints in decimal,
        floats as repr (bytes as written before the CSV writers were merged)."""
        bundle = {
            "resolved_spec": {"scenario": "x"},
            "curves": {"uniform": [(0, 1 / 3, 0.25, 0.1), (1, 0.1 + 0.2, 0.2, 1e-5)]},
            "analytic": {"curves": {"a1_b1": {
                "theta": [0.0, 0.5], "risk": [0.7, 1 / 3],
                "p_prime": [0.05, 0.95], "excess": [0.0, 2.5e-17],
            }}},
        }
        emit_results(bundle, tmp_path)
        curves = tmp_path / "curves"
        assert (curves / "uniform.csv").read_bytes() == (
            b"epoch,objective,miss_rate,top_k_error\r\n"
            b"0,0.3333333333333333,0.25,0.1\r\n1,0.30000000000000004,0.2,1e-05\r\n"
        )
        assert (curves / "risk_a1_b1.csv").read_bytes() == (
            b"theta,risk\r\n0.0,0.7\r\n0.5,0.3333333333333333\r\n"
        )
        assert (curves / "excess_a1_b1.csv").read_bytes() == (
            b"p_prime,excess\r\n0.05,0.0\r\n0.95,2.5e-17\r\n"
        )

    def test_analytic_curve_files(self, tmp_path):
        bundle = run_experiment(
            ExperimentSpec(scenario="analytic_excess", synthetic={"p": 0.3})
        )
        emit_results(bundle, tmp_path)
        assert (tmp_path / "curves" / "risk_a1_b1.csv").exists()
        assert (tmp_path / "curves" / "excess_a2_b2.csv").exists()


class TestSummary:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.just(0.0) | st.floats(1e-100, 1e100), max_size=12))
    def test_statistics_that_neither_overflow_nor_underflow_keep_their_bits(self, vals):
        summary = _summary(vals)
        assert summary["mean"] == (float(np.mean(vals)) if vals else None)
        assert summary["std"] == (float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0)

    @pytest.mark.parametrize("vals", [[1.344992570048268e300, 2.2761243815483674e300],
                                      [1.7e308, 1.7e308, 1.0e308], [-1.5e200, 3e200, 1e-10]])
    def test_huge_values_give_finite_statistics(self, vals):
        """Squaring values past 1e154, or summing them near 1e308, overflows."""
        summary = _summary(vals)
        assert summary["mean"] == pytest.approx(statistics.mean(vals), rel=1e-14)
        assert summary["std"] == pytest.approx(statistics.stdev(vals), rel=1e-14)

    def test_results_json_holds_only_json_numbers(self, tmp_path):
        """lr = 1e300 gives cross-entropies near 1e300; their sd is finite."""
        spec = ExperimentSpec(scenario="censored", n_train=2, n_test=1, replicates=2,
                              train={"lr": 1e300, "epochs": 1, "batch_size": 1})
        emit_results(run_experiment(spec), tmp_path)
        doc = json.loads((tmp_path / "results.json").read_text(), parse_constant=no_constant)
        sce = doc["modes"]["uniform"]["sce"]
        assert min(sce["values"]) > 1e154 and doc["failures"] == []
        assert sce["std"] == pytest.approx(statistics.stdev(sce["values"]), rel=1e-14)

    def test_cross_entropy_past_the_float_range_is_a_failure(self, tmp_path):
        """lr = 1e308: replicate 0's cross-entropies are finite, but their
        plain mean overflows; replicate 1's logit spread overflows the
        log-softmax, so its cross-entropy is not a number at all."""
        spec = ExperimentSpec(scenario="censored", n_train=2, n_test=3, replicates=2,
                              train={"lr": 1e308, "epochs": 1, "batch_size": 1})
        emit_results(run_experiment(spec), tmp_path)
        doc = json.loads((tmp_path / "results.json").read_text(), parse_constant=no_constant)
        assert doc["failures"] == [
            {"replicate": 1, "mode": "uniform", "error": "NumericError: non-finite cross-entropy"}
        ]
        (sce,) = doc["modes"]["uniform"]["sce"]["values"]
        assert 1e308 < sce < math.inf

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_json_writer_refuses_non_finite_numbers(self, value):
        with pytest.raises(ValueError):
            _dump_json({"x": [value]}, io.StringIO())


class TestIngest:
    def test_report(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,x1,y,s\n0.0,1.0,1,0\n2.0,3.0,0,1\n")
        data, report = ingest_csv(path)
        assert report["rows"] == 2
        assert report["d"] == 2
        assert report["J"] == 2
        assert report["K"] == 2
        assert report["has_labels"] and report["has_strata"]
        assert not report["has_survival"]
