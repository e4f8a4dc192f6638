"""Experiment runner: determinism, reproducibility from the echoed spec,
scenario structure, and emission contracts."""

import hashlib
import json

import numpy as np
import pytest

from werm import analytic, biasgen, synthetic, train as train_mod, weights as weights_mod
from werm.core import EmptyStratumError, ValidationError, WeightVector, write_csv
from werm.experiment import (
    MODE_WEIGHTS,
    SCENARIO_MODES,
    ExperimentSpec,
    emit_results,
    ingest_csv,
    run_experiment,
)

FAST_TRAIN = {"lr": 0.05, "epochs": 4, "batch_size": 200}


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

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_MODES))
    @pytest.mark.parametrize("mode", sorted(MODE_WEIGHTS))
    def test_scenario_mode_table(self, scenario, mode):
        """Exactly the pairs of SCENARIO_MODES build; any other is rejected
        with an error naming both, before any data is drawn."""
        synthetic_fields = {"class_shift": {"p": 0.3, "p_train": 0.6}, "pu": {"p": 0.3, "q": 0.4}}
        build = lambda: ExperimentSpec(  # noqa: E731
            scenario=scenario, modes=("uniform", mode),
            synthetic=synthetic_fields.get(scenario, {}),
        )
        if mode in SCENARIO_MODES[scenario]:
            assert build().modes == ("uniform", mode)
        else:
            with pytest.raises(ValidationError, match=f"{scenario}.*{mode}"):
                build()

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
    """The emitted trees are pinned to the bytes werm wrote before training
    moved onto raw arrays and shared data were drawn once per run; the
    strata_shift trees were re-pinned when the subsampler began to draw in
    bulk, which changed its random stream (digests taken with numpy 2.4 and
    OpenBLAS; another BLAS build may differ in the last bits)."""

    SYNTHETIC = "93fe15853385e94dae1e0883d0c51c2dd782d0c8d85d8e5d6d88fccddcde4d61"
    CSV = "6b7027064f986694f0977c39c1157281c245dc1ad52118e46f1ed19f9b86021a"

    def test_synthetic_strata_tree(self, tmp_path):
        emit_results(run_experiment(small_strata_spec()), tmp_path / "out")
        assert tree_digest(tmp_path / "out") == self.SYNTHETIC

    def test_csv_strata_tree(self, tmp_path, monkeypatch):
        spec = small_csv_spec(tmp_path, monkeypatch)
        emit_results(run_experiment(spec), tmp_path / "out")
        assert tree_digest(tmp_path / "out") == self.CSV

    # the other scenarios, pinned before their settings moved into one lookup
    # in werm.weights; the analytic pairs are integers, which results.json
    # keeps as integers
    SCENARIOS = {
        "class_shift": (
            dict(modes=("uniform", "class", "pu", "oracle"), synthetic={"p": 0.3, "p_train": 0.7}),
            "730c54ea3262071217f383b19db646bdc385328b88785a03c757276e7c94505d",
        ),
        "pu": (
            dict(modes=("uniform", "class", "pu", "oracle"),
                 synthetic={"alpha": 2.0, "beta": 0.5, "p": 0.4, "q": 0.3}),
            "c28b1573059c0da75ece7b8454bfff2dd3daa6907a72b542fc89eac02decca11",
        ),
        "censored": (
            dict(modes=("uniform", "ipcw", "oracle"), synthetic={"slope": 2.0, "censor_rate": 0.7}),
            "730eac6425a0ee7175d0ffc7fcce61adaa28e78988adff4fc2cbafbfcbc34701",
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

    # the c10 acceptance spec (as in test_acceptance), pinned when the
    # subsampler began to draw in bulk; perfbench's strata_c10 seed-7 output
    # digest is the same hash
    C10 = "3289da4cc1a913831219a85fec297df3aea89a9d26e4fbb615e73da5d10edcdc"

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failing_modes_leave_the_others_alone(self, monkeypatch):
        """A replicate's modes train as one stacked fit.  When one mode's
        weights blow the logits up and another's raise a typed error, the
        failures read as if each mode had been fitted alone, in mode order,
        and the other modes keep the bytes of a run without those two."""

        def blowup(data, ctx):
            return WeightVector(np.full(data.n, 1e308))

        def empty(data, ctx):
            raise EmptyStratumError(2)

        def spec(*modes):
            # at this rate lr * gradient overflows under weights of 1e308,
            # while the unit-scale weights of the other modes stay finite
            return small_strata_spec(modes=modes, train={**FAST_TRAIN, "lr": 1000.0})

        monkeypatch.setitem(MODE_WEIGHTS, "strata", blowup)
        monkeypatch.setitem(MODE_WEIGHTS, "oracle", empty)
        bundle = run_experiment(spec("uniform", "strata", "class", "oracle"))
        alone = run_experiment(spec("strata"))["failures"]
        replicates = bundle["replicates"]
        assert [f["replicate"] for f in alone] == list(range(replicates))
        assert all(f["error"].startswith("NumericError: non-finite logits (epoch ") for f in alone)
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

    def test_top_k_above_class_count_fails_once_without_training(self, monkeypatch):
        monkeypatch.setattr(train_mod, "fit", lambda *a, **k: pytest.fail("trained"))
        spec = small_strata_spec(top_k=5, replicates=3)  # 3 classes
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
