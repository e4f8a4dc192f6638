"""The three benchmark workloads.

Each workload object is built in a fresh interpreter: its constructor is
the set-up (import werm, build specs), ``run`` is one timed pass, and the
remaining methods look at the outputs after the pass.  Inputs come only
from the seed: ``strata_c10`` and ``bounds_coverage`` derive their werm
seeds from it, and ``csv_cli`` reads CSVs that ``inputs.py`` wrote from it.

Why these three: ``strata_c10`` is the flagship training run (fit,
per-epoch evaluation, the literal subsampler); ``bounds_coverage`` does no
training at all and stresses Dataset construction, weight estimators and
samplers; ``csv_cli`` is the only path through CSV ingest and output, the
mlp trainer, and Kaplan-Meier/IPCW.
"""

from __future__ import annotations

import contextlib
import csv
import glob
import hashlib
import io
import json
import os
import warnings

DEFAULT_SEED = 7


def _data_rows(path: str) -> int:
    with open(path, newline="") as fh:
        return sum(1 for _ in fh) - 1


def _digest_tree(directory: str, extra: bytes = b"") -> str:
    h = hashlib.sha256(extra)
    for path in sorted(glob.glob(os.path.join(directory, "**", "*"), recursive=True)):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _curve_rows(directory: str) -> int:
    """Data rows of learning-curve CSVs, i.e. evaluations a user receives."""
    return sum(_data_rows(p) for p in glob.glob(os.path.join(directory, "curves", "*.csv")))


class StrataC10:
    """The c10 acceptance spec through run_experiment and emit_results.

    An item is one replicate x mode fit.
    """

    item = "one replicate x mode fit (10 replicates x 3 modes per pass)"

    def __init__(self, seed: int, inputs_dir: str):
        from werm import experiment

        self.experiment = experiment
        self.seed = seed
        self.spec = experiment.ExperimentSpec(
            scenario="strata_shift",
            modes=("uniform", "strata", "oracle"),
            replicates=10,
            base_seed=seed,
            model_kind="linear",
            top_k=2,
            n_train=5000,
            n_test=5000,
            train={
                "lr": 0.05, "momentum": 0.9, "weight_decay": 1e-3,
                "batch_size": 1000, "epochs": 40,
            },
            bias={"gamma": 0.2, "permutation": "identity"},
            synthetic={
                "n_strata": 5, "n_classes": 3, "class_radius": 2.0,
                "rotation_deg": 22.5, "noise": 1.0, "n_source": 20000,
            },
        )

    def run(self, out_dir: str) -> dict:
        bundle = self.experiment.run_experiment(self.spec)
        self.experiment.emit_results(bundle, out_dir)
        return {"bundle": bundle}

    def items(self, out_dir: str, outcome: dict) -> int:
        return self.spec.replicates * len(self.spec.modes)

    def operations(self, outcome: dict) -> tuple[int, int]:
        entries = self.spec.replicates * len(self.spec.modes)
        return entries, len(outcome["bundle"]["failures"])

    def checks(self, out_dir: str, outcome: dict) -> dict[str, bool]:
        bundle = outcome["bundle"]
        out = {"no_failures": bundle["failures"] == []}
        if self.seed == DEFAULT_SEED and out["no_failures"]:
            miss = {
                m: bundle["modes"][m]["miss_rate"]["values"] for m in self.spec.modes
            }
            wins = sum(s <= u for s, u in zip(miss["strata"], miss["uniform"]))
            means = {m: sum(v) / len(v) for m, v in miss.items()}
            out["strata_beats_uniform_8_of_10"] = wins >= 8
            out["oracle_not_worst"] = (
                means["oracle"] <= max(means["uniform"], means["strata"]) + 1e-12
            )
        return out

    def digest(self, out_dir: str, outcome: dict) -> str:
        return _digest_tree(out_dir)

    def useful_evals(self, out_dir: str, outcome: dict) -> int:
        return _curve_rows(out_dir)


class BoundsCoverage:
    """Deviation-bound coverage, a Rademacher average and the analytic
    excess-error curves; no training.

    An item is one coverage replicate or one Rademacher sign draw.
    """

    item = "one coverage replicate or Rademacher draw (3 x 4000 + 4000 per pass)"
    REPS = 4000
    N = 2000
    DELTA = 0.1

    def __init__(self, seed: int, inputs_dir: str):
        import numpy as np
        from werm import analytic, bounds, core, experiment, synthetic

        self.analytic, self.bounds, self.experiment = analytic, bounds, experiment
        self.seed = seed
        # the parameters of scripts/run_coverage_study.py, seeds derived from ours
        model = analytic.AnalyticModel(alpha=1.0, beta=1.0, p=0.3)
        base = 1000 * seed
        self.coverage_calls = [
            ("class_shift", model,
             dict(seed=base + 41, p_train=0.6, epsilon=0.3)),
            ("stratum_shift", synthetic.StratifiedThresholdModel(pos_rates=(0.2, 0.4, 0.6, 0.8)),
             dict(seed=base + 42, pk=[0.25] * 4, pk_train=[0.4, 0.3, 0.2, 0.1], epsilon=0.3)),
            ("pu", model, dict(seed=base + 43, q=0.4, epsilon=0.3)),
        ]
        self.model = model
        self.grid = list(np.linspace(0.0, 1.0, 101))
        self.loss = core.LossSpec("threshold-sign")
        self.analytic_spec = experiment.ExperimentSpec(
            scenario="analytic_excess", base_seed=seed
        )

    def run(self, out_dir: str) -> dict:
        with warnings.catch_warnings():
            # the flat (0, 0) pair has a non-unique optimum at p' = 1/2
            warnings.simplefilter("ignore")
            coverage = [
                self.bounds.coverage_check(
                    setting, model, n=self.N, delta=self.DELTA, reps=self.REPS, **kw
                )
                for setting, model, kw in self.coverage_calls
            ]
            data = self.analytic.sample(self.model, self.N, self.model.p, [self.seed, 5])
            rademacher = self.bounds.rademacher_mc(
                data, self.grid, self.loss, self.REPS, 1000 * self.seed + 44
            )
            bundle = self.experiment.run_experiment(self.analytic_spec)
            self.experiment.emit_results(bundle, out_dir)
        return {"coverage": coverage, "rademacher": rademacher, "bundle": bundle}

    def items(self, out_dir: str, outcome: dict) -> int:
        return sum(r.reps for r in outcome["coverage"]) + self.REPS

    def operations(self, outcome: dict) -> tuple[int, int]:
        return 1, 0  # the pass itself; its outputs are judged by the checks

    def checks(self, out_dir: str, outcome: dict) -> dict[str, bool]:
        out = {
            f"coverage_{setting}": r.coverage >= 1.0 - self.DELTA
            for (setting, _, _), r in zip(self.coverage_calls, outcome["coverage"])
        }
        out["rademacher_positive"] = 0.0 < outcome["rademacher"] < 1.0
        out["analytic_curves"] = len(outcome["bundle"]["analytic"]["curves"]) == 4
        return out

    def digest(self, out_dir: str, outcome: dict) -> str:
        h = hashlib.sha256(repr(outcome["rademacher"]).encode())
        for r in outcome["coverage"]:
            h.update(repr((r.coverage, r.bound_value)).encode() + r.deviations.tobytes())
        return _digest_tree(out_dir, h.digest())

    def useful_evals(self, out_dir: str, outcome: dict) -> int:
        return 0


class CsvCli:
    """A user's own CSVs through ``werm.cli.main``, in-process.

    An item is one CSV row read or written, counted once per file named on
    a command line or written by the command.
    """

    item = "one CSV row read or written, counted once per file a command names or writes"
    EPOCHS = 10
    GAMMA = 0.2

    def __init__(self, seed: int, inputs_dir: str):
        from werm import cli

        import inputs

        self.cli = cli
        self.seed = seed
        self.rows_in = {
            inputs.STRATA_CSV: inputs.STRATA_ROWS,
            inputs.TEST_CSV: inputs.TEST_ROWS,
            inputs.CENSORED_CSV: inputs.CENSORED_ROWS,
        }
        src = lambda name: os.path.join(inputs_dir, name)  # noqa: E731
        self.paths = {"strata": src(inputs.STRATA_CSV), "test": src(inputs.TEST_CSV),
                      "censored": src(inputs.CENSORED_CSV), "pk": src(inputs.PK_JSON)}
        self.experiment_doc = {
            "scenario": "strata_shift",
            "modes": ["uniform", "strata"],
            "replicates": 3,
            "base_seed": seed,
            "model_kind": "linear",
            "top_k": 2,
            "n_train": 5000,
            "train": {"lr": 0.05, "momentum": 0.9, "weight_decay": 1e-3,
                      "batch_size": 1000, "epochs": self.EPOCHS},
            "bias": {"gamma": self.GAMMA, "permutation": "identity"},
            "train_csv": self.paths["strata"],
            "test_csv": self.paths["test"],
        }

    def _commands(self, out_dir: str) -> list[tuple[str, list[str]]]:
        o = lambda name: os.path.join(out_dir, name)  # noqa: E731
        p = self.paths
        return [
            ("biasgen", ["biasgen", "--in", p["strata"], "--out", o("biased.csv"),
                         "--gamma", str(self.GAMMA), "--identity", "--seed", str(self.seed)]),
            ("weights_strata", ["weights", "--in", o("biased.csv"), "--out", o("w_strata.csv"),
                                "--mode", "strata", "--pk-file", p["pk"]]),
            ("train_mlp", ["train", "--train", o("biased.csv"), "--test", p["test"],
                           "--model", "mlp", "--weights", "strata", "--pk-file", p["pk"],
                           "--lr", "0.05", "--wd", "0.001", "--epochs", str(self.EPOCHS),
                           "--seed", str(self.seed), "--curve", o("curve.csv")]),
            ("weights_ipcw", ["weights", "--in", p["censored"], "--out", o("w_ipcw.csv"),
                              "--mode", "ipcw", "--km-out", o("km.csv")]),
            ("experiment", ["experiment", "--config", o("experiment.json"),
                            "--out", o("experiment")]),
        ]

    def run(self, out_dir: str) -> dict:
        with open(os.path.join(out_dir, "experiment.json"), "w") as fh:
            json.dump(self.experiment_doc, fh)
        codes, stdout = {}, {}
        for name, argv in self._commands(out_dir):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes[name] = self.cli.main(argv)
            stdout[name] = buf.getvalue()
        return {"codes": codes, "stdout": stdout}

    def _summary(self, outcome: dict, name: str) -> dict | None:
        try:
            return json.loads(outcome["stdout"][name])
        except ValueError:
            return None

    def items(self, out_dir: str, outcome: dict) -> int:
        o = lambda name: os.path.join(out_dir, name)  # noqa: E731
        biased = _data_rows(o("biased.csv"))
        strata, test = self.rows_in["strata.csv"], self.rows_in["test.csv"]
        reads = strata + biased + biased + test + self.rows_in["censored.csv"] + strata + test
        written = sum(
            _data_rows(o(name))
            for name in ("biased.csv", "w_strata.csv", "curve.csv", "w_ipcw.csv", "km.csv")
        )
        return reads + written + _curve_rows(o("experiment"))

    def operations(self, outcome: dict) -> tuple[int, int]:
        failed = sum(code != 0 for code in outcome["codes"].values())
        summary = self._summary(outcome, "experiment") or {}
        entries = len(self.experiment_doc["modes"]) * self.experiment_doc["replicates"]
        return len(outcome["codes"]) + entries, failed + len(summary.get("failures", []))

    def checks(self, out_dir: str, outcome: dict) -> dict[str, bool]:
        import numpy as np
        from werm import biasgen, core

        import inputs

        o = lambda name: os.path.join(out_dir, name)  # noqa: E731
        out = {f"exit_0_{name}": code == 0 for name, code in outcome["codes"].items()}
        if not all(out.values()):
            return out
        feats, labels, strata = inputs.strata_columns(inputs.STRATA_ROWS, self.seed, 1)
        direct, p_prime = biasgen.apply_bias(
            core.Dataset(features=feats, labels=labels, strata=strata),
            biasgen.BiasSpec(gamma=self.GAMMA, permutation="identity"),
            seed=self.seed,
        )
        summary = self._summary(outcome, "biasgen")
        out["biasgen_size_matches_apply_bias"] = (
            summary["output_size"] == direct.n == _data_rows(o("biased.csv"))
        )
        out["biasgen_p_prime_matches_apply_bias"] = summary["p_prime"] == [
            float(v) for v in p_prime
        ]
        out["strata_weights_one_row_per_record"] = (
            _data_rows(o("w_strata.csv")) == direct.n
        )
        out["ipcw_weights_one_row_per_record"] = (
            _data_rows(o("w_ipcw.csv")) == self.rows_in["censored.csv"]
        )
        with open(o("km.csv"), newline="") as fh:
            survival = np.array([float(r["s"]) for r in csv.DictReader(fh)])
        out["km_curve_non_increasing"] = bool(
            survival.size > 0 and np.all(np.diff(survival) <= 0.0)
            and 0.0 <= survival[-1] and survival[0] <= 1.0
        )
        out["train_curve_one_row_per_epoch"] = _data_rows(o("curve.csv")) == self.EPOCHS
        experiment = self._summary(outcome, "experiment")
        out["experiment_no_failures"] = experiment is not None and experiment["failures"] == []
        return out

    def digest(self, out_dir: str, outcome: dict) -> str:
        return _digest_tree(out_dir)

    def useful_evals(self, out_dir: str, outcome: dict) -> int:
        return _data_rows(os.path.join(out_dir, "curve.csv")) + _curve_rows(
            os.path.join(out_dir, "experiment")
        )


WORKLOADS = {
    "strata_c10": StrataC10,
    "bounds_coverage": BoundsCoverage,
    "csv_cli": CsvCli,
}

# Wrapped bindings each workload must call; see tracer.TARGETS.
EXPECTED_HITS = {
    "strata_c10": (
        "experiment.run_experiment", "experiment.emit_results",
        "synthetic.gaussian_strata_sample", "biasgen.power_law_distribution",
        "biasgen.subsample_to_distribution", "weights.stratum_shift_weights",
        "weights.oracle_stratum_shift_weights", "train.fit", "train.init_params",
        "train.logits_batch", "train.weighted_objective", "train.gradient",
        "train.momentum_step", "train.classification_metrics",
        "experiment.classification_metrics", "core.Dataset.__post_init__",
        "core.Dataset.take",
    ),
    "bounds_coverage": (
        "bounds.coverage_check", "bounds.rademacher_mc", "analytic.sample",
        "analytic.sample_pu", "synthetic.StratifiedThresholdModel.sample",
        "bounds.class_shift_weights", "bounds.stratum_shift_weights", "bounds.pu_weights",
        "bounds.oracle_class_shift_weights", "bounds.oracle_stratum_shift_weights",
        "bounds.oracle_pu_weights", "experiment.run_experiment", "experiment.emit_results",
        "analytic.risk_curve", "analytic.excess_curve", "core.Dataset.__post_init__",
    ),
    "csv_cli": (
        "cli.main", "experiment.ingest_csv", "experiment.read_csv", "cli.write_csv",
        "core.WeightVector.to_csv", "weights.KmCurve.to_csv", "biasgen.apply_bias",
        "biasgen.power_law_distribution", "biasgen.subsample_to_distribution",
        "weights.stratum_shift_weights", "weights.km_fit", "weights.ipcw_weights",
        "train.fit", "train.logits_batch", "train.weighted_objective", "train.gradient",
        "train.momentum_step", "train.classification_metrics", "cli.classification_metrics",
        "experiment.classification_metrics", "experiment.run_experiment",
        "experiment.emit_results", "core.Dataset.__post_init__", "core.Dataset.take",
    ),
}
