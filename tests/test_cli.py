"""CLI subcommands, output contracts, and exit codes."""

import argparse
import csv
import dataclasses
import json
import re

import numpy as np
import pytest

from werm import bounds as bounds_mod, synthetic, train as train_mod, weights as weights_mod
from werm.cli import build_parser, main
from werm.core import EmptyStratumError, read_csv, write_csv
from werm.experiment import ExperimentSpec, run_experiment


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_binary_csv(path, n=60, p=0.5, seed=0):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < p).astype(int)
    x = np.where(y == 1, rng.random(n) ** 0.5, 1 - rng.random(n) ** 0.5)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0", "y"])
        for xi, yi in zip(x, y):
            writer.writerow([repr(float(xi)), int(yi)])
    return path


def write_survival_csv(path, n=50, seed=3):
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0", "t", "e"])
        for _ in range(n):
            t = rng.exponential()
            writer.writerow([repr(rng.random()), repr(t), int(rng.random() < 0.7)])
    return path


def write_strata_csv(path, n=300, K=3, seed=1):
    rng = np.random.default_rng(seed)
    s = rng.integers(0, K, n)
    y = rng.integers(0, 2, n)
    x = rng.random(n)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0", "y", "s"])
        for xi, yi, si in zip(x, y, s):
            writer.writerow([repr(float(xi)), int(yi), int(si)])
    return path


def write_censored_csv(path, n=60, seed=2):
    """Labelled survival records, which ``werm train`` can fit."""
    write_csv(synthetic.censored_train_sample(synthetic.CensoredSpec(), n, seed), path)
    return path


PRIOR_FLAG = {"p": "--p", "pk": "--pk-file"}  # the TargetPrior field each flag gives
PK = [0.2, 0.5, 0.3]

# each weights.modes row's input CSV, prior flags and TargetPrior fields; a
# row missing here fails collection, and uniform, the newest case, comes last
# so that the other cases keep their ids
MODE_INPUTS = {
    "class": (write_binary_csv, ["--p", "0.4"], {"p": 0.4}),
    "pu": (write_binary_csv, ["--p", "0.4"], {"p": 0.4}),
    "strata": (write_strata_csv, ["--pk-file", "PK"], {"pk": tuple(PK)}),
    "ipcw": (write_survival_csv, [], {}),
    "uniform": (write_survival_csv, [], {}),
}


class TestBoundsCommand:
    @pytest.mark.parametrize("argv", [
        ("approx1", "--epsilon", "1e-160"),
        ("lemma1", "--phi-sup", "1e308", "--rademacher", "1e308"),
    ], ids=["approx1 value and required_n", "lemma1 terms"])
    def test_non_finite_bound_exits_3_with_nothing_on_stdout(self, capsys, argv):
        kind, *flags = argv
        code, out, err = run_cli(
            capsys, "bounds", "--kind", kind, "--n", "100", "--delta", "0.1", *flags
        )
        assert code == 3 and out == ""
        assert err == f"numeric error: bound {kind!r} is not finite at these inputs\n"

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--kind", "approx1",
            "--n", "1000", "--delta", "0.05", "--epsilon", "0.2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(2.1473, abs=1e-3)
        assert doc["required_n"] == pytest.approx(184.44, abs=0.01)
        assert doc["valid"] is True
        assert "terms" in doc

    def test_stdout_bytes(self, capsys):
        _, out, _ = run_cli(
            capsys, "bounds", "--kind", "approx1",
            "--n", "1000", "--delta", "0.05", "--epsilon", "0.2",
        )
        assert out == (
            '{\n  "kind": "approx1",\n  "required_n": 184.44397270569678,\n'
            '  "terms": {\n    "deviation": 2.1473470417336875\n  },\n'
            '  "valid": true,\n  "value": 2.1473470417336875\n}\n'
        )

    def test_excess_bound_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--kind", "theorem1",
            "--n", "2000", "--delta", "0.05", "--epsilon", "0.2",
            "--K", "4", "--max-pk", "0.4", "--rademacher", "0.01",
        )
        assert code == 0
        assert json.loads(out)["value"] > 0

    def test_missing_field_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--kind", "corollary1", "--n", "100", "--delta", "0.1"
        )
        assert code == 2
        assert "error" in err

    def test_nan_lipschitz_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "bounds", "--kind", "approx2", "--n", "1000", "--delta", "0.05",
            "--epsilon", "0.2", "--K", "4", "--L", "nan",
        )
        assert code == 2 and out == ""
        assert "L must be >= 0" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--kind", "approx2", "--epsilon", "0.2", "--K", "4", "--L", "inf"],
            ["--kind", "lemma1", "--phi-sup", "inf"],
            ["--kind", "theorem1", "--epsilon", "0.2", "--K", "4", "--max-pk", "0.4",
             "--rademacher", "inf"],
        ],
    )
    def test_infinite_input_exits_2(self, capsys, flags):
        code, out, err = run_cli(capsys, "bounds", "--n", "1000", "--delta", "0.05", *flags)
        assert code == 2 and out == ""
        assert "must be >= 0 and finite" in err

    def test_flags_are_the_bound_inputs_fields(self):
        """One flag per BoundInputs field, in field order: its name with
        dashes, int for the counts n and K, its default, required iff it
        has none."""
        [subparsers] = [a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)]
        flags = [a for a in subparsers.choices["bounds"]._actions if a.dest not in ("help", "kind")]
        fields = dataclasses.fields(bounds_mod.BoundInputs)
        assert [a.dest for a in flags] == [f.name for f in fields]
        for action, f in zip(flags, fields):
            required = f.default is dataclasses.MISSING
            assert action.option_strings == ["--" + f.name.replace("_", "-")]
            assert action.type is (int if f.name in ("n", "K") else float)
            assert (action.required, action.default) == (required, None if required else f.default)


class TestAnalyticCommand:
    """The closed-form curves are the analytic_excess experiment."""

    def test_writes_curves(self, tmp_path, capsys):
        cfg = tmp_path / "analytic.json"
        cfg.write_text(json.dumps({"scenario": "analytic_excess", "synthetic": {"p": 0.3}}))
        code, out, _ = run_cli(
            capsys, "experiment", "--config", str(cfg), "--out", str(tmp_path / "curves_out")
        )
        assert code == 0
        written = json.loads(out)["written"]
        assert any(w.endswith("results.json") for w in written)
        risk = tmp_path / "curves_out" / "curves" / "risk_a1_b1.csv"
        rows = risk.read_text().splitlines()
        assert rows[0] == "theta,risk"
        # endpoints carry the boundary risks 1-p and p
        assert float(rows[1].split(",")[1]) == pytest.approx(0.7)
        assert float(rows[-1].split(",")[1]) == pytest.approx(0.3)


class TestBiasgenCommand:
    def test_bias_and_report(self, tmp_path, capsys):
        src = write_strata_csv(tmp_path / "src.csv")
        out_csv = tmp_path / "biased.csv"
        code, out, _ = run_cli(
            capsys, "biasgen", "--in", str(src), "--out", str(out_csv),
            "--gamma", "0.4", "--identity", "--seed", "9",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["p_prime"]) == 3
        assert abs(sum(doc["p_prime"]) - 1.0) < 1e-9
        biased = read_csv(out_csv)
        assert biased.n == doc["output_size"]
        assert biased.n < 300

    def test_missing_input_exits_4(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "biasgen", "--in", str(tmp_path / "absent.csv"),
            "--out", str(tmp_path / "o.csv"), "--gamma", "0.5",
        )
        assert code == 4
        assert "io error" in err

    def test_bad_gamma_exits_2(self, tmp_path, capsys):
        src = write_strata_csv(tmp_path / "src.csv")
        code, _, _ = run_cli(
            capsys, "biasgen", "--in", str(src),
            "--out", str(tmp_path / "o.csv"), "--gamma", "-1",
        )
        assert code == 2


class TestWeightsCommand:
    def test_class_mode(self, tmp_path, capsys):
        src = write_binary_csv(tmp_path / "d.csv")
        out_csv = tmp_path / "w.csv"
        code, out, _ = run_cli(
            capsys, "weights", "--in", str(src), "--out", str(out_csv),
            "--mode", "class", "--p", "0.4",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mean_weight"] == pytest.approx(1.0, abs=1e-12)
        rows = out_csv.read_text().splitlines()
        assert rows[0] == "w"
        assert len(rows) == 61

    def test_strata_mode_with_pk_file(self, tmp_path, capsys):
        src = write_strata_csv(tmp_path / "d.csv")
        pk_file = tmp_path / "pk.json"
        pk_file.write_text("[0.2, 0.5, 0.3]")
        code, out, _ = run_cli(
            capsys, "weights", "--in", str(src), "--out", str(tmp_path / "w.csv"),
            "--mode", "strata", "--pk-file", str(pk_file),
        )
        assert code == 0
        assert json.loads(out)["mean_weight"] == pytest.approx(1.0, abs=1e-12)

    def test_strata_mode_without_pk_exits_2(self, tmp_path, capsys):
        src = write_strata_csv(tmp_path / "d.csv")
        code, _, _ = run_cli(
            capsys, "weights", "--in", str(src), "--out", str(tmp_path / "w.csv"),
            "--mode", "strata",
        )
        assert code == 2

    def test_ipcw_mode_with_km_curve(self, tmp_path, capsys):
        path = write_survival_csv(tmp_path / "surv.csv")
        km_out = tmp_path / "km.csv"
        code, out, _ = run_cli(
            capsys, "weights", "--in", str(path), "--out", str(tmp_path / "w.csv"),
            "--mode", "ipcw", "--km-out", str(km_out),
        )
        assert code == 0
        assert km_out.read_text().splitlines()[0] == "t,s"

    def test_km_out_fits_the_censoring_curve_once(self, tmp_path, capsys, monkeypatch):
        """The weights and the written curve come from one Kaplan-Meier fit;
        the weights keep the bytes of a run without --km-out."""
        path = str(write_survival_csv(tmp_path / "surv.csv"))
        plain, with_km = tmp_path / "plain.csv", tmp_path / "w.csv"
        assert run_cli(capsys, "weights", "--in", path, "--out", str(plain),
                       "--mode", "ipcw")[0] == 0
        real, calls = weights_mod.km_fit, []
        monkeypatch.setattr(weights_mod, "km_fit", lambda *a: calls.append(1) or real(*a))
        km_out = tmp_path / "km.csv"
        assert run_cli(capsys, "weights", "--in", path, "--out", str(with_km),
                       "--mode", "ipcw", "--km-out", str(km_out))[0] == 0
        assert len(calls) == 1
        assert with_km.read_bytes() == plain.read_bytes()
        weights_mod.censoring_curve(read_csv(path)).to_csv(tmp_path / "ref_km.csv")
        assert km_out.read_bytes() == (tmp_path / "ref_km.csv").read_bytes()

    @pytest.mark.parametrize(
        "mode, writer, flags, ctx",  # ctx: the TargetPrior the flags give
        [(m, *MODE_INPUTS[m]) for m in sorted(weights_mod.modes(), key=list(MODE_INPUTS).index)],
    )
    def test_same_vector_as_mode_table(self, tmp_path, capsys, mode, writer, flags, ctx):
        """The CLI's weights are those of the mode's weights.modes estimator,
        the one the runner calls, given the same test-side facts."""
        src = writer(tmp_path / "d.csv")
        pk_file = tmp_path / "pk.json"
        pk_file.write_text(json.dumps(PK))
        flags = [str(pk_file) if f == "PK" else f for f in flags]
        code, _, _ = run_cli(
            capsys, "weights", "--in", str(src), "--out", str(tmp_path / "w.csv"),
            "--mode", mode, *flags,
        )
        assert code == 0
        estimator = weights_mod.modes()[mode].estimator
        expected = estimator(read_csv(src), weights_mod.TargetPrior(**ctx)).weights
        back = np.loadtxt(tmp_path / "w.csv", delimiter=",", skiprows=1, ndmin=1)
        np.testing.assert_array_equal(back, expected)

    @pytest.mark.parametrize("mode", ["class", "strata", "pu"])
    def test_km_out_outside_ipcw_exits_2_before_reading(self, tmp_path, capsys, mode):
        """Only ipcw fits a censoring curve; --km-out with another mode is
        refused before the input is read, so a missing input is no IO error."""
        pk_file = tmp_path / "pk.json"
        pk_file.write_text("[0.2, 0.5, 0.3]")
        code, out, err = run_cli(
            capsys, "weights", "--in", str(tmp_path / "absent.csv"),
            "--out", str(tmp_path / "w.csv"), "--mode", mode, "--p", "0.4",
            "--pk-file", str(pk_file), "--km-out", str(tmp_path / "km.csv"),
        )
        assert code == 2 and out == ""
        assert "--km-out" in err and "ipcw" in err
        assert not (tmp_path / "w.csv").exists() and not (tmp_path / "km.csv").exists()

    @pytest.mark.parametrize(
        "command, mode, flag",
        [
            (command, mode, flag)
            for command in ("weights", "train")
            for mode, row in weights_mod.modes().items()
            for flag in PRIOR_FLAG.values() if flag != PRIOR_FLAG.get(row.prior)
        ],
    )
    def test_unread_prior_flag_exits_2_before_reading(self, tmp_path, capsys, command, mode,
                                                      flag):
        """A prior flag the mode does not read is refused before the input
        is read, so a missing input is no IO error."""
        pk_file = tmp_path / "pk.json"
        pk_file.write_text(json.dumps(PK))
        absent = str(tmp_path / "absent.csv")
        given = {"--p": ["--p", "0.4"], "--pk-file": ["--pk-file", str(pk_file)]}
        reads = PRIOR_FLAG.get(weights_mod.modes()[mode].prior)
        flags = (given[reads] if reads else []) + given[flag]  # the mode's own flag too
        argv = {"weights": ["--in", absent, "--out", str(tmp_path / "w.csv"), "--mode"],
                "train": ["--train", absent, "--test", absent, "--weights"]}[command]
        code, out, err = run_cli(capsys, command, *argv, mode, *flags)
        assert (code, out) == (2, "")
        assert f"mode {mode!r} does not read {flag}" in err
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize(
        "mode, writer, needs",
        [
            ("class", write_binary_csv, "p"),
            ("pu", write_binary_csv, "p"),
            ("strata", write_strata_csv, "pk"),
            ("ipcw", write_binary_csv, "survival"),
        ],
    )
    def test_missing_side_information_exits_2(self, tmp_path, capsys, mode, writer, needs):
        src = writer(tmp_path / "d.csv")
        code, _, err = run_cli(
            capsys, "weights", "--in", str(src), "--out", str(tmp_path / "w.csv"),
            "--mode", mode,
        )
        assert code == 2
        assert mode in err and needs in err
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize(
        "text,line",
        [
            ("x0,t," + " " * 200_000 + "e\n0.5,1.0,1\n", 1),  # header cell
            ("x0,t,e\n0.5,1.0," + " " * 200_000 + "1\n0.5,oops,1\n", 2),  # before a bad line
        ],
        ids=["header", "before_bad_line"],
    )
    def test_cell_over_csv_field_limit_exits_2(self, tmp_path, capsys, text, line):
        """A cell longer than csv.field_size_limit() is a SchemaError naming
        the file and line, not a raw _csv.Error."""
        src = tmp_path / "long.csv"
        src.write_text(text)
        code, _, err = run_cli(
            capsys, "weights", "--in", str(src), "--out", str(tmp_path / "w.csv"),
            "--mode", "ipcw",
        )
        assert code == 2
        assert f"{src}: line {line}: field larger than field limit" in err
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("bad", ["in", "pk_file"])
    def test_undecodable_input_exits_2(self, tmp_path, capsys, bad):
        """Bytes that are not UTF-8 text in the dataset CSV or in the
        --pk-file exit 2, not with a UnicodeDecodeError traceback."""
        paths = {"in": write_strata_csv(tmp_path / "d.csv"), "pk_file": tmp_path / "pk.json"}
        paths["pk_file"].write_text("[0.3, 0.3, 0.4]")
        paths[bad].write_bytes(paths[bad].read_bytes() + b"\xff\n")
        code, out, err = run_cli(
            capsys, "weights", "--in", str(paths["in"]), "--out", str(tmp_path / "w.csv"),
            "--mode", "strata", "--pk-file", str(paths["pk_file"]),
        )
        assert (code, out) == (2, "")
        assert bad == "pk_file" or f"{paths['in']}: not utf-8 text" in err
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("doc", ['["a", 0.5, 0.5]', "[null, 0.5, 0.5]", "[{}, 1, 0]", "[[1], 0, 0]"])
    @pytest.mark.parametrize("command", ["weights", "train"])
    def test_junk_pk_file_entries_exit_2(self, tmp_path, capsys, command, doc):
        """The parsed list goes to TargetPrior, whose stratum rule refuses it."""
        src = write_strata_csv(tmp_path / "d.csv")
        pk_file = tmp_path / "pk.json"
        pk_file.write_text(doc)
        argv = {"weights": ["--in", str(src), "--out", str(tmp_path / "w.csv"), "--mode"],
                "train": ["--train", str(src), "--test", str(src), "--weights"]}[command]
        code, out, err = run_cli(capsys, command, *argv, "strata", "--pk-file", str(pk_file))
        assert (code, out) == (2, "")
        assert "pk must be a nonempty vector of finite" in err


class TestTrainCommand:
    @pytest.mark.parametrize("which", ["--train", "--test"])
    def test_csv_without_labels_exits_2_before_training(self, tmp_path, capsys, monkeypatch,
                                                        which):
        labelled = write_binary_csv(tmp_path / "labelled.csv")
        unlabelled = tmp_path / "unlabelled.csv"
        unlabelled.write_text("x0\n0.1\n0.9\n")
        monkeypatch.setattr(train_mod, "fit", lambda *a, **k: pytest.fail("trained"))
        paths = {"--train": labelled, "--test": labelled, which: unlabelled}
        code, out, err = run_cli(capsys, "train", *[str(v) for kv in paths.items() for v in kv])
        assert code == 2 and out == ""
        assert err == f"error: {unlabelled}: no y column; training and its metrics need labels\n"

    def test_train_and_curve_contract(self, tmp_path, capsys):
        train_csv = write_binary_csv(tmp_path / "train.csv", n=200, p=0.7, seed=4)
        test_csv = write_binary_csv(tmp_path / "test.csv", n=200, p=0.3, seed=5)
        curve = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            capsys, "train", "--train", str(train_csv), "--test", str(test_csv),
            "--weights", "class", "--p", "0.3", "--model", "linear",
            "--lr", "0.1", "--epochs", "5", "--batch", "50", "--seed", "1",
            "--curve", str(curve),
        )
        assert code == 0
        doc = json.loads(out)
        assert 0.0 <= doc["miss_rate"] <= 1.0
        assert doc["top_k"] == 2  # min(5, J) for binary data
        rows = curve.read_text().splitlines()
        assert rows[0] == "epoch,objective,miss_rate,top_k_error"
        assert len(rows) == 6

    def test_curve_bytes(self, tmp_path, capsys):
        """The --curve file has the bytes it had before the runner and the
        CLI shared one curve writer (numpy 2.4, OpenBLAS)."""
        data = tmp_path / "d.csv"
        data.write_text("x0,y\n0.1,0\n0.9,1\n0.2,0\n0.7,1\n0.4,1\n0.35,0\n")
        curve = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys, "train", "--train", str(data), "--test", str(data),
            "--lr", "0.5", "--epochs", "2", "--batch", "4", "--curve", str(curve),
        )
        assert code == 0
        assert curve.read_bytes() == (
            b"epoch,objective,miss_rate,top_k_error\r\n"
            b"0,0.7784005952518884,0.0,0.0\r\n1,0.6641647518092755,0.5,0.0\r\n"
        )

    def test_mlp_curve_bytes(self, tmp_path, capsys):
        """An mlp (d = 2, J = 3, so two hidden units) whose batches of 3 over
        7 rows end in a one-row batch keeps the --curve bytes and scores it
        had before training moved onto class-major arrays."""
        data = tmp_path / "d.csv"
        data.write_text(
            "x0,x1,y\n0.1,0.5,0\n0.9,-0.2,1\n0.2,0.3,2\n0.7,0.8,1\n"
            "0.4,-0.6,2\n0.35,0.1,0\n0.6,0.45,1\n"
        )
        curve = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            capsys, "train", "--train", str(data), "--test", str(data), "--model", "mlp",
            "--lr", "0.5", "--epochs", "3", "--batch", "3", "--seed", "2", "--curve", str(curve),
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["miss_rate"], doc["sce"], doc["top_k"], doc["top_k_error"]) == (
            0.5714285714285714, 1.3010780935512094, 3, 0.0
        )
        assert curve.read_bytes() == (
            b"epoch,objective,miss_rate,top_k_error\r\n"
            b"0,1.181443948942605,0.5714285714285714,0.0\r\n"
            b"1,0.9837209845415217,0.5714285714285714,0.0\r\n"
            b"2,1.0826609812499541,0.5714285714285714,0.0\r\n"
        )

    def test_bad_top_k_exits_2_before_training(self, tmp_path, capsys, monkeypatch):
        train_csv = write_binary_csv(tmp_path / "train.csv", n=50, seed=8)
        monkeypatch.setattr(train_mod, "fit", lambda *a, **k: pytest.fail("trained"))
        code, _, err = run_cli(
            capsys, "train", "--train", str(train_csv), "--test", str(train_csv),
            "--top-k", "3",
        )
        assert code == 2
        assert "top-k" in err

    def test_nan_lr_exits_2_before_training(self, tmp_path, capsys, monkeypatch):
        train_csv = write_binary_csv(tmp_path / "train.csv", n=50, seed=8)
        monkeypatch.setattr(train_mod, "fit", lambda *a, **k: pytest.fail("trained"))
        code, _, err = run_cli(
            capsys, "train", "--train", str(train_csv), "--test", str(train_csv), "--lr", "nan"
        )
        assert code == 2
        assert "lr must be > 0" in err

    @pytest.mark.parametrize("flag,value,message", [
        ("--lr", "inf", "lr must be > 0 and finite"),
        ("--wd", "inf", "weight_decay must be >= 0 and finite"),
        ("--momentum", "nan", r"momentum must lie in \[0, 1\)"),
    ])
    def test_bad_config_flag_exits_2_before_reading(self, tmp_path, capsys, flag, value, message):
        missing = str(tmp_path / "absent.csv")  # an io error, exit 4, if it were read
        code, out, err = run_cli(capsys, "train", "--train", missing, "--test", missing,
                                 flag, value)
        assert (code, out) == (2, "")
        assert re.search(message, err)

    def test_numeric_blowup_exits_3(self, tmp_path, capsys):
        train_csv = write_binary_csv(tmp_path / "train.csv", n=50, seed=6)
        test_csv = write_binary_csv(tmp_path / "test.csv", n=50, seed=7)
        code, _, err = run_cli(
            capsys, "train", "--train", str(train_csv), "--test", str(test_csv),
            "--lr", "1e18", "--wd", "1.0", "--epochs", "30", "--batch", "50",
        )
        assert code == 3
        assert "numeric error" in err


class TestExperimentCommand:
    def config(self, tmp_path, out_name="run"):
        doc = {
            "scenario": "strata_shift",
            "modes": ["uniform", "strata"],
            "replicates": 2,
            "base_seed": 11,
            "n_train": 400,
            "n_test": 400,
            "train": {"lr": 0.05, "epochs": 3, "batch_size": 200},
            "bias": {"gamma": 0.3},
            "synthetic": {"n_strata": 3, "n_classes": 3, "n_source": 2500},
            "top_k": 2,
            "out_dir": str(tmp_path / out_name),
        }
        cfg = tmp_path / f"{out_name}.json"
        cfg.write_text(json.dumps(doc))
        return cfg

    def test_runs_and_writes(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["failures"] == []
        results = json.loads((tmp_path / "run" / "results.json").read_text())
        assert set(results["modes"]) == {"uniform", "strata"}

    def test_training_set_with_no_event_fails_every_mode(self, tmp_path, capsys):
        """censor_rate 1e300 censors every record near time 0, so every
        mode's weights are all zero, and fit refuses each of them."""
        cfg = tmp_path / "censored.json"
        cfg.write_text(json.dumps({
            "scenario": "censored", "modes": ["uniform", "ipcw", "oracle"], "replicates": 1,
            "n_train": 200, "n_test": 200, "synthetic": {"censor_rate": 1e300},
        }))
        code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 5
        error = "ValidationError: weight vector 0 is all zero: it weights no record"
        assert json.loads(out)["failures"] == [
            {"replicate": 0, "mode": mode, "error": error} for mode in ("uniform", "ipcw", "oracle")
        ]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "a")
        run_cli(capsys, "experiment", "--config", str(cfg))
        first = (tmp_path / "a" / "results.json").read_bytes()
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 0
        assert (tmp_path / "a" / "results.json").read_bytes() == first

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "b")
        code, _, _ = run_cli(
            capsys, "experiment", "--config", str(cfg), "--out", str(tmp_path / "c")
        )
        assert code == 0
        assert (tmp_path / "c" / "results.json").exists()

    def test_missing_train_csv_is_an_io_error(self, tmp_path, capsys):
        """An unreadable input is not a replicate failure: exit 4, no outputs."""
        cfg = tmp_path / "missing.json"
        cfg.write_text(json.dumps({
            "scenario": "strata_shift", "modes": ["uniform"], "replicates": 2,
            "train_csv": str(tmp_path / "absent.csv"), "test_csv": str(tmp_path / "absent.csv"),
            "out_dir": str(tmp_path / "m"),
        }))
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 4
        assert "absent.csv" in err
        assert not (tmp_path / "m").exists()

    def test_failed_runs_exit_5_and_still_write(self, tmp_path, capsys, monkeypatch):
        def broken(data, prior):
            raise EmptyStratumError(2)

        monkeypatch.setattr(weights_mod, "stratum_shift_weights", broken)
        cfg = self.config(tmp_path, "f")
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 5
        assert [f["mode"] for f in json.loads(out)["failures"]] == ["strata", "strata"]
        assert "2 replicate x mode runs failed" in err
        results = json.loads((tmp_path / "f" / "results.json").read_text())
        assert len(results["failures"]) == 2
        assert len(results["modes"]["uniform"]["miss_rate"]["values"]) == 2

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("train", {"lr": -1.0}, "lr must be > 0"),
            ("bias", {"gamma": 0.3, "exponent_style": "x"}, "'bias'.*exponent_style"),
            ("synthetic", {"n_strat": 5}, "'synthetic'.*n_strat"),
            ("train", {"lr": float("nan")}, "lr must be > 0"),
            ("train", {"batch_size": 2.5}, "batch_size must be an integer"),
            ("bias", {"gamma": 0.3, "target_pk": []}, "target_pk must be"),
            ("bias", {"gamma": float("nan")}, r"gamma must lie in \(0, 1\]"),
            ("modes", ["uniform", "pu"], "'strata_shift' cannot run reweighting mode 'pu'"),
        ],
    )
    def test_bad_override_exits_2_before_work(self, tmp_path, capsys, field, value, message):
        cfg = self.config(tmp_path, "g")
        doc = json.loads(cfg.read_text())
        doc[field] = value
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 2 and out == ""
        assert re.search(message, err)
        assert not (tmp_path / "g").exists()

    def test_bad_config_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run_cli(capsys, "experiment", "--config", str(bad))
        assert code == 2


    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "u")
        cfg.write_bytes(cfg.read_bytes().replace(b'"uniform"', b'"unif\xffrm"'))
        code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert not (tmp_path / "u").exists()

    def test_undecodable_train_csv_is_a_shared_data_failure(self, tmp_path, capsys):
        """A train_csv that is not UTF-8 text fails every replicate once,
        with a SchemaError naming the file, and exits 5."""
        train = write_strata_csv(tmp_path / "train.csv")
        train.write_bytes(train.read_bytes() + b"0.\xff,1,0\n")
        cfg = tmp_path / "csv.json"
        cfg.write_text(json.dumps({
            "scenario": "strata_shift", "modes": ["uniform"], "replicates": 2,
            "train_csv": str(train), "test_csv": str(write_strata_csv(tmp_path / "test.csv")),
            "out_dir": str(tmp_path / "v"),
        }))
        code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg))
        error = f"SchemaError: {train}: not utf-8 text (invalid start byte)"
        assert code == 5
        assert json.loads(out)["failures"] == [
            {"replicate": r, "mode": "*", "error": error} for r in range(2)
        ]


class TestTypedSeeds:
    """A seed numpy refuses exits 2 with an error naming it, not a raw
    ValueError traceback."""

    def test_biasgen_seed(self, tmp_path, capsys):
        src = write_strata_csv(tmp_path / "src.csv")
        code, _, err = run_cli(
            capsys, "biasgen", "--in", str(src), "--out", str(tmp_path / "o.csv"),
            "--gamma", "0.5", "--seed", "-1",
        )
        assert code == 2 and "seed must be" in err
        assert not (tmp_path / "o.csv").exists()

    def test_biasgen_perm_seed(self, tmp_path, capsys):
        src = write_strata_csv(tmp_path / "src.csv")
        code, _, err = run_cli(
            capsys, "biasgen", "--in", str(src), "--out", str(tmp_path / "o.csv"),
            "--gamma", "0.5", "--perm-seed", "-2",
        )
        assert code == 2 and "perm_seed must be" in err

    def test_train_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(train_mod, "fit", lambda *a, **k: pytest.fail("trained"))
        train = write_binary_csv(tmp_path / "train.csv")
        test = write_binary_csv(tmp_path / "test.csv", seed=1)
        code, _, err = run_cli(
            capsys, "train", "--train", str(train), "--test", str(test), "--seed", "-1"
        )
        assert code == 2 and "seed must be" in err

    def test_experiment_base_seed(self, tmp_path, capsys):
        cfg = TestExperimentCommand().config(tmp_path, "s")
        doc = json.loads(cfg.read_text())
        doc["base_seed"] = -1
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "base_seed must be" in err
        assert not (tmp_path / "s").exists()


# per weights.modes row: the weights function its estimator calls, a spec
# of a scenario it fits, and the CSV and prior flags the CLI runs it on
ROW_CALLS = {
    "uniform": ("uniform_weights", {"scenario": "censored"}, write_censored_csv, []),
    "class": ("class_shift_weights", {"scenario": "class_shift",
                                      "synthetic": {"p": 0.3, "p_train": 0.6}},
              write_binary_csv, ["--p", "0.4"]),
    "pu": ("pu_weights", {"scenario": "pu", "synthetic": {"p": 0.3, "q": 0.4}},
           write_binary_csv, ["--p", "0.4"]),
    "strata": ("stratum_shift_weights", {"scenario": "strata_shift",
                                         "synthetic": {"n_strata": 3, "n_classes": 2}},
               write_strata_csv, ["--pk-file", "PK"]),
    "ipcw": ("ipcw_weights", {"scenario": "censored"}, write_censored_csv, []),
}


@pytest.mark.parametrize("mode", list(weights_mod.modes()))
def test_rebinding_a_rows_estimator_reaches_runner_and_cli(tmp_path, capsys, monkeypatch, mode):
    """weights.modes reads each estimator at call time, so a rebinding of
    the weights function a row calls, as perfbench's tracer makes, reaches
    run_experiment, werm weights and werm train."""
    name, fields, writer, flags = ROW_CALLS[mode]
    real, calls = getattr(weights_mod, name), []

    def counted(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(weights_mod, name, counted)
    spec = ExperimentSpec(modes=(mode,), n_train=200, n_test=100,
                          train={"epochs": 1, "batch_size": 100}, **fields)
    assert run_experiment(spec)["failures"] == []
    assert calls == [name]
    src, pk_file = str(writer(tmp_path / "d.csv")), tmp_path / "pk.json"
    pk_file.write_text(json.dumps(PK))
    flags = [str(pk_file) if f == "PK" else f for f in flags]
    w_csv = str(tmp_path / "w.csv")
    assert run_cli(capsys, "weights", "--in", src, "--out", w_csv, "--mode", mode, *flags)[0] == 0
    assert run_cli(capsys, "train", "--train", src, "--test", src, "--weights", mode, *flags,
                   "--epochs", "1")[0] == 0
    assert calls == [name] * 3
