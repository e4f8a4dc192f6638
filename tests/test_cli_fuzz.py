"""``werm.cli.main`` under fuzzed input: experiment documents over every
scenario, at tiny sizes, ``bounds`` flag sets, and ``biasgen``,
``weights`` and ``train`` flags on tiny CSVs.  Each call returns one of the
documented exit codes; only argparse's own usage exit escapes."""

import json
import math
import os
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from werm import analytic, cli, experiment, synthetic, weights
from werm.bounds import DEVIATION_BOUND_KINDS, EXCESS_BOUND_KINDS
from werm.core import write_csv

EXIT_CODES = {0, 2, 3, 4, 5}
FUZZ = settings(
    max_examples=250, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

RATE = st.floats(0.05, 0.95)
EXPONENT = st.integers(0, 3) | st.floats(0.0, 3.0)
# scenario -> (its required synthetic fields, its optional ones); the pairs
# of analytic_excess may be of any length
SYNTHETIC = {
    "class_shift": ({"p": RATE, "p_train": RATE}, {"alpha": EXPONENT, "beta": EXPONENT}),
    "pu": ({"p": RATE, "q": RATE}, {"alpha": EXPONENT, "beta": EXPONENT}),
    "strata_shift": ({}, {
        "n_strata": st.integers(1, 4), "n_classes": st.integers(2, 4),
        "n_source": st.integers(1, 80), "noise": st.floats(0.1, 3.0),
    }),
    "censored": ({}, {
        "slope": st.floats(-3.0, 3.0), "censor_rate": st.floats(0.1, 3.0),
        "horizon": st.floats(0.1, 3.0),
    }),
    "analytic_excess": ({}, {
        "p": RATE, "pairs": st.lists(st.lists(EXPONENT, min_size=1, max_size=3), max_size=2),
    }),
}
# the spec's fields: the sizes are always set, and tiny
SIZES = {
    "n_train": st.integers(1, 40),
    "n_test": st.integers(1, 40),
    "train": st.fixed_dictionaries({"epochs": st.integers(0, 2)}, optional={
        "batch_size": st.integers(1, 40), "lr": st.sampled_from([0.05, 1e300]),
    }),
}
OPTIONAL = {
    "replicates": st.integers(1, 2),
    "base_seed": st.integers(0, 3),
    "model_kind": st.sampled_from(["linear", "mlp"]),
    "top_k": st.integers(1, 3),
    "bias": st.none() | st.fixed_dictionaries({"gamma": st.floats(0.1, 1.0)}, optional={
        "permutation": st.sampled_from(["identity", "random", [2, 1]]),
        "perm_seed": st.integers(0, 3),
    }),
    "prior": st.fixed_dictionaries({}, optional={"pk": st.lists(st.floats(0.0, 1.0), max_size=4)}),
}
# (train_csv, test_csv) of a strata_shift document: neither, both, or one alone
CSV_PAIRS = st.sampled_from([
    (None, None), ("strata.csv", "strata.csv"), ("labels.csv", "strata.csv"),
    ("absent.csv", "strata.csv"), ("strata.csv", None), (None, "strata.csv"),
])
# values no field expects, each put in place of a drawn one
JUNK = st.sampled_from(
    [None, True, -1, 0, 2.5, float("nan"), math.inf, "x", [], {}, [1], [[1]], [["a", 1]]]
)
# whole documents that are not JSON objects
NOT_OBJECTS = st.sampled_from([None, 5, "s", [], [1], [["scenario", "pu"]]])


@st.composite
def spec_documents(draw):
    """A document for one scenario, with up to two of its fields, or of its
    synthetic fields, set to junk; one in ten is not an object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(NOT_OBJECTS)
    scenario = draw(st.sampled_from(sorted(SYNTHETIC)))
    required, optional = SYNTHETIC[scenario]
    record = experiment.SCENARIOS[scenario]
    modes = st.lists(st.sampled_from(experiment._modes(scenario)), min_size=1, max_size=3)
    # a prior only where the scenario reads one; BAD_SPECS covers the refusal
    extra = {k: v for k, v in OPTIONAL.items() if k != "prior" or record.priors}
    doc = draw(st.fixed_dictionaries(
        {"scenario": st.just(scenario), **SIZES}, optional={"modes": modes, **extra}
    ))
    doc["synthetic"] = draw(st.fixed_dictionaries(required, optional=optional))
    csvs = dict(zip(("train_csv", "test_csv"), draw(CSV_PAIRS))) if scenario == "strata_shift" else {}
    doc.update((name, path) for name, path in csvs.items() if path is not None)
    fields = [(doc, name) for name in (*SIZES, "modes", *OPTIONAL, "train_csv", "test_csv")]
    fields += [(doc["synthetic"], name) for name in (*required, *optional)]
    for owner, name in draw(st.lists(st.sampled_from(fields), max_size=2)):
        owner[name] = draw(JUNK)
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding a small stratified CSV, one with labels only, a
    binary one and a censored one."""
    path = tmp_path_factory.mktemp("fuzz")
    gspec = synthetic.GaussianStrataSpec(n_strata=3, n_classes=3)
    data = synthetic.gaussian_strata_sample(gspec, 40, [0.5, 0.3, 0.2], 0)
    write_csv(data, path / "strata.csv")
    data.strata, data.n_strata = None, None
    write_csv(data, path / "labels.csv")
    write_csv(analytic.sample(analytic.AnalyticModel(1.0, 1.0, 0.3), 40, 0.5, 0), path / "binary.csv")
    write_csv(synthetic.censored_train_sample(synthetic.CensoredSpec(), 40, 0), path / "censored.csv")
    return path


def _main_in(directory, argv) -> int:
    """cli.main run in ``directory``; what it writes under ``out`` is removed."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse's usage error, and nothing else
        assert exc.code == 2
        return 2
    finally:
        os.chdir(cwd)
        shutil.rmtree(directory / "out", ignore_errors=True)


@FUZZ
@given(doc=spec_documents(), out=st.booleans(), seed=st.booleans())
def test_experiment_documents_exit_with_a_documented_code(workdir, doc, out, seed):
    (workdir / "spec.json").write_text(json.dumps(doc))
    argv = ["experiment", "--config", "spec.json"] + (["--out", "out"] if out else [])
    argv += ["--seed", "3"] if seed else []
    assert _main_in(workdir, argv) in EXIT_CODES


# a value in range for each flag of ``werm bounds``
BOUND_FLAGS = {
    "--n": st.integers(1, 10**6).map(str),
    "--delta": st.floats(0.01, 0.5).map(repr),
    "--epsilon": st.floats(0.01, 0.49).map(repr),
    "--L": st.floats(0.0, 5.0).map(repr),
    "--p": st.floats(0.05, 0.95).map(repr),
    "--K": st.integers(1, 20).map(str),
    "--max-pk": st.floats(0.05, 1.0).map(repr),
    "--phi-sup": st.floats(0.0, 5.0).map(repr),
    "--rademacher": st.floats(0.0, 1.0).map(repr),
}
# flag values out of range, at the edges of the float range or past it, or
# not numbers; None leaves the flag out
EDGES = st.sampled_from(
    [None, "0", "-1", "2.5", "nan", "inf", "-inf", "1e-200", "1e400", "1" + "0" * 400, "x"]
)


@st.composite
def bound_argv(draw):
    """``werm bounds`` of any kind, with up to two flags set to an edge."""
    kind = draw(st.sampled_from(sorted(EXCESS_BOUND_KINDS + DEVIATION_BOUND_KINDS)))
    flags = draw(st.fixed_dictionaries(BOUND_FLAGS))
    for flag in draw(st.lists(st.sampled_from(sorted(BOUND_FLAGS)), max_size=2)):
        flags[flag] = draw(EDGES)
    return ["bounds", "--kind", kind] + [
        part for flag, value in flags.items() if value is not None for part in (flag, value)
    ]


@FUZZ
@given(argv=bound_argv())
def test_bounds_flags_exit_with_a_documented_code(workdir, argv):
    assert _main_in(workdir, argv) in EXIT_CODES


# subcommand -> (an argv in range, and per flag the edge values it may get);
# every output goes under out/, which _main_in removes
DATA_COMMANDS = {
    "biasgen": (
        ["--in", "strata.csv", "--out", "out/b.csv", "--gamma", "0.5", "--seed", "1"],
        {"--max-size": ["0", "-1", str(10**6), "1", "2.5"], "--gamma": ["0", "1", "2", "nan", "inf"],
         "--seed": ["-1", str(2**64)], "--perm-seed": ["0", "-1"],
         "--in": ["labels.csv", "binary.csv", "absent.csv"]},
    ),
    "weights": (
        ["--in", "strata.csv", "--out", "out/w.csv", "--mode", "strata"],
        {"--mode": ["class", "pu", "ipcw"], "--p": ["0", "1", "nan", "-inf"],
         "--in": ["binary.csv", "censored.csv", "labels.csv"], "--pk-file": ["absent.json"],
         "--km-out": ["out/km.csv"]},
    ),
    "train": (
        ["--train", "strata.csv", "--test", "strata.csv", "--weights", "strata",
         "--epochs", "2", "--batch", "16"],
        {"--batch": ["0", "-3"], "--epochs": ["-1", "0"], "--top-k": ["0", "3", "9"],
         "--p": ["0", "1", "nan"], "--weights": ["uniform", "class", "pu", "ipcw"],
         "--model": ["mlp"], "--lr": ["nan", "1e300"], "--seed": ["-1"],
         "--train": ["binary.csv", "censored.csv"], "--test": ["labels.csv", "binary.csv"],
         "--curve": ["out/curve.csv"]},
    ),
}
# contents of pk.json: a distribution over the 3 strata, then junk
PK_DOCS = [
    "[0.5, 0.3, 0.2]", "[1.0]", '["a", 0.5, 0.5]', "[null, 1.0]", "[{}, 1]", "[[0.5], 0.5]",
    "[NaN, 0.5, 0.5]", "[1e400, 0, 0]", "[true, false, false]", '{"pk": 1}', '"x"', "not json", "",
]


# the prior flag, in range, that each reweighting mode reads
IN_RANGE = {"p": ["--p", "0.4"], "pk": ["--pk-file", "pk.json"]}
MODE_PRIOR = {mode: IN_RANGE[row.prior] for mode, row in weights.modes().items() if row.prior}


def _data_argv(command, edits):
    """The command's argv with ``edits`` applied, plus the prior flag its
    final mode reads unless an edit set that flag."""
    argv = list(DATA_COMMANDS[command][0])
    for flag, value in edits:
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    if command != "biasgen":
        mode = argv[argv.index({"weights": "--mode", "train": "--weights"}[command]) + 1]
        prior = MODE_PRIOR.get(mode)
        if prior and prior[0] not in argv:
            argv += prior
    return [command, *argv]


def _run_data_command(workdir, pk_doc, argv) -> int:
    (workdir / "pk.json").write_text(pk_doc)
    (workdir / "out").mkdir(exist_ok=True)
    return _main_in(workdir, argv)


@pytest.mark.parametrize("command,flag,value", [
    (command, flag, value)
    for command, (_, edges) in DATA_COMMANDS.items()
    for flag, values in edges.items() for value in values
])
def test_each_edge_flag_exits_with_a_documented_code(workdir, command, flag, value):
    assert _run_data_command(workdir, PK_DOCS[0], _data_argv(command, [(flag, value)])) in EXIT_CODES


@pytest.mark.parametrize("command", ["weights", "train"])
@pytest.mark.parametrize("pk_doc", PK_DOCS)
def test_each_pk_file_exits_with_a_documented_code(workdir, command, pk_doc):
    assert _run_data_command(workdir, pk_doc, _data_argv(command, [])) in EXIT_CODES


@st.composite
def data_argv(draw):
    """``biasgen``, ``weights`` or ``train``, with up to three flags at an edge."""
    command = draw(st.sampled_from(sorted(DATA_COMMANDS)))
    edges = DATA_COMMANDS[command][1]
    flags = draw(st.lists(st.sampled_from(sorted(edges)), max_size=3, unique=True))
    return _data_argv(command, [(flag, draw(st.sampled_from(edges[flag]))) for flag in flags])


@settings(FUZZ, max_examples=100)
@given(argv=data_argv(), pk_doc=st.sampled_from(PK_DOCS))
def test_data_commands_exit_with_a_documented_code(workdir, argv, pk_doc):
    assert _run_data_command(workdir, pk_doc, argv) in EXIT_CODES
