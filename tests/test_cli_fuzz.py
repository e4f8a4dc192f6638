"""``werm.cli.main`` under fuzzed input: experiment documents over every
scenario, at tiny sizes, and ``bounds`` flag sets.  Each call returns one
of the documented exit codes; only argparse's own usage exit escapes."""

import json
import math
import os
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from werm import cli, experiment, synthetic
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


@st.composite
def spec_documents(draw):
    """A document for one scenario, with up to two of its fields, or of its
    synthetic fields, set to junk."""
    scenario = draw(st.sampled_from(sorted(SYNTHETIC)))
    required, optional = SYNTHETIC[scenario]
    modes = st.lists(st.sampled_from(experiment.SCENARIO_MODES[scenario]), min_size=1, max_size=3)
    doc = draw(st.fixed_dictionaries(
        {"scenario": st.just(scenario), **SIZES}, optional={"modes": modes, **OPTIONAL}
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
    """A directory holding a small stratified CSV and one with labels only."""
    path = tmp_path_factory.mktemp("fuzz")
    gspec = synthetic.GaussianStrataSpec(n_strata=3, n_classes=3)
    data = synthetic.gaussian_strata_sample(gspec, 40, [0.5, 0.3, 0.2], 0)
    write_csv(data, path / "strata.csv")
    data.strata, data.n_strata = None, None
    write_csv(data, path / "labels.csv")
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
@given(doc=spec_documents(), out=st.booleans())
def test_experiment_documents_exit_with_a_documented_code(workdir, doc, out):
    (workdir / "spec.json").write_text(json.dumps(doc))
    argv = ["experiment", "--config", "spec.json"] + (["--out", "out"] if out else [])
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
