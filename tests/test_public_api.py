"""The package's public names, and the import boundary that keeps scipy
(needed only by the study engine) out of estimation."""

import json
import subprocess
import sys

import pytest

import lodcdf
from lodcdf import data, simulation

from conftest import FIXTURES

PUBLIC = ["AllCensoredError", "Dataset", "IngestError", "InvalidParameterError", "SimConfig",
          "StepCdf", "StudyDegenerateError", "StudyResult", "TallyTable", "crhf_exp_cdf",
          "eval_cdf", "ingest", "mean_from_cdf", "product_limit_cdf", "quantile_from_cdf",
          "rhr_mle_cdf", "run_study", "substream", "sweep", "tally"]
STUDY_NAMES = ["SimConfig", "StudyResult", "run_study", "substream", "sweep"]


def test_all_is_unchanged():
    assert lodcdf.__all__ == PUBLIC


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from lodcdf import *", namespace)
    assert set(PUBLIC) <= namespace.keys()


@pytest.mark.parametrize("name", STUDY_NAMES)
def test_study_names_are_the_simulation_objects(name):
    assert getattr(lodcdf, name) is getattr(simulation, name)
    assert name in dir(lodcdf)


@pytest.mark.parametrize("name", ["InvalidParameterError", "StudyDegenerateError"])
def test_error_classes_are_one_class(name):
    assert getattr(lodcdf, name) is getattr(simulation, name) is getattr(data, name)


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="lodcdf.*no_such_name"):
        lodcdf.no_such_name


# A fresh interpreter records after each step whether scipy is loaded.
CHILD = """
import json, sys
steps = []
import lodcdf
steps.append(["import lodcdf", "scipy" in sys.modules])
import lodcdf.cli
steps.append(["import lodcdf.cli", "scipy" in sys.modules])
import lodcdf.simulation
steps.append(["import lodcdf.simulation", "scipy" in sys.modules])
for argv in json.loads(sys.argv[1]):
    assert lodcdf.cli.main(argv) == 0, argv
    steps.append([" ".join(argv), "scipy" in sys.modules])
print(json.dumps(steps))
"""


def test_estimate_and_compare_never_load_scipy(tmp_path):
    fixture = str(FIXTURES / "groundwater_reconstructed.csv")
    out = ["--output", str(tmp_path / "out")]
    commands = [
        ["estimate", fixture, "--method", "all", "--format", "csv", *out],
        ["estimate", fixture, "--method", "all", "--format", "json", *out],
        ["compare", fixture, *out],
        # Negative control: the study engine does load scipy.
        ["simulate", "--mu", "0", "--sigma", "1", "--m", "5", *out],
    ]
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)],
                          capture_output=True, text=True, check=True)
    steps = json.loads(proc.stdout)
    assert [label for label, _ in steps] == (
        ["import lodcdf", "import lodcdf.cli", "import lodcdf.simulation"]
        + [" ".join(argv) for argv in commands])
    assert [loaded for _, loaded in steps] == [False] * 6 + [True]
