"""The public API: every exported name exists, and importing it stays light."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import logweight as lw

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_exported_name_resolves():
    missing = [name for name in lw.__all__ if not hasattr(lw, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(set(lw.__all__)) == len(lw.__all__)


# Names that were public once and are gone: one value type (ScaledArray)
# and no entry point that nothing in the package calls.
REMOVED = {
    "logweight": ("ScaledComplex", "modulus_sum", "frequency_profile", "max_modulus",
                  "hull_weight", "equivalence_constants", "EquivalenceConstants",
                  "check_doubling", "DoublingResult", "check_unbounded", "sandwich_samples",
                  "provider_from_interleaved", "family_from_manifest"),
    "logweight.series": ("ScaledComplex", "modulus_sum", "frequency_profile",
                         "ScaledArray.item", "AdjustedPair.eval_f1", "sandwich_samples"),
    "logweight.ball_extension": ("BallFunctionSystem.log_modulus_sum",
                                 "provider_from_interleaved", "family_from_manifest"),
    "logweight.envelope": ("max_modulus", "hull_weight", "equivalence_constants",
                           "EquivalenceConstants", "EnvelopeResult.hull_value"),
    "logweight.weight_model": ("check_doubling", "DoublingResult", "check_unbounded",
                               "DOUBLING_CAP", "UNBOUNDED_LOG_THRESHOLD",
                               "UNBOUNDED_PROBE_S", "WeightFunction.deriv_mode",
                               "_PERTURBATIONS"),
    "logweight.numerics": ("logaddexp",),
}


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_stay_removed(module):
    def resolves(obj, dotted):
        for part in dotted.split("."):
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True

    mod = importlib.import_module(module)
    assert [name for name in REMOVED[module] if resolves(mod, name)] == []


def test_import_loads_no_scipy():
    # scipy takes about a second to import, and the package runs on numpy alone.
    code = "import sys, logweight; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_ball_runs_load_no_scipy(tmp_path):
    # sphere points are a closed-form Kronecker sequence in numpy, so a
    # whole construct-and-verify-ball session runs without scipy, and their
    # shift is drawn without numpy.random (about 6 MB of resident memory)
    state = str(tmp_path / "state.json")
    weight = ["--family", "ramey_ullrich"]
    runs = [["construct", *weight, "--h", "2", "--t0", "0.95", "--t-stop", "0.9999",
             "--out", state]]
    for fam, extra in (("monomial_d1", []), ("coordinate_d2", ["--degrees", "8"])):
        runs.append(["verify", "ball", *weight, "--state", state, "--poly-family", fam,
                     "--t-points", "8", *extra, "--out", str(tmp_path / f"{fam}.json")])
    code = ("import sys; from logweight.cli import main; "
            f"codes = [main(argv) for argv in {runs!r}]; "
            "print(codes, [m for m in sys.modules if m.startswith('scipy')], "
            "'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 1] [] False"
