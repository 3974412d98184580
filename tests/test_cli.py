"""Command-line contract: exit codes, JSON/CSV formats, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import logweight as lw
from logweight import cli
from logweight.cli import main
from logweight.series import _sandwich_blocks
from reference_emit import reference_emit_rows
from reference_series import reference_modulus_sum


@pytest.fixture()
def state_file(tmp_path):
    path = tmp_path / "state.json"
    rc = main(["construct", "--family", "ramey_ullrich", "--h", "2",
               "--t0", "0.95", "--t-stop", "0.9999", "--out", str(path)])
    assert rc == 0
    return path


class TestConstruct:
    def test_happy_path_stdout(self, capsys):
        rc = main(["construct", "--family", "ramey_ullrich", "--h", "2",
                   "--t0", "0.95", "--t-stop", "0.9999"])
        captured = capsys.readouterr()
        assert rc == 0
        state = json.loads(captured.out)
        assert set(state) == {"h", "x0", "xs", "deltas", "log_as", "es"}
        assert state["h"] == 2
        assert len(state["xs"]) == len(state["es"]) + 1

    def test_deterministic_output(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            assert main(["construct", "--family", "exp_power", "--params", "1",
                         "--t-stop", "0.999", "--out", str(p)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_h_below_two_rejected(self, capsys):
        rc = main(["construct", "--family", "ramey_ullrich", "--h", "1",
                   "--t0", "0.95"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_nonconvex_table_rejected(self, tmp_path, capsys):
        # monotone omega whose log-log profile has a concave kink
        table = [[0.1, 1.0], [0.3, 4.5], [0.5, 5.0], [0.7, 5.5], [0.9, 60.0]]
        spec = tmp_path / "bad_nonconvex.json"
        spec.write_text(json.dumps({"family": "tabulated", "table": table}))
        rc = main(["construct", "--weight", str(spec), "--x0", "-2.0",
                   "--t-stop", "0.85"])
        assert rc == 2
        assert "not strictly convex" in capsys.readouterr().err

    def test_t_range_stays_inside_disk(self, capsys):
        # the last radius is exp(-1.28e-13), which 6 digits would print as 1
        assert main(["construct", "--family", "ramey_ullrich",
                     "--t-stop", "0.999999999999"]) == 0
        captured = capsys.readouterr()
        state = lw.ConstructionState.from_json_dict(json.loads(captured.out))
        t0, t_last = captured.err.split("t range (")[1].rstrip("]\n").split(", ")
        assert (float(t0), float(t_last)) == (state.t0, state.t_last)
        assert float(t_last) < 1.0

    def test_float_floor_is_input_error(self, capsys):
        rc = main(["construct", "--family", "double_exp", "--t0", "0.9758528039767908",
                   "--k-max", "40"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "past the float floor" in captured.err

    def test_malformed_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--no-such-flag"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("t0", ["0", "-0.5", "1", "nan"])
    def test_t0_outside_unit_interval_is_input_error(self, t0, capsys):
        rc = main(["construct", "--family", "ramey_ullrich", "--t0", t0])
        assert rc == 2
        assert "--t0 must lie in (0, 1)" in capsys.readouterr().err


class TestEntryPoint:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_commands_dispatch_at_call_time(self, state_file, tmp_path, monkeypatch):
        out = tmp_path / "grid.csv"
        args = ["emit", "--state", str(state_file), "--family", "ramey_ullrich",
                "--out", str(out)]
        assert main(args) == 0
        monkeypatch.setattr(cli, "cmd_emit", lambda parsed: 42)
        assert main(args) == 42

    def test_python_m_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(lw.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-m", "logweight", "--version"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0
        assert done.stdout.strip() == lw.__version__


class TestVerify:
    def test_sandwich_pass(self, state_file, capsys):
        rc = main(["verify", "sandwich", "--state", str(state_file),
                   "--family", "ramey_ullrich", "--t-points", "200",
                   "--angles", "32"])
        captured = capsys.readouterr()
        assert rc == 0
        report = json.loads(captured.out)
        assert report["passed"] is True
        assert report["lower_margin"] > 0

    def test_lemmas_pass(self, state_file, capsys):
        rc = main(["verify", "lemmas", "--state", str(state_file),
                   "--family", "ramey_ullrich", "--samples", "20"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_wrong_weight_is_input_error(self, state_file, capsys):
        rc = main(["verify", "lemmas", "--state", str(state_file),
                   "--family", "exp_power", "--params", "1"])
        assert rc == 2

    def test_envelope_sawtooth_fails_equivalence(self, capsys):
        rc = main(["verify", "envelope", "--family",
                   "perturbed_unbounded_sawtooth"])
        captured = capsys.readouterr()
        assert rc == 1
        report = json.loads(captured.out)
        assert report["equivalent"] is False
        assert report["gap"] > 10.0

    def test_envelope_param_count_names_family(self, capsys):
        rc = main(["verify", "envelope", "--family", "perturbed_bump", "--params", "1"])
        assert rc == 2
        assert "'perturbed_bump' takes 3 parameter(s), got 1" in capsys.readouterr().err

    def test_envelope_convex_passes(self, capsys):
        rc = main(["verify", "envelope", "--family", "ramey_ullrich"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["equivalent"] is True

    def test_hadamard(self, capsys):
        rc = main(["verify", "hadamard", "--random-polys", "10", "--seed", "7"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["min_second_diff"] >= -1e-7

    def test_hadamard_names_basis(self, capsys):
        rc = main(["verify", "hadamard", "--random-polys", "10", "--seed", "7"])
        assert rc == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["basis"] == "bracket" and report["converged"] is True
        assert f"bracket basis (log width {report['log_bracket_width']:.3g})" in captured.err

    @pytest.mark.parametrize("flags, match", [(["--random-polys", "0"], "at least one function"),
                                              (["--max-degree", "0"], "max_degree")])
    def test_hadamard_bad_inputs(self, flags, match, capsys):
        rc = main(["verify", "hadamard", *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and match in err

    @pytest.mark.parametrize("argv", [["hadamard", "--r-min", "nan"],
                                      ["hadamard", "--r-max", "nan"],
                                      ["envelope", "--family", "perturbed_unbounded_sawtooth",
                                       "--gap-bound", "nan"],
                                      ["envelope", "--family", "ramey_ullrich",
                                       "--x-min", "nan"]])
    def test_nan_inputs_are_input_errors(self, argv, capsys):
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_ball_monomial(self, state_file, capsys):
        rc = main(["verify", "ball", "--state", str(state_file),
                   "--family", "ramey_ullrich", "--poly-family", "monomial_d1",
                   "--t-points", "8", "--sphere-samples", "64"])
        captured = capsys.readouterr()
        assert rc == 0
        report = json.loads(captured.out)
        assert report["family"]["passed"] and report["lower_bound"]["passed"]

    def test_ball_coordinate_family_rejected(self, state_file, capsys):
        rc = main(["verify", "ball", "--state", str(state_file),
                   "--family", "ramey_ullrich", "--poly-family", "coordinate_d2",
                   "--degrees", "8", "--sphere-samples", "64"])
        captured = capsys.readouterr()
        assert rc == 1
        report = json.loads(captured.out)
        assert report["passed"] is False

    def test_ball_negative_seed_is_input_error(self, state_file, capsys):
        rc = main(["verify", "ball", "--state", str(state_file),
                   "--family", "ramey_ullrich", "--poly-family", "monomial_d1",
                   "--sphere-samples", "64", "--seed", "-1"])
        assert rc == 2
        assert "integer seed >= 0, got -1" in capsys.readouterr().err

    def test_ball_delta_needs_its_gap(self, state_file, capsys):
        # delta 1/2 needs h >= log 9; the state was built with h = 2
        rc = main(["verify", "ball", "--state", str(state_file), "--family", "ramey_ullrich",
                   "--poly-family", "monomial_d1", "--delta", "0.5", "--t-points", "8",
                   "--sphere-samples", "64"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "h=2.0 < h_for_delta(0.5) = 2.1972245773362196" in captured.err

    def test_ball_delta_with_its_gap(self, tmp_path, capsys):
        h = "2.1972245773362196"
        assert lw.h_for_delta(0.5) == float(h)
        state = tmp_path / "state.json"
        weight = ["--family", "ramey_ullrich"]
        assert main(["construct", *weight, "--h", h, "--out", str(state)]) == 0
        capsys.readouterr()
        rc = main(["verify", "ball", *weight, "--state", str(state), "--poly-family",
                   "monomial_d1", "--delta", "0.5", "--t-points", "8", "--sphere-samples", "64"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["family"]["delta_claimed"] == report["lower_bound"]["delta"] == 0.5
        assert report["lower_bound"]["h"] == float(h)

    def test_missing_state_file(self, capsys):
        rc = main(["verify", "sandwich", "--state", "/nonexistent.json",
                   "--family", "ramey_ullrich"])
        assert rc == 2


class TestMalformedInputs:
    """A malformed or non-finite input file is an input error: exit 2 with
    the field or the knot named, not a traceback and exit 1."""

    @pytest.mark.parametrize("flags, content, match", [
        (["--weight"], {"family": "tabulated", "table": [1, 2, 3]}, "table must be a list of"),
        (["--weight"], {"family": "power", "params": 5}, "params must be a list of numbers"),
        (["--weight"], {"family": "tabulated", "table": [[0.5, math.nan], [0.9, 2.0]]},
         "omega=nan at t=0.5"),
        (["--weight"], {"family": "tabulated", "table": [[0.5, 1.0], [0.9, math.inf]]},
         "omega=inf at t=0.9")])
    @pytest.mark.parametrize("command", [["construct"], ["verify", "envelope"]])
    def test_weight_file(self, command, flags, content, match, tmp_path, capsys):
        path = tmp_path / "weight.json"
        path.write_text(json.dumps(content))
        assert main([*command, *flags, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert match in captured.err

    @pytest.mark.parametrize("field, value", [("xs", 5), ("log_as", [None]), ("h", None),
                                              ("es", ["e"])])
    def test_state_file(self, field, value, state_file, tmp_path, capsys):
        state = json.loads(state_file.read_text())
        state[field] = value if not isinstance(value, list) else value + state[field][1:]
        path = tmp_path / "bad_state.json"
        path.write_text(json.dumps(state))
        assert main(["verify", "lemmas", "--family", "ramey_ullrich",
                     "--state", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"state field {field!r} is malformed" in captured.err

    @pytest.mark.parametrize("trim, message", [
        (("deltas", "log_as"), "state field 'deltas' has 63 entries, not 68 for K = 68"),
        (("log_as",), "state field 'log_as' has 63 entries, not 68 for K = 68"),
        (("es",), "state field 'xs' has 69 entries, not 64 for K = 63"),
        (("xs",), "state field 'xs' has 64 entries, not 69 for K = 68")])
    def test_state_lengths_agree(self, trim, message, exp_power_state, tmp_path, capsys):
        # zip dropped the extra entries: with 5 lines cut off, the state
        # loaded as 63 lines over 69 xs and 68 es, and a sandwich exit 1
        state = json.loads(exp_power_state.read_text())
        assert len(state["es"]) == 68
        for key in trim:
            state[key] = state[key][:-5]
        path = tmp_path / "short_state.json"
        path.write_text(json.dumps(state))
        assert main(["verify", "sandwich", "--family", "exp_power", "--params", "1",
                     "--state", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("field, index, value, message", [
        ("xs", 10, math.nan, "state field 'xs' entry 10 is not finite (nan)"),
        ("log_as", 10, math.nan, "state field 'log_as' entry 10 is not finite (nan)"),
        ("deltas", 10, math.inf, "state field 'deltas' entry 10 is not finite (inf)"),
        ("x0", None, -0.5, "state field 'x0' = -0.5 is not xs[0] = -0.05129329438755058")],
        ids=["xs_nan", "log_as_nan", "deltas_inf", "x0_not_xs0"])
    @pytest.mark.parametrize("command", [["verify", "lemmas"],
                                         ["verify", "sandwich", "--t-points", "50",
                                          "--angles", "8"],
                                         ["emit"]], ids=["lemmas", "sandwich", "emit"])
    def test_state_entries_finite(self, field, index, value, message, command,
                                  exp_power_state, tmp_path, capsys):
        # each of these states used to load, and the commands exited 0 or
        # 1 as if a bound had been checked
        state = json.loads(exp_power_state.read_text())
        if index is None:
            state[field] = value
        else:
            state[field][index] = value
        path = tmp_path / "bad_state.json"
        path.write_text(json.dumps(state))
        assert main([*command, "--family", "exp_power", "--params", "1",
                     "--state", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_state_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "list_state.json"
        path.write_text("[1, 2, 3]")
        assert main(["emit", "--family", "ramey_ullrich", "--state", str(path)]) == 2
        assert "a state is a JSON object" in capsys.readouterr().err


@pytest.fixture(scope="module")
def exp_power_state(tmp_path_factory):
    path = tmp_path_factory.mktemp("exp_power") / "state.json"
    assert main(["construct", "--family", "exp_power", "--params", "1",
                 "--t-stop", "0.9999", "--out", str(path)]) == 0
    return path


class TestStateWeightGate:
    """Every command that loads a state with a weight rejects a state built
    for another weight, before any output."""

    @pytest.mark.parametrize("command", [
        ["verify", "sandwich"],
        ["verify", "lemmas"],
        ["verify", "ball", "--poly-family", "monomial_d1"],
        ["emit"],
    ])
    def test_mismatched_weight_is_input_error(self, exp_power_state, tmp_path, command,
                                              capsys):
        out = tmp_path / "report"
        rc = main([*command, "--state", str(exp_power_state), "--family", "ramey_ullrich",
                   "--out", str(out)])
        assert rc == 2
        assert "state does not match this weight" in capsys.readouterr().err
        assert not out.exists()

    def test_matching_weight_passes(self, exp_power_state, capsys):
        rc = main(["verify", "sandwich", "--state", str(exp_power_state),
                   "--family", "exp_power", "--params", "1", "--t-points", "50",
                   "--angles", "8"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True


class TestEmit:
    def test_row_count_and_header(self, state_file, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(["emit", "--state", str(state_file), "--family",
                   "ramey_ullrich", "--t-points", "10", "--angles", "4",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ("t,theta,log_g1_abs,log_g2_abs,log_sum,"
                            "log_omega,lower_margin,upper_margin")
        assert len(lines) == 1 + 10 * 4

    def test_log_sum_recomputation(self, state_file, tmp_path):
        out = tmp_path / "grid.csv"
        main(["emit", "--state", str(state_file), "--family", "ramey_ullrich",
              "--t-points", "6", "--angles", "3", "--out", str(out)])
        state = lw.ConstructionState.from_json_dict(
            json.loads(state_file.read_text()))
        pair = lw.split_parity(state)
        for line in out.read_text().strip().split("\n")[1:]:
            vals = [float(v) for v in line.split(",")]
            t, theta, _, _, log_sum = vals[:5]
            z = t * complex(math.cos(theta), math.sin(theta))
            ref = reference_modulus_sum(pair, z)
            assert log_sum == pytest.approx(ref, rel=1e-12)

    def test_empty_grid_header_only(self, state_file, tmp_path):
        out = tmp_path / "empty.csv"
        rc = main(["emit", "--state", str(state_file), "--family",
                   "ramey_ullrich", "--t-points", "0", "--angles", "4",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text().strip().split("\n") == [
            "t,theta,log_g1_abs,log_g2_abs,log_sum,log_omega,"
            "lower_margin,upper_margin"]

    def test_byte_identical_reruns(self, state_file, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["emit", "--state", str(state_file), "--family",
                  "ramey_ullrich", "--t-points", "10", "--angles", "4",
                  "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_no_angles_is_input_error(self, state_file, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        rc = main(["emit", "--state", str(state_file), "--family", "ramey_ullrich",
                   "--angles", "0", "--out", str(out)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("angles", [1, 2, 3, 4, 7, 64])
    @pytest.mark.parametrize("case", ["ramey_ullrich", "exp_power"])
    def test_bytes_match_reference(self, case, angles, state_file, exp_power_state,
                                   tmp_path):
        path, flags, w = {
            "ramey_ullrich": (state_file, ["--family", "ramey_ullrich"],
                              lw.make_weight("ramey_ullrich")),
            "exp_power": (exp_power_state, ["--family", "exp_power", "--params", "1"],
                          lw.make_weight("exp_power", (1.0,))),
        }[case]
        out = tmp_path / "grid.csv"
        assert main(["emit", "--state", str(path), *flags, "--t-points", "40",
                     "--angles", str(angles), "--out", str(out)]) == 0
        state = lw.ConstructionState.from_json_dict(json.loads(path.read_text()))
        t_grid = np.linspace(state.t0, state.t_last, 41)[1:]
        thetas, log_w, lo, hi, blocks = _sandwich_blocks(lw.split_parity(state), w, t_grid, angles)
        expected = cli.EMIT_HEADER + reference_emit_rows(t_grid, thetas, log_w, lo, hi, blocks())
        assert out.read_text() == expected
        if angles == 64:
            # the mirror pairs that emit must format apart occur here
            cells = [line.split(",", 2)[2] for line in expected.splitlines()[1:]]
            rows = [cells[i:i + 64] for i in range(0, len(cells), 64)]
            assert any(row[j] != row[64 - j] for row in rows for j in range(33, 64))

    def test_row_formatter_special_values(self):
        n = 6  # columns 4 and 5 mirror columns 2 and 1
        g1 = np.full((4, n), 0.5)
        g2 = np.full((4, n), -np.inf)
        g1[0, 1], g1[0, 5] = 0.0, -0.0
        g1[1, 2] = g1[1, 4] = np.nan
        g1[1, 1], g1[1, 5] = np.nan, -np.nan
        g1[2, 1], g1[2, 5] = np.inf, -np.inf
        g2[2, 2] = g2[2, 4] = np.inf
        g1[3, 2], g1[3, 4] = 0.1, np.nextafter(0.1, 1.0)
        g1[3, 1] = g1[3, 5] = -0.0
        t_grid = np.array([0.5, 0.6, 0.7, 0.8])
        thetas = 2 * np.pi * np.arange(n) / n
        log_w = np.array([1.0, -0.0, 2.0, 3.0])
        lo, hi = log_w - 3.0, log_w + 1.0
        blocks = [(slice(0, 2), g1[:2], g2[:2]), (slice(2, 4), g1[2:], g2[2:])]
        with np.errstate(invalid="ignore"):  # logaddexp flags NaN inputs
            text = "".join(cli._emit_rows(t_grid, thetas, log_w, lo, hi, blocks))
            assert text == reference_emit_rows(t_grid, thetas, log_w, lo, hi, blocks)
        cells = [line.split(",")[2] for line in text.splitlines()]
        assert (cells[1], cells[5]) == ("0", "-0")
        assert (cells[20], cells[22]) == ("0.10000000000000001", "0.10000000000000002")

    def test_rows_sorted_by_t_then_theta(self, state_file, tmp_path):
        out = tmp_path / "grid.csv"
        main(["emit", "--state", str(state_file), "--family", "ramey_ullrich",
              "--t-points", "5", "--angles", "3", "--out", str(out)])
        rows = [tuple(float(v) for v in line.split(",")[:2])
                for line in out.read_text().strip().split("\n")[1:]]
        assert rows == sorted(rows)


# id -> (arguments, exit code, sha256 of the --out bytes), recorded before
# the entry-point deletions in series and envelope: a refactor that keeps
# these keeps every report's bytes.  The two ball reports also depend on
# the sphere samples; they were re-recorded for the Kronecker sampler and
# again when its shift became frac(seed alpha_j).
# STATE is the state_file fixture.
GOLDEN = {
    "construct": (["construct", "--family", "ramey_ullrich", "--h", "2", "--t0", "0.95",
                   "--t-stop", "0.9999"], 0,
                  "f37ac33f8fd71aa1293e1aa97631c3d4441b484571d00352c212d11b108d9d2e"),
    "sandwich": (["verify", "sandwich", "--state", "STATE", "--family", "ramey_ullrich",
                  "--t-points", "200", "--angles", "32"], 0,
                 "9bd9326209b1cdfbd967bbb13a72b07f22df491fc2372d3e585922a634f73de6"),
    "lemmas": (["verify", "lemmas", "--state", "STATE", "--family", "ramey_ullrich"], 0,
               "31a76aabf20dda5c62962d2bc281ccfcdd8e3c421be4bb81e1e9a9c877ab8d06"),
    "ball_monomial": (["verify", "ball", "--state", "STATE", "--family", "ramey_ullrich",
                       "--poly-family", "monomial_d1"], 0,
                      "03a4a3fd6324786230223dbc73d1b3ccb40b615fecb216de61eff13b480b476f"),
    "ball_coordinate": (["verify", "ball", "--state", "STATE", "--family", "ramey_ullrich",
                         "--poly-family", "coordinate_d2", "--degrees", "8"], 1,
                        "a252716e860605a00b0ca213c2af68d09af3a0d1065fee6c5f835676a82bfed1"),
    "hadamard": (["verify", "hadamard", "--random-polys", "10", "--seed", "7"], 0,
                 "2927a48810da37195291bd277d3d256c632c355a1afbb886811dbd7d38a6f4ab"),
    "envelope": (["verify", "envelope", "--family", "ramey_ullrich"], 0,
                 "223e6729bf204ffc351399a41d7d0acdc83f297c3240eaf37747c09b446f587f"),
    "emit": (["emit", "--state", "STATE", "--family", "ramey_ullrich"], 0,
             "90d926039c8dd860652526d37d58b01a9e3014d9c72c0b33fa7d6f82f2307454"),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_bytes(name, state_file, tmp_path):
    args, code, digest = GOLDEN[name]
    out = tmp_path / "report"
    args = [str(state_file) if a == "STATE" else a for a in args]
    assert main([*args, "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.fixture(scope="module")
def deep_state_file(tmp_path_factory):
    """double_exp to k_max 2000: 1,000 terms per series, so the grid
    kernel cuts its blocks into runs of radii."""
    path = tmp_path_factory.mktemp("deep") / "state.json"
    assert main(["construct", "--family", "double_exp", "--k-max", "2000",
                 "--out", str(path)]) == 0
    return path


# id -> (arguments, sha256 of the --out bytes), recorded while the grid
# kernel still tabulated every term at every radius.
DEEP_GOLDEN = {
    "state": ([], "1e359f7292a46a7d5450bbf07215ebda750a4ded75cc29c0223685f5305fb678"),
    "sandwich": (["verify", "sandwich", "--t-points", "200", "--angles", "64"],
                 "ca3abbc53abdb98c9235525b212ee22a3d87de8f0bb9abe1784fb6c5113f6e72"),
    "emit": (["emit", "--t-points", "200", "--angles", "64"],
             "3d367153847b958c7503c368fa21df806731d4dae64ad3a83a223e8b69a6c2b7"),
}


@pytest.mark.parametrize("name", DEEP_GOLDEN)
def test_deep_golden_bytes(name, deep_state_file, tmp_path):
    args, digest = DEEP_GOLDEN[name]
    out = deep_state_file
    if args:
        out = tmp_path / "report"
        assert main([*args, "--state", str(deep_state_file), "--family", "double_exp",
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
