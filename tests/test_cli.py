"""End-to-end runs of the batch front end, in process via main()."""

import ast
import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orlicz_lab import SolverOptions, __version__, cli
from orlicz_lab.cli import main

import oracles as oc


def write_cfg(tmp_path, payload, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def read_csv(out_dir, command):
    path = out_dir / f"{command}.csv"
    lines = path.read_text().splitlines()
    header = lines[0]
    rows = list(csv.reader(lines[1:]))
    return header, rows[0], rows[1:]


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


EIG_CFG = {
    "phi": {"kind": "power", "p": 2},
    "psi": {"kind": "power", "p": 2},
    "domain": {"shape": "interval", "n": 257, "extent": [0.0, 1.0]},
    "eig": {"alpha": 1.0},
}


# ---------------------------------------------------------------------------
# happy paths

def test_catalog_lists_members_and_flags_violator(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["catalog", "--out", str(out)]) == 0
    header, columns, rows = read_csv(out, "catalog")
    assert header == f"# orlicz-lab v{__version__} catalog"
    assert columns == ["kind", "label", "l", "m", "delta2",
                       "bound_or_witness"]
    assert len(rows) == 5
    kinds = [r[0] for r in rows]
    assert kinds == ["power", "power-sum", "plasticity", "elasticity",
                     "exp-square"]
    flags = {r[0]: int(r[4]) for r in rows}
    assert flags["exp-square"] == 0
    assert sum(flags.values()) == 4
    text = capsys.readouterr().out
    assert "exp-square" in text and "not doubling" in text
    summary = read_summary(out)
    assert summary["command"] == "catalog"
    assert summary["results"] == {"entries": 5, "doubling": 4,
                                  "violators": 1}


def test_check_young_reports_conditions(tmp_path):
    cfg = write_cfg(tmp_path, {"phi": {"kind": "power", "p": 3},
                               "psi": {"kind": "power", "p": 2}})
    out = tmp_path / "runs"
    assert main(["check-young", "--config", cfg, "--out", str(out)]) == 0
    _, columns, rows = read_csv(out, "check-young")
    assert columns == ["condition", "holds", "detail"]
    by_name = {r[0]: int(r[1]) for r in rows}
    for name in ("phi_growth_bounds", "phi_doubling", "phi_sqrt_convexity",
                 "phi_conjugate_involution", "psi_grows_slower"):
        assert by_name[name] == 1


def test_conjugate_table_matches_dual_power(tmp_path):
    cfg = write_cfg(tmp_path, {
        "phi": {"kind": "power", "p": 3, "coeff": 0.3333333333333333},
        "conjugate": {"s_min": 1e-2, "s_max": 1e2, "points": 25}})
    out = tmp_path / "runs"
    assert main(["conjugate", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = read_csv(out, "conjugate")
    assert len(rows) == 25
    for s_txt, val_txt, err_txt in rows:
        s, val = float(s_txt), float(val_txt)
        assert val == pytest.approx(s ** 1.5 / 1.5, rel=1e-6)
        assert float(err_txt) <= 1e-5


NEWTONIAN = {"kind": "newtonian", "alpha": 0.5, "beta": 1.0}


@pytest.mark.parametrize("command", ["check-young", "conjugate"])
def test_newtonian_conjugate_runs(tmp_path, command):
    cfg = write_cfg(tmp_path, {"phi": NEWTONIAN})
    out = tmp_path / "runs"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = read_csv(out, command)
    if command == "check-young":
        by_name = {r[0]: int(r[1]) for r in rows}
        assert by_name["phi_conjugate_involution"] == 1
    else:
        assert max(float(r[2]) for r in rows) <= 1e-5


def test_check_young_on_a_short_table(tmp_path):
    # the involution is sampled inside the table's last knot
    table = tmp_path / "phi.csv"
    table.write_text("t,value\n0.5,0.125\n1.0,0.5\n2.0,2.0\n3.0,4.5\n")
    cfg = write_cfg(tmp_path, {"phi": {"kind": "tabulated",
                                       "csv": str(table)}})
    out = tmp_path / "runs"
    assert main(["check-young", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = read_csv(out, "check-young")
    assert {r[0]: int(r[1]) for r in rows}["phi_conjugate_involution"] == 1


def test_beyond_the_conjugate_horizon_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "phi": {"kind": "power", "p": 3},
        "conjugate": {"s_min": 1.0, "s_max": 1.0e7, "points": 5}})
    assert main(["conjugate", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "horizon 1e+06" in err


def test_norm_of_unit_constant(tmp_path):
    cfg = write_cfg(tmp_path, {
        "phi": {"kind": "power", "p": 2, "coeff": 1.0},
        "domain": {"shape": "interval", "n": 64, "extent": [0.0, 1.0]},
        "norm": {"u": {"constant": 1.0}}})
    out = tmp_path / "runs"
    assert main(["norm", "--config", cfg, "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["results"]["luxemburg_state"] == pytest.approx(1.0,
                                                                  rel=1e-9)
    assert summary["results"]["gradient"] == 0.0


# ---------------------------------------------------------------------------
# the writer's number format: the shortest repr of every float, numpy
# floats included, written in one place

def test_fmt_writes_numpy_floats_as_plain_floats():
    assert cli._fmt(np.float64(0.1)) == "0.1"
    assert cli._fmt(np.float32(0.5)) == "0.5"
    assert cli._fmt(0.1) == repr(0.1)
    assert [cli._fmt(x) for x in (3, np.int64(3), "a")] == ["3", "3", "a"]


def test_only_the_writer_calls_repr():
    tree = ast.parse(Path(cli.__file__).read_text())

    def reprs(node):
        return sum(isinstance(call, ast.Call)
                   and isinstance(call.func, ast.Name)
                   and call.func.id == "repr" for call in ast.walk(node))
    fmt, = [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "_fmt"]
    assert reprs(fmt) >= 1
    assert reprs(tree) == reprs(fmt)


def test_conjugate_and_norm_cells_are_plain_numbers(tmp_path):
    bodies = {"conjugate": {"conjugate": {"points": 7}},
              "norm": {"psi": {"kind": "power", "p": 2},
                       "domain": {"shape": "box", "n": 9,
                                  "extent": [0.0, 1.0]},
                       "norm": {"u": {"constant": 0.5}}}}
    cells = []
    for command, body in bodies.items():
        cfg = write_cfg(tmp_path, {"phi": NEWTONIAN, **body},
                        f"{command}.yaml")
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_csv(out, command)
        cells += [cell for row in rows
                  for cell in (row if command == "conjugate" else row[1:])]
    assert len(cells) == 7 * 3 + 3
    for cell in cells:
        assert repr(float(cell)) == cell


def test_eig_matches_dense_oracle(tmp_path):
    cfg = write_cfg(tmp_path, EIG_CFG)
    out = tmp_path / "runs"
    assert main(["eig", "--config", cfg, "--out", str(out)]) == 0
    summary = read_summary(out)
    want = oc.dirichlet_laplacian_eigenvalues(257)[0]
    assert summary["results"]["lambda"] == pytest.approx(want, rel=1e-6)
    assert summary["results"]["residual"] <= 1e-8 * (
        1.0 + summary["results"]["level_I"])


def test_eig_writes_solver_stats_to_the_summary_only(tmp_path):
    from orlicz_lab.eigensolver import STAT_KEYS
    cfg = write_cfg(tmp_path, EIG_CFG)
    out = tmp_path / "runs"
    assert main(["eig", "--config", cfg, "--out", str(out)]) == 0
    results = read_summary(out)["results"]
    assert sorted(results["stats"]) == sorted(STAT_KEYS)
    assert results["stats"]["iterations"] == results["iterations"]
    assert "stats" not in (out / "eig.csv").read_text()


def test_eig_byte_determinism(tmp_path):
    cfg = write_cfg(tmp_path, EIG_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["eig", "--config", cfg, "--out", str(out_a),
                 "--seed", "7"]) == 0
    assert main(["eig", "--config", cfg, "--out", str(out_b),
                 "--seed", "7"]) == 0
    assert (out_a / "eig.csv").read_bytes() == (out_b / "eig.csv").read_bytes()
    sa = json.loads((out_a / "summary.json").read_text())
    sb = json.loads((out_b / "summary.json").read_text())
    sa.pop("outputs"), sb.pop("outputs")  # they name the run directories
    assert sa == sb and sa["seed"] == 7


def test_rerun_replaces_its_outputs_instead_of_rewriting_them(tmp_path):
    # a re-run into the same --out unlinks the last run's files and
    # creates them anew: rewriting a just-written file in place waits on
    # the disk's flush.  A hard link keeps the old file, which the re-run
    # leaves as it was
    cfg = write_cfg(tmp_path, EIG_CFG)
    out = tmp_path / "runs"
    assert main(["eig", "--config", cfg, "--out", str(out)]) == 0
    first = (out / "eig.csv").read_bytes()
    old, summary = tmp_path / "old.csv", tmp_path / "old.json"
    os.link(out / "eig.csv", old)
    os.link(out / "summary.json", summary)
    with open(old, "a") as fh:
        fh.write("# marker\n")
    assert main(["eig", "--config", cfg, "--out", str(out)]) == 0
    assert old.read_bytes() == first + b"# marker\n"
    assert (out / "eig.csv").read_bytes() == first
    assert not os.path.samefile(out / "summary.json", summary)


def test_spectrum_sorted_and_repeatable(tmp_path):
    # levels are solved in increasing order with warm starts; two runs of
    # one config give the same bytes
    cfg = write_cfg(tmp_path, {
        "phi": {"kind": "power", "p": 2},
        "psi": {"kind": "power", "p": 2},
        "domain": {"shape": "interval", "n": 65, "extent": [0.0, 1.0]},
        "spectrum": {"alphas": [2.0, 0.5, 1.0]}})
    outs = []
    for label in ("first", "second"):
        out = tmp_path / label
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        outs.append((out / "spectrum.csv").read_bytes())
        _, _, rows = read_csv(out, "spectrum")
        alphas = [float(r[0]) for r in rows]
        assert alphas == sorted(alphas) and len(alphas) == 3
        lams = np.array([float(r[1]) for r in rows])
        assert np.ptp(lams) <= 1e-6 * lams[0]
    assert outs[0] == outs[1]


def test_spectrum_range_form(tmp_path):
    cfg = write_cfg(tmp_path, {
        "phi": {"kind": "power", "p": 2},
        "psi": {"kind": "power", "p": 2},
        "domain": {"shape": "interval", "n": 49, "extent": [0.0, 1.0]},
        "spectrum": {"alpha_min": 0.5, "alpha_max": 2.0, "points": 3}})
    out = tmp_path / "runs"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["results"]["levels"] == 3
    assert summary["results"]["solved"] == 3
    assert summary["results"]["failures"] == []


def test_eig_and_spectrum_write_the_same_alpha(tmp_path):
    # at this level the projected J(u) differs from the requested alpha in
    # the last bit; both commands write the measured value
    alpha = 1.291549665014884
    setup = {"phi": {"kind": "power", "p": 3},
             "psi": {"kind": "power", "p": 2},
             "domain": {"shape": "interval", "n": 257, "extent": [0.0, 1.0]}}
    written = []
    for command, section in (("eig", {"alpha": alpha}),
                             ("spectrum", {"alphas": [alpha]})):
        cfg = write_cfg(tmp_path, {**setup, command: section},
                        name=f"{command}.yaml")
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        _, columns, rows = read_csv(out, command)
        written.append(rows[0][columns.index("alpha")])
    assert written[0] == written[1]


def test_region_run_and_proof_variant_flag(tmp_path, capsys):
    payload = {
        "phi": {"kind": "power", "p": 3},
        "psi": {"kind": "power", "p": 2},
        "domain": {"shape": "disc", "n": 33, "extent": [1.0]},
        "seed": 1,
        "region": {"d_values": [0.15], "r_values": [0.0274],
                   "samples": 8, "c1": 0.45}}
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "runs"
    assert main(["region", "--config", cfg, "--out", str(out)]) == 0
    header, columns, rows = read_csv(out, "region")
    from orlicz_lab import REPORT_COLUMNS
    assert columns == REPORT_COLUMNS
    assert len(rows) == 1
    assert "pairs evaluated" in capsys.readouterr().out
    out2 = tmp_path / "runs2"
    assert main(["region", "--config", cfg, "--out", str(out2),
                 "--proof-variant"]) == 0
    assert read_summary(out2)["results"]["proof_variant"] is True
    assert "(2N constant)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# failure paths

def test_unknown_top_level_key_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(EIG_CFG, bogus=1))
    assert main(["eig", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "bogus" in capsys.readouterr().err


def test_out_key_is_unknown_exits_2(tmp_path, capsys):
    # the output directory comes from --out alone
    cfg = write_cfg(tmp_path, dict(EIG_CFG, out="x"))
    assert main(["eig", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'out'" in err
    assert not (tmp_path / "x").exists()


def test_solver_keys_are_the_solver_options():
    # a key that reaches no field, or a field no key sets, is dead
    assert ({f.name for f in dataclasses.fields(SolverOptions)}
            == set(cli._SOLVER))


def test_unknown_section_key_exits_2(tmp_path, capsys):
    payload = dict(EIG_CFG)
    payload["eig"] = {"alpha": 1.0, "junk": 2}
    cfg = write_cfg(tmp_path, payload)
    assert main(["eig", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "junk" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["eig", "--out", str(tmp_path / "o")]) == 2
    assert "needs --config" in capsys.readouterr().err
    assert main(["eig", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path / "o")]) == 2
    assert "not found" in capsys.readouterr().err


def test_invalid_young_config_exits_2(tmp_path, capsys):
    payload = dict(EIG_CFG, phi={"kind": "power", "p": 2, "zap": 1})
    cfg = write_cfg(tmp_path, payload)
    assert main(["eig", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "zap" in capsys.readouterr().err


def test_malformed_domain_extent_exits_2(tmp_path, capsys):
    payload = dict(EIG_CFG, domain={
        "shape": "disc", "n": 33, "extent": [[-0.5, 0.5], [-0.5, 0.5]]})
    cfg = write_cfg(tmp_path, payload)
    assert main(["eig", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: domain extent") and err.count("\n") == 1


def test_exhausted_solver_exits_3(tmp_path, capsys):
    payload = {
        "phi": {"kind": "power", "p": 3},
        "psi": {"kind": "power", "p": 3},
        "domain": {"shape": "interval", "n": 65, "extent": [0.0, 1.0]},
        "solver": {"tol": 1e-13, "max_iter": 2},
        "eig": {"alpha": 1.0}}
    cfg = write_cfg(tmp_path, payload)
    assert main(["eig", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_overflowing_level_exits_2_and_writes_no_row(tmp_path, capsys):
    # at alpha = 1e300 the start's I is inf, which must not pass the stop
    # test as a converged pair: the first trial overflows and the run fails
    # naming the level, before any output is written
    cfg = write_cfg(tmp_path, {
        "phi": {"kind": "power", "p": 3},
        "psi": {"kind": "power", "p": 2},
        "domain": {"shape": "interval", "n": 5, "extent": [0.0, 1.0]},
        "eig": {"alpha": 1e300}})
    out = tmp_path / "o"
    assert main(["eig", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: t must be finite") and "1e+300" in err
    assert not (out / "eig.csv").exists()


def test_overflowing_level_prints_only_its_error_line(tmp_path):
    # a fresh interpreter with default warning filters: stderr holds the
    # one error line and no numpy warning ahead of it
    cfg = write_cfg(tmp_path, {
        "phi": {"kind": "power", "p": 3},
        "psi": {"kind": "power", "p": 2},
        "domain": {"shape": "interval", "n": 5, "extent": [0.0, 1.0]},
        "eig": {"alpha": 1e300}})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1])]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)),
        PYTHONWARNINGS="default")
    run = subprocess.run(
        [sys.executable, "-m", "orlicz_lab.cli", "eig", "--config", cfg,
         "--out", str(tmp_path / "o")], capture_output=True, text=True,
        env=env)
    assert run.returncode == 2
    assert run.stderr.splitlines() == [
        "error: t must be finite: the point on the level set J = 1e+300 "
        "overflows"]


def test_spectrum_with_every_level_failed_exits_3(tmp_path, capsys):
    # the sweep reports its failures instead of raising, and the run still
    # writes a header-only CSV and a summary listing each failure
    cfg = write_cfg(tmp_path, {
        "phi": {"kind": "power", "p": 3},
        "psi": {"kind": "power", "p": 2},
        "domain": {"shape": "interval", "n": 65, "extent": [0.0, 1.0]},
        "solver": {"tol": 1e-13, "max_iter": 2},
        "spectrum": {"alphas": [0.5, 2.0]}})
    out = tmp_path / "runs"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 3
    header, columns, rows = read_csv(out, "spectrum")
    assert header == f"# orlicz-lab v{__version__} spectrum"
    assert columns == ["alpha", "lambda", "level_I", "residual",
                       "iterations"]
    assert rows == []
    results = read_summary(out)["results"]
    assert results["levels"] == 2 and results["solved"] == 0
    assert results["lambda_spread"] is None
    assert [alpha for alpha, _ in results["failures"]] == [0.5, 2.0]
    assert all("no convergence" in msg for _, msg in results["failures"])
    assert "0/2 levels solved" in capsys.readouterr().out


@pytest.mark.parametrize("section,body", [
    ("eig", {"alpha": "abc"}),
    ("solver", {"tol": "abc"}),
    ("solver", {"max_iter": 2.5}),
    ("solver", {"max_iter": -1}),
    ("conjugate", {"s_min": "abc"}),
    ("conjugate", {"points": 2.5}),
    ("spectrum", {"alphas": ["x"]}),
    ("weight", {"constant": "abc"}),
])
def test_malformed_number_exits_2(tmp_path, section, body):
    payload = {key: EIG_CFG[key] for key in ("phi", "psi", "domain")}
    payload[section] = body
    command = section if section in ("eig", "conjugate", "spectrum") else "eig"
    cfg = write_cfg(tmp_path, payload)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    err = err.getvalue()
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("r", [0.0, -0.01])
def test_nonpositive_energy_radius_exits_2(tmp_path, capsys, r):
    payload = {
        "phi": {"kind": "power", "p": 3},
        "psi": {"kind": "power", "p": 2},
        "domain": {"shape": "disc", "n": 33, "extent": [1.0]},
        "region": {"d_values": [0.15], "r_values": [0.0274, r],
                   "samples": 8}}
    cfg = write_cfg(tmp_path, payload)
    assert main(["region", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "error: the energy radius r must be positive\n"


def test_tiny_plateau_height_exits_2(tmp_path, capsys):
    payload = {
        "phi": {"kind": "power", "p": 3},
        "psi": {"kind": "power", "p": 2},
        "domain": {"shape": "disc", "n": 33, "extent": [1.0]},
        "region": {"d_values": [1e-200], "r_values": [0.0274],
                   "samples": 8}}
    cfg = write_cfg(tmp_path, payload)
    assert main(["region", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "error: test function has vanishing reaction energy\n"


REGION_CFG = {
    "phi": {"kind": "power", "p": 3},
    "psi": {"kind": "power", "p": 2},
    "domain": {"shape": "disc", "n": 21, "extent": [1.0]},
    "region": {"d_values": [0.15], "r_values": [0.0274], "samples": 4,
               "c1": 0.45}}


def region_cfg_with(key, value):
    """REGION_CFG with one region key, or the top-level seed, replaced."""
    payload = dict(REGION_CFG, region=dict(REGION_CFG["region"]))
    if key == "seed":
        payload["seed"] = value
    else:
        payload["region"][key] = value
    return payload


def run_region(path, out):
    """Exit code and stderr of one in-process region run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["region", "--config", path, "--out", out])
    return code, err.getvalue()


@pytest.mark.parametrize("command,key", [
    ("region", "d_values"), ("region", "r_values"), ("spectrum", "alphas")])
def test_empty_list_exits_2_naming_its_key(tmp_path, capsys, command, key):
    payload = {k: v for k, v in REGION_CFG.items() if k != "region"}
    payload[command] = dict(REGION_CFG["region"]
                            if command == "region" else {}, **{key: []})
    cfg = write_cfg(tmp_path, payload)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{command} {key} must be a nonempty list" in err, err


@pytest.mark.parametrize("key,value", [
    ("d_values", 0.15),
    ("d_values", ["x"]),
    ("d_values", {"a": 1}),
    ("r_values", [0.0274, math.inf]),
    ("samples", "abc"),
    ("samples", [1]),
    ("starts", 2.5),
    ("c1", "abc"),
    ("c1", -1),
    ("seed", "abc"),
    ("seed", -1),
])
def test_malformed_region_value_exits_2(tmp_path, key, value):
    cfg = write_cfg(tmp_path, region_cfg_with(key, value))
    code, err = run_region(cfg, str(tmp_path / "o"))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


_WORD = st.text(alphabet="abcxyz", min_size=1, max_size=4)
_MAPPING = st.dictionaries(st.sampled_from("ab"), st.integers(0, 3),
                           min_size=1)
_NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
_BAD_ENTRY = st.one_of(st.none(), _WORD, _MAPPING, _NON_FINITE,
                       st.lists(st.integers(0, 3), max_size=2))
_BAD_LIST = st.one_of(
    st.none(), _WORD, _MAPPING, _NON_FINITE, st.floats(0.01, 1.0),
    st.lists(_BAD_ENTRY, min_size=1, max_size=3))
_NOT_AN_INTEGER = st.one_of(
    st.none(), _WORD, _MAPPING, _NON_FINITE,
    st.lists(st.integers(0, 3), max_size=2),
    st.floats(0.1, 99.9).filter(lambda v: v != int(v)))
_MALFORMED = st.one_of(
    st.tuples(st.sampled_from(["d_values", "r_values"]), _BAD_LIST),
    st.tuples(st.sampled_from(["samples", "starts", "seed"]),
              _NOT_AN_INTEGER),
    st.tuples(st.just("seed"), st.integers(-10 ** 6, -1)),
    # a null c1 asks for the computed constant, so it is not drawn
    st.tuples(st.just("c1"), st.one_of(
        _WORD, _MAPPING, _NON_FINITE, st.lists(st.integers(0, 3)),
        st.floats(-10.0, 0.0))))


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_MALFORMED)
def test_region_config_fuzz_exits_2(tmp_path, case):
    key, value = case
    cfg = write_cfg(tmp_path, region_cfg_with(key, value))
    code, err = run_region(cfg, str(tmp_path / "o"))
    assert code == 2, (key, value, err)
    assert err.startswith("error: ") and err.count("\n") == 1


NUMBER_CFG = {
    "phi": {"kind": "power", "p": 2},
    "psi": {"kind": "power", "p": 2},
    "domain": {"shape": "interval", "n": 17, "extent": [0.0, 1.0]},
}
_BAD_REAL = st.one_of(st.none(), _WORD, _MAPPING, _NON_FINITE,
                      st.lists(st.integers(0, 3), max_size=2))
_NONPOSITIVE = st.one_of(st.just(0.0), st.floats(-10.0, -1e-3))
# (command, section, key, value); the spectrum range keys are drawn into
# an otherwise valid range, the conjugate range ends against the default
# s_min = 1e-2 and s_max = 1e2, and an s_max past the conjugate table's
# horizon 1e6 is a horizon error
_MALFORMED_NUMBER = st.one_of(
    st.tuples(st.just("conjugate"), st.just("conjugate"), st.just("s_min"),
              st.one_of(_BAD_REAL, _NONPOSITIVE, st.floats(1e2, 1e300))),
    st.tuples(st.just("conjugate"), st.just("conjugate"), st.just("s_max"),
              st.one_of(_BAD_REAL, _NONPOSITIVE, st.floats(0.0, 1e-2),
                        st.floats(1.001e6, 1e300))),
    st.tuples(st.just("conjugate"), st.just("conjugate"), st.just("points"),
              st.one_of(_NOT_AN_INTEGER, st.integers(-10 ** 6, 1))),
    st.tuples(st.just("eig"), st.sampled_from(["weight", "weight1"]),
              st.just("constant"),
              st.one_of(_BAD_REAL, st.floats(-10.0, 0.999))),
    st.tuples(st.just("norm"), st.just("norm"), st.just("u"),
              st.builds(lambda v: {"constant": v}, _BAD_REAL)),
    st.tuples(st.sampled_from(["eig", "spectrum"]), st.just("solver"),
              st.just("tol"), st.one_of(_BAD_REAL, _NONPOSITIVE)),
    st.tuples(st.sampled_from(["eig", "spectrum"]), st.just("solver"),
              st.just("max_iter"),
              st.one_of(_NOT_AN_INTEGER, st.integers(-10 ** 6, -1))),
    st.tuples(st.just("eig"), st.just("eig"), st.just("alpha"),
              st.one_of(_BAD_REAL, _NONPOSITIVE)),
    st.tuples(st.just("spectrum"), st.just("spectrum"), st.just("alphas"),
              st.one_of(_BAD_LIST, st.just([]),
                        st.lists(_NONPOSITIVE, min_size=1, max_size=3))),
    st.tuples(st.just("spectrum"), st.just("spectrum"),
              st.sampled_from(["alpha_min", "alpha_max"]),
              st.one_of(_BAD_REAL, _NONPOSITIVE)),
    st.tuples(st.just("spectrum"), st.just("spectrum"), st.just("points"),
              st.one_of(_NOT_AN_INTEGER, st.integers(-10 ** 6, 0))))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_MALFORMED_NUMBER)
def test_number_config_fuzz_exits_2(tmp_path, case):
    command, section, key, value = case
    payload = dict(NUMBER_CFG)
    if command == "spectrum" and key != "alphas":
        payload["spectrum"] = {"alpha_min": 0.5, "alpha_max": 2.0,
                               "points": 3}
    payload[section] = dict(payload.get(section, {}), **{key: value})
    cfg = write_cfg(tmp_path, payload)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    err = err.getvalue()
    assert code == 2, (command, key, value, err)
    assert err.startswith("error: ") and err.count("\n") == 1


# (command, path to the entry, value, text the error line must hold); the
# CSV names resolve in the run's directory, where words.csv holds no
# number and column.csv one column
@pytest.mark.parametrize("command,path,value,needle", [
    ("eig", ("phi", "p"), [2], "power kind p must"),
    ("eig", ("phi", "p"), None, "power kind p must"),
    ("eig", ("phi", "p"), math.inf, "power kind p must"),
    ("eig", ("phi", "coeff"), "abc", "power kind coeff must"),
    ("eig", ("phi", "coeff"), None, "power kind coeff must"),
    ("eig", ("phi",), {"kind": "power-sum", "p": 2, "q": "abc"},
     "power-sum kind q must"),
    ("eig", ("psi",), {"kind": "plasticity", "alpha": "x", "beta": 1},
     "plasticity kind alpha must"),
    ("eig", ("psi",), {"kind": "plasticity", "alpha": 2, "beta": math.nan},
     "plasticity kind beta must"),
    ("eig", ("phi",), {"kind": "elasticity", "gamma": {"a": 1}},
     "elasticity kind gamma must"),
    ("eig", ("phi",), {"kind": "elasticity", "gamma": None},
     "elasticity kind gamma must"),
    ("check-young", ("phi",), dict(NEWTONIAN, t_max="x"),
     "newtonian kind t_max must"),
    ("check-young", ("phi",), {"kind": "tabulated", "csv": 3},
     "tabulated kind csv must"),
    ("check-young", ("phi",), {"kind": "tabulated", "csv": "missing.csv"},
     "tabulated kind csv 'missing.csv'"),
    ("check-young", ("phi",), {"kind": "tabulated", "csv": "column.csv"},
     "tabulated kind csv 'column.csv'"),
    ("eig", ("weight",), {"csv": 3}, "weight csv must"),
    ("eig", ("weight",), {"csv": "missing.csv"}, "weight csv"),
    ("eig", ("weight1",), {"csv": "words.csv"}, "weight1 csv"),
    ("norm", ("norm", "u"), {"csv": "missing.csv"}, "norm u csv"),
    ("norm", ("norm", "u"), {"csv": "words.csv"}, "norm u csv"),
    ("norm", ("norm", "u"), {"csv": ["words.csv"]}, "norm u csv must"),
    ("eig", ("domain", "n"), True, "domain n must"),
    ("eig", ("seed",), True, "seed must"),
    ("eig", ("solver", "max_iter"), True, "solver max_iter must"),
    # the ladder's seed and start count are constants, not solver keys
    ("eig", ("solver", "seed"), 3, "['seed'] in solver"),
    ("eig", ("solver", "starts"), 8, "['starts'] in solver"),
    ("conjugate", ("conjugate", "points"), True, "conjugate points must"),
    ("spectrum", ("spectrum", "points"), True, "spectrum points must"),
    ("region", ("region", "samples"), True, "region samples must"),
    ("region", ("region", "starts"), True, "region starts must"),
    ("region", ("region", "starts"), -1, "region starts must"),
    # every minimizer is flipped to |u|; there is no switch for it
    ("eig", ("solver", "onesigned"), True, "['onesigned'] in solver"),
])
def test_malformed_entry_exits_2_naming_its_key(tmp_path, monkeypatch,
                                                command, path, value, needle):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "words.csv").write_text("a,b\nc,d\n")
    (tmp_path / "column.csv").write_text("0\n1\n2\n")
    payload = copy.deepcopy(REGION_CFG if command == "region" else NUMBER_CFG)
    if command == "norm":
        payload["norm"] = {"u": {"constant": 1.0}}
    if command == "spectrum":
        payload["spectrum"] = {"alpha_min": 0.5, "alpha_max": 2.0}
    entry = payload
    for key in path[:-1]:
        entry = entry.setdefault(key, {})
    entry[path[-1]] = value
    cfg = write_cfg(tmp_path, payload)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([command, "--config", cfg, "--out", "o"])
    err = err.getvalue()
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err, err
