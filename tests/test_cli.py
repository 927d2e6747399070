import ast
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uavsec import cli, driver
from uavsec.cli import (
    EXIT_FAILURE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_config,
    scenario_echo_text,
)
from uavsec.driver import line_segment_trajectory
from uavsec.model import (
    IterationRecord,
    PowerProfile,
    RunResult,
    ScenarioConfig,
    Trajectory,
    baseline_scenario,
    watt_to_dbm,
)
from uavsec.solver import Solution

SRC = Path(__file__).resolve().parents[1] / "src"
TINY = """
T = 6
q_I = 30, 10, 100
q_F = 30, -10, 100
"""


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def cfg_fields_equal(a, b):
    for name in ("H", "T", "delta_t", "V_max", "P_max", "P_bar", "xi0", "L",
                 "eps_b", "eps_e", "tau", "max_iter", "N"):
        if getattr(a, name) != getattr(b, name):
            return False
    for name in ("w_b", "w_e", "q_I", "q_F"):
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            return False
    return True


# ---------------------------------------------------------------------------
# parse_config
# ---------------------------------------------------------------------------

def test_empty_file_gives_full_default_scenario(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "# nothing here\n"))
    assert cfg_fields_equal(cfg, baseline_scenario())
    assert cfg.P_max == 0.1 and cfg.P_bar == 0.05
    assert cfg.xi0 == 1e6 and cfg.L == 400.0
    assert cfg.N == 60


def test_period_sets_slot_count(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "T = 60\n"))
    assert cfg.N == 60


def test_rejects_invalid_epsilon(tmp_path):
    with pytest.raises(ValueError, match="eps_b"):
        parse_config(write_cfg(tmp_path, "eps_b = 0.7\n"))


def test_power_units(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "P_max = 20 dbm\nP_bar = 0.02\n"))
    assert cfg.P_max == pytest.approx(0.1, rel=1e-12)
    assert cfg.P_bar == 0.02
    # the suffix is case-blind
    assert parse_config(write_cfg(tmp_path, "P_max = 20DBM\n")).P_max == cfg.P_max


def test_default_average_power_follows_peak(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "P_max = 0.2\n"))
    assert cfg.P_bar == pytest.approx(0.1, rel=1e-12)


def test_ratio_units(tmp_path):
    assert parse_config(write_cfg(tmp_path, "xi0 = 60 db\n")).xi0 == pytest.approx(1e6)
    assert parse_config(write_cfg(tmp_path, "xi0 = 2500000\n")).xi0 == 2.5e6
    assert parse_config(write_cfg(tmp_path, "xi0 = 60dB\n")).xi0 == pytest.approx(1e6)


def test_position_triples_and_altitude_coupling(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "H = 80\n"))
    assert cfg.q_I[2] == 80.0 and cfg.q_F[2] == 80.0


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown configuration key"):
        parse_config(write_cfg(tmp_path, "speed = 3\n"))


def test_malformed_lines_rejected(tmp_path):
    with pytest.raises(ValueError, match="key = value"):
        parse_config(write_cfg(tmp_path, "just words\n"))
    with pytest.raises(ValueError, match="three comma-separated"):
        parse_config(write_cfg(tmp_path, "q_I = 1, 2\n"))
    with pytest.raises(ValueError, match="duplicate"):
        parse_config(write_cfg(tmp_path, "T = 6\nT = 8\n"))


@pytest.mark.parametrize("line", ["T = abc", "max_iter = 1e2", "w_b = 0,0,x", "P_max = x dbm",
                                  "xi0 = 20 dbm", "P_max = 60 db"])
def test_unparsable_value_names_line_and_key(tmp_path, line):
    key = line.split("=")[0].strip()
    with pytest.raises(ValueError, match=rf"^line 2: {key}: "):
        parse_config(write_cfg(tmp_path, f"# scenario\n{line}\n"))


def test_key_table_names_every_scenario_field():
    # a ScenarioConfig field without a config key could be neither set nor echoed
    fields = {f.name for f in dataclasses.fields(ScenarioConfig) if f.init}
    assert set(cli._KEYS) == fields


def test_echo_round_trip(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, TINY))
    echo = tmp_path / "echo.txt"
    echo.write_text(scenario_echo_text(cfg), encoding="utf-8")
    assert cfg_fields_equal(cfg, parse_config(echo))


# ---------------------------------------------------------------------------
# run verb
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("run")
    cfg_path = base / "scenario.cfg"
    cfg_path.write_text(TINY, encoding="utf-8")
    out = base / "out"
    rc = main(["run", "--config", str(cfg_path), "--scheme", "jtpo", "--out", str(out)])
    return rc, cfg_path, out


def test_run_writes_all_outputs(tiny_run, capsys):
    rc, cfg_path, out = tiny_run
    assert rc == EXIT_OK
    for name in ("scenario.txt", "trajectory.csv", "power.csv", "iterations.csv"):
        assert (out / name).exists(), name
    traj_rows = (out / "trajectory.csv").read_text().strip().splitlines()
    power_rows = (out / "power.csv").read_text().strip().splitlines()
    assert len(traj_rows) == 7 and len(power_rows) == 7  # header + N
    assert traj_rows[0] == "n,x_m,y_m,speed_mps"
    assert power_rows[0] == "n,p_watt,p_dbm"
    # last slot speed is zero by definition
    assert float(traj_rows[-1].split(",")[3]) == 0.0


def test_run_prints_aesr(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, TINY)
    rc = main(["run", "--config", str(cfg_path), "--scheme", "poft", "--out", str(tmp_path / "o")])
    assert rc == EXIT_OK
    line = capsys.readouterr().out.strip().splitlines()[-1]
    val = float(line)
    assert val > 0.0 and len(line.split(".")[-1]) == 6


def test_poft_trajectory_csv_is_the_exact_segment(tmp_path):
    cfg_path = write_cfg(tmp_path, TINY)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--scheme", "poft", "--out", str(out)]) == EXIT_OK
    rows = (out / "trajectory.csv").read_text().strip().splitlines()[1:]
    got = np.array([[float(v) for v in r.split(",")[1:3]] for r in rows])
    np.testing.assert_array_equal(got, line_segment_trajectory(parse_config(cfg_path)).points)


def test_run_rejects_bad_config(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "eps_b = 0.9\n")
    rc = main(["run", "--config", str(cfg_path), "--scheme", "jtpo", "--out", str(tmp_path / "o")])
    assert rc == EXIT_IO
    assert not (tmp_path / "o").exists()


def test_run_rejects_infinite_period(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, TINY.replace("T = 6", "T = inf"))
    rc = main(["run", "--config", str(cfg_path), "--scheme", "jtpo", "--out", str(tmp_path / "o")])
    assert rc == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error:") and "T must be finite" in err
    assert not (tmp_path / "o").exists()


def test_run_max_iter_caps_the_alternation(tmp_path):
    # uncapped, this JTPO run takes four alternations
    cfg_path = write_cfg(tmp_path, TINY)
    out = tmp_path / "o"
    rc = main(["run", "--config", str(cfg_path), "--scheme", "jtpo", "--max-iter", "1",
               "--out", str(out)])
    assert rc == EXIT_OK
    rows = (out / "iterations.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["0", "1"]
    assert "max_iter = 1\n" in (out / "scenario.txt").read_text()


def test_run_reports_a_scheme_error(tmp_path, capsys, monkeypatch):
    def failing_run_scheme(cfg, scheme):
        raise ValueError("no design")

    monkeypatch.setattr(driver, "run_scheme", failing_run_scheme)
    cfg_path = write_cfg(tmp_path, TINY)
    rc = main(["run", "--config", str(cfg_path), "--scheme", "jtpo", "--out", str(tmp_path / "o")])
    assert rc == EXIT_FAILURE
    assert capsys.readouterr().err == "error: no design\n"
    assert not (tmp_path / "o").exists()


def test_run_writes_nothing_after_a_solver_failure(tmp_path, capsys, monkeypatch):
    def failing_solve(prog):
        return Solution(x=prog.start.copy(), objective=np.nan, gap_bound=np.inf,
                        newton_steps=0, status="numerical-failure")

    monkeypatch.setattr(driver, "solve", failing_solve)
    cfg_path = write_cfg(tmp_path, TINY)
    rc = main(["run", "--config", str(cfg_path), "--scheme", "jtpo", "--out", str(tmp_path / "o")])
    assert rc == EXIT_FAILURE
    assert "solver failed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_unwritable_out_dir(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, TINY)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file occupies the output path", encoding="utf-8")
    rc = main(["run", "--config", str(cfg_path), "--scheme", "jtpo", "--out", str(blocker)])
    assert rc == EXIT_IO
    assert blocker.read_text() == "a file occupies the output path"


@pytest.mark.parametrize("verb,args,blocked", [
    ("run", ["--scheme", "jtpo"], "power.csv"),
    ("sweep", ["--param", "L", "--values", "400"], "sweep.csv"),
], ids=["run", "sweep"])
def test_output_name_taken_by_a_directory_is_an_io_error(tmp_path, capsys, verb, args, blocked):
    # the files written before the blocked one are removed again, and so is
    # each file's temporary sibling
    cfg_path = write_cfg(tmp_path, TINY)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    rc = main([verb, "--config", str(cfg_path), *args, "--out", str(out)])
    assert rc == EXIT_IO
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""
    assert [path.name for path in out.iterdir()] == [blocked]
    assert not any((out / blocked).iterdir())


def test_run_is_byte_deterministic(tmp_path):
    cfg_path = write_cfg(tmp_path, TINY)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--scheme", "jtpo", "--out", str(out1)]) == EXIT_OK
    assert main(["run", "--config", str(cfg_path), "--scheme", "jtpo", "--out", str(out2)]) == EXIT_OK
    for name in ("scenario.txt", "trajectory.csv", "power.csv", "iterations.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_rerun_from_echo_reproduces_outputs(tiny_run, tmp_path):
    rc, cfg_path, out = tiny_run
    out2 = tmp_path / "again"
    rc = main(["run", "--config", str(out / "scenario.txt"), "--scheme", "jtpo", "--out", str(out2)])
    assert rc == EXIT_OK
    for name in ("trajectory.csv", "power.csv", "iterations.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name


# Floats whose text a formatter other than repr gets wrong: '%.17g' writes
# 0.1 as 0.10000000000000001, NumPy's positional and array formatting write
# 1e+16 as 10000000000000000. and 1e-05 as 0.00001 or 1.e-05.
AWKWARD = (0.0, -0.0, 1e-05, 1e+16, 0.1, 1 / 3, 2.5e-300, 123456789.125, math.inf, -math.inf,
           math.nan)


def reference_csv(header, rows) -> bytes:
    """The CSV text of rows with every float field by repr, one field at a time."""
    lines = [header] + [",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
                        for row in rows]
    return "".join(line + "\n" for line in lines).encode()


def test_csv_text_is_every_float_by_repr():
    rows = [(n, v, -v, f"s{n}", "") for n, v in enumerate(AWKWARD, start=1)]
    text = cli._csv("n,v,minus_v,s,e", *zip(*rows))
    assert text.encode() == reference_csv("n,v,minus_v,s,e", rows)
    assert "\n1,0.0,-0.0,s1,\n2,-0.0,0.0,s2,\n3,1e-05,-1e-05,s3,\n4,1e+16,-1e+16,s4,\n" in text
    assert text.endswith("\n11,nan,nan,s11,\n")


def test_run_files_write_every_float_by_repr(tmp_path, monkeypatch):
    # a design whose fields cover every awkward float: p = 0 W is -inf dBm,
    # record 0's frac_increase is inf, and the records carry -0.0 and nan
    points = np.array([[-0.0, 1e-05], [1e+16, 0.1], [1 / 3, -2.5e-300], [123456789.125, 0.0]])
    p = np.array([0.0, 1e-05, 1e+16, 0.1])
    records = (IterationRecord(0, -0.0, 1e-05, math.inf),
               IterationRecord(1, 1e+16, math.nan, -0.0))
    result = RunResult(trajectory=Trajectory(points=points), power=PowerProfile(p=p), aesr=0.1,
                       iterations=records, scheme="jtpo")
    monkeypatch.setattr(driver, "run_scheme", lambda cfg, scheme: result)
    cfg_path = write_cfg(tmp_path, TINY + "delta_t = 0.5\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--scheme", "jtpo",
                 "--out", str(out)]) == EXIT_OK
    speeds = result.trajectory.speeds(0.5).tolist()
    assert (out / "trajectory.csv").read_bytes() == reference_csv(
        "n,x_m,y_m,speed_mps", [(n, *q, v) for n, (q, v)
                                in enumerate(zip(points.tolist(), speeds), start=1)])
    assert (out / "power.csv").read_bytes() == reference_csv(
        "n,p_watt,p_dbm", [(n, w, watt_to_dbm(w)) for n, w in enumerate(p.tolist(), start=1)])
    assert (out / "power.csv").read_text().splitlines()[1] == "1,0.0,-inf"
    assert (out / "iterations.csv").read_bytes() == reference_csv(
        "iter,surrogate_bpcu,aesr_bpcu,frac_increase", records)
    assert (out / "iterations.csv").read_text().splitlines()[1:] == [
        "0,-0.0,1e-05,inf", "1,1e+16,nan,-0.0"]


# ---------------------------------------------------------------------------
# sweep verb
# ---------------------------------------------------------------------------

def test_sweep_row_cardinality_and_csv(tmp_path):
    cfg_path = write_cfg(tmp_path, TINY)
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", str(cfg_path), "--param", "T",
               "--values", "4,6", "--out", str(out)])
    assert rc == EXIT_OK
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "scheme,param_name,param_value,aesr_bpcu,error"
    assert len(rows) == 1 + 6  # 3 schemes x 2 values
    schemes = [r.split(",")[0] for r in rows[1:]]
    assert schemes == ["jtpo", "poft", "ftp-inf"] * 2


def test_sweep_empty_values_is_usage_error(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, TINY)
    rc = main(["sweep", "--config", str(cfg_path), "--param", "L",
               "--values", " , ", "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE


def test_sweep_unparsable_values_is_usage_error(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, TINY)
    rc = main(["sweep", "--config", str(cfg_path), "--param", "L",
               "--values", "1,x", "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: cannot parse --values")
    assert not (tmp_path / "o").exists()


def test_sweep_rejects_bad_config(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "eps_b = 0.9\n")
    rc = main(["sweep", "--config", str(cfg_path), "--param", "L",
               "--values", "400", "--out", str(tmp_path / "o")])
    assert rc == EXIT_IO
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o").exists()


def test_sweep_max_iter_caps_every_run(tmp_path, monkeypatch):
    # uncapped, every scheme takes more than one alternation at T=24
    iterations = []
    run = driver.run_scheme

    def recording_run_scheme(cfg, scheme, *args):
        result = run(cfg, scheme, *args)
        iterations.append((scheme, cfg.max_iter, len(result.iterations)))
        return result

    monkeypatch.setattr(driver, "run_scheme", recording_run_scheme)
    cfg_path = write_cfg(tmp_path, "T = 24\n")
    rc = main(["sweep", "--config", str(cfg_path), "--param", "L",
               "--values", "200,800", "--max-iter", "1", "--out", str(tmp_path / "o")])
    assert rc == EXIT_OK
    assert [(max_iter, n) for _, max_iter, n in iterations] == [(1, 2)] * 6
    assert [scheme.value for scheme, _, _ in iterations] == ["jtpo", "poft", "ftp-inf"] * 2


@pytest.mark.parametrize("verb,max_iter", [("run", "0"), ("sweep", "-3")])
def test_max_iter_below_one_is_usage_error(tmp_path, capsys, verb, max_iter):
    # rejected before the config is read: the config file does not exist
    argv = {"run": ["run", "--scheme", "poft"],
            "sweep": ["sweep", "--param", "L", "--values", "400"]}[verb]
    rc = main(argv + ["--config", str(tmp_path / "missing.cfg"), "--max-iter", max_iter,
                      "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == f"error: --max-iter must be >= 1, got {max_iter}\n"
    assert not (tmp_path / "o").exists()


_FRESH_RUN = """
import sys
from uavsec.cli import main
sys.exit(main(["run", "--config", sys.argv[1], "--scheme", "jtpo", "--out", sys.argv[2]]))
"""


def test_a_reused_parser_leaks_nothing_between_calls(tmp_path, capsys):
    # one process: a capped run, an uncapped one, a usage error, and the
    # uncapped run again; both uncapped runs write what a fresh process writes
    assert cli.build_parser() is cli.build_parser()
    cfg_path = write_cfg(tmp_path, TINY)
    run = ["run", "--config", str(cfg_path), "--scheme", "jtpo", "--out"]
    assert main(run + [str(tmp_path / "capped"), "--max-iter", "1"]) == EXIT_OK
    assert main(run + [str(tmp_path / "first")]) == EXIT_OK
    with pytest.raises(SystemExit) as usage:
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "bad")])
    assert usage.value.code == 2
    assert main(run + [str(tmp_path / "again")]) == EXIT_OK
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", _FRESH_RUN, str(cfg_path), str(tmp_path / "fresh")],
                   env=env, check=True, capture_output=True)
    names = ("scenario.txt", "trajectory.csv", "power.csv", "iterations.csv")
    for name in names:
        fresh = (tmp_path / "fresh" / name).read_bytes()
        assert (tmp_path / "first" / name).read_bytes() == fresh, name
        assert (tmp_path / "again" / name).read_bytes() == fresh, name
    capped = (tmp_path / "capped" / "iterations.csv").read_text().splitlines()
    assert len(capped) == 3
    assert len((tmp_path / "fresh" / "iterations.csv").read_text().splitlines()) > 3
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("in_file", ["", "max_iter = 7\n"], ids=["absent", "valid"])
def test_max_iter_argument_replaces_the_files_value(tmp_path, in_file):
    cfg_path = write_cfg(tmp_path, TINY + in_file)
    cfg = parse_config(cfg_path, 2)
    assert cfg.max_iter == 2
    assert cfg_fields_equal(cfg, dataclasses.replace(parse_config(cfg_path), max_iter=2))


def test_max_iter_argument_keeps_an_invalid_files_value_an_error(tmp_path, capsys):
    # --max-iter does not hide an invalid max_iter in the file
    cfg_path = write_cfg(tmp_path, TINY + "max_iter = 0\n")
    with pytest.raises(ValueError, match="max_iter must be an integer >= 1, got 0"):
        parse_config(cfg_path, 3)
    rc = main(["run", "--config", str(cfg_path), "--scheme", "jtpo", "--max-iter", "3",
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_IO
    assert "max_iter must be an integer >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_records_row_errors_but_continues(tmp_path):
    cfg_path = write_cfg(tmp_path, TINY)
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", str(cfg_path), "--param", "L",
               "--values", "0.5,400", "--out", str(out)])
    assert rc == EXIT_OK
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    bad = [r for r in rows if r.split(",")[2] == "0.5"]
    assert len(bad) == 3 and all(r.split(",")[4] for r in bad)
    good = [r for r in rows if r.split(",")[2] == "400.0"]
    assert len(good) == 3 and all(not r.split(",")[4] for r in good)
    # every float by repr, the error rows' nan AESR included
    assert [r.split(",")[3] for r in bad] == ["nan"] * 3
    entries = driver.sweep(parse_config(cfg_path), "L", [0.5, 400.0])
    assert (out / "sweep.csv").read_bytes() == reference_csv(
        "scheme,param_name,param_value,aesr_bpcu,error",
        [(e.scheme.value, e.parameter, e.value, e.aesr,
          "" if e.error is None else e.error.replace("\n", " ").replace(",", ";"))
         for e in entries])


def test_sweep_gives_error_rows_for_an_infinite_period(tmp_path):
    cfg_path = write_cfg(tmp_path, TINY)
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", str(cfg_path), "--param", "T",
               "--values", "inf,6", "--out", str(out)])
    assert rc == EXIT_OK
    rows = [r.split(",") for r in (out / "sweep.csv").read_text().strip().splitlines()[1:]]
    bad = [r for r in rows if r[2] == "inf"]
    assert len(bad) == 3 and all("T must be finite" in r[4] for r in bad)
    good = [r for r in rows if r[2] == "6.0"]
    assert len(good) == 3 and all(not r[4] for r in good)


def test_cli_import_does_not_load_scipy():
    # the benchmark's setup time measures exactly this import; the solver
    # takes its two LAPACK routines from the OpenBLAS numpy links
    code = ("import sys, uavsec.cli; "
            "print([m for m in ('scipy', 'scipy.linalg', 'scipy.sparse') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_src_has_no_scipy_import_statement():
    # importing any scipy package costs start-up time and maps scipy's own
    # OpenBLAS next to numpy's
    found = []
    for path in sorted((SRC / "uavsec").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name == "scipy" or name.startswith("scipy.")]
    assert found == []


_MAPPED_AFTER_RUN = """
import sys
from pathlib import Path
from uavsec.cli import main
assert main(["run", "--config", sys.argv[1], "--scheme", "jtpo", "--out", sys.argv[2]]) == 0
with open("/proc/self/maps", encoding="utf-8") as maps:
    files = {fields[-1] for fields in map(str.split, maps) if len(fields) > 5}
print(repr(([f for f in sorted(files) if "openblas" in Path(f).name],
            [m for m in sys.modules if m.split(".")[0] == "scipy"])))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_run_maps_one_openblas_and_imports_no_scipy(tmp_path):
    # a whole default JTPO run in a fresh interpreter: the solver's LAPACK
    # routines come from numpy's own OpenBLAS, so no second one is mapped
    cfg = write_cfg(tmp_path, "# the default scenario\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _MAPPED_AFTER_RUN, str(cfg), str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True)
    openblas, scipy_modules = ast.literal_eval(out.stdout.splitlines()[-1])
    assert len(openblas) == 1, openblas
    assert scipy_modules == []


# ---------------------------------------------------------------------------
# validate verb
# ---------------------------------------------------------------------------

def test_validate_accepts_generated_run(tiny_run, capsys):
    rc, cfg_path, out = tiny_run
    rc = main(["validate", "--config", str(cfg_path),
               "--trajectory", str(out / "trajectory.csv"),
               "--power", str(out / "power.csv")])
    assert rc == EXIT_OK
    assert "ok" in capsys.readouterr().out


def test_validate_flags_corrupted_power(tiny_run, tmp_path, capsys):
    rc, cfg_path, out = tiny_run
    rows = (out / "power.csv").read_text().strip().splitlines()
    parts = rows[1].split(",")
    parts[1] = "0.5"  # above P_max
    rows[1] = ",".join(parts)
    bad = tmp_path / "power.csv"
    bad.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc = main(["validate", "--config", str(cfg_path),
               "--trajectory", str(out / "trajectory.csv"), "--power", str(bad)])
    assert rc == EXIT_FAILURE
    assert "P_max" in capsys.readouterr().out


def test_validate_flags_non_finite_cells(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text("T = 24\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--scheme", "poft", "--out", str(out)]) == EXIT_OK
    for name, row, col in (("trajectory.csv", 6, 1), ("power.csv", 8, 1)):
        rows = (out / name).read_text(encoding="utf-8").splitlines()
        cells = rows[row].split(",")
        cells[col] = "nan"
        rows[row] = ",".join(cells)
        (out / name).write_text("\n".join(rows) + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["validate", "--config", str(cfg_path), "--trajectory", str(out / "trajectory.csv"),
               "--power", str(out / "power.csv")])
    assert rc == EXIT_FAILURE
    text = capsys.readouterr().out
    assert "non-finite: slot 6 position [nan, " in text
    assert "non-finite: slot 8 power nan W" in text


def test_validate_missing_column(tiny_run, tmp_path):
    rc, cfg_path, out = tiny_run
    bad = tmp_path / "power.csv"
    bad.write_text("n,watts\n1,0.1\n", encoding="utf-8")
    rc = main(["validate", "--config", str(cfg_path),
               "--trajectory", str(out / "trajectory.csv"), "--power", str(bad)])
    assert rc == EXIT_IO
