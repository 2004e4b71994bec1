import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from segrecusp.cli import main
from segrecusp.errors import ConfigError
from segrecusp.report import SurfaceConfig, canonical_dumps


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_config_symbol_instantiates_expected_quadrics(tmp_path):
    path = write_config(tmp_path, {"symbol": "[221]",
                                   "params": {"a": "1", "b": "2", "c": "3"}})
    surface = SurfaceConfig.load(path).build()
    P = surface.pencil.P
    assert P[0][1] == 1 and P[1][1] == 1 and P[2][3] == 2 and P[3][3] == 1 \
        and P[4][4] == 3


def test_config_rejects_asymmetric_matrix(tmp_path):
    bad = [[0] * 5 for _ in range(5)]
    bad[0][1] = 1  # not mirrored
    path = write_config(tmp_path, {"quadrics": [bad, [[0] * 5 for _ in range(5)]]})
    with pytest.raises(ConfigError):
        SurfaceConfig.load(path).build()


def test_config_raw_quadrics_recompute_symbol(tmp_path):
    from segrecusp.appendix import appendix_cases
    from segrecusp.pencil import SegreSymbol
    case = [c for c in appendix_cases()
            if SegreSymbol.parse(c.symbol) == SegreSymbol.parse("[32]")][0]
    path = write_config(tmp_path, {
        "quadrics": [[[str(c) for c in row] for row in case.P],
                     [[str(c) for c in row] for row in case.Q]]})
    surface = SurfaceConfig.load(path).build()
    assert surface.pencil.segre_symbol() == SegreSymbol.parse("[32]")


def test_config_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"symbol": [221]')
    with pytest.raises(ConfigError) as info:
        SurfaceConfig.load(str(path))
    assert ":" in str(info.value)


def test_verify_appendix_exit_zero(capsys):
    assert main(["verify-appendix"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_pass"] is True
    assert [(r["m"], r["branch_mult"]) for r in out["records"]] == \
        [(2, 0), (2, 0), (2, 0), (3, 0), (3, 0), (4, 0), (4, 0)]


def test_table1_subset(capsys):
    # [221] is Table 1's [122] written in another order
    assert main(["table1", "--symbols", "[221],[1(13)]"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_pass"] is True
    cells = {r["symbol"]: r["cells"] for r in out["rows"]}
    assert cells["[122]"]["x"]["got"] == 2
    assert cells["[1(13)]"]["DS"]["got"] == "reducible"


@pytest.mark.parametrize("argv", [
    ["point-case", "--point", "1,2,x,4,5"],
    ["point-case", "--point", "0,0,0,0,0"],
    ["point-case", "--point", "1,2,3"],
    ["point-case", "--random", "--count", "-1"],
    ["table1", "--symbols", "[9]"],
    ["table1", "--symbols", "[1(11)(11)"],
    ["table1", "--symbols", "[(111)11]"],
    ["surface-report", "--offline-points", "-3"],
    ["table1", "--symbols", ","],
    ["table1", "--symbols", ""],
])
def test_malformed_input_is_an_error(argv, tmp_path, capsys):
    if argv[0] in ("point-case", "surface-report"):
        argv = argv + ["--config", write_config(
            tmp_path, {"symbol": "[1(11)(11)]", "params": ["1", "2", "5"]})]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("order", [-1, 0, 2.5])
def test_config_order_below_two_is_an_error(order, tmp_path, capsys):
    path = write_config(tmp_path, {"symbol": "[5]", "params": ["1"],
                                   "order": order})
    assert main(["surface-report", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["point-case"],
    ["point-case", "--point", "1,2,3,4,5", "--random"],
    ["point-case", "--random", "--order", "8"],
    ["surface-report", "--order", "8"],
    ["line-report", "--line", "0", "--order", "2"],
    ["table1", "--symbols", "[5]", "--order", "-1"],
    ["table1", "--symbols", "[5]", "--order", "0"],
], ids=["no-point-flag", "both-point-flags", "point-case-order",
        "surface-report-order", "line-report-order", "table1-order-minus-1",
        "table1-order-0"])
def test_usage_errors_exit_two(argv, tmp_path, capsys):
    # no command takes a truncation order
    if argv[0] != "table1":
        argv = argv + ["--config", write_config(
            tmp_path, {"symbol": "[1(11)(11)]", "params": ["1", "2", "5"]})]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_config_order_two_is_an_error(tmp_path, capsys):
    path = write_config(tmp_path, {"symbol": "[23]", "params": ["1", "2"],
                                   "seed": 6, "order": 2})
    for argv in (["surface-report", "--config", path],
                 ["point-case", "--config", path, "--random"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")


def test_config_unknown_key_is_an_error(tmp_path, capsys):
    path = write_config(tmp_path, {"symbol": "[23]", "params": ["1", "2"],
                                   "sede": 6})
    assert main(["surface-report", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'sede'" in err


@pytest.mark.parametrize("seed", ["abc", 2.7, True])
def test_config_seed_not_an_integer_is_an_error(seed, tmp_path, capsys):
    path = write_config(tmp_path, {"symbol": "[5]", "params": ["1"],
                                   "seed": seed})
    assert main(["surface-report", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("raw", [
    {"symbol": 23, "params": ["1", "2"]},
    {"symbol": "[23]", "params": "12"},
    {"quadrics": [5, 6]},
    {"quadrics": [[5, 6, 7, 8, 9]] * 2},
])
def test_config_wrong_json_types_are_errors(raw, tmp_path, capsys):
    path = write_config(tmp_path, raw)
    assert main(["surface-report", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("raw", [
    {"symbol": "[23]", "params": [True, 2]},
    {"quadrics": [[[True if i == j else 0 for j in range(5)]
                   for i in range(5)],
                  [[i * int(i == j) for j in range(5)] for i in range(5)]]},
], ids=["params", "quadrics"])
def test_config_booleans_are_not_rationals(raw, tmp_path, capsys):
    path = write_config(tmp_path, raw)
    assert main(["surface-report", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_surface_report_deterministic(tmp_path, capsys):
    path = write_config(tmp_path, {"symbol": "[23]",
                                   "params": ["1", "2"], "seed": 6})
    assert main(["surface-report", "--config", path]) == 0
    first = capsys.readouterr().out
    assert main(["surface-report", "--config", path]) == 0
    second = capsys.readouterr().out
    assert first == second
    # round-trip: re-serializing the parsed report is byte-identical
    assert canonical_dumps(json.loads(first)) == first


def test_surface_report_uncertified_census_is_anomaly(tmp_path, capsys,
                                                     monkeypatch):
    from segrecusp import lines
    monkeypatch.setattr(lines, "through_point_lines",
                        lambda pencil, point: ([], [], None))
    path = write_config(tmp_path, {"symbol": "[1(13)]",
                                   "params": ["1", "2"], "seed": 3})
    assert main(["surface-report", "--config", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert any("not certified" in a for a in out["anomalies"])
    assert out["notes"] == []


def test_point_case_fixed_point(tmp_path, capsys):
    path = write_config(tmp_path, {"symbol": "[1(11)(11)]",
                                   "params": ["1", "2", "5"], "seed": 1})
    code = main(["point-case", "--config", path, "--random", "--count", "2"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert [c["case"] for c in out["cases"]] == ["CaseI", "CaseI"]


def test_line_report_command(tmp_path, capsys):
    path = write_config(tmp_path, {"symbol": "[12(11)]",
                                   "params": ["1", "2", "5"], "seed": 2})
    assert main(["line-report", "--config", path, "--line", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "branch_mult" in out and "m" in out


def test_line_report_states_order_used(tmp_path, capsys):
    """line-report escalates from the order surface-report starts at, so
    both give the same record, order used included."""
    path = write_config(tmp_path, {"symbol": "[122]",
                                   "params": ["1", "2", "5"]})
    assert main(["line-report", "--config", path, "--line", "3"]) == 0
    line = json.loads(capsys.readouterr().out)
    main(["surface-report", "--config", path, "--offline-points", "0"])
    record = json.loads(capsys.readouterr().out)["lines"][3]
    keys = ("m", "disc_order", "branch_mult", "order_used")
    assert line["exact"] and record["exact_report"]
    assert [line[k] for k in keys] == [record[k] for k in keys]
    assert line["m"] == 2


@pytest.mark.parametrize("symbol", ["[122]", "[1112]", "[1(13)]"])
def test_line_report_matches_surface_report_on_every_line(tmp_path, capsys,
                                                          symbol):
    """Both commands take a line's record from one builder: exact lines,
    numeric ones and the inconsistent [1(13)] estimates alike."""
    from segrecusp.pencil import SegreSymbol
    params = ["1", "2", "5", "7"][:len(SegreSymbol.parse(symbol).units)]
    path = write_config(tmp_path, {"symbol": symbol, "params": params,
                                   "seed": 3})
    main(["surface-report", "--config", path, "--offline-points", "0"])
    records = json.loads(capsys.readouterr().out)["lines"]
    keys = ("m", "disc_order", "branch_mult")
    for k, record in enumerate(records):
        code = main(["line-report", "--config", path, "--line", str(k)])
        line = json.loads(capsys.readouterr().out)
        assert line["line"] == {key: record[key] for key in line["line"]}, k
        assert [line[key] for key in keys] == [record[key] for key in keys], k
        assert line["exact"] == record["exact_report"], k
        ok = line["exact"] or line["evidence"]["status"] == "ok"
        assert code == (0 if ok else 1), k
    assert records


def _src_env():
    """The environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"),
        env.get("PYTHONPATH")]))
    return env


def test_cli_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "segrecusp.cli",
                           "table1", "--symbols", "[11111]"],
                          capture_output=True, text=True, timeout=300,
                          env=_src_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_pass"] is True


def test_report_byte_identical_across_processes(tmp_path):
    path = write_config(tmp_path, {"symbol": "[1(13)]",
                                   "params": ["1", "2"], "seed": 3})
    outs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-m", "segrecusp.cli",
                               "surface-report", "--config", path],
                              capture_output=True, text=True, timeout=300,
                              env=_src_env())
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
