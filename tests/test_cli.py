"""Command-line behaviour: exit codes, schemas, env overrides, outputs."""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from gridledger import cli
from gridledger.cli import (
    EXIT_INFEASIBLE,
    EXIT_LIVENESS,
    EXIT_OK,
    EXIT_USAGE,
    SCHEMA_CHAIN,
    SCHEMA_COMPARE,
    _parse_faults,
    _parse_rho,
    _parse_synthetic,
    _UsageError,
    main,
)
from gridledger.energy_model import SCHEDULE_SERIES
from gridledger.scenario import generate_synthetic, write_scenario
from gridledger.tem import SCHEMA_SCHEDULE, RhoKind


class TestParsers:
    def test_synthetic(self):
        assert _parse_synthetic("3,8") == (3, 8)
        assert _parse_synthetic(" 2 , 24 ") == (2, 24)
        for bad in ("3", "a,b", "0,8", "3,0"):
            with pytest.raises(_UsageError):
                _parse_synthetic(bad)

    def test_rho(self):
        assert _parse_rho("reciprocal").kind is RhoKind.RECIPROCAL
        assert _parse_rho("fixed:2.5").value == 2.5
        assert _parse_rho("0.7").value == 0.7
        for bad in ("fixed:x", "-1", "0", "soon", "nan", "fixed:inf"):
            with pytest.raises(_UsageError):
                _parse_rho(bad)

    def test_faults(self):
        assert _parse_faults(["crash@150:validator1"]) == [(1, 150.0)]
        assert _parse_faults(["crash@0.5:2,crash@9:0"]) == [(2, 0.5), (0, 9.0)]
        with pytest.raises(_UsageError):
            _parse_faults(["validator1@150"])
        with pytest.raises(_UsageError):
            _parse_faults(["crash@abc:1"])


class TestRun:
    def test_centralized_ok(self, capsys):
        assert main(["run", "--synthetic", "2,4", "--mode", "BS1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mode BS1: total cost" in out
        assert "converged=True" in out

    def test_unknown_mode_usage(self, capsys):
        assert main(["run", "--synthetic", "2,4", "--mode", "BS9"]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_missing_scenario_usage(self, capsys):
        assert main(["run"]) == EXIT_USAGE
        assert "scenario is required" in capsys.readouterr().err

    def test_config_and_synthetic_conflict(self, tmp_path):
        assert main(["run", str(tmp_path), "--synthetic", "2,4"]) == EXIT_USAGE

    def test_no_command_prints_help(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().out.lower()

    def test_distributed_requires_tem(self, capsys):
        code = main(["run", "--synthetic", "2,4", "--mode", "BS1",
                     "--distributed"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flag", [
        ["--transport", "chain", "--validators", "3"],
        ["--max-iter", "0"],
        ["--eps", "-1"],
        ["--eps", "nan"],
        ["--rho", "nan"],
        ["--rho", "inf"],
    ], ids=["validators", "max-iter", "eps", "eps-nan", "rho-nan", "rho-inf"])
    def test_bad_run_argument_is_usage_error(self, capsys, flag):
        code = main(["run", "--synthetic", "2,4", "--distributed", *flag])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "usage error" in err
        assert "Traceback" not in err

    def test_distributed_inprocess(self, capsys):
        code = main(["run", "--synthetic", "2,4", "--distributed",
                     "--eps", "1e-4"])
        assert code == EXIT_OK
        assert "mode TEM" in capsys.readouterr().out

    def test_outputs_written_with_schema(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = main(["run", "--synthetic", "2,4", "--mode", "TEM",
                     "--out", str(out)])
        assert code == EXIT_OK
        jpath = out / "outcome_TEM.json"
        cpath = out / "schedule_TEM.csv"
        assert jpath.exists() and cpath.exists()
        assert json.loads(jpath.read_text())["mode"] == "TEM"
        lines = cpath.read_text().splitlines()
        assert lines[0] == f"# schema: {SCHEMA_SCHEDULE}"
        assert lines[1] == ",".join(["user", "slot", *SCHEDULE_SERIES, "peak"])
        assert len(lines) == 2 + 2 * 4

    def test_chain_transport_writes_identical_outputs(self, tmp_path, capsys):
        # the replicated contract runs the same coordination step as the
        # in-process state, so the written outcome and schedule match
        base = ["run", "--synthetic", "3,8", "--seed", "2", "--mode", "TEM",
                "--distributed"]
        for transport in ("inprocess", "chain"):
            code = main(base + ["--transport", transport,
                                "--out", str(tmp_path / transport)])
            assert code == EXIT_OK
        for name in ("outcome_TEM.json", "schedule_TEM.csv"):
            assert ((tmp_path / "chain" / name).read_bytes()
                    == (tmp_path / "inprocess" / name).read_bytes())

    def test_infeasible_scenario_exits_2(self, tmp_path, capsys):
        s = generate_synthetic(seed=1, n_users=2, horizon=4)
        tariff = dataclasses.replace(s.tariff, line_cap=0.001)
        write_scenario(dataclasses.replace(s, tariff=tariff), tmp_path)
        code = main(["run", str(tmp_path), "--mode", "BS1"])
        assert code == EXIT_INFEASIBLE
        assert "solve failed" in capsys.readouterr().err

    def test_broken_config_exits_1(self, tmp_path, capsys):
        (tmp_path / "config.json").write_text("{broken")
        assert main(["run", str(tmp_path)]) == EXIT_USAGE
        assert "scenario error" in capsys.readouterr().err

    @pytest.mark.parametrize("where,field", [("series", "inflexible"),
                                             ("config", "tariff.line_cap")])
    def test_nan_in_scenario_exits_1(self, tmp_path, capsys, where, field):
        write_scenario(generate_synthetic(seed=1, n_users=2, horizon=4),
                       tmp_path)
        if where == "series":
            lines = (tmp_path / "series.csv").read_text().splitlines()
            parts = lines[2].split(",")
            parts[4] = "nan"    # the l_I cell of user 0, slot 2
            lines[2] = ",".join(parts)
            (tmp_path / "series.csv").write_text("\n".join(lines) + "\n")
        else:
            cfg = json.loads((tmp_path / "config.json").read_text())
            cfg["tariff"]["line_cap"] = float("nan")
            (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert main(["run", str(tmp_path), "--mode", "BS1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "scenario error" in err
        assert f"field {field}" in err

    @pytest.mark.parametrize("field,value", [
        ("n_users", float("nan")), ("horizon", "four"),
        ("rng_seed", float("nan")), ("windows.ev.arrive", float("nan")),
        ("windows.dr.from", "x"), ("n_users", 0), ("horizon", 0)])
    def test_bad_integer_in_config_exits_1(self, tmp_path, capsys, field,
                                           value):
        """A count below one is named with validate_scenario's wording
        before any series row is read."""
        write_scenario(generate_synthetic(seed=1, n_users=2, horizon=4),
                       tmp_path)
        cfg = json.loads((tmp_path / "config.json").read_text())
        if field == "windows.ev.arrive":
            cfg["users"][0]["windows"]["ev"]["arrive"] = value
        elif field == "windows.dr.from":
            cfg["windows"]["dr"] = {"from": value, "to": 3}
        else:
            cfg[field] = value
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert main(["run", str(tmp_path), "--mode", "BS1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "scenario error" in err
        if value == 0:
            reason = {"n_users": "need at least one user, got 0",
                      "horizon": "horizon must be >= 1, got 0"}[field]
            assert f"config.json: {field}: {reason}" in err
            assert "series.csv" not in err
        else:
            assert f"{field}: must be an integer" in err

    @pytest.mark.parametrize("field,value", [
        ("tariff.line_cap", "abc"), ("tariff.price_peak", ...),
        ("hvac.alpha", None), ("ev.capacity", "x")])
    def test_bad_number_in_config_exits_1(self, tmp_path, capsys, field,
                                          value):
        """A non-numeric value, or a missing tariff key (value ``...``), is
        named instead of escaping as a traceback."""
        write_scenario(generate_synthetic(seed=1, n_users=2, horizon=4),
                       tmp_path)
        cfg = json.loads((tmp_path / "config.json").read_text())
        section, key = field.split(".")
        if value is ...:
            del cfg["tariff"][key]
        elif section == "tariff":
            cfg["tariff"][key] = value
        else:
            cfg["users"][0][section][key] = value
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert main(["run", str(tmp_path), "--mode", "BS1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "scenario error" in err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("section", ["tariff", "user 0 hvac", "users"])
    def test_wrong_typed_section_exits_1(self, tmp_path, capsys, section):
        """A config section of the wrong JSON type is named instead of
        escaping as a ``TypeError`` traceback."""
        write_scenario(generate_synthetic(seed=1, n_users=2, horizon=4),
                       tmp_path)
        cfg = json.loads((tmp_path / "config.json").read_text())
        if section == "tariff":
            cfg["tariff"] = 5
        elif section == "users":
            cfg["users"] = 3
        else:
            cfg["users"][0]["hvac"] = 5
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert main(["run", str(tmp_path), "--mode", "BS1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "scenario error" in err
        assert f"{section}: section must be" in err

    def test_nan_price_exits_1(self, tmp_path, capsys):
        """The same NaN trade price for both homes is a non-finite value,
        not a mismatch between the homes' price columns."""
        write_scenario(generate_synthetic(seed=1, n_users=2, horizon=4),
                       tmp_path)
        lines = (tmp_path / "series.csv").read_text().splitlines()
        for row in (1, 5):              # slot 1 of user 0 and of user 1
            parts = lines[row].split(",")
            parts[-1] = "nan"           # p_T
            lines[row] = ",".join(parts)
        (tmp_path / "series.csv").write_text("\n".join(lines) + "\n")
        assert main(["run", str(tmp_path), "--mode", "BS1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "field p_T: values must be finite" in err
        assert "differ" not in err

    def test_loaded_config_round_trip(self, tmp_path, capsys):
        s = generate_synthetic(seed=5, n_users=2, horizon=4)
        write_scenario(s, tmp_path)
        direct = main(["run", "--synthetic", "2,4", "--seed", "5",
                       "--mode", "BS2"])
        from_disk = main(["run", str(tmp_path), "--mode", "BS2"])
        assert direct == from_disk == EXIT_OK
        first, second = capsys.readouterr().out.strip().split("\n")
        assert first == second


class TestCompare:
    def test_table_and_ordering(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", "--synthetic", "2,4", "--out", str(out)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert f"# schema: {SCHEMA_COMPARE}" in text
        assert "mode ordering (TEM <= BS2,BS3 <= BS1): ok" in text
        assert "reference reductions" not in text
        table = (out / "compare.csv").read_text().splitlines()
        assert table[0] == f"# schema: {SCHEMA_COMPARE}"
        assert table[1] == "mode,total_cost,savings_vs_BS1,iterations"
        assert len(table) == 6    # header x2 + four modes

    def test_broken_ordering_fails(self, capsys, monkeypatch):
        """A TEM cost above BS2's and BS3's is reported on stderr, with the
        costs at fault, and exits with the convergence code."""
        solve = cli.solve_centralized

        def costly_tem(s, mode):
            o = solve(s, mode)
            return dataclasses.replace(o, total_cost=o.total_cost + 1.0) \
                if mode.value == "TEM" else o
        monkeypatch.setattr(cli, "solve_centralized", costly_tem)
        assert main(["compare", "--synthetic", "2,4"]) == EXIT_LIVENESS
        captured = capsys.readouterr()
        assert "mode ordering (TEM <= BS2,BS3 <= BS1): VIOLATED" \
            in captured.out
        assert "mode ordering violated" in captured.err
        assert "TEM " in captured.err and " > BS2 " in captured.err
        assert " > BS3 " in captured.err and "BS1" not in captured.err


class TestChain:
    def test_too_few_validators(self, capsys):
        assert main(["chain", "--validators", "3"]) == EXIT_USAGE

    def test_bad_fault_spec(self, capsys):
        code = main(["chain", "--validators", "4", "--faults", "boom@1:2"])
        assert code == EXIT_USAGE

    def test_fault_names_unknown_validator(self, capsys):
        code = main(["chain", "--validators", "4", "--blocks", "2",
                     "--faults", "crash@10:9"])
        assert code == EXIT_USAGE

    def test_both_protocols_report_ratio(self, tmp_path, capsys):
        out = tmp_path / "chain"
        code = main(["chain", "--validators", "4", "--blocks", "3",
                     "--mode", "both", "--out", str(out)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert f"# schema: {SCHEMA_CHAIN}" in text
        assert "modified/classic message ratio" in text
        assert "5(n-1)=15" in text
        assert "2n(n-1)=24" in text
        lines = (out / "chain_metrics.csv").read_text().splitlines()
        assert lines[1] == "protocol,height,msgs,bytes,latency_ms"
        assert len(lines) == 2 + 2 * 3    # three heights per protocol

    def test_crash_fault_reports_heights(self, capsys):
        code = main(["chain", "--validators", "4", "--blocks", "3",
                     "--mode", "modified", "--faults", "crash@0:validator1"])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "final heights with faults" in text
        # a message to the crashed validator counts once, at its send, and
        # not again when it is dropped on arrival
        assert "3 commits, 13.0 msgs/block" in text


@pytest.mark.parametrize("argv", [
    ["chain", "--blocks", "0"],
    ["chain", "--blocks", "-2"],
    ["run", "--synthetic", "2,4", "--seed", "-1"],
    ["compare", "--synthetic", "2,4", "--seed", "-1"],
], ids=["blocks-0", "blocks-negative", "run-seed", "compare-seed"])
def test_negative_blocks_or_seed_is_usage_error(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "usage error" in err
    assert "Traceback" not in err


def _compare_modes_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "compare_modes.py"
    spec = importlib.util.spec_from_file_location("compare_modes", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


class TestCompareModesScript:
    ARGV = ["compare_modes.py", "--users", "3", "--horizon", "8"]

    def test_gap_within_bound_passes(self, monkeypatch, capsys):
        script = _compare_modes_script()
        monkeypatch.setattr(sys, "argv", self.ARGV)
        script.main()
        assert capsys.readouterr().err == ""

    def test_broken_gap_exits_3(self, monkeypatch, capsys):
        script = _compare_modes_script()
        real = script.run_distributed

        def off_by_one(*args, **kwargs):
            out = real(*args, **kwargs)
            return dataclasses.replace(out, total_cost=out.total_cost + 1.0)
        monkeypatch.setattr(script, "run_distributed", off_by_one)
        monkeypatch.setattr(sys, "argv", self.ARGV)
        with pytest.raises(SystemExit) as info:
            script.main()
        assert info.value.code == 3
        assert "past the relative bound 0.0001" in capsys.readouterr().err
