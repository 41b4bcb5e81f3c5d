"""Tests for the command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import BATTERIES, build_parser, main

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_commands_exist(self):
        parser = build_parser()
        for command in ("table1", "table2", "table3", "table4",
                        "figure4", "validate", "run", "explain",
                        "baseline", "interference", "sensitivity"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_common_flags(self):
        args = build_parser().parse_args(["table1", "--measure-s", "5",
                                          "--seed", "3"])
        assert args.measure_s == 5.0
        assert args.seed == 3

    def test_run_flags(self):
        args = build_parser().parse_args([
            "run", "--mac", "dynamic", "--app", "rpeak", "--nodes", "2",
            "--battery", "lipo160", "--losses", "--join"])
        assert args.mac == "dynamic"
        assert args.app == "rpeak"
        assert args.nodes == 2
        assert args.battery == "lipo160"
        assert args.losses and args.join

    def test_invalid_mac_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--mac", "tokenring"])

    def test_batteries_registry(self):
        assert set(BATTERIES) == {"cr2477", "lipo160"}


class TestExecution:
    def test_table3_output(self, capsys):
        assert main(["table3", "--measure-s", "2"]) == 0
        out = capsys.readouterr().out
        assert "Rpeak application and static TDMA" in out
        assert "Avg err vs paper sim" in out

    def test_figure4_output(self, capsys):
        assert main(["figure4", "--measure-s", "2"]) == 0
        out = capsys.readouterr().out
        assert "preprocessing saving" in out

    def test_run_output(self, capsys):
        assert main(["run", "--app", "rpeak", "--nodes", "2",
                     "--cycle-ms", "60", "--measure-s", "1",
                     "--losses"]) == 0
        out = capsys.readouterr().out
        assert "node1" in out and "node2" in out
        assert "days" in out
        assert "idle_listening" in out

    def test_run_dynamic_with_join(self, capsys):
        assert main(["run", "--mac", "dynamic", "--app", "ecg_streaming",
                     "--nodes", "2", "--measure-s", "1", "--join"]) == 0
        out = capsys.readouterr().out
        assert "dynamic MAC" in out

    def test_explain_output(self, capsys):
        assert main(["explain", "--app", "rpeak",
                     "--cycle-ms", "120"]) == 0
        out = capsys.readouterr().out
        assert "beacon window" in out
        assert "500.0 cycles" in out

    def test_baseline_output(self, capsys):
        assert main(["baseline"]) == 0
        out = capsys.readouterr().out
        assert "airtime_only" in out
        assert "guard_windows" in out

    def test_interference_output(self, capsys):
        assert main(["interference", "--measure-s", "2"]) == 0
        out = capsys.readouterr().out
        assert "collision" in out
        assert "ban1.node1" in out and "ban2.node3" in out

    def test_sensitivity_output(self, capsys):
        assert main(["sensitivity", "--relative", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "Tornado" in out
        assert "radio_rx_current" in out

    def test_run_exports(self, capsys, tmp_path):
        csv_path = tmp_path / "nodes.csv"
        json_path = tmp_path / "nodes.json"
        vcd_path = tmp_path / "ban.vcd"
        assert main(["run", "--nodes", "1", "--measure-s", "1",
                     "--csv", str(csv_path), "--json", str(json_path),
                     "--vcd", str(vcd_path)]) == 0
        assert csv_path.read_text().startswith("node,")
        assert '"node": "node1"' in json_path.read_text()
        assert vcd_path.read_text().startswith("$date")


class TestImportGraph:
    def test_cold_import_loads_neither_numpy_nor_process_pool(self):
        """Cold start stays cheap: the CLI and the batch layers pull in
        neither numpy nor the process-pool machinery (the pool's
        imports happen only when a pool starts)."""
        code = ("import sys\n"
                "import repro.cli, repro.analysis, repro.exec, repro.obs\n"
                "print(sorted(m for m in ('numpy',"
                " 'concurrent.futures.process') if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=True,
                              env=env)
        assert proc.stdout.strip() == "[]"
