"""Smoke tests for the ``python -m repro`` CLI (driven in-process)."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

EXAMPLES = Path(__file__).parents[1] / "examples" / "netlists"


@pytest.fixture()
def chain_netlist(tmp_path):
    path = tmp_path / "chain.json"
    assert main(["export", "inverter_chain", "--stages", "3", "-o", str(path)]) == 0
    return path


class TestExport:
    def test_export_writes_loadable_netlist(self, chain_netlist):
        from repro.io.netlist import load_netlist

        netlist = load_netlist(chain_netlist)
        assert netlist.end_time is not None
        assert "in" in netlist.inputs
        netlist.build().validate()

    def test_export_spf(self, tmp_path):
        path = tmp_path / "spf.json"
        assert main(["export", "spf", "-o", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["format"] == "repro-netlist"
        edge_kinds = {e["channel"]["kind"] for e in data["circuit"]["edges"]}
        assert "eta_involution" in edge_kinds


class TestInfo:
    def test_info_prints_summary(self, chain_netlist, capsys):
        assert main(["info", str(chain_netlist)]) == 0
        out = capsys.readouterr().out
        assert "inverter_chain" in out
        assert "EtaInvolutionChannel" in out

    def test_malformed_netlist_exits_cleanly(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "spice", "circuit": {}}')
        with pytest.raises(SystemExit, match="error:"):
            main(["info", str(path)])

    def test_missing_file_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="error:"):
            main(["info", str(tmp_path / "nope.json")])


class TestSimulate:
    def test_simulate_with_netlist_defaults(self, chain_netlist, capsys):
        assert main(["simulate", str(chain_netlist)]) == 0
        out = capsys.readouterr().out
        assert "simulated to" in out
        assert "out" in out

    def test_simulate_json_output(self, chain_netlist, capsys):
        assert main(["simulate", str(chain_netlist), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["event_count"] > 0
        assert "out" in payload["outputs"]

    def test_simulate_pulse_override_changes_output(self, chain_netlist, capsys):
        assert main(["simulate", str(chain_netlist), "--json"]) == 0
        default = json.loads(capsys.readouterr().out)
        assert (
            main(
                [
                    "simulate",
                    str(chain_netlist),
                    "--json",
                    "--pulse",
                    "in=1.0:5.0",
                    "--end-time",
                    "80.0",
                ]
            )
            == 0
        )
        overridden = json.loads(capsys.readouterr().out)
        assert overridden["outputs"]["out"] != default["outputs"]["out"]
        assert len(overridden["outputs"]["out"]["transitions"]) == 2

    def test_simulate_writes_vcd(self, chain_netlist, tmp_path, capsys):
        vcd = tmp_path / "trace.vcd"
        assert main(["simulate", str(chain_netlist), "--vcd", str(vcd)]) == 0
        text = vcd.read_text()
        assert text.startswith("$timescale")
        assert "$enddefinitions" in text

    def test_bad_pulse_spec_exits(self, chain_netlist):
        with pytest.raises(SystemExit):
            main(["simulate", str(chain_netlist), "--pulse", "in=oops"])

    def test_circuit_error_is_one_error_line(self, chain_netlist, tmp_path):
        data = json.loads(chain_netlist.read_text())
        data["circuit"]["edges"] = []
        path = tmp_path / "unwired.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit, match="^error: gate 'inv1' has undriven input pins"):
            main(["simulate", str(path)])

    def test_missing_end_time_exits(self, tmp_path):
        from repro.circuits import inverter_chain
        from repro.io.netlist import save_netlist
        from repro.specs import ChannelSpec

        bare = save_netlist(
            inverter_chain(2, ChannelSpec.exp_involution(1.0, 0.5)),
            tmp_path / "bare.json",
        )
        with pytest.raises(SystemExit, match="end-time"):
            main(["simulate", str(bare)])


class TestChannelParamDomains:
    """lint and simulate agree on which channel parameters are valid."""

    @staticmethod
    def _netlist(tmp_path, mutate):
        """The example inverter chain with its first channel mutated."""
        data = json.loads((EXAMPLES / "inverter_chain.json").read_text())
        mutate(data["circuit"]["edges"][0]["channel"])
        path = tmp_path / "netlist.json"
        path.write_text(json.dumps(data))
        return str(path)

    @staticmethod
    def _random(distribution):
        return lambda channel: channel.update(
            adversary={"kind": "random", "seed": 1, "distribution": distribution}
        )

    def test_gaussian_random_adversary_is_lint_clean(self, tmp_path, capsys):
        path = self._netlist(tmp_path, self._random("gaussian"))
        assert main(["lint", path]) == 0
        assert main(["simulate", path]) == 0
        assert "simulated to" in capsys.readouterr().out

    def test_unknown_distribution_names_the_valid_ones(self, tmp_path, capsys):
        path = self._netlist(tmp_path, self._random("normal"))
        assert main(["lint", path]) == 1
        finding = next(
            line
            for line in capsys.readouterr().out.splitlines()
            if "/adversary/distribution REP106 error" in line
        )
        assert "'normal'" in finding and "'gaussian'" in finding

    @pytest.mark.parametrize("key", ["eta_plus", "eta_minus"])
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf], ids=["NaN", "Infinity", "-Infinity"]
    )
    def test_non_finite_eta_bound_is_an_error(self, tmp_path, capsys, key, value):
        path = self._netlist(tmp_path, lambda channel: channel["eta"].update({key: value}))
        assert main(["lint", path]) == 1
        assert f"/eta/{key} REP106 error" in capsys.readouterr().out
        with pytest.raises(SystemExit, match=f"^error: eta bound {key}="):
            main(["simulate", path])


class TestSweep:
    def test_sweep_runs_monte_carlo(self, chain_netlist, capsys):
        assert main(["sweep", str(chain_netlist), "--runs", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "4 runs" in out
        assert "mc[3]" in out

    def test_sweep_json_is_deterministic_per_seed(self, chain_netlist, capsys):
        argv = ["sweep", str(chain_netlist), "--runs", "3", "--seed", "7", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)

        def strip_timing(results):
            return [
                {k: v for k, v in row.items() if k != "seconds"} for row in results
            ]

        assert strip_timing(first["results"]) == strip_timing(second["results"])
        assert len(first["results"]) == 3

    def test_sweep_auto_prints_each_chunk_decision(self, chain_netlist, capsys):
        argv = [
            "sweep", str(chain_netlist), "--runs", "20", "--backend", "auto",
            "--chunk-size", "16",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "chunks: 2 chunk(s) computed" in out
        assert "  chunk 0: vector, 16 scenarios reach the vector break-even" in out
        assert "  chunk 1: sequential, 4 scenario(s), below the vector break-even" in out

    def test_sweep_process_backend(self, chain_netlist, capsys):
        argv = ["sweep", str(chain_netlist), "--runs", "3", "--seed", "7", "--json"]
        assert main(argv) == 0
        sequential = json.loads(capsys.readouterr().out)
        assert (
            main(argv + ["--workers", "2"]) == 0
        )
        process = json.loads(capsys.readouterr().out)
        for seq, proc in zip(sequential["results"], process["results"]):
            assert seq["outputs"] == proc["outputs"]
            assert seq["events"] == proc["events"]


class TestFlagRanges:
    """Out-of-range integer flags exit 2 naming the flag, before any work."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "n.json", "--runs", "-2"],
            ["sweep", "n.json", "--retries", "0"],
            ["sweep", "n.json", "--chunk-size", "0"],
            ["sweep", "n.json", "--workers", "0"],
            ["sweep", "n.json", "--chunk-timeout", "-1"],
            ["experiment", "run", "theorem9", "--workers", "-1"],
            ["export", "inverter_chain", "-o", "n.json", "--stages", "0"],
        ],
        ids=["runs", "retries", "chunk-size", "sweep-workers", "chunk-timeout",
             "experiment-workers", "stages"],
    )
    def test_out_of_range_flag_exits_2(self, argv, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"argument {argv[-2]}:" in capsys.readouterr().err
        assert not (tmp_path / "n.json").exists()


class TestExperimentCLI:
    RUN_ARGS = [
        "experiment", "run", "comparison",
        "--param", "stages=2", "--param", "pulse_count=3",
        "--param", "record_traces=true",
    ]

    def test_list(self, capsys):
        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        for kind in ("theorem9", "fig7", "fig8", "fig9", "comparison",
                     "scaling", "eta_coverage", "lemma5"):
            assert kind in out

    def test_list_json(self, capsys):
        assert main(["experiment", "list", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert "theorem9" in listing

    def test_run_prints_table_and_provenance(self, capsys):
        assert main(self.RUN_ARGS) == 0
        out = capsys.readouterr().out
        assert "experiment comparison" in out
        assert "provenance:" in out and "cache=miss" in out

    def test_run_json_validates_and_caches(self, tmp_path, capsys):
        argv = self.RUN_ARGS + ["--cache", str(tmp_path / "store"), "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["from_cache"] is False
        assert first["result"]["format"] == "repro-experiment-result"
        from repro.experiments import ExperimentResult

        ExperimentResult.from_dict(first["result"]).validate()
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["from_cache"] is True
        assert second["result"]["rows"] == first["result"]["rows"]
        assert Path(second["artifact"]).exists()

    def test_run_param_overrides_merge(self, capsys):
        assert (
            main(
                [
                    "experiment", "run", "lemma5", "--json",
                    "--params-json", '{"eta_plus_values": [0.02, 0.05]}',
                    "--param", "back_off=0.002",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        spec = payload["result"]["spec"]
        assert spec["eta_plus_values"] == [0.02, 0.05]
        assert spec["back_off"] == 0.002
        assert len(payload["result"]["rows"]) == 2

    def test_report_and_export(self, tmp_path, capsys):
        out_file = tmp_path / "result.json"
        assert main(self.RUN_ARGS + ["-o", str(out_file)]) == 0
        capsys.readouterr()
        assert main(["experiment", "report", str(out_file)]) == 0
        report = capsys.readouterr().out
        assert "experiment comparison" in report and "provenance:" in report
        # from_cache is run-state, not provenance; report must not claim it.
        assert "cache=" not in report

        csv_file = tmp_path / "result.csv"
        vcd_file = tmp_path / "result.vcd"
        assert main(["experiment", "export", str(out_file),
                     "--format", "csv", "-o", str(csv_file)]) == 0
        assert main(["experiment", "export", str(out_file),
                     "--format", "vcd", "-o", str(vcd_file)]) == 0
        assert csv_file.read_text().startswith("model,")
        assert vcd_file.read_text().startswith("$comment")

    def test_export_vcd_without_traces_errors(self, tmp_path, capsys):
        out_file = tmp_path / "lemma5.json"
        assert main(["experiment", "run", "lemma5", "-o", str(out_file)]) == 0
        with pytest.raises(SystemExit, match="no recorded traces"):
            main(["experiment", "export", str(out_file),
                  "--format", "vcd", "-o", str(tmp_path / "x.vcd")])

    #: Small-but-real parameterisations: every registered paper experiment
    #: must be runnable end-to-end from the command line (ISSUE 4).
    SMALL_PARAMS = {
        "theorem9": {"pulse_lengths": [0.3, 1.3], "adversaries": {"zero": {"kind": "zero"}}, "end_time": 120.0},
        "lemma5": {"eta_plus_values": [0.02]},
        "fig7": {"vdd_levels": [1.0], "stages": 2, "n_widths": 6},
        "fig8": {"scenarios": ["width_plus10"], "stages": 2, "n_widths": 6},
        "fig9": {"stages": 2, "n_widths": 8},
        "comparison": {"stages": 2, "pulse_count": 3},
        "scaling": {"stage_counts": [2], "input_transitions": 20},
        "eta_coverage": {"stages": 2, "n_runs": 3},
    }

    @pytest.mark.parametrize("kind", sorted(SMALL_PARAMS))
    def test_every_kind_runs_from_the_cli(self, kind, capsys):
        argv = [
            "experiment", "run", kind,
            "--params-json", json.dumps(self.SMALL_PARAMS[kind]), "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        from repro.experiments import ExperimentResult

        result = ExperimentResult.from_dict(payload["result"])
        result.validate()
        assert result.rows
        assert result.spec.kind == kind

    def test_unknown_kind_exits_cleanly(self):
        with pytest.raises(SystemExit, match="error:"):
            main(["experiment", "run", "bogus_kind"])

    def test_unknown_technology_preset_exits_cleanly(self):
        with pytest.raises(SystemExit, match="unknown technology preset"):
            main(["experiment", "run", "fig7", "--param", "technology=BOGUS"])

    def test_unknown_fig8_scenario_exits_cleanly(self):
        # Regression: the name was checked after the nominal
        # characterisation and escaped the CLI as a ValueError traceback.
        result = subprocess.run(
            [sys.executable, "-m", "repro", "experiment", "run", "fig8",
             "--param", 'scenarios=["bogus"]'],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert "unknown fig8 scenario 'bogus'" in result.stderr

    def test_bad_param_spec_exits(self):
        with pytest.raises(SystemExit, match="NAME=VALUE"):
            main(["experiment", "run", "lemma5", "--param", "oops"])


class TestPackagedEntryPoints:
    """The CI smoke contract: `python -m repro` works against the examples."""

    def test_python_dash_m_simulate_example(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "simulate",
             str(EXAMPLES / "inverter_chain.json")],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 0, result.stderr
        assert "simulated to" in result.stdout

    def test_python_dash_m_help(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 0
        for command in ("info", "simulate", "sweep", "export", "experiment"):
            assert command in result.stdout


class TestLazyScipy:
    """scipy loads only for fig9's fit, never at CLI start-up or to simulate.

    The blocked cases run with ``sys.modules["scipy"]`` and
    ``sys.modules["networkx"]`` set to ``None``, so any import of either
    raises: the simulation path must not need them.
    """

    BLOCK = "sys.modules['scipy'] = sys.modules['networkx'] = None"

    PROBE = (
        "import sys\n"
        "{body}\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )

    def _run_probe(self, body):
        """Run ``body`` in a fresh interpreter: (its output, scipy modules)."""
        result = subprocess.run(
            [sys.executable, "-c", self.PROBE.format(body=body)],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 0, result.stderr
        *output, modules = result.stdout.splitlines()
        return "\n".join(output), modules

    def test_importing_the_cli_leaves_scipy_unloaded(self):
        assert self._run_probe("import repro.cli")[1] == "[]"

    def test_cached_theorem9_run_leaves_scipy_unloaded(self, tmp_path, capsys):
        argv = ["experiment", "run", "theorem9", "--cache", str(tmp_path)]
        assert main(argv) == 0  # fills the cache
        assert "cache=miss" in capsys.readouterr().out
        output, modules = self._run_probe(
            f"from repro.cli import main\nassert main({argv!r}) == 0"
        )
        assert "cache=hit" in output
        assert modules == "[]"

    def test_computed_theorem9_run_needs_neither_scipy_nor_networkx(self, capsys):
        argv = ["experiment", "run", "theorem9", "--json"]
        assert main(argv) == 0
        unblocked = json.loads(capsys.readouterr().out)
        output, _ = self._run_probe(
            f"{self.BLOCK}\nfrom repro.cli import main\nassert main({argv!r}) == 0"
        )
        blocked = json.loads(output)
        assert blocked["from_cache"] is False
        assert blocked["result"]["rows"] == unblocked["result"]["rows"]

    def test_netlist_commands_need_neither_scipy_nor_networkx(self):
        chain = str(EXAMPLES / "inverter_chain.json")
        commands = [
            ["simulate", chain],
            ["info", str(EXAMPLES / "spf.json")],
            ["lint", chain, str(EXAMPLES / "spf.json")],
            ["sweep", chain, "--runs", "20", "--backend", "auto"],
        ]
        body = "\n".join(
            [self.BLOCK, "from repro.cli import main"]
            + [f"assert main({argv!r}) == 0" for argv in commands]
        )
        output, _ = self._run_probe(body)
        assert "simulated to" in output
        assert "(with feedback)" in output
