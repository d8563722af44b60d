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


EXP = {"kind": "exp", "tau": 1.0, "t_p": 0.5}


def _pair_channel(up):
    """An involution channel whose explicit pair has *up* as its up-delay."""
    return {
        "kind": "involution",
        "pair": {"kind": "pair", "up": up, "down": dict(EXP, rising=False)},
    }


def _eta_channel(**change):
    """An exp eta channel with the sub-specs in *change* updated."""
    channel = {
        "kind": "eta_involution",
        "pair": dict(EXP),
        "eta": {"eta_plus": 0.05, "eta_minus": 0.05},
    }
    for key, value in change.items():
        channel[key] = dict(channel.get(key, {}), **value)
    return channel


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

    @pytest.mark.parametrize(
        "adversary, pointer, message",
        [
            (
                {"kind": "random", "seed": 1, "distribution": "gaussian", "sigma_fraction": -1},
                "sigma_fraction",
                "sigma_fraction=-1.0 must be finite and non-negative",
            ),
            (
                {"kind": "random", "seed": 1, "distribution": "gaussian", "sigma_fraction": math.nan},
                "sigma_fraction",
                "sigma_fraction=nan must be finite and non-negative",
            ),
            ({"kind": "sine", "period": math.nan}, "period", "period=nan must be finite and positive"),
            ({"kind": "sine", "period": math.inf}, "period", "period=inf must be finite and positive"),
            ({"kind": "sine", "period": 2.0, "phase": math.nan}, "phase", "phase=nan must be finite"),
        ],
        ids=["negative-sigma", "NaN-sigma", "NaN-period", "Infinity-period", "NaN-phase"],
    )
    def test_bad_adversary_parameter_is_an_error(self, tmp_path, capsys, adversary, pointer, message):
        data = json.loads((EXAMPLES / "inverter_chain.json").read_text())
        for edge in data["circuit"]["edges"]:
            if edge["channel"]["kind"] == "eta_involution":
                edge["channel"]["adversary"] = dict(adversary)
        path = tmp_path / "netlist.json"
        path.write_text(json.dumps(data))
        assert main(["lint", str(path)]) == 1
        assert f"/edges/0/channel/adversary/{pointer} REP106 error" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", str(path)])
        assert str(exit_info.value) == f"error: {message} (at /edges/0)"

    #: name -> (channel with the parameter set to v, the parameter's pointer
    #: below the channel, one more out-of-domain value).
    DOMAIN_CASES = {
        "pure-delay": (lambda v: {"kind": "pure", "delay": v}, "delay", -0.5),
        "pure-falling_delay": (
            lambda v: {"kind": "pure", "delay": 1.0, "falling_delay": v}, "falling_delay", -0.5
        ),
        "inertial-delay": (
            lambda v: {"kind": "inertial", "delay": v, "window": 0.1}, "delay", -1.0
        ),
        "inertial-window": (
            lambda v: {"kind": "inertial", "delay": 1.0, "window": v}, "window", -1.0
        ),
        "inertial-window-above-delay": (
            lambda v: {"kind": "inertial", "delay": 0.5, "window": v}, "window", 1.0
        ),
        "ddm-delta_nominal": (
            lambda v: {"kind": "ddm", "delta_nominal": v, "tau_deg": 1.0}, "delta_nominal", 0.0
        ),
        "ddm-tau_deg": (
            lambda v: {"kind": "ddm", "delta_nominal": 1.0, "tau_deg": v}, "tau_deg", 0.0
        ),
        "ddm-T0": (
            lambda v: {"kind": "ddm", "delta_nominal": 1.0, "tau_deg": 1.0, "T0": v},
            "T0",
            -math.inf,
        ),
        "exp-tau": (lambda v: _eta_channel(pair={"tau": v}), "pair/tau", 0.0),
        "exp-t_p": (lambda v: _eta_channel(pair={"t_p": v}), "pair/t_p", -0.5),
        "exp-v_th": (lambda v: _eta_channel(pair={"v_th": v}), "pair/v_th", 1.0),
        "constant-delay": (
            lambda v: _pair_channel({"kind": "constant", "delay": v}), "pair/up/delay", -1.0
        ),
        "shifted-shift_T": (
            lambda v: _pair_channel({"kind": "shifted", "base": EXP, "shift_T": v}),
            "pair/up/shift_T",
            -math.inf,
        ),
        "scaled-scale": (
            lambda v: _pair_channel({"kind": "scaled", "base": EXP, "scale": v}),
            "pair/up/scale",
            0.0,
        ),
        "eta-eta_plus": (lambda v: _eta_channel(eta={"eta_plus": v}), "eta/eta_plus", -0.1),
        "eta-eta_minus": (lambda v: _eta_channel(eta={"eta_minus": v}), "eta/eta_minus", -0.1),
        "random-sigma_fraction": (
            lambda v: _eta_channel(
                adversary={"kind": "random", "seed": 1, "distribution": "gaussian",
                           "sigma_fraction": v}
            ),
            "adversary/sigma_fraction",
            -1.0,
        ),
        "random-distribution": (
            lambda v: _eta_channel(adversary={"kind": "random", "seed": 1, "distribution": v}),
            "adversary/distribution",
            "normal",
        ),
        "sine-period": (
            lambda v: _eta_channel(adversary={"kind": "sine", "period": v}),
            "adversary/period",
            0.0,
        ),
        "sine-phase": (
            lambda v: _eta_channel(adversary={"kind": "sine", "period": 2.0, "phase": v}),
            "adversary/phase",
            -math.inf,
        ),
        "sine-amplitude_fraction": (
            lambda v: _eta_channel(
                adversary={"kind": "sine", "period": 2.0, "amplitude_fraction": v}
            ),
            "adversary/amplitude_fraction",
            1.5,
        ),
    }

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, "bad"], ids=["NaN", "Infinity", "out-of-domain"]
    )
    @pytest.mark.parametrize("case", sorted(DOMAIN_CASES))
    def test_out_of_domain_parameter_is_one_finding_and_one_error_line(
        self, tmp_path, capsys, case, value
    ):
        channel, pointer, bad = self.DOMAIN_CASES[case]
        spec = channel(bad if value == "bad" else value)
        path = self._netlist(tmp_path, lambda first: (first.clear(), first.update(spec)))
        assert main(["lint", path]) == 1
        findings = capsys.readouterr().out.splitlines()[:-1]
        assert len(findings) == 1, findings
        assert f":/circuit/edges/0/channel/{pointer} REP106 error: " in findings[0]
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", path])
        message = str(exit_info.value)
        assert message.startswith("error: ") and message.endswith(" (at /edges/0)")
        assert "\n" not in message

    #: The first channel replaced by one with a flag or a number of the
    #: wrong JSON type (a builder converting it would build another
    #: channel), and the pointer of the spec that does not build.
    TYPE_CASES = {
        "inverting-string": (dict(_eta_channel(), inverting="no"), ""),
        "guard_domain-string": (
            {"kind": "involution", "pair": EXP, "guard_domain": "false"}, ""
        ),
        "pure-delay-true": ({"kind": "pure", "delay": True}, ""),
        "exp-v_th-true": (_eta_channel(pair={"v_th": True}), "/pair"),
        "eta_plus-string": (_eta_channel(eta={"eta_plus": "0.05"}), "/eta"),
        "sequence-clip-number": (
            _eta_channel(adversary={"kind": "sequence", "shifts": [0.0], "clip": 1}),
            "/adversary",
        ),
        "table-sample-true": (
            _pair_channel({"kind": "table", "T_samples": [True, 2.0], "delta_samples": [1.0, 1.0]}),
            "/pair/up",
        ),
    }

    @pytest.mark.parametrize("case", sorted(TYPE_CASES))
    def test_value_of_the_wrong_type_is_one_finding_and_one_error_line(
        self, tmp_path, capsys, case
    ):
        spec, pointer = self.TYPE_CASES[case]
        path = self._netlist(tmp_path, lambda first: (first.clear(), first.update(spec)))
        assert main(["lint", path]) == 1
        findings = capsys.readouterr().out.splitlines()[:-1]
        assert len(findings) == 1, findings
        assert f":/circuit/edges/0/channel{pointer} REP105 error: " in findings[0]
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", path])
        message = str(exit_info.value)
        assert message.startswith("error: ") and message.endswith(" (at /edges/0)")
        assert "\n" not in message

    def test_in_domain_cases_are_lint_clean(self, tmp_path, capsys):
        """The channels above, with an in-domain value, lint clean: the one
        finding each case gets is the out-of-domain parameter's."""
        in_domain = {
            "pure-delay": 0.5, "pure-falling_delay": 0.5, "inertial-delay": 1.0,
            "inertial-window": 0.1, "inertial-window-above-delay": 0.5,
            "ddm-delta_nominal": 1.0, "ddm-tau_deg": 1.0,
            "ddm-T0": 0.0, "exp-tau": 1.0, "exp-t_p": 0.5, "exp-v_th": 0.5,
            "constant-delay": 0.5, "shifted-shift_T": 0.0, "scaled-scale": 1.0,
            "eta-eta_plus": 0.05, "eta-eta_minus": 0.05, "random-sigma_fraction": 0.5,
            "random-distribution": "uniform", "sine-period": 2.0, "sine-phase": 0.0,
            "sine-amplitude_fraction": 0.5,
        }
        assert set(in_domain) == set(self.DOMAIN_CASES)
        for case, value in sorted(in_domain.items()):
            spec = self.DOMAIN_CASES[case][0](value)
            path = self._netlist(tmp_path, lambda first: (first.clear(), first.update(spec)))
            assert main(["lint", path]) == 0, (case, capsys.readouterr().out)
            capsys.readouterr()


#: A custom gate type equal to INV, for the cases that break one of its fields.
CUSTOM_INV = {"name": "INVX", "arity": 1, "table": [[0, 1], [1, 0]]}
#: A channel that builds but has no single-history delay function.
SERIAL = {"kind": "serial", "stages": [{"kind": "pure", "delay": 1.0}]}


def _set(part, index, key, value):
    """A mutation of the circuit: ``circuit[part][index][key] = value``."""

    def mutate(circuit):
        circuit[part][index][key] = value

    return mutate


def _gate_type(**change):
    """A mutation giving the first gate CUSTOM_INV with *change* applied."""
    return _set("nodes", 1, "type", dict(CUSTOM_INV, **change))


def _drop_output_port(circuit):
    del circuit["nodes"][-1], circuit["edges"][-1]


def _list_name(circuit):
    circuit["name"] = [1]


class TestStructuralDefects:
    """lint and simulate agree on which circuits are well-formed: each case
    changes one field of the example inverter chain, and a value ``int()``
    would convert (1.7 to 1, a string pin to 0) is a defect, not a value."""

    #: name -> (mutation of the circuit, the rule that reports it).
    CASES = {
        "output-pin-1": (_set("edges", 7, "pin", 1), "REP006"),
        "output-pin-minus-1": (_set("edges", 7, "pin", -1), "REP006"),
        "no-output-port": (_drop_output_port, "REP004"),
        "gate-initial-1.7": (_set("nodes", 1, "initial_value", 1.7), "REP008"),
        "gate-initial-true": (_set("nodes", 1, "initial_value", True), "REP008"),
        "gate-initial-string": (_set("nodes", 1, "initial_value", "1"), "REP008"),
        "input-initial-1.5": (_set("nodes", 0, "initial_value", 1.5), "REP008"),
        "pin-0.5": (_set("edges", 1, "pin", 0.5), "REP006"),
        "pin-string": (_set("edges", 1, "pin", "0"), "REP006"),
        "edge-name-5": (_set("edges", 1, "name", 5), "REP005"),
        "table-string": (_gate_type(table="01"), "REP102"),
        "table-row-length": (_gate_type(table=[[0, 0, 1], [1, 0]]), "REP102"),
        "table-output-2": (_gate_type(table=[[0, 2], [1, 0]]), "REP102"),
        "arity-string": (_gate_type(arity="1"), "REP102"),
        "arity-1.9": (_gate_type(arity=1.9), "REP102"),
        "arity-0": (_gate_type(arity=0), "REP102"),
        "circuit-name-list": (_list_name, "REP009"),
        "serial-channel": (_set("edges", 1, "channel", SERIAL), "REP105"),
    }

    @staticmethod
    def _netlist(tmp_path, mutate):
        data = json.loads((EXAMPLES / "inverter_chain.json").read_text())
        mutate(data["circuit"])
        path = tmp_path / "netlist.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_defect_is_one_lint_error_and_one_error_line(self, tmp_path, capsys, case):
        mutate, code = self.CASES[case]
        path = self._netlist(tmp_path, mutate)
        assert main(["lint", path]) == 1
        errors = [line for line in capsys.readouterr().out.splitlines() if " error: " in line]
        assert len(errors) == 1 and f" {code} error: " in errors[0], errors
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", path])
        message = str(exit_info.value)
        assert message.startswith("error: ") and "\n" not in message

    @pytest.mark.parametrize("argv", [["info"], ["sweep", "--runs", "2"]], ids=["info", "sweep"])
    def test_a_serial_channel_edge_is_one_error_line(self, tmp_path, argv):
        """``Circuit.connect`` rejects the channel, so the sweep is never
        started (it retried the run's failure, then quarantined it)."""
        path = self._netlist(tmp_path, _set("edges", 1, "channel", SERIAL))
        with pytest.raises(SystemExit) as exit_info:
            main([argv[0], path, *argv[1:]])
        message = str(exit_info.value)
        assert message.startswith("error: ") and "\n" not in message
        assert "no single-history delay function" in message

    def test_a_misspelt_stimulus_key_is_one_lint_error_and_one_error_line(
        self, tmp_path, capsys
    ):
        """A stimulus key the signal decoder does not read is REP009, not a
        constant input that simulates after one event."""
        data = json.loads((EXAMPLES / "inverter_chain.json").read_text())
        stimulus = data["inputs"]["in"]
        stimulus["transitionsx"] = stimulus.pop("transitions")
        path = tmp_path / "netlist.json"
        path.write_text(json.dumps(data))
        assert main(["lint", str(path)]) == 1
        errors = [line for line in capsys.readouterr().out.splitlines() if " error: " in line]
        assert len(errors) == 1 and " REP009 error: " in errors[0], errors
        assert "'transitionsx'" in errors[0]
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", str(path)])
        message = str(exit_info.value)
        assert message.startswith("error: ") and "\n" not in message
        assert "'transitionsx'" in message

    def test_a_well_formed_custom_gate_simulates_like_the_library_one(self, tmp_path, capsys):
        assert main(["simulate", str(EXAMPLES / "inverter_chain.json")]) == 0
        library = capsys.readouterr().out
        path = self._netlist(tmp_path, _gate_type())
        assert main(["lint", path]) == 0
        capsys.readouterr()
        assert main(["simulate", path]) == 0
        assert capsys.readouterr().out == library


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

    @pytest.fixture
    def nand_loop(self, tmp_path):
        """A NAND2 fed back to itself through a ``zero`` channel: every run
        raises the same zero-delay-loop error."""
        netlist = {
            "format": "repro-netlist",
            "version": 1,
            "end_time": 10.0,
            "inputs": {"a": {"initial_value": 0, "transitions": [[1.0, 1]]}},
            "circuit": {
                "name": "nand_loop",
                "nodes": [
                    {"kind": "input", "name": "a", "initial_value": 0},
                    {"kind": "gate", "name": "g", "type": "NAND2", "initial_value": 1},
                    {"kind": "output", "name": "o"},
                ],
                "edges": [
                    {"source": "a", "target": "g", "pin": 0,
                     "channel": {"kind": "pure", "delay": 1.0}},
                    {"source": "g", "target": "g", "pin": 1, "channel": {"kind": "zero"}},
                    {"source": "g", "target": "o", "channel": {"kind": "pure", "delay": 1.0}},
                ],
            },
        }
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(netlist))
        return str(path)

    @pytest.mark.parametrize("workers", [[], ["--workers", "2"]], ids=["inline", "pool"])
    def test_a_raising_chunk_is_quarantined_after_one_attempt(self, nand_loop, capsys, workers):
        """The loop raises on every run, so ``--retries`` (3 by default)
        does not apply to it."""
        assert main(["sweep", nand_loop, "--runs", "2", *workers]) == 1
        err = capsys.readouterr().err
        assert "zero-delay) loop detected" in err
        assert "failed after 1 attempt(s)" in err
        assert "failed after 2" not in err and "failed after 3" not in err

    @pytest.mark.parametrize("workers", [[], ["--workers", "2"]], ids=["inline", "pool"])
    def test_each_quarantined_chunk_is_reported_once(self, nand_loop, tmp_path, capsys, workers):
        """A chunk that raised fails the same way on a rerun, so a
        checkpointed sweep offers no rerun for it."""
        argv = ["sweep", nand_loop, "--runs", "2", "--checkpoint", str(tmp_path / "ck")]
        assert main(argv + workers) == 1
        err = capsys.readouterr().err
        assert "error: 1 chunk(s) quarantined:\n  chunk 0 [" in err
        assert err.count("chunk 0 [") == 1
        assert "rerun" not in err

    def test_a_crashed_chunk_is_offered_a_rerun(self, chain_netlist, tmp_path, capsys, monkeypatch):
        from repro import api
        from repro.engine.shard import ChunkFailure, SweepFailedError, SweepFailureReport

        crash = ChunkFailure(0, ("mc[0]",), 3, "crash", "worker died", "WorkerCrashError")

        def crashing_sweep(*args, **kwargs):
            raise SweepFailedError(SweepFailureReport((crash,)), None)

        monkeypatch.setattr(api, "sweep", crashing_sweep)
        ck = str(tmp_path / "ck")
        assert main(["sweep", str(chain_netlist), "--runs", "2", "--checkpoint", ck]) == 1
        err = capsys.readouterr().err
        assert "chunk 0 [mc[0]] failed after 3 attempt(s): crash: worker died" in err
        assert f"checkpointed in {ck}; rerun to retry only the failed ones" in err


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
            ["simulate", "n.json", "--end-time", "nan"],
            ["sweep", "n.json", "--end-time", "-1"],
        ],
        ids=["runs", "retries", "chunk-size", "sweep-workers", "chunk-timeout",
             "experiment-workers", "stages", "simulate-end-time-nan", "sweep-end-time-minus-1"],
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

    @pytest.mark.parametrize(
        "params",
        [
            {"pair": {"kind": "exp", "t_p": 0.5}},
            {"eta": {"eta_minus": 0.1}},
            {"adversaries": {"s": {"kind": "sequence"}}},
            {"adversaries": {"s": {"kind": "sine", "period": "x"}}},
            {"pair": {"kind": "pair", "up": {"kind": "exp"}}},
            {"eta": ["0.05", "0.1"]},
        ],
        ids=["exp-pair-no-tau", "eta-no-eta_plus", "sequence-no-shifts", "sine-period-string",
             "explicit-pair-up-no-tau", "eta-list-of-strings"],
    )
    def test_malformed_spec_param_is_one_error_line(self, params):
        """A spec-valued parameter is decoded when the run starts, and a
        missing field or a value of the wrong type ends it in one line
        naming the field, never in a traceback."""
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "run", "theorem9", "--params-json", json.dumps(params)])
        message = str(exit_info.value)
        assert message.startswith("error: ") and " spec: " in message and "\n" not in message

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["theorem9", "--param", 'end_time="x"'], 'end_time="x" must be a number (at /end_time)'),
            (["comparison", "--param", "stages=1.5"], "stages=1.5 must be an integer (at /stages)"),
            (["lemma5", "--param", "eta_plus_values=5"], "eta_plus_values=5 must be a list"),
            (["theorem9", "--param", "record_traces=5"], "record_traces=5 must be true or false"),
            (["comparison", "--param", "stages=0"], "got stages=0"),
            (["fig9", "--param", "stages=0"], "got stages=0"),
            (["fig9", "--param", "stage_index=-1"], "stage_index=-1 is out of range"),
            (["comparison", "--param", "pulse_width=0"], "pulse_width=0.0 must be positive"),
            (["theorem9", "--param", "end_time=-1"], "end_time=-1.0 must be at least 0"),
            (["theorem9", "--param", "end_time=NaN"], "end_time=nan must be at least 0"),
            (["comparison", "--param", "end_time=-1"], "end_time=-1.0 must be at least 0"),
            (["eta_coverage", "--param", "end_time=-1"], "end_time=-1 must be at least 0"),
            (["comparison", "--param", "stages=2", "--param", "pulse_count=0"],
             "pulse_count=0 must be at least 1"),
            (["eta_coverage", "--param", "stages=2", "--param", "n_runs=-1"],
             "n_runs=-1 must be at least 1"),
            (["eta_coverage", "--param", "stages=2", "--param", "n_runs=3", "--param", "seed=-1"],
             "seed=-1 must be at least 0"),
            (["fig8", "--param", "seed=-1"], "seed=-1 must be at least 0"),
            (["scaling", "--param", "stage_counts=[]", "--param", "input_transitions=10"],
             "stage_counts=[] must not be empty"),
            (["scaling", "--param", "stage_counts=[2]", "--param", "input_transitions=0"],
             "input_transitions=0 must be at least 1"),
            (["scaling", "--param", "seed=-1"], "seed=-1 must be at least 0"),
            (["theorem9", "--params-json", '{"pulse_lengths": [-0.3]}'],
             "pulse_lengths=[-0.3] must be a non-empty list of positive lengths"),
            (["theorem9", "--params-json", '{"pulse_lengths": []}'],
             "pulse_lengths=[] must be a non-empty list of positive lengths"),
            (["lemma5", "--param", "eta_plus_values=[]"], "eta_plus_values=[] must not be empty"),
            (["fig7", "--param", "n_widths=-1"], "n_widths=-1 must be at least 1"),
            (["fig7", "--param", "n_widths=0"], "n_widths=0 must be at least 1"),
            (["fig7", "--param", "vdd_levels=[]"], "vdd_levels=[] must not be empty"),
            (["fig8", "--param", "n_widths=1"], "n_widths=1 must be at least 3"),
            (["fig8", "--param", "n_widths=2"], "n_widths=2 must be at least 3"),
            (["fig8", "--param", "scenarios=[]"], "scenarios=[] must not be empty"),
            (["fig9", "--param", "n_widths=1"], "n_widths=1 must be at least 3"),
            (["fig9", "--param", "n_widths=2"], "n_widths=2 must be at least 3"),
            (["theorem9", "--params-json", '{"adversaries": {}}'],
             "adversaries={} must not be empty"),
            (["eta_coverage", "--params-json", '{"stages": 2, "n_runs": 3, "end_time": true}'],
             "end_time=True must be a number"),
            (["eta_coverage", "--params-json", '{"stages": 2, "n_runs": 3, "label": []}'],
             "label=[] must be a string"),
            (["fig8", "--params-json", '{"eta_plus": true}'], "eta_plus=True must be a number"),
            (["fig9", "--params-json", '{"eta_plus": "x"}'], "eta_plus='x' must be a number"),
            (["theorem9", "--params-json", '{"adversaries": "x"}'],
             "adversaries='x' must be an object"),
            (["theorem9", "--params-json", '{"pulse_lengths": 5}'],
             "pulse_lengths=5 must be a non-empty list of positive lengths"),
            (["theorem9", "--params-json", '{"pulse_lengths": ["x"]}'],
             "pulse_lengths=['x'] must be numbers"),
            (["theorem9", "--params-json", '{"pulse_lengths": [true]}'],
             "pulse_lengths=[True] must be numbers"),
            (["comparison", "--params-json", '{"factories": 5}'],
             "factories=5 must be an object"),
            (["comparison", "--params-json", '{"factories": {}}'],
             "factories={} must not be empty"),
            (["eta_coverage", "--params-json", '{"stages": 2, "n_runs": 3, "stimulus": 5}'],
             "signal=5 must be an object (at /stimulus)"),
            (["eta_coverage", "--params-json",
              '{"stages": 2, "n_runs": 3, "stimulus": {"a": 1}}'],
             "signal has unknown key 'a'"),
            (["fig8", "--params-json", '{"eta_plus": []}'], "eta_plus=[] must be a number or null"),
            (["eta_coverage", "--params-json", '{"stages": 2, "n_runs": 3, "end_time": [40]}'],
             "end_time=[40.0] must be a number or null"),
        ],
        ids=["theorem9-end_time-string", "comparison-stages-float", "lemma5-eta_plus_values-int",
             "theorem9-record_traces-int", "inverter-chain-stages-0", "analog-chain-stages-0",
             "characterization-stage_index", "comparison-pulse_width-0",
             "theorem9-end_time-negative", "theorem9-end_time-NaN", "comparison-end_time-negative",
             "eta_coverage-end_time-negative", "comparison-pulse_count-0",
             "eta_coverage-n_runs-negative", "eta_coverage-seed-negative", "fig8-seed-negative",
             "scaling-stage_counts-empty", "scaling-input_transitions-0",
             "scaling-seed-negative", "theorem9-pulse_lengths-negative",
             "theorem9-pulse_lengths-empty", "lemma5-eta_plus_values-empty",
             "fig7-n_widths-negative", "fig7-n_widths-0", "fig7-vdd_levels-empty",
             "fig8-n_widths-1", "fig8-n_widths-2", "fig8-scenarios-empty",
             "fig9-n_widths-1", "fig9-n_widths-2", "theorem9-adversaries-empty",
             "eta_coverage-end_time-bool", "eta_coverage-label-list",
             "fig8-eta_plus-bool", "fig9-eta_plus-string", "theorem9-adversaries-string",
             "theorem9-pulse_lengths-number", "theorem9-pulse_lengths-string-item",
             "theorem9-pulse_lengths-bool-item", "comparison-factories-number",
             "comparison-factories-empty", "eta_coverage-stimulus-number",
             "eta_coverage-stimulus-unknown-key", "fig8-eta_plus-list",
             "eta_coverage-end_time-list"],
    )
    def test_malformed_param_is_one_error_line(self, argv, fragment):
        """A parameter of the wrong JSON type for its kind's default, or
        out of its domain where the run first uses it, ends the run in
        one line naming it."""
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "run", *argv])
        message = str(exit_info.value)
        assert message.startswith("error: ") and fragment in message and "\n" not in message

    @pytest.mark.parametrize(
        "params, message",
        [
            (
                {"adversaries": {"s": {"kind": "sine", "period": -1}}},
                "period=-1.0 must be finite and positive",
            ),
            (
                {
                    "adversaries": {
                        "r": {"kind": "random", "seed": 1, "distribution": "gaussian",
                              "sigma_fraction": -2},
                    }
                },
                "sigma_fraction=-2.0 must be finite and non-negative",
            ),
            (
                {"pair": {"kind": "exp", "tau": -1, "t_p": 0.5}},
                "tau must be positive and finite, got -1.0",
            ),
        ],
        ids=["sine-period", "random-sigma_fraction", "exp-tau"],
    )
    def test_out_of_domain_param_is_one_error_line(self, params, message):
        """Experiment parameters are built outside a circuit spec; their
        constructor's DomainError still ends the run in one line."""
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "run", "theorem9", "--params-json", json.dumps(params)])
        assert str(exit_info.value) == f"error: {message}"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["experiment", "run", "theorem9",
                 "--params-json", '{"eta": {"eta_plus": 0.5, "eta_minus": 0.5}}'],
                "noise bound violates constraint (C): margin -1",
            ),
            (
                ["experiment", "run", "theorem9", "--param", "eta_plus=5"],
                "eta_plus=5.0 admits no eta_minus >= 0 under constraint (C)",
            ),
            (
                ["experiment", "run", "theorem9", "--param", "eta_plus=-1"],
                "eta_plus must be non-negative",
            ),
            (
                ["experiment", "run", "lemma5", "--params-json", '{"eta_plus_values": [5]}'],
                "eta_plus=5.0 admits no eta_minus >= 0 under constraint (C)",
            ),
            (
                ["export", "inverter_chain", "--eta-plus", "5", "-o", "x.json"],
                "eta_plus=5.0 admits no eta_minus >= 0 under constraint (C)",
            ),
            (
                ["export", "inverter_chain", "--eta-plus", "-1", "-o", "x.json"],
                "eta_plus must be non-negative",
            ),
        ],
        ids=["theorem9-eta", "theorem9-eta_plus-5", "theorem9-eta_plus-minus-1",
             "lemma5-eta_plus-5", "export-eta-plus-5", "export-eta-plus-minus-1"],
    )
    def test_noise_bound_outside_constraint_c_is_one_error_line(
        self, argv, message, monkeypatch, tmp_path
    ):
        """Constraint (C) is checked on the noise bound an experiment or an
        export builds from its parameters; a bound outside it is a
        ``DomainError`` and ends the command in one line."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        text = str(exit_info.value)
        assert text.startswith(f"error: {message}") and "\n" not in text
        assert not (tmp_path / "x.json").exists()

    def test_checkpointed_theorem9_resumes_every_chunk(self, tmp_path, capsys):
        """``--checkpoint`` reaches theorem9's sweep: a rerun resumes each of
        its chunks (five at the defaults: 72 runs, 16 to a chunk), and its
        rows equal a run without the store."""
        argv = ["experiment", "run", "theorem9", "--json"]
        assert main(argv) == 0
        plain = json.loads(capsys.readouterr().out)["result"]
        store = ["--checkpoint", str(tmp_path / "ckpt")]
        provenance = []
        for _ in range(2):
            assert main(argv + store) == 0
            result = json.loads(capsys.readouterr().out)["result"]
            assert result["rows"] == plain["rows"]
            provenance.append(result["provenance"])
        assert [(p["chunks_computed"], p["chunks_resumed"]) for p in provenance] == [
            (5, 0), (0, 5)
        ]


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
