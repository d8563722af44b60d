"""Command-line interface: run circuits and experiments from the shell.

Installed as the ``repro`` console script and reachable as
``python -m repro``.  Six subcommands:

``info NETLIST``
    Validate the netlist and print a structural summary.
``lint PATH [PATH ...]``
    Statically lint netlists, circuit specs, or experiment specs
    (:mod:`repro.lint`) without running anything: structural defects,
    unknown/out-of-domain parameters, zero-delay cycles, determinism
    hazards, and predicted vector-backend fallbacks.  ``-`` reads one
    JSON document from stdin; ``--json`` emits machine-readable reports.
    Exit code 0 = no error-severity findings, 1 = error findings,
    2 = unreadable input.
``simulate NETLIST``
    One event-driven execution; stimulus comes from the netlist's
    ``inputs``/``end_time`` defaults, overridable with ``--pulse`` /
    ``--end-time``.  Prints per-output transition lists (``--json`` for
    machine-readable output, ``--vcd FILE`` for a waveform dump).
``sweep NETLIST --runs N``
    An eta Monte Carlo sweep (:func:`repro.engine.sweep.eta_monte_carlo`)
    over the netlist's circuit, in chunks run on the chosen ``--backend``
    engine, inline or on ``--workers N`` processes
    (:mod:`repro.engine.shard`).  ``--checkpoint DIR`` persists finished
    chunks as content-keyed artifacts, so a killed sweep resumes
    bit-identically (``--resume`` asserts that it did);
    ``--chunk-timeout`` bounds a chunk's wall-clock time on the pool and
    ``--retries`` the attempts of a chunk whose worker crashed or timed
    out; a chunk that raised is quarantined after one attempt.
``export LIBRARY -o FILE``
    Write a library circuit (``inverter_chain``, ``buffer_chain``,
    ``spf``) as a netlist file, with eta-involution exp-channels and a
    default stimulus -- the quickest way to get a runnable netlist.
``experiment {list,run,report,export}``
    The declarative experiment surface (:mod:`repro.experiments`):
    ``list`` the registered kinds, ``run`` one from parameters (text
    table or ``--json``; ``--cache DIR`` enables the content-addressed
    artifact store, so identical reruns are cache hits), ``report`` a
    stored result JSON, and ``export`` one as JSON/CSV/VCD
    (:mod:`repro.io.export`).

Examples::

    python -m repro lint examples/netlists/*.json
    python -m repro simulate examples/netlists/inverter_chain.json
    python -m repro sweep examples/netlists/inverter_chain.json --runs 50 \
        --workers 4
    python -m repro sweep examples/netlists/inverter_chain.json --runs 500 \
        --backend auto --checkpoint sweep-ckpt/ --retries 3
    python -m repro export inverter_chain --stages 7 -o chain.json
    python -m repro experiment run theorem9 --param eta_plus=0.1 \
        --cache artifacts/
    python -m repro experiment export artifacts/ab/abc... .json \
        --format csv -o theorem9.csv
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional, Sequence

__all__ = ["main", "build_parser"]


# --------------------------------------------------------------------------- #
# Argument plumbing
# --------------------------------------------------------------------------- #


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """argparse ``type=``: an int >= *minimum*; argparse exits 2 naming
    the flag otherwise."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _float(text: str) -> float:
    """*text* as a float; argparse exits 2 naming the flag otherwise."""
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _positive_float(text: str) -> float:
    """argparse ``type=``: a float > 0 (NaN is not)."""
    value = _float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _end_time(text: str) -> float:
    """argparse ``type=``: a horizon >= 0, the rule of a netlist's
    ``end_time`` (NaN is not one; ``inf`` runs to quiescence)."""
    value = _float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    from .engine.errors import CAUSALITY_MODES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Faithful binary circuit model with adversarial noise: "
        "run JSON netlists through the event-driven engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="validate a netlist and print its summary")
    info.add_argument("netlist", help="netlist JSON file")

    lint = sub.add_parser(
        "lint", help="statically lint netlists, circuit specs, or experiment specs"
    )
    lint.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="JSON document (netlist, circuit spec, or experiment spec); "
        "'-' reads one document from stdin",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="machine-readable report (one object per input)",
    )

    simulate = sub.add_parser("simulate", help="run one event-driven execution")
    simulate.add_argument("netlist", help="netlist JSON file")
    simulate.add_argument(
        "--end-time", type=_end_time, default=None,
        help="simulation horizon (default: the netlist's end_time)",
    )
    simulate.add_argument(
        "--pulse", action="append", default=[], metavar="PORT=START:LENGTH",
        help="override an input port with a single pulse (repeatable)",
    )
    simulate.add_argument(
        "--on-causality", choices=CAUSALITY_MODES, default="error",
        help="policy for causality violations (default: error)",
    )
    simulate.add_argument(
        "--max-events", type=int, default=1_000_000,
        help="safety bound on processed events (default: 1000000)",
    )
    simulate.add_argument("--vcd", metavar="FILE", help="write the execution as VCD")
    simulate.add_argument("--json", action="store_true", help="machine-readable output")

    sweep = sub.add_parser(
        "sweep", help="run an eta Monte Carlo sweep over the netlist's circuit"
    )
    sweep.add_argument("netlist", help="netlist JSON file")
    sweep.add_argument(
        "--runs", type=_int_at_least(0), default=20, help="Monte Carlo runs (default: 20)"
    )
    sweep.add_argument("--seed", type=int, default=0, help="base seed (default: 0)")
    sweep.add_argument(
        "--backend",
        choices=("sequential", "vector", "auto"),
        default="sequential", help="engine of each chunk (default: "
        "sequential); 'vector' batch-evaluates a chunk's runs through numpy "
        "and runs a chunk it cannot vectorize on sequential (with a "
        "warning); 'auto' picks vector or scalar per chunk from a "
        "deterministic cost model (chunks under 7 runs, and feedback loops "
        "whose fixpoint costs more than the scalar events, run scalar); "
        "the 'chunks:' lines report each chunk's engine, reason and cost "
        "estimates",
    )
    sweep.add_argument(
        "--workers", type=_int_at_least(1), default=None,
        help="run chunks on N worker processes (default: inline)",
    )
    sweep.add_argument("--end-time", type=_end_time, default=None, help="simulation horizon")
    sweep.add_argument(
        "--max-events", type=int, default=1_000_000,
        help="safety bound on processed events per run (default: 1000000)",
    )
    sweep.add_argument(
        "--checkpoint", metavar="DIR",
        help="chunk-checkpoint store directory: finished chunks are written "
        "as content-keyed artifacts and reloaded on rerun, so a killed "
        "sweep resumes bit-identically",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="with --checkpoint: require that at least one chunk is resumed "
        "from the store (exit non-zero otherwise) -- catches restart "
        "scripts whose parameters no longer match the stored chunks",
    )
    sweep.add_argument(
        "--retries", type=_int_at_least(1), default=3, metavar="N",
        help="total attempts per chunk whose worker crashed or timed out "
        "(default: 3; needs --workers 2 or more)",
    )
    sweep.add_argument(
        "--chunk-timeout", type=_positive_float, default=None, metavar="S",
        help="per-chunk wall-clock budget in seconds (enforced by killing "
        "and respawning workers; needs --workers 2 or more)",
    )
    sweep.add_argument(
        "--chunk-size", type=_int_at_least(1), default=None, metavar="N",
        help="scenarios per chunk (default: 16 with --checkpoint, else the "
        "runs split evenly across the workers; part of the checkpoint "
        "identity -- resume with the size you ran with)",
    )
    sweep.add_argument(
        "--keep-failures", action="store_true",
        help="degrade gracefully: return surviving runs with a failure "
        "report instead of exiting non-zero when chunks are quarantined",
    )
    sweep.add_argument("--json", action="store_true", help="machine-readable output")

    export = sub.add_parser("export", help="write a library circuit as a netlist file")
    export.add_argument(
        "library", choices=("inverter_chain", "buffer_chain", "spf"),
        help="which prebuilt circuit to export",
    )
    export.add_argument("-o", "--output", required=True, help="output netlist path")
    export.add_argument(
        "--stages", type=_int_at_least(1), default=7, help="chain stages (default: 7)"
    )
    export.add_argument("--tau", type=float, default=1.0, help="exp-channel RC constant")
    export.add_argument("--t-p", type=float, default=0.5, help="exp-channel pure delay")
    export.add_argument("--v-th", type=float, default=0.5, help="normalised threshold")
    export.add_argument(
        "--eta-plus", type=float, default=0.05,
        help="eta_plus of the admissible band (eta_minus is maximal under (C))",
    )
    export.add_argument(
        "--taps", action="store_true",
        help="expose per-stage output taps (inverter_chain only)",
    )

    experiment = sub.add_parser(
        "experiment", help="list/run/report/export declarative experiments"
    )
    esub = experiment.add_subparsers(dest="experiment_command", required=True)

    elist = esub.add_parser("list", help="list the registered experiment kinds")
    elist.add_argument("--json", action="store_true", help="machine-readable output")

    erun = esub.add_parser("run", help="run one experiment kind")
    erun.add_argument("kind", help="registered experiment kind (see 'experiment list')")
    erun.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE",
        help="override one parameter (VALUE parsed as JSON, else string; repeatable)",
    )
    erun.add_argument(
        "--params-json", metavar="JSON",
        help="parameter overrides as one JSON object (merged under --param)",
    )
    erun.add_argument(
        "--backend",
        choices=("sequential", "vector", "auto"),
        default="sequential",
        help="sweep engine for engine-driven experiments (default: "
        "sequential); 'vector' opts into the numpy batch engine where the "
        "circuit allows it; 'auto' picks vector or scalar per chunk from a "
        "deterministic cost model (theorem9's storage loop runs scalar: "
        "its fixpoint costs more than its events)",
    )
    erun.add_argument(
        "--workers", type=_int_at_least(1), default=None,
        help="worker processes for engine-driven experiments' sweeps "
        "(default: inline); the analog kinds fig7/fig8/fig9 always run "
        "inline",
    )
    erun.add_argument(
        "--cache", metavar="DIR",
        help="artifact store directory: return stored results for identical "
        "specs, store fresh ones",
    )
    erun.add_argument(
        "--checkpoint", metavar="DIR",
        help="chunk-checkpoint store for the experiment's internal sweeps "
        "(theorem9, comparison and eta_coverage): a killed run resumes "
        "mid-sweep",
    )
    erun.add_argument(
        "--force", action="store_true",
        help="recompute even on a cache hit (the store is updated)",
    )
    erun.add_argument("-o", "--output", metavar="FILE", help="write the result JSON")
    erun.add_argument("--json", action="store_true", help="machine-readable output")

    ereport = esub.add_parser("report", help="print a stored result as a text table")
    ereport.add_argument("result", help="experiment result JSON file")
    ereport.add_argument(
        "--columns", metavar="A,B,...", help="comma-separated column subset"
    )
    ereport.add_argument(
        "--precision", type=int, default=4, help="significant digits (default: 4)"
    )

    eexport = esub.add_parser("export", help="convert a stored result to json/csv/vcd")
    eexport.add_argument("result", help="experiment result JSON file")
    eexport.add_argument(
        "--format", choices=("json", "csv", "vcd"), default="csv",
        help="output format (default: csv); vcd needs recorded traces",
    )
    eexport.add_argument("-o", "--output", required=True, help="output file path")
    return parser


def _parse_pulse_overrides(specs: Sequence[str]) -> Dict[str, object]:
    from .core.transitions import Signal

    overrides: Dict[str, object] = {}
    for item in specs:
        try:
            port, rest = item.split("=", 1)
            start_text, length_text = rest.split(":", 1)
            overrides[port] = Signal.pulse(float(start_text), float(length_text))
        except ValueError:
            raise SystemExit(
                f"--pulse {item!r}: expected PORT=START:LENGTH (e.g. in=1.0:3.0)"
            ) from None
    return overrides


def _resolve_stimulus(netlist, circuit, pulses, end_time) -> tuple:
    """Merge netlist defaults with CLI overrides into (inputs, end_time)."""
    from .core.transitions import Signal

    inputs = dict(netlist.inputs)
    inputs.update(_parse_pulse_overrides(pulses))
    for port in circuit.input_ports():
        inputs.setdefault(port.name, Signal.constant(port.initial_value))
    if end_time is None:
        end_time = netlist.end_time
    if end_time is None:
        raise SystemExit(
            "no simulation horizon: the netlist has no 'end_time' default; "
            "pass --end-time"
        )
    return inputs, float(end_time)


def _signal_summary(signal) -> str:
    if signal.is_constant():
        return f"constant {signal.initial_value}"
    times = ", ".join(f"{t.time:.6g}->{t.value}" for t in signal)
    return f"{len(signal)} transitions: {times}"


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #


def _cmd_info(args) -> int:
    from .io.netlist import load_netlist

    netlist = load_netlist(args.netlist)
    circuit = netlist.build()
    print(circuit.summary())
    for port in circuit.input_ports():
        default = netlist.inputs.get(port.name)
        described = _signal_summary(default) if default is not None else "(no default)"
        print(f"  input  {port.name:<12s} initial={port.initial_value}  {described}")
    for port in circuit.output_ports():
        print(f"  output {port.name}")
    kinds: Dict[str, int] = {}
    for edge in circuit.edges.values():
        kinds[type(edge.channel).__name__] = kinds.get(type(edge.channel).__name__, 0) + 1
    print("  channels: " + ", ".join(f"{n} x {k}" for k, n in sorted(kinds.items())))
    if netlist.end_time is not None:
        print(f"  default end_time: {netlist.end_time:g}")
    return 0


def _cmd_lint(args) -> int:
    from .lint import lint as run_lint
    from .lint import lint_path
    from .specs import SpecError

    reports = []
    for path in args.paths:
        try:
            if path == "-":
                text = sys.stdin.read()
                try:
                    data = json.loads(text)
                except json.JSONDecodeError as exc:
                    raise SpecError(f"<stdin>: not valid JSON ({exc})") from exc
                if not isinstance(data, dict):
                    raise SpecError("<stdin>: top-level JSON value is not an object")
                reports.append(run_lint(data, source="<stdin>"))
            else:
                reports.append(lint_path(path))
        except SpecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.json:
        payload = [report.to_dict() for report in reports]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for report in reports:
            print(report.render())
    return 0 if all(report.ok for report in reports) else 1


def _cmd_simulate(args) -> int:
    from . import api
    from .io.netlist import load_netlist, signal_to_dict

    netlist = load_netlist(args.netlist)
    circuit = netlist.build()
    inputs, end_time = _resolve_stimulus(netlist, circuit, args.pulse, args.end_time)
    execution = api.simulate(
        circuit,
        inputs,
        end_time,
        on_causality=args.on_causality,
        max_events=args.max_events,
    )
    if args.vcd:
        from .io.vcd import execution_to_vcd

        with open(args.vcd, "w", encoding="utf-8") as handle:
            handle.write(execution_to_vcd(execution))
    if args.json:
        payload = {
            "netlist": args.netlist,
            "end_time": end_time,
            "event_count": execution.event_count,
            "dropped_transitions": execution.dropped_transitions,
            "outputs": {
                name: signal_to_dict(signal)
                for name, signal in execution.output_signals.items()
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{circuit.summary()}")
        print(f"simulated to t={end_time:g} ({execution.event_count} events)")
        for name, signal in execution.output_signals.items():
            print(f"  {name:<12s} {_signal_summary(signal)}")
        if args.vcd:
            print(f"VCD written to {args.vcd}")
    return 0


def _cmd_sweep(args) -> int:
    from . import api
    from .engine.shard import SweepFailedError
    from .io.netlist import load_netlist

    netlist = load_netlist(args.netlist)
    circuit = netlist.build()
    inputs, end_time = _resolve_stimulus(netlist, circuit, [], args.end_time)
    circuit, scenarios = api.monte_carlo(
        circuit, inputs, end_time, args.runs, seed=args.seed
    )
    if not any(s.channels for s in scenarios):
        print(
            "warning: the netlist has no eta-involution channels; all Monte "
            "Carlo runs are identical",
            file=sys.stderr,
        )
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint DIR", file=sys.stderr)
        return 2
    try:
        result = api.sweep(
            circuit,
            scenarios,
            backend=args.backend,
            max_workers=args.workers,
            max_events=args.max_events,
            checkpoint=args.checkpoint,
            retry=args.retries,
            chunk_timeout=args.chunk_timeout,
            chunk_size=args.chunk_size,
            on_chunk_failure="keep" if args.keep_failures else "raise",
        )
    except SweepFailedError as exc:
        # Quarantined chunks: report what failed (the surviving chunks are
        # already checkpointed when --checkpoint is on) and exit non-zero.
        # Only a crashed or timed-out chunk can succeed on a rerun.
        print(f"error: {len(exc.report)} chunk(s) quarantined:", file=sys.stderr)
        for failure in exc.report:
            print(f"  {failure.summary()}", file=sys.stderr)
        if args.checkpoint and any(f.kind in ("crash", "timeout") for f in exc.report):
            print(
                f"completed chunks are checkpointed in {args.checkpoint}; "
                "rerun to retry only the failed ones",
                file=sys.stderr,
            )
        return 1
    shard = result.shard_report
    if args.resume and shard.resumed == 0:
        print(
            "error: --resume was given but no chunk could be resumed from "
            f"{args.checkpoint} (parameters or chunk size changed?)",
            file=sys.stderr,
        )
        return 1
    rows: List[Dict[str, object]] = []
    for run in result:
        outputs = {
            name: {
                "transitions": len(signal),
                "final_value": signal.final_value,
                "stabilization_time": signal.stabilization_time(),
            }
            for name, signal in run.execution.output_signals.items()
        }
        rows.append(
            {
                "scenario": run.scenario.name,
                "seconds": run.seconds,
                "events": run.execution.event_count,
                "outputs": outputs,
            }
        )
    # SweepResult.backend records what actually executed -- a vector
    # request may have fallen back to the scalar path (with a warning);
    # the reported envelope must not claim a backend that never ran.
    executed = result.backend or args.backend
    if args.json:
        payload = {
            "netlist": args.netlist,
            "runs": args.runs,
            "seed": args.seed,
            "backend": executed,
            "backend_requested": args.backend,
            "end_time": end_time,
            "total_seconds": result.total_seconds,
            "results": rows,
        }
        if result.vector_report is not None and not result.vector_report.supported:
            payload["vector_fallback_reasons"] = list(result.vector_report.reasons)
        payload["chunks"] = {
            "size": shard.chunk_size,
            "computed": shard.computed,
            "resumed": shard.resumed,
            "failed": shard.failed,
            "backends": shard.backends(),
        }
        if result.failure_report is not None:
            payload["failures"] = [
                {
                    "chunk": f.index,
                    "scenarios": list(f.scenario_names),
                    "attempts": f.attempts,
                    "kind": f.kind,
                    "error": f.error,
                    "error_type": f.error_type,
                }
                for f in result.failure_report
            ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"eta Monte Carlo sweep: {args.runs} runs, seed={args.seed}, "
            f"backend={executed}"
            + (f" (requested {args.backend})" if executed != args.backend else "")
            + f", end_time={end_time:g}"
        )
        for row in rows:
            outs = "  ".join(
                f"{name}: {o['transitions']}tr final={o['final_value']}"
                for name, o in row["outputs"].items()
            )
            print(f"  {row['scenario']:<12s} {row['events']:>6d} events  {outs}")
        print(f"chunks: {shard.summary()}")
        if result.failure_report is not None:
            print(f"failures: {result.failure_report.summary()}", file=sys.stderr)
        print(f"total: {result.total_seconds:.3f}s for {len(rows)} runs")
    return 0


def _cmd_export(args) -> int:
    from .circuits.library import buffer_chain, inverter_chain
    from .core.constraint import admissible_eta_bound
    from .core.involution import InvolutionPair
    from .core.transitions import Signal
    from .io.netlist import save_netlist
    from .specs import ChannelSpec

    pair = InvolutionPair.exp_channel(args.tau, args.t_p, args.v_th)
    eta = admissible_eta_bound(pair, eta_plus=args.eta_plus)
    channel = ChannelSpec.exp_eta_involution(args.tau, args.t_p, eta, args.v_th)
    unit = pair.delta_up_inf + pair.delta_down_inf
    if args.library == "inverter_chain":
        circuit = inverter_chain(args.stages, channel, expose_taps=args.taps)
        inputs = {"in": Signal.pulse_train(1.0, [2.0 * unit] * 4, [3.0 * unit] * 3)}
        end_time = 1.0 + 20.0 * unit + 10.0 * (args.stages + 1) * pair.delta_up_inf
    elif args.library == "buffer_chain":
        circuit = buffer_chain(args.stages, channel)
        inputs = {"in": Signal.pulse_train(1.0, [2.0 * unit] * 4, [3.0 * unit] * 3)}
        end_time = 1.0 + 20.0 * unit + 10.0 * (args.stages + 1) * pair.delta_up_inf
    else:  # spf
        from .spf.spf_circuit import build_spf_circuit

        circuit = build_spf_circuit(pair, eta)
        inputs = {"i": Signal.pulse(0.0, 2.0 * pair.delta_min)}
        end_time = 400.0
    path = save_netlist(
        circuit,
        args.output,
        inputs=inputs,
        end_time=end_time,
        metadata={
            "generator": f"repro export {args.library}",
            "tau": args.tau,
            "t_p": args.t_p,
            "v_th": args.v_th,
            "eta_plus": eta.eta_plus,
            "eta_minus": eta.eta_minus,
        },
    )
    print(f"wrote {path} ({circuit.summary()})")
    return 0


def _parse_param_overrides(items: Sequence[str], params_json: Optional[str]) -> Dict[str, object]:
    """Merge ``--params-json`` and ``--param NAME=VALUE`` into one dict."""
    params: Dict[str, object] = {}
    if params_json:
        try:
            loaded = json.loads(params_json)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"--params-json: not valid JSON ({exc})") from None
        if not isinstance(loaded, dict):
            raise SystemExit("--params-json: expected a JSON object")
        params.update(loaded)
    for item in items:
        name, sep, text = item.partition("=")
        if not sep or not name:
            raise SystemExit(
                f"--param {item!r}: expected NAME=VALUE (e.g. eta_plus=0.1)"
            )
        try:
            params[name] = json.loads(text)
        except json.JSONDecodeError:
            params[name] = text  # bare strings stay strings
    return params


def _print_provenance(result, *, show_cache: bool = True) -> None:
    # from_cache is transient run-state, not provenance: it is only
    # meaningful right after `experiment run`, never for a loaded artifact.
    prov = result.provenance
    cache = f"  cache={'hit' if result.from_cache else 'miss'}" if show_cache else ""
    print(
        f"provenance: repro {prov.get('version')}  backend={prov.get('backend')}  "
        f"cpu_count={prov.get('cpu_count')}  wall={prov.get('wall_time_s', 0.0):.3f}s"
        f"{cache}"
    )
    if prov.get("chunks_computed") is not None:
        print(
            f"chunks: {prov['chunks_computed']} computed, "
            f"{prov.get('chunks_resumed', 0)} resumed"
        )
    print(f"spec key: {prov.get('spec_key')}")


def _cmd_experiment_list(args) -> int:
    from . import api

    kinds = api.experiments()
    if args.json:
        print(json.dumps(kinds, indent=2, sort_keys=True))
        return 0
    width = max(len(kind) for kind in kinds)
    for kind, description in kinds.items():
        print(f"{kind.ljust(width)}  {description}")
    return 0


def _cmd_experiment_run(args) -> int:
    from . import api

    params = _parse_param_overrides(args.param, args.params_json)
    result = api.experiment(
        args.kind,
        params,
        backend=args.backend,
        max_workers=args.workers,
        cache=args.cache,
        force=args.force,
        checkpoint=args.checkpoint,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(result.to_json() + "\n")
    if args.json:
        payload = {
            "from_cache": result.from_cache,
            "result": result.to_dict(),
        }
        if args.cache:
            from .store import as_store

            payload["artifact"] = str(as_store(args.cache).path_for(result.spec))
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result.table())
        _print_provenance(result)
        if args.cache:
            from .store import as_store

            print(f"artifact: {as_store(args.cache).path_for(result.spec)}")
        if args.output:
            print(f"result JSON written to {args.output}")
    return 0


def _load_result(path: str):
    from .experiments.base import ExperimentResult

    with open(path, "r", encoding="utf-8") as handle:
        return ExperimentResult.from_json(handle.read())


def _cmd_experiment_report(args) -> int:
    result = _load_result(args.result)
    columns = args.columns.split(",") if args.columns else None
    print(result.table(columns=columns, precision=args.precision))
    _print_provenance(result, show_cache=False)
    return 0


def _cmd_experiment_export(args) -> int:
    from .io.export import export_result

    result = _load_result(args.result)
    export_result(result, args.format, args.output)
    print(f"wrote {args.output} ({args.format}, kind={result.spec.kind})")
    return 0


def _cmd_experiment(args) -> int:
    handlers = {
        "list": _cmd_experiment_list,
        "run": _cmd_experiment_run,
        "report": _cmd_experiment_report,
        "export": _cmd_experiment_export,
    }
    return handlers[args.experiment_command](args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (the ``repro`` console script)."""
    from .circuits.circuit import CircuitError
    from .core.domain import DomainError
    from .engine.errors import SimulationError
    from .specs import SpecError

    args = build_parser().parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "lint": _cmd_lint,
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "export": _cmd_export,
        "experiment": _cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except (FileNotFoundError, SpecError, DomainError, CircuitError, SimulationError) as exc:
        # Routine bad-input cases get a one-line error, not a traceback: a
        # DomainError reaches here from parameters built outside a spec's
        # located() wrapper (experiment params).
        raise SystemExit(f"error: {exc}") from exc


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
