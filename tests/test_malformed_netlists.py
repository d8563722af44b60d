"""Malformed netlists get a diagnostic, never a traceback.

The probe takes ``examples/netlists/inverter_chain.json`` and sets each
of 48 key paths -- every path of the envelope, of the first two nodes and
of the first edge (its channel included), and of the first transition of
``inputs.in`` -- to each of ten malformed values: 480 documents.

* ``lint()`` returns a report for every one of them, except the nine
  whose ``circuit`` is not an object: those raise ``SpecError`` on
  purpose, and ``repro lint`` exits 2 on them.
* ``repro simulate`` ends every one in a result or a one-line ``error:``
  exit, never in another exception.

The ``ci`` hypothesis profile (the ``differential`` CI job) runs all 480
documents, the default ``dev`` profile a fixed sample of 120.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import settings

from repro.cli import main
from repro.lint import lint
from repro.specs import SpecError

EXAMPLE = Path(__file__).parents[1] / "examples" / "netlists" / "inverter_chain.json"
BASE = json.loads(EXAMPLE.read_text())
VALUES = [None, "x", -1, 1e308, float("nan"), [], {}, True, 0, "1"]

#: How many leading entries of each list-valued field the probe mutates.
KEEP = {"nodes": 2, "edges": 1, "transitions": 1}

#: The ``ci`` profile runs 200 hypothesis examples, ``dev`` 15.
FULL_SIZE = settings.default.max_examples >= 200


def _key_paths(node, path=()):
    """Every path below *node*, with the lists named in ``KEEP`` cut short."""
    if isinstance(node, dict):
        items = sorted(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))[: KEEP.get(path[-1], len(node))]
    else:
        return []
    paths = []
    for key, value in items:
        paths.append(path + (key,))
        paths.extend(_key_paths(value, path + (key,)))
    return paths


def _mutated(path, value):
    """A copy of the example netlist with the field at *path* set to *value*."""
    doc = copy.deepcopy(BASE)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


DOCUMENTS = [(path, value) for path in _key_paths(BASE) for value in VALUES]
SAMPLE = DOCUMENTS if FULL_SIZE else DOCUMENTS[::4]


def test_the_probe_covers_48_paths():
    assert len({path for path, _ in DOCUMENTS}) == 48
    assert len(DOCUMENTS) == 480


@pytest.mark.differential
def test_lint_reports_instead_of_raising():
    raised = []
    for path, value in SAMPLE:
        try:
            lint(_mutated(path, value))
        except SpecError:
            if path != ("circuit",):
                raised.append((path, value, "SpecError"))
        except Exception as exc:
            raised.append((path, value, repr(exc)))
    assert raised == []


@pytest.mark.differential
def test_simulate_exits_cleanly(tmp_path, capsys):
    netlist = tmp_path / "netlist.json"
    tracebacks = []
    for path, value in SAMPLE:
        netlist.write_text(json.dumps(_mutated(path, value)))
        try:
            main(["simulate", str(netlist)])
        except SystemExit:
            pass
        except Exception as exc:
            tracebacks.append((path, value, repr(exc)))
        capsys.readouterr()
    assert tracebacks == []


CHANNEL = ("circuit", "edges", 0, "channel")


@pytest.mark.parametrize(
    "path, value, code",
    [
        (CHANNEL + ("pair",), [], "REP105"),
        (CHANNEL + ("pair",), "exp", "REP105"),
        (("circuit", "nodes", 1), "inv1", "REP008"),
        (CHANNEL + ("kind",), ["eta_involution"], "REP101"),
        (CHANNEL + ("adversary", "kind"), {}, "REP103"),
    ],
    ids=["pair-list", "pair-string", "node-string", "kind-list", "adversary-kind-dict"],
)
def test_malformed_shapes_get_diagnostics(path, value, code):
    report = lint(_mutated(path, value))
    assert code in {d.code for d in report}, report.render()
    assert not report.ok


def test_a_circuit_that_is_not_an_object_is_unreadable(tmp_path):
    """The by-design SpecError: ``repro lint`` exits 2 on it."""
    netlist = tmp_path / "netlist.json"
    netlist.write_text(json.dumps(_mutated(("circuit",), [])))
    with pytest.raises(SpecError, match="'circuit' field is not an object"):
        lint(netlist)
    assert main(["lint", str(netlist)]) == 2
