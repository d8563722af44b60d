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
* A document ``lint()`` passes also loads, builds and validates: lint
  reads the envelope and the circuit skeleton the way the loader does.
* Lint and the builder agree both ways: a document has an error from the
  decode and build rules (REP001--REP006, REP008, REP009, REP101--REP106)
  exactly when it does not load, build or validate, because those rules
  report the loader's and the builder's own errors.
* One defect is one finding: no document gets both REP105 and REP106,
  and the graph rules (REP007, REP201, REP202, REP401), which read the
  built circuit, report nothing on a document that does not load, build
  or validate.

The ``ci`` hypothesis profile (the ``differential`` CI job) runs all 480
documents, the default ``dev`` profile a fixed sample of 120.
"""

import copy
import functools
import json
from pathlib import Path

import pytest
from hypothesis import settings

from repro.cli import main
from repro.io.netlist import netlist_from_dict
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


@functools.lru_cache(maxsize=None)
def _lint_reports():
    """``(path, value, document, report)`` for each readable sample
    document, linted once for the tests below."""
    reports = []
    for path, value in SAMPLE:
        if path != ("circuit",):  # the by-design unreadable documents
            doc = _mutated(path, value)
            reports.append((path, value, doc, lint(doc)))
    return reports


@pytest.mark.differential
def test_lint_clean_documents_load_and_build():
    failures = []
    for path, value, doc, report in _lint_reports():
        if report.ok:
            try:
                netlist_from_dict(doc).build().validate()
            except Exception as exc:
                failures.append((path, value, repr(exc)))
    assert failures == []


#: The rules that report what the loader and the builder raise.
BUILD_RULES = {f"REP00{n}" for n in (1, 2, 3, 4, 5, 6, 8, 9)} | {
    f"REP10{n}" for n in range(1, 7)
}


@pytest.mark.differential
def test_lint_errors_exactly_when_the_document_does_not_build():
    disagreements = []
    for path, value, doc, report in _lint_reports():
        try:
            netlist_from_dict(doc).build().validate()
            builds = True
        except SpecError:
            builds = False
        errors = {d.code for d in report.errors} & BUILD_RULES
        if builds == bool(errors):
            disagreements.append((path, value, sorted(errors)))
    assert disagreements == []


@pytest.mark.differential
def test_no_document_gets_both_rep105_and_rep106():
    both = [
        (path, value)
        for path, value, _, report in _lint_reports()
        if {"REP105", "REP106"} <= {d.code for d in report}
    ]
    assert both == []


#: The rules that read the built circuit's graph.
GRAPH_RULES = {"REP007", "REP201", "REP202", "REP401"}


@pytest.mark.differential
def test_graph_rules_report_nothing_on_a_document_that_does_not_build():
    """Each probe document changes one field, so one that does not build
    has one defect, which the loader's or the builder's error explains: a
    dangling node or a loop through an edge the builder rejects is not a
    second one."""
    collateral = []
    for path, value, doc, report in _lint_reports():
        try:
            netlist_from_dict(doc).build().validate()
        except SpecError:
            codes = {d.code for d in report} & GRAPH_RULES
            if codes:
                collateral.append((path, value, sorted(codes)))
    assert collateral == []


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
