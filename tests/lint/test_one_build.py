"""One ``lint()`` decodes and builds each document once.

The netlist loader decodes the document once (REP009 and REP401 share
it), ``CircuitSpec.build`` builds every channel once (``SpecBuild``
walks only the sub-specs of a channel that did not build), and the
graph rules share one ``CircuitTopology`` of the built circuit.  REP107
reads each explicit delay pair from the channel that build returned, so
a pair is constructed once.  When the circuit's skeleton does not decode
nothing is built, and the walker builds each channel itself.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

import repro.io.netlist
from repro.core.involution import InvolutionPair
from repro.engine.scheduler import CircuitTopology
from repro.lint import lint
from repro.specs import ChannelSpec, CircuitSpec

EXAMPLES = Path(__file__).parents[2] / "examples" / "netlists"
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize(
    "name, edges, pairs",
    [("inverter_chain.json", 8, 7), ("spf.json", 4, 2), ("REP107_pass.json", 2, 1)],
)
def test_lint_builds_each_document_once(monkeypatch, name, edges, pairs):
    calls = Counter()

    def counting(key, function):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ChannelSpec, "build", counting("ChannelSpec.build", ChannelSpec.build))
    monkeypatch.setattr(
        InvolutionPair, "__init__", counting("InvolutionPair", InvolutionPair.__init__)
    )
    monkeypatch.setattr(
        CircuitSpec,
        "from_dict",
        staticmethod(counting("CircuitSpec.from_dict", CircuitSpec.from_dict)),
    )
    monkeypatch.setattr(
        repro.io.netlist,
        "netlist_from_dict",
        counting("netlist_from_dict", repro.io.netlist.netlist_from_dict),
    )
    monkeypatch.setattr(
        CircuitTopology, "__init__", counting("CircuitTopology", CircuitTopology.__init__)
    )
    path = EXAMPLES / name if (EXAMPLES / name).exists() else FIXTURES / name
    report = lint(json.loads(path.read_text()))
    assert report.ok, report.render()
    assert calls == {
        "ChannelSpec.build": edges,
        "InvolutionPair": pairs,
        "netlist_from_dict": 1,
        "CircuitSpec.from_dict": 1,
        "CircuitTopology": 1,
    }


def test_channels_are_built_by_lint_when_the_skeleton_does_not_decode():
    """A circuit whose skeleton does not decode is never built, so lint's
    spec walker builds each channel itself: a channel defect is found
    next to the skeleton's REP009."""
    doc = json.loads((EXAMPLES / "inverter_chain.json").read_text())
    doc["circuit"]["name"] = 5
    doc["circuit"]["edges"][0]["channel"]["eta"]["eta_plus"] = -1
    report = lint(doc)
    assert [(d.code, d.path) for d in report] == [
        ("REP009", "/circuit"),
        ("REP106", "/circuit/edges/0/channel/eta/eta_plus"),
    ]
