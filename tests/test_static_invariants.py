"""AST-level determinism gates over the engine and core trees.

Reproducibility is the project's north star: every stochastic or
time-dependent value inside ``repro.engine`` and ``repro.core`` must be
derived from an explicit seed or an explicit simulation clock.  These
tests parse the source (no imports, no execution) and forbid:

* ``time.time()`` / ``time.time_ns()`` -- wall-clock entropy leaking
  into results (``time.perf_counter`` for *measuring* durations is
  fine: it annotates results, it never decides them),
* the stdlib ``random`` module in any form -- its global state is
  process-wide and unseedable per-run,
* legacy ``np.random.*`` calls (global-state RNG) and zero-argument
  ``np.random.default_rng()`` / ``np.random.SeedSequence()`` -- fresh
  OS entropy that cannot be replayed.

Seeded constructions (``np.random.default_rng(seed)``,
``np.random.SeedSequence(seed)``) and the ``np.random.Generator`` type
(annotations) stay allowed.

A second gate keeps the Signal representation behind one module: no file
under ``src/repro`` but ``core/transitions.py`` may read or assign a
Signal's ``_times``/``_initial_value`` fields or build Transitions
through ``Transition.__new__``.  Everyone else goes through the public
API or the private constructor and accessor that module provides.

A third gate keeps one process pool: ``ProcessPoolExecutor`` may appear
only in ``engine/shard.py``, the sweep pipeline's respawning pool, and
``ThreadPoolExecutor`` in no module at all.

A fourth keeps the API free of deprecated shims: no docstring under
``src/repro`` carries a ``.. deprecated::`` directive.

A fifth keeps scipy and networkx off the simulation path: no module
under ``src/repro`` imports either at load time (imports under
``if TYPE_CHECKING:`` never run), and inside functions scipy is imported
only by fig9's exponential fit and networkx only by
``Circuit.to_networkx``.

A sixth keeps Monte Carlo draws in blocks: no module under
``repro.engine`` or ``repro.core`` calls a NumPy ``Generator`` draw
method (``uniform``, ``normal``, ``random``, ``standard_normal``,
``integers``) without a ``size=`` keyword.  A scalar draw costs about
2 us of NumPy call overhead, a 64-wide block about 30 ns per value, and
mapped by NumPy's own formula a block gives the same floats.

A seventh keeps each parameter check in one home: every ``raise`` inside
an ``__init__`` of ``core/baselines.py``, ``core/delay_functions.py``,
``core/adversary.py``, ``core/composition.py`` and ``spf/analysis.py``
raises ``DomainError``, and ``lint/rules.py`` does not import ``math``.  Lint reports the
constructors' ``DomainError`` at the parameter's pointer instead of
keeping a copy of their checks, and a copy of a domain check is what
would need ``math.isfinite`` there.

An eighth keeps each structural check in one home: ``lint/rules.py``
does not import the gate library (``repro.circuits.gates``,
``GATE_LIBRARY`` or ``GateType``), and ``CircuitSpec.build`` and
``_gate_type_from_spec`` in ``specs.py`` call no ``int``, ``float``,
``str`` or ``bool``.  ``Circuit`` and ``GateType`` decide what is
well-formed on the document's values as given, and lint reports their
errors; a conversion in the decode would let ``1.7`` build as 1.

A ninth keeps one graph: ``lint/rules.py`` reads no ``source`` or
``target`` key of a document (no ``.get("source")`` call, no
``["target"]`` subscript).  Its graph rules read the circuit
``CircuitSpec.build`` returns through the engine's ``CircuitTopology``
and SCC pass; a second graph built from the dicts would report loops
and dead ends through edges the builder rejects.

A tenth keeps one wait in the sweep pipeline: ``time.sleep`` (by any
alias of the module, or imported by name) appears under ``src/repro``
only in ``_ProcessChunkRunner.run`` of ``engine/shard.py``, the pool's
backoff before retrying a crashed or timed-out chunk, and in
``_apply_chaos``, the test-only hang of a pool worker.  A chunk's run is
fixed by its scenarios, so inline execution has nothing to retry and
never backs off.

An eleventh keeps a sweep's parent process on one thread of its own: no
module under ``src/repro`` imports ``threading``, ``_thread`` or
``queue`` in any form (``import``, ``from ... import``, ``__import__``,
``importlib.import_module``).  A finished chunk is written to its
checkpoint store where it finished: a background writer thread bought
no measurable overlap with chunk compute, and its GIL handoffs made the
timing of a checkpointed sweep vary.

A twelfth keeps one copy of the channel algorithm: exactly one function
of ``engine/kernel.py`` pops the pending frontier from the right
(``pending.pop()``) -- the cancellation phase, where transport
cancellation and inertial rejection drop scheduled outputs -- and both
``ChannelKernel.commit`` (the offline path) and ``ChannelKernel.feed``
(the engine's hot path) call it.  A second function that pops the
frontier would be a second copy of that phase, free to drift from the
first.

A thirteenth keeps one copy of the vector engine's tentative phase:
exactly one function of ``engine/vector.py`` reads an edge program's
delay evaluators (``fns_up`` or ``fns_down``), not counting
``_compile_edge``, which builds them.  The edge kernel computes every
lane's tentative outputs there once, and the pending frontier reads them
from its matrix; a second reader would be a second copy of the tentative
loop, free to drift from the first.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "repro"
CHECKED_TREES = ("engine", "core")

#: np.random attributes allowed as non-call references (types/annotations).
ALLOWED_NP_RANDOM_ATTRS = {"default_rng", "SeedSequence", "Generator"}

#: The one module that owns the Signal representation.
SIGNAL_HOME = SRC / "core" / "transitions.py"
#: Signal fields no other module may touch.
SIGNAL_FIELDS = {"_times", "_initial_value"}
#: The one module that owns a process pool.
POOL_HOME = SRC / "engine" / "shard.py"
#: Thread modules no module may import.
THREAD_MODULES = {"threading", "_thread", "queue"}
#: Packages no module may import at load time.
HEAVY_PACKAGES = ("scipy", "networkx")
#: The only runtime imports of those: (package, module, importing function).
HEAVY_IMPORT_HOMES = {
    ("scipy", "fitting/exp_fit.py", "fit_exp_channel"),
    ("networkx", "circuits/circuit.py", "Circuit.to_networkx"),
}
#: NumPy Generator methods that draw; called without ``size=`` they draw one.
DRAW_METHODS = {"uniform", "normal", "random", "standard_normal", "integers"}
#: The modules whose constructors own their parameter domains.
DOMAIN_HOMES = [
    SRC / "core" / name
    for name in ("baselines.py", "delay_functions.py", "adversary.py", "composition.py")
] + [SRC / "spf" / "analysis.py"]
#: The lint rules, which report those constructors' errors.
LINT_RULES = SRC / "lint" / "rules.py"
#: The circuit-spec decode, and the functions of it that hand the document's
#: values to ``Circuit`` and ``GateType`` unconverted.
SPECS = SRC / "specs.py"
STRUCTURE_DECODERS = {"CircuitSpec.build", "_gate_type_from_spec"}
#: The builtins that would convert a document value.
COERCIONS = {"int", "float", "str", "bool"}
#: The keys of an edge's endpoints, which only the circuit builder reads.
ENDPOINT_KEYS = {"source", "target"}
#: The only places that wait: (module, enclosing function).
SLEEP_HOMES = {
    ("engine/shard.py", "_ProcessChunkRunner.run"),
    ("engine/shard.py", "_apply_chaos"),
}
#: The channel kernel, and the two entries into its cancellation phase.
KERNEL = SRC / "engine" / "kernel.py"
CANCELLATION_CALLERS = {"ChannelKernel.commit", "ChannelKernel.feed"}
#: The vector engine, an edge program's delay evaluators, and the function
#: that builds them.
VECTOR = SRC / "engine" / "vector.py"
EVALUATOR_FIELDS = {"fns_up", "fns_down"}
EVALUATOR_BUILDER = "_compile_edge"


def _checked_files():
    for tree in CHECKED_TREES:
        yield from sorted((SRC / tree).rglob("*.py"))


def _is_np_random(node):
    """True for an ``np.random`` / ``numpy.random`` attribute chain."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def _violations(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    found.append((node.lineno, "import random"))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random" or (
                node.module or ""
            ).startswith("random."):
                found.append((node.lineno, f"from {node.module} import ..."))
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("time", "time_ns")
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ):
                found.append((node.lineno, f"time.{func.attr}()"))
            if isinstance(func, ast.Attribute) and _is_np_random(func.value):
                if func.attr not in ALLOWED_NP_RANDOM_ATTRS:
                    found.append(
                        (node.lineno, f"legacy np.random.{func.attr}()")
                    )
                elif not node.args and not node.keywords:
                    found.append(
                        (node.lineno, f"unseeded np.random.{func.attr}()")
                    )
        elif isinstance(node, ast.Attribute) and _is_np_random(node.value):
            if node.attr not in ALLOWED_NP_RANDOM_ATTRS:
                found.append((node.lineno, f"np.random.{node.attr}"))

    return found


def test_checked_trees_exist_and_are_nonempty():
    files = list(_checked_files())
    assert len(files) > 5, files


@pytest.mark.parametrize(
    "path", list(_checked_files()), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_determinism_hazards(path):
    violations = _violations(path)
    assert not violations, "\n".join(
        f"{path}:{line}: {what}" for line, what in violations
    )


def test_gate_actually_detects_hazards(tmp_path):
    """The detector itself is tested: seed each forbidden construct."""
    cases = {
        "import random\n": "import random",
        "from random import choice\n": "from random import",
        "import time\nt = time.time()\n": "time.time()",
        "import numpy as np\nx = np.random.rand(3)\n": "legacy np.random.rand",
        "import numpy as np\nr = np.random.default_rng()\n": (
            "unseeded np.random.default_rng"
        ),
        "import numpy as np\ns = np.random.seed\n": "np.random.seed",
    }
    for source, expectation in cases.items():
        probe = tmp_path / "probe.py"
        probe.write_text(source)
        violations = _violations(probe)
        assert violations, f"not detected: {source!r}"
        assert any(expectation in what for _, what in violations), violations

    clean = tmp_path / "clean.py"
    clean.write_text(
        "import time\nimport numpy as np\n"
        "t = time.perf_counter()\n"
        "rng = np.random.default_rng(42)\n"
        "seq = np.random.SeedSequence(7)\n"
        "g: np.random.Generator = rng\n"
    )
    assert not _violations(clean)


def _representation_leaks(path):
    """Uses of the Signal representation outside its home module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in SIGNAL_FIELDS:
                found.append((node.lineno, f".{node.attr}"))
            elif (
                node.attr == "__new__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "Transition"
            ):
                found.append((node.lineno, "Transition.__new__"))
        elif isinstance(node, ast.Call):
            # getattr(s, "_times"), object.__setattr__(s, "_times", ...),
            # object.__new__(Transition) and the like.
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name in ("getattr", "setattr", "delattr", "__setattr__", "__getattribute__"):
                for arg in node.args[1:2]:
                    if isinstance(arg, ast.Constant) and arg.value in SIGNAL_FIELDS:
                        found.append((node.lineno, f"{name}(..., {arg.value!r})"))
            elif name == "__new__" and any(
                isinstance(arg, ast.Name) and arg.id == "Transition"
                for arg in node.args[:1]
            ):
                found.append((node.lineno, "__new__(Transition)"))
    return found


def _non_home_files():
    return [p for p in sorted(SRC.rglob("*.py")) if p != SIGNAL_HOME]


@pytest.mark.parametrize(
    "path", _non_home_files(), ids=lambda p: str(p.relative_to(SRC))
)
def test_signal_representation_stays_in_its_module(path):
    leaks = _representation_leaks(path)
    assert not leaks, "\n".join(f"{path}:{line}: {what}" for line, what in leaks)


def test_representation_gate_detects_leaks(tmp_path):
    """The detector itself is tested: seed each forbidden construct."""
    cases = {
        "x = signal._times\n": "._times",
        "signal._initial_value = 1\n": "._initial_value",
        "t = Transition.__new__(Transition)\n": "Transition.__new__",
        "new = Transition.__new__\n": "Transition.__new__",
        "t = object.__new__(Transition)\n": "__new__(Transition)",
        "x = getattr(signal, '_times')\n": "getattr",
        "object.__setattr__(signal, '_initial_value', 0)\n": "__setattr__",
    }
    for source, expectation in cases.items():
        probe = tmp_path / "probe.py"
        probe.write_text(source)
        leaks = _representation_leaks(probe)
        assert any(expectation in what for _, what in leaks), (source, leaks)

    clean = tmp_path / "clean.py"
    clean.write_text(
        "s = Signal.from_times([1.0])\n"
        "t = Transition(1.0, 1)\n"
        "v = s.initial_value, s.transition_times(), s._other\n"
    )
    assert not _representation_leaks(clean)
    assert SIGNAL_HOME.exists() and _representation_leaks(SIGNAL_HOME)


def _pool_uses(path, executor):
    """Lines naming the ``executor`` class (import, name or attribute)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if executor in names:
            found.append(node.lineno)
    return found


def _pool_owners(executor):
    return [p for p in sorted(SRC.rglob("*.py")) if _pool_uses(p, executor)]


def test_process_pool_lives_in_one_module():
    owners = _pool_owners("ProcessPoolExecutor")
    assert owners == [POOL_HOME], [str(p.relative_to(SRC)) for p in owners]


def test_no_module_uses_a_thread_pool():
    owners = _pool_owners("ThreadPoolExecutor")
    assert owners == [], [str(p.relative_to(SRC)) for p in owners]


def test_pool_gate_detects_uses(tmp_path):
    """The detector itself is tested: seed each spelling of both executors."""
    executors = ("ProcessPoolExecutor", "ThreadPoolExecutor")
    for executor, other in zip(executors, reversed(executors)):
        for source in (
            f"from concurrent.futures import {executor}\n",
            f"import concurrent.futures\npool = concurrent.futures.{executor}()\n",
            f"def f(pool: {executor}): pass\n",
        ):
            probe = tmp_path / "probe.py"
            probe.write_text(source)
            assert _pool_uses(probe, executor), source
        clean = tmp_path / "clean.py"
        clean.write_text(f"from concurrent.futures import {other}\n")
        assert not _pool_uses(clean, executor)


def _thread_imports(path):
    """``(line, module)`` for each import of a thread module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.lineno, package)
        for node in ast.walk(tree)
        for package in _imported_packages(node)
        if package in THREAD_MODULES
    ]


def test_no_module_imports_a_thread_module():
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {module}"
        for path in sorted(SRC.rglob("*.py"))
        for line, module in _thread_imports(path)
    ]
    assert offenders == []


def test_thread_gate_detects_imports(tmp_path):
    """The detector itself is tested: seed each spelling of each module."""
    cases = {
        "import threading\n": [(1, "threading")],
        "import queue as _queue\n": [(1, "queue")],
        "import os, _thread\n": [(1, "_thread")],
        "from threading import Thread\n": [(1, "threading")],
        "from queue import Queue, SimpleQueue\n": [(1, "queue")],
        "class A:\n    def m(self):\n        import threading\n": [(3, "threading")],
        "q = __import__('queue')\n": [(1, "queue")],
        "import importlib\nt = importlib.import_module('_thread')\n": [(2, "_thread")],
    }
    for source, expected in cases.items():
        probe = tmp_path / "probe.py"
        probe.write_text(source)
        assert _thread_imports(probe) == expected, source

    clean = tmp_path / "clean.py"
    clean.write_text(
        "from concurrent.futures import ProcessPoolExecutor, wait\n"
        "from collections import deque\n"
        "from .queue import Queue\n"
        "import multiprocessing.queues\n"
        "import queues\n"
        "queue = deque()\n"
    )
    assert _thread_imports(clean) == []


def test_no_deprecated_directives():
    marked = [
        str(p.relative_to(SRC))
        for p in sorted(SRC.rglob("*.py"))
        if ".. deprecated::" in p.read_text()
    ]
    assert marked == []


def _is_type_checking(test):
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imported_packages(node):
    """Top-level packages a statement or call imports by absolute name."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""] if node.level == 0 else []
    elif isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        names = [
            arg.value
            for arg in node.args[:1]
            if name in ("__import__", "import_module")
            and isinstance(arg, ast.Constant)
            and isinstance(arg.value, str)
        ]
    else:
        names = []
    return [name.split(".")[0] for name in names]


def _heavy_imports(path):
    """``(line, package, function)`` for each runtime scipy/networkx import.

    ``function`` is the qualified name of the outermost enclosing
    function, or ``None`` when the import runs at load time (module or
    class body).  Imports under ``if TYPE_CHECKING:`` never run and are
    skipped.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, qualname, function):
        for package in _imported_packages(node):
            if package in HEAVY_PACKAGES:
                found.append((node.lineno, package, function))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{qualname}.{node.name}" if qualname else node.name
            if function is None and not isinstance(node, ast.ClassDef):
                function = qualname
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            children = node.orelse
        else:
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child, qualname, function)

    visit(tree, "", None)
    return found


def test_no_module_imports_scipy_or_networkx_at_load_time():
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {package}"
        for path in sorted(SRC.rglob("*.py"))
        for line, package, function in _heavy_imports(path)
        if function is None
    ]
    assert offenders == []


def test_scipy_and_networkx_are_imported_only_where_needed():
    found = {
        (package, str(path.relative_to(SRC)), function)
        for path in sorted(SRC.rglob("*.py"))
        for _, package, function in _heavy_imports(path)
    }
    assert found == HEAVY_IMPORT_HOMES


def test_heavy_import_gate_detects_imports(tmp_path):
    """The detector itself is tested: seed each spelling at each scope."""
    cases = {
        "import scipy.optimize\n": [(1, "scipy", None)],
        "from networkx import DiGraph\n": [(1, "networkx", None)],
        "import numpy, networkx as nx\n": [(1, "networkx", None)],
        "import importlib\nnx = importlib.import_module('networkx')\n": [
            (2, "networkx", None)
        ],
        "sp = __import__('scipy.optimize')\n": [(1, "scipy", None)],
        "class A:\n    import scipy\n": [(2, "scipy", None)],
        "try:\n    import scipy\nexcept ImportError:\n    pass\n": [
            (2, "scipy", None)
        ],
        "def f():\n    from scipy import optimize\n": [(2, "scipy", "f")],
        "class C:\n    def m(self):\n        def g():\n"
        "            import networkx\n": [(4, "networkx", "C.m")],
        "if not TYPE_CHECKING:\n    import scipy\n": [(2, "scipy", None)],
        "if TYPE_CHECKING:\n    pass\nelse:\n    import scipy\n": [
            (4, "scipy", None)
        ],
    }
    for source, expected in cases.items():
        probe = tmp_path / "probe.py"
        probe.write_text(source)
        assert _heavy_imports(probe) == expected, source

    clean = tmp_path / "clean.py"
    clean.write_text(
        "from typing import TYPE_CHECKING\n"
        "import typing\n"
        "if TYPE_CHECKING:\n    import networkx as nx\n"
        "if typing.TYPE_CHECKING:\n    from scipy import optimize\n"
        "from . import scipy_like\n"
        "from .networkx import shim\n"
        "import scipyish\n"
    )
    assert _heavy_imports(clean) == []


def _scalar_draws(path):
    """``(line, method)`` for each draw-method call without ``size=``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.lineno, node.func.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in DRAW_METHODS
        and not any(keyword.arg == "size" for keyword in node.keywords)
    ]


@pytest.mark.parametrize(
    "path", list(_checked_files()), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_per_event_scalar_draws(path):
    draws = _scalar_draws(path)
    assert not draws, "\n".join(f"{path}:{line}: .{what}()" for line, what in draws)


def test_scalar_draw_gate_detects_draws(tmp_path):
    """The detector itself is tested: seed each draw method, sized and not."""
    for method in sorted(DRAW_METHODS):
        probe = tmp_path / "probe.py"
        probe.write_text(
            f"x = rng.{method}(0.0, 1.0)\n"
            f"y = self.rng.{method}()\n"
            f"z = rng.{method}(0.0, 1.0, n)\n"
        )
        assert _scalar_draws(probe) == [(1, method), (2, method), (3, method)]

    clean = tmp_path / "clean.py"
    clean.write_text(
        "import numpy as np\n"
        "rng = np.random.default_rng(7)\n"
        "a = rng.uniform(-0.1, 0.2, size=n)\n"
        "b = rng.normal(0.0, 1.0, size=n)\n"
        "c = rng.random(size=64)\n"
        "d = rng.standard_normal(size=64)\n"
        "e = np.random.SeedSequence(7).generate_state(4)\n"
        "f = np.random.default_rng(np.random.SeedSequence(7))\n"
    )
    assert _scalar_draws(clean) == []


def _foreign_init_raises(path):
    """``(line, exception)`` for each ``raise`` in an ``__init__`` that
    does not raise ``DomainError``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            for raised in ast.walk(node):
                if not isinstance(raised, ast.Raise):
                    continue
                exc = raised.exc.func if isinstance(raised.exc, ast.Call) else raised.exc
                name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
                if name != "DomainError":
                    found.append((raised.lineno, name))
    return found


def _math_imports(path):
    """Lines importing the ``math`` module or a name from it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name == "math" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "math")
    ]


@pytest.mark.parametrize("path", DOMAIN_HOMES, ids=lambda p: str(p.relative_to(SRC)))
def test_constructors_raise_only_domain_errors(path):
    raises = _foreign_init_raises(path)
    assert not raises, "\n".join(f"{path}:{line}: raise {name}" for line, name in raises)


def test_lint_rules_keep_no_copy_of_a_domain_check():
    assert _math_imports(LINT_RULES) == []


def test_domain_gate_detects_copies(tmp_path):
    """The detector itself is tested: seed each forbidden construct."""
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class A:\n"
        "    def __init__(self, x):\n"
        "        if x < 0:\n"
        "            raise ValueError('x')\n"
        "        if x > 9:\n"
        "            raise errors.SpecError\n"
        "        if x == 5:\n"
        "            raise\n"
        "        raise DomainError('x', 'x is bad')\n"
        "    def check(self):\n"
        "        raise ValueError('not a constructor')\n"
    )
    assert _foreign_init_raises(probe) == [(4, "ValueError"), (6, "SpecError"), (8, None)]
    for source in ("import math\n", "import os, math\n", "from math import isfinite\n"):
        probe.write_text(source)
        assert _math_imports(probe) == [1], source
    probe.write_text("from .math import x\nimport mathx\n")
    assert _math_imports(probe) == []


def _gate_library_imports(path):
    """Lines importing ``repro.circuits.gates`` (by any relative or absolute
    spelling) or the names ``GATE_LIBRARY`` and ``GateType``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
            names = []
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(m.endswith("circuits.gates") for m in modules) or {
            "GATE_LIBRARY", "GateType"
        } & set(names):
            found.append(node.lineno)
    return found


def _coercions(path, functions):
    """``(line, builtin)`` for each ``int``/``float``/``str``/``bool`` call
    inside the named functions (qualified names, nested code included),
    and the set of those names the module defines."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found, defined = [], set()

    def visit(node, qualname):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{qualname}.{node.name}" if qualname else node.name
            defined.add(qualname)
        inside = any(qualname == f or qualname.startswith(f + ".") for f in functions)
        if (
            inside
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in COERCIONS
        ):
            found.append((node.lineno, node.func.id))
        for child in ast.iter_child_nodes(node):
            visit(child, qualname)

    visit(tree, "")
    return found, defined & set(functions)


def test_lint_rules_do_not_import_the_gate_library():
    assert _gate_library_imports(LINT_RULES) == []


def test_circuit_spec_decode_converts_no_document_value():
    coercions, defined = _coercions(SPECS, STRUCTURE_DECODERS)
    assert defined == STRUCTURE_DECODERS
    assert coercions == [], "\n".join(f"{SPECS}:{line}: {name}()" for line, name in coercions)


def test_structure_gate_detects_copies(tmp_path):
    """The detector itself is tested: seed each forbidden construct."""
    probe = tmp_path / "probe.py"
    for source in (
        "from ..circuits.gates import GATE_LIBRARY\n",
        "from repro.circuits.gates import INV\n",
        "from ..circuits import gates\n",
        "import repro.circuits.gates as g\n",
        "from ..circuits import GATE_LIBRARY\n",
        "from repro.circuits import GateType\n",
    ):
        probe.write_text(source)
        assert _gate_library_imports(probe) == [1], source
    probe.write_text("from ..circuits.circuit import CircuitError\nfrom ..specs import SpecError\n")
    assert _gate_library_imports(probe) == []

    probe.write_text(
        "class CircuitSpec:\n"
        "    def build(self):\n"
        "        pin = int(edge.get('pin', 0))\n"
        "        f = lambda v: bool(v)\n"
        "        return [str(n) for n in names]\n"
        "    def to_dict(self):\n"
        "        return float(x)\n"
        "def _gate_type_from_spec(data):\n"
        "    def arity():\n"
        "        return int(data['arity'])\n"
        "def other():\n"
        "    return int(x)\n"
    )
    found, defined = _coercions(probe, STRUCTURE_DECODERS)
    assert found == [(3, "int"), (4, "bool"), (5, "str"), (10, "int")]
    assert defined == STRUCTURE_DECODERS


def _endpoint_reads(path):
    """Lines that read a ``source`` or ``target`` key: a ``.get`` call or a
    subscript with that string constant."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
        ):
            key = node.args[0]
        elif isinstance(node, ast.Subscript):
            key = node.slice
        else:
            continue
        if isinstance(key, ast.Constant) and key.value in ENDPOINT_KEYS:
            found.append(node.lineno)
    return found


def test_lint_rules_keep_no_graph_of_their_own():
    reads = _endpoint_reads(LINT_RULES)
    assert reads == [], "\n".join(f"{LINT_RULES}:{line}: reads an edge endpoint" for line in reads)


def test_graph_gate_detects_reads(tmp_path):
    """The detector itself is tested: seed each forbidden construct."""
    probe = tmp_path / "probe.py"
    probe.write_text(
        "a = edge.get('source')\n"
        "b = edge['target']\n"
        "c = edge.get('target', None)\n"
        "d = {'source': 'REP003', 'target': 'REP003'}\n"
        "e = edge.get('name')\n"
        "f = edge['pin']\n"
        "g = edge.get(key)\n"
        "h = fields['source']\n"
    )
    assert _endpoint_reads(probe) == [1, 2, 3, 8]


def _sleeps(path):
    """``(line, function)`` for each ``time.sleep`` reference: an attribute
    ``sleep`` of a name bound to the ``time`` module, or a ``sleep``
    imported from it.  ``function`` is the qualified name of the
    innermost enclosing function (or class), None at module level."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "time"
    }
    found = []

    def visit(node, qualname):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{qualname}.{node.name}" if qualname else node.name
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "sleep"
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module == "time"
            and any(alias.name == "sleep" for alias in node.names)
        ):
            found.append((node.lineno, qualname or None))
        for child in ast.iter_child_nodes(node):
            visit(child, qualname)

    visit(tree, "")
    return found


def test_only_the_pool_waits():
    found = {
        (str(path.relative_to(SRC)), function)
        for path in sorted(SRC.rglob("*.py"))
        for _, function in _sleeps(path)
    }
    assert found == SLEEP_HOMES


def test_sleep_gate_detects_waits(tmp_path):
    """The detector itself is tested: seed each spelling at each scope."""
    cases = {
        "import time\ntime.sleep(1)\n": [(2, None)],
        "import time as _time\nclass R:\n    def run(self):\n        _time.sleep(0)\n": [
            (4, "R.run")
        ],
        "from time import sleep\n": [(1, None)],
        "def f():\n    from time import perf_counter, sleep as nap\n    nap(1)\n": [(2, "f")],
        "import os, time\ndef f(wait=time.sleep):\n    pass\n": [(2, "f")],
        "import time\ndef f():\n    def g():\n        pause = time.sleep\n": [(4, "f.g")],
    }
    for source, expected in cases.items():
        probe = tmp_path / "probe.py"
        probe.write_text(source)
        assert _sleeps(probe) == expected, source

    clean = tmp_path / "clean.py"
    clean.write_text(
        "import time\n"
        "t = time.perf_counter()\n"
        "self.sleep(1)\n"
        "asyncio_sleep = loop.sleep\n"
        "sleep = 3\n"
        "from .time import sleep\n"
    )
    assert _sleeps(clean) == []


def _calls(path):
    """``(line, function, call)`` for each call: ``function`` is the
    qualified name of the innermost enclosing function (or class), None
    at module level."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, qualname):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{qualname}.{node.name}" if qualname else node.name
        if isinstance(node, ast.Call):
            found.append((node.lineno, qualname or None, node))
        for child in ast.iter_child_nodes(node):
            visit(child, qualname)

    visit(tree, "")
    return found


def _frontier_pops(path):
    """``(line, function)`` for each pop from the right of a pending
    frontier: ``pop()`` or ``pop(-1)`` on a name ``pending`` or an
    attribute ``.pending``."""
    found = []
    for line, function, call in _calls(path):
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr == "pop"):
            continue
        target = func.value
        if (
            (isinstance(target, ast.Name) and target.id == "pending")
            or (isinstance(target, ast.Attribute) and target.attr == "pending")
        ) and [ast.unparse(arg) for arg in call.args] in ([], ["-1"]):
            found.append((line, function))
    return found


def test_one_function_pops_the_pending_frontier():
    functions = {function for _, function in _frontier_pops(KERNEL)}
    assert len(functions) == 1, functions
    (home,) = functions
    method = home.rsplit(".", 1)[-1]
    callers = {
        function
        for _, function, call in _calls(KERNEL)
        if isinstance(call.func, ast.Attribute)
        and call.func.attr == method
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == "self"
    }
    assert CANCELLATION_CALLERS <= callers, callers


def test_frontier_gate_detects_pops(tmp_path):
    """The detector itself is tested: two functions that each pop the
    frontier (the fused copy the gate forbids) are both found."""
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class K:\n"
        "    def commit(self, p):\n"
        "        pending = self.pending\n"
        "        while pending and pending[-1][0] >= p:\n"
        "            pending.pop()\n"
        "    def feed(self, t):\n"
        "        self.pending.pop(-1)\n"
    )
    found = _frontier_pops(probe)
    assert found == [(5, "K.commit"), (7, "K.feed")]
    assert len({function for _, function in found}) == 2

    clean = tmp_path / "clean.py"
    clean.write_text(
        "pending.popleft()\n"
        "pending.pop(0)\n"
        "self.delivered.pop()\n"
        "stack.pop()\n"
        "index.pop(event_id, None)\n"
        "pending_ids.pop()\n"
    )
    assert _frontier_pops(clean) == []


def _evaluator_readers(path):
    """``(line, function)`` for each read of an ``.fns_up`` or
    ``.fns_down`` attribute: ``function`` is the qualified name of the
    innermost enclosing function (or class), None at module level."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, qualname):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{qualname}.{node.name}" if qualname else node.name
        if (
            isinstance(node, ast.Attribute)
            and node.attr in EVALUATOR_FIELDS
            and isinstance(node.ctx, ast.Load)
        ):
            found.append((node.lineno, qualname or None))
        for child in ast.iter_child_nodes(node):
            visit(child, qualname)

    visit(tree, "")
    return found


def test_one_function_runs_the_vector_tentative_phase():
    functions = {function for _, function in _evaluator_readers(VECTOR)}
    functions.discard(EVALUATOR_BUILDER)
    assert len(functions) == 1, functions


def test_tentative_phase_gate_detects_readers(tmp_path):
    """The detector itself is tested: two functions that each read the
    evaluators (the second tentative loop the gate forbids) are both
    found, and so is a read inside a closure."""
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def _compile_edge(program, S):\n"
        "    program.fns_up = [None] * S\n"
        "    program.fns_up[0] = abs\n"
        "def _tentative(program, T):\n"
        "    return [fn(T) for fn in program.fns_up]\n"
        "def _frontier(program, T):\n"
        "    def step():\n"
        "        return program.fns_down[0](T)\n"
        "    return step()\n"
    )
    found = _evaluator_readers(probe)
    assert found == [(3, "_compile_edge"), (5, "_tentative"), (8, "_frontier.step")]
    functions = {function for _, function in found} - {EVALUATOR_BUILDER}
    assert len(functions) == 2

    clean = tmp_path / "clean.py"
    clean.write_text(
        "def _compile_edge(program):\n"
        "    program.fns_up = []\n"
        "fns_up = None\n"
        "program.windows[0] = 1.0\n"
        "def f(fns_down):\n"
        "    return fns_down\n"
    )
    assert _evaluator_readers(clean) == []
