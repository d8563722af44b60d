"""NumPy-vectorized batch evaluation backend for fixed-topology sweeps.

The paper's headline experiments (Theorem 9 coverage, the eta-channel
Monte Carlo fits, Figures 7-9) are batch-shaped: thousands of scenarios
over *one* circuit, with only channel parameters and stimuli varying.
The scalar engine pays the full event-loop cost per scenario; this module
instead compiles the :class:`~repro.engine.scheduler.CircuitTopology`
once into dense arrays and evaluates **all scenarios simultaneously**:

* per-edge *channel parameter matrices* with one row per scenario
  (constant delays, rejection windows, adversarial eta shifts),
* per-gate *dispatch codes*: gate truth tables flattened into dense
  lookup arrays indexed by packed input-value bits,
* the two phases of the shared :class:`~repro.engine.kernel.ChannelKernel`
  re-expressed as array operations, in lockstep over the transition
  index.  The tentative phase fills one matrix of tentative output times
  for every scenario lane of an edge.  The cancellation phase (transport
  cancellation, inertial rejection, causality, maturity) runs as masked
  operations over a per-scenario pending frontier, and only for the
  lanes that need it.  A lane is *regular* when its channel has no
  rejection window and its tentative outputs are finite, each strictly
  after its own input and strictly increasing; nothing in the frontier
  can fire on it, so its delivered signal is its tentative row cut at
  the horizon.  Monte Carlo lanes of well-separated pulses are regular;
  the glitch trains the involution model is about are not.

Bit-identity contract
---------------------
``run_many(backend="vector")`` is **bit-identical** to ``run_many(backend=
"sequential")``: same transition lists (times compared as exact float64
bits), same event counts, same dropped-transition counts, same SPF
verdicts.  Failing sweeps fail on both backends with the same error when
the failure is unique; when *several* failures coexist (say an
inadmissible adversary shift on one edge and a ``max_events`` overrun),
the scalar engine surfaces whichever its global time order reaches
first, while this backend -- which evaluates edge by edge -- may surface
a different one.  Two design rules make the bit identity possible:

1. Pure float arithmetic (add/sub/mul/compare) is IEEE-deterministic and
   is vectorized freely with the *same operation order* as the scalar
   kernel.
2. Transcendental functions are **not** vectorized through NumPy ufuncs:
   ``np.exp``/``np.log`` use SIMD implementations whose last-ulp rounding
   differs from ``math.exp``/``math.log`` on some hosts, which would break
   bit-identity.  Delay functions are therefore evaluated element-wise
   through the very same ``math``-based scalar code the kernel runs,
   while everything around them (cancellation, maturity, eta application,
   gate evaluation) stays vectorized across scenarios.

Capability model
----------------
The compiler handles cyclic circuits as well as acyclic ones.  Nodes
run in the order of the topology's strongly-connected-component
condensation: a node on no cycle is evaluated once, while each feedback
component (storage loops, latches -- the theorem9 experiment's shape)
is iterated to a fixpoint in lockstep: loop channels
are re-evaluated from the previous iterate until every member gate's
signal matrix stops changing, which happens once the correct prefix has
grown past the horizon (each pass extends it by the loop's minimum
delay).  A final strict pass then replays the loop channels once more to
count events and surface errors exactly as a node on no cycle would.
Unseeded ``RandomAdversary`` channels are materialised at compile time
with per-(scenario, edge) pre-drawn seeds -- the same
fresh-entropy-per-run semantics the scalar engine gives them
(:func:`predraw_random_adversaries` exposes the materialisation so both
backends can be run on identical draws).  The obstacles that remain are
reported by :func:`vector_capability` -- unsupported channel or
adversary classes, zero-delay-only cycles, settle-instant glitches,
scenario-dependent structure -- and same-instant arrival coincidences
that only show up at run time make execution raise
:class:`VectorUnsupportedError`; in both cases
``run_many(backend="vector")`` runs the refused chunk on the scalar
engine with a warning and the report attached rather than failing or
silently slowing down.
"""

from __future__ import annotations

import math
import time as _time
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.transitions import Signal, _signal_from_times, _signal_times
from .capability import (
    EdgeFact,
    VectorCapability,
    adversary_obstacle,
    analyze_sweep,
)
from .errors import CAUSALITY_MODES, CausalityError, SimulationError
from .scheduler import CircuitTopology, Execution, _NODE_GATE, _NODE_OUTPUT

__all__ = [
    "VectorCapability",
    "VectorUnsupportedError",
    "vector_capability",
    "compile_sweep",
    "predraw_random_adversaries",
    "VectorProgram",
]

_INF = math.inf
_NEG_INF = -math.inf


# --------------------------------------------------------------------------- #
# Cost model of backend="auto"
# --------------------------------------------------------------------------- #
# ``backend="auto"`` picks the engine of each chunk from one inequality in
# scalar-event units, computed from deterministic counts and never from
# wall time: the scalar engine costs one unit per event, a lockstep step of
# this engine (one transition index of one timed edge, across all lanes)
# costs a fixed _STEP_COST plus _LANE_COST per scenario lane.  Measured on
# a 2-CPU x86-64 host (Python 3.11, numpy 2.4) on the 32-stage eta chain
# of the exp eta-channel: the scalar engine takes 8-13 us per event, a
# lockstep step ~40-45 us plus ~2.6-2.9 us per lane.  The chain's
# crossover lies between 4 scenarios (scalar 184 ms, vector 246 ms) and 8
# (394 ms, 274 ms); at 16 it is 1126 ms against 386 ms.  A finer run put
# it between 5 (214 ms, 246 ms) and 6 (326 ms, 256 ms), below the
# break-even of 7 these constants give.  Most of the lane cost was result
# assembly: the edge kernel alone takes ~0.6 us per lane, so a fixpoint
# pass, whose iterate is discarded, pays _STEP_COST only.  Both constants
# were measured while assembly still built one Transition object per
# transition and every lane ran the pending frontier; row-slice assembly
# and the closed form for regular lanes have made a step of the chain
# ~9 us plus ~0.45 us per lane since.  The constants are kept as
# measured until a re-fit, which moves ``auto``'s routing, lands on its
# own.

#: Fixed cost of one lockstep step, in scalar events.
_STEP_COST = 4.5
#: Cost of one kept lockstep step per scenario lane, in scalar events.
_LANE_COST = 0.26
#: Fewest scenarios for which a lockstep step costs less than the one
#: event per lane it replaces.  Every chunk needs at least about one step
#: per event of its longest scenario (exactly that when acyclic, more when
#: a loop iterates), so below this count the scalar engine always wins.
_BREAK_EVEN_LANES = math.floor(_STEP_COST / (1.0 - _LANE_COST)) + 1


def _lockstep_cost(steps: float, lanes: int, pass_steps: int = 0) -> float:
    """Cost in scalar events of ``steps`` kept lockstep steps over ``lanes``
    scenarios plus ``pass_steps`` steps of discarded fixpoint passes."""
    return steps * (_STEP_COST + _LANE_COST * lanes) + pass_steps * _STEP_COST


class _ScalarCheaper(Exception):
    """A cost-limited run stopped: the scalar engine is the cheaper choice.

    Raised after a fixpoint pass once the cumulative lockstep cost exceeds
    the scalar cost of the events counted so far plus the loop iterate.
    """

    def __init__(self, passes: int, vector_cost: float, scalar_cost: float) -> None:
        super().__init__(f"fixpoint pass {passes} cost more than the scalar engine")
        self.vector_cost = vector_cost
        self.scalar_cost = scalar_cost


# --------------------------------------------------------------------------- #
# Capability reporting
# --------------------------------------------------------------------------- #
# The obstacle detection itself lives in :mod:`repro.engine.capability`
# (shared with the static linter); :class:`VectorCapability` is re-exported
# from there so ``from repro.engine.vector import VectorCapability`` keeps
# working.


class VectorUnsupportedError(SimulationError):
    """Raised by :func:`compile_sweep` when a sweep cannot be vectorized.

    Carries the full :class:`VectorCapability` report as ``report``.
    """

    def __init__(self, report: VectorCapability) -> None:
        super().__init__(report.summary())
        self.report = report


# --------------------------------------------------------------------------- #
# Bit-exact element-wise delay evaluation
# --------------------------------------------------------------------------- #
# NumPy's exp/log SIMD loops round differently from libm in the last ulp
# on some hosts; the evaluators below therefore run the *scalar* math of
# the channels, element by element, with constants hoisted into closure
# cells (the same hoisting the scalar channels perform in __init__).


def _polarity_fn(delta, inf_limit: float, low: float, mode: str):
    """One-polarity delay evaluator mirroring the channel's ``delay_for``.

    ``mode`` selects the guard structure: ``"guarded"`` / ``"unguarded"``
    for :class:`~repro.core.involution_channel.InvolutionChannel` (with
    and without ``guard_domain``), ``"eta"`` for the eta channel's base
    value (the adversarial shift is applied afterwards, vectorized,
    exactly where the scalar code adds it -- on finite base values only).

    For :class:`~repro.core.delay_functions.ExpDelay` the closed form is
    flattened into one call with its constants in closure cells -- the
    exact expression (and therefore rounding) of ``ExpDelay.__call__``.
    Every other delay function goes through its own ``__call__``, which
    is bit-identical by construction.  The evaluators are pure, so
    :func:`_compile` caches them per underlying delay-function object.
    """
    from ..core.delay_functions import ExpDelay

    exp = math.exp
    log = math.log
    if type(delta) is ExpDelay:
        tau = delta.tau
        shift = delta._shift
        offset = delta._offset
        inv_tau = delta._inv_tau
        if mode == "unguarded":

            def fn(T: float) -> float:
                if T == _INF:
                    return inf_limit
                argument = 1.0 - exp(-(T + shift) * inv_tau)
                if argument <= 0.0:
                    return _NEG_INF
                return tau * log(argument) + offset

        else:
            # "guarded" and "eta" share one shape: ExpDelay is -inf on the
            # whole out-of-domain region, so the eta mode's isfinite check
            # collapses into the same early -inf returns.

            def fn(T: float) -> float:
                if T == _INF:
                    return inf_limit
                if T <= low:
                    return _NEG_INF
                argument = 1.0 - exp(-(T + shift) * inv_tau)
                if argument <= 0.0:
                    return _NEG_INF
                return tau * log(argument) + offset

        return fn

    isfinite = math.isfinite
    if mode == "unguarded":

        def fn(T: float) -> float:
            if T == _INF:
                return inf_limit
            return delta(T)

    elif mode == "guarded":

        def fn(T: float) -> float:
            if T == _INF:
                return inf_limit
            if T <= low:
                return _NEG_INF
            return delta(T)

    else:

        def fn(T: float) -> float:
            if T == _INF:
                return inf_limit
            if T <= low:
                return _NEG_INF
            value = delta(T)
            if not isfinite(value):
                return _NEG_INF
            return value

    return fn


def _degradation_fn(channel):
    """Mirror of ``DegradationDelayChannel.delay_for``."""
    nominal = channel.delta_nominal
    tau_deg = channel.tau_deg
    T0 = channel.T0
    isinf = math.isinf
    exp = math.exp

    def fn(T: float) -> float:
        if isinf(T) and T > 0:
            return nominal
        if T <= T0:
            return 0.0
        return nominal * (1.0 - exp(-(T - T0) / tau_deg))

    return fn


# --------------------------------------------------------------------------- #
# Adversary eta matrices
# --------------------------------------------------------------------------- #
# Every supported adversary ignores the previous-output-to-input delay T,
# so its whole shift sequence is a function of (index, time, polarity)
# alone and can be materialised per scenario before the lockstep runs --
# one row of the per-edge eta matrix.  RandomAdversary draws are taken as
# one array call, which consumes the generator's stream exactly like the
# scalar per-transition draws do.


def _eta_builder(channel, where: str):
    """Build ``(times, rising) -> shifts`` for one eta channel.

    The shared analyzer (:func:`repro.engine.capability.adversary_obstacle`)
    rejects every adversary this builder cannot express before compilation
    reaches it; an obstacle surfacing here means the two fell out of sync,
    so the builder raises rather than miscompiling.
    """
    from ..core.adversary import (
        BestCaseAdversary,
        DeCancelAdversary,
        RandomAdversary,
        SequenceAdversary,
        SineAdversary,
        WorstCaseAdversary,
        ZeroAdversary,
    )

    adversary = channel.adversary
    obstacle = adversary_obstacle(adversary)
    if obstacle is not None:
        raise VectorUnsupportedError(
            VectorCapability(False, (f"{where}: {obstacle}",))
        )
    bound = channel.eta
    eta_plus = bound.eta_plus
    eta_minus = bound.eta_minus
    kind = type(adversary)

    if kind is ZeroAdversary:
        return lambda times, rising: np.zeros(len(times))
    if kind is WorstCaseAdversary:
        return lambda times, rising: np.where(rising, eta_plus, -eta_minus)
    if kind in (BestCaseAdversary, DeCancelAdversary):
        return lambda times, rising: np.where(rising, -eta_minus, eta_plus)
    if kind is RandomAdversary:
        seed = adversary._seed
        if seed is None:
            # _compile materialises unseeded adversaries with pre-drawn
            # seeds before any builder runs; reaching here means that
            # pass was skipped, and miscompiling silently would produce
            # unreplayable draws.
            raise SimulationError(
                f"{where}: unseeded RandomAdversary reached the vector "
                "builder without a pre-drawn seed"
            )
        distribution = adversary.distribution
        sigma = adversary.sigma_fraction * bound.width / 2.0

        def random_draws(times, rising):
            n = len(times)
            rng = np.random.default_rng(seed)
            if distribution == "uniform":
                return rng.uniform(-eta_minus, eta_plus, size=n)
            if sigma == 0.0:
                return np.zeros(n)
            draws = rng.normal(0.0, sigma, size=n)
            return np.minimum(np.maximum(draws, -eta_minus), eta_plus)

        return random_draws
    if kind is SineAdversary:
        period = adversary.period
        phase = adversary.phase
        fraction = adversary.amplitude_fraction
        clip = bound.clip
        sin = math.sin
        two_pi = 2.0 * math.pi

        def sine_shifts(times, rising):
            out = np.empty(len(times))
            for i, t in enumerate(times):
                s = sin(two_pi * t / period + phase)
                amplitude = eta_plus if s >= 0 else eta_minus
                out[i] = clip(fraction * amplitude * s)
            return out

        return sine_shifts
    if kind is SequenceAdversary:
        shifts = adversary.shifts
        fill = adversary.fill
        clip_values = adversary.clip_values
        clip = bound.clip
        contains = bound.contains

        def sequence_shifts(times, rising):
            out = np.empty(len(times))
            for i in range(len(times)):
                eta = shifts[i] if i < len(shifts) else fill
                if clip_values:
                    eta = clip(eta)
                elif not contains(eta):
                    raise ValueError(
                        f"shift {eta} at index {i} is outside the admissible "
                        f"interval [-{eta_minus}, {eta_plus}]"
                    )
                out[i] = eta
            return out

        return sequence_shifts
    raise SimulationError(
        f"{where}: no vector builder for adversary {kind.__name__}"
    )


# --------------------------------------------------------------------------- #
# Per-edge channel programs
# --------------------------------------------------------------------------- #


@dataclass
class _EdgeProgram:
    """Compiled vector semantics of one edge across all scenarios."""

    eid: int
    name: str
    source_id: int
    zero_delay: bool
    inverting: bool
    #: Same-instant hazard classification of the target (see
    #: ``_run_frontier``): a delivery at or before its feeding instant
    #: interleaves with engine batches a gate feeds on, an output port
    #: feeds nothing.
    target_is_gate: bool = False
    #: Constant-delay fast path: per-scenario (rising, falling) delays.
    const_up: Optional[np.ndarray] = None
    const_down: Optional[np.ndarray] = None
    #: General path: per-scenario scalar delay evaluators per polarity.
    fns_up: Optional[List[Callable[[float], float]]] = None
    fns_down: Optional[List[Callable[[float], float]]] = None
    #: Per-scenario inertial rejection windows.
    windows: Optional[np.ndarray] = None
    #: Eta channels: per-scenario shift builders and admissible bounds
    #: (rows of non-eta scenarios hold None / +-inf).
    eta_builders: Optional[List[Optional[Callable]]] = None
    eta_lo: Optional[np.ndarray] = None
    eta_hi: Optional[np.ndarray] = None
    eta_bounds: Optional[List[Optional[object]]] = None


def _cached_polarity_fn(cache: Dict, delta, inf_limit: float, low: float, mode: str):
    """Memoized :func:`_polarity_fn` (evaluators are pure; sweeps reuse
    the same delay-function objects across thousands of scenario
    channels, e.g. every ``with_adversary`` copy shares its pair)."""
    key = (id(delta), inf_limit, low, mode)
    hit = cache.get(key)
    if hit is not None and hit[0] is delta:
        return hit[1]
    fn = _polarity_fn(delta, inf_limit, low, mode)
    cache[key] = (delta, fn)
    return fn


def _compile_edge(
    fact: EdgeFact,
    ename: str,
    run_channels: List[object],
    fn_cache: Dict,
) -> _EdgeProgram:
    """Build one edge's compiled program from its analyzer fact.

    The shared analyzer (:func:`repro.engine.capability.analyze_sweep`)
    has already vetted ``run_channels`` -- supported classes only, no
    same-instant hazards, scenario-uniform zero-delay/inverting flags --
    so this is pure construction and cannot fail.
    """
    from ..core.baselines import (
        DegradationDelayChannel,
        InertialDelayChannel,
        PureDelayChannel,
    )
    from ..core.eta_channel import EtaInvolutionChannel
    from ..core.involution_channel import InvolutionChannel

    S = len(run_channels)
    if fact.zero_delay:
        return _EdgeProgram(
            eid=fact.eid,
            name=ename,
            source_id=fact.source_id,
            zero_delay=True,
            inverting=fact.inverting,
            target_is_gate=fact.target_is_gate,
        )

    program = _EdgeProgram(
        eid=fact.eid,
        name=ename,
        source_id=fact.source_id,
        zero_delay=False,
        inverting=fact.inverting,
        target_is_gate=fact.target_is_gate,
        windows=np.zeros(S),
    )
    all_const = all(
        type(ch) in (PureDelayChannel, InertialDelayChannel) for ch in run_channels
    )
    if all_const:
        program.const_up = np.empty(S)
        program.const_down = np.empty(S)
    else:
        program.fns_up = [None] * S
        program.fns_down = [None] * S
    has_eta = any(type(ch) is EtaInvolutionChannel for ch in run_channels)
    if has_eta:
        program.eta_builders = [None] * S
        program.eta_lo = np.full(S, _NEG_INF)
        program.eta_hi = np.full(S, _INF)
        program.eta_bounds = [None] * S

    for s, channel in enumerate(run_channels):
        kind = type(channel)
        program.windows[s] = channel.rejection_window()
        if kind is PureDelayChannel:
            up, down = channel.rising_delay, channel.falling_delay
        elif kind is InertialDelayChannel:
            up = down = channel.delay
        elif kind is DegradationDelayChannel:
            fn = _degradation_fn(channel)
            program.fns_up[s] = fn
            program.fns_down[s] = fn
            continue
        elif kind is InvolutionChannel:
            mode = "guarded" if channel.guard_domain else "unguarded"
            program.fns_up[s] = _cached_polarity_fn(
                fn_cache, channel._delta_up, channel._up_inf, channel._up_low, mode
            )
            program.fns_down[s] = _cached_polarity_fn(
                fn_cache, channel._delta_down, channel._down_inf,
                channel._down_low, mode,
            )
            continue
        else:  # EtaInvolutionChannel
            builder = _eta_builder(channel, f"edge {ename!r}")
            program.fns_up[s] = _cached_polarity_fn(
                fn_cache, channel._delta_up, channel._up_inf, channel._up_low, "eta"
            )
            program.fns_down[s] = _cached_polarity_fn(
                fn_cache, channel._delta_down, channel._down_inf,
                channel._down_low, "eta",
            )
            program.eta_builders[s] = builder
            program.eta_lo[s] = channel._eta_lo
            program.eta_hi[s] = channel._eta_hi
            program.eta_bounds[s] = channel.eta
            continue
        if all_const:
            program.const_up[s] = up
            program.const_down[s] = down
        else:
            program.fns_up[s] = lambda T, _up=up: _up
            program.fns_down[s] = lambda T, _down=down: _down
    return program


# --------------------------------------------------------------------------- #
# Signal matrices
# --------------------------------------------------------------------------- #
# Every node/edge signal of the sweep is held as (times, counts, initial):
# a float64 [S, N] matrix padded with +inf, a per-scenario transition
# count, and the (scenario-uniform) initial value.  Values need no
# storage: well-formed signals alternate, so the value at index n is a
# pure function of n and the initial value.


@dataclass
class _SignalMatrix:
    """Padded per-scenario transition-time matrix of one node or edge."""

    times: np.ndarray  # [S, N] float64, +inf padded
    counts: np.ndarray  # [S] int64
    initial: int


def _empty_matrix(S: int, initial: int) -> _SignalMatrix:
    return _SignalMatrix(np.empty((S, 0)), np.zeros(S, dtype=np.int64), initial)


# --------------------------------------------------------------------------- #
# The lockstep channel kernel
# --------------------------------------------------------------------------- #


def _tentative_outputs(
    program: _EdgeProgram,
    times: np.ndarray,
    counts: np.ndarray,
    rising: np.ndarray,
    eta_mat: Optional[np.ndarray],
    eta_rows: Optional[np.ndarray],
) -> np.ndarray:
    """The tentative phase of every lane (vector mirror of
    ``ChannelKernel.tentative``): an ``[S, N]`` matrix of output times
    ``t + delay``, ``+inf`` past each lane's transition count.

    ``last_in`` and ``last_delay`` advance on every fed transition,
    cancelled or not, so the phase needs nothing from the frontier.
    """
    S, N = times.shape
    out_times = np.full((S, N), _INF)
    lanes = np.arange(S)
    last_in = np.full(S, _NEG_INF)
    last_delay = np.zeros(S)
    const_mode = program.const_up is not None
    # Uniform sweeps (every scenario sees the same transition count, the
    # Monte Carlo steady state) take an all-lanes-active fast path that
    # skips the per-step masking entirely.
    counts_min = int(counts.min()) if S else 0
    all_rows_list = list(range(S))
    # One shared evaluator per polarity (the memoized-closure common case
    # -- every Monte Carlo override reuses the same delay pair) unlocks a
    # straight map over the row.
    uniform_up = uniform_down = None
    if not const_mode:
        if all(fn is program.fns_up[0] for fn in program.fns_up):
            uniform_up = program.fns_up[0]
        if all(fn is program.fns_down[0] for fn in program.fns_down):
            uniform_down = program.fns_down[0]

    for n in range(N):
        full = n < counts_min
        if not full:
            active = n < counts
            active_rows = lanes[active]
            if active_rows.size == 0:
                break
        t = times[:, n]
        T = t - last_in - last_delay
        if full and n > 0:
            pass  # every lane fed at step 0: last_in is finite everywhere
        elif full:
            T[last_in == _NEG_INF] = _INF
        else:
            T[active & (last_in == _NEG_INF)] = _INF
        if const_mode:
            delay = (program.const_up if rising[n] else program.const_down).copy()
        else:
            # Inactive lanes keep a harmless 0.0 (never read): garbage or
            # NaN here would raise invalid-value warnings downstream.
            # The evaluators run on plain Python floats (tolist), not
            # NumPy scalars -- same 64-bit values, several times cheaper
            # through ``math``.
            T_list = T.tolist()
            shared = uniform_up if rising[n] else uniform_down
            if full and shared is not None:
                delay = np.fromiter(map(shared, T_list), dtype=float, count=S)
            elif full:
                fns = program.fns_up if rising[n] else program.fns_down
                delay = np.array([fns[s](T_list[s]) for s in all_rows_list])
            else:
                fns = program.fns_up if rising[n] else program.fns_down
                delay = np.zeros(S)
                delay[active_rows] = [
                    fns[s](T_list[s]) for s in active_rows.tolist()
                ]
        if eta_mat is not None:
            add = eta_rows & np.isfinite(delay)
            if not full:
                add &= active
            if add.any():
                delay[add] = delay[add] + eta_mat[add, n]
        if full:
            np.copyto(last_in, t)
            np.copyto(last_delay, delay)
        else:
            last_in[active_rows] = t[active_rows]
            last_delay[active_rows] = delay[active_rows]
        np.add(t, delay, out=out_times[:, n])
    return out_times


def _run_frontier(
    program: _EdgeProgram,
    times: np.ndarray,
    counts: np.ndarray,
    out_times: np.ndarray,
    windows: np.ndarray,
    end_times: np.ndarray,
    out_values: np.ndarray,
    out_initial: int,
    on_causality: str,
    strict: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The cancellation phase of the lanes given (vector mirror of
    ``ChannelKernel.commit`` and ``deliver``): the pending frontier, run
    over the transition index in lockstep, each step a handful of masked
    array operations across lanes.  Each step's output time is read from
    the tentative matrix ``out_times``.

    Returns the delivered times (``[S, N]``, ``+inf`` padded), delivered
    counts, DELIVER events and dropped transitions of each lane.
    """
    S, N = times.shape
    events = np.zeros(S, dtype=np.int64)
    dropped = np.zeros(S, dtype=np.int64)
    pending_times = np.empty((S, N))
    pending_values = np.empty((S, N), dtype=np.int8)
    pending_risky = np.zeros((S, N), dtype=bool)
    head = np.zeros(S, dtype=np.int64)
    top = np.zeros(S, dtype=np.int64)
    delivered_times = np.full((S, N), _INF)
    delivered_counts = np.zeros(S, dtype=np.int64)
    delivered_value = np.full(S, out_initial, dtype=np.int8)
    last_delivered = np.full(S, _NEG_INF)
    lanes = np.arange(S)
    any_window = bool(np.any(windows > 0.0))

    def deliver_upto(limit: np.ndarray, mask: np.ndarray) -> None:
        # The offline counterpart of the event queue: pop the pending
        # frontier head while it has matured (time <= limit), suppressing
        # no-change deliveries -- one masked gather/scatter per frontier
        # depth, which stays tiny for FIFO-ish workloads.
        while True:
            rows = lanes[mask & (head < top)]
            if rows.size == 0:
                return
            ready_times = pending_times[rows, head[rows]]
            ready = ready_times <= limit[rows]
            rows = rows[ready]
            if rows.size == 0:
                return
            ready_times = ready_times[ready]
            values = pending_values[rows, head[rows]]
            risky = pending_risky[rows, head[rows]]
            head[rows] += 1
            events[rows] += 1
            changed = values != delivered_value[rows]
            # A same-instant (or time-reversed) delivery is benign while
            # it changes nothing: the engine suppresses it without ever
            # evaluating the gate.  Only a *value-changing* one opens an
            # interleaved batch the levelized evaluation cannot replay.
            if strict and bool(np.any(changed & risky)):
                reason = (
                    f"edge {program.name!r}: a channel scheduled a "
                    "same-instant (or earlier) delivery, which the "
                    "engine resolves with batch ordering the vector "
                    "backend cannot replay"
                )
                raise VectorUnsupportedError(
                    VectorCapability(False, (reason,))
                )
            rows = rows[changed]
            if rows.size:
                stamped = ready_times[changed]
                delivered_times[rows, delivered_counts[rows]] = stamped
                delivered_counts[rows] += 1
                delivered_value[rows] = values[changed]
                last_delivered[rows] = stamped

    counts_min = int(counts.min())
    all_lanes = np.ones(S, dtype=bool)
    for n in range(N):
        full = n < counts_min
        if full:
            active = all_lanes
        else:
            active = n < counts
            if not active.any():
                break
        t = times[:, n]
        deliver_upto(t, active)
        out_time = out_times[:, n]

        # Transport cancellation: the cancelled entries are exactly a
        # suffix of the time-sorted frontier; pop while the top is at or
        # after the new output time.
        while True:
            rows = lanes[(top > head) if full else (active & (top > head))]
            if rows.size == 0:
                break
            pop = pending_times[rows, top[rows] - 1] >= out_time[rows]
            rows = rows[pop]
            if rows.size == 0:
                break
            top[rows] -= 1
        # The inertial-window pop fires only on non-empty frontiers, so
        # applying the isfinite cut first cannot change which tops are
        # popped (a -inf output time just emptied the frontier above).
        if full:
            pushable = np.isfinite(out_time)
        else:
            pushable = active & np.isfinite(out_time)
        if any_window:
            rows = lanes[active & (windows > 0.0) & (top > head)]
            if rows.size:
                reject = (
                    out_time[rows] - pending_times[rows, top[rows] - 1]
                    < windows[rows]
                )
                rows = rows[reject]
                top[rows] -= 1
                pushable[rows] = False
        causal = pushable & (out_time <= last_delivered)
        if causal.any():
            violation = causal & (out_values[n] != delivered_value)
            if violation.any():
                if strict and on_causality == "error":
                    s = int(lanes[violation][0])
                    raise CausalityError(
                        f"channel {program.name!r} scheduled an output at "
                        f"{out_time[s]:g} but already delivered one at "
                        f"{last_delivered[s]:g}"
                    )
                dropped[violation] += 1
            pushable &= ~causal
        # Same-instant / time-reversed deliveries into a gate: an output
        # scheduled at (or before) its feeding instant t opens an engine
        # batch at an already-processed timestamp, after the engine has
        # run everything up to t -- other inputs of the gate, a time-0
        # settle transition, and deliveries of the gate's fan-out
        # channels past the reversed instant.  The levelized replay
        # cannot interleave those, so the entry is *flagged* here and
        # refused in ``deliver_upto`` if it matures as a value change.
        # A suppressed delivery (glitch cancellation delivers no value
        # change, so the engine never evaluates the gate) is harmless, and
        # so is any delivery into an output port, which feeds nothing.
        rows = lanes[pushable]
        pending_times[rows, top[rows]] = out_time[rows]
        pending_values[rows, top[rows]] = out_values[n]
        if program.target_is_gate:
            pending_risky[rows, top[rows]] = out_time[rows] <= t[rows]
        top[rows] += 1

    deliver_upto(end_times, all_lanes)
    return delivered_times, delivered_counts, events, dropped


def _eval_timed_edge(
    program: _EdgeProgram,
    source: _SignalMatrix,
    end_times: np.ndarray,
    on_causality: str,
    *,
    strict: bool = True,
) -> Tuple[_SignalMatrix, np.ndarray, np.ndarray]:
    """Run one edge's channel kernel over all scenarios.

    Mirrors ``ChannelKernel.tentative``/``commit``/``deliver`` (which the
    equivalence suite pins bit-identical to the event-driven engine) in
    the paper's two phases.  :func:`_tentative_outputs` gives every lane
    its tentative output times; it needs no frontier state, because T is
    measured from the previous *tentative* output.  A lane is *regular*
    when its channel has no rejection window and, over its transitions,
    every tentative output is finite, strictly after its own input time
    and strictly increasing.  Then nothing in the frontier can fire: a
    suffix pop needs an output at or before a pending one, a causality
    check ``out <= last_delivered <= t`` and a same-instant hazard
    ``out <= t``, and every delivery changes the value.  So a regular
    lane delivers its tentative row up to ``end_time``, its events are
    that count and it drops nothing.  The other lanes are gathered into
    one compact batch for :func:`_run_frontier`, the pending frontier;
    when every lane is regular it does not run.  Returns the delivered
    signal matrix plus per-scenario DELIVER-event and dropped counts.

    ``strict=False`` is the fixpoint scheduler's *deferred* mode: the
    source matrix is a provisional iterate whose suffix may be garbage,
    so conditions that would normally raise (causality violations,
    inadmissible adversary shifts, same-instant hazards) are silently
    degraded -- violations drop, shifts clip -- and the caller discards
    the event/drop counts.  Once the iterate converges, a final
    ``strict=True`` pass replays the edge exactly.  It refuses a value
    change delivered at or before its feeding instant, as every edge into
    a gate does; inside a feedback loop such a non-positive realised delay
    also breaks the contraction the fixpoint relies on (the scalar engine
    resolves those with batch ordering).
    """
    times, counts = source.times, source.counts
    S, N = times.shape
    out_initial = (1 - source.initial) if program.inverting else source.initial
    if N == 0:
        zeros = np.zeros(S, dtype=np.int64)
        return _empty_matrix(S, out_initial), zeros, zeros.copy()

    # Output values/polarity by transition index (scenario-uniform).
    in_values = ((np.arange(N) + 1) & 1) ^ source.initial
    out_values = (1 - in_values) if program.inverting else in_values
    rising = out_values == 1

    # Eta matrix: one row of adversarial shifts per scenario.
    eta_mat = None
    eta_rows = None
    if program.eta_builders is not None:
        eta_mat = np.zeros((S, N))
        eta_rows = np.zeros(S, dtype=bool)
        for s, builder in enumerate(program.eta_builders):
            if builder is None:
                continue
            n = int(counts[s])
            eta_rows[s] = True
            if n == 0:
                continue
            lo, hi = program.eta_lo[s], program.eta_hi[s]
            if strict:
                shifts = np.asarray(
                    builder(times[s, :n], rising[:n]), dtype=float
                )
                if np.any((shifts < lo) | (shifts > hi)):
                    bad = shifts[(shifts < lo) | (shifts > hi)][0]
                    bound = program.eta_bounds[s]
                    raise ValueError(
                        f"adversary produced inadmissible shift {bad} outside "
                        f"[-{bound.eta_minus}, {bound.eta_plus}]"
                    )
            else:
                # Deferred iterate: shifts drawn for a garbage suffix may
                # be inadmissible; clip them (the converged strict pass
                # re-validates) and turn builder refusals into fallback.
                try:
                    shifts = np.asarray(
                        builder(times[s, :n], rising[:n]), dtype=float
                    )
                except ValueError as exc:
                    raise VectorUnsupportedError(
                        VectorCapability(
                            False, (f"edge {program.name!r}: {exc}",)
                        )
                    )
                shifts = np.minimum(np.maximum(shifts, lo), hi)
            eta_mat[s, :n] = shifts

    out_times = _tentative_outputs(program, times, counts, rising, eta_mat, eta_rows)

    valid = np.arange(N) < counts[:, None]
    irregular = valid & ~(np.isfinite(out_times) & (out_times > times))
    irregular[:, 1:] |= valid[:, 1:] & ~(out_times[:, 1:] > out_times[:, :-1])
    regular = (program.windows == 0.0) & ~irregular.any(axis=1)

    # Regular lanes: the tentative row, cut at the horizon.  Every input
    # time is at or before it (ports are truncated there and edges deliver
    # no later), so no earlier step delivered past it.
    kept = valid & (out_times <= end_times[:, None]) & regular[:, None]
    delivered_times = np.where(kept, out_times, _INF)
    delivered_counts = kept.sum(axis=1, dtype=np.int64)
    events = delivered_counts.copy()
    dropped = np.zeros(S, dtype=np.int64)
    rows = np.flatnonzero(~regular)
    if rows.size:
        # The other lanes, gathered into one compact batch.
        lane_times, lane_counts, lane_events, lane_dropped = _run_frontier(
            program, times[rows], counts[rows], out_times[rows],
            program.windows[rows], end_times[rows], out_values, out_initial,
            on_causality, strict,
        )
        delivered_times[rows] = lane_times
        delivered_counts[rows] = lane_counts
        events[rows] = lane_events
        dropped[rows] = lane_dropped
    width = int(delivered_counts.max())
    return (
        _SignalMatrix(delivered_times[:, :width], delivered_counts, out_initial),
        events,
        dropped,
    )


# --------------------------------------------------------------------------- #
# Vectorized gate evaluation
# --------------------------------------------------------------------------- #


def _gate_table_array(gate_type, k: int) -> np.ndarray:
    """Flatten a gate truth table into a dense dispatch-code lookup array."""
    table = gate_type.truth_table()
    array = np.zeros(1 << k, dtype=np.int8)
    for key, value in table.items():
        code = 0
        for bit in key:
            code = (code << 1) | bit
        array[code] = value
    return array


def _eval_gate(
    gate_initial: int,
    table: np.ndarray,
    inputs: List[_SignalMatrix],
    end_times: np.ndarray,
) -> _SignalMatrix:
    """Evaluate one gate over all scenarios from its input edge signals.

    Merges the input transition times per scenario (plus the time-0
    settle evaluation the engine schedules), reads each input's value at
    every merged time via ``searchsorted`` parity counts, dispatches
    through the flattened truth table, and keeps exactly the evaluations
    that change the running output value -- the same evaluations the
    event loop performs batch by batch.
    """
    S = len(end_times)
    k = len(inputs)
    if k == 1:
        src = inputs[0]
        flips = table[0] != table[1]
        consistent = table[src.initial] == gate_initial
        positive = (
            src.times.shape[1] == 0
            or bool(np.all(src.times[:, 0] > 0.0))
        )
        if flips and consistent and positive:
            # BUF/INV chains with consistent initial values: the output
            # transitions at exactly the input times (values implied by
            # alternation), and the settle pass is a no-op.
            return _SignalMatrix(src.times, src.counts, gate_initial)

    widths = [m.times.shape[1] for m in inputs]
    total = 1 + sum(widths)
    merged = np.full((S, total), _INF)
    # The settle evaluation at time 0; the engine skips it for horizons
    # before 0 (the event loop breaks before reaching the settle batch).
    merged[:, 0] = np.where(end_times >= 0.0, 0.0, _INF)
    column = 1
    for matrix in inputs:
        width = matrix.times.shape[1]
        if width:
            merged[:, column : column + width] = matrix.times
        column += width
    merged.sort(axis=1)
    finite = np.isfinite(merged)
    keep = finite.copy()
    keep[:, 1:] &= merged[:, 1:] != merged[:, :-1]

    codes = np.zeros((S, total), dtype=np.intp)
    for matrix in inputs:
        values = np.empty((S, total), dtype=np.intp)
        for s in range(S):
            row = matrix.times[s, : matrix.counts[s]]
            values[s] = np.searchsorted(row, merged[s], side="right")
        codes = (codes << 1) | ((values & 1) ^ matrix.initial)
    out_values = table[codes]

    # Left-pack the kept evaluations, then keep only value changes.
    order = np.argsort(~keep, axis=1, kind="stable")
    packed_times = np.take_along_axis(merged, order, axis=1)
    packed_values = np.take_along_axis(out_values, order, axis=1)
    kept = keep.sum(axis=1)
    columns = np.arange(total)
    previous = np.concatenate(
        [np.full((S, 1), gate_initial, dtype=packed_values.dtype),
         packed_values[:, :-1]],
        axis=1,
    )
    change = (packed_values != previous) & (columns[None, :] < kept[:, None])
    order = np.argsort(~change, axis=1, kind="stable")
    out_times = np.take_along_axis(packed_times, order, axis=1)
    out_counts = change.sum(axis=1).astype(np.int64)
    out_times[columns[None, :] >= out_counts[:, None]] = _INF
    width = int(out_counts.max()) if S else 0
    return _SignalMatrix(out_times[:, :width], out_counts, gate_initial)


# --------------------------------------------------------------------------- #
# Compilation
# --------------------------------------------------------------------------- #


@dataclass
class VectorProgram:
    """A sweep compiled onto the vector backend, ready to execute.

    Produced by :func:`compile_sweep`; :meth:`run` evaluates every
    scenario simultaneously and returns per-scenario
    :class:`~repro.engine.sweep.RunResult` objects bit-identical to the
    scalar sequential backend.
    """

    topology: CircuitTopology
    scenarios: Sequence[object]
    on_causality: str
    max_events: int
    report: VectorCapability = field(default_factory=lambda: VectorCapability(True))
    #: SCCs in condensation topological order: the evaluation order.
    components: List[List[int]] = field(repr=False, default_factory=list)
    edge_programs: Dict[int, _EdgeProgram] = field(repr=False, default_factory=dict)
    port_initials: Dict[str, int] = field(repr=False, default_factory=dict)
    #: Cost of the last :meth:`run` in scalar events, from its lockstep
    #: steps: every timed-edge evaluation, and every edge evaluation of a
    #: fixpoint pass, takes one step per transition index of its source
    #: signal (the ``backend="auto"`` cost model).
    lockstep_cost: float = field(default=0.0, init=False)

    def run(self, *, _cost_limited: bool = False) -> List[object]:
        """Execute all scenarios and assemble per-scenario results.

        The cyclic garbage collector is paused for the duration: a large
        sweep allocates its long-lived result signals, dicts and run
        records in one burst, and generational collections would only
        rescan that growing heap.

        ``_cost_limited`` is the ``backend="auto"`` mode: after each
        fixpoint pass the run stops with ``_ScalarCheaper`` once its
        lockstep cost exceeds what the scalar engine would pay.
        """
        import gc

        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._run(_cost_limited)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run(self, cost_limited: bool) -> List[object]:
        from .sweep import RunResult

        start = _time.perf_counter()
        topo = self.topology
        scenarios = list(self.scenarios)
        S = len(scenarios)
        end_times = np.array([float(sc.end_time) for sc in scenarios])

        # --- input ports: truncate to each scenario's horizon ------------- #
        node_matrices: Dict[int, _SignalMatrix] = {}
        port_slices: Dict[str, List[tuple]] = {}
        event_counts = np.zeros(S, dtype=np.int64)
        for pid, pname in zip(topo.input_port_ids, topo.input_ports):
            counts = np.zeros(S, dtype=np.int64)
            rows = []
            for s, scenario in enumerate(scenarios):
                row = _signal_times(scenario.inputs[pname])
                n = bisect_right(row, float(scenario.end_time))
                counts[s] = n
                rows.append(row[:n])
            width = int(counts.max())
            times = np.full((S, width), _INF)
            for s, row in enumerate(rows):
                times[s, : len(row)] = row
            node_matrices[pid] = _SignalMatrix(
                times, counts, self.port_initials[pname]
            )
            port_slices[pname] = rows
            event_counts += counts

        if topo.gate_ids:
            event_counts += (end_times >= 0.0).astype(np.int64)

        # --- levelized / fixpoint evaluation ------------------------------ #
        edge_matrices: Dict[int, _SignalMatrix] = {}
        dropped_counts = np.zeros(S, dtype=np.int64)
        steps = pass_steps = 0

        def node_incoming(nid: int) -> Tuple[int, str, Tuple[int, ...]]:
            kind = topo.node_kind[nid]
            name = topo.node_names[nid]
            incoming = (
                topo.gate_input_edge_ids[nid]
                if kind == _NODE_GATE
                else tuple(
                    topo.edge_index[e.name] for e in topo.edges_into[name]
                )
            )
            return kind, name, incoming

        def eval_edge(eid: int, *, strict: bool = True) -> int:
            # Returns the DELIVER events of the evaluation, summed over lanes.
            nonlocal event_counts, dropped_counts, steps, pass_steps
            program = self.edge_programs[eid]
            source = node_matrices[program.source_id]
            if not strict:
                # A fixpoint pass, wires included: both the iteration
                # budget and the cost model count these steps.
                pass_steps += source.times.shape[1]
            if program.zero_delay:
                initial = (
                    (1 - source.initial) if program.inverting else source.initial
                )
                edge_matrices[eid] = _SignalMatrix(
                    source.times, source.counts, initial
                )
                return 0
            delivered, events, dropped = _eval_timed_edge(
                program, source, end_times, self.on_causality, strict=strict
            )
            edge_matrices[eid] = delivered
            if strict:
                steps += source.times.shape[1]
                event_counts += events
                dropped_counts += dropped
            return int(events.sum())

        def check_same_instant(name: str, incoming: Tuple[int, ...]) -> None:
            # The tie-break pass: a gate's same-instant arrivals replay
            # exactly when they all land in one engine wave.  Arrivals
            # are classified by wave -- timed deliveries (batch wave 0),
            # zero-delay edges from input ports (delta cycle 1), and
            # zero-delay edges keyed per source gate (whichever delta
            # cycle that gate changed in).  Within one class the merged
            # evaluation in ``_eval_gate`` applies every arrival in a
            # single evaluation, mirroring the Scheduler's wave; arrivals
            # from *distinct* classes at one instant would interleave
            # evaluations the levelized pass cannot see, so refuse and
            # let ``run_many`` fall back.
            classes: Dict[object, List[_SignalMatrix]] = {}
            for eid in incoming:
                program = self.edge_programs[eid]
                if program.zero_delay:
                    src = program.source_id
                    key: object = (
                        ("gate", src)
                        if topo.node_kind[src] == _NODE_GATE
                        else "ports"
                    )
                else:
                    key = "deliver"
                classes.setdefault(key, []).append(edge_matrices[eid])
            if len(classes) < 2:
                return
            groups = list(classes.values())
            for i in range(len(groups)):
                for j in range(i + 1, len(groups)):
                    for ma in groups[i]:
                        for mb in groups[j]:
                            for s in range(S):
                                a = ma.times[s, : ma.counts[s]]
                                b = mb.times[s, : mb.counts[s]]
                                if (
                                    a.size
                                    and b.size
                                    and np.intersect1d(a, b).size
                                ):
                                    raise VectorUnsupportedError(
                                        VectorCapability(
                                            False,
                                            (
                                                f"gate {name!r}: same-instant "
                                                "arrivals through zero-delay "
                                                "and timed paths interleave "
                                                "across engine delta cycles "
                                                "the vector backend cannot "
                                                "replay",
                                            ),
                                        )
                                    )

        def eval_node(nid: int) -> None:
            kind, name, incoming = node_incoming(nid)
            for eid in incoming:
                eval_edge(eid)
            if kind == _NODE_GATE:
                check_same_instant(name, incoming)
                node_matrices[nid] = _eval_gate(
                    topo.gate_initial_by_node[nid],
                    _gate_table_array(topo.gate_types[name], len(incoming)),
                    [edge_matrices[eid] for eid in incoming],
                    end_times,
                )
            elif kind == _NODE_OUTPUT:
                node_matrices[nid] = edge_matrices[incoming[0]]

        def run_component(members: List[int]) -> None:
            # Iterate-to-fixpoint lockstep over one feedback component.
            # Gauss-Seidel from empty member signals: every pass extends
            # the correct prefix by at least the loop's minimum realised
            # delay, so the iterate converges once the prefix covers the
            # horizon.  Deliveries beyond ``end_time`` never enter the
            # matrices, which bounds the fixpoint.
            member_set = set(members)
            gates = []
            for gid in sorted(members):
                kind, name, incoming = node_incoming(gid)
                if kind != _NODE_GATE:
                    # Unreachable: ports have no in-edges and output
                    # ports no out-edges, so cycles contain only gates.
                    raise SimulationError(
                        f"feedback component contains non-gate node {name!r}"
                    )
                internal = tuple(
                    eid
                    for eid in incoming
                    if self.edge_programs[eid].source_id in member_set
                )
                external = tuple(
                    eid for eid in incoming if eid not in internal
                )
                table = _gate_table_array(
                    topo.gate_types[name], len(incoming)
                )
                gates.append((gid, name, incoming, internal, external, table))

            # External context: upstream of the loop, evaluated exactly
            # once (strict, counted) like any acyclic edge.
            for gid, name, incoming, internal, external, table in gates:
                for eid in external:
                    eval_edge(eid)
            for gid, *_ in gates:
                node_matrices[gid] = _empty_matrix(
                    S, topo.gate_initial_by_node[gid]
                )

            iterations = 0
            entry_pass_steps = pass_steps
            while True:
                iterations += 1
                before = [
                    (
                        node_matrices[gid].times.tobytes(),
                        node_matrices[gid].counts.tobytes(),
                    )
                    for gid, *_ in gates
                ]
                iterate_events = 0
                for gid, name, incoming, internal, external, table in gates:
                    for eid in internal:
                        iterate_events += eval_edge(eid, strict=False)
                    node_matrices[gid] = _eval_gate(
                        topo.gate_initial_by_node[gid],
                        table,
                        [edge_matrices[eid] for eid in incoming],
                        end_times,
                    )
                after = [
                    (
                        node_matrices[gid].times.tobytes(),
                        node_matrices[gid].counts.tobytes(),
                    )
                    for gid, *_ in gates
                ]
                if after == before:
                    break
                if cost_limited:
                    # The scalar engine would pay the events counted so far
                    # plus the loop's deliveries in the current iterate.
                    vector_cost = _lockstep_cost(steps, S, pass_steps)
                    scalar_cost = int(event_counts.sum()) + iterate_events
                    if vector_cost > scalar_cost:
                        raise _ScalarCheaper(iterations, vector_cost, scalar_cost)
                width = max(
                    node_matrices[gid].times.shape[1] for gid, *_ in gates
                )
                names = sorted(name for _, name, *_ in gates)
                if iterations > 96 and width > iterations:
                    # Signals growing faster than the iteration count is
                    # the free-running-oscillator signature; converging
                    # storage loops keep a bounded width while the
                    # prefix sweeps the horizon.
                    raise VectorUnsupportedError(
                        VectorCapability(
                            False,
                            (
                                f"feedback loop through gates {names} "
                                "keeps generating transitions instead of "
                                "converging (free-running oscillation is "
                                "inherently event-driven)",
                            ),
                        )
                    )
                if pass_steps - entry_pass_steps > 150_000 or iterations > 20_000:
                    raise VectorUnsupportedError(
                        VectorCapability(
                            False,
                            (
                                f"feedback loop through gates {names} "
                                "exceeded the fixpoint iteration budget "
                                f"({iterations} passes)",
                            ),
                        )
                    )

            # Converged: replay the loop channels once, strictly, to
            # count events/drops and surface causality, admissibility
            # and same-instant errors exactly as the acyclic path would.
            for gid, name, incoming, internal, external, table in gates:
                for eid in internal:
                    eval_edge(eid, strict=True)
                check_same_instant(name, incoming)

        for component in self.components:
            nid = component[0]
            if len(component) == 1 and not any(
                topo.edge_target_id[eid] == nid for eid in topo.out_edge_ids[nid]
            ):
                eval_node(nid)
            else:
                run_component(component)

        self.lockstep_cost = _lockstep_cost(steps, S, pass_steps)
        over = event_counts > self.max_events
        if over.any():
            raise SimulationError(
                f"exceeded max_events={self.max_events}; "
                "the circuit may be oscillating (raise the limit or shorten end_time)"
            )

        # --- assemble per-scenario executions ----------------------------- #
        def row_signal(matrix: _SignalMatrix, s: int) -> Signal:
            row = matrix.times[s, : matrix.counts[s]]
            return _signal_from_times(matrix.initial, array("d", row.tobytes()))

        runs: List[object] = []
        for s, scenario in enumerate(scenarios):
            node_signals: Dict[str, Signal] = {}
            for pid, pname in zip(topo.input_port_ids, topo.input_ports):
                node_signals[pname] = _signal_from_times(
                    self.port_initials[pname], port_slices[pname][s]
                )
            for gid, gname in zip(topo.gate_ids, topo.gate_names):
                node_signals[gname] = row_signal(node_matrices[gid], s)
            edge_signals: Dict[str, Signal] = {}
            for eid, ename in enumerate(topo.edge_names):
                edge_signals[ename] = row_signal(edge_matrices[eid], s)
            for oname in topo.output_ports:
                node_signals[oname] = edge_signals[topo.output_driver[oname].name]
            output_signals = {
                oname: node_signals[oname] for oname in topo.output_ports
            }
            runs.append(
                RunResult(
                    scenario=scenario,
                    execution=Execution(
                        circuit=topo.circuit,
                        node_signals=node_signals,
                        edge_signals=edge_signals,
                        output_signals=output_signals,
                        end_time=scenario.end_time,
                        event_count=int(event_counts[s]),
                        dropped_transitions=int(dropped_counts[s]),
                    ),
                    seconds=0.0,
                )
            )
        elapsed = _time.perf_counter() - start
        per_run_seconds = elapsed / max(1, S)
        for run in runs:
            run.seconds = per_run_seconds
        return runs


def compile_sweep(
    topology,
    scenarios: Sequence[object],
    *,
    on_causality: str = "error",
    max_events: int = 1_000_000,
) -> VectorProgram:
    """Compile a sweep onto the vector backend.

    Raises :class:`VectorUnsupportedError` (carrying the full
    :class:`VectorCapability` report) when the circuit or any scenario's
    channels cannot be expressed; use :func:`vector_capability` for a
    non-raising probe.
    """
    if on_causality not in CAUSALITY_MODES:
        raise ValueError(f"on_causality must be one of {list(CAUSALITY_MODES)}")
    topo = (
        topology
        if isinstance(topology, CircuitTopology)
        else CircuitTopology(topology)
    )
    report, program = _compile(topo, scenarios, on_causality, int(max_events))
    if program is None:
        raise VectorUnsupportedError(report)
    return program


def vector_capability(topology, scenarios: Sequence[object]) -> VectorCapability:
    """Probe whether a sweep can run on the vector backend, without raising.

    Returns a :class:`VectorCapability` whose ``reasons`` list every
    obstacle found (unsupported channel or adversary types,
    zero-delay-only cycles, settle-instant glitches through zero-delay
    edges, scenario-dependent structure); an empty list means
    :func:`compile_sweep` will succeed.
    Sweeps that are invalid for *every* backend (missing or unknown input
    ports, overrides for unknown edges -- the checks ``Engine.run`` would
    fail too) are reported as unsupported with an ``invalid sweep:``
    reason instead of raising.
    """
    topo = (
        topology
        if isinstance(topology, CircuitTopology)
        else CircuitTopology(topology)
    )
    try:
        report, _ = _compile(topo, scenarios, "error", 1_000_000)
    except SimulationError as exc:
        return VectorCapability(False, (f"invalid sweep: {exc}",))
    return report


def _predrawn_channels(
    topo: CircuitTopology, scenarios: Sequence[object], seed=None
) -> Dict[Tuple[int, str], object]:
    """Seeded replacements for unseeded-RandomAdversary channels.

    Scans every (scenario, edge) slot in a fixed order and, for each one
    whose effective channel carries an unseeded
    :class:`~repro.core.adversary.RandomAdversary`, builds a
    ``with_adversary`` copy holding a pre-drawn integer seed.  Keys are
    ``(scenario_index, edge_name)``.  With ``seed=None`` the draws come
    from fresh OS entropy -- exactly the fresh-entropy-per-run semantics
    the unseeded adversary has on the scalar engine; a given ``seed``
    reproduces the same assignment, which is what lets both backends be
    run on identical draws.
    """
    from ..core.adversary import RandomAdversary
    from ..core.eta_channel import EtaInvolutionChannel

    pending: List[Tuple[int, str, object]] = []
    for s, scenario in enumerate(scenarios):
        overrides = scenario.channels or {}
        for eid, ename in enumerate(topo.edge_names):
            channel = overrides.get(ename, topo.edge_list[eid].channel)
            if (
                type(channel) is EtaInvolutionChannel
                and type(channel.adversary) is RandomAdversary
                and channel.adversary._seed is None
            ):
                pending.append((s, ename, channel))
    if not pending:
        return {}
    seeds = np.random.SeedSequence(seed).generate_state(
        len(pending), dtype=np.uint64
    )
    replacements: Dict[Tuple[int, str], object] = {}
    for (s, ename, channel), drawn in zip(pending, seeds):
        adversary = channel.adversary
        replacements[(s, ename)] = channel.with_adversary(
            RandomAdversary(
                seed=int(drawn),
                distribution=adversary.distribution,
                sigma_fraction=adversary.sigma_fraction,
            )
        )
    return replacements


def predraw_random_adversaries(
    topology, scenarios: Sequence[object], *, seed=None
) -> List[object]:
    """Materialise every unseeded RandomAdversary as a seeded copy.

    Returns a new scenario list in which each (scenario, edge) slot whose
    channel draws fresh entropy per run is overridden by a copy carrying
    a pre-drawn seed; scenarios with no such channels are returned as-is.
    Running *both* backends on the returned scenarios makes their draws
    identical -- the differential suite uses this to compare scalar and
    vector bit-for-bit on otherwise-unreplayable sweeps.  ``compile_sweep``
    performs the same materialisation internally (with fresh entropy), so
    plain ``run_many(backend="vector")`` needs no preparation.
    """
    from dataclasses import replace

    topo = (
        topology
        if isinstance(topology, CircuitTopology)
        else CircuitTopology(topology)
    )
    scenarios = list(scenarios)
    replacements = _predrawn_channels(topo, scenarios, seed)
    if not replacements:
        return scenarios
    out: List[object] = []
    for s, scenario in enumerate(scenarios):
        news = {
            ename: channel
            for (si, ename), channel in replacements.items()
            if si == s
        }
        if not news:
            out.append(scenario)
            continue
        channels = dict(scenario.channels or {})
        channels.update(news)
        out.append(replace(scenario, channels=channels, fingerprint=None))
    return out


def _compile(
    topo: CircuitTopology,
    scenarios: Sequence[object],
    on_causality: str,
    max_events: int,
) -> Tuple[VectorCapability, Optional[VectorProgram]]:
    """Check capability via the shared analyzer, then build the program.

    All obstacle detection lives in
    :func:`repro.engine.capability.analyze_sweep` (shared with the static
    linter's fallback prediction); this function only materialises the
    per-edge numpy programs once the analysis comes back clean.  Unseeded
    RandomAdversary channels are replaced here by seeded copies with
    pre-drawn per-(scenario, edge) seeds -- fresh entropy per compile,
    mirroring the scalar engine's fresh draws per run.  The scenario
    objects themselves are left untouched (results keep their identity).
    """
    scenarios = list(scenarios)
    analysis = analyze_sweep(topo, scenarios)
    if analysis.reasons:
        return analysis.capability(), None

    predrawn = _predrawn_channels(topo, scenarios)
    edge_programs: Dict[int, _EdgeProgram] = {}
    fn_cache: Dict = {}
    for eid, ename in enumerate(topo.edge_names):
        edge = topo.edge_list[eid]
        run_channels = [
            predrawn.get((s, ename))
            or (scenario.channels or {}).get(ename, edge.channel)
            for s, scenario in enumerate(scenarios)
        ]
        edge_programs[eid] = _compile_edge(
            analysis.edge_facts[eid], ename, run_channels, fn_cache
        )

    program = VectorProgram(
        topology=topo,
        scenarios=scenarios,
        on_causality=on_causality,
        max_events=max_events,
        components=analysis.components,
        edge_programs=edge_programs,
        port_initials=analysis.port_initials,
    )
    return VectorCapability(True), program

