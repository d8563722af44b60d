"""Fitting exp-channel parameters to measured delay samples (Fig. 9).

Question (c) of Section V asks whether the behaviour of a real inverter can
be matched by a *parametrised exp-channel* -- attractive because the three
exp-channel parameters (RC constant ``tau``, pure delay ``t_p``, threshold
``v_th``) are far easier to calibrate than a full measured delay function.
This module performs that calibration by non-linear least squares on the
measured ``(T, delta)`` samples of both polarities simultaneously (the
involution property ties the two polarities to the same three parameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.delay_functions import ExpDelay
from ..core.involution import InvolutionPair
from .characterize import DelayMeasurement

__all__ = ["ExpFitResult", "fit_exp_channel", "exp_delay_model"]


def exp_delay_model(T: np.ndarray, tau: float, t_p: float, v_eff: float) -> np.ndarray:
    """Vectorised exp-channel delay ``delta(T)`` for effective threshold ``v_eff``.

    Out-of-domain arguments (where the true delay diverges to ``-inf``)
    return a large negative number so the least-squares residual heavily
    penalises parameter sets whose domain excludes measured samples.
    """
    T = np.asarray(T, dtype=float)
    argument = 1.0 - np.exp(-(T + t_p - tau * math.log(v_eff)) / tau)
    out = np.full_like(T, -1e6)
    valid = argument > 0
    out[valid] = tau * np.log(argument[valid]) + t_p - tau * math.log(1.0 - v_eff)
    return out


@dataclass
class ExpFitResult:
    """Result of an exp-channel fit.

    Attributes
    ----------
    tau, t_p, v_th:
        Fitted exp-channel parameters.
    rms_residual:
        Root-mean-square residual over all samples used in the fit.
    max_residual:
        Largest absolute residual.
    n_samples:
        Number of samples used.
    """

    tau: float
    t_p: float
    v_th: float
    rms_residual: float
    max_residual: float
    n_samples: int

    def pair(self) -> InvolutionPair:
        """The fitted exp-channel as an involution pair."""
        return InvolutionPair.exp_channel(self.tau, self.t_p, self.v_th)

    def delta_up(self) -> ExpDelay:
        """The fitted rising-output delay function."""
        return ExpDelay(self.tau, self.t_p, self.v_th, rising=True)

    def delta_down(self) -> ExpDelay:
        """The fitted falling-output delay function."""
        return ExpDelay(self.tau, self.t_p, self.v_th, rising=False)


def fit_exp_channel(
    measurement: DelayMeasurement,
    *,
    fit_threshold: bool = True,
    initial: Optional[Tuple[float, float, float]] = None,
    weight_small_T: float = 1.0,
) -> ExpFitResult:
    """Fit exp-channel parameters to a delay measurement.

    Parameters
    ----------
    measurement:
        Samples of both polarities from
        :class:`~repro.fitting.characterize.CharacterizationDriver`.
    fit_threshold:
        If False, the threshold is pinned to 0.5 and only ``tau``/``t_p``
        are fitted.
    initial:
        Optional ``(tau, t_p, v_th)`` starting point; estimated from the
        data if omitted.
    weight_small_T:
        Weight multiplier applied to samples with ``T`` below the median;
        values above 1 emphasise the small-``T`` region that matters for
        faithfulness (the paper's Fig. 9 discussion).
    """
    T_up, d_up = measurement.rising()
    T_down, d_down = measurement.falling()
    if len(T_up) + len(T_down) < 3:
        raise ValueError("need at least three samples to fit an exp-channel")

    all_d = np.concatenate([d_up, d_down])
    all_T = np.concatenate([T_up, T_down])
    d_max = float(np.max(all_d))
    if initial is None:
        tau0 = max(0.3 * d_max, 1e-3)
        t_p0 = max(0.5 * float(np.min(all_d)), 1e-3)
        initial = (tau0, t_p0, 0.5)

    median_T = float(np.median(all_T)) if len(all_T) else 0.0

    def weights(T: np.ndarray) -> np.ndarray:
        w = np.ones_like(T)
        if weight_small_T != 1.0:
            w[T <= median_T] = weight_small_T
        return w

    def residuals(params: np.ndarray) -> np.ndarray:
        tau, t_p = params[0], params[1]
        v_th = params[2] if fit_threshold else 0.5
        res_up = (exp_delay_model(T_up, tau, t_p, v_th) - d_up) * weights(T_up)
        res_down = (exp_delay_model(T_down, tau, t_p, 1.0 - v_th) - d_down) * weights(T_down)
        return np.concatenate([res_up, res_down])

    if fit_threshold:
        x0 = np.array(initial, dtype=float)
        lower = np.array([1e-6, 1e-6, 0.05])
        upper = np.array([np.inf, np.inf, 0.95])
    else:
        x0 = np.array(initial[:2], dtype=float)
        lower = np.array([1e-6, 1e-6])
        upper = np.array([np.inf, np.inf])

    from scipy import optimize

    solution = optimize.least_squares(
        residuals, x0, bounds=(lower, upper), method="trf", max_nfev=2000
    )
    tau = float(solution.x[0])
    t_p = float(solution.x[1])
    v_th = float(solution.x[2]) if fit_threshold else 0.5
    final = residuals(solution.x)
    return ExpFitResult(
        tau=tau,
        t_p=t_p,
        v_th=v_th,
        rms_residual=float(np.sqrt(np.mean(final**2))),
        max_residual=float(np.max(np.abs(final))),
        n_samples=len(final),
    )
