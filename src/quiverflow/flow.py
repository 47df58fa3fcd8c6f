"""Downward gradient flow of the energy with step acceptance control.

Classical 4th-order explicit steps with step-doubling acceptance: a trial
step is kept iff the energy does not increase (within 1e-12 relative slack),
the constraint increment stays below _DRIFT_TOL * dt, and the full-step vs
two-half-steps discrepancy stays below _STEP_TOL.  The half-step composition
is what gets propagated.  Rejection halves dt, and a dt below _DT_MIN ends the
flow with step_underflow; five consecutive accepts grow it by 1.5x.  dt_init
is only the first step: the three acceptance tests bound every later one.  A
step that would pass max_time is cut to end there.  No projection back onto
the constraint set is performed: drift is monitored and reported.

The state is one packed (E, d, d) array of zero-padded edge matrices (``rep``
module docstring, "Packed layout"): the validated input copy is packed once,
and the limit is unpacked once into a validated Representation.  The stage
slopes, the full step, the half-steps and the trial point are packed arrays
too, so each RK4 combination, the step-error norm and the state norm is one
array operation; only the handsaw constraint reads edge-matrix views.  The
gradient at the current state comes from the same H = i(mu - alpha) as the
energy there, and serves as the first slope of the full step, of the first
half-step and of every retry after a rejection (a rejection leaves the state
unchanged).  The full step and the first half-step run as one batch of two
step sizes, so an attempt builds H 8 times: 3 batched stages, 4 for the
second half-step and 1 at the trial point for its energy and gradient.  A
stage that overflows leaves inf/NaN in the full or the two-half-step result
(an inf entry of A reaches the diagonal of A A*, and from there every later
stage), so the error estimate is then inf/NaN and the attempt is rejected.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quiver import Quiver, handsaw_roles
from .rep import (
    Representation,
    _complex_moment,
    _energy_and_grad,
    _gradient,
    _layout,
    _sqnorm,
    _view,
    mats_norm,
)

_ENERGY_SLACK = 1e-12
_DT_MIN = 1e-9
_DRIFT_TOL = 1e-8
_STEP_TOL = 1e-9
# every tenth accepted step goes into the trajectory, plus the first and last
_SAMPLE_STRIDE = 10


@dataclass(frozen=True)
class FlowOptions:
    dt_init: float = 1e-2
    grad_tol: float = 1e-8
    max_time: float = 1e4
    max_steps: int = 1_000_000
    constraint: str = "auto"  # auto | none | doubled | handsaw

    def __post_init__(self):
        # a dt_init below _DT_MIN underflows at its first rejection, and an
        # infinite one is halved forever
        if not (np.isfinite(self.dt_init) and self.dt_init >= _DT_MIN):
            raise ValueError(f"dt_init must be finite and at least {_DT_MIN}, got {self.dt_init!r}")
        for name in ("grad_tol", "max_time"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be nonnegative, got {self.max_steps!r}")


@dataclass
class FlowResult:
    limit: Representation
    status: str  # converged | max_time | max_steps | step_underflow
    trajectory: np.ndarray  # columns t, energy, grad_norm, constraint_norm
    final_grad_norm: float
    final_energy: float
    final_constraint: float
    steps: int
    time: float
    options: FlowOptions


def resolve_constraint(quiver: Quiver, kind: str) -> str:
    if kind == "auto":
        if quiver.pairing is not None:
            return "doubled"
        # a framing label a_<v>^<j> reads as a handsaw edge, so only B2 loops count
        if any(r is not None and r[0] == "B2" for r in handsaw_roles(quiver)):
            return "handsaw"
        return "none"
    if kind not in ("none", "doubled", "handsaw"):
        raise ValueError(f"unknown constraint kind {kind!r}")
    return kind


def _rk4(grad, A: np.ndarray, k1: np.ndarray, dt) -> np.ndarray:
    """One classical 4th-order step down the gradient from the packed edge
    matrices A, where k1 is the gradient at A.  dt may be an array of shape
    (n, 1, 1, 1): the result then carries a leading batch axis, one step per
    step size."""
    k2 = grad(A - (dt / 2.0) * k1)
    k3 = grad(A - (dt / 2.0) * k2)
    k4 = grad(A - dt * k3)
    return A - (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _norm(a: np.ndarray) -> float:
    return float(np.sqrt(_sqnorm(a)))


def flow(x0: Representation, alpha, opts: FlowOptions | None = None) -> FlowResult:
    """Integrate the downward energy flow from x0 until the gradient is small."""
    opts = opts or FlowOptions()
    kind = resolve_constraint(x0.quiver, opts.constraint)
    start = x0.copy()
    lay = _layout(start.quiver, start.dims)
    shift = lay.shift(alpha)

    def grad(A):
        return _gradient(lay, A, shift)

    def constraint(A):
        if kind == "doubled":
            return _norm(_complex_moment(lay, A))
        if kind == "handsaw":
            from .correspond import handsaw_constraint

            return mats_norm(handsaw_constraint(_view(start, lay.edges(A))))
        return 0.0

    x = lay.pack(start.mats)
    t = 0.0
    steps = 0
    dt = float(opts.dt_init)
    run = 0
    with np.errstate(over="ignore", invalid="ignore"):
        E, k1 = _energy_and_grad(lay, x, shift)
        g = _norm(k1)
    if not (np.isfinite(E) and np.isfinite(g)):
        raise ValueError(f"flow start has non-finite energy {E:.3e} or gradient norm {g:.3e}")
    c = constraint(x)
    scale = _norm(x)
    samples = [(t, E, g, c)]
    status = None

    while True:
        if g < opts.grad_tol:
            status = "converged"
            break
        if steps >= opts.max_steps:
            status = "max_steps"
            break
        if t >= opts.max_time:
            status = "max_time"
            break
        last = t + dt >= opts.max_time
        h = opts.max_time - t if last else dt
        with np.errstate(over="ignore", invalid="ignore"):
            full, mid = _rk4(grad, x, k1, np.array([h, h / 2.0])[:, None, None, None])
            trial = _rk4(grad, mid, grad(mid), h / 2.0)
            # an overflowing stage leaves inf/NaN in full or trial (mid feeds
            # trial), so est is inf/NaN and fails the comparison
            est = _norm(full - trial)
            # the acceptance tests keep their 1 + |x| floors: other gates
            # would change every trajectory
            ok = est <= _STEP_TOL * (1.0 + scale)
            if ok:
                E_t, k1_t = _energy_and_grad(lay, trial, shift)
                c_t = constraint(trial)
                # the constraint increment gets a roundoff floor so shrinking dt
                # cannot make the bound unsatisfiable; the floor keeps cumulative
                # drift below 1e-8 * scale across the step budget
                drift_cap = _DRIFT_TOL * h + 1e-14 * (1.0 + scale ** 2)
                ok = (E_t <= E + _ENERGY_SLACK * (1.0 + abs(E))) and (c_t - c <= drift_cap)
        if ok:
            x, E, c, k1 = trial, E_t, c_t, k1_t
            t = opts.max_time if last else t + dt
            steps += 1
            run += 1
            if run >= 5:
                dt *= 1.5
                run = 0
            g = _norm(k1)
            scale = _norm(x)
            if steps % _SAMPLE_STRIDE == 0:
                samples.append((t, E, g, c))
        else:
            run = 0
            dt = 0.5 * h
            if dt < _DT_MIN:
                status = "step_underflow"
                break

    if samples[-1][0] != t or samples[-1][1] != E:
        samples.append((t, E, g, c))
    return FlowResult(
        limit=Representation(start.quiver, start.dims, [m.copy() for m in lay.edges(x)]),
        status=status,
        trajectory=np.array(samples, dtype=float),
        final_grad_norm=g,
        final_energy=E,
        final_constraint=c,
        steps=steps,
        time=t,
        options=opts,
    )


def trajectory_csv(result: FlowResult) -> str:
    lines = ["t,energy,grad_norm,constraint_norm"]
    for row in result.trajectory:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
