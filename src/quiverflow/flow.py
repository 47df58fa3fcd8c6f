"""Downward gradient flow of the energy with step acceptance control.

Classical 4th-order explicit steps with step-doubling acceptance: a trial
step is kept iff the energy does not increase (within 1e-12 relative slack),
the constraint increment stays below drift_tol * dt, and the full-step vs
two-half-steps discrepancy stays below step_tol.  The half-step composition
is what gets propagated.  Rejection halves dt; five consecutive accepts grow
it by 1.5x, capped at dt_init.  No projection back onto the constraint set
is performed: drift is monitored and reported.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quiver import Quiver, handsaw_roles
from .rep import (
    Representation,
    energy,
    grad_energy,
    mats_add,
    mats_norm,
    mats_scale,
    moment_complex,
)

_ENERGY_SLACK = 1e-12


@dataclass(frozen=True)
class FlowOptions:
    dt_init: float = 1e-2
    dt_min: float = 1e-9
    grad_tol: float = 1e-8
    drift_tol: float = 1e-8
    step_tol: float = 1e-9
    max_time: float = 1e4
    max_steps: int = 1_000_000
    constraint: str = "auto"  # auto | none | doubled | handsaw
    sample_stride: int = 10

    def __post_init__(self):
        # a zero dt_init accepts empty steps until the step budget runs out, an
        # infinite one is halved forever, and a zero stride divides by zero
        if not (np.isfinite(self.dt_init) and self.dt_init > 0):
            raise ValueError(f"dt_init must be finite and positive, got {self.dt_init!r}")
        if not 0 < self.dt_min <= self.dt_init:
            raise ValueError(f"dt_min must lie in (0, dt_init], got {self.dt_min!r}")
        for name in ("grad_tol", "drift_tol", "step_tol", "max_time"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be nonnegative, got {self.max_steps!r}")
        if self.sample_stride < 1:
            raise ValueError(f"sample_stride must be at least 1, got {self.sample_stride!r}")


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
        if any(r is not None for r in handsaw_roles(quiver)):
            return "handsaw"
        return "none"
    if kind not in ("none", "doubled", "handsaw"):
        raise ValueError(f"unknown constraint kind {kind!r}")
    return kind


def constraint_norm(x: Representation, kind: str) -> float:
    if kind == "none":
        return 0.0
    if kind == "doubled":
        return mats_norm(moment_complex(x))
    if kind == "handsaw":
        from .correspond import handsaw_constraint

        return mats_norm(handsaw_constraint(x))
    raise ValueError(f"unknown constraint kind {kind!r}")


def _rk4(x: Representation, alpha, dt: float) -> list[np.ndarray] | None:
    """One classical 4th-order step; None when a stage overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            k1 = mats_scale(-1.0, grad_energy(x, alpha))
            x2 = Representation(x.quiver, x.dims,
                                mats_add(x.mats, mats_scale(dt / 2.0, k1)))
            k2 = mats_scale(-1.0, grad_energy(x2, alpha))
            x3 = Representation(x.quiver, x.dims,
                                mats_add(x.mats, mats_scale(dt / 2.0, k2)))
            k3 = mats_scale(-1.0, grad_energy(x3, alpha))
            x4 = Representation(x.quiver, x.dims,
                                mats_add(x.mats, mats_scale(dt, k3)))
            k4 = mats_scale(-1.0, grad_energy(x4, alpha))
        except ValueError:
            return None
    incr = [
        (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d) for a, b, c, d in zip(k1, k2, k3, k4)
    ]
    out = mats_add(x.mats, incr)
    if any(m.size and not np.all(np.isfinite(m)) for m in out):
        return None
    return out


def flow(x0: Representation, alpha, opts: FlowOptions | None = None) -> FlowResult:
    """Integrate the downward energy flow from x0 until the gradient is small."""
    opts = opts or FlowOptions()
    for m in x0.mats:
        if m.size and not np.all(np.isfinite(m)):
            raise ValueError("flow input has non-finite entries")
    kind = resolve_constraint(x0.quiver, opts.constraint)

    x = x0.copy()
    t = 0.0
    steps = 0
    dt = float(opts.dt_init)
    run = 0
    E = energy(x, alpha)
    g = mats_norm(grad_energy(x, alpha))
    c = constraint_norm(x, kind)
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
        full_mats = _rk4(x, alpha, dt)
        mid_mats = _rk4(x, alpha, dt / 2.0)
        trial_mats = None
        if full_mats is not None and mid_mats is not None:
            mid = Representation(x.quiver, x.dims, mid_mats)
            trial_mats = _rk4(mid, alpha, dt / 2.0)
        ok = trial_mats is not None
        if ok:
            with np.errstate(over="ignore"):
                est = float(
                    np.sqrt(sum(np.sum(np.abs(a - b) ** 2)
                                for a, b in zip(full_mats, trial_mats)))
                )
            ok = est <= opts.step_tol * (1.0 + mats_norm(x.mats))
        if ok:
            trial = Representation(x.quiver, x.dims, trial_mats)
            E_t = energy(trial, alpha)
            c_t = constraint_norm(trial, kind)
            # the constraint increment gets a roundoff floor so shrinking dt
            # cannot make the bound unsatisfiable; the floor keeps cumulative
            # drift below 1e-8 * scale across the step budget
            drift_cap = opts.drift_tol * dt + 1e-14 * (1.0 + mats_norm(x.mats) ** 2)
            ok = (E_t <= E + _ENERGY_SLACK * (1.0 + abs(E))) and (c_t - c <= drift_cap)
        if ok:
            x, E, c = trial, E_t, c_t
            t += dt
            steps += 1
            run += 1
            if run >= 5:
                dt = min(dt * 1.5, opts.dt_init)
                run = 0
            g = mats_norm(grad_energy(x, alpha))
            if steps % opts.sample_stride == 0:
                samples.append((t, E, g, c))
        else:
            run = 0
            dt *= 0.5
            if dt < opts.dt_min:
                status = "step_underflow"
                break

    if samples[-1][0] != t or samples[-1][1] != E:
        samples.append((t, E, g, c))
    return FlowResult(
        limit=x,
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
