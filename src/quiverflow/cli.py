"""Command-line front end.

Every command reads JSON documents, prints a JSON report (or writes it with
an atomic replace when --out is given) and exits 0 on success, 2 on invalid
input, 3 when a numerical procedure fails to reach its target.
"""
from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys

from .quiver import canonical_stability, handsaw_to_quiver, validate_quiver
from .flow import FlowOptions, flow, trajectory_csv
from .critical import ClassifyTols, classify_critical, negative_slice_basis, stratum_codim
from .correspond import (
    AFFINE_FLOW_DEFAULTS,
    affine_project,
    handsaw_adjoint,
    handsaw_hecke_check,
    hecke_check,
    hecke_to_flowline,
    lagrangian_check,
)
from .oracles import thin_hn_type
from .selfcheck import run_selfcheck
from . import serde

OK, BAD_INPUT, NO_CONVERGE = 0, 2, 3


class CliError(Exception):
    def __init__(self, message: str, code: int = BAD_INPUT):
        super().__init__(message)
        self.code = code


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _read(path: str):
    try:
        return serde.read_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_rep(path: str):
    try:
        return serde.rep_from_json(_read(path))
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"bad representation in {path}: {exc}") from exc


def _load_quiver(path: str):
    doc = _read(path)
    if isinstance(doc, dict) and "quiver" in doc:
        doc = doc["quiver"]
    try:
        return serde.quiver_from_json(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"bad quiver in {path}: {exc}") from exc


def _resolve_alpha(spec: str, x):
    if spec == "zero":
        return {v: 0 for v in x.quiver.vertices}
    if spec == "canonical":
        try:
            return canonical_stability(x.quiver, x.dims)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    try:
        return serde.weights_from_json(_read(spec))
    except ValueError as exc:
        raise CliError(f"bad weights in {spec}: {exc}") from exc


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        serde.write_text_atomic(out, text)
    else:
        sys.stdout.write(text)


def _payload(command: str, config: dict, result: dict) -> dict:
    return {
        "command": command,
        "config": config,
        "result": result,
        "timestamp": _timestamp(),
    }


def _seed(args) -> int:
    if args.seed is not None:
        return int(args.seed)
    return int(os.environ.get("QUIVERFLOW_SEED", "0"))


def _flow_options(args, base: FlowOptions) -> FlowOptions:
    """The given flow flags applied on top of ``base``."""
    changes = {}
    for name in ("dt_init", "dt_min", "grad_tol", "drift_tol", "step_tol", "max_time"):
        v = getattr(args, name, None)
        if v is not None:
            changes[name] = float(v)
    if getattr(args, "max_steps", None) is not None:
        changes["max_steps"] = int(args.max_steps)
    if getattr(args, "constraint", None) is not None:
        changes["constraint"] = args.constraint
    try:
        return dataclasses.replace(base, **changes)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _add_flow_flags(p):
    p.add_argument("--dt-init", dest="dt_init", type=float)
    p.add_argument("--dt-min", dest="dt_min", type=float)
    p.add_argument("--grad-tol", dest="grad_tol", type=float)
    p.add_argument("--drift-tol", dest="drift_tol", type=float)
    p.add_argument("--step-tol", dest="step_tol", type=float)
    p.add_argument("--max-time", dest="max_time", type=float)
    p.add_argument("--max-steps", dest="max_steps", type=int)
    p.add_argument("--constraint", choices=["auto", "doubled", "handsaw", "none"])


def _add_tols_flags(p):
    p.add_argument("--cluster-tol", dest="cluster_tol", type=float)
    p.add_argument("--block-tol", dest="block_tol", type=float)
    p.add_argument("--rank-tol", dest="rank_tol", type=float)
    p.add_argument("--grad-tol", dest="grad_tol", type=float)


def _opts_config(opts: FlowOptions) -> dict:
    return {
        "dt_init": opts.dt_init,
        "dt_min": opts.dt_min,
        "grad_tol": opts.grad_tol,
        "drift_tol": opts.drift_tol,
        "step_tol": opts.step_tol,
        "max_time": opts.max_time,
        "max_steps": opts.max_steps,
        "constraint": opts.constraint,
    }


def _flow_summary(res) -> dict:
    return {
        "status": res.status,
        "steps": int(res.steps),
        "time": float(res.time),
        "final_energy": float(res.final_energy),
        "final_grad_norm": float(res.final_grad_norm),
        "final_constraint": float(res.final_constraint),
    }


# ---------------------------------------------------------------------------
# command handlers


def _cmd_validate(args):
    report = validate_quiver(_load_quiver(args.quiver))
    payload = _payload("validate", {}, {
        "ok": report.ok,
        "loop_free": report.loop_free,
        "problems": list(report.problems),
    })
    _emit(payload, args.out)
    return OK if report.ok else BAD_INPUT


def _cmd_flow(args):
    x = _load_rep(args.rep)
    alpha = _resolve_alpha(args.alpha, x)
    opts = _flow_options(args, FlowOptions())
    try:
        res = flow(x, alpha, opts)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.csv:
        serde.write_text_atomic(args.csv, trajectory_csv(res))
    result = _flow_summary(res)
    result["limit"] = serde.rep_to_json(res.limit)
    payload = _payload("flow", _opts_config(opts), result)
    _emit(payload, args.out)
    return OK if res.status == "converged" else NO_CONVERGE


def _classify_tols(args) -> ClassifyTols:
    changes = {}
    for name in ("cluster_tol", "block_tol", "rank_tol", "grad_tol"):
        v = getattr(args, name, None)
        if v is not None:
            changes[name] = float(v)
    return dataclasses.replace(ClassifyTols(), **changes)


def _tols_config(tols: ClassifyTols) -> dict:
    return {
        "cluster_tol": tols.cluster_tol,
        "block_tol": tols.block_tol,
        "rank_tol": tols.rank_tol,
        "grad_tol": tols.grad_tol,
    }


def _cmd_classify(args):
    x = _load_rep(args.rep)
    alpha = _resolve_alpha(args.alpha, x)
    tols = _classify_tols(args)
    try:
        profile = classify_critical(x, alpha, tols)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    payload = _payload("classify", _tols_config(tols), serde.profile_to_json(profile))
    _emit(payload, args.out)
    return OK


def _cmd_negslice(args):
    x = _load_rep(args.rep)
    alpha = _resolve_alpha(args.alpha, x)
    tols = _classify_tols(args)
    try:
        basis, profile = negative_slice_basis(x, alpha, tols)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    result = {
        "dim": len(basis),
        "basis": [serde.mats_to_json(b) for b in basis],
        "profile": serde.profile_to_json(profile),
    }
    payload = _payload("negslice", _tols_config(tols), result)
    _emit(payload, args.out)
    return OK


def _cmd_hn(args):
    x = _load_rep(args.rep)
    alpha = _resolve_alpha(args.alpha, x)
    if args.oracle != "thin":
        raise CliError(f"unknown filtration oracle {args.oracle!r}")
    try:
        hn = thin_hn_type(x, alpha, threshold=args.threshold)
    except (ValueError, RuntimeError) as exc:
        raise CliError(str(exc)) from exc
    result = {
        "filtration": [
            {"dims": dims, "slope": f"{s.numerator}/{s.denominator}"}
            for dims, s in hn
        ]
    }
    payload = _payload("hn", {"oracle": "thin", "threshold": args.threshold}, result)
    _emit(payload, args.out)
    return OK


def _cmd_hecke(args):
    x1, x2 = _load_rep(args.rep1), _load_rep(args.rep2)
    try:
        xi = hecke_check(x1, x2, args.vertex, seed=_seed(args), tol=args.tol)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    result = {
        "member": xi is not None,
        "intertwiner": None if xi is None else serde.intertwiner_to_json(xi),
    }
    payload = _payload("hecke", {"tol": args.tol, "seed": _seed(args)}, result)
    _emit(payload, args.out)
    return OK


def _cmd_hecke_construct(args):
    x1, x2 = _load_rep(args.rep1), _load_rep(args.rep2)
    try:
        xi = hecke_check(x1, x2, args.vertex, seed=_seed(args), tol=args.tol)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if xi is None:
        payload = _payload("hecke-construct",
                           {"tol": args.tol, "seed": _seed(args)},
                           {"member": False})
        _emit(payload, args.out)
        return NO_CONVERGE
    try:
        pair = hecke_to_flowline(x1, x2, xi, args.vertex)
    except ValueError as exc:
        raise CliError(str(exc), NO_CONVERGE) from exc
    result = {
        "member": True,
        "delta": serde.mats_to_json(pair.delta),
        "group_element": serde.mats_to_json(pair.g),
        "action_residual": float(pair.action_residual),
        "slice_residual": float(pair.slice_residual),
    }
    payload = _payload("hecke-construct", {"tol": args.tol, "seed": _seed(args)}, result)
    _emit(payload, args.out)
    return OK


def _cmd_project(args):
    x = _load_rep(args.rep)
    opts = _flow_options(args, AFFINE_FLOW_DEFAULTS)
    snap = args.snap
    if snap not in (None, "auto"):
        snap = float(snap)
    limit, res = affine_project(x, opts, snap_tol=snap)
    result = _flow_summary(res)
    result["limit"] = serde.rep_to_json(limit)
    payload = _payload("project", {"snap": args.snap}, result)
    _emit(payload, args.out)
    return OK if res.status == "converged" else NO_CONVERGE


def _cmd_lagrangian(args):
    x1, x2 = _load_rep(args.rep1), _load_rep(args.rep2)
    try:
        report = lagrangian_check(x1, x2, iso_tol=args.iso_tol, seed=_seed(args))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    result = {
        "related": report.related,
        "grad1": float(report.grad1),
        "grad2": float(report.grad2),
    }
    payload = _payload("lagrangian", {"iso_tol": args.iso_tol, "seed": _seed(args)},
                       result)
    _emit(payload, args.out)
    return OK


def _cmd_stratum(args):
    x = _load_rep(args.rep)
    try:
        codim = stratum_codim(x, args.vertex)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    payload = _payload("stratum", {}, {"codim": int(codim)})
    _emit(payload, args.out)
    return OK


def _parse_int_list(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(t) for t in text.split(","))


def _cmd_handsaw_to_quiver(args):
    try:
        q, dims = handsaw_to_quiver(args.n, _parse_int_list(args.dims_v),
                                    _parse_int_list(args.dims_w))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    result = {"quiver": serde.quiver_to_json(q), "dims": dims}
    payload = _payload("handsaw-to-quiver", {}, result)
    _emit(payload, args.out)
    return OK


def _cmd_handsaw_adjoint(args):
    x = _load_rep(args.rep)
    try:
        y = handsaw_adjoint(x)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    payload = _payload("handsaw-adjoint", {}, serde.rep_to_json(y))
    _emit(payload, args.out)
    return OK


def _cmd_handsaw_hecke(args):
    x1, x2 = _load_rep(args.rep1), _load_rep(args.rep2)
    try:
        xi = handsaw_hecke_check(x1, x2, args.vertex, seed=_seed(args), tol=args.tol)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    result = {
        "member": xi is not None,
        "intertwiner": None if xi is None else serde.intertwiner_to_json(xi),
    }
    payload = _payload("handsaw-hecke", {"tol": args.tol, "seed": _seed(args)}, result)
    _emit(payload, args.out)
    return OK


def _cmd_selfcheck(args):
    report = run_selfcheck(_seed(args))
    payload = _payload("selfcheck", {"seed": _seed(args)}, report)
    _emit(payload, args.out)
    return OK if report["ok"] else NO_CONVERGE


def _add_seed(p) -> None:
    # SUPPRESS keeps an absent per-command flag from clobbering the global one
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="RNG seed for this command")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverflow",
        description="Moment-map flows, critical classification and Hecke "
                    "correspondences for quiver data.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed; defaults to $QUIVERFLOW_SEED or 0")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural checks on a quiver document")
    p.add_argument("quiver")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("flow", help="run the downward energy flow")
    p.add_argument("rep")
    p.add_argument("alpha", help="weights file, 'canonical' or 'zero'")
    _add_flow_flags(p)
    p.add_argument("--csv", help="write the sampled trajectory here")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("classify", help="block structure of a critical point")
    p.add_argument("rep")
    p.add_argument("alpha")
    _add_tols_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("negslice", help="negative slice basis at a split critical point")
    p.add_argument("rep")
    p.add_argument("alpha")
    _add_tols_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_negslice)

    p = sub.add_parser("hn", help="filtration type via the exact thin oracle")
    p.add_argument("rep")
    p.add_argument("alpha")
    p.add_argument("--oracle", default="thin")
    p.add_argument("--threshold", type=float, default=1e-12)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hn)

    p = sub.add_parser("hecke", help="pinned-intertwiner membership test")
    p.add_argument("rep1")
    p.add_argument("rep2")
    p.add_argument("vertex")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")
    _add_seed(p)
    p.set_defaults(func=_cmd_hecke)

    p = sub.add_parser("hecke-construct",
                       help="build slice data from a membership witness")
    p.add_argument("rep1")
    p.add_argument("rep2")
    p.add_argument("vertex")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")
    _add_seed(p)
    p.set_defaults(func=_cmd_hecke_construct)

    p = sub.add_parser("project", help="zero-weight flow to the closed-orbit limit")
    p.add_argument("rep")
    _add_flow_flags(p)
    p.add_argument("--snap", help="'auto', a threshold, or omit for none")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("lagrangian", help="compare the closed-orbit limits of two points")
    p.add_argument("rep1")
    p.add_argument("rep2")
    p.add_argument("--iso-tol", dest="iso_tol", type=float, default=1e-6)
    p.add_argument("--out")
    _add_seed(p)
    p.set_defaults(func=_cmd_lagrangian)

    p = sub.add_parser("stratum", help="codimension data at a vertex")
    p.add_argument("rep")
    p.add_argument("vertex")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stratum)

    hs = sub.add_parser("handsaw", help="chain-quiver commands")
    hsub = hs.add_subparsers(dest="handsaw_command", required=True)

    p = hsub.add_parser("to-quiver", help="build the framed chain quiver")
    p.add_argument("n", type=int)
    p.add_argument("dims_v")
    p.add_argument("dims_w")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_handsaw_to_quiver)

    p = hsub.add_parser("adjoint", help="reverse-and-conjugate transform")
    p.add_argument("rep")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_handsaw_adjoint)

    p = hsub.add_parser("hecke", help="surjective membership via the adjoint route")
    p.add_argument("rep1")
    p.add_argument("rep2")
    p.add_argument("vertex")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")
    _add_seed(p)
    p.set_defaults(func=_cmd_handsaw_hecke)

    p = sub.add_parser("selfcheck", help="seeded end-to-end consistency battery")
    p.add_argument("--out")
    _add_seed(p)
    p.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
