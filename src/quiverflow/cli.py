"""Command-line front end.

Every command reads JSON documents, prints a JSON report (or writes it with
an atomic replace when --out is given) and exits 0 on success, 2 on invalid
input, 3 when a numerical procedure fails to reach its target.

A handler takes the parsed arguments and returns ``(config, result, exit
code)``; a library ``ValueError`` propagates out of it.  ``main`` alone
builds and writes the payload and turns bad input, including an output
path that cannot be written, into ``error: ...`` on stderr with exit 2.
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

# option fields a command line may set, each as the flag --name-with-dashes
_FLOW_FIELDS = ("dt_init", "dt_min", "grad_tol", "drift_tol", "step_tol", "max_time",
               "max_steps", "constraint")
_TOLS_FIELDS = ("cluster_tol", "block_tol", "rank_tol", "grad_tol")


class CliError(Exception):
    def __init__(self, message: str, code: int = BAD_INPUT):
        super().__init__(message)
        self.code = code


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
        return canonical_stability(x.quiver, x.dims)
    try:
        return serde.weights_from_json(_read(spec))
    except ValueError as exc:
        raise CliError(f"bad weights in {spec}: {exc}") from exc


def _seed(args) -> int:
    if args.seed is not None:
        return int(args.seed)
    return int(os.environ.get("QUIVERFLOW_SEED", "0"))


def _given(args, base, names):
    """``base`` with the fields in ``names`` that were given as flags."""
    return dataclasses.replace(base, **{n: getattr(args, n) for n in names
                                        if getattr(args, n) is not None})


def _fields(obj, names) -> dict:
    return {n: getattr(obj, n) for n in names}


def _flow_summary(res, limit) -> dict:
    return {
        "status": res.status,
        "steps": int(res.steps),
        "time": float(res.time),
        "final_energy": float(res.final_energy),
        "final_grad_norm": float(res.final_grad_norm),
        "final_constraint": float(res.final_constraint),
        "limit": serde.rep_to_json(limit),
    }


def _converged(res) -> int:
    return OK if res.status == "converged" else NO_CONVERGE


def _membership(xi) -> dict:
    return {
        "member": xi is not None,
        "intertwiner": None if xi is None else serde.intertwiner_to_json(xi),
    }


# ---------------------------------------------------------------------------
# command handlers


def _cmd_validate(args):
    report = validate_quiver(_load_quiver(args.quiver))
    result = {"ok": report.ok, "loop_free": report.loop_free,
              "problems": list(report.problems)}
    return {}, result, OK if report.ok else BAD_INPUT


def _cmd_flow(args):
    x = _load_rep(args.rep)
    alpha = _resolve_alpha(args.alpha, x)
    opts = _given(args, FlowOptions(), _FLOW_FIELDS)
    res = flow(x, alpha, opts)
    if args.csv:
        serde.write_text_atomic(args.csv, trajectory_csv(res))
    return _fields(opts, _FLOW_FIELDS), _flow_summary(res, res.limit), _converged(res)


def _cmd_classify(args):
    x = _load_rep(args.rep)
    alpha = _resolve_alpha(args.alpha, x)
    tols = _given(args, ClassifyTols(), _TOLS_FIELDS)
    profile = classify_critical(x, alpha, tols)
    return _fields(tols, _TOLS_FIELDS), serde.profile_to_json(profile), OK


def _cmd_negslice(args):
    x = _load_rep(args.rep)
    alpha = _resolve_alpha(args.alpha, x)
    tols = _given(args, ClassifyTols(), _TOLS_FIELDS)
    basis, profile = negative_slice_basis(x, alpha, tols)
    result = {
        "dim": len(basis),
        "basis": [serde.mats_to_json(b) for b in basis],
        "profile": serde.profile_to_json(profile),
    }
    return _fields(tols, _TOLS_FIELDS), result, OK


def _cmd_hn(args):
    x = _load_rep(args.rep)
    alpha = _resolve_alpha(args.alpha, x)
    if args.oracle != "thin":
        raise CliError(f"unknown filtration oracle {args.oracle!r}")
    try:
        hn = thin_hn_type(x, alpha, threshold=args.threshold)
    except RuntimeError as exc:
        raise CliError(str(exc)) from exc
    result = {"filtration": [{"dims": dims, "slope": f"{s.numerator}/{s.denominator}"}
                             for dims, s in hn]}
    return {"oracle": "thin", "threshold": args.threshold}, result, OK


def _cmd_hecke(args):
    x1, x2 = _load_rep(args.rep1), _load_rep(args.rep2)
    xi = hecke_check(x1, x2, args.vertex, seed=_seed(args), tol=args.tol)
    return {"tol": args.tol, "seed": _seed(args)}, _membership(xi), OK


def _cmd_hecke_construct(args):
    x1, x2 = _load_rep(args.rep1), _load_rep(args.rep2)
    xi = hecke_check(x1, x2, args.vertex, seed=_seed(args), tol=args.tol)
    config = {"tol": args.tol, "seed": _seed(args)}
    if xi is None:
        return config, {"member": False}, NO_CONVERGE
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
    return config, result, OK


def _cmd_project(args):
    x = _load_rep(args.rep)
    opts = _given(args, AFFINE_FLOW_DEFAULTS, _FLOW_FIELDS)
    snap = args.snap if args.snap in (None, "auto") else float(args.snap)
    limit, res = affine_project(x, opts, snap_tol=snap)
    return {"snap": args.snap}, _flow_summary(res, limit), _converged(res)


def _cmd_lagrangian(args):
    x1, x2 = _load_rep(args.rep1), _load_rep(args.rep2)
    report = lagrangian_check(x1, x2, iso_tol=args.iso_tol, seed=_seed(args))
    result = {"related": report.related, "grad1": float(report.grad1),
              "grad2": float(report.grad2)}
    return {"iso_tol": args.iso_tol, "seed": _seed(args)}, result, OK


def _cmd_stratum(args):
    codim = stratum_codim(_load_rep(args.rep), args.vertex)
    return {}, {"codim": int(codim)}, OK


def _parse_int_list(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(t) for t in text.split(","))


def _cmd_handsaw_to_quiver(args):
    q, dims = handsaw_to_quiver(args.n, _parse_int_list(args.dims_v),
                                _parse_int_list(args.dims_w))
    return {}, {"quiver": serde.quiver_to_json(q), "dims": dims}, OK


def _cmd_handsaw_adjoint(args):
    return {}, serde.rep_to_json(handsaw_adjoint(_load_rep(args.rep))), OK


def _cmd_handsaw_hecke(args):
    x1, x2 = _load_rep(args.rep1), _load_rep(args.rep2)
    xi = handsaw_hecke_check(x1, x2, args.vertex, seed=_seed(args), tol=args.tol)
    return {"tol": args.tol, "seed": _seed(args)}, _membership(xi), OK


def _cmd_selfcheck(args):
    report = run_selfcheck(_seed(args))
    return {"seed": _seed(args)}, report, OK if report["ok"] else NO_CONVERGE


# ---------------------------------------------------------------------------
# parser


def _flags(names, **special) -> dict:
    """One flag per field, a float unless ``special`` gives its settings."""
    return {"--" + n.replace("_", "-"): special.get(n, {"type": float}) for n in names}


_FLOW_FLAGS = _flags(_FLOW_FIELDS, max_steps={"type": int},
                     constraint={"choices": ["auto", "doubled", "handsaw", "none"]})
_TOLS_FLAGS = _flags(_TOLS_FIELDS)
_TOL_FLAG = {"--tol": {"type": float, "default": 1e-9}}
_REP_ALPHA = {"rep": {}, "alpha": {}}
_PAIR_VERTEX = {"rep1": {}, "rep2": {}, "vertex": {}}

# (path, help, handler, positionals, flags, takes --seed); a row without a
# handler opens a group whose subcommands follow with the group's path prefixed
_COMMANDS = [
    ("validate", "structural checks on a quiver document", _cmd_validate,
     {"quiver": {}}, {}, False),
    ("flow", "run the downward energy flow", _cmd_flow,
     {"rep": {}, "alpha": {"help": "weights file, 'canonical' or 'zero'"}},
     {**_FLOW_FLAGS, "--csv": {"help": "write the sampled trajectory here"}}, False),
    ("classify", "block structure of a critical point", _cmd_classify,
     _REP_ALPHA, _TOLS_FLAGS, False),
    ("negslice", "negative slice basis at a split critical point", _cmd_negslice,
     _REP_ALPHA, _TOLS_FLAGS, False),
    ("hn", "filtration type via the exact thin oracle", _cmd_hn, _REP_ALPHA,
     {"--oracle": {"default": "thin"}, "--threshold": {"type": float, "default": 1e-12}},
     False),
    ("hecke", "pinned-intertwiner membership test", _cmd_hecke,
     _PAIR_VERTEX, _TOL_FLAG, True),
    ("hecke-construct", "build slice data from a membership witness", _cmd_hecke_construct,
     _PAIR_VERTEX, _TOL_FLAG, True),
    ("project", "zero-weight flow to the closed-orbit limit", _cmd_project, {"rep": {}},
     {**_FLOW_FLAGS, "--snap": {"help": "'auto', a threshold, or omit for none"}}, False),
    ("lagrangian", "compare the closed-orbit limits of two points", _cmd_lagrangian,
     {"rep1": {}, "rep2": {}}, {"--iso-tol": {"type": float, "default": 1e-6}}, True),
    ("stratum", "codimension data at a vertex", _cmd_stratum,
     {"rep": {}, "vertex": {}}, {}, False),
    ("handsaw", "chain-quiver commands", None, {}, {}, False),
    ("handsaw to-quiver", "build the framed chain quiver", _cmd_handsaw_to_quiver,
     {"n": {"type": int}, "dims_v": {}, "dims_w": {}}, {}, False),
    ("handsaw adjoint", "reverse-and-conjugate transform", _cmd_handsaw_adjoint,
     {"rep": {}}, {}, False),
    ("handsaw hecke", "surjective membership via the adjoint route", _cmd_handsaw_hecke,
     _PAIR_VERTEX, _TOL_FLAG, True),
    ("selfcheck", "seeded end-to-end consistency battery", _cmd_selfcheck, {}, {}, True),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverflow",
        description="Moment-map flows, critical classification and Hecke "
                    "correspondences for quiver data.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed; defaults to $QUIVERFLOW_SEED or 0")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for path, help_text, handler, positionals, flags, seeded in _COMMANDS:
        group, _, name = path.rpartition(" ")
        p = groups[group].add_parser(name, help=help_text)
        if handler is None:
            groups[path] = p.add_subparsers(dest=f"{path}_command", required=True)
            continue
        for arg, settings in {**positionals, **flags}.items():
            p.add_argument(arg, **settings)
        p.add_argument("--out")
        if seeded:
            # SUPPRESS keeps an absent per-command flag from clobbering the global one
            p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                           help="RNG seed for this command")
        p.set_defaults(func=handler, name=path.replace(" ", "-"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config, result, code = args.func(args)
        payload = {
            "command": args.name,
            "config": config,
            "result": result,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if args.out:
            serde.write_text_atomic(args.out, text)
        else:
            sys.stdout.write(text)
    # an OSError here is an --out or --csv path that cannot be written
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else BAD_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
