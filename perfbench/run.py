#!/usr/bin/env python3
"""quiverflow benchmark.

Run from the root of a source checkout (the program is imported from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 24 --trace 0

Workloads are listed in BENCHMARK.json and built in ``workloads.py``.  One
process runs one task at a time (a closed loop with one client).  The task
list is built from the seed at set-up and run in whole passes for about
``--seconds`` (at least one pass), so every run measures the same mix.

Times are scaled to nominal machine speed: a yardstick (a fixed small-matrix
loop, or an interpreter start for work done in subprocesses) is timed before
and after each task, and the task's time is multiplied by the yardstick's
nominal time over its measured time.  The process and its children run on
one core with single-threaded BLAS.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates traced
and untraced passes and reports the per-layer metrics: self time per layer
from spans, exact counters from the first traced pass, kernel probes, and the
tracing overhead.  The last line of standard output is the result object; a
copy with machine and library details goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("roundtrip", "projection", "analysis", "cli")
SETUP_REPEATS = 5  # fresh interpreters per run; setup_s is their median
# nominal reference times: an idle core of the development machine
REF_LOOP_S = 0.010
REF_PROCESS_S = 0.15
IMPORT_PROBES = 3
PROBE_CALLS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description="quiverflow benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs, print 'ready' and exit")
    return p.parse_args(argv)


def import_program():
    """Import quiverflow from this checkout's src/, never from elsewhere."""
    if not (SRC / "quiverflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no quiverflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import quiverflow

    if not Path(quiverflow.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: quiverflow imported from {quiverflow.__file__}, not {SRC}")
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


class Context:
    """What tasks share: a scratch directory for CLI inputs, the CLI
    environment, and the tracer while a traced pass runs."""

    def __init__(self, workdir, env):
        self.workdir = workdir
        self.env = env
        self.tracer = None
        self.serde_docs = []

    def record(self, name, start, end):
        if self.tracer is not None:
            self.tracer.span(name, start, end)


def build(workloads, args, workdir):
    ctx = Context(workdir, workloads.cli_env(str(SRC)))
    return workloads.BUILDERS[args.workload](args.seed, ctx), ctx


def setup_only(args):
    workloads = import_program()
    workdir = tempfile.mkdtemp(dir=OUT, prefix="setup-")
    try:
        build(workloads, args, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def reference_loop(loops=1500):
    """Seconds for a fixed piece of small-matrix and interpreter work that
    does not touch the program: the yardstick for in-process tasks."""
    import numpy as np

    m = (np.arange(9).reshape(3, 3) + 1j * np.eye(3)) / 7.0
    table = {}
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(loops):
        a = m @ m.conj().T
        acc += float(np.abs(a - a.T).sum())
        table[i % 17] = (acc, i)
    return time.perf_counter() - t0


def pin_to_fastest_cpu():
    """Run this process and its children on one core, so the reference loop
    and the work it scales share the same neighbours; take the core where the
    reference loop runs fastest now."""
    speed = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(reference_loop() for _ in range(3))
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def reference_process():
    """Seconds to start an interpreter that imports numpy: the yardstick for
    work done in fresh processes (set-up, CLI commands)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - t0


def time_setup(args):
    """Seconds from spawning a fresh interpreter until it has imported the
    program and built the inputs, unscaled."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if code != 0 or line.strip() != "ready":
        raise SystemExit(f"error: set-up run failed with exit code {code}")
    return t1 - t0


def scaled_setups(args):
    """SETUP_REPEATS set-up times, each scaled by the interpreter-start
    yardstick timed just before and after it."""
    refs = [reference_process()]
    out = []
    for _ in range(SETUP_REPEATS):
        t = time_setup(args)
        refs.append(reference_process())
        out.append(t * 2 * REF_PROCESS_S / (refs[-2] + refs[-1]))
    return out


def time_import(ctx):
    """Seconds a fresh interpreter spends in `import quiverflow.cli`."""
    code = ("import time; t = time.perf_counter(); import quiverflow.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ctx.workdir, env=ctx.env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


def probe(fn, *args):
    """Median microseconds per call over a few calls."""
    times = []
    for _ in range(PROBE_CALLS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def probe_task(task, probes):
    from quiverflow import rep

    x, alpha = task.probe
    probes["rep.grad_energy.us"].append(probe(rep.grad_energy, x, alpha))
    probes["rep.energy.us"].append(probe(rep.energy, x, alpha))
    probes["rep.hessian_apply.us"].append(probe(rep.hessian_apply, x, alpha, x.mats))


def probe_serde(ctx, probes):
    from quiverflow import serde

    for x in ctx.serde_docs:
        doc = serde.rep_to_json(x)
        probes["serde.rep_to_json.us"].append(probe(serde.rep_to_json, x))
        probes["serde.rep_from_json.us"].append(probe(serde.rep_from_json, doc))


def run_passes(tasks, ctx, seconds, traced, in_process):
    """Run whole passes over the task list for about `seconds`.  A traced run
    alternates traced and untraced passes, starting traced, and runs at least
    one of each.  A yardstick is timed before and after each task; see
    `scaled_times`."""
    from spans import Tracer

    tracer = Tracer() if traced else None
    records = []  # (pass index, traced, task index, task name, seconds, ok, scale)
    reference, nominal = ((reference_loop, REF_LOOP_S) if in_process
                          else (reference_process, REF_PROCESS_S))
    kinds = []  # traced flag per pass
    probes = {k: [] for k in ("rep.grad_energy.us", "rep.energy.us", "rep.hessian_apply.us",
                              "serde.rep_to_json.us", "serde.rep_from_json.us")}
    reported = set()
    begin = time.perf_counter()
    while True:
        p = len(kinds)
        on = traced and p % 2 == 0
        if on:
            probe_serde(ctx, probes)
            tracer.install()
            ctx.tracer = tracer
        ref = reference()
        for i, task in enumerate(tasks):
            if on and task.probe is not None:
                probe_task(task, probes)
            t0 = time.perf_counter()
            try:
                if on:
                    ok = tracer.run_task(len(records), p, task.name, task.run)
                else:
                    ok = task.run()
                err = None if ok else "result check failed"
            except Exception:  # a failing task is counted, not fatal
                ok, err = False, traceback.format_exc()
            dt = time.perf_counter() - t0
            ref_after = reference()
            records.append((p, on, i, task.name, dt, bool(ok), 2 * nominal / (ref + ref_after)))
            ref = ref_after
            if err and task.name not in reported:
                reported.add(task.name)
                print(f"task {task.name} failed: {err}", file=sys.stderr)
        if on:
            tracer.uninstall()
            ctx.tracer = None
        kinds.append(on)
        elapsed = time.perf_counter() - begin
        # start another pass only if its midpoint is expected within `seconds`
        if elapsed * (len(kinds) + 0.5) / len(kinds) > seconds and (not traced or len(kinds) >= 2):
            break
    return records, kinds, tracer, probes


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled_times(records, traced):
    """Each task's median time over the run's passes of the given kind, scaled
    to nominal machine speed.  Other tenants of the machine slow everything on
    a core by a common factor, in phases of seconds to minutes.  A yardstick
    of similar work (a small-matrix loop in process, an interpreter start for
    subprocesses) timed before and after each task measures that factor, so a
    scaled time is the task's cost at nominal speed."""
    scaled = {}
    for _, on, i, _, dt, _, scale in records:
        if on == traced:
            scaled.setdefault(i, []).append(dt * scale)
    return [statistics.median(scaled[i]) for i in sorted(scaled)]


def end_to_end(records, setup, workload):
    times = scaled_times(records, False)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli":
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "tasks_per_s": len(times) / sum(times),
        "task_s_p50": statistics.median(times),
        "task_s_p90": percentile(times, 90),
        "ok_frac": sum(r[5] for r in records) / len(records),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(records, kinds, tracer, probes, import_times):
    traced_passes = sum(kinds)
    traced_time = sum(r[4] for r in records if r[1])
    out = {"trace.overhead_frac": sum(scaled_times(records, True))
           / sum(scaled_times(records, False)) - 1.0}

    spans = tracer.self_times()
    for layer in ("rep", "flow", "critical", "correspond", "oracles", "cli", "harness"):
        own = sum(s for name, (_, _, s) in spans.items()
                  if name.split(".")[0] == layer or (layer == "harness" and name.startswith("task.")))
        out[f"{layer}.self_s"] = own / traced_passes
        out[f"{layer}.self_frac"] = own / traced_time
    from spans import TRACED

    for _, _, name in TRACED:
        key = "flow" if name == "flow.flow" else name
        out[f"{key}.busy_s"] = spans.get(name, (0, 0.0, 0.0))[1] / traced_passes

    # exact counters: the first pass only, so they repeat for a given seed
    first = {}
    for name, p, counts in tracer.counts:
        if p == 0:
            calls, acc = first.get(name, (0, {}))
            for k, v in counts.items():
                acc[k] = acc.get(k, 0) + v
            first[name] = (calls + 1, acc)

    def count(name, key=None):
        calls, acc = first.get(name, (0, {}))
        return calls if key is None else acc.get(key, 0)

    out["flow.calls"] = count("flow.flow")
    out["flow.steps"] = count("flow.flow", "steps")
    out["flow.nonconverged"] = count("flow.flow", "nonconverged")
    all_steps = sum(c["steps"] for name, _, c in tracer.counts if name == "flow.flow")
    out["flow.us_per_step"] = 1e6 * out["flow.busy_s"] * traced_passes / all_steps if all_steps else 0.0
    out["critical.neg_slice_dim"] = count("critical.negative_slice_basis", "dim")
    for name in ("correspond.hecke_check", "correspond.handsaw_hecke_check"):
        out[f"{name}.members"] = count(name, "members")
        out[f"{name}.member_frac"] = count(name, "members") / max(count(name), 1)
    out["correspond.is_isomorphic.true_frac"] = (count("correspond.is_isomorphic", "true")
                                                 / max(count("correspond.is_isomorphic"), 1))
    out["oracles.thin_hn_type.calls"] = count("oracles.thin_hn_type")
    out["oracles.thin_hn_type.stages"] = count("oracles.thin_hn_type", "stages")

    for key, values in probes.items():
        out[key] = statistics.median(values) if values else 0.0
    cli = {}
    for name, start, end, *_ in tracer.spans:
        if name.startswith("cli."):
            cli.setdefault(name, []).append(end - start)
    for cmd in ("validate", "flow", "classify", "hn", "negslice", "hecke", "project",
                "handsaw_adjoint"):
        out[f"cli.{cmd}.s"] = statistics.median(cli.get(f"cli.{cmd}", [0.0]))
    out["cli.cold_start_s"] = statistics.median(cli.get("cli.help", [0.0]))
    out["cli.selfcheck_s"] = statistics.median(cli.get("cli.selfcheck", [0.0]))
    out["cli.import_s"] = statistics.median(import_times)
    return out


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def machine_info(args):
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "quiverflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or commit
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "not installed"
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    if args.setup_only:  # a child of a run: environment and core are inherited
        return setup_only(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # single-threaded BLAS for this process and its children: the matrices are
    # small, and a spinning BLAS thread on the second core slowed the main
    # thread by up to a third and made runs noisy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    pin_to_fastest_cpu()
    workloads = import_program()
    setup_times = scaled_setups(args)
    workdir = tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-")
    try:
        tasks, ctx = build(workloads, args, workdir)
        import_times = ([time_import(ctx) for _ in range(IMPORT_PROBES)]
                        if args.trace else [])
        records, kinds, tracer, probes = run_passes(tasks, ctx, args.seconds, bool(args.trace),
                                                    in_process=args.workload != "cli")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = per_layer(records, kinds, tracer, probes, import_times)
        wanted = spec["per_layer"]
        tracer.write(OUT / f"{args.workload}-s{args.seed}.spans.jsonl")
    else:
        values = end_to_end(records, setup_times, args.workload)
        wanted = spec["end_to_end"]
    failed = sum(not r[5] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    tasks_summary = {}
    for _, _, _, name, dt, ok, _ in records:
        entry = tasks_summary.setdefault(name, {"n": 0, "failed": 0, "times": []})
        entry["n"] += 1
        entry["failed"] += not ok
        entry["times"].append(dt)
    for entry in tasks_summary.values():
        entry["median_s"] = statistics.median(entry.pop("times"))
    info = {"info": machine_info(args), "passes": len(kinds), "samples": len(records),
            "setup_s": setup_times, "tasks": tasks_summary, "all_metrics": values}
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({**info, "records": records, "result": result}, sort_keys=True) + "\n")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
