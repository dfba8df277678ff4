"""vidsrl benchmark: one workload, one seed, one process, one thread.

Run from the root of a checkout:

    python3 bench/run.py --workload train --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the public
functions of each layer and prints the per-layer metrics instead. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record of the run
(environment, digests, checks and, when traced, every span) is written to
``bench/out/``. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys

import envinfo

envinfo.pin_blas_threads()  # before anything imports numpy

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
VIDSRL_MODULES = ("diffmath", "data_model", "synth", "encoder", "srl", "training", "metrics")


class MissingProgram(RuntimeError):
    pass


def import_vidsrl(root: str) -> dict:
    """Import vidsrl from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "vidsrl", "__init__.py")):
        raise MissingProgram(f"no vidsrl package under {src}")
    if not os.path.isfile(os.path.join(root, "configs", "overfit_synth.cfg")):
        raise MissingProgram(f"no configs/overfit_synth.cfg under {root}")
    sys.path.insert(0, src)
    import importlib

    modules = {name: importlib.import_module(f"vidsrl.{name}") for name in VIDSRL_MODULES}
    where = os.path.dirname(os.path.abspath(modules["diffmath"].__file__))
    if where != os.path.join(src, "vidsrl"):
        raise MissingProgram(f"vidsrl imported from {where}, not from {src}")
    return modules


def format_table(metrics: dict) -> list[str]:
    return [f"{name:<30} {value:>14.6g} {unit:<9} n={n}"
            for name, (value, unit, n) in metrics.items()]


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None,
        out_dir: str = OUT_DIR) -> dict:
    """Run one workload and return the full record (``record["result"]`` is
    the JSON object printed last)."""
    import workloads
    from tracing import Tracer, install

    vs = import_vidsrl(ROOT)
    sizes = sizes or workloads.FULL
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = os.path.join(out_dir, f"work-{tag}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    env = envinfo.snapshot(ROOT)
    load_before = os.getloadavg()[0]
    cpu0 = os.times()
    tracer = Tracer()
    state = workloads.Run(vs=vs, root=ROOT, work=work, seed=seed, sizes=sizes, tracer=tracer)
    try:
        if trace:
            with tracer.active():
                install(tracer, vs)
                workloads.run_workload(state, workload, seconds, trace=True)
            metrics = workloads.per_layer(state) if not state.failed else {}
            state.violations.extend(tracer.check_nesting())
        else:
            metrics = workloads.run_workload(state, workload, seconds, trace=False)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    cpu1 = os.times()
    load_after = os.getloadavg()[0]
    wall = cpu1.elapsed - cpu0.elapsed
    env.update(load1_before=load_before, load1_after=load_after,
               cpu_share=(cpu1.user + cpu1.system - cpu0.user - cpu0.system) / wall,
               contended=envinfo.contended(load_before, load_after, env["nproc"]))
    if not metrics:
        state.violations.append("the workload produced no metrics")
    result = {
        "correct": not state.violations and state.failed == 0,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "info": state.info, "violations": state.violations,
              "samples": {name: n for name, (_, _, n) in metrics.items()},
              "table": format_table(metrics), "result": result}
    if trace:
        record["spans"] = tracer.to_records()
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as f:
        json.dump(record, f)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "predict", "train-val"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    print("env " + json.dumps(record["env"], sort_keys=True))
    print("info " + json.dumps(record["info"], sort_keys=True))
    for line in record["table"]:
        print(line)
    for violation in record["violations"]:
        print(f"bench: check failed: {violation}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
