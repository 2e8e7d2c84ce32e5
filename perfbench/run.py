"""Run one tcbounds benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hilbert-large --seed 1 --seconds 30 --trace 0

The package is imported from `src/` next to this directory, never from an
installed copy; without those sources the command exits 1 and prints no
result.  The workload repeats whole rounds until `--seconds` of timed work
have passed, checking each round's outputs outside the timed part.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics (per round) with `--trace 1`.  The line
before it records the machine and what the run saw.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_SAMPLES = 9


def import_tcbounds():
    """Put this checkout's src/ first on the path and import tcbounds."""
    if not os.path.isfile(os.path.join(SRC, "tcbounds", "__init__.py")):
        sys.exit(f"error: no tcbounds sources under {SRC}")
    sys.path.insert(0, SRC)
    import tcbounds

    if not os.path.abspath(tcbounds.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported tcbounds from {tcbounds.__file__}, not {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up the workload, print 'ready' and exit")
    return parser.parse_args(argv)


class SetupProbe:
    """Times a fresh interpreter from its start until the workload could
    begin its first timed operation."""

    def __init__(self, args):
        self.argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                     "--seed", str(args.seed), "--setup-probe"]
        self.samples: list[float] = []

    def __call__(self) -> None:
        t0 = time.perf_counter()
        with subprocess.Popen(self.argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode:
            sys.exit(f"error: setup probe failed (exit {proc.returncode})")
        self.samples.append(elapsed)


def measure(workload, seconds, tracer=None, probe=None) -> tuple[float, int]:
    """Whole rounds until `seconds` of timed work; returns (timed, rounds).

    With a probe, SETUP_SAMPLES set-ups are spread over the run between
    rounds, outside the timed part: one before the first round and the rest
    as the timed work passes each further share of `seconds`.  A slow or
    fast spell of the machine then weighs on set-up as on the timed work,
    instead of only on the first seconds of the run.
    """
    clock = time.perf_counter
    timed, rounds = 0.0, 0

    def probe_due():
        if probe is not None:
            share = 1.0 if timed >= seconds else timed / seconds
            due = 1 + int((SETUP_SAMPLES - 1) * share)
            while len(probe.samples) < due:
                probe()

    probe_due()
    while rounds == 0 or timed < seconds:
        workload.prepare(rounds)
        if tracer is not None:
            tracer.recording = True
        t0 = clock()
        workload.run(rounds)
        timed += clock() - t0
        if tracer is not None:
            tracer.recording = False
        workload.check(rounds)
        rounds += 1
        probe_due()
    return timed, rounds


def peak_rss_mib() -> float:
    """Peak RSS of this process (KiB on Linux).  The workload starts no
    processes; the set-up probes are left out, because a child forked in
    the middle of the run reports the parent's RSS at the fork as its own."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None where it cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
    }


def end_to_end(workload, timed, setup) -> dict:
    ops = workload.op_seconds
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(ops) / timed, "1/s"),
        "op_s_p50": (statistics.median(ops), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


def per_layer(tracer, timed, rounds) -> dict:
    from spans import LAYER_METRICS, wrapper_cost

    tables = {"self": tracer.self_s, "incl": tracer.incl_s,
              "calls": tracer.calls, "count": tracer.counts}
    out = {}
    for name, unit, (kind, key) in LAYER_METRICS:
        out[name] = (tables[kind].get(key, 0) / rounds, f"{unit}/round")
    span_cost, probe_cost = wrapper_cost()
    self_sum = sum(tracer.self_s.values())
    overhead = tracer.span_calls() * span_cost + tracer.probe_calls() * probe_cost
    out["trace.wall_s"] = (timed / rounds, "s/round")
    out["trace.self_sum_s"] = (self_sum / rounds, "s/round")
    out["trace.unattributed_s"] = ((timed - self_sum) / rounds, "s/round")
    out["trace.overhead_s"] = (overhead / rounds, "s/round")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_tcbounds()
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        sys.exit(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        workload = cls(args.seed)
        workload.prepare(0)
        workload.warm()
        print("ready", flush=True)
        return 0

    probe = None if args.trace else SetupProbe(args)
    workload = cls(args.seed)
    workload.warm()
    tracer = None
    if args.trace:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    timed, rounds = measure(workload, args.seconds, tracer, probe)
    setup = [] if probe is None else probe.samples
    if tracer is not None:
        metrics = per_layer(tracer, timed, rounds)
        tracer.uninstall()
    else:
        metrics = end_to_end(workload, timed, setup)
    correct = not workload.problems
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "timed_s": timed, "setup_samples_s": setup,
        "check_problems": len(workload.problems), "info": workload.info,
        "machine": machine_facts(),
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
