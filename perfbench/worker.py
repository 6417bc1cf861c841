"""The program process of the in-process workloads.

Usage: ``python3 worker.py JOBFILE [--setup-only]``, with the
repository's ``src`` on ``PYTHONPATH``.

The job file (written by ``run.py``) holds the generated specifications,
the warm-up specifications and the run length.  The worker imports the
program, loads the native BDD kernel, runs the warm-up untimed, prints
one ``ready`` line and, unless ``--setup-only``, runs whole passes over
the jobs.  Each ``synthesize()`` call is timed on its own; its answer
is printed as one JSON line for ``run.py`` to check, and the last line
carries the process's peak RSS, the reference-loop samples (see
``reference.py``) and, for traced passes, the per-layer totals.

Passes repeat while another pass of the last one's length still fits
in the run length.  A traced run alternates an
untraced and a traced pass, so the tracing overhead is measured in the
same process.
"""

from __future__ import annotations

import gc
import json
import platform
import resource
import sys
import time

import reference


def gate_data(circuit):
    """A circuit as plain ``(kind, controls, target, negatives)`` data."""
    gates = []
    for gate in circuit.gates:
        target = getattr(gate, "target", None)
        gates.append((getattr(gate, "kind", type(gate).__name__),
                      sorted(gate.controls),
                      target if target is not None else -1,
                      sorted(getattr(gate, "negative_controls", ()))))
    return gates


def make_spec(job):
    from repro import Specification
    return Specification(job["n"], job["rows"], name=job["name"])


def run_job(repro, job, spec):
    """(start, wall seconds, result) of one ``synthesize()`` call."""
    start = time.perf_counter()
    result = repro.synthesize(spec, kinds=("mct",), engine=job["engine"],
                              max_gates=job.get("max_gates"),
                              time_limit=job["time_limit"])
    return start, time.perf_counter() - start, result


def emit(line):
    sys.stdout.write(json.dumps(line, separators=(",", ":")) + "\n")


def main(argv):
    with open(argv[1]) as handle:
        plan = json.load(handle)
    import repro
    from repro.bdd.tables import kernel_available
    kernel = kernel_available()
    for job in plan["warmup"]:
        run_job(repro, job, make_spec(job))
    gc.collect()
    emit({"ready": True, "kernel_available": kernel,
          "python": platform.python_version()})
    sys.stdout.flush()
    if "--setup-only" in argv:
        return 0

    specs = [make_spec(job) for job in plan["jobs"]]
    reference.pin_to_one_cpu()
    sampler = reference.Reference()
    sampler.start()
    # Traced runs alternate an untraced and a traced pass.
    modes = [False, True] if plan["trace"] else [False]
    layers = None
    if plan["trace"]:
        from layers import Layers
        layers = Layers()
    elapsed = 0.0
    passes = 0
    first_pass_rss_kb = None
    while True:
        round_start = time.perf_counter()
        for traced in modes:
            if traced:
                layers.install()
            try:
                for index, (job, spec) in enumerate(zip(plan["jobs"], specs)):
                    start, wall, result = run_job(repro, job, spec)
                    emit({"job": index, "pass": passes, "traced": traced,
                          "start": start, "wall": wall,
                          "status": result.status,
                          "depth": result.depth,
                          "decisions": [s.decision for s in result.per_depth],
                          "num_solutions": result.num_solutions,
                          "qc_min": result.quantum_cost_min,
                          "qc_max": result.quantum_cost_max,
                          "truncated": result.solutions_truncated,
                          "circuits": [gate_data(c) for c in result.circuits]})
                    # Free this job's reference cycles before the next job
                    # starts, untimed: left to the collector's own schedule
                    # they would sit under the next job's footprint, and the
                    # peak RSS would follow when collections happen to run.
                    del result
                    gc.collect()
            finally:
                if traced:
                    layers.uninstall()
            if first_pass_rss_kb is None:
                # Peak RSS of set-up plus one pass; later passes repeat the
                # same work, and the allocator's slow drift over them
                # would tie the figure to the number of passes.
                first_pass_rss_kb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss
            passes += 1
        last = time.perf_counter() - round_start
        elapsed += last
        if elapsed + last > plan["seconds"]:
            break
    samples = sampler.stop()
    emit({"done": True, "passes": passes, "peak_rss_kb": first_pass_rss_kb,
          "reference": samples,
          "layers": layers.snapshot() if layers is not None else None})
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
