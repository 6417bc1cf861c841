"""The repository benchmark: one command, four seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exact-bdd --seed 1 --seconds 25 --trace 0

Workloads (all use the MCT library; every job is one ``synthesize()``
call and every caller waits for its reply):

``exact-bdd``
    The BDD engine, serial, no store: 200 seeded random 3-line functions,
    then the 19 default-tier Table-1/2 rows.
``deep-bdd``
    BDD refutation of the full-tier prefixes hwb4 through depth 10 and
    4_49 through depth 9 (``max_gates``); nothing is extracted.
``baselines``
    The SAT, QBF and SWORD engines on 13 default rows, in seeded order.
``serve-store``
    A ``repro serve`` daemon with a fresh store, driven over one
    connection by a seeded stream of orbit variants of 3-line
    functions, so two requests in three are store hits.

The in-process workloads run in a worker process (``worker.py``) and
the serve workload in a daemon process (``serve_launcher.py``); this
process generates the inputs, drives the load and checks every answer
against the oracle in ``oracle.py``, so neither the generator nor the
oracle counts in the program's peak RSS.  Each run repeats its pass of
jobs while another pass fits in ``--seconds``.

Times are scaled by a reference loop sampled on the program's CPU
(``reference.py``), which takes out most of the slowdown other tenants
of a shared host cause; the unscaled figures are printed alongside.
``setup_s`` (the median of three set-ups: interpreter start, imports,
native-kernel load and warm-up, or for the daemon start until its
warm-up request is answered) and ``peak_rss_mb`` are not scaled.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of ``layers.py``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every answer was right, 1 when some were wrong and 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("exact-bdd", "deep-bdd", "baselines", "serve-store")

#: Timed set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Any single process the benchmark waits on is killed after this long,
#: so a hung program fails the run instead of stalling it.
PROCESS_TIMEOUT = 150.0

#: glibc's default initial mmap threshold, fixed for the program processes.
MMAP_THRESHOLD = 128 * 1024


class BenchError(RuntimeError):
    """The benchmark could not run to completion."""


# -- statistics -----------------------------------------------------------------


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile, interpolating between closest ranks."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- processes ------------------------------------------------------------------


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, HERE, env.get("PYTHONPATH")) if p)
    # A fixed mmap threshold: glibc otherwise raises it each time a large
    # block is freed, so later BDD tables land in the heap and the peak
    # RSS follows the allocation history, not the memory in use.
    env["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)
    return env


class Program:
    """One program process whose stdout is read line by line."""

    #: Processes not yet waited for; :meth:`kill_all` ends them on the
    #: way out of a failed run.
    live: List["Program"] = []

    def __init__(self, argv: List[str], stderr_path: str):
        self._stderr = open(stderr_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable] + argv, cwd=HERE, env=program_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True)
        self.stderr_path = stderr_path
        self._watchdog = threading.Timer(PROCESS_TIMEOUT, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        Program.live.append(self)

    @classmethod
    def kill_all(cls) -> None:
        for program in list(cls.live):
            program.proc.kill()
            program.finish()

    def readline(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            self.finish()
            raise BenchError(f"program process exited early "
                             f"(code {self.proc.returncode}):\n{self.stderr_tail()}")
        return line

    def stderr_tail(self) -> str:
        self._stderr.flush()
        with open(self.stderr_path, "rb") as handle:
            return handle.read()[-2000:].decode(errors="replace")

    def finish(self, timeout: float = 60.0) -> int:
        """Wait for the process to end (killing it past ``timeout``)."""
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._watchdog.cancel()
        self.proc.stdout.close()
        self._stderr.close()
        if self in Program.live:
            Program.live.remove(self)
        return code


def build_program(workdir: str) -> None:
    """Compile (or load) the native BDD kernel once, untimed."""
    program = Program(["-c", "from repro.bdd.tables import kernel_available; "
                             "print(int(kernel_available()))"],
                      os.path.join(workdir, "build.err"))
    line = program.proc.stdout.readline().strip()
    if program.finish() != 0 or line not in ("0", "1"):
        raise BenchError(f"cannot import the program:\n{program.stderr_tail()}")


# -- answer checks ----------------------------------------------------------------


def check_circuits(circuits, n: int, rows, depth: int) -> Optional[str]:
    import oracle
    for gates in circuits:
        if not oracle.is_mct(gates, n):
            return "circuit leaves the MCT library"
        if len(gates) != depth:
            return f"circuit has {len(gates)} gates, depth is {depth}"
        if not oracle.realizes(gates, rows):
            return "circuit does not realize the specification"
    return None


def check_job(job: Dict, expect: Dict, answer: Dict) -> Optional[str]:
    """None if the answer is right, else the reason it is wrong."""
    import oracle
    if "refute_through" in expect:
        through = expect["refute_through"]
        if through >= expect["known_min"]:
            raise BenchError("a refuted prefix reaches the known minimum")
        if (answer["status"] != "gate_limit"
                or answer["decisions"] != ["unsat"] * (through + 1)):
            return f"depths 0..{through} not all refuted: {answer['decisions']}"
        return None
    if answer["status"] != "realized":
        return f"status {answer['status']}"
    if answer["depth"] != expect["depth"]:
        return f"depth {answer['depth']}, expected {expect['depth']}"
    circuits = [[(k, tuple(c), t, tuple(ng)) for k, c, t, ng in gates]
                for gates in answer["circuits"]]
    if not circuits:
        return "no circuit returned"
    wrong = check_circuits(circuits, job["n"], job["rows"], expect["depth"])
    if wrong:
        return wrong
    if "solutions" in expect:
        if answer["num_solutions"] != expect["solutions"]:
            return (f"#SOL {answer['num_solutions']}, "
                    f"expected {expect['solutions']}")
        if answer["truncated"] or len(set(map(tuple, circuits))) != len(circuits) \
                or len(circuits) != expect["solutions"]:
            return "returned circuits are not the distinct minimal networks"
        costs = [oracle.quantum_cost(gates) for gates in circuits]
        qc = (min(costs), max(costs))
        if (answer["qc_min"], answer["qc_max"]) != qc:
            return f"QC range {answer['qc_min']}..{answer['qc_max']}, circuits give {qc}"
        if "qc" in expect and qc != tuple(expect["qc"]):
            return f"QC range {qc}, pinned {tuple(expect['qc'])}"
    return None


def check_reply(request: Dict, reply: Dict) -> Optional[str]:
    import oracle
    if reply.get("type") != "result":
        return f"{reply.get('type')}: {reply.get('code')} {reply.get('message')}"
    if reply.get("served") not in ("synthesis", "store", "follower"):
        return f"served {reply.get('served')!r}"
    if reply["status"] != "realized" or reply["depth"] != request["depth"]:
        return f"{reply['status']} at depth {reply['depth']}, expected {request['depth']}"
    if reply["num_solutions"] != request["solutions"]:
        return f"#SOL {reply['num_solutions']}, expected {request['solutions']}"
    circuits = []
    for text in reply["circuits"]:
        n, gates = oracle.parse_real(text)
        if n != 3:
            return f"circuit on {n} lines"
        circuits.append(tuple(gates))
    if len(set(circuits)) != len(circuits) or len(circuits) != request["solutions"]:
        return "returned circuits are not the distinct minimal networks"
    return check_circuits(circuits, 3, oracle.rows_of_perm(request["perm"], 3),
                          request["depth"])


# -- in-process workloads ------------------------------------------------------------


def start_worker(plan_path: str, workdir: str, tag: str,
                 setup_only: bool) -> Tuple[Program, float, Dict]:
    argv = [os.path.join(HERE, "worker.py"), plan_path]
    if setup_only:
        argv.append("--setup-only")
    program = Program(argv, os.path.join(workdir, f"worker-{tag}.err"))
    ready = json.loads(program.readline())
    return program, time.perf_counter() - program.started, ready


def run_in_process(workload: str, seed: int, seconds: int, trace: bool,
                   depth, count, workdir: str) -> Dict:
    import jobs as joblib
    job_list, expects, warmup = joblib.in_process_jobs(workload, seed, depth, count)
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w") as handle:
        json.dump({"jobs": job_list, "warmup": warmup, "seconds": seconds,
                   "trace": trace}, handle)
    setups = []
    for k in range(0 if trace else SETUPS - 1):
        program, took, _ready = start_worker(plan_path, workdir, f"s{k}", True)
        if program.finish() != 0:
            raise BenchError(f"set-up failed:\n{program.stderr_tail()}")
        setups.append(took)
    program, took, ready = start_worker(plan_path, workdir, "run", False)
    setups.append(took)
    answers = []
    while True:
        line = json.loads(program.readline())
        if line.get("done"):
            break
        answers.append(line)
    if program.finish() != 0:
        raise BenchError(f"worker failed:\n{program.stderr_tail()}")

    failures = []
    for answer in answers:
        job = job_list[answer["job"]]
        wrong = check_job(job, expects[answer["job"]], answer)
        if wrong:
            failures.append(f"{job['engine']} {job['name']}: {wrong}")
    # Each job's time is its median over the passes of one mode.
    scaled = reference.scaled_times(
        [(a["start"], a["wall"]) for a in answers], line["reference"])
    times = {}
    for traced in (False, True):
        picked = [i for i, a in enumerate(answers) if a["traced"] == traced]
        times[traced] = reference.per_job_median(
            [answers[i]["job"] for i in picked], [scaled[i] for i in picked])
    times = {traced: list(by_job.values()) for traced, by_job in times.items()}
    jobs_per_s = {traced: len(t) / sum(t) for traced, t in times.items() if t}
    plain = [a for a in answers if not a["traced"]]
    raw = list(reference.per_job_median([a["job"] for a in plain],
                                        [a["wall"] for a in plain]).values())
    run = {
        "attempted": len(answers), "failures": failures,
        "kernel_available": ready["kernel_available"],
        "python": ready["python"], "passes": line["passes"],
        "digest": joblib.digest(job_list), "jobs": len(job_list),
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "jobs_per_s": jobs_per_s[False],
            "latency_p50_ms": 1000 * percentile(times[False], 50),
            "latency_p90_ms": 1000 * percentile(times[False], 90),
            "peak_rss_mb": line["peak_rss_kb"] / 1024,
        },
        "raw": raw,
    }
    if trace:
        from layers import SERVE_METRICS, layer_metrics
        layer = layer_metrics(line["layers"])
        layer.update({name: 0.0 for name in SERVE_METRICS})
        layer["trace.overhead_frac"] = 1 - jobs_per_s[True] / jobs_per_s[False]
        run["per_layer"] = layer
    return run


# -- serve-store workload ------------------------------------------------------------


class Connection:
    """A minimal newline-delimited JSON client of the serve protocol."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=PROCESS_TIMEOUT)
        self.stream = self.sock.makefile("rwb")
        self.next_id = 0
        hello = json.loads(self.stream.readline())
        if hello.get("type") != "hello":
            raise BenchError(f"unexpected greeting {hello!r}")

    def call(self, frame: Dict) -> Dict:
        self.next_id += 1
        frame = dict(frame, id=self.next_id)
        self.stream.write(json.dumps(frame).encode() + b"\n")
        self.stream.flush()
        while True:
            line = self.stream.readline()
            if not line:
                raise BenchError("daemon closed the connection")
            reply = json.loads(line)
            if reply.get("id") == self.next_id and reply.get("type") != "event":
                return reply

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


def synth_frame(perm: Sequence[int], name: str) -> Dict:
    import jobs as joblib
    return {"op": "synth", "perm": list(perm), "name": name, "engine": "bdd",
            "kinds": "mct", "time_limit": joblib.TIME_LIMIT["serve-store"]}


class Daemon:
    """A ``repro serve`` daemon with a fresh store, started through the launcher."""

    def __init__(self, workdir: str, tag: str, traced: bool):
        import jobs as joblib
        from repro.functions import get_spec
        self.report_path = os.path.join(workdir, f"daemon-{tag}.json")
        argv = [os.path.join(HERE, "serve_launcher.py"), self.report_path]
        if traced:
            argv.append("--trace")
        argv += ["--", "--host", "127.0.0.1", "--port", "0",
                 "--store", os.path.join(workdir, f"store-{tag}")]
        self.program = Program(argv, os.path.join(workdir, f"daemon-{tag}.err"))
        while True:
            line = self.program.readline()
            if line.startswith("repro serve listening on "):
                host, port = line.split()[-1].rsplit(":", 1)
                self.address = (host, int(port))
                break
        # Drain the daemon's remaining banner lines so its stdout never blocks.
        self._drain = threading.Thread(target=self.program.proc.stdout.read,
                                       daemon=True)
        self._drain.start()
        warm = Connection(*self.address)
        warm.call(synth_frame(get_spec(joblib.WARMUP_NAME).permutation(),
                              "warmup"))
        self.setup_s = time.perf_counter() - self.program.started
        self.stats_before = warm.call({"op": "stats"})["payload"]["serve"]
        warm.close()

    def stop(self) -> Dict:
        """Shut the daemon down and return its launcher report."""
        control = Connection(*self.address)
        stats = control.call({"op": "stats"})["payload"]["serve"]
        control.call({"op": "shutdown"})
        control.close()
        try:
            self.program.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            pass  # finish() below kills it
        self._drain.join(timeout=10)
        code = self.program.finish()
        if code != 0:
            raise BenchError(f"daemon failed:\n{self.program.stderr_tail()}")
        with open(self.report_path) as handle:
            report = json.load(handle)
        report["stats"] = {name: stats.get(name, 0) - (
            0 if name == "serve.queue_depth" else self.stats_before.get(name, 0))
            for name in ("serve.syntheses", "serve.store_hits",
                         "serve.coalesced_followers", "serve.queue_depth")}
        return report


def serve_repeat(requests: List[Dict], traced: bool, workdir: str,
                 tag: str) -> Dict:
    """One fresh daemon serving the whole stream once over one connection.

    Returns each request's (reply, start, latency) in stream order, the
    reference samples taken meanwhile, and the daemon's report.
    """
    daemon = Daemon(workdir, tag, traced)
    try:
        connection = Connection(*daemon.address)
        sampler = reference.Reference()
        sampler.start()
        try:
            replies = []
            for index, request in enumerate(requests):
                start = time.perf_counter()
                reply = connection.call(synth_frame(request["perm"], f"r{index}"))
                replies.append((reply, start, time.perf_counter() - start))
        finally:
            samples = sampler.stop()
            connection.close()
    finally:
        report = daemon.stop()
    return {"setup_s": daemon.setup_s, "replies": replies,
            "samples": samples, "report": report}


def run_serve(seed: int, seconds: int, trace: bool, depth, count,
              workdir: str) -> Dict:
    """Replay the seeded stream on fresh daemons.

    Every repeat starts a new daemon with an empty store, so each one
    sees the same hits and misses.  An untraced run repeats while
    another repeat of the last one's length still fits in ``seconds``;
    a traced run makes one untraced and one traced repeat.  The daemon
    runs on this process's CPU, so the reference loop sampled here
    measures the daemon's core.
    """
    import jobs as joblib
    requests = joblib.serve_requests(seed, depth, count)
    repeats = []
    if trace:
        repeats = [serve_repeat(requests, traced, workdir, f"r{traced:d}")
                   for traced in (False, True)]
    else:
        elapsed = 0.0
        while True:
            start = time.perf_counter()
            repeats.append(serve_repeat(requests, False, workdir,
                                        f"r{len(repeats)}"))
            last = time.perf_counter() - start
            elapsed += last
            if elapsed + last > seconds:
                break
    plain = [r for r in repeats if r["report"]["layers"] is None]
    setups = [r["setup_s"] for r in plain]
    while not trace and len(setups) < SETUPS:
        daemon = Daemon(workdir, f"s{len(setups)}", traced=False)
        setups.append(daemon.setup_s)
        daemon.stop()

    failures = []
    for repeat in repeats:
        for request, (reply, _start, _latency) in zip(requests, repeat["replies"]):
            wrong = check_reply(request, reply)
            if wrong:
                failures.append(f"perm {request['perm']}: {wrong}")
    for repeat in repeats:
        repeat["scaled"] = reference.scaled_times(
            [(start, latency) for _reply, start, latency in repeat["replies"]],
            repeat["samples"])
    latencies = {"all": [], "hit": [], "miss": [], "overhead": []}
    raw = []
    for repeat in plain:
        for (reply, _start, latency), scaled in zip(repeat["replies"],
                                                    repeat["scaled"]):
            raw.append(latency)
            latencies["all"].append(scaled)
            served = reply.get("served")
            latencies["hit" if served in ("store", "follower") else "miss"
                      ].append(scaled)
            if reply.get("type") == "result":
                latencies["overhead"].append(
                    scaled * (1 - reply["record"]["runtime"] / latency))
    ms = {name: (1000 * percentile(values, 50), 1000 * percentile(values, 90))
          for name, values in latencies.items()}

    def requests_per_s(group: List[Dict]) -> float:
        return len(requests) * len(group) / sum(sum(r["scaled"]) for r in group)
    run = {
        "attempted": len(requests) * len(repeats), "failures": failures,
        "kernel_available": plain[0]["report"]["kernel_available"],
        "python": platform.python_version(), "passes": len(repeats),
        "digest": joblib.digest(requests), "jobs": len(requests),
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "jobs_per_s": requests_per_s(plain),
            "latency_p50_ms": ms["all"][0],
            "latency_p90_ms": ms["all"][1],
            "peak_rss_mb": statistics.median(
                r["report"]["peak_rss_kb"] for r in plain) / 1024,
        },
        "raw": raw,
        "serve": {
            "hit_latency_p50_ms": ms["hit"][0], "hit_latency_p90_ms": ms["hit"][1],
            "miss_latency_p50_ms": ms["miss"][0], "miss_latency_p90_ms": ms["miss"][1],
            "hits": len(latencies["hit"]), "misses": len(latencies["miss"]),
        },
    }
    if trace:
        from layers import layer_metrics
        layer = layer_metrics(repeats[1]["report"]["layers"])
        layer.update({f"serve.{name}": value
                      for name, value in run["serve"].items()
                      if name.endswith("_ms")})
        layer.update({
            "serve.overhead_p50_ms": ms["overhead"][0],
            "serve.overhead_p90_ms": ms["overhead"][1],
            "trace.overhead_frac": 1 - (requests_per_s(repeats[1:])
                                        / requests_per_s(plain)),
        })
        layer.update(plain[0]["report"]["stats"])
        run["per_layer"] = layer
    return run


# -- entry point -------------------------------------------------------------------


def load_units() -> Tuple[Dict[str, str], Dict[str, str]]:
    """Metric units by name, from BENCHMARK.json at the repository root."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    reference.pin_to_one_cpu()
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        end_units, layer_units = load_units()
        import oracle
        depth, count = oracle.bfs_oracle()
        build_program(workdir)
        if args.workload == "serve-store":
            run = run_serve(args.seed, args.seconds, bool(args.trace),
                            depth, count, workdir)
        else:
            run = run_in_process(args.workload, args.seed, args.seconds,
                                 bool(args.trace), depth, count, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 — report, never print a result
        traceback.print_exc()
        return 2
    finally:
        Program.kill_all()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it, or it is already gone

    config = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "bdd_core": ("native-kernel" if run["kernel_available"]
                     else "pure-python-fallback"),
        "kernel_available": run["kernel_available"],
        "python": run["python"], "nproc": os.cpu_count(),
        "jobs_digest": run["digest"], "jobs_per_pass": run["jobs"],
        "passes": run["passes"],
    }
    print("config " + json.dumps(config, sort_keys=True))
    failed = len(run["failures"])
    for failure in run["failures"][:20]:
        print(f"WRONG {failure}")
    print(f"failed_frac = {failed / run['attempted']:.6f} "
          f"({failed} of {run['attempted']} jobs)")
    raw = run["raw"]
    print(f"unscaled: jobs_per_s = {len(raw) / sum(raw):.6g}, "
          f"latency_p50_ms = {1000 * percentile(raw, 50):.6g}, "
          f"latency_p90_ms = {1000 * percentile(raw, 90):.6g}")
    for name, value in run.get("serve", {}).items():
        print(f"{name} = {value:.6g}")
    if args.trace:
        values, units = run["per_layer"], layer_units
    else:
        values, units = run["end_to_end"], end_units
    missing = set(units) ^ set(values)
    if missing:
        print(f"error: metrics and BENCHMARK.json disagree on {sorted(missing)}",
              file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": run["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
