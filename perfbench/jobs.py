"""Seeded job lists of the four workloads, with their expected answers.

Every job is a plain specification (``n``, ``rows``) that ``run.py``
hands to the program.  The expected answer of each job comes from the
BFS oracle (3-line functions) or the pinned Table-2 values, never from
the program.

Random 3-line functions are drawn by :func:`stratified_draw`: per
minimal depth in proportion to Shende et al.'s distribution, and within
a depth one function from each of equally many bins of the solution
count.  Run time grows steeply with depth and with the number of
minimal networks to extract, replay and check, so fixing both mixes
keeps one seed's load like another's while the functions themselves
change with the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Sequence, Tuple

import oracle

#: Paper rows left out of the baselines workload.  SWORD needs more than
#: 20 s on the 5-line mod5-v0/v1 rows and SAT/QBF 2.5-21 s each; the
#: QBF engine needs 1.5-4 s on each decod24 row, which would stretch a
#: pass past half the run length.
BASELINE_SKIP = ("mod5-v0", "mod5-v1", "decod24-v0", "decod24-v1",
                 "decod24-v2", "decod24-v3")

#: Full-tier rows and the deepest depth whose refutation is repeated.
DEEP_PREFIXES = (("hwb4", 10), ("4_49", 9))

#: Random 3-line functions per exact-bdd pass.
EXACT_RANDOM = 200

#: Serve stream: SERVE_BASES distinct orbits, each requested
#: SERVE_REPEATS times, so every orbit's first request is a miss and the
#: rest are store hits.  A hit replays and re-verifies every stored
#: circuit, so its cost follows the solution count.  Depth 8 (1.4 % of
#: the functions, up to 1,264 circuits) and the orbits above the
#: SERVE_COUNT_QUANTILE of their depth are left out: one of them would
#: dominate a stream this short, and with them the stream's total
#: solution count varied by 8 % from seed to seed (under 1 % without).
SERVE_BASES = 60
SERVE_REPEATS = 3
SERVE_MAX_DEPTH = 7
SERVE_COUNT_QUANTILE = 0.9

#: The serve daemon's warm-up request; its orbit never appears in the stream.
WARMUP_NAME = "3_17"

TIME_LIMIT = {"exact-bdd": 30.0, "deep-bdd": 120.0, "baselines": 60.0,
              "serve-store": 30.0}


def depth_quota(total: int, max_depth: int = 8) -> Dict[int, int]:
    """Split ``total`` over depths in proportion to Shende's distribution."""
    weights = oracle.SHENDE_MCT3_DISTRIBUTION[:max_depth + 1]
    scale = total / sum(weights)
    quota = {d: int(w * scale) for d, w in enumerate(weights)}
    by_remainder = sorted(range(len(weights)),
                          key=lambda d: (-(weights[d] * scale - quota[d]), d))
    for d in by_remainder[:total - sum(quota.values())]:
        quota[d] += 1
    return {d: k for d, k in quota.items() if k}


def stratified_draw(rng: random.Random,
                    classes: Dict[int, List[Tuple[int, ...]]],
                    quota: Dict[int, int], count) -> List[Tuple[int, ...]]:
    """``quota[d]`` functions of depth ``d``, one from each solution-count bin."""
    picks = []
    for d, k in sorted(quota.items()):
        members = sorted(classes[d], key=lambda perm: (count[perm], perm))
        for b in range(k):
            picks.append(members[rng.randrange(b * len(members) // k,
                                               (b + 1) * len(members) // k)])
    return picks


def by_depth(depth: Dict[Tuple[int, ...], int]) -> Dict[int, List[Tuple[int, ...]]]:
    classes: Dict[int, List[Tuple[int, ...]]] = {}
    for perm in sorted(depth):
        classes.setdefault(depth[perm], []).append(perm)
    return classes


def digest(jobs: Sequence[Dict]) -> str:
    text = json.dumps(list(jobs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _spec_job(spec, engine: str, workload: str, max_gates=None) -> Dict:
    return {"name": spec.name, "n": spec.n_lines,
            "rows": [list(row) for row in spec.rows], "engine": engine,
            "max_gates": max_gates, "time_limit": TIME_LIMIT[workload]}


def _perm_job(perm: Sequence[int], name: str, workload: str) -> Dict:
    return {"name": name, "n": 3, "rows": oracle.rows_of_perm(perm, 3),
            "engine": "bdd", "max_gates": None,
            "time_limit": TIME_LIMIT[workload]}


def _row_expectation(name: str, spec, depth, count) -> Dict:
    """Expected D/#SOL (and QC range where pinned) of a paper row."""
    expect: Dict = {}
    if name in oracle.PINNED_TABLE2:
        d, sols, qc_min, qc_max = oracle.PINNED_TABLE2[name]
        expect.update(depth=d, solutions=sols, qc=(qc_min, qc_max))
    if spec.n_lines == 3 and spec.is_completely_specified():
        perm = spec.permutation()
        expect.update(depth=depth[perm], solutions=count[perm])
    if "depth" not in expect:
        raise ValueError(f"no reference answer for paper row {name!r}")
    return expect


def in_process_jobs(workload: str, seed: int, depth, count
                    ) -> Tuple[List[Dict], List[Dict], List[Dict]]:
    """(jobs, expectations, warm-up jobs) of an in-process workload."""
    from repro.functions import get_spec
    from repro.functions.suite import table1_entries
    rng = random.Random(f"{workload}:{seed}")
    jobs: List[Dict] = []
    expects: List[Dict] = []
    if workload == "exact-bdd":
        picks = stratified_draw(rng, by_depth(depth),
                                depth_quota(EXACT_RANDOM), count)
        rng.shuffle(picks)
        for perm in picks:
            jobs.append(_perm_job(perm, f"rand3-{''.join(map(str, perm))}",
                                  workload))
            expects.append({"depth": depth[perm], "solutions": count[perm]})
        # The paper rows come last, in table order: the peak RSS is set by
        # the 5-line rows, and where they fall among the small jobs changed
        # it by up to 14 % from seed to seed (2 % with a fixed place).
        for entry in table1_entries("default"):
            spec = entry.spec()
            jobs.append(_spec_job(spec, "bdd", workload))
            expects.append(_row_expectation(entry.name, spec, depth, count))
        warmup = [_spec_job(get_spec(name), "bdd", workload)
                  for name in ("3_17", "graycode4", "mod5-v1_s")]
    elif workload == "deep-bdd":
        # Fixed inputs and order: the seed has nothing to vary here, and
        # the job order alone moved the peak RSS by 30 %.
        for name, max_gates in DEEP_PREFIXES:
            jobs.append(_spec_job(get_spec(name), "bdd", workload, max_gates))
            expects.append({"refute_through": max_gates,
                            "known_min": oracle.KNOWN_MIN_DEPTH[name]})
        warmup = [_spec_job(get_spec("hwb4"), "bdd", workload, 6)]
    elif workload == "baselines":
        for engine in ("sat", "qbf", "sword"):
            for entry in table1_entries("default"):
                if entry.name in BASELINE_SKIP:
                    continue
                spec = entry.spec()
                jobs.append(_spec_job(spec, engine, workload))
                expect = _row_expectation(entry.name, spec, depth, count)
                expect.pop("solutions", None)  # one realization only
                expect.pop("qc", None)
                expects.append(expect)
        warmup = [_spec_job(get_spec(name), engine, workload)
                  for engine in ("sat", "qbf", "sword")
                  for name in ("toffoli", "graycode4")]
        order = list(range(len(jobs)))
        rng.shuffle(order)
        jobs = [jobs[i] for i in order]
        expects = [expects[i] for i in order]
    else:
        raise ValueError(f"not an in-process workload: {workload!r}")
    return jobs, expects, warmup


def serve_requests(seed: int, depth, count) -> List[Dict]:
    """The serve-store stream: perms with their expected answers."""
    from repro.functions import get_spec
    rng = random.Random(f"serve-store:{seed}")
    reserved = oracle.orbit(get_spec(WARMUP_NAME).permutation())
    orbits: Dict[int, List[Tuple[int, ...]]] = {}
    seen = set(reserved)
    for d, perms in by_depth(depth).items():
        for perm in perms:
            if perm not in seen:
                members = oracle.orbit(perm)
                seen |= members
                orbits.setdefault(d, []).append(min(members))
    for d, reps in orbits.items():
        reps.sort(key=lambda rep: (count[rep], rep))
        del reps[int(len(reps) * SERVE_COUNT_QUANTILE):]
    quota = depth_quota(SERVE_BASES, SERVE_MAX_DEPTH)
    picks = stratified_draw(rng, orbits, quota, count) * SERVE_REPEATS
    rng.shuffle(picks)
    requests = []
    for base in picks:
        perm = oracle.relabel(base, rng.choice(oracle.RELABEL3))
        if rng.random() < 0.5:
            perm = oracle.invert(perm)
        requests.append({"perm": list(perm), "depth": depth[perm],
                         "solutions": count[perm]})
    return requests
