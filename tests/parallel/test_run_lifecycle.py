"""Every execution mode is a scheduler over one run lifecycle.

Serial, speculative, portfolio and suite runs share the store lookup,
the folding of depth outcomes, the store commit and the run record, so
they must agree on cancellation, on warm-store hits and on what they
bank.
"""

import json
import threading

import pytest

import repro.obs as obs
from repro.core.cancel import CancelToken
from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.functions import get_spec
from repro.parallel import SynthesisTask, portfolio_synthesize, run_suite
from repro.store import SynthesisStore, derive_store_key
from repro.synth import synthesize
from repro.synth.run import run_record

MODES = ("serial", "speculative", "portfolio")


def _swap():
    return Specification.from_permutation((0, 2, 1, 3), name="swap")


def _canonical(record):
    return json.dumps(obs.canonical_record(record), sort_keys=True)


def _trajectory(record):
    """The answer and per-depth decisions, without search counters.

    Speculation decides depths on separate engine instances, so
    per-depth search counters (``sword.transpositions``) may differ
    from the serial run's while every decision agrees.
    """
    canonical = obs.canonical_record(record)
    canonical.pop("metrics")
    canonical["per_depth"] = [(step["depth"], step["decision"],
                               step["timed_out"])
                              for step in canonical["per_depth"]]
    return json.dumps(canonical, sort_keys=True)


@pytest.mark.parametrize("mode", MODES)
def test_caller_cancel_token_cancels_every_mode(mode):
    event = threading.Event()
    event.set()
    options = {"serial": {"engine": "sat"},
               "speculative": {"engine": "sat", "workers": 2},
               "portfolio": {"engine": "portfolio"}}[mode]
    result = synthesize(get_spec("3_17"), time_limit=60,
                        cancel_token=CancelToken(event), **options)
    assert result.status == "cancelled"
    assert result.circuits == []


def _run(mode, spec, library, store, trace):
    if mode == "serial":
        return synthesize(spec, library=library, engine="sword",
                          store=store, trace=trace)
    if mode == "speculative":
        return synthesize(spec, library=library, engine="sword", workers=2,
                          store=store, trace=trace)
    if mode == "portfolio":
        # One racer at a time: bdd runs first and settles the race, so
        # the winner (and the entry it banks) is deterministic.
        return portfolio_synthesize(spec, library, engines=("bdd", "sword"),
                                    workers=1, store=store, trace=trace)
    suite = run_suite([SynthesisTask(spec=spec, engine="sword",
                                     library=library)],
                      workers=1, store=store, trace=trace)
    return suite.reports[0].result


@pytest.mark.parametrize("mode", MODES + ("suite",))
def test_warm_store_identity_in_every_mode(tmp_path, mode):
    spec = _swap()
    library = GateLibrary.from_kinds(2, ("mct",))
    store = str(tmp_path / "store")
    trace = str(tmp_path / "trace.jsonl")
    cold = _run(mode, spec, library, store, trace)
    warm = _run(mode, spec, library, store, trace)
    cold_record, warm_record = obs.read_records(trace)

    assert cold.realized and cold.depth == 3
    assert not cold.store_hit and warm.store_hit
    assert "store_hit" not in cold_record
    assert warm_record["store_hit"] is True
    assert obs.validate_run_record(warm_record) == []
    assert _canonical(warm_record) == _canonical(cold_record)

    engine = cold.winner_engine or cold.engine
    serial = run_record(synthesize(spec, library=library, engine=engine),
                        library)
    if mode == "speculative":
        assert _trajectory(cold_record) == _trajectory(serial)
    else:
        assert _canonical(cold_record) == _canonical(serial)

    # The winner's UNSAT prefix (depths 0..2) is banked in the ledger.
    key = derive_store_key(spec, library, engine)
    assert SynthesisStore(store).proven_bound(key.bounds_key) == 2
