"""The three workloads: their sizing, request streams and answer checks.

Why each workload exists, which layers it stresses and which it
bypasses is written in ``README.md`` next to this file.  Everything
here is a pure function of the seed: the same seed gives the same
inputs, the same request stream and the same expected answers.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

import stack

#: The generated city and store every workload serves.  The city's
#: layout (hotspots) and its bus network are fixed, like a deployment;
#: riders and requests come from the seed, so runs on different seeds
#: sample the same kind of traffic over the same map.
#:
#: 1,000 riders, not 5,000: on a 2-CPU host a 5,000-rider run took 50 s
#: (serve-evaluate, whose warm-up computes every route's coverage cold)
#: and 43 s (plan-coverage, with only 17 measured requests at 1.3 s of
#: server CPU each), so the benchmark's 70 driver runs would need about
#: 3,300 s of the 3,420 s they may take.  With 1,000 riders a run takes
#: 30 to 40 s and plan-coverage measures 40 to 60 requests.
SIZING = {
    "map_seed": 7,
    "city_size": 10_000.0,
    "hotspots": 6,
    "users": 1_000,
    "routes": 256,
    "stops": 64,
}
#: Serving radii the store precomputes indexes for.
STORE_PSI = (300.0,)
#: The grid backend with two shards routes every probe through the
#: runtime's ShardStore, which opens the store's index files; the
#: store is built with the same shard count so those files match.
SHARDS = 2
TREE = SET = "main"

#: serve-evaluate: Poisson arrivals at this rate, over at most
#: ``nproc`` pipelined connections.  At about 2.5 ms of server CPU per
#: query this is an eighth of one core, well below capacity, and gives
#: 1,000 samples in 20 s.
EVALUATE_RATE = 50.0
#: The model mix and the Zipf exponent of route popularity are
#: arbitrary choices: the paper defines the queries, not a traffic mix,
#: and no measured request log of this kind was available.  Every model
#: gets a fair share, and a few routes get most of the traffic.
EVALUATE_MIX = {"endpoint": 0.5, "count": 0.25, "length": 0.25}
ZIPF_S = 1.0
#: plan-coverage: the query-type cycle, subset sizes, k and the psi
#: range (outside STORE_PSI).  Strict alternation keeps the two kinds
#: within one request of each other in every run, so the gated
#: ``cpu_ms_per_query`` averages the same mix however many requests a
#: run completes.
PLAN_CYCLE = ("maxkcov", "kmaxrrst")
PLAN_SUBSET = (16, 32)
PLAN_K = (3, 5)
PLAN_PSI = (200.0, 400.0)
#: evaluate-burst: wave size and the server's batch window.
WAVE = 32
BATCH_WINDOW = 0.005

WORKLOADS = ("serve-evaluate", "plan-coverage", "evaluate-burst")


def server_args(workload: str) -> List[str]:
    args = ["--backend", "grid", "--shards", str(SHARDS)]
    if workload == "evaluate-burst":
        args += ["--batch-window", str(BATCH_WINDOW)]
    return args


def _spec(model: str, psi: float, normalize: bool = True) -> dict:
    spec = {"model": model, "psi": float(psi)}
    if not normalize:
        spec["normalize"] = False
    return spec


def evaluate_stream(
    rng: np.random.Generator, facility_ids: Sequence[int], n: int
) -> Tuple[List[dict], np.ndarray]:
    """``n`` evaluate payloads with Zipf-skewed route ids, and their
    Poisson arrival offsets in seconds.

    Which routes are popular is part of the map, like the routes
    themselves, so it is fixed by ``map_seed``: a seed-dependent ranking
    made one seed's hottest route (a sixth of all requests) cheap and
    another's costly, which moved the run's latency more than the code
    under test would."""
    ids = np.random.default_rng(SIZING["map_seed"]).permutation(
        np.asarray(facility_ids)
    )
    weights = 1.0 / np.arange(1, len(ids) + 1) ** ZIPF_S
    ranks = rng.choice(len(ids), size=n, p=weights / weights.sum())
    models = rng.choice(
        list(EVALUATE_MIX), size=n, p=list(EVALUATE_MIX.values())
    )
    psis = rng.choice(STORE_PSI, size=n)
    payloads = [
        {
            "type": "evaluate", "tree": TREE, "facility_set": SET,
            "facility_id": int(ids[r]), "spec": _spec(str(m), p),
        }
        for r, m, p in zip(ranks, models, psis)
    ]
    offsets = np.cumsum(rng.exponential(1.0 / EVALUATE_RATE, size=n))
    return payloads, offsets


def every_evaluate(facility_ids: Sequence[int]) -> List[dict]:
    """One evaluate for every (route, psi, model) the serve-evaluate
    stream can ask for: the warm-up that leaves every route's coverage
    cached, so the measured phase serves the steady state."""
    return [
        {
            "type": "evaluate", "tree": TREE, "facility_set": SET,
            "facility_id": int(f), "spec": _spec(m, p),
        }
        for f in facility_ids
        for p in STORE_PSI
        for m in EVALUATE_MIX
    ]


def plan_stream(
    rng: np.random.Generator, facility_ids: Sequence[int]
) -> Iterator[dict]:
    """Endless kMaxRRST / greedy MaxkCovRST payloads over random route
    subsets, with psi drawn from a continuous range.

    Subset sizes and psi are stratified: every block of requests uses
    each subset size once, in random order, with psi drawn from evenly
    spaced strata of the range.  A run sees only a few dozen of these
    requests, whose cost varies several-fold with size and psi, so this
    keeps the cost mix of a run the same from seed to seed.
    """
    ids = np.asarray(facility_ids)
    kinds = itertools.cycle(PLAN_CYCLE)
    sizes = np.arange(PLAN_SUBSET[0], PLAN_SUBSET[1] + 1)
    lo, hi = PLAN_PSI
    while True:
        strata = (rng.permutation(len(sizes)) + rng.random(len(sizes))) / len(sizes)
        for size, u in zip(rng.permutation(sizes), strata):
            subset = rng.choice(ids, size=int(size), replace=False)
            yield {
                "type": next(kinds),
                "tree": TREE, "facility_set": SET,
                "facility_ids": [int(i) for i in subset],
                "k": int(rng.integers(PLAN_K[0], PLAN_K[1] + 1)),
                "spec": _spec("count", lo + (hi - lo) * u),
            }


def burst_stream(
    rng: np.random.Generator, facility_ids: Sequence[int]
) -> Iterator[List[dict]]:
    """Endless waves of distinct batch-eligible evaluates (ENDPOINT and
    un-normalised COUNT)."""
    ids = np.asarray(facility_ids)
    while True:
        wave = rng.choice(ids, size=WAVE, replace=False)
        models = rng.choice(["endpoint", "count"], size=WAVE)
        psis = rng.choice(STORE_PSI, size=WAVE)
        yield [
            {
                "type": "evaluate", "tree": TREE, "facility_set": SET,
                "facility_id": int(f),
                "spec": _spec(str(m), p, normalize=m == "endpoint"),
            }
            for f, m, p in zip(wave, models, psis)
        ]


# ----------------------------------------------------------------------
# answer checking
# ----------------------------------------------------------------------
def route_ids(store_dir: str) -> List[int]:
    """The ids of the routes the store serves."""
    from repro.service.http.catalog import open_store_catalog

    catalog = open_store_catalog(store_dir)
    return [f.facility_id for f in catalog.facility_set(SET)]


def payload_key(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def expected_answers(store_dir: str, payloads: Sequence[dict]) -> Dict[str, tuple]:
    """Expected answer per distinct payload (keyed by :func:`payload_key`)
    from the direct library calls on the catalog the server opened.

    Runs after the timed window, split over ``connections()`` child
    processes (this file run as a script): a plan-coverage run's answers
    cost as much to recompute as to serve, and in one process they would
    take about as long as the measured phase.  The children are plain
    interpreters, not a ``multiprocessing`` pool, whose spawn start
    method leaves a resource-tracker process running after the
    benchmark exits; every child is waited for before this returns.
    """
    distinct = {payload_key(p): p for p in payloads}
    keys = list(distinct)
    n = max(1, min(connections(), len(keys)))
    chunks = [keys[i::n] for i in range(n)]
    procs: List[subprocess.Popen] = []
    try:
        for chunk in chunks:
            proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), store_dir],
                env=stack.child_env(),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
            procs.append(proc)
            # the child reads all of its input before it computes
            proc.stdin.write(json.dumps([distinct[k] for k in chunk]).encode())
            proc.stdin.close()
        answers: Dict[str, tuple] = {}
        for chunk, proc in zip(chunks, procs):
            out = proc.stdout.read()
            if proc.wait() != 0:
                raise RuntimeError(f"answer oracle exited with {proc.returncode}")
            answers.update(zip(chunk, map(_as_tuple, json.loads(out))))
        return answers
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()


def _as_tuple(value):
    """JSON lists back to the tuples :func:`expected_answer` returns."""
    if isinstance(value, list):
        return tuple(_as_tuple(v) for v in value)
    return value


def _oracle_main(store_dir: str) -> int:
    """Answer the payloads on standard input; print the answers as JSON."""
    from repro.core.config import RuntimeConfig
    from repro.runtime import QueryRuntime
    from repro.service.http.catalog import open_store_catalog

    out, sys.stdout = sys.stdout, sys.stderr  # keep stray prints out of the answers
    payloads = json.load(sys.stdin)
    catalog = open_store_catalog(store_dir)
    runtime = QueryRuntime(RuntimeConfig(store_dir=store_dir))
    answers = [expected_answer(catalog, runtime, p) for p in payloads]
    # numpy scalars as Python numbers; floats round-trip exactly
    json.dump(answers, out, default=lambda o: o.item())
    out.flush()
    return 0


def expected_answer(catalog, runtime, payload: dict) -> tuple:
    """``(type, comparable value)`` from the direct library call."""
    from repro.core.service import ServiceModel, ServiceSpec
    from repro.queries.evaluate import evaluate_service
    from repro.queries.kmaxrrst import top_k_facilities
    from repro.queries.maxkcov import maxkcov_tq

    raw = payload["spec"]
    spec = ServiceSpec(
        ServiceModel(raw["model"]), raw["psi"], raw.get("normalize", True)
    )
    tree = catalog.tree(payload["tree"])
    kind = payload["type"]
    if kind == "evaluate":
        facility = catalog.facility(payload["facility_set"], payload["facility_id"])
        return kind, evaluate_service(tree, facility, spec, runtime=runtime)
    facilities = catalog.select(payload["facility_set"], payload["facility_ids"])
    if kind == "kmaxrrst":
        result = top_k_facilities(tree, facilities, payload["k"], spec, runtime=runtime)
        # ties may rank in any id order: compare the ranked values
        return kind, tuple(fs.service for fs in result.ranking)
    result = maxkcov_tq(tree, facilities, payload["k"], spec, runtime=runtime)
    return kind, (
        tuple(result.facility_ids()),
        result.combined_service,
        result.users_fully_served,
        tuple(result.step_gains),
    )


def observed_answer(body: dict) -> tuple:
    """The same projection as :func:`expected_answer`, of a response body."""
    kind = body["type"]
    value = body["value"]
    if kind == "evaluate":
        return kind, float(value)
    if kind == "kmaxrrst":
        return kind, tuple(float(e["service"]) for e in value["ranking"])
    return kind, (
        tuple(value["facility_ids"]),
        float(value["combined_service"]),
        int(value["users_fully_served"]),
        tuple(float(g) for g in value["step_gains"]),
    )


def magnitude(answer: tuple) -> float:
    kind, value = answer
    if kind == "evaluate":
        return value
    if kind == "kmaxrrst":
        return sum(value)
    return value[1]


def check_answers(
    pairs: Sequence[Tuple[dict, dict]], expect: Callable[[dict], tuple]
) -> List[str]:
    """Compare every answered ``(payload, body)`` with ``==`` against
    ``expect(payload)``; returns one message per problem."""
    problems = []
    total = 0.0
    for payload, body in pairs:
        want = expect(payload)
        got = observed_answer(body)
        total += magnitude(want)
        if got != want:
            problems.append(
                f"wrong answer for {json.dumps(payload)}: got {got}, "
                f"expected {want}"
            )
    if pairs and not total > 0:
        problems.append(
            "every expected answer is 0: the generated city serves no "
            "riders, so the check proves nothing"
        )
    return problems


def stream_rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per named stream, fixed by the seed."""
    return np.random.default_rng([seed, *stream.encode()])


def connections() -> int:
    return max(1, min(2, os.cpu_count() or 1))


if __name__ == "__main__":
    sys.exit(_oracle_main(sys.argv[1]))
