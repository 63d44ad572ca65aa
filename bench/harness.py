"""Closed-loop trace replay of the benchmark workloads, with output checks.

One client sends one trace record at a time through ``workload.replay`` and
waits for it to finish before sending the next, so every operation is timed
on its own.  Inputs come only from ``workload.build_corpus`` and
``workload.generate_trace``; the seed reaches nothing but ``WorkloadSpec``.

After each replay, outside the timed region, the outputs are checked:

* the learning engine's ``total_search_iterations`` equals the sum of the
  ``cost`` column of its op log (and the CAM's ``total_scanned`` likewise);
* the maintained ``hive.search_order`` equals ``engine.oracle_search_order``;
* every replay of one trace yields the same op log, compared by sha256.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from neuralstore import config as ns_config
from neuralstore import engine as ns_engine
from neuralstore import metrics as ns_metrics
from neuralstore import workload as ns_workload
from neuralstore.workload import ReplayError

import catalog
import speed
from tracing import REPLAY_LAYERS, SETUP_LAYERS, Tracer

ENGINES = ("ns", "cam")
TAIL_BEYOND = 10        # samples a tail percentile leaves above it
TRACED_SETUPS = 3


def sub_seed(seed: int, index: int) -> int:
    return seed + index * catalog.SEED_STRIDE


@dataclass
class Inputs:
    """One seeded trace and what its engines are built from."""

    seed: int
    config: object
    corpus: object
    records: list
    capacity: int | None

    def adapter(self, engine: str):
        return ns_config.build_adapter(self.config, self.corpus, engine=engine,
                                       capacity_bytes=self.capacity)


def set_up(workload: catalog.Workload, seed: int, tiny: bool):
    """Config, corpus, trace and a fresh adapter per engine: what setup_s times."""
    config = ns_config.load_config(preset=catalog.PRESET)
    overrides = dict(workload.overrides)
    if tiny:
        overrides.update(catalog.TINY_OVERRIDES)
    spec = dataclasses.replace(config.workload, seed=seed, **overrides)
    corpus = ns_workload.build_corpus(spec)
    records = ns_workload.generate_trace(corpus, spec)
    capacity = None
    if workload.capacity_fraction is not None:
        capacity = int(workload.capacity_fraction * corpus.total_bytes())
    inputs = Inputs(seed, config, corpus, records, capacity)
    return inputs, {engine: inputs.adapter(engine) for engine in ENGINES}


@dataclass
class Replay:
    engine: str
    latencies: list[float]      # seconds per completed op at the reference
                                # speed (see speed.py), in trace order
    busy_s: float               # their sum
    measured_s: float           # their sum as measured, before rescaling
    wall: float
    attempted: int
    failed: int                 # ops not completed because the replay aborted
    error: str | None
    digest: str                 # sha256 of the op log as workload.write_log writes it
    total_cost: int
    evictions: int
    checks: dict[str, bool]

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def log_digest(log: list[dict]) -> str:
    text = "".join(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
                   for row in log)
    return hashlib.sha256(text.encode()).hexdigest()


def check_outputs(adapter, log: list[dict]) -> dict[str, bool]:
    cost = sum(row["cost"] for row in log)
    if adapter.engine_id == "cam":
        return {"cam_scanned_equals_log_cost": adapter.cam.total_scanned == cost}
    eng = adapter.engine
    maintained = {cue: [(e.dn_id, e.avg_weight) for e in entries]
                  for cue, entries in eng.hive.search_order.items()}
    oracle = ns_engine.oracle_search_order(eng.memory, eng.hive)
    return {"ns_iterations_equal_log_cost": eng.total_search_iterations == cost,
            "ns_search_order_equals_oracle": maintained == oracle}


def replay_closed_loop(inputs: Inputs, adapter, tracer: Tracer | None = None):
    """Replay every record, one at a time; return (Replay, op log).

    A ReplayError (storage full) ends the replay; the records not completed
    count as failed.
    """
    replay = ns_workload.replay
    records, corpus = inputs.records, inputs.corpus
    log: list[dict] = []
    latencies: list[float] = []
    failed, error = 0, None
    start = perf_counter()
    marks = [(0, speed.probe())]
    next_probe = perf_counter() + speed.INTERVAL_S
    # As in timeit: a collection is not timed into whichever op it falls in;
    # the callers collect between replays.
    gc.disable()
    try:
        for i, rec in enumerate(records):
            if tracer is not None:
                tracer.seq = rec.seq
            t0 = perf_counter()
            try:
                rows = replay([rec], adapter, corpus)
            except ReplayError as exc:
                failed, error = len(records) - i, str(exc)
                break
            t1 = perf_counter()
            latencies.append(t1 - t0)
            log.extend(rows)
            if t1 >= next_probe:
                marks.append((len(latencies), speed.probe()))
                next_probe = perf_counter() + speed.INTERVAL_S
    finally:
        gc.enable()
    marks.append((len(latencies), speed.probe()))
    wall = perf_counter() - start
    scaled = speed.rescale(latencies, marks)
    result = Replay(
        engine=adapter.engine_id, latencies=scaled, busy_s=sum(scaled),
        measured_s=sum(latencies), wall=wall,
        attempted=len(records), failed=failed, error=error,
        digest=log_digest(log), total_cost=sum(row["cost"] for row in log),
        evictions=sum(row.get("evicted", 0) for row in log),
        checks=check_outputs(adapter, log))
    return result, log


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest order statistic with TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count); with too few samples the
    maximum is returned.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    k = max(0, n - 1 - TAIL_BEYOND)
    return sorted(values)[k], 100.0 * (k + 1) / n, n


@dataclass
class Outcome:
    """What one benchmark run reports."""

    metrics: dict[str, float]
    checks: dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    details: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())

    def absorb(self, runs: list[Replay]) -> None:
        """Take in the replays of one trace on one engine.  Its ops count as
        attempted and failed once: repeats replay the same ops with the same
        outcome, which their equal digests show."""
        checks = [("replays_repeat_op_logs", _same(r.digest for r in runs))]
        checks += [check for r in runs for check in r.checks.items()]
        for name, ok in checks:
            self.checks[name] = self.checks.get(name, True) and ok
        self.attempted += runs[0].attempted
        self.failed += runs[0].failed


def _same(values) -> bool:
    return len(set(values)) <= 1


def _throughput(runs: list[Replay], measured: bool = False) -> float:
    """Median over replays of ops completed per busy second."""
    return statistics.median(
        _ratio(r.completed, r.measured_s if measured else r.busy_s) for r in runs)


def _per_op_medians(runs: list[Replay]) -> list[float]:
    """Median latency of each op over the replays of one trace."""
    return [statistics.median(samples) for samples in zip(*(r.latencies for r in runs))]


def run_end_to_end(workload: catalog.Workload, seed: int, seconds: float,
                   tiny: bool) -> Outcome:
    """Replay each of the workload's traces on both engines, then replay them
    again in turn while the next round fits in ``seconds``; report end-to-end
    metrics.  An op's latency is its median over the replays of its trace.

    Every round also times one set-up, so that ``setup_s``, the median of the
    set-ups, samples the whole run and not the few seconds of its start.
    Times are at the reference speed of ``speed.py``."""
    n = workload.traces
    setup_times: list[float] = []
    setup_measured: list[float] = []

    def timed_set_up(index: int):
        made, scaled, measured = speed.timed(
            set_up, workload, sub_seed(seed, index % n), tiny)
        setup_times.append(scaled)
        setup_measured.append(measured)
        return made

    inputs: list[Inputs] = []
    adapters: list[dict | None] = []
    for i in range(n):
        inp, fresh = timed_set_up(i)
        inputs.append(inp)
        adapters.append(fresh)

    ns_runs: list[list[Replay]] = [[] for _ in inputs]
    cam_runs: list[list[Replay]] = [[] for _ in inputs]
    ns_logs: list[list[dict]] = []
    durations = [0.0] * n
    replayed = 0
    deadline = perf_counter() + seconds
    while replayed < n or perf_counter() + durations[replayed % n] <= deadline:
        i = replayed % n
        inp = inputs[i]
        started = perf_counter()
        fresh = adapters[i] or {engine: inp.adapter(engine) for engine in ENGINES}
        adapters[i] = None
        gc.collect()
        result, log = replay_closed_loop(inp, fresh["ns"])
        ns_runs[i].append(result)
        if replayed < n:
            ns_logs.append(log)
        del log
        cam_adapter, cam_time = fresh["cam"], 0.0
        gc.collect()
        while cam_time < catalog.CAM_MIN_SECONDS:
            result, _ = replay_closed_loop(inp, cam_adapter or inp.adapter("cam"))
            result.latencies = []   # only cam throughput is reported
            cam_runs[i].append(result)
            cam_time += result.wall
            cam_adapter = None
        timed_set_up(replayed)
        durations[i] = perf_counter() - started
        replayed += 1
    while len(setup_times) < catalog.MIN_SETUPS:
        timed_set_up(len(setup_times))

    outcome = Outcome(metrics={})
    for runs in ns_runs + cam_runs:
        outcome.absorb(runs)

    retrieve_ms, store_ms = [], []
    for inp, runs in zip(inputs, ns_runs):
        for rec, latency in zip(inp.records, _per_op_medians(runs)):
            if rec.op == "retrieve":
                retrieve_ms.append(latency * 1e3)
            elif rec.op == "store":
                store_ms.append(latency * 1e3)
    retrieve_tail = tail(retrieve_ms)
    store_tail = tail(store_ms)

    ns_all = [r for runs in ns_runs for r in runs]
    cam_all = [r for runs in cam_runs for r in runs]
    nonempty = [log for log in ns_logs if log]     # empty if every first op failed
    pooled = ns_metrics.engine_summary(
        [row for log in nonempty for row in log]) if nonempty else {}
    m = outcome.metrics
    m["setup_s"] = statistics.median(setup_times)
    m["ns_ops_per_s"] = _throughput(ns_all)
    m["cam_ops_per_s"] = _throughput(cam_all)
    m["ns_retrieve_p50_ms"] = statistics.median(retrieve_ms) if retrieve_ms else 0.0
    m["ns_retrieve_tail_ms"] = retrieve_tail[0]
    m["ns_store_p50_ms"] = statistics.median(store_ms) if store_ms else 0.0
    m["ns_store_tail_ms"] = store_tail[0]
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m["ops_completed_ratio"] = 1.0 - outcome.failed / outcome.attempted
    m["ns_mean_retrieve_cost"] = pooled.get("mean_retrieve_cost", 0.0)
    m["ns_hit_rate"] = pooled.get("hit_rate", 0.0)
    m["ns_mean_norm_fidelity"] = pooled.get("mean_norm_fidelity", 0.0)
    m["ns_final_bytes"] = statistics.mean(
        [ns_metrics.engine_summary(log)["final_bytes"] for log in nonempty] or [0])

    outcome.details = {
        "as_measured": {
            "setup_s": statistics.median(setup_measured),
            "ns_ops_per_s": _throughput(ns_all, measured=True),
            "cam_ops_per_s": _throughput(cam_all, measured=True),
        },
        "ns_replays_per_trace": [len(runs) for runs in ns_runs],
        "setup_samples": len(setup_times),
        "ops_failed_ratio": outcome.failed / outcome.attempted,
        "ns_retrieve_tail": {"percentile": retrieve_tail[1], "samples": retrieve_tail[2]},
        "ns_store_tail": {"percentile": store_tail[1], "samples": store_tail[2]},
        "traces": [
            {"workload_seed": inp.seed, "ops": len(inp.records),
             "capacity_bytes": inp.capacity,
             "ns_log_sha256": ns[0].digest, "cam_log_sha256": cam[0].digest,
             "ns_errors": sorted({r.error for r in ns if r.error}),
             "cam_errors": sorted({r.error for r in cam if r.error}),
             "cam_replays": len(cam)}
            for inp, ns, cam in zip(inputs, ns_runs, cam_runs)],
    }
    return outcome


# -- traced run ---------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _loop_layers(ns_tracer: Tracer, cam_tracer: Tracer, ns: Replay, cam: Replay,
                 untraced_ns_wall: float) -> dict[str, float]:
    """Per-layer values of one traced replay pair."""
    totals = {**ns_tracer.layer_totals(),
              **{k: v for k, v in cam_tracer.layer_totals().items()
                 if k.startswith("cam.")}}
    counters = ns_tracer.counters
    values: dict[str, float] = {}
    for _, _, layer, _ in REPLAY_LAYERS:
        calls, self_s = totals.get(layer, (0, 0.0))
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s
    order_calls = values["engine.update_search_order.calls"]
    values["engine.update_search_order.calls_per_op"] = _ratio(order_calls, ns.completed)
    values["engine.update_search_order.entries_sorted"] = counters[
        "engine.update_search_order.entries_sorted"]
    values["engine.reaction.noop_ratio"] = _ratio(
        counters["engine.reaction.noops"], values["engine.reaction.calls"])
    values["engine.get_search_order.mean_candidates"] = _ratio(
        counters["engine.get_search_order.candidates"],
        values["engine.get_search_order.calls"])
    values["codec.cosine_similarity.match_ratio"] = _ratio(
        counters["codec.cosine_similarity.matches"],
        values["codec.cosine_similarity.calls"])
    values["engine.elasticity.bytes_freed"] = counters["engine.elasticity.bytes_freed"]
    values["cam.entries_scanned"] = cam.total_cost
    values["cam.evictions"] = cam.evictions
    values["trace.overhead_ratio"] = _ratio(ns.wall, untraced_ns_wall)
    return values


def run_traced(workload: catalog.Workload, seed: int, seconds: float,
               tiny: bool) -> tuple[Outcome, list[Tracer]]:
    """Replay the workload's first trace alternately untraced and traced, while
    another such pair fits in ``seconds``; report per-layer metrics."""
    setup_tracers = []
    for _ in range(TRACED_SETUPS):
        with Tracer("setup", SETUP_LAYERS) as tracer:
            inputs, first = set_up(workload, sub_seed(seed, 0), tiny)
        setup_tracers.append(tracer)
    match_thresh = inputs.config.search.match_thresh

    loops: list[dict[str, float]] = []
    replays: list[Replay] = []
    deadline = perf_counter() + seconds
    while True:
        loop_start = perf_counter()
        plain = first or {engine: inputs.adapter(engine) for engine in ENGINES}
        first = None
        gc.collect()
        plain_ns, _ = replay_closed_loop(inputs, plain["ns"])
        plain_cam, _ = replay_closed_loop(inputs, plain["cam"])
        traced = {engine: inputs.adapter(engine) for engine in ENGINES}
        gc.collect()
        with Tracer("ns", REPLAY_LAYERS, match_thresh) as ns_tracer:
            traced_ns, _ = replay_closed_loop(inputs, traced["ns"], ns_tracer)
        gc.collect()
        with Tracer("cam", REPLAY_LAYERS, match_thresh) as cam_tracer:
            traced_cam, _ = replay_closed_loop(inputs, traced["cam"], cam_tracer)
        replays += [plain_ns, plain_cam, traced_ns, traced_cam]
        loops.append(_loop_layers(ns_tracer, cam_tracer, traced_ns, traced_cam,
                                  plain_ns.wall))
        now = perf_counter()
        if now + (now - loop_start) > deadline:
            break

    outcome = Outcome(metrics={})
    for engine in ENGINES:
        outcome.absorb([r for r in replays if r.engine == engine])
    counts_repeat = True
    for name in loops[0]:
        samples = [loop[name] for loop in loops]
        if name.endswith(".self_s") or name == "trace.overhead_ratio":
            outcome.metrics[name] = statistics.median(samples)
        else:
            counts_repeat = counts_repeat and _same(samples)
            outcome.metrics[name] = samples[0]
    outcome.checks["layer_counts_repeat"] = counts_repeat
    setup_totals = [t.layer_totals() for t in setup_tracers]
    for _, _, layer, _ in SETUP_LAYERS:
        outcome.metrics[f"{layer}.self_s"] = statistics.median(
            t.get(layer, (0, 0.0))[1] for t in setup_totals)
    outcome.details = {
        "loops": len(loops),
        "workload_seed": inputs.seed,
        "ns_log_sha256": replays[0].digest,
        "cam_log_sha256": replays[1].digest,
    }
    return outcome, setup_tracers + [ns_tracer, cam_tracer]
