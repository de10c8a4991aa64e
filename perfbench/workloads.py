"""The two workloads: input generation, load loops, checks and metrics.

``cells_churn``
    Open loop, Poisson arrivals at ``CELL_RATE``; one cell per
    ``lookup_batch([q], 10)``.  Zipf(s=1.1) popularity over the 2k KG and
    bench_router's 50/25/25 exact/typo/short mix.  Router on, result cache
    smaller than the distinct-query set.  Beside the reads, a fixed-rate
    add/update/remove feed goes through a background
    ``ChangeFeedConsumer`` and only touches entities the reads never
    target.  The cache, the router, batch-1 embedding and the ingest path
    carry the work.
``columns_typo_50k``
    Closed loop, one client sending 64 distinct typo'd labels per call
    against the 50k KG, two flat shards on the ``auto`` executor, no router,
    no cache and no feed.  Search and fan-in carry the work.
"""

from __future__ import annotations

import bisect
import gc
import multiprocessing
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.pipeline import EmbLookup
from repro.index.shm import owned_segment_names
from repro.lookup.normalize import normalize
from repro.serving import ChangeFeedConsumer, IndexMutation, LookupEngine
from repro.testing.oracle import brute_force_topk
from repro.text.noise import NoiseModel

from perfbench.trace import Tracer

K = 10
#: Tail percentiles considered; the highest with >= 10 samples beyond wins.
#: It stops at p95: on a shared host a few stalls of some milliseconds
#: land in a run's top 1% and decide p99 more than the engine does.
LADDER = (50.0, 75.0, 90.0, 95.0)
TAIL_WINDOW = 1_000        # samples per tail sub-window

ZIPF_S = 1.1
POPULARITY_SEED = 7
CELL_RATE = 250.0          # arrivals per second on the open loop
CELL_WARMUP = 1_000        # lookups served before the window opens
CELL_CACHE = 1_024         # entries per cache store (distinct cells: ~2k)
CELL_LIMIT_MS = 10.0       # latency limit for slo_met_ratio on cells
CELL_RECALL_FLOOR = 0.60
CELL_SETUP_REPS = 12       # half before the window, half after it

COLUMN_CELLS = 64
COLUMN_POOL = 256          # columns generated per run (cycled if exhausted)
COLUMN_LIMIT_MS = 1_000.0  # latency limit per 64-cell call
COLUMN_RECALL_FLOOR = 0.30
COLUMN_SETUP_REPS = 2
ORACLE_SAMPLE = 16         # column cells re-checked against brute force
ORACLE_TOL = 1e-4          # float32 scan vs float64 oracle distances

FEED_RATE = 20.0           # change-feed records per second on cells_churn
COMPACT_THRESHOLD = 0.02   # tombstone share that triggers compaction


# -- statistics ----------------------------------------------------------------


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of ``n`` samples beyond it."""
    best = LADDER[0]
    for pct in LADDER:
        if n * (100.0 - pct) / 100.0 >= 10:
            best = pct
    return best


def summarize(seconds: list[float]) -> dict:
    """Mean, median and tail (ms) of durations in seconds, in arrival order.

    The mean and the tail are taken per consecutive sub-window of at least
    ``TAIL_WINDOW`` samples (at most four) and the median of those is
    reported, so one host stall inside a run moves one sub-window only.
    """
    arr = np.asarray(seconds, dtype=np.float64) * 1e3
    if not len(arr):
        return {
            "mean_ms": 0.0, "p50_ms": 0.0, "tail_ms": 0.0, "tail_pct": 0.0,
            "n": 0, "parts": 0,
        }
    parts = np.array_split(arr, max(1, min(4, len(arr) // TAIL_WINDOW)))
    pct = tail_percentile(min(len(part) for part in parts))
    return {
        "mean_ms": float(np.median([p.mean() for p in parts])),
        "p50_ms": float(np.percentile(arr, 50)),
        "tail_ms": float(np.median([np.percentile(p, pct) for p in parts])),
        "tail_pct": pct,
        "n": int(len(arr)),
        "parts": len(parts),
    }


def _status_kb(pid: int | str, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_pids() -> list[int]:
    pids: list[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
    return pids


def peak_rss_mb(worker_hwm_kb: int) -> float:
    """This process's peak RSS plus the workers' peaks read before close."""
    return (_status_kb("self", "VmHWM") + worker_hwm_kb) / 1024.0


def wait_until(deadline: float) -> None:
    """Spin to ``deadline``, releasing the interpreter lock on every turn.

    A timed sleep would put the host's wake-up delay into every call that
    found the engine idle: on a busy shared host a 2 ms sleep overshoots
    by 3 ms at p90.  ``sleep(0)`` lets the change-feed consumer run while
    the loop waits; the loop keeps one core busy for the window.
    """
    while time.perf_counter() < deadline:
        time.sleep(0)


# -- inputs -----------------------------------------------------------------------


class CellStream:
    """Zipf-popular cells in bench_router's 50/25/25 exact/typo/short mix.

    Which entities are popular is part of the workload, fixed by
    ``POPULARITY_SEED``; the run's seed draws the requests.  A seed-chosen
    ranking would make each run's cache and exact-tier share depend on
    which few entities landed in the head.
    """

    def __init__(self, kg, seed: int) -> None:
        self.rng = np.random.default_rng([seed, 1])
        self.noise = NoiseModel(max_edits=2, seed=int(self.rng.integers(2**31)))
        self.entities = list(kg.entities())
        order = np.random.default_rng(POPULARITY_SEED).permutation(
            len(self.entities)
        )
        weights = 1.0 / np.arange(1, len(order) + 1) ** ZIPF_S
        self.order = order
        self.cdf = np.cumsum(weights / weights.sum())

    def draw(self, n: int) -> tuple[list[str], list[str]]:
        """``n`` cells; exactly half exact, a quarter typo, a quarter short."""
        picks = np.searchsorted(self.cdf, self.rng.random(n), side="right")
        kinds = np.repeat(np.arange(3), [n - 2 * (n // 4), n // 4, n // 4])
        self.rng.shuffle(kinds)
        queries, truth = [], []
        for pick, kind in zip(picks, kinds):
            entity = self.entities[self.order[min(pick, len(self.order) - 1)]]
            if kind == 0:
                mentions = entity.mentions
                queries.append(mentions[int(self.rng.integers(len(mentions)))])
            elif kind == 1:
                queries.append(self.noise.corrupt(entity.label))
            else:
                queries.append(entity.label[:3])
            truth.append(entity.entity_id)
        return queries, truth


def poisson_arrivals(rng: np.random.Generator, rate: float, seconds: float):
    """A Poisson process on [0, seconds) conditioned on rate*seconds arrivals."""
    return np.sort(rng.uniform(0.0, seconds, int(round(rate * seconds))))


def typo_columns(kg, seed: int) -> tuple[list[list[str]], list[list[str]]]:
    """``COLUMN_POOL`` columns of distinct entities' typo'd labels."""
    rng = np.random.default_rng([seed, 2])
    noise = NoiseModel(max_edits=2, seed=int(rng.integers(2**31)))
    entities = list(kg.entities())
    columns, truth = [], []
    for _ in range(COLUMN_POOL):
        picks = rng.choice(len(entities), size=COLUMN_CELLS, replace=False)
        columns.append([noise.corrupt(entities[i].label) for i in picks])
        truth.append([entities[i].entity_id for i in picks])
    return columns, truth


class Feed:
    """bench_mutation's churn shape plus updates, over synthetic entities.

    Entity ids and mentions carry ``prefix`` and never collide with KG
    labels, so the read stream never targets them.  The feed tracks the
    final state it implies for the post-drain checks.
    """

    def __init__(self, seed: int, prefix: str) -> None:
        self.rng = np.random.default_rng([seed, 3])
        self.prefix = prefix
        self.live: dict[str, tuple[str, ...]] = {}
        self.removed: dict[str, tuple[str, ...]] = {}

    def record(self, seq: int) -> IndexMutation:
        roll = self.rng.random()
        live = sorted(self.live)
        if live and roll < 0.35:
            eid = live[int(self.rng.integers(len(live)))]
            self.removed[eid] = self.live.pop(eid)
            return IndexMutation(seq, "remove", eid)
        if live and roll < 0.55:
            eid = live[int(self.rng.integers(len(live)))]
            kind = "update"
        else:
            eid = f"{self.prefix}-{seq}"
            kind = "add"
        forms = int(self.rng.integers(1, 3))
        mentions = tuple(
            f"{self.prefix} zentity {seq} form {j}" for j in range(forms)
        )
        self.live[eid] = mentions
        return IndexMutation(seq, kind, eid, mentions=mentions)


class ClockedConsumer(ChangeFeedConsumer):
    """A consumer that notes when its watermark moves (for freshness).

    The note is taken in the watermark tracker itself, so a compaction the
    consumer runs after marking a record applied is not counted against
    that record.
    """

    def __init__(self, engine, **kwargs) -> None:
        super().__init__(engine, **kwargs)
        self.advances: list[tuple[float, int]] = []
        tracker = self.tracker
        mark = tracker.mark_applied

        def mark_applied(seq: int) -> None:
            mark(seq)
            self.advances.append((time.perf_counter(), tracker.watermark))

        tracker.mark_applied = mark_applied


def freshness(published: dict[int, float], advances) -> list[float]:
    """Seconds from each record's publish until the watermark passed it."""
    out = []
    pos = 0
    for seq in sorted(published):
        while pos < len(advances) and advances[pos][1] < seq:
            pos += 1
        if pos < len(advances):
            out.append(advances[pos][0] - published[seq])
    return out


# -- one run ------------------------------------------------------------------------


@dataclass
class Window:
    """What one measured window of lookups produced."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    hits: int = 0
    within_limit: int = 0
    elapsed: float = 0.0
    end: float = 0.0
    lateness: list[float] = field(default_factory=list)
    backlog_max: int = 0
    ingest_backlog_max: int = 0
    published: dict[int, float] = field(default_factory=dict)


@dataclass
class Run:
    """State of one workload run, and the checks it failed."""

    seed: int
    seconds: float
    trace: bool
    failures: list[str] = field(default_factory=list)
    setup: list[dict] = field(default_factory=list)
    worker_hwm_kb: int = 0
    host: dict = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def build_engine(model_dir, kg, engine_kwargs: dict, first: list[str], trace: bool):
    """Saved weights -> an engine that has answered one lookup; timed."""
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    pipeline = EmbLookup.load(model_dir, kg)
    loaded = time.perf_counter()
    if tracer is not None:
        tracer.wrap(pipeline, "embed_queries", "embed")
    engine = LookupEngine.from_pipeline(pipeline, **engine_kwargs)
    built = time.perf_counter()
    try:
        engine.lookup_batch(first, K)
    except BaseException:
        engine.close()
        raise
    ready = time.perf_counter()
    timing = {
        "setup_s": ready - start,
        "setup.pipeline_load_s": loaded - start,
        "setup.engine_build_s": built - loaded,
    }
    if tracer is not None:
        tracer.unwrap()
        timing["setup.embed_rows_s"] = sum(tracer.durations("embed"))
    return engine, timing


def set_up(run: Run, reps: int, model_dir, kg, engine_kwargs, first):
    """Build the engine ``reps`` times; keep the last, close the others."""
    engine = None
    for _ in range(reps):
        if engine is not None:
            engine.close()
            engine = None
            gc.collect()
        engine, timing = build_engine(
            model_dir, kg, engine_kwargs, first, run.trace
        )
        run.setup.append(timing)
    return engine


def freeze_heap() -> None:
    """Move the start-up heap out of the collector's reach, as servers do.

    Without this, each window sees about two full collections of ~45 ms
    that walk the static KG, model and index objects; where they land
    decides the tail more than the engine does.
    """
    gc.collect()
    gc.freeze()


def install_tracer(engine: LookupEngine) -> tuple[Tracer, list]:
    """Wrap the public calls into each layer of a live engine."""
    tracer = Tracer()
    search_meta: list[tuple[int, int]] = []
    index = engine.index

    def search_size(queries, k, *args, **kwargs):
        search_meta.append((index.ntotal, k))
        return len(queries)

    tracer.wrap(engine, "lookup_batch", "engine", lambda q, *a, **kw: len(q))
    tracer.wrap(
        engine, "apply_mutation", lambda m: f"ingest.apply.{m.kind}"
    )
    tracer.wrap(engine, "compact", "ingest.compact")
    tracer.wrap(index, "search", "search", search_size)
    tracer.wrap(
        engine.pipeline, "embed_queries", "embed", lambda q: len(q)
    )
    if engine.cache is not None:
        cache = engine.cache
        tracer.wrap(cache, "get_results", "cache.get_results")
        tracer.wrap(cache, "put_results", "cache.put_results")
        tracer.wrap(cache, "get_embeddings", "cache.get_embeddings")
        tracer.count_hits(cache, "get_result", "cache.result")
        tracer.count_hits(cache, "get_embedding", "cache.embedding")
    router = engine.router
    if router is not None:
        tracer.wrap(router, "serve_local", "router")
        tracer.wrap(router.label_table, "get", "router.exact")
        if router.fuzzy is not None:
            tracer.wrap(
                router.fuzzy, "lookup_batch", "router.fuzzy",
                lambda q, *a, **kw: len(q),
            )
    return tracer, search_meta


def open_loop(engine, queries, truth, arrivals, feed, consumer) -> Window:
    """Serve each query at its due time; time it from when it was due.

    Feed records (``feed`` yields them at ``FEED_RATE``) are published on
    the same timeline.  A request that finds the engine idle starts late
    only by the generator's own error, recorded as lateness; a request
    that finds it busy waits in the backlog and that wait is latency.
    """
    win = Window()
    start = time.perf_counter() + 0.005
    due = start + arrivals
    count = int(round(FEED_RATE * (arrivals[-1] if len(arrivals) else 0)))
    feed_due = [start + j / FEED_RATE for j in range(count)]
    next_feed = 0
    prev_end = start
    for i, query in enumerate(queries):
        while next_feed < len(feed_due) and feed_due[next_feed] <= due[i]:
            wait_until(feed_due[next_feed])
            record = feed.record(next_feed)
            win.published[record.seq] = time.perf_counter()
            consumer.publish(record)
            stats = consumer.ingest_stats()
            backlog = next_feed + 1 - stats["applied"] - stats["dead_letters"]
            win.ingest_backlog_max = max(win.ingest_backlog_max, backlog)
            next_feed += 1
        wait_until(due[i])
        began = time.perf_counter()
        if prev_end <= due[i]:
            win.lateness.append(began - due[i])
        waiting = bisect.bisect_right(due, began) - i - 1
        win.backlog_max = max(win.backlog_max, waiting)
        win.attempted += 1
        try:
            rows = engine.lookup_batch([query], K)
        except Exception:
            rows = None
        end = time.perf_counter()
        prev_end = end
        latency = end - due[i]
        if rows is None:
            win.failed += 1
            continue
        win.latencies.append(latency)
        if latency * 1e3 <= CELL_LIMIT_MS:
            win.within_limit += 1
        if any(c.entity_id == truth[i] for c in rows[0]):
            win.hits += 1
    win.elapsed = prev_end - start
    win.end = prev_end
    return win


def closed_loop(engine, columns, truth, seconds: float) -> Window:
    """One client: send the next column as soon as the last one returns."""
    win = Window()
    start = time.perf_counter()
    stop = start + seconds
    prev_end = start
    i = 0
    while prev_end < stop:
        column = columns[i % len(columns)]
        want = truth[i % len(truth)]
        i += 1
        began = time.perf_counter()
        win.lateness.append(began - prev_end)
        win.attempted += len(column)
        try:
            rows = engine.lookup_batch(column, K)
        except Exception:
            rows = None
        end = time.perf_counter()
        prev_end = end
        if rows is None:
            win.failed += len(column)
            continue
        win.latencies.append(end - began)
        if (end - began) * 1e3 <= COLUMN_LIMIT_MS:
            win.within_limit += len(column)
        for row, eid in zip(rows, want):
            if any(c.entity_id == eid for c in row):
                win.hits += 1
    win.backlog_max = 1
    win.elapsed = prev_end - start
    win.end = prev_end
    return win


def check_feed(engine, consumer, feed: Feed, last_seq: int, run: Run) -> None:
    """After drain: no dead letters, watermark at the end, state visible."""
    run.check(
        not consumer.dead_letters,
        f"{len(consumer.dead_letters)} feed record(s) dead-lettered",
    )
    run.check(
        consumer.watermark == last_seq,
        f"watermark {consumer.watermark} != last seq {last_seq}",
    )
    for eid, mentions in sorted(feed.removed.items()):
        for mention in mentions:
            got = [c.entity_id for c in engine.lookup_batch([mention], K)[0]]
            run.check(eid not in got, f"removed {eid} returned for {mention!r}")
    for eid, mentions in sorted(feed.live.items()):
        got = [c.entity_id for c in engine.lookup_batch([mentions[0]], K)[0]]
        run.check(eid in got, f"live {eid} not found by {mentions[0]!r}")


def check_against_oracle(engine, columns, run: Run) -> None:
    """Sampled engine top-10 vs ``brute_force_topk`` over the engine's rows.

    Entities must agree rank by rank up to distance ties: every returned
    distance matches the oracle's at the same rank, and every returned
    entity is one the oracle places within the 10th distance.
    """
    index = engine.index
    shards = index.shards
    rows = np.empty((index.ntotal, index.dim), dtype=np.float32)
    for s, shard in enumerate(shards):
        rows[s :: len(shards)] = shard.vectors
    row_entity = engine.pipeline.row_entity_ids
    # The engine's own over-fetch for alias rows, plus room for ties.
    fetch = (K * 3 if len(set(row_entity)) < len(row_entity) else K) + 32
    rng = np.random.default_rng([run.seed, 4])
    sample = [
        columns[int(rng.integers(len(columns)))][int(rng.integers(COLUMN_CELLS))]
        for _ in range(ORACLE_SAMPLE)
    ]
    got_rows = engine.lookup_batch(sample, K)
    vectors = engine.pipeline.embed_queries([normalize(q) for q in sample])
    for query, vector, got in zip(sample, vectors, got_rows):
        ids, dists = brute_force_topk(rows, vector, fetch)
        ranked: dict[str, float] = {}
        for row, dist in zip(ids[0], dists[0]):
            if row >= 0:
                ranked.setdefault(row_entity[int(row)], float(dist))
        want = list(ranked.items())[:K]
        cutoff = want[-1][1] + ORACLE_TOL
        tied = {eid for eid, dist in ranked.items() if dist <= cutoff}
        ok = len(got) == len(want) and all(
            abs(-cand.score - dist) <= ORACLE_TOL and cand.entity_id in tied
            for cand, (_, dist) in zip(got, want)
        )
        run.check(ok, f"oracle disagrees on {query!r}: {got} vs {want}")


def _worker_hwm_kb() -> int:
    return sum(_status_kb(pid, "VmHWM") for pid in child_pids())


# -- workloads --------------------------------------------------------------------


def cells(run: Run, fixture) -> dict:
    """Set up, serve one window (two with tracing), set up again.

    The traced window runs on a freshly built engine with the same
    warm-up, draw and feed as the untraced one, so the two start from the
    same state and differ only by the tracer.  Set-up is repeated before
    and after the windows, so its median spans the run rather than its
    first few seconds.
    """
    model_dir = fixture.ensure_model()
    kg = fixture.small_kg()
    stream = CellStream(kg, run.seed)
    warm_q, _ = stream.draw(CELL_WARMUP)
    queries, truth = stream.draw(int(round(CELL_RATE * run.seconds)))
    arrivals = poisson_arrivals(
        np.random.default_rng([run.seed, 5]), CELL_RATE, run.seconds
    )
    engine_kwargs = {"router": True, "cache_size": CELL_CACHE}
    first = ["perfbench setup probe"]
    run.host.update(executor="flat (unsharded)", workers=0)
    passes = []
    for traced in ([False, True] if run.trace else [False]):
        if traced:
            engine, _ = build_engine(model_dir, kg, engine_kwargs, first, False)
        else:
            engine = set_up(
                run, CELL_SETUP_REPS // 2, model_dir, kg, engine_kwargs, first
            )
        try:
            for query in warm_q:
                engine.lookup_batch([query], K)
            freeze_heap()
            passes.append(
                _cells_pass(engine, run, queries, truth, arrivals, traced)
            )
            index_bytes_per_row = engine.index_bytes() / engine.index.ntotal
        finally:
            engine.close()
            gc.unfreeze()
    set_up(
        run, CELL_SETUP_REPS - CELL_SETUP_REPS // 2, model_dir, kg,
        engine_kwargs, first,
    ).close()
    return _merge_passes(passes, index_bytes_per_row)


def _merge_passes(passes: list[dict], index_bytes_per_row: float) -> dict:
    """End-to-end, freshness and generator numbers from the untraced pass;
    span-derived layer numbers and the traced mean from the traced one."""
    result = passes[0]
    result["index_bytes_per_row"] = index_bytes_per_row
    if len(passes) > 1:
        traced = passes[1]
        result["layers"] = traced["layers"]
        result["tracer"] = traced["tracer"]
        result["traced_mean_ms"] = traced["latency"]["mean_ms"]
    return result


def _cells_pass(engine, run, queries, truth, arrivals, traced) -> dict:
    tracer, search_meta = install_tracer(engine) if traced else (None, None)
    before = _snapshot(engine, tracer)
    feed = Feed(run.seed, "zchurn")
    consumer = ClockedConsumer(engine, compact_threshold=COMPACT_THRESHOLD)
    try:
        consumer.start()
        try:
            win = open_loop(engine, queries, truth, arrivals, feed, consumer)
            after_window = _snapshot(engine, tracer)
            consumer.drain(timeout=60.0)
        finally:
            consumer.stop(timeout=60.0)
        check_feed(engine, consumer, feed, len(win.published) - 1, run)
        after = _snapshot(engine, tracer)
    finally:
        if tracer is not None:
            tracer.unwrap()
    run.check(
        win.hits >= CELL_RECALL_FLOOR * win.attempted,
        f"recall {win.hits / max(win.attempted, 1):.3f} below "
        f"{CELL_RECALL_FLOOR}",
    )
    return _pass_result(
        win, freshness(win.published, consumer.advances), consumer,
        tracer, search_meta, before, after_window, after,
    )


def columns(run: Run, fixture) -> dict:
    model_dir = fixture.ensure_model()
    kg = fixture.large_kg()
    cols, truth = typo_columns(kg, run.seed)
    engine = set_up(
        run, COLUMN_SETUP_REPS, model_dir, kg,
        {"num_shards": 2, "executor": "auto", "cache_size": 0},
        cols[-1],
    )
    passes = []
    try:
        engine.lookup_batch(cols[-2], K)
        freeze_heap()
        run.host.update(
            executor=engine.index.resolved_executor(),
            workers=len(multiprocessing.active_children()),
        )
        for traced in ([False, True] if run.trace else [False]):
            tracer, search_meta = (
                install_tracer(engine) if traced else (None, None)
            )
            before = _snapshot(engine, tracer)
            try:
                win = closed_loop(engine, cols, truth, run.seconds)
                after = _snapshot(engine, tracer)
                if not traced:
                    check_against_oracle(engine, cols, run)
                run.worker_hwm_kb = max(run.worker_hwm_kb, _worker_hwm_kb())
            finally:
                if tracer is not None:
                    tracer.unwrap()
            run.check(
                win.hits >= COLUMN_RECALL_FLOOR * win.attempted,
                f"recall {win.hits / max(win.attempted, 1):.3f} below "
                f"{COLUMN_RECALL_FLOOR}",
            )
            passes.append(
                _pass_result(
                    win, [], None, tracer, search_meta, before, after, after
                )
            )
        index_bytes_per_row = engine.index_bytes() / engine.index.ntotal
    finally:
        engine.close()
        gc.unfreeze()
    return _merge_passes(passes, index_bytes_per_row)


def _snapshot(engine, tracer) -> dict:
    """Counters the per-layer metrics are deltas of."""
    stats = engine.serving_stats()
    health = getattr(engine.index, "health_stats", None)
    shard_seconds = (
        [s["seconds"] for s in health()["shards"]] if callable(health) else [0.0]
    )
    counts = dict(tracer.counts) if tracer is not None else {}
    return {"stats": stats, "shard_seconds": shard_seconds, "counts": counts}


def _pass_result(
    win, fresh, consumer, tracer, search_meta, before, reads_end, after
) -> dict:
    out = {
        "latency": summarize(win.latencies),
        "freshness": summarize(fresh),
        "attempted": win.attempted,
        "failed": win.failed,
        "recall_at_10": win.hits / max(win.attempted, 1),
        "slo_met_ratio": win.within_limit / max(win.attempted, 1),
        "throughput_qps": (
            (win.attempted - win.failed) / win.elapsed if win.elapsed else 0.0
        ),
        "success_ratio": (win.attempted - win.failed) / max(win.attempted, 1),
        "loadgen.lateness_tail_ms": summarize(win.lateness)["tail_ms"],
        "loadgen.backlog_max": win.backlog_max,
        "ingest.backlog_max": win.ingest_backlog_max,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(
            tracer, search_meta, consumer, win, before, reads_end, after
        )
        out["tracer"] = tracer
    return out


def layer_metrics(
    tracer, search_meta, consumer, win, before, reads_end, after
) -> dict:
    """Per-layer numbers of one traced pass (``per_layer`` in BENCHMARK.json).

    Read-path layers count only spans that began inside the read window
    on the reading thread (this one), and cache hits counted by the end
    of the window, so neither the post-window checks nor the consumer
    thread's ``embed_queries`` calls mix in; ingest layers count every
    span, including those of records applied while the feed drains.  A
    workload without a feed (``consumer`` None) reports 0 for them.
    """
    times = tracer.self_times(
        until=win.end, thread=threading.current_thread().name
    )
    every = tracer.self_times()

    def calls(name):
        return times.get(name, (0, 0.0, 0.0, 0))

    def per(total, count, scale):
        return total / count * scale if count else 0.0

    engine_calls, _, engine_self, _ = calls("engine")
    cache_names = ("cache.get_results", "cache.put_results", "cache.get_embeddings")
    cache_calls = sum(calls(n)[0] for n in cache_names)
    cache_self = sum(calls(n)[2] for n in cache_names)
    c0, c1 = before["counts"], reads_end["counts"]

    def ratio(name):
        hit, miss = (
            c1.get(f"{name}.{kind}", 0) - c0.get(f"{name}.{kind}", 0)
            for kind in ("hit", "miss")
        )
        return hit / (hit + miss) if hit + miss else 0.0

    s0, s1 = before["stats"], reads_end["stats"]
    routed = {
        tier: s1[key] - s0[key]
        for tier, key in (
            ("exact", "exact_hits"), ("fuzzy", "fuzzy_routed"), ("ann", "ann_routed")
        )
    }
    routed_total = sum(routed.values())
    exact = calls("router.exact")
    fuzzy = calls("router.fuzzy")
    embed = calls("embed")
    search = calls("search")
    busy = [
        b - a for a, b in zip(before["shard_seconds"], reads_end["shard_seconds"])
    ]
    mean_busy = sum(busy) / len(busy)
    ingest = (
        consumer.ingest_stats()
        if consumer is not None
        else {"retries": 0, "dead_letters": 0}
    )
    out = {
        "engine.self_us_per_call": per(engine_self, engine_calls, 1e6),
        "cache.result_hit_ratio": ratio("cache.result"),
        "cache.embedding_hit_ratio": ratio("cache.embedding"),
        "cache.us_per_call": per(cache_self, cache_calls, 1e6),
        "router.exact_ratio": per(routed["exact"], routed_total, 1.0),
        "router.fuzzy_ratio": per(routed["fuzzy"], routed_total, 1.0),
        "router.ann_ratio": per(routed["ann"], routed_total, 1.0),
        "router.exact_us_per_probe": per(exact[1], exact[0], 1e6),
        "router.fuzzy_us_per_query": per(fuzzy[1], fuzzy[3], 1e6),
        "embed.us_per_query": per(embed[1], embed[3], 1e6),
        "embed.queries_per_call": per(embed[3], embed[0], 1.0),
        "search.us_per_query": per(search[1], search[3], 1e6),
        "search.rows_per_query": per(
            sum(r for r, _ in search_meta), len(search_meta), 1.0
        ),
        "search.fetch_k": per(sum(k for _, k in search_meta), len(search_meta), 1.0),
        "sharded.shard_busy_max_over_mean": (
            max(busy) / mean_busy if mean_busy > 0 else 1.0
        ),
        "sharded.partial_results": (
            after["stats"]["partial_results"] - s0["partial_results"]
        ),
        "sharded.worker_respawns": (
            after["stats"]["worker_respawns"] - s0["worker_respawns"]
        ),
        "ingest.compact_ms": per(
            every.get("ingest.compact", (0, 0.0))[1],
            every.get("ingest.compact", (0, 0.0))[0],
            1e3,
        ),
        "ingest.compactions": after["stats"]["compactions"] - s0["compactions"],
        "ingest.retries": ingest["retries"],
        "ingest.dead_letters": ingest["dead_letters"],
    }
    for kind in ("add", "remove", "update"):
        n, total, _, _ = every.get(f"ingest.apply.{kind}", (0, 0.0, 0.0, 0))
        out[f"ingest.apply_ms.{kind}"] = per(total, n, 1e3)
    return out


def median_setup(run: Run) -> dict:
    keys = run.setup[0].keys()
    return {key: statistics.median(t[key] for t in run.setup) for key in keys}


def hygiene(run: Run, segments_before: set[str]) -> None:
    """No shared-memory segment or child process may outlive the engine.

    Segment names carry the creating process id; segments of other
    processes on the host (another run, a test suite) are not ours.
    """
    mine = f"repro-shm-{os.getpid()}-"
    leaked = {
        name for name in owned_segment_names() if name.startswith(mine)
    } - segments_before
    run.check(not leaked, f"shared-memory segments leaked: {sorted(leaked)}")
    alive = multiprocessing.active_children()
    run.check(not alive, f"worker processes still alive: {alive}")


def host_record(run: Run) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "seed": run.seed,
        **run.host,
    }
