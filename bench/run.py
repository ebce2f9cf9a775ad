#!/usr/bin/env python3
"""knowplug benchmark: one command over three workloads.

    python3 bench/run.py --workload {extract,serve,churn} --seed N \
        --seconds S --trace {0,1} [--preset {default,smoke}]

Every workload runs the same five stages: set-up, pre-training,
a daily warm-start refresh, loading new knowledge versions, and
knowledge reads (a bulk scan and open-loop slates for --seconds). The
knowledge comes from a different place in each, so the load falls on
different modules:

extract  the `keep` path: the pre-trained extractor computes knowledge
         live in this process; no GKC.
serve    the cached path: the serving models' snapshot is served by
         `knowplug serve` in its own process; versions are published
         before the reads, and the reads see no writes.
churn    serve with a new version published every second during the
         reads, more than the GKC retains.

With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics. With --trace 1 the workload runs once untraced and
once traced; the last line holds the per-layer metrics of the traced
pass, and the lines before it give self time per span, counts and the
tracing overhead. Only the generated inputs reach the program; every
output is checked against the computations in checks.py.
"""

from __future__ import annotations

import os

# Every process the benchmark starts runs BLAS with one thread; the GKC
# server inherits this environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np

try:
    from knowplug import datagen, extractor, gkc, harness, nncore, plugnet, servingkit
except ModuleNotFoundError:  # reported by main()
    datagen = None
import checks

QUAD_DTYPE = np.dtype([("u", "<u8"), ("i", "<u8"), ("c", "<u4"), ("v", "<u4")])

SETUP_REPS = 3
REFRESH_REPS = 6
SERVE_PUBLISHES = 12  # versions serve publishes before its reads, one per gap
SERVE_PUBLISH_GAP = 0.25  # seconds
READ_ROUNDS = 4  # bulk-then-online rounds in the read phase
EVAL_BATCH = 4096  # harness.evaluate scores the test day in chunks of this size
BULK_BATCH = 4096
ONLINE_RATE = 250.0  # slates per second
ONLINE_SHARE = 0.75  # share of --seconds given to the online phase; bulk gets the rest
PUBLISH_INTERVAL = 0.5  # seconds between new versions during the reads (extract, churn)
MAX_VERSIONS = 5  # versions `knowplug serve` retains by default

# BENCHMARK.json names every metric and its unit; each run reports all of
# the end-to-end metrics and, traced, all of the per-layer ones
MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}


@dataclass(frozen=True)
class Scale:
    n_users: int
    n_items: int
    n_categories: int
    n_shops: int
    n_days: int
    super_rate: float  # super-domain impressions per user-day
    sub_rate: float  # sub-domain impressions per user-day
    window_days: tuple[int, ...]  # pre-training / serving-model window
    train_days: tuple[int, ...]
    test_day: int


SCALES = {
    ("extract", "default"): Scale(2000, 400, 20, 40, 5, 12.5, 4.0, (0, 1), (2, 3), 4),
    ("serve", "default"): Scale(8000, 1600, 12, 160, 3, 2.5, 1.0, (0,), (1,), 2),
    ("extract", "smoke"): Scale(300, 80, 10, 20, 4, 6.0, 4.0, (0, 1), (2,), 3),
    ("serve", "smoke"): Scale(800, 160, 12, 30, 3, 3.0, 2.0, (0,), (1,), 2),
}


def _now() -> float:
    return time.perf_counter()


CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_s(pid: int | None = None) -> float:
    """CPU seconds (user + system) used so far by this process, or by
    process `pid` as /proc counts them in clock ticks. Time in which the
    host runs other guests on the core (steal) counts in neither."""
    if pid is None:
        return time.process_time()
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


class Clock:
    """Wall and CPU time of one stage. CPU covers this process and, when
    given, the GKC server thread that works while the client waits."""

    def __init__(self, server_cpu=None):
        self.server_cpu = server_cpu

    def _cpu(self) -> float:
        return cpu_s() + (self.server_cpu() if self.server_cpu is not None else 0.0)

    def __enter__(self) -> "Clock":
        self.wall, self.cpu = _now(), self._cpu()
        return self

    def __exit__(self, *exc) -> None:
        self.wall, self.cpu = _now() - self.wall, self._cpu() - self.cpu


def _log(msg: str) -> None:
    print(msg, flush=True)


def p99(values) -> float:
    """Nearest-rank 99th percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(0.99 * len(xs)) - 1)]


def rss_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class GkcProcess:
    """`knowplug serve --port 0` in a child process, via gkc_server.py."""

    def __init__(self, snapshot_dir: Path, trace_out: Path | None = None):
        cmd = [sys.executable, str(HERE / "gkc_server.py"),
               "--snapshot-dir", str(snapshot_dir)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        self.host = self.port = None
        try:
            for line in self.proc.stdout:
                if line.startswith("serving on "):
                    host, port = line.split()[-1].rsplit(":", 1)
                    self.host, self.port = host, int(port)
                    break
            if self.port is None:
                raise RuntimeError("GKC server exited before it listened")
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        return rss_hwm_mb(self.proc.pid)

    def _tids(self) -> set[str]:
        return set(os.listdir(f"/proc/{self.proc.pid}/task"))

    def connect(self, make_client):
        """Open a connection with `make_client()`; return the client and a
        function giving the CPU seconds of the server thread that serves
        it. The server starts one thread per connection, and only this
        process connects, opening one connection at a time, so the one new
        thread is this connection's."""
        before = self._tids()
        client = make_client()
        deadline = _now() + 10
        while not (new := self._tids() - before):
            if _now() > deadline:
                client.close()
                raise RuntimeError("the GKC server started no thread for a connection")
            time.sleep(0.001)
        if len(new) != 1:
            client.close()
            raise RuntimeError(f"the GKC server started {len(new)} threads for a connection")
        path = f"/proc/{self.proc.pid}/task/{new.pop()}/schedstat"

        def cpu() -> float:
            # run time in ns; like the process clocks it leaves out steal
            with open(path) as fh:
                return int(fh.read().split()[0]) / 1e9

        return client, cpu

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Run:
    """One pass of one workload: its directories, operation counts and
    results."""

    workload: str
    seed: int
    seconds: float
    scale: Scale
    work: Path
    setup_reps: int
    tracer: object = None  # the Tracer of a traced pass
    ops: dict = field(default_factory=dict)  # check name -> [attempted, failed]
    logged: set = field(default_factory=set)
    metrics: dict = field(default_factory=dict)
    walls: dict = field(default_factory=dict)
    server: GkcProcess | None = None

    def op(self, name: str, ok: bool) -> None:
        """One operation whose output was checked; `name` is the check, and
        a failed check is a failed operation."""
        tally = self.ops.setdefault(name, [0, 0])
        tally[0] += 1
        tally[1] += not ok

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """A one-off correctness check, logged at once."""
        self.op(name, bool(ok))
        self.logged.add(name)
        _log(f"check {name}: {'ok' if ok else 'FAILED'} {detail}".rstrip())

    def log_tallies(self) -> None:
        for name, (attempted, failed) in self.ops.items():
            if name not in self.logged:
                _log(f"check {name}: {'FAILED' if failed else 'ok'} "
                     f"{attempted} operations, {failed} failed")

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.ops.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.ops.values())

    @property
    def correct(self) -> bool:
        return bool(self.ops) and self.failed == 0

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def wall(self, stage: str, seconds: float) -> None:
        self.walls[stage] = self.walls.get(stage, 0.0) + seconds

    @contextlib.contextmanager
    def untraced(self):
        """Untimed warm-ups and input preparation stay out of the trace."""
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.paused = False


# ---------------------------------------------------------------------------
# inputs


def gen_config(run: Run):
    s = run.scale
    return datagen.GeneratorConfig(
        n_users=s.n_users, n_items=s.n_items, n_categories=s.n_categories,
        n_shops=s.n_shops, n_days=s.n_days, super_impressions_per_user_day=s.super_rate,
        sub_impressions_per_user_day=s.sub_rate, seed=run.seed)


def exp_config(run: Run, rep_dir: Path, mode: str):
    s = run.scale
    return harness.ExperimentConfig(
        mode=mode, data_dir=str(rep_dir / "data"), out_dir=str(rep_dir / "runs"),
        seeds=(run.seed,), pretrain_days=s.window_days, train_days=s.train_days,
        test_day=s.test_day)


def window_rows(run: Run, bundle) -> int:
    """Super-domain impressions in the pre-training window."""
    return int(np.isin(bundle.super_log.day, run.scale.window_days).sum())


def quads(users, items, cats) -> np.ndarray:
    q = np.empty(len(users), dtype=QUAD_DTYPE)
    q["u"], q["i"], q["c"], q["v"] = users, items, cats, 0
    return q


def log_requests(run: Run, log) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Knowledge requests taken from the generated sub-domain log, the
    traffic the downstream model sends, as row indices into the log: each
    bulk request is BULK_BATCH consecutive impressions of the whole log,
    and each slate is one user's impressions on the test day."""
    n = len(log)
    bulk = [np.arange(lo, lo + BULK_BATCH) for lo in range(0, n - BULK_BATCH + 1, BULK_BATCH)]
    if not bulk:
        raise RuntimeError(f"the sub-domain log has {n} rows, fewer than {BULK_BATCH}")
    test = np.flatnonzero(log.day == run.scale.test_day)
    users = log.user_id[test]
    # a day's impressions are listed user by user
    slates = np.split(test, np.flatnonzero(users[1:] != users[:-1]) + 1)
    return bulk, slates


# ---------------------------------------------------------------------------
# set-up


def warm_up_serving_models(run: Run, bundle, cfg) -> None:
    """One batch through each serving model, untimed."""
    s = run.scale
    sup = bundle.super_log
    first = sup.take(np.arange(min(len(sup), cfg.pretrain_batch)))
    vocab = dict(user_vocab=s.n_users, item_vocab=s.n_items, category_vocab=s.n_categories)
    with run.untraced():
        for model, alpha in (
                (servingkit.DecomposedExtractor(
                    servingkit.DecomposedConfig(shop_vocab=s.n_shops, **vocab)), 0.0),
                (servingkit.DegeneratedExtractor(servingkit.DegeneratedConfig(**vocab)),
                 cfg.alpha)):
            servingkit.train_click_epoch(model, nncore.AdamState(), first,
                                         [int(first.day[0])], cfg.pretrain_batch, 0,
                                         alpha=alpha)


def setup_once(run: Run, rep_dir: Path, serving: bool):
    """Generate and load the data; for the GKC workloads also pre-train
    the serving models, build and save snapshot 1, start the server and
    publish version 1. Returns (bundle, snapshot path, server, CPU seconds
    of the serving-model training, CPU seconds of its warm-up)."""
    gcfg = gen_config(run)
    datagen.generate(gcfg, rep_dir / "data")
    bundle = harness.ensure_data(rep_dir / "data", gcfg)
    if not serving:
        return bundle, None, None, 0.0, 0.0
    cfg = exp_config(run, rep_dir, "keep_decomp_degen")
    with Clock() as warm:
        warm_up_serving_models(run, bundle, cfg)
    with Clock() as train:
        paths = harness.train_serving_models_cached(bundle, cfg, run.seed, cfg.pretrain_days,
                                                    rep_dir / "cache")
    run.op("serving_models_saved", all(p.exists() for p in paths))
    # finds the serving models just trained in the cache
    snap = harness.build_snapshot_cached(bundle, cfg, run.seed, cfg.pretrain_days,
                                         rep_dir / "cache", version=1)
    snap_dir = rep_dir / "snaps"
    snap_dir.mkdir()
    trace_out = run.work / "server_trace.json" if run.traced else None
    server = GkcProcess(snap_dir, trace_out)
    try:
        shutil.copyfile(snap, snap_dir / "v0001.snap")
        with gkc.GkcClient(server.host, server.port) as client:
            accepted = client.publish(1, "v0001.snap")
        if accepted != 1:
            raise RuntimeError(f"GKC acknowledged version {accepted}, not 1")
    except BaseException:
        server.stop()
        raise
    return bundle, snap, server, train.cpu, warm.cpu


def setup(run: Run, serving: bool):
    """Set up `run.setup_reps` times from scratch and keep the last; the
    median CPU time of a set-up is reported, the server's included. In the
    GKC workloads the serving models are pre-trained in every set-up; that
    training is timed apart, and the rows over its CPU time in all
    set-ups together give the pre-training rate."""
    times, walls, trains = [], [], []
    bundle = None
    for rep in range(run.setup_reps):
        rep_dir = run.work / f"rep{rep}"
        del bundle  # one data set in memory at a time
        t0, c0 = _now(), cpu_s()
        bundle, snap, server, train, warm = setup_once(run, rep_dir, serving)
        walls.append(_now() - t0)
        times.append(cpu_s() - c0 - train - warm
                     + (cpu_s(server.proc.pid) if server is not None else 0.0))
        trains.append(train)
        if rep < run.setup_reps - 1:
            if server is not None:
                server.stop()
            shutil.rmtree(rep_dir)
    run.metrics["setup_s"] = statistics.median(times)
    _log("setup runs cpu s: " + ", ".join(f"{t:.3f}" for t in times)
         + "; wall s: " + ", ".join(f"{t:.3f}" for t in walls))
    if serving:
        rows = 2 * window_rows(run, bundle)  # both serving models see the window
        run.metrics["pretrain_rows_per_s"] = rows * len(trains) / sum(trains)
        _log(f"pretrain: serving models, {rows} rows, cpu s: "
             + ", ".join(f"{t:.3f}" for t in trains))
    run.wall("setup", walls[-1])
    run.server = server
    return rep_dir, bundle, snap, server


# ---------------------------------------------------------------------------
# stages


def final_scores(run: Run, result, source_fn, test) -> np.ndarray:
    """Test-day scores of the loop's final checkpoint, chunked like
    harness.evaluate so that they are the same floats."""
    ckpt_path = result.checkpoints[max(run.scale.train_days)]
    model, plug, _, _ = plugnet.load_downstream(ckpt_path)
    out = []
    for lo in range(0, len(test), EVAL_BATCH):
        part = test.take(np.arange(lo, min(len(test), lo + EVAL_BATCH)))
        logits, _ = model.forward_batch(part, plug, source_fn(part))
        out.append(logits.astype(np.float64))
    return np.concatenate(out)


def check_gauc(run: Run, result, source_fn, bundle) -> None:
    test = bundle.sub_log.take(np.flatnonzero(bundle.sub_log.day == run.scale.test_day))
    scores = final_scores(run, result, source_fn, test)
    ref = checks.gauc_reference(test.user_id, scores, test.click)
    got = result.final_report.gauc
    run.check("gauc_rank_sum", abs(ref - got) <= 1e-9,
              f"program {got:.12f} reference {ref:.12f}")


def refresh(run: Run, bundle, cfg, rep_dir: Path, source, server_cpu=None):
    """Daily warm-start loop plus test-day evaluation, after one untimed
    warm-up, REFRESH_REPS times. The rate is rows over the CPU time of all
    runs together: the machine's speed changes from one run to the next,
    and a sum weighs its states by how long they lasted, where a median
    jumps between them."""
    train_log = bundle.sub_log.take(
        np.flatnonzero(np.isin(bundle.sub_log.day, cfg.train_days)))
    first_day = cfg.train_days[:1]
    warm = train_log.take(np.flatnonzero(train_log.day == first_day[0])[:4 * cfg.train_batch])
    with run.untraced():
        harness.run_online_loop(bundle, replace(cfg, train_days=first_day), run.seed,
                                rep_dir / "refresh_warmup", warm, source)
    times, walls, results = [], [], []
    for k in range(1 if run.traced else REFRESH_REPS):  # the trace describes one refresh
        with Clock(server_cpu) as clock:
            res = harness.run_online_loop(bundle, cfg, run.seed, rep_dir / f"refresh{k}",
                                          train_log, source)
        times.append(clock.cpu)
        walls.append(clock.wall)
        results.append(res)
        run.op("refresh_reported", res.final_report is not None
               and not res.final_report.empty)
    run.wall("refresh", statistics.median(walls))
    run.metrics["refresh_rows_per_s"] = len(train_log) * len(times) / sum(times)
    _log(f"refresh: {len(times)} runs of {len(train_log)} rows, cpu s: "
         + " ".join(f"{t:.3f}" for t in times) + "; wall s: "
         + " ".join(f"{t:.3f}" for t in walls))
    run.metrics["gauc"] = results[0].final_report.gauc
    if not run.traced:
        gaucs = {r.final_report.gauc for r in results}
        run.check("refresh_deterministic", len(gaucs) == 1,
                  f"{len(results)} runs, {len(gaucs)} distinct GAUC")
    return results


class LiveEndpoint:
    """Knowledge computed in this process by the pre-trained extractor
    (`harness.ExtractorKnowledge`), the uncached form that the GKC
    replaces. An answer is right when its [k_u ; k_i] columns equal the
    user, item, shop and category embedding rows read directly."""

    def __init__(self, source, model):
        self.source = source
        tables = model.encoder.tables
        self.rows = [tables[f].rows for f in ("user", "item", "shop", "category")]

    def request(self, log, idx: np.ndarray):
        return log.take(idx)

    def __call__(self, batch):
        return self.source(batch)

    def verify(self, batch, answer) -> bool:
        mat, found = answer
        direct = np.concatenate(
            [rows[ids] for rows, ids in zip(self.rows, (batch.user_id, batch.item_id,
                                                      batch.shop_id, batch.category_id))],
            axis=1)
        return (len(mat) == len(batch) and bool(found.all())
                and np.array_equal(mat[:, :direct.shape[1]], direct))

    @staticmethod
    def server_cpu() -> float:
        return 0.0


class GkcEndpoint:
    """Knowledge looked up in the GKC on one connection, each request
    pinned to the version `version_fn` gives. An answer is right when it
    equals the benchmark's own composition for that version (checks.py)."""

    def __init__(self, client, server_cpu, ref, version_fn):
        self.client = client
        self.server_cpu = server_cpu
        self.ref = ref
        self.version_fn = version_fn

    def request(self, log, idx: np.ndarray) -> np.ndarray:
        return quads(log.user_id[idx], log.item_id[idx], log.category_id[idx])

    def __call__(self, q):
        version = self.version_fn()
        q["v"] = version
        return version, self.client.lookup(q)

    def verify(self, q, answer) -> bool:
        version, entries = answer
        mat, bits = self.ref.expected(q["u"], q["i"], q["c"], version)
        return checks.entries_match(entries, mat, bits)


@dataclass
class Reads:
    """Tallies of one read phase, summed over its rounds."""

    bulk_rows: int = 0
    bulk_client_cpu: float = 0.0
    bulk_server_cpu: float = 0.0
    bulk_wall: list = field(default_factory=list)  # per request
    slates: int = 0
    cost: list = field(default_factory=list)  # CPU per slate, client and server
    server_part: list = field(default_factory=list)
    lat: list = field(default_factory=list)
    late: list = field(default_factory=list)
    sizes: list = field(default_factory=list)


def bulk_scan(run: Run, ep, requests, seconds: float, tick, reads: Reads) -> None:
    """Closed loop: the next request goes out when the last is answered.
    Each call is timed and its answer verified in full after the clocks
    stop. The rate counts the CPU of this thread inside the calls plus
    that of the GKC server thread serving the connection. Client and
    server take turns, so on an idle core this is the wall rate less the
    wake-ups."""
    server_start = ep.server_cpu()
    t_end = _now() + seconds
    while _now() < t_end:
        q = requests[len(reads.bulk_wall) % len(requests)]
        c0, t0 = time.thread_time(), _now()
        answer = ep(q)
        reads.bulk_wall.append(_now() - t0)
        reads.bulk_client_cpu += time.thread_time() - c0
        reads.bulk_rows += len(q)
        run.op("bulk_answers_match", ep.verify(q, answer))
        tick(_now())
    reads.bulk_server_cpu += ep.server_cpu() - server_start
    run.wall("bulk", seconds)


def online(run: Run, ep, pool, seconds: float, tick, reads: Reads) -> None:
    """Open loop at ONLINE_RATE slates/s. A slate's cost is this thread's
    CPU inside the call plus that of the GKC server thread serving the
    connection. Wall latency, from each request's due time so that a
    stall also delays the requests queued behind it, is logged: pauses of
    the host set it."""
    n = max(1, int(ONLINE_RATE * seconds))
    server_done = ep.server_cpu()
    start = _now() + 0.01
    for k in range(n):
        due = start + k / ONLINE_RATE
        gap = due - _now()
        if gap > 3e-4:
            time.sleep(gap - 2e-4)
        while _now() < due:
            pass
        q = pool[reads.slates % len(pool)]
        reads.slates += 1
        c0, sent = time.thread_time(), _now()
        answer = ep(q)
        done, c1 = _now(), time.thread_time()
        # the server thread is idle between slates
        server_start, server_done = server_done, ep.server_cpu()
        reads.server_part.append(server_done - server_start)
        reads.cost.append(c1 - c0 + reads.server_part[-1])
        reads.lat.append(done - due)
        reads.late.append(sent - due)
        reads.sizes.append(len(q))
        # verified at once, in the slack before the next due time, so that
        # no answers pile up in memory
        run.op("slate_answers_match", ep.verify(q, answer))
        tick(due)
    run.wall("online", n / ONLINE_RATE)


def knowledge_reads(run: Run, ep, log, tick) -> None:
    """READ_ROUNDS rounds of a bulk scan followed by online slates, for
    --seconds in all, after an untimed warm-up. The machine's speed
    changes over seconds, so each metric samples the whole phase rather
    than one stretch of it. knowledge_rows_per_s is bulk rows per CPU
    second; slate_cpu_ms the mean CPU cost of a slate. The mean, not the
    median: the machine switches between a fast and a slower state, and a
    median follows whichever state held most of the phase."""
    bulk_idx, slate_idx = log_requests(run, log)
    with run.untraced():
        bulk = [ep.request(log, idx) for idx in bulk_idx]
        slates = [ep.request(log, idx) for idx in slate_idx]
    for q in bulk[:2] + slates[:50]:
        ep(q)
    reads = Reads()
    tick.reset(_now())
    share = run.seconds / READ_ROUNDS
    for _ in range(READ_ROUNDS):
        bulk_scan(run, ep, bulk, (1 - ONLINE_SHARE) * share, tick, reads)
        online(run, ep, slates, ONLINE_SHARE * share, tick, reads)
    r = reads
    run.metrics["knowledge_rows_per_s"] = r.bulk_rows / (r.bulk_client_cpu + r.bulk_server_cpu)
    run.metrics["slate_cpu_ms"] = sum(r.cost) / len(r.cost) * 1e3
    q1, q2, q3 = (statistics.quantiles(r.bulk_wall, n=4) if len(r.bulk_wall) > 1
                  else r.bulk_wall * 3)
    _log(f"bulk: {len(r.bulk_wall)} requests of {BULK_BATCH}, {r.bulk_rows} rows, cpu client "
         f"{r.bulk_client_cpu:.3f} s server {r.bulk_server_cpu:.3f} s; wall quartiles "
         f"{q1 * 1e3:.2f} {q2 * 1e3:.2f} {q3 * 1e3:.2f} ms per request")
    _log(f"online: {r.slates} slates of {np.mean(r.sizes):.2f} items (max {max(r.sizes)}) "
         f"at {ONLINE_RATE:g}/s, cpu mean {np.mean(r.cost) * 1e3:.3f} ms p50 "
         f"{np.median(r.cost) * 1e3:.3f} ms (server p50 "
         f"{np.median(r.server_part) * 1e3:.3f}); wall latency "
         f"p50 {np.median(r.lat) * 1e3:.3f} ms p99 {p99(r.lat) * 1e3:.3f} ms; "
         f"generator late p50 {np.median(r.late) * 1e6:.0f}us "
         f"p99 {p99(r.late) * 1e6:.0f}us max {max(r.late) * 1e6:.0f}us")


class ExtractorLoader:
    """Loads the pre-trained extractor checkpoint once per call: on the
    `keep` path a new knowledge version comes into service this way. The
    reads call it every PUBLISH_INTERVAL, as churn publishes; every load
    must give the parameters of `want`."""

    def __init__(self, run: Run, path: Path, catalog, want):
        self.run, self.path, self.catalog = run, path, catalog
        self.want = want.params()
        self.costs: list[float] = []

    def __call__(self) -> None:
        c0 = time.thread_time()
        model, _, _ = extractor.ExtractorModel.load(self.path, catalog=self.catalog)
        self.costs.append(time.thread_time() - c0)
        got = model.params()
        self.run.op("version_loads_match", got.keys() == self.want.keys()
                    and all(np.array_equal(got[k], self.want[k]) for k in self.want))


def run_extract(run: Run) -> None:
    rep_dir, bundle, _, _ = setup(run, serving=False)
    cfg = exp_config(run, rep_dir, "keep")
    s = run.scale
    sup = bundle.super_log
    rows = window_rows(run, bundle)

    # untimed warm-up: one batch through the extractor
    first = sup.take(np.arange(min(len(sup), cfg.pretrain_batch)))
    vocab = dict(user_vocab=s.n_users, item_vocab=s.n_items, category_vocab=s.n_categories)
    with run.untraced():
        extractor.pretrain(
            extractor.ExtractorModel(extractor.ExtractorConfig(shop_vocab=s.n_shops, **vocab)),
            nncore.AdamState(), first, [int(first.day[0])],
            extractor.PretrainConfig(batch_size=cfg.pretrain_batch))
    with Clock() as pre:
        ext_path = harness.pretrain_extractor_cached(bundle, cfg, run.seed, s.window_days,
                                                     rep_dir / "cache")
    run.op("extractor_saved", ext_path.exists())
    run.wall("pretrain", pre.wall)
    run.metrics["pretrain_rows_per_s"] = rows / pre.cpu
    _log(f"pretrain: extractor, {rows} rows, cpu {pre.cpu:.3f} s, wall {pre.wall:.3f} s")

    with run.untraced():
        ext, _, _ = extractor.ExtractorModel.load(ext_path, catalog=bundle.catalog)
    source = harness.ExtractorKnowledge(ext, cfg.knowledge_mask)
    results = refresh(run, bundle, cfg, rep_dir, source)
    loader = ExtractorLoader(run, ext_path, bundle.catalog, ext)
    knowledge_reads(run, LiveEndpoint(source, ext), bundle.sub_log, Ticker(loader))
    if not loader.costs:  # reads shorter than PUBLISH_INTERVAL
        loader()
    run.metrics["version_load_s"] = statistics.mean(loader.costs)
    _log(f"version loads: {len(loader.costs)} extractor loads, one per "
         f"{PUBLISH_INTERVAL:g}s during the reads; cpu ms: "
         + " ".join(f"{c * 1e3:.2f}" for c in loader.costs))
    if run.traced:
        return

    check_gauc(run, results[0], lambda part: source(part)[0], bundle)
    held = sup.take(np.flatnonzero(sup.day == s.test_day))
    fresh = extractor.ExtractorModel(ext.cfg)
    losses = []
    for model in (fresh, ext):
        logits = np.concatenate([
            model.score_batch(held.take(np.arange(lo, min(len(held), lo + EVAL_BATCH))),
                              "click")[0]
            for lo in range(0, len(held), EVAL_BATCH)])
        losses.append(checks.click_logloss(logits, held.click))
    run.check("pretrain_lowers_logloss", losses[1] < losses[0],
              f"held-out day {s.test_day}: init {losses[0]:.5f} trained {losses[1]:.5f}")


class Publisher(threading.Thread):
    """Publishes the prepared snapshot versions in order, one per
    trigger(), on its own connection; `acked` is the newest acknowledged
    version. A publish costs the CPU of this thread inside the call plus
    that of the server thread serving the connection."""

    def __init__(self, server: GkcProcess, versions: list[tuple[int, str]]):
        super().__init__(daemon=True)
        self.client, self.server_cpu = server.connect(
            lambda: gkc.GkcClient(server.host, server.port))
        self.versions = versions
        self.acked = 1
        self.triggered = 0
        self.results: list[tuple[float, float, bool]] = []  # (cpu, wall, right version)
        self.error: BaseException | None = None
        self._due = threading.Semaphore(0)
        self._closing = False

    def trigger(self) -> None:
        if self.triggered < len(self.versions):
            self.triggered += 1
            self._due.release()

    def run(self) -> None:
        try:
            for version, name in self.versions:
                self._due.acquire()
                if self._closing and len(self.results) == self.triggered:
                    return
                c0, s0, t0 = time.thread_time(), self.server_cpu(), _now()
                accepted = self.client.publish(version, name)
                wall, c1, s1 = _now() - t0, time.thread_time(), self.server_cpu()
                self.results.append((c1 - c0 + s1 - s0, wall, accepted == version))
                self.acked = version
        except BaseException as exc:  # reported by close()
            self.error = exc

    def close(self) -> None:
        """Wait for every triggered publish, then stop."""
        self._closing = True
        self._due.release()
        self.join(timeout=60)
        self.client.close()
        if self.error is not None:
            raise self.error


class Ticker:
    """Runs `action` (a new knowledge version) every PUBLISH_INTERVAL
    seconds of the read phase; the online phase ticks with due times, so
    each version lands at the same point of the slate schedule in every
    run. Without an action it does nothing."""

    def __init__(self, action=None):
        self.action = action
        self.next = math.inf

    def reset(self, start: float) -> None:
        self.next = start + PUBLISH_INTERVAL

    def __call__(self, now: float) -> None:
        if self.action is not None and now >= self.next:
            self.action()
            self.next += PUBLISH_INTERVAL


def snapshot_versions(run: Run, rep_dir: Path, snap, ref, count: int
                      ) -> list[tuple[int, str]]:
    """Snapshot files for versions 2 .. count + 1, written before any
    timed phase so that writing them does not hold this process's
    interpreter lock during the reads."""
    versions = []
    for v in range(2, count + 2):
        uv, iv, cv = ref.version_arrays(v)
        version = servingkit.KnowledgeSnapshot(
            version=v, user_dim=snap.user_dim, item_dim=snap.item_dim,
            uc_dim=snap.uc_dim, user_keys=snap.user_keys, user_vecs=uv,
            item_keys=snap.item_keys, item_vecs=iv, uc_user_keys=snap.uc_user_keys,
            uc_cat_keys=snap.uc_cat_keys, uc_vecs=cv, created_ts=0.0)
        name = f"v{v:04d}.snap"
        with run.untraced():
            servingkit.save_snapshot(rep_dir / "snaps" / name, version)
        versions.append((v, name))
    return versions


def record_publishes(run: Run, publisher: Publisher, when: str) -> None:
    for _, _, ok in publisher.results:
        run.op("publish_acked_own_version", ok)
    cpu, wall, _ = zip(*publisher.results)
    run.metrics["version_load_s"] = statistics.mean(cpu)
    _log(f"version loads: {len(publisher.results)} publishes {when}, versions "
         f"2..{publisher.acked}, {MAX_VERSIONS} retained; cpu ms: "
         + " ".join(f"{c * 1e3:.1f}" for c in cpu)
         + f"; median wall to ack {statistics.median(wall) * 1e3:.1f} ms")


def gkc_phase(run: Run, rep_dir: Path, bundle, snap, ref, server, churn: bool) -> None:
    """Publish new versions and read. serve publishes SERVE_PUBLISHES
    versions SERVE_PUBLISH_GAP apart before the reads and pins the newest;
    churn publishes one every PUBLISH_INTERVAL during the reads, each
    request pinning the newest acknowledged version."""
    count = int(run.seconds / PUBLISH_INTERVAL) + 1 if churn else SERVE_PUBLISHES
    publisher = Publisher(server, snapshot_versions(run, rep_dir, snap, ref, count))
    publisher.start()
    if not churn:
        due = _now()
        for _ in range(count):
            publisher.trigger()
            due += SERVE_PUBLISH_GAP
            time.sleep(max(0.0, due - _now()))
        publisher.close()
        record_publishes(run, publisher, f"one per {SERVE_PUBLISH_GAP:g}s before the reads")
    try:
        client, server_cpu = server.connect(lambda: gkc.GkcClient(server.host, server.port))
        with client:
            ep = GkcEndpoint(client, server_cpu, ref, lambda: publisher.acked)
            knowledge_reads(run, ep, bundle.sub_log,
                            Ticker(publisher.trigger if churn else None))
            if churn and not publisher.triggered:  # reads shorter than PUBLISH_INTERVAL
                publisher.trigger()
    finally:
        if churn:
            publisher.close()
    if churn:
        record_publishes(run, publisher, f"one per {PUBLISH_INTERVAL:g}s during the reads")
    # evicted versions must now answer VERSION_GONE, live ones OK
    with gkc.GkcClient(server.host, server.port) as client:
        probe = quads(*(col[:8] for col in (bundle.sub_log.user_id, bundle.sub_log.item_id,
                                             bundle.sub_log.category_id)))
        probe["v"] = 1
        gone = client.lookup(probe)
        probe["v"] = publisher.acked
        live = client.lookup(probe)
    if run.traced:
        return
    run.check("all_versions_published", publisher.triggered > MAX_VERSIONS
              and len(publisher.results) == publisher.triggered
              and all(ok for _, _, ok in publisher.results),
              f"{len(publisher.results)}/{publisher.triggered} acknowledged")
    run.check("evicted_version_gone", all(e.status == 1 for e in gone)
              and all(e.status == 0 for e in live),
              f"version 1 gone, version {publisher.acked} live")


def run_gkc(run: Run, churn: bool) -> None:
    rep_dir, bundle, snap_path, server = setup(run, serving=True)
    cfg = exp_config(run, rep_dir, "keep_decomp_degen")
    snap = servingkit.load_snapshot(snap_path)
    ref = checks.ServedReference(snap)
    source, server_cpu = server.connect(lambda: harness.GkcKnowledge(
        server.host, server.port, 1, ref.dim_total, ("decomposed", "degenerated"),
        ref.user_dim))
    try:
        results = refresh(run, bundle, cfg, rep_dir, source, server_cpu)
    finally:
        source.close()
    if not run.traced:
        def served(part):
            return ref.expected(part.user_id, part.item_id, part.category_id, 1)[0]
        check_gauc(run, results[0], served, bundle)
    gkc_phase(run, rep_dir, bundle, snap, ref, server, churn)


RUNNERS = {"extract": run_extract,
           "serve": lambda run: run_gkc(run, churn=False),
           "churn": lambda run: run_gkc(run, churn=True)}


def execute(run: Run) -> Run:
    if run.work.exists():
        shutil.rmtree(run.work)
    run.work.mkdir(parents=True)
    t0 = _now()
    try:
        RUNNERS[run.workload](run)
        run.log_tallies()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if run.server is not None:
            rss += run.server.peak_rss_mb()
        run.metrics["peak_rss_mb"] = rss
    finally:
        if run.server is not None:
            run.server.stop()
    run.wall("total", _now() - t0)
    return run


# ---------------------------------------------------------------------------
# per-layer metrics


NOT_A_LAYER_METRIC = {"gkc.client_lookup", "gkc.client_publish"}


def per_layer(client: dict, server: dict) -> dict[str, float]:
    """Per-layer metrics from the client and server trace summaries. A
    metric of a layer the workload never calls is 0: no time, no count."""
    out: dict[str, float] = {}

    def ratio(num, den):
        return num / den if den else 0.0

    cnt = client.get("counts", {})
    scnt = server.get("counts", {})
    calls = client.get("calls", {})
    # a span's self time is `<span>_s`; the client's lookup and publish
    # spans make up gkc.client_roundtrip_s below
    for doc in (client, server):
        for name, n in doc.get("calls", {}).items():
            if n and name not in NOT_A_LAYER_METRIC:
                out[name + "_s"] = doc["self_s"][name]

    out["datagen.jsonl_bytes"] = cnt.get("jsonl_bytes", 0)
    out["datagen.npz_bytes"] = cnt.get("npz_bytes", 0)
    out["nncore.attention_positions"] = cnt.get("attention_positions", 0)
    out["nncore.attention_valid_share"] = ratio(cnt.get("attention_valid", 0),
                                                cnt.get("attention_positions", 0))
    out["nncore.scatter_rows"] = cnt.get("scatter_rows", 0)
    out["nncore.adam_elements"] = cnt.get("adam_elements", 0)
    out["extractor.steps"] = calls.get("extractor.step", 0)
    out["extractor.encoder_rows_per_impression"] = ratio(cnt.get("encoder_rows", 0),
                                                         cnt.get("step_impressions", 0))
    out["extractor.distinct_row_share"] = ratio(cnt.get("encoder_distinct_rows", 0),
                                                cnt.get("encoder_rows", 0))
    out["extractor.triplets"] = cnt.get("triplets", 0)
    out["plugnet.steps"] = calls.get("plugnet.train_step", 0)
    out["checkpoint.bytes"] = cnt.get("checkpoint_bytes", 0)
    out["servingkit.compose_rows"] = scnt.get("compose_rows", 0)
    out["harness.missing_knowledge"] = cnt.get("missing_knowledge", 0)
    roundtrip = sum(client.get("self_s", {}).get(n, 0.0) for n in NOT_A_LAYER_METRIC)
    busy = sum(server.get("self_s", {}).values())
    out["gkc.requests"] = cnt.get("requests", 0)
    out["gkc.lookups"] = cnt.get("lookups", 0)
    out["gkc.client_roundtrip_s"] = roundtrip
    out["gkc.server_busy_s"] = busy
    out["gkc.wait_s"] = roundtrip - busy
    out["gkc.wire_bytes"] = cnt.get("wire_bytes", 0)
    out["gkc.version_gone"] = cnt.get("version_gone", 0)
    for what in ("user", "item", "uc"):
        out[f"gkc.found_{what}_share"] = ratio(cnt.get(f"found_{what}", 0),
                                               cnt.get("lookups_ok", 0))
    extra = sorted(set(out) - set(LAYER_UNITS))
    if extra:
        raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {extra}")
    idle = [name for name in LAYER_UNITS if not out.get(name)]
    if idle:
        _log("per-layer metrics at 0, their layer idle in this workload: " + ", ".join(idle))
    return {name: float(out.get(name, 0.0)) for name in LAYER_UNITS}


def print_breakdown(title: str, doc: dict) -> None:
    if not doc.get("calls"):
        return
    _log(f"{title}: span, calls, self s, total s")
    rows = sorted(doc["calls"], key=lambda n: -doc["self_s"][n])
    for name in rows:
        _log(f"  {name:<32} {doc['calls'][name]:>8} {doc['self_s'][name]:>10.4f} "
             f"{doc['total_s'][name]:>10.4f}")
    for name, value in sorted(doc.get("counts", {}).items()):
        _log(f"  count {name:<26} {value:>14.0f}")


# ---------------------------------------------------------------------------


def result_line(run: Run, metrics: dict[str, float], units: dict[str, str]) -> str:
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"the run measured no value for {missing}")
    return json.dumps({"correct": run.correct, "attempted": run.attempted,
                       "failed": run.failed,
                       "metrics": {k: {"value": float(metrics[k]), "unit": u}
                                   for k, u in units.items()}})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--preset", choices=("default", "smoke"), default="default")
    args = ap.parse_args(argv)
    if datagen is None or not (SRC / "knowplug" / "__init__.py").is_file():
        print(f"error: knowplug sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    # a terminated run still stops the GKC server it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        _log(measure(args, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def measure(args, work: Path) -> str:
    """Run the workload, traced as well with --trace 1; return the result
    line."""
    scale = SCALES[("extract" if args.workload == "extract" else "serve", args.preset)]
    reps = 1 if args.preset == "smoke" else SETUP_REPS

    def new_run(tracer=None) -> Run:
        return Run(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   scale=scale, work=work / ("plain" if tracer is None else "traced"),
                   setup_reps=reps if tracer is None else 1, tracer=tracer)

    plain = execute(new_run())
    _log("stage wall s: " + ", ".join(f"{k} {v:.3f}" for k, v in plain.walls.items()))
    if not args.trace:
        return result_line(plain, plain.metrics, E2E_UNITS)

    from tracer import CLIENT_TARGETS, Tracer
    tracer = Tracer().install(CLIENT_TARGETS)
    try:
        traced = execute(new_run(tracer))
    finally:
        tracer.uninstall()
    server_doc = {}
    server_trace = traced.work / "server_trace.json"
    if server_trace.exists():
        server_doc = json.loads(server_trace.read_text())
    client_doc = tracer.summary()
    trace_dir = HERE / ".work" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(trace_dir / f"{args.workload}-s{args.seed}-client.json")
    if server_trace.exists():
        shutil.copyfile(server_trace, trace_dir / f"{args.workload}-s{args.seed}-server.json")
    server_doc.pop("spans", None)

    print_breakdown("client (benchmark process)", client_doc)
    print_breakdown("server (knowplug serve)", server_doc)
    # one set-up and one refresh run on each side; "total" also holds the
    # untraced pass's extra set-ups, so the stages are summed instead
    _log("tracing overhead: stage, untraced wall s, traced wall s, difference")
    stages = [k for k in traced.walls if k != "total"]
    for stage in stages + ["sum"]:
        base, wall = (sum(w.walls[k] for k in stages) if stage == "sum" else w.walls[stage]
                      for w in (plain, traced))
        _log(f"  {stage:<14} {base:>9.3f} {wall:>9.3f} {wall - base:>+9.3f}")
    _log("  bulk and online run for a fixed time, so their overhead shows as a lower "
         f"rate: bulk {plain.metrics['knowledge_rows_per_s']:.0f} rows/s untraced, "
         f"{traced.metrics['knowledge_rows_per_s']:.0f}/s traced")
    return result_line(plain, per_layer(client_doc, server_doc), LAYER_UNITS)


if __name__ == "__main__":
    sys.exit(main())
