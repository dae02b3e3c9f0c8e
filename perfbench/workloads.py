"""The four workloads.

Every workload has the same shape: a set-up repeated ``SETUP_REPEATS``
times (its median is ``setup_s``), then whole rounds of the same
operations until the timed operations add up to the run length, then the
checks that need more than one operation.  Each operation starts after a
full garbage collection outside its timer, so the collections an
operation triggers depend on that operation alone and not on where the
previous one left the collector's counters.  Before the first round the
set-up's objects are frozen (``gc.freeze``), so those collections walk
only what the rounds made and not the benchmark's own inputs and
references.

With tracing on, one untraced round runs first; then the layer wrappers
go in and rounds run until the run length is reached again.  The ratio
of the two rounds' wall times is the tracing overhead.
"""

from __future__ import annotations

import gc
import http.client
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from reference import HospitalRows, conceptual_document, hospital_problems
from tracing import ROOT, NullRecorder, Recorder, install

SETUP_REPEATS = 3
NETWORK_MBPS = 1.0   # what `repro demo` uses

#: Generator profile of compile_generated: larger than the fuzzer's
#: default, so Algorithm Merge has many same-source candidates.
SCENARIOS = 200
PRODUCTIONS = (20, 40)
CONTAINER_DEPTH = 6
MAX_SOURCES = 3
VIOLATE_EVERY = 4

#: delta_medium: the steps of one round.  Writes outnumber the no-write
#: evaluate so that the median step is a write (the two kinds differ by
#: 8x, and an even split would put the median between them).  The order
#: is fixed: an update right after an append took 0.6 s, after a no-write
#: evaluate 1.3-1.75 s, so a seeded order spread the median step by 0.22.
STEPS = ("append", "update", "append", "evaluate", "append")
APPEND_ROWS = 10


class Run:
    """Operation accounting and samples of one benchmark run."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 overrides: dict | None = None):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.overrides = overrides or {}
        self.rng = random.Random(f"{name}:{seed}")
        self.attempted: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.fields: dict[str, list[float]] = defaultdict(list)
        self.setups: list[float] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []
        self.recorder = Recorder() if trace else None
        self._null = NullRecorder()
        self._uninstall = None
        self.timed = 0.0          # seconds of timed operations so far
        self.docs = 0
        self.wrong = 0

    # -- accounting -----------------------------------------------------
    def fail(self, kind: str, message: str, wrong: bool = True) -> None:
        """Count a failed operation; ``wrong`` marks a wrong output (as
        opposed to an operation that raised or was refused)."""
        self.failed[kind] += 1
        self.wrong += wrong
        print(f"FAILED {self.name} {kind}: {message}", file=sys.stderr)

    def record(self, kind: str, wall: float, problems: list[str]) -> None:
        self.attempted[kind] += 1
        self.samples[kind].append(wall)
        self.docs += 1
        if problems:
            self.fail(kind, "; ".join(problems))

    def report_fields(self, report) -> None:
        for name in ("node_count", "response_time", "queries_executed",
                     "bytes_shipped", "reused_nodes", "tainted_nodes"):
            value = getattr(report, name, None)
            if value is not None:
                self.fields[name].append(value)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    # -- tracing ----------------------------------------------------------
    @property
    def rec(self):
        return self.recorder if self._uninstall else self._null

    def tracing(self, on: bool) -> None:
        if on and self.recorder is not None and self._uninstall is None:
            self._uninstall = install(self.recorder)
        elif not on and self._uninstall is not None:
            self._uninstall()
            self._uninstall = None

    def setup(self, build) -> object:
        """Run ``build`` SETUP_REPEATS times; keep the last state."""
        state = None
        for _ in range(SETUP_REPEATS):
            if state is not None and hasattr(state, "close"):
                state.close()
            gc.collect()
            started = time.perf_counter()
            with self.rec.operation("setup"):
                state = build(self)
            self.setups.append(time.perf_counter() - started)
        self.metric("setup_s", statistics.median(self.setups), "s")
        return state

    def rounds(self, one_round, at_least: int = 1) -> None:
        """Whole rounds, at least ``at_least``, until the timed operations
        reach the run length; with tracing, one untraced round first."""
        gc.collect()
        gc.freeze()
        if self.trace:
            self.tracing(False)
            cpu = time.process_time()
            started = time.perf_counter()
            before = self.docs
            one_round()
            untraced = time.perf_counter() - started
            per_doc_cpu = ((time.process_time() - cpu)
                           / max(1, self.docs - before))
            self.reset_samples()
            self.tracing(True)
            traced_rounds = 0
            started = time.perf_counter()
            while traced_rounds == 0 or self.timed < self.seconds:
                one_round()
                traced_rounds += 1
            traced = (time.perf_counter() - started) / traced_rounds
            self.notes.append(
                f"trace: untraced round {untraced:.3f}s, traced round "
                f"{traced:.3f}s, overhead {100 * (traced / untraced - 1):+.1f}%")
            self.metric("process.cpu_s", per_doc_cpu, "s")
            return
        done = 0
        while done < at_least or self.timed < self.seconds:
            one_round()
            done += 1
        self.metric("docs_per_s", self.docs / self.timed, "1/s")
        self.metric("peak_rss_mb", resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    def finish(self) -> None:
        """The run's metrics: end-to-end from the samples, or per layer
        from the traced rounds."""
        if self.trace:
            self.layers()
            return
        walls = [wall for kind in sorted(self.samples)
                 for wall in self.samples[kind]]
        self.metric("op_p50_s", statistics.median(walls), "s")
        self.metric("op_p90_s", p90(walls), "s")
        for kind in sorted(self.samples):
            self.notes.append(
                f"{kind}: median {statistics.median(self.samples[kind]):.4f}s"
                f" over {len(self.samples[kind])} operations")

    def reset_samples(self) -> None:
        self.samples.clear()
        self.fields.clear()
        self.timed = 0.0
        self.docs = 0

    def timed_op(self, kind: str, body):
        """Time ``body()`` as one operation of ``kind``; returns its
        result and wall time."""
        gc.collect()
        started = time.perf_counter()
        with self.rec.operation(kind):
            result = body()
        wall = time.perf_counter() - started
        self.timed += wall
        return result, wall

    # -- per-layer metrics from the traced rounds ------------------------
    def layers(self) -> None:
        """Every per-layer metric, computed the same way on every
        workload: a layer that does not run in this workload reads 0."""
        recorder = self.recorder
        self_times = recorder.self_times()
        counts = recorder.count_totals()
        kinds_of = recorder.operations
        setups = [op for op, kind in kinds_of.items() if kind == "setup"]
        timed = [op for op, kind in kinds_of.items() if kind != "setup"]
        streamed = [op for op, kind in kinds_of.items() if kind == "streamed"]
        for metric, span in SPAN_LAYERS.items():
            ops = setups if metric in SETUP_LAYERS else timed
            total = sum(self_times.get((op, span), 0.0) for op in ops)
            self.metric(metric, total / max(1, len(ops)), "s")
        for metric, (name, kinds) in COUNT_LAYERS.items():
            ops = streamed if kinds == "streamed" else timed
            total = sum(counts.get((op, name), 0.0) for op in ops)
            self.metric(metric, total / max(1, len(ops)), "count")
        for metric, (field, unit) in REPORT_FIELDS.items():
            values = self.fields[field]
            self.metric(metric, sum(values) / max(1, len(values)), unit)
        reused = sum(self.fields["reused_nodes"])
        tainted = sum(self.fields["tainted_nodes"])
        self.metric("incremental.reuse_ratio",
                    reused / max(1, reused + tainted), "ratio")
        for metric, unit in SERVICE_METRICS.items():
            # measured by served_tiny only: no other workload has a server
            self.metrics.setdefault(metric, (0.0, unit))
        durations = recorder.durations()
        coverage = [1 - self_times.get((op, ROOT), 0.0)
                    / durations[op] for op in timed if durations[op] > 0]
        if coverage:
            self.notes.append(
                f"trace: layer self times cover min {min(coverage):.3f}, "
                f"median {statistics.median(coverage):.3f} of each "
                f"operation's traced wall time ({len(coverage)} operations)")
        shares: dict[str, float] = defaultdict(float)
        for (op, name), seconds in self_times.items():
            if kinds_of.get(op) != "setup":
                shares[name] += seconds
        total = sum(shares.values()) or 1.0
        self.notes.append("trace: self-time shares " + ", ".join(
            f"{name} {100 * seconds / total:.1f}%" for name, seconds in
            sorted(shares.items(), key=lambda item: -item[1])))


#: Per-layer self times: mean seconds per timed operation, except the
#: set-up layers, which are per set-up.
SPAN_LAYERS = {
    "datagen.generate_s": "datagen.generate",
    "relational.load_s": "relational.load",
    "fuzz.generate_s": "fuzz.generate",
    "recursion.unfold_s": "recursion.unfold",
    "compilation.specialize_s": "compilation.specialize",
    "optimizer.build_qdg_s": "optimizer.build_qdg",
    "optimizer.merge_s": "optimizer.merge",
    "engine.run_s": "engine.run",
    "relational.query_s": "relational.query",
    "relational.mediator_s": "relational.mediator",
    "relational.ship_s": "relational.ship",
    "relational.write_s": "relational.write",
    "tagging.build_s": "tagging.build",
    "tagging.stream_s": "tagging.stream",
    "recursion.strip_s": "recursion.strip",
    "xmlmodel.size_s": "xmlmodel.size",
    "xmlmodel.serialize_s": "xmlmodel.serialize",
    "xmlmodel.copy_s": "xmlmodel.copy",
    "incremental.fingerprint_s": "incremental.fingerprint",
}
SETUP_LAYERS = {"datagen.generate_s", "relational.load_s", "fuzz.generate_s"}
#: Counts from the wrappers: per timed operation, or per streamed one.
COUNT_LAYERS = {
    "optimizer.schedule_calls": ("optimizer.schedule_calls", "timed"),
    "relational.rows_fetched": ("relational.rows_fetched", "timed"),
    "tagging.stream_passes": ("tagging.stream_passes", "streamed"),
}
#: Means of ExecutionReport / StreamReport fields over the operations.
REPORT_FIELDS = {
    "optimizer.plan_nodes": ("node_count", "count"),
    "optimizer.simulated_response_s": ("response_time", "s"),
    "relational.queries": ("queries_executed", "count"),
    "engine.bytes_shipped": ("bytes_shipped", "bytes"),
}
SERVICE_METRICS = {
    "service.ttfb_s": "s",
    "service.handler_p50_s": "s",
    "service.evaluations": "count",
    "service.cache_hit_ratio": "ratio",
}


def p90(values: list[float]) -> float:
    """Linear interpolation between order statistics (numpy's default):
    the "exclusive" method puts the p90 of the ten steps of a
    delta_medium run 90% of the way to its slowest step."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _encode_sink():
    buffer = io.BytesIO()

    def write(text: str) -> None:
        buffer.write(text.encode("utf-8"))
    return buffer, write


# ----------------------------------------------------------------------
# hospital set-up shared by daily_large and delta_medium
# ----------------------------------------------------------------------
class HospitalState:
    """σ0 over the generator's default dataset at ``scale`` (the one
    ``repro demo`` and ``repro serve`` load, whose procedure DAG is the
    one calibrated to the paper's Large self-join sizes), with one warm
    Middleware.

    The dataset does not follow ``--seed``: the procedure DAG decides the
    recursion depth, and seeded datasets moved the median Large report
    from 0.28 s (seeds 11-15) to 0.84 s (seeds 1-5) and the busiest Medium
    date from 31k to 76k document nodes (seeds 1-4)."""

    def __init__(self, run: Run, scale: str, **config):
        from repro import Middleware, Network, serialize
        from repro.datagen import generate, load_dataset
        from repro.hospital import build_hospital_aig
        from repro.hospital.schema import make_sources

        with run.rec.span("datagen.generate"):
            self.dataset = generate(scale)
        self.sources = make_sources()
        load_dataset(self.dataset, self.sources)
        self.aig = build_hospital_aig()
        self.middleware = Middleware(self.aig, self.sources,
                                     Network.mbps(NETWORK_MBPS),
                                     unfold_depth="auto", **config)
        self.date = self.dataset.busiest_date()
        # warm-up: the plan is compiled once and then cached
        with run.rec.span("xmlmodel.serialize"):
            serialize(self.middleware.evaluate(
                {"date": self.date}).document)

    def close(self) -> None:
        for source in self.sources.values():
            source.close()
        self.middleware.mediator.close()


# ----------------------------------------------------------------------
# daily_large
# ----------------------------------------------------------------------
def daily_large(run: Run) -> None:
    from repro import serialize
    from repro.datagen.generator import DATES

    shards = run.overrides.get("shards", 1)
    state = run.setup(lambda r: HospitalState(r, "large", shards=shards))
    rows = HospitalRows(state.dataset)
    aig, middleware = state.aig, state.middleware
    order = [(date, mode) for date in DATES
             for mode in ("materialized", "streamed")]
    run.rng.shuffle(order)
    bodies: dict[str, bytes] = {}
    verified: dict[str, bytes] = {}

    def materialized(date):
        report = middleware.evaluate({"date": date})
        with run.rec.span("xmlmodel.serialize"):
            body = serialize(report.document).encode("utf-8")
        return report, body

    def streamed(date):
        buffer, write = _encode_sink()
        report = middleware.evaluate_stream({"date": date}, write,
                                            constraints=aig.constraints)
        return report, buffer.getvalue()

    def one_round():
        streams: dict[str, bytes] = {}
        for date, mode in order:
            body_of = materialized if mode == "materialized" else streamed
            (report, body), wall = run.timed_op(mode, lambda: body_of(date))
            run.report_fields(report)
            if mode == "materialized":
                # a document byte-identical to one already checked has
                # the same properties: check each distinct one once
                if verified.get(date) == body:
                    problems = []
                else:
                    problems = hospital_problems(report.document, aig, rows,
                                                 date)
                    if not problems:
                        verified[date] = body
                bodies[date] = body
            else:
                problems = [f"streaming checker: {violation}" for violation
                            in report.constraint_violations[:3]]
                streams[date] = body
            run.record(mode, wall, problems)
        for date, body in streams.items():
            if body != bodies[date]:
                run.fail("streamed", f"{date}: streamed bytes differ from "
                                     f"the materialized document")

    run.rounds(one_round, at_least=2)
    date = run.rng.choice(DATES)
    expected = serialize(conceptual_document(aig, state.sources,
                                             {"date": date})).encode()
    if expected != bodies[date]:
        run.fail("materialized", f"{date}: document differs from the "
                                 f"conceptual evaluator's")
    run.notes.append(f"conceptual check: {date}")


# ----------------------------------------------------------------------
# compile_generated
# ----------------------------------------------------------------------
class ScenarioSet:
    def __init__(self, run: Run):
        from repro.fuzz import FuzzProfile, generate_scenario
        profile = FuzzProfile(min_productions=PRODUCTIONS[0],
                              max_productions=PRODUCTIONS[1],
                              max_depth=CONTAINER_DEPTH,
                              max_sources=MAX_SOURCES)
        with run.rec.span("fuzz.generate"):
            self.specs = [generate_scenario(
                index, violate=index % VIOLATE_EVERY == 0, profile=profile)
                for index in range(SCENARIOS)]
        # warm-up: lazily imported modules load on the first evaluation
        _, sources, body = evaluate_scenario(self.specs[0], run.rec)
        middleware = body()[0]
        middleware.mediator.close()
        for source in sources.values():
            source.close()


def evaluate_scenario(spec, rec):
    """Fresh sources (untimed), then the timed part: a fresh Middleware
    to the serialized document."""
    from repro import Middleware, Network, serialize
    from repro.fuzz import build_scenario
    aig, sources = build_scenario(spec)

    def body():
        middleware = Middleware(aig, sources, Network.mbps(NETWORK_MBPS),
                                unfold_depth="auto",
                                violation_mode="report")
        report = middleware.evaluate(dict(spec.root_values))
        with rec.span("xmlmodel.serialize"):
            text = serialize(report.document)
        return middleware, report, text
    return aig, sources, body


def compile_generated(run: Run) -> None:
    from repro import check_constraints, serialize, validate_tree
    from repro.fuzz import build_scenario

    scenarios = run.setup(ScenarioSet)
    references = []
    for spec in scenarios.specs:
        aig, sources = build_scenario(spec)
        document = conceptual_document(aig, sources, spec.root_values,
                                       violation_mode="report")
        references.append((serialize(document),
                           [str(v) for v in check_constraints(
                               document, aig.constraints)]))
        for source in sources.values():
            source.close()
    order = list(range(len(scenarios.specs)))
    run.rng.shuffle(order)

    def one_round():
        for index in order:
            spec = scenarios.specs[index]
            aig, sources, body = evaluate_scenario(spec, run.rec)
            (middleware, report, text), wall = run.timed_op("cold", body)
            run.report_fields(report)
            expected_text, expected_verdict = references[index]
            problems = []
            if text != expected_text:
                problems.append("document differs from the conceptual "
                                "evaluator's")
            verdict = [str(v) for v in check_constraints(report.document,
                                                         aig.constraints)]
            if verdict != expected_verdict:
                problems.append(f"tree-checker verdict {verdict[:2]} != "
                                f"conceptual {expected_verdict[:2]}")
            if bool(verdict) != (index % VIOLATE_EVERY == 0):
                problems.append("violation injection not reflected")
            problems += [f"DTD: {error}" for error in
                         validate_tree(report.document, aig.dtd)[:3]]
            run.record("cold", wall, [f"scenario {index}: {problem}"
                                      for problem in problems])
            middleware.mediator.close()
            for source in sources.values():
                source.close()

    run.rounds(one_round)


# ----------------------------------------------------------------------
# delta_medium
# ----------------------------------------------------------------------
def delta_medium(run: Run) -> None:
    from repro import serialize

    incremental = run.overrides.get("incremental", True)

    def build(r):
        state = HospitalState(r, "medium", incremental=incremental)
        # second warm-up: the result caches and tagging memo are filled
        state.middleware.evaluate({"date": state.date})
        return state

    state = run.setup(build)
    rows = HospitalRows(state.dataset)
    aig, middleware, date = state.aig, state.middleware, state.date
    ssns = [row[0] for row in state.dataset.patient]
    trids = [row[0] for row in state.dataset.treatment]
    prices = dict(state.dataset.billing)
    steps = STEPS
    # which rows the k-th append writes and which price the k-th update
    # changes do not follow the seed either (the seed draws the new
    # prices and the checked step): seeded rows moved op_p50_s from
    # 1.08 s to 1.61 s between two seeds
    appended = random.Random("delta_medium:appends")
    updated = random.Random("delta_medium:updates")
    checked_step = run.rng.randrange(len(steps))
    conceptual_done = []

    def step(kind):
        if kind == "append":
            new = [(appended.choice(ssns), appended.choice(trids), date)
                   for _ in range(APPEND_ROWS)]
            for row in new:
                rows.add_visit(*row)
            write = lambda: state.sources["DB1"].load_rows("visitInfo",
                                                           new)
        elif kind == "update":
            trid = updated.choice(trids)
            price = str((int(prices[trid]) + run.rng.randrange(1, 900))
                        % 950 + 25)
            prices[trid] = price
            write = lambda: state.sources["DB3"].execute(
                "UPDATE billing SET price = ? WHERE trId = ?",
                (price, trid))
        else:
            write = None

        def body():
            if write is not None:
                write()
            report = middleware.evaluate({"date": date})
            with run.rec.span("xmlmodel.serialize"):
                text = serialize(report.document)
            return report, text
        return body

    def one_round():
        for index, kind in enumerate(steps):
            (report, text), wall = run.timed_op(kind, step(kind))
            run.report_fields(report)
            problems = hospital_problems(report.document, aig, rows, date)
            if index == checked_step and not conceptual_done:
                conceptual_done.append(kind)
                expected = serialize(conceptual_document(
                    aig, state.sources, {"date": date}))
                if expected != text:
                    problems.append("document differs from the conceptual "
                                    "evaluator's")
            run.record(kind, wall, problems)

    run.rounds(one_round)
    run.notes.append(f"conceptual check: step {checked_step} "
                     f"({conceptual_done[0]})")


# ----------------------------------------------------------------------
# served_tiny
# ----------------------------------------------------------------------
TENANT = "hospital"
INDENTS = (None, 2)


class Server:
    """``python -m repro serve`` in a child process."""

    def __init__(self, scale: str, root: Path):
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=str(root / "src"))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--scale", scale,
             "--port", "0"], cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        self.port = None
        for line in self.process.stdout:
            if "listening on http://" in line:
                self.port = int(line.split("http://", 1)[1].split()[0]
                                .rsplit(":", 1)[1])
                break
        if self.port is None:
            self.close()
            raise RuntimeError("repro serve exited before listening")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)

    def metrics(self) -> dict:
        connection = self.connect()
        try:
            connection.request("GET", "/metrics.json")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def status(self, field: str) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
        return 0.0

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def _request(connection, date: str, indent, stream: bool, rec):
    """One POST /evaluate; returns ``(status, body, seconds to first
    byte)``."""
    payload = json.dumps({"tenant": TENANT, "root": {"date": date},
                          "indent": indent, "stream": stream})
    started = time.perf_counter()
    with rec.span("service.ttfb"):
        connection.request("POST", "/evaluate", body=payload,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
    first = time.perf_counter() - started
    with rec.span("http.body"):
        body = response.read()
    return response.status, body, first


def served_tiny(run: Run) -> None:
    from repro import serialize, validate_tree
    from repro.datagen import generate, load_dataset
    from repro.datagen.generator import DATES
    from repro.hospital import build_hospital_aig
    from repro.hospital.schema import make_sources

    scale = run.overrides.get("scale", "tiny")
    root = Path(__file__).resolve().parent.parent
    keys = [(date, indent) for date in DATES for indent in INDENTS]

    class State:
        def __init__(self, r):
            self.server = Server(scale, root)
            connection = self.server.connect()
            try:
                for date, indent in keys:
                    _request(connection, date, indent, False, r.rec)
                _request(connection, DATES[0], None, True, r.rec)
            except BaseException:
                self.server.close()
                raise
            finally:
                connection.close()

        def close(self):
            self.server.close()

    state = run.setup(State)
    server = state.server
    try:
        # references from a separately generated dataset: `repro serve`
        # loads the generator's default seed
        dataset = generate(scale)
        sources = make_sources()
        load_dataset(dataset, sources)
        aig = build_hospital_aig()
        rows = HospitalRows(dataset)
        expected = {}
        for date in DATES:
            document = conceptual_document(aig, sources, {"date": date})
            problems = hospital_problems(document, aig, rows, date)
            problems += validate_tree(document, aig.dtd)
            if problems:
                run.fail("reference", f"{date}: {problems[:2]}")
            for indent in INDENTS:
                expected[(date, indent)] = serialize(
                    document, indent=indent).encode("utf-8")
        for source in sources.values():
            source.close()
        _served_rounds(run, server, keys, expected)
    finally:
        state.close()


def _served_rounds(run: Run, server: Server, keys, expected) -> None:
    lock = threading.Lock()
    ttfbs: list[float] = []
    deadline = [0.0]

    def client(stream: bool, order, rec):
        kind = "streamed" if stream else "materialized"
        connection = server.connect()
        try:
            rounds = 0
            while rounds == 0 or time.perf_counter() < deadline[0]:
                for date, indent in order:
                    started = time.perf_counter()
                    try:
                        with rec.operation(kind):
                            status, body, first = _request(
                                connection, date, indent, stream, rec)
                        wrong = status == 200
                        problem = (None if status == 200 and
                                   body == expected[(date, indent)] else
                                   f"{date} indent={indent}: HTTP {status}"
                                   f", body differs from the reference")
                    except (OSError, http.client.HTTPException) as error:
                        connection.close()
                        connection = server.connect()
                        first, problem, wrong = 0.0, repr(error), False
                    wall = time.perf_counter() - started
                    with lock:
                        run.attempted[kind] += 1
                        if problem:
                            run.fail(kind, problem, wrong)
                        else:
                            run.samples[kind].append(wall)
                            ttfbs.append(first)
                rounds += 1
        finally:
            connection.close()

    def phase(rec):
        before = server.metrics()["counters"]
        cpu = server.cpu_seconds()
        orders = []
        for _ in range(2):
            order = list(keys)
            run.rng.shuffle(order)
            orders.append(order)
        started = time.perf_counter()
        deadline[0] = started + run.seconds
        # daemon: a terminated run exits without waiting for the clients
        threads = [threading.Thread(target=client, args=(stream, order, rec),
                                    daemon=True)
                   for stream, order in zip((False, True), orders)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        after = server.metrics()
        return before, after, wall, server.cpu_seconds() - cpu

    if run.trace:
        # untraced phase for the overhead, then the traced one
        phase(NullRecorder())
        untraced = sum(map(len, run.samples.values()))
        run.reset_samples()
        ttfbs.clear()
        before, after, wall, cpu = phase(run.recorder)
        traced = sum(map(len, run.samples.values()))
        run.notes.append(f"trace: {untraced} requests untraced, {traced} "
                         f"traced in {run.seconds:g}s each (overhead "
                         f"{100 * (untraced / max(1, traced) - 1):+.1f}% "
                         f"per request)")
        counters = after["counters"]
        requests = counters["service_requests"] - before["service_requests"]
        run.metric("service.ttfb_s", statistics.median(ttfbs), "s")
        run.metric("service.handler_p50_s",
                   after["histograms"]["service_latency_seconds"]["p50"],
                   "s")
        run.metric("service.evaluations",
                   (counters["service_evaluations"]
                    - before["service_evaluations"]) / max(1, requests),
                   "count")
        run.metric("service.cache_hit_ratio",
                   (counters.get("service_cache_hits", 0)
                    - before.get("service_cache_hits", 0))
                   / max(1, requests), "ratio")
        run.metric("process.cpu_s", cpu / max(1, requests), "s")
        return
    before, after, wall, cpu = phase(NullRecorder())
    run.metric("docs_per_s", sum(map(len, run.samples.values())) / wall,
               "1/s")
    run.metric("peak_rss_mb", server.status("VmHWM") / 1024, "MB")

WORKLOADS = {
    "daily_large": daily_large,
    "compile_generated": compile_generated,
    "delta_medium": delta_medium,
    "served_tiny": served_tiny,
}
