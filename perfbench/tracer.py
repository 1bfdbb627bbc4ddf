"""Per-layer spans and counters for one in-process pipeline run.

The wrappers are installed from outside the package, around each layer's
public function, for the length of one ``run_pipeline`` call; nothing under
``src/`` knows about them. Each thread keeps its own span stack and totals,
so the worker threads of a multi-worker run never share a counter. A
layer's self time is the thread CPU time of its spans minus that of the
spans nested inside them on the same thread. CPU time rather than wall
time, because with worker threads a span's wall time also counts the time
the thread waited for the interpreter lock while another thread ran.

Generator layers (ingest's ``parse_dump_stream`` and extsort's
``sort_revisions``) are timed per ``next()``. A layer whose wrapper never
fired is reported as missing rather than as zero cost.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("ingest", "extsort", "tokenizer", "diff", "reconstruct", "clean", "store", "corpus", "pipeline")

# Every per-layer metric: unit, and which direction is better.
METRICS = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "ingest.records": ("count", "higher"),
    "ingest.mb_per_s": ("MB/s", "higher"),
    "extsort.runs_spilled": ("count", "lower"),
    "extsort.stages": ("count", "lower"),
    "extsort.peak_resident_records": ("count", "lower"),
    "tokenizer.calls": ("count", "lower"),
    "tokenizer.chars_in": ("chars", "lower"),
    "diff.tokens_in": ("tokens", "lower"),
    "diff.changed_share": ("ratio", "higher"),
    "diff.cap_bailouts": ("count", "lower"),
    "reconstruct.actions": ("count", "higher"),
    "reconstruct.resynced": ("count", "lower"),
    "reconstruct.cost_growth": ("ratio", "lower"),
    "clean.calls": ("count", "lower"),
    "clean.fallbacks": ("count", "lower"),
    "store.lookups": ("count", "lower"),
    "store.hit_ratio": ("ratio", "higher"),
    "store.pushes": ("count", "lower"),
    "store.evictions": ("count", "lower"),
    "corpus.mb_written": ("MB", "lower"),
    "pipeline.pages": ("count", "higher"),
    "pipeline.worker_busy_share": ("ratio", "higher"),
    "trace.overhead_share": ("ratio", "lower"),
}


class _ThreadLog:
    def __init__(self):
        self.stack: list[list] = []  # [layer, CPU time spent in nested spans]
        self.spans: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.revision_costs: dict[str, list[float]] = defaultdict(list)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []

    def log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def begin(self, layer: str):
        log = self.log()
        log.stack.append([layer, 0.0])
        return log, time.thread_time()

    def end(self, token) -> float:
        """Close the span; returns its thread CPU time in seconds."""
        log, start = token
        elapsed = time.thread_time() - start
        layer, nested = log.stack.pop()
        log.spans[layer] += 1
        log.self_s[layer] += elapsed - nested
        if log.stack:
            log.stack[-1][1] += elapsed
        return elapsed

    def inside(self, layer: str) -> bool:
        stack = self.log().stack
        return bool(stack) and stack[-1][0] == layer

    def merged(self):
        spans, self_s, counts, peaks = (defaultdict(int), defaultdict(float), defaultdict(float), defaultdict(float))
        costs: dict[str, list[float]] = {}
        for log in self._logs:
            for src, dst in ((log.spans, spans), (log.self_s, self_s), (log.counts, counts)):
                for key, value in src.items():
                    dst[key] += value
            for key, value in log.peaks.items():
                peaks[key] = max(peaks[key], value)
            costs.update(log.revision_costs)
        return spans, self_s, counts, peaks, costs

    def timed_iter(self, layer: str, iterator):
        while True:
            token = self.begin(layer)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.end(token)
            yield item


def _wrappers(tracer: Tracer) -> list[tuple[object, str, object, object]]:
    """(owner, attribute, original, wrapper) for every layer entry point
    present; an entry point that is gone leaves its layer missing."""
    from wikitalk import corpus, diff, extsort, pipeline, reconstruct, store

    patches = []

    def patch(owner, name, make):
        original = getattr(owner, name, None)
        if original is not None:
            patches.append((owner, name, original, make(original)))

    def parse_dump_stream(original):
        def wrapper(*args, **kwargs):
            for record in tracer.timed_iter("ingest", original(*args, **kwargs)):
                tracer.log().counts["ingest.records"] += 1
                yield record

        return wrapper

    def sort_revisions(original):
        def wrapper(revisions, budget, stats=None, *args, **kwargs):
            if stats is None:
                stats = extsort.SortStats()
            try:
                yield from tracer.timed_iter("extsort", original(revisions, budget, stats, *args, **kwargs))
            finally:
                log = tracer.log()
                log.counts["extsort.runs_spilled"] += getattr(stats, "runs_spilled", 0)
                log.counts["extsort.stages"] += getattr(stats, "stages", 0)
                peak = getattr(stats, "peak_in_memory_records", 0)
                log.peaks["extsort.peak_resident_records"] = max(log.peaks["extsort.peak_resident_records"], peak)

        return wrapper

    def tokenize(original):
        def wrapper(text, *args, **kwargs):
            token = tracer.begin("tokenizer")
            try:
                return original(text, *args, **kwargs)
            finally:
                tracer.end(token)
                counts = tracer.log().counts
                counts["tokenizer.calls"] += 1
                counts["tokenizer.chars_in"] += len(text)

        return wrapper

    def lcs_diff(original):
        def wrapper(old, new, *args, **kwargs):
            counts = tracer.log().counts
            counts["diff.tokens_in"] += len(old) + len(new)
            token = tracer.begin("diff")
            try:
                script = original(old, new, *args, **kwargs)
            except diff.DiffTokenLimitError:
                counts["diff.cap_bailouts"] += 1
                raise
            finally:
                tracer.end(token)
            counts["diff.changed_tokens"] += script.inserted_token_count() + script.deleted_token_count()
            return script

        return wrapper

    def clean_markup(original):
        def wrapper(*args, **kwargs):
            token = tracer.begin("clean")
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(token)
            counts = tracer.log().counts
            counts["clean.calls"] += 1
            counts["clean.fallbacks"] += bool(getattr(result, "fallback", False))
            return result

        return wrapper

    def store_method(kind):
        def make(original):
            def wrapper(self, *args, **kwargs):
                if tracer.inside("store"):  # e.g. take() calling match()
                    return original(self, *args, **kwargs)
                before = len(self)
                token = tracer.begin("store")
                try:
                    result = original(self, *args, **kwargs)
                finally:
                    tracer.end(token)
                counts = tracer.log().counts
                if kind == "lookup":
                    counts["store.lookups"] += 1
                    counts["store.hits"] += result is not None
                elif kind == "push":
                    counts["store.pushes"] += bool(result)
                    counts["store.evictions"] += before + bool(result) - len(self)
                return result

            return wrapper

        return make

    def process_revision(original):
        def wrapper(recon, state, rev, *args, **kwargs):
            tally = getattr(recon, "tally", None)
            skipped = getattr(tally, "skipped_revisions", 0)
            token = tracer.begin("reconstruct")
            try:
                result = original(recon, state, rev, *args, **kwargs)
            finally:
                elapsed = tracer.end(token)
            log = tracer.log()
            log.revision_costs[rev.page_id].append(elapsed)
            log.counts["reconstruct.actions"] += len(result[1])
            log.counts["reconstruct.resynced"] += getattr(tally, "skipped_revisions", 0) - skipped
            return result

        return wrapper

    def write_actions(original):
        def wrapper(*args, **kwargs):
            token = tracer.begin("corpus")
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(token)

        return wrapper

    def process_page(original):
        def wrapper(*args, **kwargs):
            token = tracer.begin("pipeline")
            try:
                return original(*args, **kwargs)
            finally:
                busy = tracer.end(token)
                counts = tracer.log().counts
                counts["pipeline.pages"] += 1
                counts["pipeline.busy_cpu_s"] += busy

        return wrapper

    patch(pipeline, "parse_dump_stream", parse_dump_stream)
    patch(pipeline, "sort_revisions", sort_revisions)
    patch(pipeline, "_process_page", process_page)
    patch(reconstruct, "tokenize", tokenize)
    patch(reconstruct, "lcs_diff", lcs_diff)
    patch(reconstruct, "clean_markup", clean_markup)
    patch(reconstruct.Reconstructor, "process_revision", process_revision)
    patch(store.DeletedCommentStore, "match", store_method("lookup"))
    patch(store.DeletedCommentStore, "take", store_method("take"))
    patch(store.DeletedCommentStore, "push", store_method("push"))
    patch(corpus, "write_actions", write_actions)
    return patches


@contextmanager
def installed(tracer: Tracer):
    """Install the layer wrappers for the duration of the block."""
    patches = _wrappers(tracer)
    try:
        for owner, name, _, wrapper in patches:
            setattr(owner, name, wrapper)
        yield
    finally:
        for owner, name, original, _ in patches:
            setattr(owner, name, original)


def traced_run(run, workers: int, dump_bytes: int, corpus_bytes) -> tuple[float, dict, list[str]]:
    """Run ``run()`` (one whole pipeline run) under a fresh tracer.

    Returns the wall time, the per-layer metrics and the missing layers.
    ``corpus_bytes()`` gives the size of the corpus the run wrote.
    """
    tracer = Tracer()
    with installed(tracer):
        start = time.perf_counter()
        token = tracer.begin("pipeline")
        try:
            run()
        finally:
            tracer.end(token)
            wall = time.perf_counter() - start
    spans, self_s, counts, peaks, costs = tracer.merged()
    missing = [layer for layer in LAYERS if not spans.get(layer)]
    metrics: dict[str, float] = {f"{layer}.self_s": self_s[layer] for layer in LAYERS if layer not in missing}

    def put(layer, name, value):
        if layer not in missing:
            metrics[f"{layer}.{name}"] = value

    put("ingest", "records", counts["ingest.records"])
    put("ingest", "mb_per_s", dump_bytes / 1e6 / self_s["ingest"] if self_s["ingest"] else 0.0)
    put("extsort", "runs_spilled", counts["extsort.runs_spilled"])
    put("extsort", "stages", counts["extsort.stages"])
    put("extsort", "peak_resident_records", peaks["extsort.peak_resident_records"])
    put("tokenizer", "calls", counts["tokenizer.calls"])
    put("tokenizer", "chars_in", counts["tokenizer.chars_in"])
    put("diff", "tokens_in", counts["diff.tokens_in"])
    tokens_in = counts["diff.tokens_in"]
    put("diff", "changed_share", counts["diff.changed_tokens"] / tokens_in if tokens_in else 0.0)
    put("diff", "cap_bailouts", counts["diff.cap_bailouts"])
    put("reconstruct", "actions", counts["reconstruct.actions"])
    put("reconstruct", "resynced", counts["reconstruct.resynced"])
    put("reconstruct", "cost_growth", _cost_growth(costs.values()))
    put("clean", "calls", counts["clean.calls"])
    put("clean", "fallbacks", counts["clean.fallbacks"])
    lookups = counts["store.lookups"]
    put("store", "lookups", lookups)
    put("store", "hit_ratio", counts["store.hits"] / lookups if lookups else 0.0)
    put("store", "pushes", counts["store.pushes"])
    put("store", "evictions", counts["store.evictions"])
    put("corpus", "mb_written", corpus_bytes() / 1e6)
    if counts["pipeline.pages"]:
        metrics["pipeline.pages"] = counts["pipeline.pages"]
        metrics["pipeline.worker_busy_share"] = counts["pipeline.busy_cpu_s"] / (wall * workers)
    return wall, metrics, missing


def _cost_growth(per_page: list[list[float]]) -> float:
    """Mean per-revision time in the last quarter of each page's revisions
    over the mean in the first quarter (pages of four or more revisions)."""
    first: list[float] = []
    last: list[float] = []
    for costs in per_page:
        quarter = len(costs) // 4
        if quarter:
            first.extend(costs[:quarter])
            last.extend(costs[-quarter:])
    if not first:
        return 0.0
    return statistics.fmean(last) / statistics.fmean(first)
