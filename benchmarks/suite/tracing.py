"""Spans recorded from outside the program, around calls into each layer.

The tracer patches the public entry points of the layers (module and class
attributes, nothing inside a function body) with wrappers that record
``{id, name, start, end, parent, request_id}``.  Spans stay in memory and
are written out when the benchmark ends.  Spans *inside* the program are
ROADMAP item 3, not this harness.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

__all__ = ["Tracer", "UNTRACED_EVERY", "nesting_errors", "self_times"]

#: In a traced run every fourth round stays untraced, interleaved, so the
#: run prices its own tracing without a drift between two phases.
UNTRACED_EVERY = 4


class Tracer:
    """An in-memory span recorder with a patch/unpatch lifecycle.

    One thread only: every workload calls into the program from its main
    thread (``Collection.query`` runs serially at its default one worker).
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.enabled = False
        self._stack: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------ #

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        stack = self._stack
        parent = stack[-1] if stack else None
        record = {
            "id": len(self.spans),
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": parent["id"] if parent is not None else None,
            "request_id": parent["request_id"] if parent is not None else None,
        }
        self.spans.append(record)
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float, parent: dict | None, request_id) -> dict | None:
        """Record a span the caller measured itself.

        For the asyncio wire client: its connections interleave on one
        thread, so the stack discipline of :meth:`span` does not hold there.
        """
        if not self.enabled:
            return None
        record = {
            "id": len(self.spans), "name": name, "start": start, "end": end,
            "parent": parent["id"] if parent is not None else None, "request_id": request_id,
        }
        self.spans.append(record)
        return record

    @contextmanager
    def request(self, request_id):
        """The root span of one logical operation; its children share its id."""
        with self.span("op") as record:
            if record is not None:
                record["request_id"] = request_id
            yield record

    # -- patching ------------------------------------------------------- #

    def wrap(self, owner: object, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a wrapper recording span ``name``."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        target = original.__func__ if isinstance(original, (classmethod, staticmethod)) else original
        tracer = self

        @functools.wraps(target)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return target(*args, **kwargs)

        replacement = type(original)(traced) if target is not original else traced
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def wrap_scan(self, owner: type, attribute: str, method: str, name: str) -> None:
        """Patch a scanner factory so each page fetch of the scan is a span.

        ``owner.attribute(...)`` returns a scanner whose ``method(...)`` is a
        generator of pages; the time inside each ``next()`` is the storage
        layer fetching (never the consumer decoding).
        """
        original = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return _TracedScan(original(*args, **kwargs), method, tracer, name)

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def unpatch(self) -> None:
        self.enabled = False
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def install(self) -> None:
        """Patch every layer boundary the in-process workloads cross; start recording."""
        if self._patches:
            return
        import repro.collection.executor as executor
        import repro.engine as engine
        import repro.plan.cache as plan_cache
        import repro.xpath as xpath
        from repro.collection import Collection
        from repro.storage.database import ArbDatabase

        self.wrap(engine.Database, "query_many", "engine.query_many")
        self.wrap(engine.Database, "open", "storage.open")
        self.wrap(engine.Database, "apply", "storage.apply_single")
        self.wrap(engine.Database, "apply_many", "storage.apply_group")
        self.wrap(Collection, "query", "collection.query")
        self.wrap(plan_cache.PlanCache, "lookup", "plan.cache_lookup")
        self.wrap(plan_cache, "compile_query", "tmnf.compile")
        self.wrap(xpath, "xpath_to_program", "xpath.parse_translate")
        self.wrap(engine, "evaluate_batch_on_disk", "plan.batch_eval")
        self.wrap(executor, "evaluate_batch_on_disk", "plan.batch_eval")
        self.wrap_scan(ArbDatabase, "ranged_spans", "spans_range", "storage.fetch")
        self.wrap_scan(ArbDatabase, "ranged_records", "range", "storage.fetch")
        self.enabled = True


class _TracedScan:
    """A scanner proxy timing every page its generator method hands out."""

    def __init__(self, scan, method: str, tracer: Tracer, name: str):
        self._scan = scan
        self._tracer = tracer
        self._name = name
        setattr(self, method, self._timed(getattr(scan, method)))

    def _timed(self, generator_method):
        def pages(*args, **kwargs):
            iterator = iter(generator_method(*args, **kwargs))
            while True:
                with self._tracer.span(self._name):
                    item = next(iterator, _DONE)
                if item is _DONE:
                    return
                yield item

        return pages

    def __getattr__(self, attribute):
        return getattr(self._scan, attribute)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._scan.close()


_DONE = object()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def nesting_errors(spans: list[dict]) -> list[str]:
    """Violations of: every child inside its parent, one request id per tree."""
    by_id = {span["id"]: span for span in spans}
    errors = []
    for span in spans:
        if span["end"] < span["start"]:
            errors.append(f"span {span['id']} ({span['name']}) ends before it starts")
        if span["parent"] is None:
            continue
        parent = by_id.get(span["parent"])
        if parent is None:
            errors.append(f"span {span['id']} names a missing parent {span['parent']}")
            continue
        if span["start"] < parent["start"] or span["end"] > parent["end"]:
            errors.append(f"span {span['id']} ({span['name']}) leaves its parent {parent['id']}")
        if span["request_id"] != parent["request_id"]:
            errors.append(f"span {span['id']} carries another request id than its parent")
    return errors
