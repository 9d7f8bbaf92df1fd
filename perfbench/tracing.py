"""In-memory span recorder that wraps module attributes from outside the package.

A span records its name, start, end, parent span and job id. Wrapping swaps a
module attribute for a recording shim; `restore` puts every original back and
reports any attribute that does not end up as the original object again.
"""

import functools
import json
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, JOB, INFO = range(6)


class Tracer:
    """Collects spans in memory; nothing is written until `write` is called."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job id, info dict or None]
        self._open = []
        self._patched = []
        self.job = None

    def _enter(self, name):
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.job, None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        return record

    def _exit(self, record):
        record[END] = perf_counter()
        self._open.pop()

    @contextmanager
    def job_span(self, job_id):
        """Root span of one job; spans opened inside it carry `job_id`."""
        self.job = job_id
        record = self._enter("job")
        try:
            yield
        finally:
            self._exit(record)
            self.job = None

    def wrap(self, module, attr, name, describe=None):
        """Replace module.attr with a shim that records a span per call.

        describe(args, kwargs, result), when given, returns a dict of counts
        stored with the span.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(record)
            if describe is not None:
                record[INFO] = describe(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self):
        """Undo every wrap; returns the names that are not the original object afterwards."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        stale = [
            f"{module.__name__}.{attr}"
            for module, attr, original in self._patched
            if getattr(module, attr) is not original
        ]
        self._patched = []
        return stale

    def self_times(self):
        """Per-span duration minus the time covered by its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path):
        """Write one JSON object per span, times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for k, s in enumerate(self.spans):
                row = {
                    "id": k,
                    "name": s[NAME],
                    "start": s[START] - t0,
                    "end": s[END] - t0,
                    "self": own[k],
                    "parent": s[PARENT],
                    "job": s[JOB],
                }
                if s[INFO]:
                    row.update(s[INFO])
                fh.write(json.dumps(row) + "\n")
