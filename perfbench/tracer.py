"""Outside-in span tracer for the lslimaging package.

`Tracer.install` wraps every function exported by `lslimaging/__init__.py`
wherever that function object is bound in an `lslimaging.*` module, so calls
between modules go through the wrappers too. The layer of a span is the
module that defines the function. Names the package does not export at some
commit simply record no spans, so the same benchmark code runs on every
commit. Spans stay in memory; `layer_metrics` derives self times and counts
from them at the end of the run.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import pkgutil
import statistics
import time
import zlib

# Per-layer metrics: name -> (unit, better). The README says which
# end-to-end metric each should move, on which workload.
LAYER_METRICS = {
    "forward.solves": ("count", "lower"),
    "forward.solves_distinct": ("count", "lower"),
    "forward.useful_ratio": ("ratio", "higher"),
    "forward.self_s": ("s", "lower"),
    "forward.solve_us.p50": ("us", "lower"),
    "forward.eig_checks": ("count", "lower"),
    "rom.loewner_s": ("s", "lower"),
    "rom.lanczos_s": ("s", "lower"),
    "rom.lanczos_k": ("count", "higher"),
    "rom.snapshot_matrix_s": ("s", "lower"),
    "rom.lsl_internal_s": ("s", "lower"),
    "rom.lsl_internal_calls": ("count", "lower"),
    "imaging.assemble_self_s": ("s", "lower"),
    "imaging.tsvd_s": ("s", "lower"),
    "imaging.tsvd_rank": ("count", "higher"),
    "imaging.matrix_bytes": ("bytes", "lower"),
    "transfer.generate_s": ("s", "lower"),
    "transfer.io_s": ("s", "lower"),
    "transfer.io_bytes": ("bytes", "lower"),
    "experiment.self_s": ("s", "lower"),
    "experiment.write_s": ("s", "lower"),
    "experiment.write_bytes": ("bytes", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Span fields, kept as lists for low recording cost.
NAME, LAYER, PARENT, REQUEST, START, END, INFO = range(7)


def _arg(args, kwargs, position, keyword):
    if keyword in kwargs:
        return kwargs[keyword]
    return args[position] if len(args) > position else None


def _file_size(path):
    return os.path.getsize(path) if path is not None else None


# What to keep from a call besides its times, by function name. Each reads
# arguments or results defensively: a later commit may change them.
_OBSERVERS = {
    # the operator is kept by reference; its fingerprint is taken at the end
    "resolvent_apply": lambda a, k, r: (_arg(a, k, 0, "op"), _arg(a, k, 2, "lam")),
    "lanczos": lambda a, k, r: r.k,
    "solve_regularized": lambda a, k, r: r.rank,
    "assemble_system": lambda a, k, r: 8 * r.A.shape[0] * r.A.shape[1],
    "save_dataset": lambda a, k, r: _file_size(_arg(a, k, 1, "path")),
    "load_dataset": lambda a, k, r: _file_size(_arg(a, k, 0, "path")),
    "write_table": lambda a, k, r: _file_size(_arg(a, k, 0, "path")),
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._patched = []

    def install(self, package) -> None:
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for name in dir(package):
            fn = getattr(package, name)
            if not inspect.isfunction(fn):
                continue
            wrapper = self._wrap(fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, fn):
        name, layer = fn.__name__, fn.__module__.rsplit(".", 1)[-1]
        observe = _OBSERVERS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, stack[-1] if stack else -1, self.request, 0.0, 0.0, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                try:
                    span[INFO] = observe(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    pass
            return result

        return traced

    def add(self, name: str, layer: str, start: float, end: float) -> None:
        """Record a span measured by the caller, e.g. an import."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, parent, self.request, start, end, None])

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Record a span around the body of a with statement."""
        span = [name, layer, self._stack[-1] if self._stack else -1, self.request, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def finish(self) -> None:
        """Replace kept operators by fingerprints, so spans hold plain data."""
        fingerprints = {}
        for span in self.spans:
            if span[NAME] == "resolvent_apply" and isinstance(span[INFO], tuple):
                op, lam = span[INFO]
                if id(op) not in fingerprints:
                    fingerprints[id(op)] = "%08x%08x" % (
                        zlib.crc32(op.diag.tobytes()), zlib.crc32(op.off.tobytes())
                    )
                span[INFO] = f"{fingerprints[id(op)]}@{float(lam)!r}"

    def extend(self, spans, request) -> None:
        """Append spans recorded by another process, as one request."""
        offset = len(self.spans)
        for span in spans:
            parent = span[PARENT] + offset if span[PARENT] >= 0 else -1
            self.spans.append([span[NAME], span[LAYER], parent, request, span[START], span[END], span[INFO]])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def layer_metrics(spans, requests, import_s=None) -> dict:
    """Per-layer metrics: the median over `requests` of each request's value.

    Times are seconds (inclusive for one function, self time for a layer);
    counts and bytes are per request. `import_s` is used for cli.import_s
    when no traced request recorded an import span.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    per_request = {request: [] for request in requests}
    for i, span in enumerate(spans):
        if span[REQUEST] in per_request:
            per_request[span[REQUEST]].append((span, span[END] - span[START], span[END] - span[START] - child[i]))
    rows = [_request_metrics(items, import_s) for items in per_request.values()]
    # counts and bytes stay whole numbers
    return {name: (statistics.median if LAYER_METRICS[name][0] in ("s", "us", "ratio")
                   else statistics.median_low)(row[name] for row in rows)
            for name in rows[0]}


def _request_metrics(items, import_s) -> dict:
    def calls(*names):
        return [(span, dur) for span, dur, _ in items if span[NAME] in names]

    def total(*names):
        return sum((dur for _, dur in calls(*names)), 0.0)

    def layer_self(layer):
        return sum((own for span, _, own in items if span[LAYER] == layer), 0.0)

    def info(*names):
        return [span[INFO] for span, _ in calls(*names) if isinstance(span[INFO], (int, float))]

    solves = calls("resolvent_apply")
    keys = {span[INFO] for span, _ in solves}
    imports = calls("import")
    return {
        "forward.solves": len(solves),
        "forward.solves_distinct": len(keys),
        "forward.useful_ratio": len(keys) / len(solves) if solves else 0.0,
        "forward.self_s": layer_self("forward"),
        "forward.solve_us.p50": 1e6 * statistics.median(dur for _, dur in solves) if solves else 0.0,
        "forward.eig_checks": len(calls("operator_eigenvalues")),
        "rom.loewner_s": total("build_loewner"),
        "rom.lanczos_s": total("lanczos"),
        "rom.lanczos_k": max(info("lanczos"), default=0),
        "rom.snapshot_matrix_s": total("compute_snapshot_matrix"),
        "rom.lsl_internal_s": total("lsl_internal"),
        "rom.lsl_internal_calls": len(calls("lsl_internal")),
        "imaging.assemble_self_s": sum((own for span, _, own in items if span[NAME] == "assemble_system"), 0.0),
        "imaging.tsvd_s": total("solve_regularized"),
        "imaging.tsvd_rank": max(info("solve_regularized"), default=0),
        "imaging.matrix_bytes": max(info("assemble_system"), default=0),
        "transfer.generate_s": total("generate_dataset"),
        "transfer.io_s": total("save_dataset", "load_dataset"),
        "transfer.io_bytes": sum(info("save_dataset", "load_dataset")),
        "experiment.self_s": layer_self("experiment"),
        "experiment.write_s": total("write_table"),
        "experiment.write_bytes": sum(info("write_table")),
        "cli.import_s": sum(dur for _, dur in imports) if imports else (import_s or 0.0),
        "cli.self_s": layer_self("cli") - sum(dur for _, dur in imports),
    }
