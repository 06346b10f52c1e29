"""Spans recorded from outside the program under test.

Wrappers are installed around public functions and pass methods; nothing
under ``src/`` records spans itself.  A span is ``(id, name, start, end,
parent, request_id, size)``; spans stay in memory and are written once, as
Chrome trace-event JSON, when the run ends.  A layer's self time is its
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: (pass id in pipeline specs, module, class) of every traced pass.
PASSES = (
    ("template_synthesis", "repro.compiler.passes.template_synthesis", "TemplateSynthesisPass"),
    ("hierarchical_synthesis", "repro.compiler.passes.hierarchical", "HierarchicalSynthesisPass"),
    ("fuse_2q", "repro.compiler.passes.fuse", "Fuse2QBlocksPass"),
    ("mirror", "repro.compiler.passes.mirror", "MirrorNearIdentityPass"),
    ("route", "repro.compiler.passes.route", "SabreRoutingPass"),
    ("finalize", "repro.compiler.passes.finalize", "FinalizeToCanPass"),
)

#: (span name, module, function) of traced module-level functions.
FUNCTIONS = (
    ("kernels.kak_batch", "repro.kernels.kak_batch", "kak_decompose_batch"),
    ("linalg.kak_decompose", "repro.linalg.weyl", "kak_decompose"),
    ("linalg.allclose_up_to_global_phase", "repro.linalg.predicates", "allclose_up_to_global_phase"),
)


class Recorder:
    """In-memory span store; ``wrap`` returns a traced version of a callable.

    Only the creating process records: workers forked from a traced daemon
    run the wrappers as plain pass-throughs.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._pid = os.getpid()

    def wrap(self, name: str, fn: Callable, size: Optional[Callable] = None) -> Callable:
        spans, ids, local, pid = self.spans, self._ids, self._local, self._pid

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            spans.append(
                (span_id, name, start, end, parent, getattr(local, "rid", None),
                 size(result) if size is not None else None)
            )
            return result

        return traced

    def request_scope(self, fn: Callable) -> Callable:
        """Tag every span opened inside ``fn(server, request)`` with the request id."""
        local = self._local

        @functools.wraps(fn)
        def scoped(server, request):
            local.rid = request.get("id")
            try:
                return fn(server, request)
            finally:
                local.rid = None

        return scoped

    def write_chrome(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (opens in Perfetto)."""
        origin = min((span[2] for span in self.spans), default=0.0)
        events = [
            {
                "name": name, "ph": "X", "pid": self._pid, "tid": 0,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent, "rid": rid, "size": size},
            }
            for span_id, name, start, end, parent, rid, size in self.spans
        ]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)


def read_chrome(path: str) -> List[tuple]:
    """Spans back from :meth:`Recorder.write_chrome` (times in seconds)."""
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    return [
        (e["args"]["id"], e["name"], e["ts"] * 1e-6, (e["ts"] + e["dur"]) * 1e-6,
         e["args"]["parent"], e["args"]["rid"], e["args"]["size"])
        for e in events
    ]


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro`` module global that refers to ``original``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install_compile_wrappers(recorder: Recorder) -> None:
    """Trace every pass, the KAK/linalg kernels, SABRE scoring and approximate synthesis."""
    for pass_id, module_name, class_name in PASSES:
        cls = getattr(importlib.import_module(module_name), class_name)
        method = "run_ir" if getattr(cls, "consumes", "circuit") == "ir" else "run"
        setattr(cls, method, recorder.wrap(f"pass.{pass_id}", getattr(cls, method)))
    for span, module_name, attr in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        _replace_everywhere(original, recorder.wrap(span, original))

    kernels = importlib.import_module("repro.kernels")
    make_scorer = kernels.make_sabre_scorer

    @functools.wraps(make_scorer)
    def traced_make_scorer(*args, **kwargs):
        return recorder.wrap("kernels.sabre_score", make_scorer(*args, **kwargs))

    _replace_everywhere(make_scorer, traced_make_scorer)

    from repro.synthesis.approximate import ApproximateSynthesizer

    ApproximateSynthesizer.synthesize = recorder.wrap(
        "synthesis.approximate", ApproximateSynthesizer.synthesize
    )


def install_intake_wrappers(recorder: Recorder) -> None:
    """Trace the daemon's per-request intake: QASM parse and fingerprint."""
    import repro.qasm
    import repro.service.cache
    from repro.service.server import CompileServer

    loads = repro.qasm.loads
    _replace_everywhere(loads, recorder.wrap("qasm.loads", loads, size=len))
    fingerprint = repro.service.cache.circuit_fingerprint
    _replace_everywhere(fingerprint, recorder.wrap("service.fingerprint", fingerprint))
    CompileServer._handle_compile = recorder.request_scope(
        recorder.wrap("service.request", CompileServer._handle_compile)
    )


def layer_totals(spans: List[tuple]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total`` and ``self`` seconds."""
    covered: Dict[int, float] = defaultdict(float)
    for span_id, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Dict[str, Dict[str, float]] = {}
    for span_id, name, start, end, _, _, _ in spans:
        entry = totals.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - covered[span_id]
    return totals
