"""Span tracing of flexicolor's public functions from outside the package.

`instrument` rebinds each traced function in every loaded flexicolor
module that holds it (and each traced method on its class), and puts the
originals back on exit; no file of the package is edited.  Spans are
kept in memory as (name, start, end, parent, request) and written out
by `dump`.
"""
from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict


def _moves(args, result):
    return {"maxdeg.moves": len(result.trace.get("moves", ()))}


def _enumerated(args, result):
    return {"oracle.enumerated": result.enumerated}


def _members(args, result):
    return {"treewidth.members_scored": len(args[2].members)}


def _parse_bytes(args, result):
    return {"instances.parse.bytes": len(args[0])}  # documents are ASCII


# (module, function or Class.method, counts read from the call or None)
TARGETS = (
    ("cli", "main", None),
    ("instances", "parse", _parse_bytes),
    ("graph", "Graph.induced", None),
    ("graph", "block_cut_tree", None),
    ("graph", "proper_coloring", None),
    ("graph", "validate_ktree_order", None),
    ("listcolor", "precolor_and_extend", None),
    ("listcolor", "degree_choosable_coloring", None),
    ("listcolor", "check_coloring", None),
    ("listcolor", "satisfied_amount", None),
    ("maxdeg", "solve_unweighted", _moves),
    ("maxdeg", "solve_weighted", None),
    ("maxdeg", "classify_components", None),
    ("treewidth", "two_tree_family", None),
    ("treewidth", "lambda_family", None),
    ("treewidth", "best_of_family", _members),
    ("treedepth", "derandomized_coloring", None),
    ("degeneracy", "flexible_degeneracy_order", None),
    ("degeneracy", "is_three_connected", None),
    ("degeneracy", "hypergraph_spanning_set", None),
    ("oracle", "optimal_satisfaction", _enumerated),
)


# Every time of the benchmark is CPU time of this one process: a request
# runs in it on one thread, and time spent waiting for a core on a shared
# host is left out.
CLOCK = time.process_time


class Tracer:
    """In-memory span recorder; records only while `active` is set."""

    def __init__(self):
        self.active = False
        self.request_id = 0  # shared by the spans of one client request
        self.spans = []  # [name, start, end, parent index or -1, request id]
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name: str, fn, observe):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = CLOCK

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                for key, val in observe(args, result).items():
                    counts[key] += val
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self, first: int = 0) -> tuple:
        """Per span name over spans[first:]: (calls, self seconds,
        inclusive seconds).  Self time is a span minus its children."""
        spans = self.spans
        child = defaultdict(float)
        for name, start, end, parent, _ in spans[first:]:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        own = defaultdict(float)
        incl = defaultdict(float)
        for i in range(first, len(spans)):
            name, start, end, _, _ = spans[i]
            calls[name] += 1
            own[name] += end - start - child[i]
            incl[name] += end - start
        return calls, own, incl

    def dump(self, path: str) -> None:
        """Write the spans as tab-separated id, name, start, end, parent
        and request columns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\trequest\n")
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{req}\n")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind every target in the loaded flexicolor modules, then restore."""
    saved = []
    modules = [m for key, m in list(sys.modules.items())
               if key == "flexicolor" or key.startswith("flexicolor.")]
    try:
        for mod, attr, observe in TARGETS:
            home = importlib.import_module(f"flexicolor.{mod}")
            name = f"{mod}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                saved.append((cls, meth, cls.__dict__[meth]))
                setattr(cls, meth, tracer.wrap(name, cls.__dict__[meth], observe))
                continue
            orig = getattr(home, attr)
            wrapped = tracer.wrap(name, orig, observe)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        saved.append((m, key, orig))
                        setattr(m, key, wrapped)
        yield tracer
    finally:
        for obj, key, orig in reversed(saved):
            setattr(obj, key, orig)
