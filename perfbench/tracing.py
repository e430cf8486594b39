"""Spans around the public functions of each decorr layer, and their analysis.

A span is (name, start, end, parent, pass id, attributes).  Spans are kept
in memory while a pass runs and written to their own artifact at the end.
A function is wrapped in every ``decorr`` module namespace that holds it,
because modules import each other's functions by name (``expansion`` does
``from .algebra import herm_exp``), and in module-level dispatch tables
(``cli.main`` calls the commands through a dict).  ``numpy.linalg.eigh`` is
wrapped as the LAPACK boundary.

The per-layer metrics (units and directions in BENCHMARK.json) and the
end-to-end metric each should move, on which workload:

  algebra.herm_exp.{calls,self_s}, .ext.{calls,self_s}  wall_s, expansion-weights
  algebra.herm_eig.{calls,self_s}                       wall_s, thermal-dense
  algebra.lapack_eigh.{calls,self_s,n3}                 wall_s, thermal-dense
  algebra.embed.{calls,self_s}                          wall_s, thermal-dense
  algebra.embed.bytes                                   peak_rss_mb, thermal-dense
  model.build_restricted.{calls,self_s,distinct_ratio}  wall_s, thermal-dense
  model.xxz_spec.self_s                                 setup_s, every seeded workload
  gibbs.{gibbs_state,covariance}.{calls,self_s}         wall_s, thermal-dense
  expansion.yarotsky_term.{calls,self_s,summands}       wall_s, expansion-weights
  expansion.partition_ratio.{calls,total_s}             wall_s, thermal-dense
  lattice.enumerate_connected_sets.{calls,self_s,sets}  wall_s, counting
  lattice.supercluster_decompose.{calls,self_s}         wall_s, expansion-weights
  kernels.brute_force_connected_count.{self_s,subsets,useful_ratio}
                                                        wall_s, counting
  cli.run_verify.self_s                                 wall_s, expansion-weights
  cli.run_decay.self_s, cli.run_ising.self_s            wall_s, thermal-dense
  cli.run_count.self_s                                  wall_s, counting
  trace.overhead_s (traced minus untraced pass wall)    none: the tracer's cost

A spectral change should leave counting's metrics where they are.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from contextlib import contextmanager

# span name -> (module, attribute) of the function it wraps
TRACED = {
    "algebra.herm_exp": ("decorr.algebra", "herm_exp"),
    "algebra.herm_eig": ("decorr.algebra", "herm_eig"),
    "algebra.embed": ("decorr.algebra", "embed"),
    "algebra.lapack_eigh": ("numpy.linalg", "eigh"),
    "model.build_restricted": ("decorr.model", "build_restricted"),
    "model.xxz_spec": ("decorr.model", "xxz_spec"),
    "gibbs.gibbs_state": ("decorr.gibbs", "gibbs_state"),
    "gibbs.covariance": ("decorr.gibbs", "covariance"),
    "expansion.yarotsky_term": ("decorr.expansion", "yarotsky_term"),
    "expansion.partition_ratio": ("decorr.expansion", "partition_ratio"),
    "lattice.enumerate_connected_sets": ("decorr.lattice", "enumerate_connected_sets"),
    "lattice.supercluster_decompose": ("decorr.lattice", "supercluster_decompose"),
    "kernels.brute_force_connected_count": ("decorr._kernels", "brute_force_connected_count"),
    "cli.run_verify": ("decorr.cli", "run_verify"),
    "cli.run_decay": ("decorr.cli", "run_decay"),
    "cli.run_ising": ("decorr.cli", "run_ising"),
    "cli.run_count": ("decorr.cli", "run_count"),
}


def _matrix(x):
    return x.matrix if hasattr(x, "matrix") else x


def _herm_exp_attrs(args, kwargs, result):
    import numpy as np

    dtype = np.asarray(_matrix(args[0])).dtype
    return {"ext": bool(dtype in (np.longdouble, np.clongdouble))}


def _eigh_attrs(args, kwargs, result):
    shape = args[0].shape
    return {"n3": math.prod(shape[:-2]) * shape[-1] ** 3}


def _embed_attrs(args, kwargs, result):
    return {"bytes": int(result.matrix.nbytes)}


def _ball_points(D: int, r: int) -> int:
    """Integer points of Z^D with l1 norm <= r."""
    return sum(2**i * math.comb(D, i) * math.comb(r, i) for i in range(D + 1))


def _brute_attrs(args, kwargs, result):
    D, R, k = args
    m = _ball_points(D, 2 * R * max(k - 1, 0))
    return {"subsets": math.comb(m - 1, k - 1), "connected": int(result)}


ATTRS = {
    "algebra.herm_exp": _herm_exp_attrs,
    "algebra.lapack_eigh": _eigh_attrs,
    "algebra.embed": _embed_attrs,
    "lattice.enumerate_connected_sets": lambda a, kw, r: {"sets": len(r)},
    "kernels.brute_force_connected_count": _brute_attrs,
}


class Tracer:
    """Records spans of one pass; ``install`` wraps the traced functions."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._keep: list = []  # objects whose id() keys a span attribute

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "pass": self.pass_id}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, name: str, fn):
        attrs_fn = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if attrs_fn is not None:
                rec.update(attrs_fn(args, kwargs, result))
            if name == "model.build_restricted":
                spec, region = args[0], args[1]
                self._keep.append(spec)
                rec["key"] = f"{id(spec)}:{tuple(region)}"
            return result

        return traced

    def install(self):
        """Wrap every traced function wherever a decorr module holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "decorr" or n.startswith("decorr.")]
        for name, (mod_name, attr) in TRACED.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self.wrap(name, original)
            setattr(sys.modules[mod_name], attr, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for dk, dv in list(value.items()):
                            if dv is original:
                                value[dk] = wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out.append((s["end"] - s["start"]) - covered)
    return out


def root_time(spans: list[dict]) -> float:
    """Time covered by the spans without a parent: a pass's set-up and run."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)


def layer_self_total(spans: list[dict]) -> float:
    """Sum of the self times of the traced layer functions.

    On a well-nested span tree this is at most ``root_time``; a span that
    overlaps a sibling or outlasts its parent is counted twice and can push
    it over.
    """
    selfs = self_times(spans)
    return sum(t for s, t in zip(spans, selfs) if s["name"] in TRACED)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass, by metric name."""
    selfs = self_times(spans)
    by: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by.setdefault(s["name"], []).append(i)

    def calls(name):
        return len(by.get(name, ()))

    def self_s(name, pick=lambda s: True):
        return sum(selfs[i] for i in by.get(name, ()) if pick(spans[i]))

    def total(name, key):
        return sum(spans[i][key] for i in by.get(name, ()))

    exp, ext = "algebra.herm_exp", lambda s: s["ext"]
    yarotsky = set(by.get("expansion.yarotsky_term", ()))
    restricted = by.get("model.build_restricted", ())
    subsets = total("kernels.brute_force_connected_count", "subsets")
    return {
        "algebra.herm_exp.calls": calls(exp),
        "algebra.herm_exp.self_s": self_s(exp),
        "algebra.herm_exp.ext.calls": sum(1 for i in by.get(exp, ()) if spans[i]["ext"]),
        "algebra.herm_exp.ext.self_s": self_s(exp, ext),
        "algebra.herm_eig.calls": calls("algebra.herm_eig"),
        "algebra.herm_eig.self_s": self_s("algebra.herm_eig"),
        "algebra.lapack_eigh.calls": calls("algebra.lapack_eigh"),
        "algebra.lapack_eigh.self_s": self_s("algebra.lapack_eigh"),
        "algebra.lapack_eigh.n3": total("algebra.lapack_eigh", "n3"),
        "algebra.embed.calls": calls("algebra.embed"),
        "algebra.embed.self_s": self_s("algebra.embed"),
        "algebra.embed.bytes": total("algebra.embed", "bytes"),
        "model.build_restricted.calls": len(restricted),
        "model.build_restricted.self_s": self_s("model.build_restricted"),
        "model.build_restricted.distinct_ratio": (
            len({spans[i]["key"] for i in restricted}) / len(restricted) if restricted else 0.0
        ),
        "model.xxz_spec.self_s": self_s("model.xxz_spec"),
        "gibbs.gibbs_state.calls": calls("gibbs.gibbs_state"),
        "gibbs.gibbs_state.self_s": self_s("gibbs.gibbs_state"),
        "gibbs.covariance.calls": calls("gibbs.covariance"),
        "gibbs.covariance.self_s": self_s("gibbs.covariance"),
        "expansion.yarotsky_term.calls": len(yarotsky),
        "expansion.yarotsky_term.self_s": self_s("expansion.yarotsky_term"),
        "expansion.yarotsky_term.summands": sum(
            1 for i in by.get(exp, ()) if spans[i]["parent"] in yarotsky
        ),
        "expansion.partition_ratio.calls": calls("expansion.partition_ratio"),
        "expansion.partition_ratio.total_s": sum(
            spans[i]["end"] - spans[i]["start"] for i in by.get("expansion.partition_ratio", ())
        ),
        "lattice.enumerate_connected_sets.calls": calls("lattice.enumerate_connected_sets"),
        "lattice.enumerate_connected_sets.self_s": self_s("lattice.enumerate_connected_sets"),
        "lattice.enumerate_connected_sets.sets": total("lattice.enumerate_connected_sets", "sets"),
        "lattice.supercluster_decompose.calls": calls("lattice.supercluster_decompose"),
        "lattice.supercluster_decompose.self_s": self_s("lattice.supercluster_decompose"),
        "kernels.brute_force_connected_count.self_s": self_s("kernels.brute_force_connected_count"),
        "kernels.brute_force_connected_count.subsets": subsets,
        "kernels.brute_force_connected_count.useful_ratio": (
            total("kernels.brute_force_connected_count", "connected") / subsets if subsets else 0.0
        ),
        "cli.run_verify.self_s": self_s("cli.run_verify"),
        "cli.run_decay.self_s": self_s("cli.run_decay"),
        "cli.run_ising.self_s": self_s("cli.run_ising"),
        "cli.run_count.self_s": self_s("cli.run_count"),
    }
