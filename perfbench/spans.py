"""Spans recorded from outside the program, and the per-layer metrics built from them.

``instrument`` replaces the names that calling modules look up (module
attributes, class attributes, registry entries) with timing wrappers; no code
under ``src/`` changes.  Each span records its name, start, end, parent span
and operation id (one claim, or one solver instance) in parallel arrays kept
in memory, and ``write`` stores them when the repetition ends.  A layer's
self time is its spans' durations minus their direct children's.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import sys
from array import array
from time import perf_counter


class Tracer:
    """In-memory span store; ``wrap`` makes a function record one span per call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("q")  # per-name detail: variant code, graph order, residue flag
        self.current = -1
        self.op_id = -1
        self._undo: list = []

    def wrap(self, name: str, fn, tag=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, starts, ends, parents, ops, tags = self.name, self.start, self.end, self.parent, self.op, self.tag

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(self.current)
            ops.append(self.op_id)
            tags.append(0)
            ends.append(0.0)
            self.current = i
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                self.current = parents[i]
            if tag is not None:
                tags[i] = tag(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def restore(self) -> None:
        """Put every patched name back; spans recorded so far are kept."""
        while self._undo:
            self._undo.pop()()

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                         f"\t{self.parent[i]}\t{self.op[i]}\n")


def wrapper_cost_us(calls: int = 200_000) -> float:
    """Extra microseconds one wrapped call costs over a plain call."""
    def noop():
        return None

    elapsed = []
    for fn in (noop, Tracer().wrap("noop", noop)):
        t = perf_counter()
        for _ in range(calls):
            fn()
        elapsed.append(perf_counter() - t)
    return (elapsed[1] - elapsed[0]) / calls * 1e6


# -- the layers of semitotal ---------------------------------------------------

FAMILIES = ("path", "cycle", "complete", "star", "complete_bipartite", "wheel", "friendship",
            "book", "petersen", "pendant_path_tree", "random_split_graph", "disjoint_copies")
PRODUCTS = ("cartesian", "corona", "join", "rooted_product", "disjoint_union")
VARIANT_CODES = {"plain": 1, "total": 2, "within2": 3, "exact2": 4}


def _variant_code(args, kwargs, result) -> int:
    variant = args[1] if len(args) > 1 else kwargs["variant"]
    return VARIANT_CODES[variant.rule.value if variant.rule else variant.kind]


def _order(args, kwargs, result) -> int:
    return args[0].n


def _residue_looked_up(args, kwargs, result) -> int:
    # The stability search looks a residue up in its cache only when the
    # residue is nonempty and isolate-free; the others never reach a solve.
    residue = result[0]
    return int(residue.n > 0 and residue.is_isolate_free())


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer, wherever callers look them up."""
    import semitotal.claims as claims
    import semitotal.domination as domination
    import semitotal.families as families
    import semitotal.graph as graph
    import semitotal.products as products
    import semitotal.stability as stability

    Graph = graph.Graph
    tracer.patch(Graph, "__init__", tracer.wrap("graph.init", Graph.__init__))
    tracer.patch(Graph, "delete_vertices",
                 tracer.wrap("graph.delete_vertices", Graph.delete_vertices, _residue_looked_up))
    tracer.patch(claims.VerificationReport, "to_json",
                 tracer.wrap("claims.to_json", claims.VerificationReport.to_json))

    targets = [(getattr(families, f), "families", None) for f in FAMILIES]
    targets += [(getattr(products, f), "products", None) for f in PRODUCTS]
    targets += [
        (domination.domination_number, "domination.number", _variant_code),
        (domination.count_by_size, "domination.count", _order),
        (stability.stability_witness, "stability", None),
        (stability.semitotal_stability, "stability", None),
    ]
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "semitotal" or key.startswith("semitotal."))]
    for fn, name, tag in targets:
        wrapped = tracer.wrap(name, fn, tag)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    tracer.patch(module, attr, wrapped)

    tracer.patch(claims, "nx", _NetworkxProxy(claims.nx, tracer))
    registry = claims.REGISTRY
    original = dict(registry)
    for index, (cid, claim) in enumerate(original.items()):
        registry[cid] = dataclasses.replace(
            claim, builder=_claim_builder(tracer, index, tracer.wrap(f"claims.{cid}", claim.builder)))
    tracer._undo.append(lambda: registry.update(original))


def _claim_builder(tracer: Tracer, index: int, wrapped):
    # Spans of one claim share its registry index as operation id.
    def builder(*args, **kwargs):
        tracer.op_id = index
        return wrapped(*args, **kwargs)

    return builder


class _NetworkxProxy:
    """Stands in for networkx inside semitotal.claims and times the harness's
    two calls into it.  Tree generation is a generator, so it is drained
    inside the span."""

    def __init__(self, nx, tracer: Tracer) -> None:
        self._nx = nx
        self.is_isomorphic = tracer.wrap("claims.networkx", nx.is_isomorphic)
        self.nonisomorphic_trees = tracer.wrap(
            "claims.networkx", lambda *args, **kwargs: iter(list(nx.nonisomorphic_trees(*args, **kwargs))))

    def __getattr__(self, name):
        return getattr(self._nx, name)


def layer_metrics(tracer: Tracer, claim_ids) -> dict[str, float]:
    """Per-layer counts and seconds over every span the tracer holds."""
    names = [tracer.names[k] for k in tracer.name]
    parent, tag = tracer.parent, tracer.tag
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child_s = [0.0] * len(dur)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    longest: dict[str, float] = {}
    nested_s = {"families": 0.0, "products": 0.0}
    variant_s = dict.fromkeys(VARIANT_CODES.values(), 0.0)
    subsets = 0
    residues = looked_up = 0
    solve_s = 0.0
    solves: dict[int, int] = {}
    for i, name in enumerate(names):
        d = dur[i]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + d
        longest[name] = max(longest.get(name, 0.0), d)
        p = parent[i]
        if p >= 0:
            child_s[p] += d
        if name in nested_s:
            while p >= 0 and names[p] != name:
                p = parent[p]
            if p >= 0:  # inside another span of its own layer: already counted there
                nested_s[name] += d
            p = parent[i]
        if name == "domination.number":
            variant_s[tag[i]] += d
        elif name == "domination.count":
            subsets += 1 << tag[i]
        if p >= 0 and names[p] == "stability":
            if name == "graph.delete_vertices":
                residues += 1
                looked_up += tag[i]
            elif name == "domination.number":
                solve_s += d
                solves[p] = solves.get(p, 0) + 1
    # The first solve under each stability span is the base number, not a residue.
    solved = sum(k - 1 for k in solves.values())
    claim_spans = [i for i, name in enumerate(names) if name.startswith("claims.")
                   and name not in ("claims.networkx", "claims.to_json")]
    number_calls = calls.get("domination.number", 0)
    number_s = total.get("domination.number", 0.0)
    count_s = total.get("domination.count", 0.0)
    hits = looked_up - solved
    out = {
        "graph.delete_vertices.calls": calls.get("graph.delete_vertices", 0),
        "graph.delete_vertices.s": total.get("graph.delete_vertices", 0.0),
        "graph.init.calls": calls.get("graph.init", 0),
        "graph.init.s": total.get("graph.init", 0.0),
        "families.s": total.get("families", 0.0) - nested_s["families"],
        "products.s": total.get("products", 0.0) - nested_s["products"],
        "domination.number.calls": number_calls,
        "domination.number.s": number_s,
        "domination.number.us_per_call": number_s / number_calls * 1e6 if number_calls else 0.0,
        "domination.number.max_s": longest.get("domination.number", 0.0),
    }
    for variant, code in VARIANT_CODES.items():
        out[f"domination.number.{variant}.s"] = variant_s[code]
    out.update({
        "domination.count.calls": calls.get("domination.count", 0),
        "domination.count.s": count_s,
        "domination.count.subsets_per_s": subsets / count_s if count_s else 0.0,
        "stability.calls": calls.get("stability", 0),
        "stability.s": total.get("stability", 0.0),
        "stability.residues": residues,
        "stability.residues_solved": solved,
        "stability.solve.s": solve_s,
        "stability.cache_hits": hits,
        "stability.cache_hit_ratio": hits / looked_up if looked_up else 0.0,
    })
    for cid in claim_ids:
        out[f"claims.{cid}.s"] = total.get(f"claims.{cid}", 0.0)
    out["claims.self.s"] = sum((dur[i] - child_s[i] for i in claim_spans), 0.0)
    out["claims.networkx.s"] = total.get("claims.networkx", 0.0)
    out["claims.to_json.s"] = total.get("claims.to_json", 0.0)
    return out
