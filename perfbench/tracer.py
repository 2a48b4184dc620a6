"""Layer trace for the benchmark: spans and exact counters around the
public functions of every spherestress module.

The wrappers live here, not in the program.  ``Tracer.install`` replaces
each public function of a layer module on that module, on every
``from ... import`` copy held by another spherestress module (module
globals and the values of module-level dicts such as
``verify.FAMILIES``), and patches ``SimplicialComplex.is_face`` (counted,
no span, it runs about a million times per large request) and the
``faces_by_dim`` cached property.  Spans (name, start, end, parent,
request id, per-call sizes) stay in memory until ``write``.

A span's self time is its duration minus the durations of its children.
The time spent computing size counters is recorded as ``trace.bookkeeping``
spans beside the measured call, so it is excluded from every layer's
self time and shows up only in the tracing overhead.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("complex_core", "enumeration", "graphs", "sequences", "stress",
          "linalg", "catalog", "s24", "verify", "cli")

# Per-element helpers called millions of times: counted, no span.
COUNT_ONLY = frozenset({"linalg.to_fraction", "stress.monomial_support"})

BOOKKEEPING = "trace.bookkeeping"
REQUEST = "request"

# verify.<family>.s mirrors the per-family timer of verify._timed.
FAMILY_FUNCTIONS = {
    "enumeration": "rows_enumeration",
    "stress": "rows_stress",
    "socle": "rows_socle",
    "alpha-bounds": "rows_alpha",
    "sequences": "rows_sequences",
    "s24": "rows_s24",
    "counterexample-level": "rows_counterexample_level",
    "counterexample-support": "rows_counterexample_support",
}

# (layer.function, [stats]); "calls" and "self_s" are computed from spans,
# the other stats from the per-call sizes recorded by the hooks below.
NAMED = [
    ("linalg.kernel_basis", ["calls", "self_s", "rows", "cols", "nnz", "rank",
                             "rank_per_row", "in_bits_max", "out_bits_max"]),
    ("linalg.canonicalize", ["calls", "self_s"]),
    ("linalg.rank_of", ["calls", "self_s", "vectors", "nnz"]),
    ("linalg.solve_combination", ["calls", "self_s"]),
    ("linalg.gf2_rank", ["calls", "self_s", "rows"]),
    ("complex_core.is_z2_homology_sphere", ["calls", "self_s"]),
    ("complex_core.z2_reduced_betti", ["calls", "self_s"]),
    ("stress.face_monomials", ["calls", "self_s", "monomials"]),
    ("stress.stress_space", ["calls", "distinct", "repeat_ratio", "self_s"]),
    ("stress.derivative_span_dim", ["calls", "self_s"]),
    ("stress.generic_embedding", ["calls", "self_s"]),
    ("stress.is_stress", ["calls", "self_s"]),
    ("complex_core.faces_by_dim", ["calls", "self_s", "faces"]),
    ("complex_core.missing_faces", ["calls", "self_s"]),
    ("complex_core.is_face", ["calls"]),
    ("complex_core.link", ["calls", "self_s"]),
    ("complex_core.contract_edge", ["calls", "self_s"]),
    ("complex_core.complex_from_json", ["self_s"]),
    ("enumeration.f_vector", ["calls", "self_s"]),
    ("enumeration.invariants", ["calls", "self_s"]),
    ("enumeration.mcmullen_residual", ["calls", "self_s"]),
    ("enumeration.gamma_mcmullen_residual", ["calls", "self_s"]),
    ("graphs.independence_number", ["calls", "self_s", "vertices_max"]),
    ("graphs.verify_alpha_inequalities", ["self_s"]),
    ("s24.admissible_contractions", ["calls", "self_s", "yield"]),
    ("s24.find_induced_gamma", ["calls", "self_s"]),
    ("s24.reduction_report", ["calls", "self_s"]),
    ("catalog.build", ["calls", "distinct", "self_s"]),
    ("catalog.verify_counterexample_level", ["self_s"]),
    ("catalog.verify_counterexample_support", ["self_s"]),
    ("cli.main", ["calls", "self_s", "output_bytes"]),
]

UNITS = {"self_s": "s", "repeat_ratio": "ratio",
         "rank_per_row": "ratio", "yield": "ratio", "in_bits_max": "bits",
         "out_bits_max": "bits", "output_bytes": "bytes"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for fn, stats in NAMED:
        out += [(f"{fn}.{s}", UNITS.get(s, "count")) for s in stats]
    out += [("sequences.calls", "count")]
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out += [(f"verify.{fam}.s", "s") for fam in FAMILY_FUNCTIONS]
    out += [("trace.overhead_s", "s"), ("trace.spans", "count")]
    return out


def _bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _vector_bits(vectors) -> int:
    return max((_bits(x) for v in vectors for x in v.values()), default=0)


# ---------------------------------------------------------------------------
# Size hooks: ``before`` takes the call's arguments and returns
# (args, kwargs, sizes); ``after`` adds to sizes from the result.
# ---------------------------------------------------------------------------

def _kernel_before(rows, columns):
    rows = list(rows)
    sizes = {"rows": len(rows), "cols": len(columns),
             "nnz": sum(len(r) for r in rows), "in_bits_max": _vector_bits(rows)}
    return (rows, columns), {}, sizes


def _kernel_after(sizes, result):
    sizes["rank"] = sizes["cols"] - len(result)
    sizes["out_bits_max"] = _vector_bits(result)


def _rank_before(vectors):
    vectors = list(vectors)
    return (vectors,), {}, {"vectors": len(vectors), "nnz": sum(len(v) for v in vectors)}


def _rank_after(sizes, result):
    sizes["rank"] = result


def _gf2_before(rows):
    rows = list(rows)
    return (rows,), {}, {"rows": len(rows)}


def _monomials_after(sizes, result):
    sizes["monomials"] = len(result)


def _faces_after(sizes, result):
    sizes["faces"] = sum(len(fs) for fs in result.values())


def _alpha_before(g, *args, **kwargs):
    return (g,) + args, kwargs, {"vertices_max": len(g.vertices)}


def _admissible_after(sizes, result):
    sizes["admissible"] = len(result)


class Tracer:
    """Installs the layer wrappers and collects spans while enabled."""

    def __init__(self, package):
        self.package = package
        self.enabled = False
        self.spans: list[list] = []   # [name, start, end, parent, request, sizes]
        self.stack: list[int] = []
        self.request_id = None
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self.originals: dict[str, object] = {}
        self.wrappers: set[int] = set()

    # -- installation -------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [(n, m) for n, m in list(sys.modules.items())
                if m is not None and (n == prefix or n.startswith(prefix + "."))]

    def install(self):
        pkg = self.package.__name__
        hooks = {
            "linalg.kernel_basis": (_kernel_before, _kernel_after),
            "linalg.rank_of": (_rank_before, _rank_after),
            "linalg.gf2_rank": (_gf2_before, None),
            "stress.face_monomials": (None, _monomials_after),
            "stress.stress_space": (self._stress_key, None),
            "graphs.independence_number": (_alpha_before, None),
            "s24.admissible_contractions": (None, _admissible_after),
            "catalog.build": (self._catalog_key, None),
            "cli.main": (self._output_mark, self._output_size),
        }
        replacement: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{pkg}.{layer}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = fn
                if name in COUNT_ONLY:
                    replacement[id(fn)] = self._counted(name, fn)
                else:
                    before, after = hooks.get(name, (None, None))
                    replacement[id(fn)] = self._spanned(name, fn, before, after)
        for _, mod in self._modules():
            for attr, val in list(vars(mod).items()):
                if id(val) in replacement:
                    setattr(mod, attr, replacement[id(val)])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if id(v) in replacement:
                            val[k] = replacement[id(v)]

        cls = sys.modules[f"{pkg}.complex_core"].SimplicialComplex
        self.originals["complex_core.is_face"] = cls.is_face
        cls.is_face = self._counted("complex_core.is_face", cls.is_face)
        prop = cls.__dict__["faces_by_dim"]
        self.originals["complex_core.faces_by_dim"] = prop.func
        wrapped = functools.cached_property(
            self._spanned("complex_core.faces_by_dim", prop.func, None, _faces_after))
        wrapped.__set_name__(cls, "faces_by_dim")
        cls.faces_by_dim = wrapped

    def leftovers(self) -> list[str]:
        """Places in spherestress modules that still reach an original
        function: module globals, values of module-level containers,
        class attributes, and the defaults and closures of the
        modules' own functions."""
        originals = {id(f): n for n, f in self.originals.items()}
        found = []

        def visit(where, val, depth=0):
            if isinstance(val, functools.cached_property):
                val = val.func
            if id(val) in originals:
                found.append(f"{where} -> {originals[id(val)]}")
                return
            if depth > 0:
                return
            if isinstance(val, dict):
                for k, v in val.items():
                    visit(f"{where}[{k!r}]", v, depth + 1)
            elif isinstance(val, (list, tuple, set, frozenset)):
                for i, v in enumerate(val):
                    visit(f"{where}[{i}]", v, depth + 1)
            elif isinstance(val, functools.partial):
                visit(f"{where}.func", val.func, depth + 1)
            if inspect.isfunction(val) and id(val) not in self.wrappers:
                for i, v in enumerate(val.__defaults__ or ()):
                    visit(f"{where}.__defaults__[{i}]", v, depth + 1)
                for i, cell in enumerate(val.__closure__ or ()):
                    try:
                        contents = cell.cell_contents
                    except ValueError:  # empty cell
                        continue
                    visit(f"{where}.__closure__[{i}]", contents, depth + 1)

        for modname, mod in self._modules():
            for attr, val in vars(mod).items():
                visit(f"{modname}.{attr}", val)
                if isinstance(val, type) and val.__module__ == modname:
                    for cattr, cval in vars(val).items():
                        visit(f"{modname}.{attr}.{cattr}", cval)
        return found

    # -- wrappers -----------------------------------------------------------

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)
        self.wrappers.add(id(wrapper))
        return wrapper

    def _bookkeeping(self, start):
        self.spans.append([BOOKKEEPING, start, time.perf_counter(),
                           self.stack[-1] if self.stack else -1, self.request_id, None])

    def _spanned(self, name, fn, before, after):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sizes = None
            if before is not None:
                t = clock()
                args, kwargs, sizes = before(*args, **kwargs)
                self._bookkeeping(t)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request_id, sizes]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                t = clock()
                if span[5] is None:
                    span[5] = {}
                after(span[5], result)
                self._bookkeeping(t)
            return result
        self.wrappers.add(id(wrapper))
        return wrapper

    def _stress_key(self, c, e, k, *args, **kwargs):
        key = (c.facets, e.kind, tuple(sorted(e.coords.items())), k)
        seen = self.keys["stress.stress_space"]
        sizes = {"repeat": int(key in seen)}
        seen.add(key)
        return (c, e, k) + args, kwargs, sizes

    def _catalog_key(self, name):
        self.keys["catalog.build"].add(name)
        return (name,), {}, None

    def _output_mark(self, *args, **kwargs):
        return args, kwargs, {"out_start": sys.stdout.tell()}

    def _output_size(self, sizes, result):
        sizes["output_bytes"] = sys.stdout.tell() - sizes.pop("out_start")

    # -- running ------------------------------------------------------------

    @contextmanager
    def request(self, rid):
        """Root span of one request; the spans it causes share its id."""
        self.request_id = rid
        self.enabled = True
        span = [REQUEST, 0.0, 0.0, -1, rid, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            self.enabled = False
            self.request_id = None

    # -- analysis -----------------------------------------------------------

    def nesting_errors(self) -> list[str]:
        errors = []
        if self.stack:
            errors.append(f"{len(self.stack)} spans left open")
        for i, (name, start, end, parent, rid, _) in enumerate(self.spans):
            if end < start:
                errors.append(f"span {i} {name} ends before it starts")
            if parent < 0:
                if name != REQUEST:
                    errors.append(f"span {i} {name} has no request parent")
                continue
            p = self.spans[parent]
            if parent >= i or not (p[1] <= start and end <= p[2]) or p[4] != rid:
                errors.append(f"span {i} {name} is not inside its parent {parent} {p[0]}")
        return errors

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def metrics(self, overhead_s: float) -> dict[str, float]:
        self_t = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        dur: dict[str, float] = defaultdict(float)
        sizes: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        layer_self: dict[str, float] = defaultdict(float)
        contract_attempts = 0
        for span, st in zip(self.spans, self_t):
            name, start, end, parent, _, attrs = span
            calls[name] += 1
            self_s[name] += st
            dur[name] += end - start
            layer_self[name.split(".")[0]] += st
            if name == "complex_core.contract_edge" and parent >= 0 \
                    and self.spans[parent][0] == "s24.admissible_contractions":
                contract_attempts += 1
            for k, v in (attrs or {}).items():
                agg = sizes[name]
                if k.endswith("_max"):
                    agg[k] = max(agg[k], v)
                else:
                    agg[k] += v
        calls.update(self.counts)

        out: dict[str, float] = {}
        for fn, stats in NAMED:
            agg = sizes[fn]
            for s in stats:
                if s == "calls":
                    v = calls[fn]
                elif s == "self_s":
                    v = self_s[fn]
                elif s == "distinct":
                    v = len(self.keys[fn])
                elif s == "repeat_ratio":
                    v = agg["repeat"] / calls[fn] if calls[fn] else 0.0
                elif s == "rank_per_row":
                    v = agg["rank"] / agg["rows"] if agg["rows"] else 0.0
                elif s == "yield":
                    v = agg["admissible"] / contract_attempts if contract_attempts else 0.0
                else:
                    v = agg[s]
                out[f"{fn}.{s}"] = v
        out["sequences.calls"] = sum(n for k, n in calls.items() if k.startswith("sequences."))
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        for fam, fn in FAMILY_FUNCTIONS.items():
            out[f"verify.{fam}.s"] = dur[f"verify.{fn}"]
        out["trace.overhead_s"] = overhead_s
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rid, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": rid,
                                     "sizes": attrs}) + "\n")
