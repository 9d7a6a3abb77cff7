"""Per-layer tracing for the toricfans benchmark, loaded by traced runs only.

Tracer.install() wraps every public function of the program's layer modules
(intlin, cone, monoid, diagram, stackyfan, documents, cli), rebinding the
same object under every name any toricfans module holds it by, so calls
made through ``from .intlin import kernel_basis`` are caught too.
IntMatrix construction and products are wrapped as well, since the integer
kernel spends much of its time there.  Each call records a span (name,
start, end, parent span) and counts; the spans of one document are the
tree under its root span (parent -1); a span's self time is its
duration minus that of its child spans, which never overlap because
everything runs in one thread.  Spans stay in flat in-memory arrays until
write().  uninstall() puts every original object back.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("intlin", "cone", "monoid", "diagram", "stackyfan", "documents", "cli")

# layer metrics: counts of calls, inclusive seconds and self seconds by span name
CALLS = (
    "intlin.smith_normal_form", "intlin.kernel_basis", "intlin.invariant_factors",
    "intlin.lattice_coordinates", "intlin.complement_summand",
    "cone.cone_from_rays", "cone.faces", "cone.dual_cone", "cone.intersection",
    "cone.supporting_functional",
    "monoid.verify_face_morphism", "monoid.extend_functional", "monoid.gp",
    "diagram.validate_tight", "diagram.colimit", "diagram.is_join_closed",
    "stackyfan.validate_fan",
)
TOTAL_S = (
    "cone.cone_from_rays", "diagram.validate_tight", "diagram.colimit",
    "diagram.extend_diagram_functional", "diagram.verify_face_embeddings",
    "stackyfan.glue", "stackyfan.validate_fan", "documents.loads", "documents.dumps",
)
SELF_S = ("intlin.smith_normal_form", "intlin.lattice_coordinates")
RAISED = ("cone.cone_from_rays",)
HIT_RATIOS = ("cone.faces", "cone.span_sublattice")
DIAGRAM_KINDS = ("diagram", "charts", "functional-request")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.self_share", "ratio")]
    out += [(f"{n}.calls", "count") for n in CALLS]
    out += [(f"{n}.total_s", "s") for n in TOTAL_S]
    out += [(f"{n}.self_s", "s") for n in SELF_S]
    out += [(f"{n}.raised", "count") for n in RAISED]
    out += [(f"{n}.hit_ratio", "ratio") for n in HIT_RATIOS]
    out += [
        ("intlin.IntMatrix.created", "count"),
        ("intlin.max_entry_bits", "bits"),
        ("cone.facet_kernel_calls", "count"),
        ("diagram.validate_per_doc", "ratio"),
        ("documents.bytes_in", "chars"),
        ("documents.bytes_out", "chars"),
        ("cli.exit0", "count"),
        ("cli.exit1", "count"),
        ("cli.exit2", "count"),
        ("trace.docs", "count"),
        ("trace.spans", "count"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


def _public_functions(module) -> dict[str, object]:
    """Functions a module defines under public names (lru_cache wrappers
    included, classes excluded)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    }


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 unless a span of the same name is open around it
        self.raised: Counter = Counter()
        self.originals: dict[str, object] = {}
        self.bytes_in = 0
        self.bytes_out = 0
        self.max_entry_bits = 0
        self._stack = [-1]
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        ix = len(self.names)
        self.names.append(name)
        self._open.append(0)
        span_name, parent = self.span_name, self.parent
        start, end, outer = self.start, self.end, self.outer
        stack, open_, raised = self._stack, self._open, self.raised
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(start)
            span_name.append(ix)
            parent.append(stack[-1])
            outer.append(open_[ix] == 0)
            end.append(0.0)
            open_[ix] += 1
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            except BaseException:
                raised[name] += 1
                raise
            finally:
                end[sid] = clock()
                stack.pop()
                open_[ix] -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_in(self, args, result):
        self.bytes_in += len(args[0])

    def _count_out(self, args, result):
        self.bytes_out += len(result)

    def _entry_bits(self, args, result):
        m = args[0]
        bits = max((abs(x) for row in m.entries for x in row), default=0).bit_length()
        if bits > self.max_entry_bits:
            self.max_entry_bits = bits

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"toricfans.{layer}") for layer in LAYERS}
        wrappers = {}
        hooks = {"documents.loads": self._count_in, "documents.dumps": self._count_out}
        for layer, module in modules.items():
            for attr, fn in _public_functions(module).items():
                name = f"{layer}.{attr}"
                self.originals[name] = fn
                wrappers[id(fn)] = self._wrap(name, fn, hooks.get(name))
        holders = [m for n, m in sorted(sys.modules.items()) if n == "toricfans" or n.startswith("toricfans.")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if id(value) in wrappers:
                    self._restore.append((holder, attr, value))
                    setattr(holder, attr, wrappers[id(value)])
        matrix = modules["intlin"].IntMatrix
        for attr, after in (("__post_init__", self._entry_bits), ("__matmul__", None)):
            original = vars(matrix)[attr]
            self.originals[f"intlin.IntMatrix.{attr}"] = original
            self._restore.append((matrix, attr, original))
            setattr(matrix, attr, self._wrap(f"intlin.IntMatrix.{attr}", original, after))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)

    def restored(self) -> bool:
        """Every wrapped name holds its original object again."""
        return all(vars(holder)[attr] is original for holder, attr, original in self._restore)

    # -- results ------------------------------------------------------------

    def metrics(self, ops, codes) -> dict[str, float]:
        """Per-layer metrics of the traced loop over ops, given its exit codes."""
        n = len(self.start)
        start, end, parent, span_name = self.start, self.end, self.parent, self.span_name
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        self_by_name = [0.0] * len(self.names)
        total_by_name = [0.0] * len(self.names)
        calls = Counter()
        facet_kernels = 0
        kernel_ix = self.names.index("intlin.kernel_basis") if "intlin.kernel_basis" in self.names else -1
        for i in range(n):
            ix = span_name[i]
            duration = end[i] - start[i]
            self_by_name[ix] += duration - child[i]
            if self.outer[i]:
                total_by_name[ix] += duration
            calls[ix] += 1
            if ix == kernel_ix and parent[i] >= 0 and layer_of[span_name[parent[i]]] == "cone":
                facet_kernels += 1
        index = {name: ix for ix, name in enumerate(self.names)}

        def per(name, table):
            return table[index[name]] if name in index else 0

        layer_self = Counter()
        for ix, s in enumerate(self_by_name):
            layer_self[layer_of[ix]] += s
        all_self = sum(layer_self.values()) or 1.0
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
            out[f"{layer}.self_share"] = layer_self[layer] / all_self
        for name in CALLS:
            out[f"{name}.calls"] = calls[index[name]] if name in index else 0
        for name in TOTAL_S:
            out[f"{name}.total_s"] = per(name, total_by_name)
        for name in SELF_S:
            out[f"{name}.self_s"] = per(name, self_by_name)
        for name in RAISED:
            out[f"{name}.raised"] = self.raised[name]
        for name in HIT_RATIOS:
            info = getattr(self.originals.get(name), "cache_info", None)
            ratio = 0.0
            if info is not None:
                hits, misses = info().hits, info().misses
                ratio = hits / (hits + misses) if hits + misses else 0.0
            out[f"{name}.hit_ratio"] = ratio
        diagram_docs = sum(
            1 for op in ops if op["expect"] != 2 and json.loads(op["text"])["kind"] in DIAGRAM_KINDS
        )
        exits = Counter(codes)
        out.update({
            "intlin.IntMatrix.created": calls[index["intlin.IntMatrix.__post_init__"]],
            "intlin.max_entry_bits": self.max_entry_bits,
            "cone.facet_kernel_calls": facet_kernels,
            "diagram.validate_per_doc": out["diagram.validate_tight.calls"] / diagram_docs if diagram_docs else 0.0,
            "documents.bytes_in": self.bytes_in,
            "documents.bytes_out": self.bytes_out,
            "cli.exit0": exits[0],
            "cli.exit1": exits[1],
            "cli.exit2": exits[2],
            "trace.docs": len(codes),
            "trace.spans": n,
        })
        return out

    def write(self, path) -> None:
        """Spans as one JSON header line and then the raw arrays."""
        arrays = ("span_name", "parent", "start", "end", "outer")
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [[a, getattr(self, a).typecode] for a in arrays],
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode("utf-8") + b"\n")
            for a in arrays:
                getattr(self, a).tofile(f)
