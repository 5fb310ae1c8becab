"""Runtime tracing of mathieulab's layers, installed from the benchmark.

The tracer replaces, for the duration of a traced run, every public function
of each layer module at every module binding that refers to it (radlab
imports ``euclid_divmod`` by name, so wrapping only the corealg attribute
would miss those calls), plus the arithmetic methods of ``Poly`` and
``RingElement`` and the working methods of the lab classes.

Each wrapped call updates exclusive (self) time and call counts for its
function.  A call whose layer differs from its caller's layer, or that comes
straight from the benchmark, is a layer boundary: it records a span
(name, start, end, parent span, job id) in flat arrays kept in memory until
the run ends.  A layer's self time is the duration of its spans minus the
part covered by their child spans.
"""

from __future__ import annotations

import inspect
import statistics
from array import array
from time import perf_counter

LAYERS = ("corealg", "linalg", "opimage", "radlab", "certlab", "momlab", "ufdlab", "cli")

# class -> methods wrapped besides the modules' public functions
METHODS = {
    ("corealg", "Poly"): ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "scale",
                          "derivative", "evaluate", "scale_argument", "monic"),
    ("corealg", "RingElement"): ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                                 "scale", "__pow__", "derivative"),
    ("radlab", "CofiniteSubspace"): ("__init__", "contains", "contains_vec", "pow_mod", "mod",
                                     "reduce_vec", "residue_vec", "is_ideal"),
    ("momlab", "MomentFunctional"): ("__init__", "moment"),
    ("ufdlab", "UfdContext"): ("apply",),
}

# per-layer metric -> the functions it aggregates, as (module, qualified name)
FUNCTION_METRICS = {
    "corealg.mul": [("corealg", "Poly.__mul__")],
    "corealg.divmod": [("corealg", "euclid_divmod")],
    "corealg.ring_mul": [("corealg", "RingElement.__mul__")],
    "corealg.gcd": [("corealg", "poly_gcd"), ("corealg", "poly_xgcd"), ("corealg", "ring_gcd")],
    "corealg.parse": [("corealg", "parse_poly"), ("corealg", "parse_rational")],
    "corealg.format": [("corealg", "format_poly")],
    "linalg.rref": [("linalg", "rref")],
    "linalg.solve": [("linalg", "solve_linear")],
    "linalg.span_test": [("linalg", "in_row_span")],
    "linalg.nullspace": [("linalg", "nullspace")],
    "radlab.space_build": [("radlab", "CofiniteSubspace.__init__")],
    "radlab.contains": [("radlab", "CofiniteSubspace.contains")],
    "radlab.radical_member": [("radlab", "radical_member_cofinite")],
    "radlab.pow_mod": [("radlab", "CofiniteSubspace.pow_mod")],
    "radlab.largest_ideal": [("radlab", "largest_ideal")],
    "radlab.mathieu": [("radlab", "mathieu_check")],
    "momlab.moment": [("momlab", "MomentFunctional.moment")],
    "momlab.inner_product": [("momlab", "inner_product")],
    "momlab.orthopoly": [("momlab", "orthopoly")],
    "ufdlab.surjectivity": [("ufdlab", "surjectivity_check")],
    "ufdlab.member": [("ufdlab", "member_ufd")],
    "ufdlab.gcd_lift": [("ufdlab", "gcd_lift")],
    "opimage.reduce": [("opimage", "reduce")],
    "opimage.member": [("opimage", "member")],
    "opimage.apply": [("opimage", "apply_operator")],
    "opimage.lzero": [("opimage", "lzero")],
    "certlab.certify": [("certlab", "certificate_nonmembership")],
    "certlab.verify": [("certlab", "verify_certificate")],
    "certlab.is_prime": [("certlab", "is_prime")],
    "certlab.vp": [("certlab", "vp")],
    "cli.main": [("cli", "main")],
}
# metrics reported without a call count
SELF_ONLY = {"radlab.largest_ideal", "radlab.mathieu", "momlab.orthopoly", "ufdlab.surjectivity"}


def _coeff_ops(args, result):
    return len(args[0].coeffs) * len(args[1].coeffs)


def _cells(args, result):
    m = args[0]
    return len(m) * len(m[0]) if len(m) else 0


def _solve_hit(args, result):
    return int(result is not None)


def _candidates(args, result):
    return result.budget_used.get("candidates_tried", 0)


def _refuted(args, result):
    return int(result.status == "NOT_MATHIEU")


def _one(args, result):
    return 1


# (module, qualified name) -> [(counter name, hook(args, result) -> number)]
HOOKS = {
    ("corealg", "Poly.__mul__"): [("corealg.mul.coeff_ops", _coeff_ops)],
    ("corealg", "euclid_divmod"): [("corealg.divmod.coeff_ops", _coeff_ops)],
    ("linalg", "rref"): [("linalg.rref.cells", _cells)],
    ("linalg", "solve_linear"): [("linalg.solve.hits", _solve_hit)],
    ("radlab", "mathieu_check"): [("radlab.candidates_tried", _candidates),
                                  ("radlab.refuted", _refuted)],
    ("momlab", "MomentFunctional.__init__"): [("momlab.functionals", _one)],
    ("certlab", "certificate_nonmembership"): [("certlab.certificates", _one)],
}


def per_layer_metric_specs():
    """(name, unit, better) for every per-layer metric, in report order."""
    specs = []
    for metric in FUNCTION_METRICS:
        if metric not in SELF_ONLY:
            specs.append((f"{metric}.calls", "count", "lower"))
        specs.append((f"{metric}.self_s", "s", "lower"))
    specs += [
        ("corealg.mul.coeff_ops", "count", "lower"),
        ("corealg.divmod.coeff_ops", "count", "lower"),
        ("linalg.rref.cells", "count", "lower"),
        ("linalg.solve.hit_ratio", "ratio", "higher"),
        ("radlab.candidates_tried", "count", "lower"),
        ("radlab.refuter_yield", "ratio", "higher"),
        ("momlab.functionals", "count", "lower"),
        ("certlab.prime_yield", "ratio", "higher"),
        ("cli.bytes_out", "bytes", "lower"),
    ]
    for layer in LAYERS:
        specs.append((f"{layer}.self_s", "s", "lower"))
        specs.append((f"{layer}.share", "ratio", "lower"))
    specs.append(("trace_overhead_ratio", "ratio", "lower"))
    return specs


class Tracer:
    """Wrappers, counters and span storage for one traced run."""

    def __init__(self, package, job_id):
        self.package = package
        self.job_id = job_id  # () -> id of the job running now
        self.names: list[tuple[str, str]] = []  # fn id -> (module, qualified name)
        self.layer_of: list[int] = []  # fn id -> layer index
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, float] = {}
        self.stack: list[list] = []
        # spans: fn id, start, end, parent span (-1 for a root), job id
        self.s_fn = array("l")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("l")
        self.s_job = array("l")
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self):
        modules = {name: getattr(self.package, name) for name in LAYERS}
        originals = {}  # id(original function) -> wrapper
        for layer_idx, layer in enumerate(LAYERS):
            mod = modules[layer]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    originals[id(obj)] = self._wrap(obj, layer, layer_idx, name)
            for (owner_mod, cls_name), methods in METHODS.items():
                if owner_mod != layer:
                    continue
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    wrapper = originals.get(id(fn))
                    if wrapper is None:
                        wrapper = self._wrap(fn, layer, layer_idx, f"{cls_name}.{meth}")
                        originals[id(fn)] = wrapper
                    self._set(cls, meth, wrapper)
        # rebind every module-level reference (including re-exports and
        # ``from .corealg import ...`` copies) to the wrapper
        for mod in list(modules.values()) + [self.package]:
            for name, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._set(mod, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _set(self, owner, name, value):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, fn, layer, layer_idx, qualname):
        fid = len(self.names)
        self.names.append((layer, qualname))
        self.layer_of.append(layer_idx)
        self.calls.append(0)
        self.self_s.append(0.0)
        hooks = HOOKS.get((layer, qualname), ())
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            start = perf_counter()
            if parent is None or parent[4] != layer_idx:
                span = len(tracer.s_fn)
                tracer.s_fn.append(fid)
                tracer.s_start.append(start)
                tracer.s_end.append(start)
                tracer.s_parent.append(parent[3] if parent is not None else -1)
                tracer.s_job.append(tracer.job_id())
                own_span = True
            else:
                span = parent[3]
                own_span = False
            frame = [fid, start, 0.0, span, layer_idx]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                tracer.self_s[fid] += elapsed - frame[2]
                tracer.calls[fid] += 1
                if parent is not None:
                    parent[2] += elapsed
                if own_span:
                    tracer.s_end[span] = end
            for counter, hook in hooks:
                tracer.counters[counter] = tracer.counters.get(counter, 0) + hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-pass accounting -------------------------------------------------

    def snapshot(self):
        return (list(self.calls), list(self.self_s), dict(self.counters), len(self.s_fn))

    def layer_self_times(self, first_span, last_span):
        """Self time per layer from the spans in [first_span, last_span)."""
        covered = [0.0] * (last_span - first_span)
        for i in range(first_span, last_span):
            p = self.s_parent[i]
            if p >= first_span:
                covered[p - first_span] += self.s_end[i] - self.s_start[i]
        out = [0.0] * len(LAYERS)
        for i in range(first_span, last_span):
            dur = self.s_end[i] - self.s_start[i]
            out[self.layer_of[self.s_fn[i]]] += dur - covered[i - first_span]
        return out

    def pass_metrics(self, before, after, pass_wall, bytes_out):
        """Per-layer metrics of one traced pass, from two snapshots."""
        calls0, self0, cnt0, span0 = before
        calls1, self1, cnt1, span1 = after
        index = {name: i for i, name in enumerate(self.names)}

        def count(key):
            return cnt1.get(key, 0) - cnt0.get(key, 0)

        out = {}
        for metric, funcs in FUNCTION_METRICS.items():
            ids = [index[f] for f in funcs if f in index]
            if metric not in SELF_ONLY:
                out[f"{metric}.calls"] = sum(calls1[i] - calls0[i] for i in ids)
            out[f"{metric}.self_s"] = sum(self1[i] - self0[i] for i in ids)
        out["corealg.mul.coeff_ops"] = count("corealg.mul.coeff_ops")
        out["corealg.divmod.coeff_ops"] = count("corealg.divmod.coeff_ops")
        out["linalg.rref.cells"] = count("linalg.rref.cells")
        solves = out["linalg.solve.calls"]
        out["linalg.solve.hit_ratio"] = count("linalg.solve.hits") / solves if solves else 0.0
        tried = count("radlab.candidates_tried")
        out["radlab.candidates_tried"] = tried
        out["radlab.refuter_yield"] = count("radlab.refuted") / tried if tried else 0.0
        out["momlab.functionals"] = count("momlab.functionals")
        primes = out["certlab.is_prime.calls"]
        out["certlab.prime_yield"] = count("certlab.certificates") / primes if primes else 0.0
        out["cli.bytes_out"] = bytes_out
        for layer, busy in zip(LAYERS, self.layer_self_times(span0, span1)):
            out[f"{layer}.self_s"] = busy
            out[f"{layer}.share"] = busy / pass_wall if pass_wall else 0.0
        return out


def combine_passes(per_pass):
    """Counts from the first traced pass (they repeat exactly); times as medians."""
    out = {}
    for key, value in per_pass[0].items():
        if key.endswith("self_s") or key.endswith(".share"):
            out[key] = statistics.median(p[key] for p in per_pass)
        else:
            out[key] = value
    return out
