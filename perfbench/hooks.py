"""Per-layer spans and counters, installed around germcalc from outside.

The tracer wraps the public functions of each layer module and rebinds
every `germcalc.*` module attribute that holds the same function object,
so calls through a name bound by `from .x import f` are seen as well as
calls through the module.  `RowSpan` is patched on the class, which
reaches every module that imported it.  Nothing under `src/` is edited.

A span opens when a call enters a layer from another layer (or from the
benchmark); calls inside the same layer run unwrapped.  A layer's busy
time is the time inside its outermost spans; its self time is span time
minus the time of child spans of other layers.  Polynomial arithmetic
(`Poly` methods) is not wrapped and counts toward its caller.  Spans are
timed with the clock the caller passes.

A hook target that no longer exists is recorded in `absent`; the metrics
that depend on it are then reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict

PACKAGE = "germcalc"
LAYER_FUNCTIONS = {
    "cli": ("run", "parse_multigerm", "parse_poly", "format_multigerm",
            "render_poly", "canonical_variable_order",
            "canonical_text_modulo_branches", "canonical_match_key"),
    "atlas": ("instantiate", "expected_codim", "verify", "verify_all",
              "lookup", "export_document"),
    "gates": ("simplicity_report", "gate_nishimura", "gate_tau_pairing",
              "gate_branch_count", "gate_primitive_plus_morse",
              "gate_augconc", "gate_aug_cusp"),
    "ops": ("normalized_unfolding", "augment", "monic_concat",
            "binary_concat", "generalised_concat", "sim_aug_concat"),
    "germ": ("multiplicity", "recognize_type", "germ_corank", "corank",
             "stratum_dim"),
    "tangent": ("ae_codim", "a_codim", "wilson_check", "is_stable"),
    "ring": ("quotient_dim", "milnor", "tjurina", "substitute",
             "is_quasi_homogeneous"),
    "_echelon": ("matrix_rank",),
}
TANGENT_CACHED = ("ae_codim", "a_codim")
CANON_CACHED = ("canonical_match_key", "canonical_text_modulo_branches")
PARSE_FUNCTIONS = ("parse_multigerm", "parse_poly")
CANON_FUNCTIONS = ("format_multigerm",) + CANON_CACHED

# metric name -> hook targets it needs
NEEDS = {
    "echelon.busy_s": ("_echelon.RowSpan",),
    "echelon.pivot_nnz": ("_echelon.RowSpan", "_echelon.RowSpan.reduce"),
    "echelon.max_coef_bits": ("_echelon.RowSpan", "_echelon.RowSpan.reduce"),
    "echelon.eliminations": ("_echelon.RowSpan",),
    "echelon.rows": ("_echelon.RowSpan",),
    "echelon.nnz_in": ("_echelon.RowSpan",),
    "echelon.useful_ratio": ("_echelon.RowSpan",),
    "tangent.eliminations_per_call": ("_echelon.RowSpan", "tangent.cache"),
    "tangent.calls": ("tangent.ae_codim", "tangent.a_codim"),
    "tangent.cache_hit_ratio": ("tangent.cache",),
    "tangent.busy_s": ("tangent",),
    "tangent.self_s": ("tangent",),
    "ring.calls": ("ring",),
    "ring.busy_s": ("ring",),
    "germ.busy_s": ("germ",),
    "ops.busy_s": ("ops",),
    "ops.self_s": ("ops",),
    "gates.busy_s": ("gates",),
    "gates.self_s": ("gates",),
    "atlas.busy_s": ("atlas",),
    "atlas.self_s": ("atlas",),
    "atlas.instantiations": ("atlas.instantiate",),
    "cli.parse_s": ("cli.parse_multigerm",),
    "cli.canon_s": ("cli.canonical_match_key",),
    "cli.canon_hit_ratio": ("cli.cache",),
}


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def cached_functions() -> dict[str, object]:
    """Every `functools` cache reachable from a module of the package."""
    found = {}
    for module in _package_modules():
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info") and getattr(
                    value, "__module__", "").startswith(PACKAGE):
                found.setdefault(f"{value.__module__}.{attr}", value)
    return found


def _ratio(num: float, den: float) -> tuple[float, float]:
    return (num / den if den else 0.0), den


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self, clock):
        self.clock = clock
        self.stack: list[list] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.timers: dict[str, float] = defaultdict(float)
        self.max_coef_bits = 0
        self.absent: set[str] = set()
        self.caches: dict[str, object] = {}

    # -- installation -----------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def _span(self, layer: str, fn, count: str | None = None):
        stack, depth, counts = self.stack, self.depth, self.counts
        busy, self_time, clock = self.busy, self.self_time, self.clock

        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            depth[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                depth[layer] -= 1
                if not depth[layer]:
                    busy[layer] += elapsed
                self_time[layer] += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def _timer(self, key: str, fn):
        timers, clock, active = self.timers, self.clock, [False]

        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                timers[key] += clock() - start
                active[0] = False

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for layer, names in LAYER_FUNCTIONS.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent.add(layer)
                continue
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    self.absent.add(f"{layer}.{name}")
                    continue
                if layer == "tangent" and name in TANGENT_CACHED:
                    self.caches[f"tangent.{name}"] = original
                if layer == "cli" and name in CANON_CACHED:
                    self.caches[f"cli.{name}"] = original
                fn = original
                if layer == "cli" and name in PARSE_FUNCTIONS:
                    fn = self._timer("cli.parse", fn)
                if layer == "cli" and name in CANON_FUNCTIONS:
                    fn = self._timer("cli.canon", fn)
                count = None
                if layer == "tangent" and name in TANGENT_CACHED:
                    count = "tangent.calls"
                elif layer == "ring":
                    count = "ring.calls"
                elif layer == "atlas" and name == "instantiate":
                    count = "atlas.instantiations"
                self._rebind(original, self._span(layer, fn, count))
        for group in ("tangent", "cli"):
            if not any(k.startswith(group + ".") and hasattr(v, "cache_info")
                       for k, v in self.caches.items()):
                self.absent.add(f"{group}.cache")
        self._install_rowspan()

    def _install_rowspan(self) -> None:
        try:
            echelon = importlib.import_module(f"{PACKAGE}._echelon")
        except ImportError:
            self.absent.add("_echelon.RowSpan")
            return
        cls = getattr(echelon, "RowSpan", None)
        if cls is None or not hasattr(cls, "insert"):
            self.absent.add("_echelon.RowSpan")
            return
        counts, depth = self.counts, self.depth
        orig_init, orig_insert = cls.__init__, cls.insert
        orig_reduce = getattr(cls, "reduce", None)
        last = [None]

        def init(span, *args, **kwargs):
            counts["echelon.eliminations"] += 1
            if depth["tangent"]:
                counts["tangent.eliminations"] += 1
            orig_init(span, *args, **kwargs)

        def reduce(span, row):
            residual = orig_reduce(span, row)
            last[0] = residual
            return residual

        def insert(span, row):
            counts["echelon.rows"] += 1
            counts["echelon.nnz_in"] += len(row)
            last[0] = None
            grew = orig_insert(span, row)
            if grew:
                counts["echelon.useful"] += 1
                residual = last[0]
                if residual is None:
                    self.absent.add("_echelon.RowSpan.reduce")
                else:
                    counts["echelon.pivot_nnz"] += len(residual)
                    bits = max(abs(v) for v in residual.values()).bit_length()
                    if bits > self.max_coef_bits:
                        self.max_coef_bits = bits
            return grew

        cls.__init__ = init
        cls.insert = self._span("_echelon", insert)
        if orig_reduce is None:
            self.absent.add("_echelon.RowSpan.reduce")
        else:
            cls.reduce = self._span("_echelon", reduce)
        if hasattr(cls, "contains"):
            cls.contains = self._span("_echelon", cls.contains)

    # -- results -------------------------------------------------------------------

    def _cache_totals(self, prefix: str) -> tuple[int, int]:
        hits = misses = 0
        for key, fn in self.caches.items():
            if key.startswith(prefix) and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                hits += info.hits
                misses += info.misses
        return hits, misses

    def metrics(self) -> dict:
        """Per-layer values (None where a hook target is absent), the bases
        of the ratios, and the call-accounting check."""
        c = self.counts
        t_hits, t_misses = self._cache_totals("tangent.")
        k_hits, k_misses = self._cache_totals("cli.")
        useful, rows_base = _ratio(c["echelon.useful"], c["echelon.rows"])
        hit_ratio, hit_base = _ratio(t_hits, t_hits + t_misses)
        per_call, per_call_base = _ratio(c["tangent.eliminations"], t_misses)
        canon_ratio, canon_base = _ratio(k_hits, k_hits + k_misses)
        values = {
            "echelon.busy_s": self.busy["_echelon"],
            "echelon.pivot_nnz": c["echelon.pivot_nnz"],
            "echelon.max_coef_bits": self.max_coef_bits,
            "echelon.eliminations": c["echelon.eliminations"],
            "echelon.rows": c["echelon.rows"],
            "echelon.nnz_in": c["echelon.nnz_in"],
            "echelon.useful_ratio": useful,
            "tangent.eliminations_per_call": per_call,
            "tangent.calls": c["tangent.calls"],
            "tangent.cache_hit_ratio": hit_ratio,
            "tangent.busy_s": self.busy["tangent"],
            "tangent.self_s": self.self_time["tangent"],
            "ring.calls": c["ring.calls"],
            "ring.busy_s": self.busy["ring"],
            "germ.busy_s": self.busy["germ"],
            "ops.busy_s": self.busy["ops"],
            "ops.self_s": self.self_time["ops"],
            "gates.busy_s": self.busy["gates"],
            "gates.self_s": self.self_time["gates"],
            "atlas.busy_s": self.busy["atlas"],
            "atlas.self_s": self.self_time["atlas"],
            "atlas.instantiations": c["atlas.instantiations"],
            "cli.parse_s": self.timers["cli.parse"],
            "cli.canon_s": self.timers["cli.canon"],
            "cli.canon_hit_ratio": canon_ratio,
        }
        for name, needs in NEEDS.items():
            if any(n in self.absent for n in needs):
                values[name] = None
        return {
            "values": values,
            "bases": {
                "echelon.useful_ratio": rows_base,
                "tangent.cache_hit_ratio": hit_base,
                "tangent.eliminations_per_call": per_call_base,
                "cli.canon_hit_ratio": canon_base,
            },
            "tangent_accounting": {"calls": c["tangent.calls"],
                                   "hits": t_hits, "misses": t_misses},
            "absent": sorted(self.absent),
        }
