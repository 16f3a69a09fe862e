"""
Layer tracing for the benchmark, installed from outside the package.

Every public function of each ``qyoung`` module, and the public methods plus
the arithmetic dunders of the classes it defines, is replaced by a wrapper
for the duration of one traced item and restored afterwards.  Nothing inside
``src/qyoung`` changes.

Two kinds of wrapper:

- ``laurent`` and ``permutations`` make hundreds of thousands of calls per
  diagram, so they get aggregated counters only.  A call nested in the same
  layer (``__add__`` building its result through ``__init__``) is counted
  but not timed; only a call that enters the layer from another is timed.
- ``hecke``, ``partitions``, ``symmetrizers``, ``central`` and ``cli`` record
  one span per call: key, start, end, parent span and item id.  Spans stay
  in memory and are written out at the end of the run.

Self time is kept per key by subtraction: a timed call adds its duration to
its own key and removes it from the key it was called from.  A layer's self
time is the sum over its keys.  Generator functions (``Partition.cells``,
``all_partitions``) return before their body runs, so the body's time is
charged to whoever consumes the generator; properties are not wrapped.
"""

from __future__ import annotations

import importlib
import json
import types
from time import perf_counter

LAYERS = ("laurent", "permutations", "hecke", "partitions", "symmetrizers", "central", "cli")
AGGREGATED = ("laurent", "permutations")
HARNESS = "bench"

# Dunders wrapped besides the public names: construction, ring operations
# and equality, which is how the kernel's work reaches these classes.
DUNDERS = frozenset(
    ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
     "__rmul__", "__neg__", "__pow__", "__eq__")
)

MARK = "_perfbench_layer"


def _package_modules() -> list[types.ModuleType]:
    return [importlib.import_module(f"qyoung.{layer}") for layer in LAYERS]


def targets() -> list[tuple[object, str, object, str, str]]:
    """
    Every (owner, attribute, current value, layer, key) the tracer wraps.
    ``owner`` is a module or class; ``key`` names the underlying function,
    so ``__radd__ = __add__`` share one key.
    """
    out = []
    for mod in _package_modules():
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, val in list(vars(mod).items()):
            if name.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                continue
            if isinstance(val, type):
                if issubclass(val, BaseException):
                    continue
                for attr, member in list(vars(val).items()):
                    if attr.startswith("_") and attr not in DUNDERS:
                        continue
                    func = member.__func__ if isinstance(member, staticmethod) else member
                    if isinstance(func, types.FunctionType):
                        out.append((val, attr, member, layer, f"{layer}.{func.__qualname__}"))
            elif callable(val):
                out.append((mod, name, val, layer, f"{layer}.{getattr(val, '__qualname__', name)}"))
    return out


def assert_pristine() -> None:
    """Raise unless every traced name is bound to the package's own object."""
    for owner, attr, val, _layer, _key in targets():
        func = val.__func__ if isinstance(val, staticmethod) else val
        if hasattr(func, MARK):
            raise RuntimeError(f"{owner.__name__}.{attr} is still wrapped by the tracer")


class Tracer:
    """Counters, self times and spans for one traced run."""

    def __init__(self) -> None:
        self.layer = HARNESS
        self.key = HARNESS
        self.span = -1
        self.item = -1
        self.calls: dict[str, list[int]] = {}
        self.self_s: dict[str, float] = {HARNESS: 0.0}
        self.spans: list[tuple] = []
        self.key_ids: dict[str, int] = {}
        self.gen_apps = 0
        self.terms_touched = 0
        self.peak_support = 0
        self.max_width = 0
        self.max_abs_coeff = 0
        self._patches: list[tuple[object, str, object, object]] = []
        for owner, attr, val, layer, key in targets():
            self.calls.setdefault(key, [0])
            self.self_s.setdefault(key, 0.0)
            self._patches.append((owner, attr, val, self._wrap(val, layer, key)))
        # A function re-exported by name (``extract_scalar`` in ``central``,
        # ``e_lambda`` in ``central``) must be patched at every binding.
        wrappers = {id(val): wrapped for _, _, val, wrapped in self._patches}
        patched = {(id(owner), attr) for owner, attr, _, _ in self._patches}
        for mod in [importlib.import_module("qyoung"), *_package_modules()]:
            for name, val in list(vars(mod).items()):
                if id(val) in wrappers and (id(mod), name) not in patched:
                    self._patches.append((mod, name, val, wrappers[id(val)]))

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for owner, attr, _orig, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig, _wrapped in self._patches:
            setattr(owner, attr, orig)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, val: object, layer: str, key: str) -> object:
        if isinstance(val, staticmethod):
            return staticmethod(self._wrap(val.__func__, layer, key))
        if layer in AGGREGATED:
            wrapper = self._counted(val, layer, key)
        else:
            wrapper = self._spanned(val, layer, key)
        setattr(wrapper, MARK, layer)
        return wrapper

    def _counted(self, func, layer: str, key: str):
        tr = self
        cell = self.calls[key]
        self_s = self.self_s
        is_init = key == "laurent.LaurentPoly.__init__"

        def wrapper(*args, **kwargs):
            cell[0] += 1
            if tr.layer is layer:
                return func(*args, **kwargs)
            prev_layer, prev_key = tr.layer, tr.key
            tr.layer, tr.key = layer, key
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tr.layer, tr.key = prev_layer, prev_key
                self_s[key] += dt
                self_s[prev_key] -= dt
            # Coefficient sizes of every polynomial handed to another layer.
            coeffs = getattr(args[0] if is_init else result, "coeffs", None)
            if type(coeffs) is tuple and coeffs:
                if len(coeffs) > tr.max_width:
                    tr.max_width = len(coeffs)
                big = max(max(coeffs), -min(coeffs))
                if big > tr.max_abs_coeff:
                    tr.max_abs_coeff = big
            return result

        return wrapper

    def _spanned(self, func, layer: str, key: str):
        tr = self
        cell = self.calls[key]
        self_s = self.self_s
        spans = self.spans
        key_id = self.key_ids.setdefault(key, len(self.key_ids))
        is_gen = key in ("hecke.HeckeElement.mul_generator", "hecke.HeckeElement.lmul_generator")
        observe = layer == "hecke"

        def wrapper(*args, **kwargs):
            cell[0] += 1
            if is_gen:
                tr.gen_apps += 1
                tr.terms_touched += len(args[0].coeffs)
            prev_layer, prev_key, parent = tr.layer, tr.key, tr.span
            idx = len(spans)
            spans.append(None)
            tr.layer, tr.key, tr.span = layer, key, idx
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr.layer, tr.key, tr.span = prev_layer, prev_key, parent
                spans[idx] = (key_id, t0, t1, parent, tr.item)
                self_s[key] += t1 - t0
                self_s[prev_key] -= t1 - t0
            if observe:
                for elem in (args[0] if args else None, result):
                    support = getattr(elem, "coeffs", None)
                    if type(support) is dict and len(support) > tr.peak_support:
                        tr.peak_support = len(support)
            return result

        return wrapper

    # -- reporting ------------------------------------------------------------

    # A function a later change deletes (``lmul_generator``, say) reads as
    # zero calls and zero seconds instead of breaking the report.

    def count(self, key: str) -> int:
        return self.calls.get(key, [0])[0]

    def seconds(self, key: str) -> float:
        return self.self_s.get(key, 0.0)

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def span_seconds(self, key: str, parent_key: str | None = None) -> float:
        """Summed duration of the spans of ``key`` (called from ``parent_key``)."""
        names = {i: k for k, i in self.key_ids.items()}
        want = self.key_ids.get(key)
        total = 0.0
        for key_id, t0, t1, parent, _item in self.spans:
            if key_id != want:
                continue
            if parent_key is not None and (parent < 0 or names[self.spans[parent][0]] != parent_key):
                continue
            total += t1 - t0
        return total

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, before ``trace.overhead_frac``."""
        gen = ("hecke.HeckeElement.mul_generator", "hecke.HeckeElement.lmul_generator")
        mul = "hecke.HeckeElement.__mul__"
        calls = lambda layer: sum(c[0] for k, c in self.calls.items() if k.startswith(layer + "."))
        return {
            "laurent.add_calls": self.count("laurent.LaurentPoly.__add__"),
            "laurent.mul_calls": self.count("laurent.LaurentPoly.__mul__"),
            "laurent.div_calls": self.count("laurent.LaurentPoly.exact_div"),
            "laurent.self_s": self.layer_self_s("laurent"),
            "laurent.max_width": self.max_width,
            "laurent.max_abs_coeff": self.max_abs_coeff,
            "permutations.calls": calls("permutations"),
            "permutations.self_s": self.layer_self_s("permutations"),
            "hecke.gen_apps": self.gen_apps,
            "hecke.gen_self_s": sum(self.seconds(k) for k in gen),
            "hecke.terms_touched": self.terms_touched,
            "hecke.product_calls": self.count(mul),
            "hecke.product_self_s": self.seconds(mul),
            "hecke.peak_support": self.peak_support,
            "hecke.conjugate_self_s": self.seconds("hecke.HeckeElement.conjugate_by_braid"),
            "hecke.extract_self_s": self.seconds("hecke.extract_scalar"),
            "hecke.self_s": self.layer_self_s("hecke"),
            "partitions.self_s": self.layer_self_s("partitions"),
            "symmetrizers.build_s": self.span_seconds("symmetrizers.e_lambda"),
            "symmetrizers.square_s": self.span_seconds(mul, "symmetrizers.alpha_extract"),
            "symmetrizers.self_s": self.layer_self_s("symmetrizers"),
            "central.full_twist_s": self.span_seconds("central.full_twist"),
            "central.twist_action_s": self.span_seconds(mul, "central.twist_eigenvalue"),
            "central.self_s": self.layer_self_s("central"),
            "cli.self_s": self.layer_self_s("cli"),
        }

    def write_spans(self, path, meta: dict) -> None:
        """Write every span as [key id, start, end, parent, item] rows."""
        names = sorted(self.key_ids, key=self.key_ids.get)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "keys": names, "spans": self.spans}, fh)
