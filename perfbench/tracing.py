"""In-memory spans around the public functions of every eligirisk layer.

The tracer wraps each layer's public functions (the plain functions named in
the module's ``__all__``, plus the methods named in ``METHODS``) and rebinds
the wrapper at every module binding of the same function object: the ``rho``
imported into ``comonotone``, ``theorems`` and ``cli`` is traced as well as
``engine.rho`` itself.  A span is (op, name, parent, start_ns, end_ns), kept
in flat arrays; spans of one benchmark op share the op number.  The wrappers
are bound only inside ``with tracer:``; nothing in the package changes on
disk.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from array import array
from collections import Counter
from typing import Any, Callable

LAYERS = ("spaces", "measures", "acceptance", "engine", "comonotone", "theorems", "cli", "reporting")

#: Methods traced in addition to the ``__all__`` functions: (layer, class path, attribute).
METHODS = (
    ("spaces", "spaces.RandVar", "profile"),
    ("acceptance", "acceptance.AcceptanceSpec", "functional_value"),
    ("reporting", "reporting.CheckReport", "to_jsonable"),
    ("reporting", "theorems.TheoremVerdict", "to_jsonable"),
)


class Tracer:
    """Records spans and per-call facts while installed; aggregates them afterwards."""

    def __init__(self, package) -> None:
        # one entry per span in each array: op number, name id, parent index, start, end
        self.names: list[str] = []
        self.op_of = array("q")
        self.name_of = array("q")
        self.parent_of = array("q")
        self.start_of = array("q")
        self.end_of = array("q")
        self.op = -1
        self.quotes: list[tuple[Any, Any, Any, Any]] = []  # (spec, asset, x, RiskQuote)
        self.facts: Counter = Counter()
        self._stack: list[int] = []
        self._swaps = self._prepare(package)

    def __enter__(self) -> "Tracer":
        """Bind every wrapper in place of its original."""
        for owner, attr, _, traced in self._swaps:
            setattr(owner, attr, traced)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)

    # -- recording -----------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Wrap ``fn`` in a span; ``after`` gets the bound arguments and the result."""
        name_id = len(self.names)
        self.names.append(name)
        op_of, name_of, parent_of = self.op_of, self.name_of, self.parent_of
        start_of, end_of = self.start_of, self.end_of
        stack, clock = self._stack, time.perf_counter_ns
        signature = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start_of)
            op_of.append(self.op)
            name_of.append(name_id)
            parent_of.append(stack[-1] if stack else -1)
            stack.append(idx)
            start_of.append(clock())
            end_of.append(0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end_of[idx] = clock()
                stack.pop()
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments, result)
            return result

        return traced

    def root(self, name: str) -> Callable[[Callable], Any]:
        """A runner that calls its argument inside a root span named ``name``."""
        return self._wrap(name, lambda fn: fn())

    def _after_rho(self, args: dict, quote) -> None:
        self.quotes.append((args["spec"], args["asset"], args["x"], quote))

    def _after_profile(self, args: dict, profile) -> None:
        self.facts["spaces.profile_atoms"] += args["self"].space.n_atoms

    def _after_comonotone(self, args: dict, result) -> None:
        method = args["method"]
        self.facts[f"comonotone.{method}"] += 1
        if method == "pairwise":
            n = args["x"].space.n_atoms
            self.facts["comonotone.pairwise_bytes"] += 2 * n * n * 8

    def _after_var_condition_b(self, args: dict, verdict) -> None:
        self.facts["theorems.subset_entries"] += 2 ** args["space"].n_atoms
        self.facts["theorems.candidates_examined"] += verdict.samples

    # -- installation --------------------------------------------------------------

    def _prepare(self, package) -> list[tuple[Any, str, Any, Any]]:
        """Wrappers for every layer of ``package`` (the imported ``eligirisk``).

        Returns (owner, attribute, original, wrapper) for every module binding
        of a wrapped function and for every method in ``METHODS``.
        """
        modules = {name: getattr(package, name) for name in LAYERS}
        after = {
            ("engine", "rho"): self._after_rho,
            ("comonotone", "is_comonotone"): self._after_comonotone,
            ("theorems", "check_var_condition_b"): self._after_var_condition_b,
        }
        wrappers: dict[int, Callable] = {}
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn, after.get((layer, attr)))
        swaps = [
            (mod, attr, val, wrappers[id(val)])
            for mod in (package, *modules.values())
            for attr, val in vars(mod).items()
            if id(val) in wrappers
        ]
        for layer, path, attr in METHODS:
            mod_name, cls_name = path.split(".")
            cls = getattr(modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, functools.cached_property):
                traced = functools.cached_property(
                    self._wrap(f"{layer}.{cls_name}.{attr}", original.func, self._after_profile)
                )
                traced.__set_name__(cls, attr)
            else:
                traced = self._wrap(f"{layer}.{cls_name}.{attr}", original)
            swaps.append((cls, attr, original, traced))
        return swaps

    # -- aggregation ---------------------------------------------------------------

    def aggregate(self) -> dict[str, Counter]:
        """Self time per layer and per span name, entries per layer, calls per name.

        A span's self time is its duration minus the durations of its direct
        children.  A layer's *entries* are its spans whose parent lies in
        another layer (or that have no parent); ``measures.in_rho`` counts the
        entries into ``measures`` made under an ``engine.rho`` span.
        """
        layer_of_name = [name.split(".", 1)[0] for name in self.names]
        rho_ids = {i for i, name in enumerate(self.names) if name == "engine.rho"}
        n = len(self.start_of)
        duration = [e - s for s, e in zip(self.start_of, self.end_of)]
        child_ns = [0] * n
        under_rho = [False] * n
        for i, parent in enumerate(self.parent_of):
            if parent >= 0:
                child_ns[parent] += duration[i]
                under_rho[i] = under_rho[parent] or self.name_of[parent] in rho_ids
        self_ns: Counter = Counter()
        name_self_ns: Counter = Counter()
        name_total_ns: Counter = Counter()
        calls: Counter = Counter()
        entries: Counter = Counter()
        for i, (name_id, parent) in enumerate(zip(self.name_of, self.parent_of)):
            name, layer = self.names[name_id], layer_of_name[name_id]
            own = duration[i] - child_ns[i]
            self_ns[layer] += own
            name_self_ns[name] += own
            name_total_ns[name] += duration[i]
            calls[name] += 1
            if parent < 0 or layer_of_name[self.name_of[parent]] != layer:
                entries[layer] += 1
                if layer == "measures" and under_rho[i]:
                    entries["measures.in_rho"] += 1
        return {
            "self_ns": self_ns,
            "name_self_ns": name_self_ns,
            "name_total_ns": name_total_ns,
            "calls": calls,
            "entries": entries,
        }

    def write(self, path, context: dict) -> None:
        """Write the context line and every span as a JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"context": context, "span": ["op", "name", "parent", "start_ns", "end_ns"]}) + "\n")
            for op, name_id, parent, start, end in zip(
                self.op_of, self.name_of, self.parent_of, self.start_of, self.end_of
            ):
                fh.write(f'[{op},"{self.names[name_id]}",{parent},{start},{end}]\n')
