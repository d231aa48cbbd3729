"""Per-layer spans recorded from outside the program.

``Tracer.install()`` replaces each traced function by a timing wrapper in
every ``dualbench`` module namespace (and class) that binds it, so the
wrapper runs whichever binding a caller looks up: ``dualbench.f2.wht`` and
``dualbench.adcomb.wht`` are one span, ``f2.wht``.  ``remove()`` puts the
originals back.  No file of the program changes.

Each span keeps calls, inclusive time and self time, which is inclusive
time minus the time covered by wrapped children.  A span re-entered while
it is already open (recursion through a traced name) adds its calls and
self time but not a second copy of its inclusive time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (span name, module, attribute path): the public functions of each layer
# that an optimisation in the queued work is expected to move.
TARGETS = (
    ("f2.wht", "dualbench.f2", "wht"),
    ("f2.rep_table", "dualbench.f2", "rep_table"),
    ("f2.char_table", "dualbench.f2", "char_table"),
    ("f2.char_sum", "dualbench.f2", "char_sum"),
    ("f2.duality_measure", "dualbench.f2", "duality_measure"),
    ("f2.span", "dualbench.f2", "span"),
    ("f2.sumset", "dualbench.f2", "sumset"),
    ("matrix.max_mono_exact", "dualbench.matrix", "max_mono_exact"),
    ("matrix.rank_real", "dualbench.matrix", "rank_real"),
    ("matrix.rank_f2", "dualbench.matrix", "rank_f2"),
    ("matrix.dedup", "dualbench.matrix", "dedup"),
    ("matrix.BoolMatrix.take", "dualbench.matrix", "BoolMatrix.take"),
    ("adcomb.bsg_extract", "dualbench.adcomb", "bsg_extract"),
    ("adcomb.pfr_extract", "dualbench.adcomb", "pfr_extract"),
    ("approxdual.exact_dual_oracle", "dualbench.approxdual", "exact_dual_oracle"),
    ("approxdual.greedy_dual_pair", "dualbench.approxdual", "greedy_dual_pair"),
    ("approxdual.find_dual_pair", "dualbench.approxdual", "find_dual_pair"),
    ("approxdual.run_sequence", "dualbench.approxdual", "run_sequence"),
    ("approxdual.base_case_dual", "dualbench.approxdual", "base_case_dual"),
    ("approxdual.pull_back", "dualbench.approxdual", "pull_back"),
    ("protocol.build_protocol", "dualbench.protocol", "build_protocol"),
    ("protocol.verify", "dualbench.protocol", "verify"),
    ("protocol.leaf_recurrence_audit", "dualbench.protocol", "leaf_recurrence_audit"),
    ("protocol.write_tree_file", "dualbench.protocol", "write_tree_file"),
    ("protocol.read_tree_file", "dualbench.protocol", "read_tree_file"),
    ("experiments.run_experiment", "dualbench.experiments", "run_experiment"),
    ("experiments.to_json", "dualbench.experiments", "to_json"),
    ("cli.main", "dualbench.cli", "main"),
)

SPAN_NAMES = tuple(name for name, _, _ in TARGETS)

# Deterministic work counters: counter name -> (span, size of one call).
COUNTERS = {
    "f2.wht.elements": ("f2.wht", lambda args, kwargs: len(args[0] if args else kwargs["values"])),
}


class Tracer:
    """Aggregated spans for the functions in ``TARGETS``."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.incl = dict.fromkeys(SPAN_NAMES, 0.0)
        self.self_time = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.top_level = 0.0  # time covered by spans opened with no span open
        self._stack = []  # [name, start, time covered by children]
        self._open = dict.fromkeys(SPAN_NAMES, 0)
        self._patches = []  # (owner, attribute, original)

    def snapshot(self) -> dict:
        """Copy of every total, for differencing around one timed step."""
        return {
            "calls": dict(self.calls),
            "incl": dict(self.incl),
            "self": dict(self.self_time),
            "counters": dict(self.counters),
            "top_level": self.top_level,
        }

    def _wrap(self, name: str, fn):
        counters = [(key, size) for key, (span, size) in COUNTERS.items() if span == name]
        stack = self._stack
        is_open = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for key, size in counters:
                self.counters[key] += size(args, kwargs)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            is_open[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                is_open[name] -= 1
                self.calls[name] += 1
                self.self_time[name] += elapsed - frame[2]
                if not is_open[name]:
                    self.incl[name] += elapsed
                if stack:
                    stack[-1][2] += elapsed
                else:
                    self.top_level += elapsed

        wrapper.__perfbench_original__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every binding of every target in the loaded dualbench modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # import every traced module first, so that no module imported later
        # binds a wrapper that remove() would not know about
        for _, module_name, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "dualbench" or key.startswith("dualbench."))]
        for name, module_name, path in TARGETS:
            owner = sys.modules[module_name]
            *outer, attribute = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attribute]
            wrapper = self._wrap(name, original)
            bindings = [(m, key) for m in modules for key, value in vars(m).items()
                        if value is original]
            if outer:
                bindings.append((owner, attribute))
            for target, key in bindings:
                self._patches.append((target, key, original))
                setattr(target, key, wrapper)

    def remove(self) -> None:
        """Restore every original binding."""
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)


def installed_wrappers() -> list[str]:
    """Bindings in the loaded dualbench modules that are still tracer wrappers."""
    found = []
    for key, module in sorted(sys.modules.items()):
        if module is None or not (key == "dualbench" or key.startswith("dualbench.")):
            continue
        spaces = [(key, vars(module))]
        spaces += [(f"{key}.{k}", vars(v)) for k, v in vars(module).items()
                   if isinstance(v, type) and v.__module__ == key]
        for where, space in spaces:
            found += [f"{where}.{k}" for k, v in space.items()
                      if hasattr(v, "__perfbench_original__")]
    return found
