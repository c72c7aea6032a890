"""
Per-layer tracing installed from outside the package.

`Tracer.install` replaces every public function of the package's modules
with a timing wrapper, in every module namespace that imported it, and
wraps the `compose`/`action` callables of the operad records and the
`operad_mu`/`multiply` callables of the group records that functions
return.  Nothing under `src/` changes.

Calls are aggregated per function into call count, total time and self
time (a call's time minus the time of wrapped calls inside it), and only
inside a job span; one law check makes tens of thousands of calls, so no
per-call span is stored.  Each job span carries its job id.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from contextlib import contextmanager
from types import FunctionType

MODULES = ("permutations", "braids", "action_operads", "g_operads", "free_monad", "pseudocomm", "cli")

# (name, unit) in the order reported; the names match BENCHMARK.json.
PER_LAYER = (
    ("permutations.constructed", "count"),
    ("permutations.compose.calls", "count"),
    ("permutations.compose.self_s", "s"),
    ("permutations.mu_sigma.calls", "count"),
    ("permutations.mu_sigma.self_s", "s"),
    ("permutations.inversions.calls", "count"),
    ("permutations.inversions.self_s", "s"),
    ("braids.underlying_permutation.calls", "count"),
    ("braids.underlying_permutation.self_s", "s"),
    ("braids.underlying_permutation.letters_in", "count"),
    ("braids.permutation_braid.calls", "count"),
    ("braids.permutation_braid.self_s", "s"),
    ("braids.cable.calls", "count"),
    ("braids.cable.self_s", "s"),
    ("braids.cable.letters_out", "count"),
    ("braids.constructed", "count"),
    ("braids.handle_reduce.calls", "count"),
    ("braids.handle_reduce.self_s", "s"),
    ("braids.handle_reduce.letters_in", "count"),
    ("braids.handle_reduce.letters_out", "count"),
    ("braids.equal.calls", "count"),
    ("braids.equal.self_s", "s"),
    ("braids.equal.fast_ratio", "ratio"),
    ("action_operads.operad_mu.calls", "count"),
    ("action_operads.operad_mu.self_s", "s"),
    ("action_operads.multiply.calls", "count"),
    ("action_operads.multiply.self_s", "s"),
    ("pseudocomm.verify_interchange.calls", "count"),
    ("pseudocomm.verify_interchange.self_s", "s"),
    ("pseudocomm.verify_interchange_dual.calls", "count"),
    ("pseudocomm.verify_interchange_dual.self_s", "s"),
    ("pseudocomm.fallback_ratio", "ratio"),
    ("g_operads.compose.calls", "count"),
    ("g_operads.compose.distinct", "count"),
    ("g_operads.compose.self_s", "s"),
    ("g_operads.action.calls", "count"),
    ("g_operads.action.distinct", "count"),
    ("g_operads.action.self_s", "s"),
    ("g_operads.check_operad.self_s", "s"),
    ("g_operads.check_algebra.calls", "count"),
    ("g_operads.enumerate_algebra_structures.found_ratio", "ratio"),
    ("g_operads.load_operad.calls", "count"),
    ("g_operads.load_operad.self_s", "s"),
    ("g_operads.compose_collections.calls", "count"),
    ("g_operads.compose_collections.self_s", "s"),
    ("g_operads.compose_collections.classes", "count"),
    ("g_operads.compose_collections.job_share", "ratio"),
    ("free_monad.free_algebra.calls", "count"),
    ("free_monad.free_algebra.self_s", "s"),
    ("free_monad.free_algebra.classes", "count"),
    ("free_monad.mult_mu.calls", "count"),
    ("free_monad.mult_mu.self_s", "s"),
    ("free_monad.check_monad_laws.self_s", "s"),
    ("free_monad.pullback_witness_test.self_s", "s"),
    ("cli.main.self_s", "s"),
    *((f"{module}.self_share", "ratio") for module in MODULES),
    ("trace.jobs", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def _level_classes(result) -> int:
    return sum(len(classes) for classes in result.classes_by_arity.values())


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}       # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()      # extra counters by metric name
        self.distinct: dict[str, set] = {"g_operads.compose": set(), "g_operads.action": set()}
        self.jobs: list[tuple[int, str, float]] = []   # (job id, kind, seconds)
        self._stack: list[list[float]] = []   # child time of each open span
        self._records = 0

    # -------------------------------------------------------------- spans

    @contextmanager
    def job(self, job_id: int, kind: str):
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.jobs.append((job_id, kind, time.perf_counter() - start))

    def wrap(self, name: str, fn, before=None, after=None, records=False):
        """
        A timing wrapper; `after(state, args, result)` sees `before(args)`'s
        state.  With `records`, returned operad and group records get their
        callables wrapped too, also outside jobs, since set-up builds them.
        """
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        finish = self._wrap_record if records else None

        def traced(*args, **kwargs):
            if not stack:
                result = fn(*args, **kwargs)
                return finish(result) if finish else result
            state = before(args) if before else None
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
            if after:
                after(state, args, result)
            return finish(result) if finish else result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.traced_as = (self, name)
        return traced

    def count_calls(self, name: str, fn):
        """A wrapper that only counts calls made inside jobs."""
        counts, stack = self.counts, self._stack

        def counted(*args, **kwargs):
            if stack:
                counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    # ------------------------------------------------------------ install

    def install(self) -> None:
        import importlib

        import operadics

        modules = {name: importlib.import_module(f"operadics.{name}") for name in MODULES}
        self._group_type = modules["action_operads"].ActionOperad
        self._record_types = (modules["g_operads"].FiniteGOperad,
                              modules["g_operads"].FiniteGCollection, self._group_type)
        replacements: dict[int, object] = {}
        for short, module in modules.items():
            for attr, value in list(vars(module).items()):
                if (isinstance(value, FunctionType) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    name = f"{short}.{attr}"
                    replacements[id(value)] = self.wrap(name, value, *self._hooks(name), records=True)
        for module in (operadics, *modules.values()):
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])
        # The interchange checker reaches handle reduction only through this alias.
        pseudo = modules["pseudocomm"]
        pseudo.braid_equal = self.count_calls("pseudocomm.braid_equal", pseudo.braid_equal)
        for cls, name in ((modules["permutations"].Permutation, "permutations.Permutation"),
                          (modules["braids"].BraidWord, "braids.BraidWord")):
            cls.__post_init__ = self.wrap(f"{name}.__post_init__", cls.__post_init__)

    def _hooks(self, name: str):
        """(before, after) hooks for the functions whose inputs or outputs carry a size."""
        counts = self.counts

        def after_sizes(state, args, result):
            if name == "braids.underlying_permutation":
                counts[f"{name}.letters_in"] += len(args[0].word)
            elif name == "braids.cable":
                counts[f"{name}.letters_out"] += len(result.word)
            elif name == "braids.handle_reduce":
                counts[f"{name}.letters_in"] += len(args[0].word)
                counts[f"{name}.letters_out"] += len(result.word)
            else:
                counts[f"{name}.classes"] += _level_classes(result)

        def after_equal(reductions_before, args, result):
            if self.calls("braids.handle_reduce") == reductions_before:
                counts[f"{name}.fast"] += 1

        def after_enumerate(checks_before, args, result):
            counts[f"{name}.tried"] += self.calls("g_operads.check_algebra") - checks_before
            counts[f"{name}.found"] += len(result)

        if name in ("braids.underlying_permutation", "braids.cable", "braids.handle_reduce",
                    "g_operads.compose_collections", "free_monad.free_algebra"):
            return None, after_sizes
        if name == "braids.equal":
            return (lambda args: self.calls("braids.handle_reduce")), after_equal
        if name == "g_operads.enumerate_algebra_structures":
            return (lambda args: self.calls("g_operads.check_algebra")), after_enumerate
        return None, None

    def _traced(self, fn, name: str) -> bool:
        """Whether `fn` is already this tracer's wrapper of that name."""
        return getattr(fn, "traced_as", None) == (self, name)

    def _wrap_record(self, result):
        """Wrap the callables of an operad or group record that a function returned."""
        if not isinstance(result, self._record_types):
            return result
        if isinstance(result, self._group_type):
            fields = {
                field: self.wrap(f"action_operads.{field}", getattr(result, field))
                for field in ("operad_mu", "multiply")
                if not self._traced(getattr(result, field), f"action_operads.{field}")
            }
            return dataclasses.replace(result, **fields) if fields else result
        self._records += 1
        serial = self._records
        seen_action = self.distinct["g_operads.action"]
        if not self._traced(result.action, "g_operads.action"):
            result.action = self.wrap(
                "g_operads.action", result.action,
                before=lambda args: seen_action.add((serial, *args)),
            )
        compose = getattr(result, "compose", None)
        if compose is not None and not self._traced(compose, "g_operads.compose"):
            seen_compose = self.distinct["g_operads.compose"]
            result.compose = self.wrap(
                "g_operads.compose", compose,
                before=lambda args: seen_compose.add((serial, args[0], tuple(args[1]), args[2], tuple(args[3]))),
            )
        return result

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict[str, float]:
        """
        Every per-layer metric but `trace.overhead_ratio`, which needs an
        untraced run; functions never called report 0.
        """
        job_time = sum(seconds for _, _, seconds in self.jobs)
        values: dict[str, float] = dict(self.counts)
        for name, (calls, total, own) in self.stats.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.total_s"] = total
            values[f"{name}.self_s"] = own
        values["permutations.constructed"] = self.calls("permutations.Permutation.__post_init__")
        values["braids.constructed"] = self.calls("braids.BraidWord.__post_init__")
        equal_calls = self.calls("braids.equal")
        values["braids.equal.fast_ratio"] = self.counts["braids.equal.fast"] / equal_calls if equal_calls else 0.0
        equations = self.calls("pseudocomm.verify_interchange") + self.calls("pseudocomm.verify_interchange_dual")
        values["pseudocomm.fallback_ratio"] = self.counts["pseudocomm.braid_equal"] / equations if equations else 0.0
        for name in ("g_operads.compose", "g_operads.action"):
            values[f"{name}.distinct"] = len(self.distinct[name])
        tried = self.counts["g_operads.enumerate_algebra_structures.tried"]
        values["g_operads.enumerate_algebra_structures.found_ratio"] = (
            self.counts["g_operads.enumerate_algebra_structures.found"] / tried if tried else 0.0
        )
        values["g_operads.compose_collections.job_share"] = (
            values.get("g_operads.compose_collections.total_s", 0.0) / job_time if job_time else 0.0
        )
        for module in MODULES:
            own = sum(s[2] for name, s in self.stats.items() if name.startswith(module + "."))
            values[f"{module}.self_share"] = own / job_time if job_time else 0.0
        values["trace.jobs"] = len(self.jobs)
        return {name: values.get(name, 0) for name, _ in PER_LAYER if name != "trace.overhead_ratio"}
