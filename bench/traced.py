"""Run one conespec command with every layer boundary timed from outside.

    python3 bench/traced.py STATS.json <conespec arguments...>

Each public function of the library modules, and the `attach`,
`local_forms_direct` and `faces` methods of the spectral contexts, is wrapped
where it is defined and in every module that imported it by name.  A wrapper
records one span per call (per `next()` for generators) and folds it into
per-function totals at once: calls, and self time, which is the span minus
the spans of the wrapped calls it made.  The totals, a few work counters and
the span of `cli.main` are kept in memory and written to STATS.json when the
command ends.  Standard output is left untouched, so it is byte-identical to
an untraced run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("io", "tables", "contexts", "spectrum", "reduction", "hypercover",
          "glue")
METHODS = ("attach", "local_forms_direct", "faces")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.active: dict[str, int] = {}
        self.seen_specs: set = set()
        # child time accumulated by each open span, innermost last
        self.stack: list[float] = []

    def _enter(self, name: str) -> float:
        self.active[name] = self.active.get(name, 0) + 1
        self.stack.append(0.0)
        return time.perf_counter()

    def _exit(self, name: str, start: float) -> None:
        span = time.perf_counter() - start
        children = self.stack.pop()
        self.active[name] -= 1
        self.self_s[name] = self.self_s.get(name, 0.0) + span - children
        if self.stack:
            self.stack[-1] += span

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def biggest(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(self, name: str, fn):
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        observe = OBSERVERS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    start = tracer._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(name, start)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if observe is not None:
                observe(tracer, "before", args, None)
            start = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, start)
            if observe is not None:
                observe(tracer, "after", args, result)
            return result
        return wrapper

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of `package`."""
        prefix = package.__name__ + "."
        modules = [m for name, m in sys.modules.items()
                   if name.startswith(prefix)]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[prefix + layer]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self.wrap(f"{layer}.{attr}", fn)
        # rebind every name, in every module, that refers to a wrapped function
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
        ctx_mod = sys.modules[prefix + "contexts"]
        for cls in (ctx_mod.ZariskiContext, ctx_mod.DomainContext,
                    ctx_mod.DeitmarContext):
            for meth in METHODS:
                if meth in vars(cls):
                    setattr(cls, meth,
                            self.wrap(f"contexts.{meth}", vars(cls)[meth]))

    def stats(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "counters": self.counters}


# ---------------------------------------------------------------------------
# work and waste, read from the arguments and results of wrapped calls


def _limit(tr: Tracer, phase, args, result):
    if phase == "after":
        scanned = 1
        for obj in args[1]:
            scanned *= obj.size
        tr.count("tables.limit.scanned", scanned)
        tr.count("tables.limit.kept", result[0].size)
        tr.biggest("tables.limit.max_size", result[0].size)


def _product(tr: Tracer, phase, args, result):
    if phase == "after":
        tr.count("tables.product.elements", result[0].size)
        tr.biggest("tables.product.max_size", result[0].size)


def _quotient_by_sig(tr: Tracer, phase, args, result):
    if phase == "after":
        tr.biggest("tables.quotient_by_sig.max_size", result[0].size)


def _enumerate_localizations(tr: Tracer, phase, args, result):
    if phase == "after":
        tr.count("contexts.localization_classes", len(result))


def _attach(tr: Tracer, phase, args, result):
    if phase == "before" and tr.active.get("contexts.enumerate_localizations"):
        tr.count("contexts.attach_in_enumeration")


def _build_spec(tr: Tracer, phase, args, result):
    if phase == "before":
        key = (args[0].name, args[1])
        if key in tr.seen_specs:
            tr.count("spectrum.build_spec.repeat_calls")
        tr.seen_specs.add(key)


def _all_homs(tr: Tracer, phase, args, result):
    if phase == "after":
        tr.count("tables.all_homs.found", len(result))


OBSERVERS = {
    "tables.limit": _limit,
    "tables.product": _product,
    "tables.quotient_by_sig": _quotient_by_sig,
    "contexts.enumerate_localizations": _enumerate_localizations,
    "contexts.attach": _attach,
    "spectrum.build_spec": _build_spec,
    "tables.all_homs": _all_homs,
}


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    import conespec
    from conespec import cli

    tracer = Tracer()
    tracer.install(conespec)
    start = tracer._enter("cli.main")
    try:
        code = cli.main(argv)
    finally:
        tracer._exit("cli.main", start)
        span = time.perf_counter() - start
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(dict(tracer.stats(), main_span_s=span), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
