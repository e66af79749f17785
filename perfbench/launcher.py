"""Tracing launcher: run one ``repro`` command with its layers wrapped.

    python3 perfbench/launcher.py OUT.json -- <repro arguments>

It imports ``repro.cli`` (timed as ``startup.import_s``), wraps every
function named in ``layers.TARGETS`` - in the defining module and in every
``repro.*`` module that imported it by name, including modules imported
later - and then calls ``repro.cli.main``.  Spans are kept in memory, one
stack per thread, and written to OUT.json when the command returns.
"""

from __future__ import annotations

import functools
import importlib.abc
import json
import sys
import threading
import time
from fractions import Fraction

import layers  # the script directory is on sys.path

#: Where ``service.server.hot_report_hit_ratio`` is read from.
HOT_REPORTS = "repro.service.server.AnalysisService._hot_reports"


class Tracer:
    def __init__(self) -> None:
        self.spans = []
        self.local = threading.local()
        self.originals = {}  # id(original) -> (original, wrapper)
        self.sized = []  # (span name, term-bearing object, how)
        self.rp_keys = set()
        self.notes = {"cache_hits": 0, "hot_hits": 0, "rp_bits": [], "missing": []}
        self.pending = {}  # module name -> [(attribute, span name)]
        for module, attribute, span in layers.TARGETS:
            self.pending.setdefault(module, []).append((attribute, span))

    # -- spans ---------------------------------------------------------------

    def _state(self):
        local = self.local
        if not hasattr(local, "stack"):
            local.stack = []
            local.active = set()
        return local

    def wrap(self, original, span, label=None, after=None):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            name = label(args, kwargs) if label else span
            if name in state.active:
                return original(*args, **kwargs)
            state.active.add(name)
            frame = [0.0]
            state.stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                state.stack.pop()
                state.active.discard(name)
                duration = end - start
                if state.stack:
                    state.stack[-1][0] += duration
                tracer.spans.append((name, start, end, duration - frame[0],
                                     threading.get_ident(), len(state.stack)))
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__traced__ = True
        return wrapper

    # -- per-target details --------------------------------------------------

    def _size(self, span, how):
        def after(args, kwargs, result):
            self.sized.append((span, args[0] if how == "arg" else result, how))
        return after

    def _rp_after(self, args, kwargs, result):
        x, y = Fraction(args[0]), Fraction(args[1])
        self.rp_keys.add((x, y))
        self.notes["rp_bits"].append(max(x.numerator.bit_length(), x.denominator.bit_length(),
                                          y.numerator.bit_length(), y.denominator.bit_length()))

    def _cache_after(self, args, kwargs, result):
        default = args[2] if len(args) > 2 else kwargs.get("default")
        if result is not default:
            self.notes["cache_hits"] += 1

    def _details(self, span):
        """(label, after) hooks for the targets that record more than time."""
        if span == "core.semantics.evaluate":
            def label(args, kwargs):
                config = args[2] if len(args) > 2 else kwargs.get("config")
                mode = getattr(config, "mode", "ideal") if config is not None else "ideal"
                return f"{span}.{mode}"
            return label, None
        if span == "validation.backends":
            return (lambda args, kwargs: f"{span}.{args[0].name}.bound"), None
        if span == "floats.exactmath.rp_distance_enclosure":
            return None, self._rp_after
        if span == "analysis.cache.get":
            return None, self._cache_after
        if span == "core.parser.parse_program":
            return None, self._size(span, "program")
        if span == "frontend.compiler.compile_expression":
            return None, self._size(span, "compiled")
        if span == "core.inference.infer":
            return None, self._size(span, "arg")
        return None, None

    def _hot_wrapper(self, original, span):
        wrapped = self.wrap(original, span)
        tracer = self

        @functools.wraps(original)
        def report_bytes(service, key, report):
            # The server's hot-report LRU; a hit is an entry holding this
            # very report, as ``_report_bytes`` itself tests.
            lru = getattr(service, "_hot_reports", None)
            if callable(getattr(lru, "get", None)):
                entry = lru.get(key)
                if isinstance(entry, tuple) and entry and entry[0] is report:
                    tracer.notes["hot_hits"] += 1
            elif HOT_REPORTS not in tracer.notes["missing"]:
                tracer.notes["missing"].append(HOT_REPORTS)
            return wrapped(service, key, report)

        report_bytes.__traced__ = True
        return report_bytes

    # -- patching -------------------------------------------------------------

    def patch_module(self, name):
        module = sys.modules[name]
        for attribute, span in self.pending.pop(name, []):
            if attribute == "*":
                for key, value in list(vars(module).items()):
                    if (callable(value) and not key.startswith("_")
                            and getattr(value, "__module__", None) == name
                            and not isinstance(value, type)):
                        self._replace(module, key, value, span)
                continue
            owner_name, _, method = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if method not in vars(owner or object):
                # A renamed or removed layer function leaves its metrics
                # at zero rather than failing the command.
                self.notes["missing"].append(f"{name}.{attribute}")
                continue
            if owner_name:
                original = owner.__dict__[method]
                if span == "service.server.report_bytes":
                    setattr(owner, method, self._hot_wrapper(original, span))
                else:
                    label, after = self._details(span)
                    setattr(owner, method, self.wrap(original, span, label, after))
            else:
                self._replace(module, attribute, getattr(module, attribute), span)
        self.rebind()

    def _replace(self, module, key, original, span):
        if getattr(original, "__traced__", False):
            return
        label, after = self._details(span)
        wrapper = self.wrap(original, span, label, after)
        self.originals[id(original)] = (original, wrapper)
        setattr(module, key, wrapper)

    def rebind(self, only=None):
        """Point every ``repro.*`` global that is an original at its wrapper
        (in module ``only``, when given)."""
        if not self.originals:
            return
        modules = [only] if only else [n for n in list(sys.modules)
                                       if n == "repro" or n.startswith("repro.")]
        for name in modules:
            module = sys.modules.get(name)
            if module is None:
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                entry = self.originals.get(id(value))
                if entry is not None and entry[0] is value:
                    namespace[key] = entry[1]

    def install(self):
        for name in list(self.pending):
            if name in sys.modules:
                self.patch_module(name)
        self.rebind()
        sys.meta_path.insert(0, _PatchOnImport(self))

    # -- output ---------------------------------------------------------------

    def dump(self, path, import_s, main_s):
        from repro.core.ast import tree_size

        nodes = {}
        for span, value, how in self.sized:
            try:
                if how == "program":
                    terms = [d.term for d in value.definitions]
                    if value.main is not None:
                        terms.append(value.main)
                else:
                    terms = [value.term if how == "compiled" else value]
                nodes[span] = nodes.get(span, 0) + sum(tree_size(t) for t in terms)
            except Exception as error:  # the dump must not fail the command
                self.notes["missing"].append(f"{span} size: {type(error).__name__}")
        self.notes["nodes"] = nodes
        self.notes["rp_distinct"] = len(self.rp_keys)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "main_s": main_s,
                       "spans": self.spans, "notes": self.notes}, handle)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Patch each traced module, and rebind its imports, once it has run."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith("repro"):
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        if loader is None or not hasattr(loader, "exec_module"):
            return spec
        tracer = self.tracer
        execute = loader.exec_module

        class _Loader(importlib.abc.Loader):
            def create_module(self, spec):
                return loader.create_module(spec)

            def exec_module(self, module):
                execute(module)
                if fullname in tracer.pending:
                    tracer.patch_module(fullname)
                else:
                    tracer.rebind(fullname)

        spec.loader = _Loader()
        return spec


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: launcher.py OUT.json -- <repro arguments>", file=sys.stderr)
        return 2
    out_path, arguments = argv[0], argv[2:]
    started = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - started
    tracer = Tracer()
    tracer.install()
    started = time.perf_counter()
    try:
        code = repro.cli.main(arguments)
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 1
    finally:
        main_s = time.perf_counter() - started
        tracer.dump(out_path, import_s, main_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
