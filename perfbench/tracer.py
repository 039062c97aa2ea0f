"""Run one catspan CLI command with the package's public functions traced.

Usage: python3 tracer.py SPANS_JSON ARG...

The catspan package must be importable (PYTHONPATH).  Before calling
``catspan.cli.main(ARG...)`` every public function of the traced modules is
replaced by a timing wrapper, both in its defining module and wherever another
catspan module holds a reference to it (module globals, and module-level
lists and dicts such as the verify check lists and the CLI command table), so
nested calls are seen too.  Spans are kept in memory and written to
SPANS_JSON when the command ends; the exit code is the command's own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

MODULES = ("gf2", "families", "noncrossing", "counting", "oracle", "verify", "conjecture", "cli")

# Serialisation and bit-level helpers run once per row or per pair; their
# cost belongs to the caller (rendering, isotropy filtering) and a wrapper
# per call would cost more than the call itself.
UNTRACED = frozenset(
    {"mask_to_string", "string_to_mask", "subspace_key", "seq_key", "form_masks", "main", "build_parser"}
)

# Hot primitives get a call count and total time instead of one span per call.
COUNTED_MODULES = frozenset({"gf2"})
COUNTED_NAMES = frozenset({"noncrossing.is_noncrossing", "noncrossing.shift_arc", "noncrossing.extend_seq"})


def _families_info(args, result):
    return {"n": args[0], "members": len(result.f0) + len(result.f1)}


def _match_info(args, result):
    return {"tried": result.tried}


def _check_info(args, result):
    return {"check": result.name}


ANNOTATE = {
    "families.build_families": _families_info,
    "conjecture.gl_match": _match_info,
}


class Tracer:
    """Span and counter store for one process."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index, counted_s, counted_calls, info]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, list] = {}
        self.in_counted = False

    def span(self, name, fn, annotate):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if annotate is not None:
                rec[6] = annotate(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        spans, stack = self.spans, self.stack
        tally = self.counts.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.in_counted:
                # nested inside another counted call: that call's time covers it
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tally[0] += 1
                    tally[1] += perf_counter() - t0
            self.in_counted = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.in_counted = False
                tally[0] += 1
                tally[1] += dt
                if stack:
                    rec = spans[stack[-1]]
                    rec[4] += dt
                    rec[5] += 1

        return wrapper

    def install(self) -> None:
        """Wrap every public function of MODULES and patch every reference."""
        wrapped: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            mod = importlib.import_module(f"catspan.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or attr in UNTRACED or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if short in COUNTED_MODULES or name in COUNTED_NAMES:
                    wrapper = self.counted(name, obj)
                else:
                    annotate = ANNOTATE.get(name)
                    if short == "verify" and attr.startswith("check_"):
                        annotate = _check_info
                    wrapper = self.span(name, obj, annotate)
                wrapped[id(obj)] = (obj, wrapper)

        def swap(value):
            hit = wrapped.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "catspan" or modname.startswith("catspan.")):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, list):
                    value[:] = [swap(v) for v in value]
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for k, v in list(value.items()):
                        value[k] = swap(v)
                else:
                    new = swap(value)
                    if new is not value:
                        setattr(mod, attr, new)

    def dump(self, path: str, code: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"code": code, "spans": self.spans, "counts": self.counts}, fh)


def run(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    from catspan import cli

    code = 2
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad usage this way
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.dump(spans_path, code)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
