"""Op process for the benchmark: runs the shufflecalc CLI or the verify
suites, optionally with per-layer tracing.

    python3 perfbench/child.py [--trace FILE] cli ARGS...
    python3 perfbench/child.py [--trace FILE] verify --seed N --letters A,B --max-len N [--calibrate]

``cli`` calls ``shufflecalc.cli.main(ARGS)``.  ``verify`` runs every suite
of ``check_names()`` in order, one ``run_checks(config, only=[name])`` call
each, and prints one JSON line per suite; with ``--calibrate`` each line
also holds the host-speed calibration times just before and after the
suite.  With ``--trace`` the process wraps the
public entry points of each module before running and writes the
aggregated counts and times to FILE when it ends.  Nothing in ``src/`` is
changed: the wrappers are installed on the imported modules from here.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import time
import types
from collections import Counter, defaultdict

import hostspeed

perf_counter = time.perf_counter


class Tracer:
    """Counts, per-layer self time and inclusive phase times.

    Self time: one layer is current at any moment, and the clock time since
    the last layer boundary is charged to it.  Entering a wrapped call of
    another layer charges the caller and makes the callee current; leaving
    it does the reverse.  So each layer's self time is its span minus the
    spans of the calls it made into other layers.
    """

    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.phase_s: defaultdict = defaultdict(float)
        self.layer = "other"
        self.stack: list[str] = []
        self.mark = perf_counter()
        self.depth: Counter = Counter()

    def enter(self, layer: str) -> None:
        now = perf_counter()
        self.self_s[self.layer] += now - self.mark
        self.stack.append(self.layer)
        self.layer, self.mark = layer, now

    def leave(self) -> None:
        now = perf_counter()
        self.self_s[self.layer] += now - self.mark
        self.layer, self.mark = self.stack.pop(), now

    def span(self, layer: str, fn, count: str | None = None, phase: str | None = None):
        """Wrap ``fn`` as a span of ``layer``; optionally count its calls and
        add its outermost durations to ``phase``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count:
                self.counts[count] += 1
            if phase:
                self.depth[phase] += 1
                start = perf_counter()
            switch = layer != self.layer
            if switch:
                self.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                if switch:
                    self.leave()
                if phase:
                    self.depth[phase] -= 1
                    if not self.depth[phase]:
                        self.phase_s[phase] += perf_counter() - start

        return wrapper

    def finish(self) -> None:
        now = perf_counter()
        self.self_s[self.layer] += now - self.mark
        self.mark = now


def _replace(original, replacement) -> None:
    """Rebind every name in the loaded shufflecalc modules that refers to
    ``original``, so ``from .x import f`` copies are wrapped too."""
    for name, module in list(sys.modules.items()):
        if name == "shufflecalc" or name.startswith("shufflecalc."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _public_functions(module):
    return [(name, fn) for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")]


def _wrap_classmethod(cls, name, wrap) -> None:
    fn = cls.__dict__[name].__func__
    setattr(cls, name, classmethod(wrap(fn)))


def _count_init(cls, counts: Counter, key: str) -> None:
    init = cls.__init__

    def counted(self, *args, **kwargs):
        counts[key] += 1
        init(self, *args, **kwargs)

    cls.__init__ = counted


def install(tracer: Tracer) -> None:
    """Wrap each module's public entry points; see README.md for what each
    resulting metric means."""
    import shufflecalc.cli as cli
    from shufflecalc import coalgebra, cumulants, functionals, partitions, series, words

    counts = tracer.counts
    _count_init(words.Word, counts, "words.word_allocs")
    _count_init(words.BarWord, counts, "words.barword_allocs")
    _count_init(partitions.SetPartition, counts, "partitions.partitions_built")

    # Functional evaluation: every call counts as functionals.evals; the
    # self time goes to the layer that defines the node's type.
    call = functionals.Functional.__call__
    layer_of: dict = {}

    def evaluate(node, b):
        cls = type(node)
        layer = layer_of.get(cls)
        if layer is None:
            layer = layer_of[cls] = ("series" if cls.__module__ == series.__name__
                                     else "functionals")
        counts["functionals.evals"] += 1
        if b in getattr(node, "_memo", ()):
            counts["functionals.memo_hits"] += 1
        if layer == "series":
            counts["series.evals"] += 1
        if layer == tracer.layer:
            return call(node, b)
        tracer.enter(layer)
        try:
            return call(node, b)
        finally:
            tracer.leave()

    functionals.Functional.__call__ = evaluate

    coalgebra_counts = {
        "coproduct": "coalgebra.coproduct_calls",
        "half_coproduct_left": "coalgebra.half_calls",
        "half_coproduct_right": "coalgebra.half_calls",
        "coproduct_word": "coalgebra.word_coproducts",
    }
    for name, fn in _public_functions(coalgebra):
        _replace(fn, tracer.span("coalgebra", fn, count=coalgebra_counts.get(name)))
    for name, fn in _public_functions(partitions):
        _replace(fn, tracer.span("partitions", fn, count="partitions.calls"))
    for name, fn in _public_functions(cumulants):
        _replace(fn, tracer.span("cumulants", fn, count="cumulants.calls",
                                 phase="cumulants.compute_s"))
    materialize = functionals.materialize
    _replace(materialize, tracer.span("functionals", materialize,
                                      phase="functionals.materialize_s"))

    # JSON input and output of the CLI.
    def parse(fn):
        return tracer.span("cli", fn, phase="cli.parse_s")

    def serialize(fn):
        return tracer.span("cli", fn, phase="cli.serialize_s")

    read_json = cli._read_json

    def read_counted(path):
        obj = read_json(path)
        counts["cli.bytes_in"] += os.path.getsize(path)
        return obj

    cli._read_json = parse(read_counted)
    _wrap_classmethod(functionals.ValueTable, "from_json", parse)
    _wrap_classmethod(cumulants.StatePair, "from_json", parse)
    functionals.ValueTable.to_json = serialize(functionals.ValueTable.to_json)
    cumulants.StatePair.to_json = serialize(cumulants.StatePair.to_json)
    cli._dump_json = serialize(cli._dump_json)
    write_text = cli._write_text

    def write_counted(path, text):
        counts["cli.bytes_out"] += len(text.encode())
        write_text(path, text)

    cli._write_text = serialize(write_counted)
    json_proxy = types.ModuleType("json")
    json_proxy.__dict__.update(vars(json))
    json_proxy.dumps = serialize(json.dumps)
    cli.json = json_proxy


def coalgebra_cache_size() -> tuple[int, int]:
    """Entries and total terms over the module-level coproduct caches: every
    dict in ``coalgebra`` whose values are ``TensorSum``s."""
    from shufflecalc import coalgebra

    entries = terms = 0
    for value in vars(coalgebra).values():
        if isinstance(value, dict) and value and all(
                isinstance(v, coalgebra.TensorSum) for v in value.values()):
            entries += len(value)
            terms += sum(len(v) for v in value.values())
    return entries, terms


def run_verify(config, calibrate: bool, tracer: Tracer | None) -> int:
    from shufflecalc.verify import check_names, run_checks

    cal = hostspeed.calibrate() if calibrate else None
    for name in check_names():
        if tracer:
            tracer.enter("verify")
        start = perf_counter()
        result = run_checks(config, only=[name])[0]
        seconds = perf_counter() - start
        if tracer:
            tracer.leave()
        line = {"suite": name, "seconds": seconds, "passed": result.passed,
                "detail": result.detail}
        if calibrate:
            line["cal_before"], cal = cal, hostspeed.calibrate()
            line["cal_after"] = cal
        print(json.dumps(line), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", help="write the per-layer trace to this file")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("args", nargs=argparse.REMAINDER)
    p = sub.add_parser("verify")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--letters", required=True, help="comma-separated alphabet")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--calibrate", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer:
        install(tracer)
    if args.mode == "cli":
        import shufflecalc.cli

        code = shufflecalc.cli.main(args.args)
    else:
        from shufflecalc.verify import VerifyConfig

        config = VerifyConfig(alphabet=tuple(args.letters.split(",")), max_len=args.max_len,
                              seed=args.seed)
        code = run_verify(config, args.calibrate, tracer)
    sys.stdout.flush()
    if tracer:
        tracer.finish()
        entries, terms = coalgebra_cache_size()
        with open(args.trace, "w") as fh:
            json.dump({"counts": tracer.counts, "self_s": tracer.self_s,
                       "phase_s": tracer.phase_s, "coalgebra.cache_entries": entries,
                       "coalgebra.cache_terms": terms}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
