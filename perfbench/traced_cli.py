"""Run one retnet CLI command with spans around the package's public entry points.

Usage: python traced_cli.py TRACE_JSON CLI_ARG...

The program is not changed: after import, every binding of each traced
function in the ``retnet`` modules (``from .x import y`` copies and the
defining module's own global) is replaced by a wrapper. Spans are
aggregated per (name, parent name), so memory stays bounded however
many calls there are. The aggregate is written to TRACE_JSON at exit.
"""

from __future__ import annotations

import json
import sys
import time

T0 = time.perf_counter()
import retnet.cli  # noqa: E402  (import time is measured)
from retnet.errors import NotInImage  # noqa: E402

IMPORT_S = time.perf_counter() - T0

SERIALIZE_WRITE = ("tree_to_newick", "network_to_enewick", "network_to_json",
                   "labelling_to_json")
SERIALIZE_READ = ("newick_to_tree", "enewick_to_network", "json_to_network",
                  "json_to_labelling")
BOUNDS_OTHER = ("tree_count", "tree_set_count", "tree_set_count_bounds",
                "network_count_bound", "pair_count_bound", "double_factorial")

# (module, function, span name)
TARGETS = [
    ("codec", "decode_tau", "codec.decode_tau"),
    ("codec", "encode_tau", "codec.encode_tau"),
    ("model", "validate", "model.validate"),
    ("model", "is_leaf_connecting", "model.is_leaf_connecting"),
    ("generate", "enumerate_trees", "generate.enumerate_trees"),
    ("generate", "enumerate_networks", "generate.enumerate_networks"),
    ("generate", "enumerate_switchings", "generate.enumerate_switchings"),
    ("canonical", "canonical_code", "canonical.code"),  # renamed by path at exit
    ("canonical", "canonical_positions", "canonical.canonical_positions"),
    ("canonical", "automorphism_count", "canonical.automorphism_count"),
    ("display", "displayed_trees", "display.displayed_trees"),
    ("display", "displayed_tree", "display.displayed_tree"),
    ("display", "displays", "display.displays"),
    ("display", "trivial_network", "display.trivial_network"),
    ("solver", "worst_case_r", "solver.worst_case_r"),
    ("solver", "min_reticulations", "solver.min_reticulations"),
    ("solver", "verify_counts", "solver.verify_counts"),
    ("bounds", "counting_lower_bound", "bounds.counting_lower_bound"),
    ("bounds", "formula_lower_bound", "bounds.formula_lower_bound"),
    ("bounds", "verify_math_lemmas", "bounds.verify_math_lemmas"),
] + [("serialize", f, "serialize.write") for f in SERIALIZE_WRITE] \
  + [("serialize", f, "serialize.read") for f in SERIALIZE_READ] \
  + [("bounds", f, "bounds.other") for f in BOUNDS_OTHER]


class Tracer:
    def __init__(self):
        self.stack: list[list] = []           # open spans: [name, time in child spans]
        self.open: dict[str, int] = {}        # name -> open spans of that name
        self.spans: dict[tuple[str, str], list[float]] = {}  # -> [calls, busy_s, self_s]
        self.counters: dict[str, int] = {}
        self.codes: set[int] = set()          # hashes of canonical codes returned
        self.network_args: set = set()

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def wrap(self, fn, name: str):
        stack, open_, spans = self.stack, self.open, self.spans
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            open_[name] = open_.get(name, 0) + 1
            t = perf()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = perf() - t
                stack.pop()
                open_[name] -= 1
                span = name
                if observe is not None:
                    span = observe(args, kwargs, result, exc) or name
                parent = stack[-1][0] if stack else "cli"
                if stack:
                    stack[-1][1] += dt
                s = spans.setdefault((span, parent), [0, 0.0, 0.0])
                s[0] += 1
                if not open_[name]:  # busy time counts the outermost span only
                    s[1] += dt
                s[2] += dt - frame[1]

        return wrapper

    # per-function observers: counters, and the canonical path as span name

    def _observe_codec_decode_tau(self, args, kwargs, result, exc):
        if isinstance(exc, NotInImage):
            self.count("codec.decode_tau.rejects")

    def _observe_generate_enumerate_networks(self, args, kwargs, result, exc):
        if exc is not None:
            return
        key = (args, tuple(sorted(kwargs.items())))
        if key in self.network_args:
            self.count("generate.enumerate_networks.repeat_calls")
        else:
            self.network_args.add(key)
            self.count("generate.enumerate_networks.classes", len(result))

    def _observe_generate_enumerate_switchings(self, args, kwargs, result, exc):
        if exc is None:
            self.count("generate.enumerate_switchings.items", len(result))

    def _observe_display_displayed_trees(self, args, kwargs, result, exc):
        if exc is None:
            self.count("display.displayed_trees.items", len(result))

    def _observe_canonical_code(self, args, kwargs, result, exc):
        if exc is not None:
            return
        self.codes.add(hash(result.bytes))
        # header: version byte, mode byte, then T (tree path) or G (general)
        return "canonical.tree" if result.bytes[2:3] == b"T" else "canonical.general"

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "retnet" or k.startswith("retnet."))]
        for mod_name, fn_name, span in TARGETS:
            orig = getattr(sys.modules["retnet." + mod_name], fn_name)
            wrapped = self.wrap(orig, span)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)

    def report(self, run_s: float) -> dict:
        top = sum(s[1] for (_, parent), s in self.spans.items() if parent == "cli")
        return {
            "import_s": IMPORT_S,
            "run_s": run_s,
            "cli_self_s": run_s - top,
            "spans": [[name, parent, *s] for (name, parent), s in sorted(self.spans.items())],
            "counters": self.counters,
            "distinct_codes": len(self.codes),
        }


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    t = time.perf_counter()
    try:
        code = retnet.cli.run(cli_args)
    finally:
        run_s = time.perf_counter() - t
        sys.stdout.flush()
        with open(out_path, "w") as f:
            json.dump(tracer.report(run_s), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
