"""retnet benchmark: run one workload of CLI commands and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is one ``python -m retnet.cli ...`` process, started
and waited for one at a time, as a user runs it. The program comes
from ``src/`` of the checkout this file sits in. Inputs are made from
the seed; every output is checked after the timed commands, by code
that does not import retnet (see ``oracle.py``).

A run repeats whole passes over the workload's commands. It always
finishes one pass and starts another only while the elapsed time plus
the last pass fits in ``--seconds``. Each command's time is its median
over the passes, and the times are scaled to the reference box's speed
by a job that runs no retnet code (``reference_job.py``); outputs are
checked after the last pass. ``--trace 1``
runs each distinct command once untraced and once under
``traced_cli.py``, and reports per-module numbers instead.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. A progress table goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_ARGS = ["trees", "--n", "1", "--count-only"]  # a ready CLI doing no work
PROBES_PER_PASS = 3    # no-work invocations, spread over each pass
# The shared machine's speed drifts by up to half over minutes, in CPU
# time as much as in wall time. A fixed job that runs no retnet code
# (``reference_job.py``) runs next to each no-work invocation, and the
# run's times are scaled by REFERENCE_S over its median time: they read
# as on the reference box at its usual speed.
REFERENCE_JOB = HERE / "reference_job.py"
REFERENCE_S = 0.12     # the job's median wall time on the reference box, in a quiet spell
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever the program does

LOC_MODULES = ["__init__", "bounds", "canonical", "cli", "codec", "display", "errors",
               "generate", "model", "serialize", "solver"]

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

PER_LAYER_NAMES = """
codec.decode_tau.calls codec.decode_tau.busy_s codec.decode_tau.self_s
codec.decode_tau.rejects codec.decode_tau.accept_ratio
codec.encode_tau.calls codec.encode_tau.busy_s
model.validate.calls model.validate.busy_s model.is_leaf_connecting.busy_s
generate.enumerate_trees.calls generate.enumerate_trees.busy_s
generate.enumerate_networks.calls generate.enumerate_networks.busy_s
generate.enumerate_networks.self_s generate.enumerate_networks.classes
generate.enumerate_networks.repeat_calls
generate.enumerate_switchings.calls generate.enumerate_switchings.items
generate.enumerate_switchings.busy_s
canonical.tree.calls canonical.tree.busy_s canonical.general.calls canonical.general.busy_s
canonical.canonical_positions.calls canonical.canonical_positions.busy_s
canonical.automorphism_count.calls canonical.automorphism_count.busy_s
canonical.new_class_ratio
display.displayed_trees.calls display.displayed_trees.busy_s display.displayed_trees.self_s
display.displayed_tree.calls display.displayed_tree.busy_s
display.displays.calls display.displays.busy_s
display.switchings_per_query display.distinct_ratio display.trivial_network.busy_s
solver.worst_case_r.busy_s solver.worst_case_r.self_s
solver.min_reticulations.calls solver.min_reticulations.busy_s solver.min_reticulations.self_s
solver.verify_counts.self_s
serialize.write.calls serialize.write.busy_s serialize.read.calls serialize.read.busy_s
bounds.counting_lower_bound.calls bounds.counting_lower_bound.busy_s
bounds.formula_lower_bound.busy_s bounds.verify_math_lemmas.busy_s bounds.other.busy_s
cli.import_s cli.self_s cli.stdout_bytes
""".split() + ["loc.src"] + [f"loc.{m}" for m in LOC_MODULES] + ["trace.overhead_frac"]


def unit_of(name: str) -> str:
    if name.startswith("loc."):
        return "lines"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "_frac", "per_query")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


PER_LAYER = [(name, unit_of(name)) for name in PER_LAYER_NAMES]


class Runner:
    """Spawns CLI processes in a work directory and judges their outputs."""

    def __init__(self, work: Path):
        self.work = work
        self.start = time.perf_counter()
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
                        PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0

    def spawn(self, argv: list[str], out_name: str) -> dict:
        """Run argv to exit; wall time from spawn to exit, CPU and RSS from rusage."""
        with open(self.work / out_name, "wb") as out, \
                open(self.work / (out_name + ".err"), "wb") as err:
            t = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.work, env=self.env)
            # a blocking wait4, not a polling wait, so that times are not quantized
            watchdog = threading.Timer(max(RUN_LIMIT_S - (t - self.start), 0.1), proc.kill)
            watchdog.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall": wall, "cpu": ru.ru_utime + ru.ru_stime, "code": proc.returncode,
                "rss_mb": ru.ru_maxrss / 1024}

    def cli(self, cmd: workloads.Command) -> dict:
        return self.spawn([sys.executable, "-m", "retnet.cli", *cmd.args], cmd.name + ".out")

    def judge(self, cmds, samples, where: Path | None = None) -> None:
        """Count each command; it fails on a non-zero exit or a failed check."""
        where = where or self.work
        outs = {c.name: (where / (c.name + ".out")).read_text() for c in cmds}
        for c, s in zip(cmds, samples):
            self.attempted += 1
            why = None
            if s["code"] != 0:
                err = (where / (c.name + ".out.err")).read_text().strip().splitlines()
                why = f"exit {s['code']}: {err[-1] if err else ''}"
            else:
                try:
                    c.check(outs[c.name], outs)
                except Exception as exc:  # any check error is this command's failure
                    why = f"check: {type(exc).__name__}: {exc}"
            if why:
                self.failed += 1
                print(f"FAIL {c.name}: {' '.join(c.args)}: {why}", file=sys.stderr)

    def reference(self) -> float:
        """One run of the reference job; its wall time."""
        sample = self.spawn([sys.executable, str(REFERENCE_JOB)], "reference.out")
        if sample["code"] != 0:
            raise RuntimeError(f"reference job exited {sample['code']}")
        return sample["wall"]

    def probe(self) -> float:
        """One no-work invocation, judged; returns its wall time."""
        cmd = workloads.Command("setup", SETUP_ARGS, _check_setup)
        sample = self.cli(cmd)
        self.judge([cmd], [sample])
        return sample["wall"]


def _check_setup(out: str, _) -> None:
    workloads.require(out.strip() == "1", "no-work invocation printed the wrong count")


def timed_run(runner: Runner, cmds, seconds: float) -> dict:
    runner.probe()  # warm-up: byte-compiles src/ once, as an installed package has
    t0 = time.perf_counter()
    passes, setup, reference = [], [], []
    while True:
        t = time.perf_counter()
        samples = []
        for i, c in enumerate(cmds):
            # set-up probes are spread over the pass, so that a slow spell
            # of a shared machine does not catch them all
            if i * PROBES_PER_PASS % len(cmds) < PROBES_PER_PASS:
                setup.append(runner.probe())
                reference.append(runner.reference())
            samples.append(runner.cli(c))
        passes.append(samples)
        kept = runner.work / f"pass{len(passes)}"
        kept.mkdir()
        for c in cmds:
            for suffix in (".out", ".out.err"):
                os.replace(runner.work / (c.name + suffix), kept / (c.name + suffix))
        took = time.perf_counter() - t
        _print_pass(cmds, samples)
        if time.perf_counter() - t0 + took > seconds:
            break
    # Checks wait until no more children start: a child's max-RSS counts
    # this process's peak at the spawn, and reading outputs raises it.
    for k, samples in enumerate(passes, 1):
        runner.judge(cmds, samples, runner.work / f"pass{k}")
    med = statistics.median
    # each command counts at its median over the passes
    runs = list(zip(*passes))
    latency = [med(s["wall"] for s in r) for r in runs]
    scale = REFERENCE_S / med(reference)
    values = {
        "wall_s": sum(latency),
        "cpu_s": sum(med(s["cpu"] for s in r) for r in runs),
        "setup_s": med(setup),
        "peak_rss_mb": max(med(s["rss_mb"] for s in r) for r in runs),
    }
    # Single-command latencies move with the machine's slow spells more
    # than the sums do, too much to carry a bound, so they are shown here only.
    print(f"{len(passes)} pass(es), {len(setup)} set-up probes, "
          f"cmd_p50_s {med(latency):.4f}, cmd_max_s {max(latency):.4f}; unscaled: "
          + ", ".join(f"{k} {v:.4f}" for k, v in values.items()) + f"; scale {scale:.4f}",
          file=sys.stderr)
    for name in ("wall_s", "cpu_s", "setup_s"):
        values[name] *= scale
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced_run(runner: Runner, cmds) -> dict:
    runner.probe()  # warm-up only; set-up is an end-to-end metric
    # counts are per distinct command: a repeat adds time samples, not work
    distinct: dict[tuple, workloads.Command] = {}
    for c in cmds:
        distinct.setdefault(tuple(c.args), c)
    cmds = list(distinct.values())
    plain, traced, traces = [], [], []
    for c in cmds:
        plain.append(runner.cli(c))
        trace_file = runner.work / (c.name + ".trace.json")
        traced.append(runner.spawn([sys.executable, str(HERE / "traced_cli.py"),
                                    str(trace_file), *c.args], c.name + ".traced"))
        traces.append(json.loads(trace_file.read_text()) if trace_file.exists() else None)
    runner.judge(cmds, plain)
    for c, s, trace in zip(cmds, traced, traces):
        # a traced command is one more operation: it must exit 0, leave
        # its trace, and print exactly what the untraced command printed
        runner.attempted += 1
        if not (s["code"] == 0 and trace is not None
                and (runner.work / (c.name + ".traced")).read_bytes()
                == (runner.work / (c.name + ".out")).read_bytes()):
            runner.failed += 1
            print(f"FAIL {c.name} traced: output differs or no trace", file=sys.stderr)
    _print_pass(cmds, plain)
    stdout_bytes = sum((runner.work / (c.name + ".out")).stat().st_size for c in cmds)
    overhead = sum(s["wall"] for s in traced) / sum(s["wall"] for s in plain) - 1
    values = layer_values([t for t in traces if t is not None], stdout_bytes, overhead)
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}


def layer_values(traces: list[dict], stdout_bytes: int, overhead: float) -> dict:
    by_name = defaultdict(lambda: [0, 0.0, 0.0])   # span -> calls, busy_s, self_s
    by_parent = defaultdict(int)                   # (span, parent) -> calls
    counters = defaultdict(int)
    distinct = 0
    for t in traces:
        for name, parent, calls, busy, self_s in t["spans"]:
            agg = by_name[name]
            agg[0] += calls
            agg[1] += busy
            agg[2] += self_s
            by_parent[name, parent] += calls
        for k, v in t["counters"].items():
            counters[k] += v
        distinct += t["distinct_codes"]
    v: dict[str, float] = dict(counters)
    for name, (calls, busy, self_s) in by_name.items():
        v[f"{name}.calls"], v[f"{name}.busy_s"], v[f"{name}.self_s"] = calls, busy, self_s

    def ratio(a, b):
        return a / b if b else 0.0

    decodes = v.get("codec.decode_tau.calls", 0)
    v["codec.decode_tau.accept_ratio"] = ratio(decodes - v.get("codec.decode_tau.rejects", 0),
                                               decodes)
    codes = v.get("canonical.tree.calls", 0) + v.get("canonical.general.calls", 0)
    v["canonical.new_class_ratio"] = ratio(distinct, codes)
    v["display.switchings_per_query"] = ratio(
        by_parent["display.displayed_tree", "display.displays"], v.get("display.displays.calls", 0))
    v["display.distinct_ratio"] = ratio(
        counters["display.displayed_trees.items"],
        by_parent["display.displayed_tree", "display.displayed_trees"])
    v["cli.import_s"] = statistics.median(t["import_s"] for t in traces) if traces else 0.0
    v["cli.self_s"] = sum(t["cli_self_s"] for t in traces)
    v["cli.stdout_bytes"] = stdout_bytes
    v.update(loc_counts())
    v["trace.overhead_frac"] = overhead
    return v


def loc_counts() -> dict[str, int]:
    pkg = SRC / "retnet"
    lines = {p.stem: len(p.read_text().splitlines()) for p in pkg.glob("*.py")}
    out = {f"loc.{m}": lines.get(m, 0) for m in LOC_MODULES}
    out["loc.src"] = sum(lines.values())
    return out


def _print_pass(cmds, samples) -> None:
    for c, s in zip(cmds, samples):
        print(f"{s['wall']:8.3f}s {s['cpu']:8.3f}cpu {s['rss_mb']:7.1f}MB  {' '.join(c.args)}",
              file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small points, for the smoke tests")
    args = ap.parse_args(argv)
    if not (SRC / "retnet" / "cli.py").is_file():
        print(f"error: no retnet sources under {SRC}", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(work)
        rng = random.Random(args.seed)
        cmds = workloads.WORKLOADS[args.workload](rng, work, args.tiny, workloads.load_expected())
        if args.trace:
            metrics = traced_run(runner, cmds)
        else:
            metrics = timed_run(runner, cmds, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
