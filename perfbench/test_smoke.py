"""Smoke tests for the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

They check that every metric BENCHMARK.json names is emitted, that the
traced counts repeat exactly, and that the output checks reject
corrupted outputs, so that a check cannot pass vacuously.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNTS = re.compile(r"\.(calls|rejects|classes|items|repeat_calls)$")


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int, seed: int = 3) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1, proc.stderr
    return doc


@pytest.fixture
def work():
    """A work directory inside the checkout, as the benchmark uses."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as d:
        yield Path(d)


@pytest.fixture(scope="module")
def traced() -> dict:
    return {w["name"]: result(w["name"], 1) for w in SPEC["workloads"]}


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_metrics_emitted(workload):
    metrics = result(workload, 0)["metrics"]
    assert list(metrics) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in metrics.values())


def test_every_layer_metric_emitted_and_moved_somewhere(traced):
    names = [name for name, _ in run.PER_LAYER]
    for doc in traced.values():
        assert list(doc["metrics"]) == names
    # each metric is non-zero on some workload, so none is misspelt
    moved = {k for doc in traced.values() for k, m in doc["metrics"].items() if m["value"]}
    assert moved >= set(names) - {"generate.enumerate_networks.repeat_calls",
                                  "trace.overhead_frac"}


def test_traced_counts_repeat(traced):
    again = result("enumerate", 1, seed=4)["metrics"]
    first = traced["enumerate"]["metrics"]
    counts = [k for k in first if COUNTS.search(k)]
    assert counts and all(first[k]["value"] == again[k]["value"] for k in counts)


def _mutations(out: str):
    """A shortened output, and one with a verdict flipped or a digit changed."""
    yield "\n".join(out.splitlines()[:-1])
    m = re.search(r"true|false|True|False", out)
    if m:
        flip = {"true": "false", "false": "true", "True": "False", "False": "True"}
        yield out[:m.start()] + flip[m.group()] + out[m.end():]
    else:
        m = re.search(r"\d", out)
        yield out[:m.start()] + str((int(m.group()) + 1) % 10) + out[m.end():]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_corrupted_outputs_fail(workload, work):
    runner = run.Runner(work)
    cmds = workloads.WORKLOADS[workload](random.Random(5), work, True,
                                         workloads.load_expected())
    runner.judge(cmds, [runner.cli(c) for c in cmds])
    assert runner.attempted == len(cmds) and runner.failed == 0
    outs = {c.name: (work / (c.name + ".out")).read_text() for c in cmds}

    def check_all(changed: dict) -> None:
        for c in cmds:
            c.check(changed.get(c.name, outs[c.name]), {**outs, **changed})

    for c in cmds:
        for bad in _mutations(outs[c.name]):
            with pytest.raises(Exception):
                check_all({c.name: bad})
        check_all({})  # the valid outputs still pass, in order


def test_reordered_listing_passes_the_slow_path(work):
    runner = run.Runner(work)
    cmds = workloads.build_enumerate(random.Random(0), work, True, workloads.load_expected())
    for c in cmds:
        runner.cli(c)
        lines = (work / (c.name + ".out")).read_text().splitlines()
        c.check("\n".join(reversed(lines)) + "\n", {})


def test_fails_without_sources(work):
    shutil.copytree(HERE, work / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", work)
    proc = bench("--workload", "bounds", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=work)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
