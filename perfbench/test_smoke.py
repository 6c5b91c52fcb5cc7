"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once untraced and once traced with ``--scale
smoke`` and asserts that every metric named in ``BENCHMARK.json`` is
emitted with its unit and that every output check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracing import ROOT as ROOT_SPAN  # noqa: E402
from tracing import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(
        ROOT,
        "--workload", workload,
        "--seed", "3",
        "--seconds", "1",
        "--trace", str(trace),
        "--scale", "smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
        if not trace:
            assert emitted["value"] > 0, metric["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(
        str(tmp_path), "--workload", "serial-dtlz2", "--seed", "1", "--seconds", "1"
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_quality_is_judged_on_the_median_front():
    # One low front (a seed's tail, as 0.49 on DTLZ2-5 at 4000 NFE) does
    # not decide the run; the median over every interpreter's fronts does.
    first, second = {"hv": [0.49, 0.61, 0.60]}, {"hv": [0.62, 0.58]}
    assert run.median_hv([first, second]) == 0.60
    assert run.median_hv([{"hv": []}]) is None


class _Base:
    def inherited(self, x):
        return x + 1


class _Subject(_Base):
    def outer(self, x):
        return self.inner(x) + self.inherited(x)

    def inner(self, x):
        return 2 * x

    @classmethod
    def build(cls):
        return cls()


def test_tracer_nests_spans_and_restores_attributes():
    module = types.ModuleType("subject")
    module.helper = lambda: _Subject.build().outer(3)
    originals = (vars(_Subject)["outer"], vars(_Subject)["build"], module.helper)
    tracer = Tracer("unit")
    tracer.wrap(_Subject, "outer", "outer")
    tracer.wrap(_Subject, "inner", "inner")
    tracer.wrap(_Subject, "inherited", "inherited")
    tracer.wrap(_Subject, "build", "build")
    tracer.wrap(module, "helper", "helper")
    with tracer.rep(0):
        assert module.helper() == 10
    tracer.remove()

    assert (vars(_Subject)["outer"], vars(_Subject)["build"], module.helper) == originals
    assert "inherited" not in vars(_Subject)
    assert tracer.calls == {n: 1 for n in ("outer", "inner", "inherited", "build", "helper", ROOT_SPAN)}
    by_id = {span[0]: span for span in tracer.spans}
    parent_name = {span[2]: by_id[span[1]][2] for span in tracer.spans if span[1]}
    assert parent_name == {
        "inner": "outer",
        "inherited": "outer",
        "outer": "helper",
        "build": "helper",
        "helper": ROOT_SPAN,
    }
    assert {span[5] for span in tracer.spans} == {"unit-rep0"}
    total = sum(tracer.self_time.values())
    assert total == pytest.approx(tracer.inclusive[ROOT_SPAN], abs=1e-9)
