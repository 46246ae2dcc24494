"""Tests of the benchmark itself (about one minute):

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the default test collection: it runs real
workload iterations, which the library's own test suite does not need.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

import run

run.prepare()

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((run.BENCH_DIR / "reference.json").read_text())
COUNTS = [e["name"] for e in SPEC["per_layer"] if e["unit"] == "count"]


def _bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


@pytest.fixture(scope="module")
def traced():
    """Two traced iterations of every workload at the reference seed:
    name -> (inputs, [(outcome, layer metrics), (outcome, layer metrics)])."""
    run.OUT_DIR.mkdir(exist_ok=True)
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        inputs = wl.build(workloads.REFERENCE_SEED, str(run.OUT_DIR))
        it = run.Iteration(name, inputs, workloads.REFERENCE_SEED, REFERENCE)
        runs = []
        for k in range(2):
            _, outcome, metrics = run.traced_run(it, spans.Tracer(), f"{name}-{k}")
            runs.append((outcome, metrics))
            it.account(outcome)
        assert it.failed == 0, name
        out[name] = (inputs, runs)
    return out


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_emitted_with_unit(workload, trace, section):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {e["name"]: e["unit"] for e in SPEC[section]}
    got = result["metrics"]
    assert set(got) == set(want)
    for name, unit in want.items():
        assert got[name]["unit"] == unit
        assert isinstance(got[name]["value"], (int, float)) and math.isfinite(got[name]["value"])


def test_counts_repeat_across_traced_runs(traced):
    for name, (_, runs) in traced.items():
        first, second = (m for _, m in runs)
        assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}, name


def test_each_workload_exercises_its_layers(traced):
    m = {name: runs[0][1] for name, (_, runs) in traced.items()}
    assert m["bnf_float"]["birkhoff.remainder_curve_s"] > 0
    assert m["bnf_float"]["exactnum.mul_calls"] == 0
    assert m["bnf_exact"]["exactnum.mul_calls"] > 0 and m["bnf_exact"]["exactnum.div_calls"] > 0
    assert m["drift_ensemble"]["dynamics.field_evals"] > m["drift_ensemble"]["dynamics.batched_steps"] > 0
    assert m["drift_ensemble"]["dynamics.rows_ok_frac"] == 1.0
    assert m["genericity"]["sdm.eigvalsh_calls"] > 0 and m["genericity"]["diophantine.shell_array_calls"] > 0
    assert m["genericity"]["birkhoff.calls"] == 0 and m["genericity"]["dynamics.calls"] == 0
    for name in ("bnf_float", "genericity"):
        assert m[name]["lab.artifact_bytes"] > 0


def _failures_after(name, traced, corrupt, seed=workloads.REFERENCE_SEED):
    inputs, runs = traced[name]
    names, out, broken = runs[0][0]
    out = copy.deepcopy(out)
    corrupt(out)
    it = run.Iteration(name, inputs, seed, REFERENCE)
    it.account((names, out, broken))
    return it.failed / it.attempted


def test_flipped_exact_coefficient_is_an_error(traced):
    def flip(out):
        terms = out["normal_form_m3"].h_m.terms
        k = sorted(terms)[-1]
        terms[k] = terms[k] + Fraction(1, 10**12)

    assert _failures_after("bnf_exact", traced, flip) > 0


def test_float_beyond_tolerance_is_an_error(traced):
    def perturb(out):
        out["midpoint"].drifts[0] *= 1.0 + 1e-3

    assert _failures_after("drift_ensemble", traced, perturb) > 0

    def nudge(out):
        out["remainder_scaling"].csv_rows[0]["remainder_majorant"] *= 1.0 + 1e-6

    assert _failures_after("bnf_float", traced, nudge) > 0


def test_float_within_tolerance_is_not_an_error(traced):
    def perturb(out):
        out["midpoint"].drifts[0] *= 1.0 + 1e-7

    assert _failures_after("drift_ensemble", traced, perturb) == 0


def test_broken_property_is_an_error_on_any_seed(traced):
    def escape(out):
        out["gauss4"].statuses[0] = "left_domain"

    assert _failures_after("drift_ensemble", traced, escape, seed=12345) > 0

    def resonate(out):
        out["fit_tau"] = (0.1, 0.0)

    assert _failures_after("genericity", traced, resonate, seed=12345) > 0


def test_fails_without_the_program():
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "bnf_float", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
