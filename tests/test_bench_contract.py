"""The benchmark's contract with the library, checked without running it.

``bench/spans.py`` wraps hamlab functions by the names modules bind them to,
and ``bench/workloads.py`` checks every output of an iteration against
``bench/reference.json``.  For each workload at the reference seed this test
runs one iteration through the benchmark's own traced path
(``run.traced_run``: the tracer refuses a wrapped name bound in no hamlab
module), counts its failures as the benchmark does (``Iteration.account``),
and checks that every wrapped name is restored afterwards.  ``bench/`` is
imported as it is.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import run
        import spans
        import workloads

        yield run, spans, workloads
    finally:
        sys.path.remove(str(BENCH))


def bindings():
    """What every attribute of the hamlab modules and of the classes they
    define resolves to, and numpy.linalg.eigvalsh: the names the tracer may
    rebind.  A class attribute is looked up along its MRO, since restoring an
    inherited method leaves the original bound on the subclass itself."""
    import numpy.linalg

    modules = [m for name, m in sys.modules.items() if m is not None and name.split(".")[0] == "hamlab"]
    snap = {(id(m), attr): value for m in modules for attr, value in vars(m).items()}
    for cls in {v for m in modules for v in vars(m).values() if isinstance(v, type)}:
        for base in reversed(cls.__mro__[:-1]):
            snap.update({(id(cls), attr): value for attr, value in vars(base).items()})
    snap["eigvalsh"] = numpy.linalg.eigvalsh
    return snap


@pytest.mark.parametrize("name", ["bnf_float", "bnf_exact", "drift_ensemble", "genericity"])
def test_traced_iteration_meets_the_reference(name, bench, tmp_path):
    run, spans, workloads = bench
    reference = json.loads((BENCH / "reference.json").read_text())
    seed = workloads.REFERENCE_SEED
    it = run.Iteration(name, workloads.WORKLOADS[name].build(seed, str(tmp_path)), seed, reference)
    before = bindings()
    _, outcome, layers = run.traced_run(it, spans.Tracer(), name)
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert layers
    it.account(outcome)
    assert (it.attempted, it.failed) == (len(outcome[0]), 0)
