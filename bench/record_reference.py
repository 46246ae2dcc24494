"""Record the reference outputs that ``run.py`` checks on the reference seed.

    python3 bench/record_reference.py [WORKLOAD ...]

Runs one iteration of each named workload (default: all) at the reference
seed and writes the summarized outputs to ``bench/reference.json``, keeping
the entries of workloads not named.  Re-record only when a change is meant to
alter the outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run


def main(names) -> int:
    run.prepare()
    import workloads

    path = run.BENCH_DIR / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as out_dir:
        for name in names or workloads.WORKLOADS:
            wl = workloads.WORKLOADS[name]
            inputs = wl.build(workloads.REFERENCE_SEED, out_dir)
            out = {}
            for op, fn in wl.ops(inputs):
                out[op] = fn(out)
            problems = wl.properties(inputs, out)
            if problems:
                raise SystemExit(f"{name}: acceptance properties fail: {problems}")
            reference[name] = wl.summarize(inputs, out)
            print(f"recorded {name}", file=sys.stderr)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
