#!/usr/bin/env python3
"""Self-test of the end-to-end solve benchmark, on shrunken matrices.

    python3 e2ebench/selftest.py

Run it from the repository root. For every workload in BENCHMARK.json
it makes a small (--small) end-to-end run, traced run and corrupted
run, and checks that
  - each run prints exactly the metrics BENCHMARK.json names for its
    mode, each with its declared unit, and passes the oracle;
  - the traced run's accel shares and accel.unattributed_share add up
    to 1, and accel.unattributed_share stays within
    UNATTRIBUTED_BOUND;
  - exec.determinism_mismatches is 0, and accel.model_mcycles and
    solvers.iterations repeat exactly in a second traced run;
  - a run with one deliberately corrupted solution reports that job as
    failed and the run as incorrect.
It exits non-zero at the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step lives in run.py)

# The traced breakdown must explain Acamar::run to within this share.
UNATTRIBUTED_BOUND = 0.10

# The parts of Acamar::run the traced run times; with the residue they
# cover the whole call.
ACCEL_SHARES = [
    "accel.analyze_share",
    "accel.plan_share",
    "accel.replay_share",
    "solvers.solve_share",
    "accel.unattributed_share",
]


def expect(ok, what, detail=""):
    if not ok:
        sys.exit("selftest FAILED: %s\n%s" % (what, detail))
    print("ok   " + what)


def result(binary, args):
    """Run e2e_solve; return (result object, stderr)."""
    proc = subprocess.run([binary] + args, capture_output=True, text=True,
                          timeout=300, check=False)
    expect(proc.returncode == 0, " ".join(args) + " exits 0", proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    binary = run.build()
    for workload in spec["workloads"]:
        name = workload["name"]
        base = ["--workload", name, "--seed", "7", "--seconds", "3",
                "--small"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            res, err = result(binary, base + ["--trace", str(trace)])
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want,
                   "%s --trace %d prints every %s metric with its unit"
                   % (name, trace, kind), "want %s\ngot  %s" % (want, got))
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] > 0,
                   "%s --trace %d passes the oracle" % (name, trace), err)

        layer = {k: v["value"] for k, v in res["metrics"].items()}
        total = sum(layer[k] for k in ACCEL_SHARES)
        expect(abs(total - 1.0) < 1e-9,
               "%s accel shares add up to 1 (%.12f)" % (name, total))
        residue = layer["accel.unattributed_share"]
        expect(abs(residue) <= UNATTRIBUTED_BOUND,
               "%s |accel.unattributed_share| = %.4f <= %.2f"
               % (name, abs(residue), UNATTRIBUTED_BOUND))
        expect(layer["exec.determinism_mismatches"] == 0,
               "%s reports match the serial reference" % name)
        again, _ = result(binary, base + ["--trace", "1"])
        for exact in ("accel.model_mcycles", "solvers.iterations"):
            expect(again["metrics"][exact]["value"] == layer[exact],
                   "%s %s repeats exactly" % (name, exact))

        res, err = result(binary, base + ["--trace", "0",
                                          "--corrupt-job", "0"])
        expect(not res["correct"] and res["failed"] >= 1
               and "FAILED timed job 0 (" in err,
               "%s counts a corrupted solution as failed (%d of %d)"
               % (name, res["failed"], res["attempted"]), err)


if __name__ == "__main__":
    main()
