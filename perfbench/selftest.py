#!/usr/bin/env python3
"""Self-tests of the benchmark itself; each runs in seconds.

    python3 perfbench/selftest.py

- the golden-digest check flags a one-byte change in an output;
- every metric name and unit the benchmark emits matches BENCHMARK.json;
- the failure count (fail_frac = failed / attempted) includes a failed
  config, a non-ok experiment, a non-ok serve reply and a digest mismatch.

The reply classifier of the compiled serve client is checked through
`perfbench_driver selftest` when the driver has been built.
"""
import inspect
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SCRATCH = run.RUNS / "selftest"


def fake_cli_run(root, statuses=None, failures=()):
    """A run directory shaped like `bricksim run fig3 table2 --out root`."""
    exps = ["fig3", "table2"]
    for e in exps:
        (root / e).mkdir(parents=True)
        (root / e / "output.txt").write_text(f"{e} output\n")
        (root / e / "tables.json").write_text(json.dumps({"experiment": e}))
    (root / "run_summary.json").write_text(json.dumps({
        "cache": {"configs_simulated": 3},
        "experiment_status": statuses or {e: "ok" for e in exps},
        "failures": list(failures),
    }))
    return exps


def golden_for(root, exps):
    g = run.Golden(record=True)
    g.data = {}
    run.check_cli_outputs(root, exps, g, "w", run.Tally())
    g.record = False
    return g


class BenchSelfTest(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_digest_flags_one_byte_change(self):
        root = SCRATCH / "out"
        exps = fake_cli_run(root)
        golden = golden_for(root, exps)
        clean = run.Tally()
        run.check_cli_outputs(root, exps, golden, "w", clean)
        self.assertEqual(clean.failed, 0)
        path = root / "fig3" / "output.txt"
        data = bytearray(path.read_bytes())
        data[0] ^= 0x01
        path.write_bytes(bytes(data))
        flipped = run.Tally()
        run.check_cli_outputs(root, exps, golden, "w", flipped)
        self.assertEqual(flipped.failed, 1)
        self.assertNotEqual(run.fnv1a(b"table\n"), run.fnv1a(b"tablf\n"))

    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.LAYER_UNITS)
        self.assertLessEqual({w["name"] for w in spec["workloads"]},
                             set(run.WORKLOADS))
        # End-to-end: every workload's result dict names exactly these.
        for fn in (run.cli_e2e, run.serve_e2e):
            keys = set(re.findall(r'^\s+"([a-z0-9_]+)":', inspect.getsource(fn),
                                  re.M))
            self.assertEqual(keys, set(run.E2E_UNITS), fn.__name__)
        # Per-layer: the driver's metrics plus the ones run.py derives.
        emitted = set(re.findall(r'm\["([a-z0-9_.]+)"\]',
                                 (run.BENCH / "driver.cpp").read_text()))
        emitted |= set(re.findall(r'm\["([a-z0-9_.]+)"\]',
                                  inspect.getsource(run.traced)))
        self.assertEqual(emitted, set(run.LAYER_UNITS))
        block = run.metrics_block({k: 1.0 for k in run.E2E_UNITS}, run.E2E_UNITS)
        self.assertEqual({k: v["unit"] for k, v in block.items()}, run.E2E_UNITS)
        with self.assertRaises(run.BenchError):
            run.metrics_block({"wall_s": 1.0}, run.E2E_UNITS)

    def test_failures_counted(self):
        root = SCRATCH / "out"
        exps = fake_cli_run(root)
        golden = golden_for(root, exps)
        shutil.rmtree(root)
        fake_cli_run(root, statuses={"fig3": "degraded", "table2": "ok"},
                     failures=[{"site": "launch", "platform": "A100/CUDA",
                                "stencil": "7pt", "variant": "array"}])
        t = run.Tally()
        run.check_cli_outputs(root, exps, golden, "w", t)
        self.assertEqual(t.failed, 2)  # one failed config, one bad experiment
        self.assertEqual(t.attempted, 3 + 2 + 4)
        reply = {"sent": 10, "non_ok": 1, "mismatch": 1, "observed": {},
                 "bad": ["experiment:fig3:64: {\"ok\":false}"]}
        run.check_client(reply, golden, "w", t)
        self.assertEqual((t.attempted, t.failed), (19, 4))

    def test_driver_reply_classifier(self):
        if not run.DRIVER.exists():
            self.skipTest("perfbench_driver not built (run perfbench/run.py once)")
        out = subprocess.run([str(run.DRIVER), "selftest"], capture_output=True,
                             text=True)
        self.assertEqual(out.returncode, 0, out.stderr)


if __name__ == "__main__":
    unittest.main()
