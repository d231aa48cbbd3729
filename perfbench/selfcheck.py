"""Self-check of the tracer and the goldens.

    python3 perfbench/selfcheck.py            # every workload, about a minute
    python3 perfbench/selfcheck.py -k sweep   # unittest's name filter

For each workload at the pinned seed: two traced runs give identical
``.calls`` and ``f2.wht.elements``; traced outputs match the goldens byte for
byte; self times add up to the top-level time; and every wrapper is gone
before the next untraced pass.  It also checks that a set-up probe reports
its own peak memory, not the harness's.
"""

import argparse
import os
import resource
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import Tracer, installed_wrappers  # noqa: E402
from workloads import PINNED_SEED, WORKLOADS  # noqa: E402

sys.path.insert(0, run.SRC)


def traced_run(workload, work):
    session = run.Session(workload, PINNED_SEED, work)
    return session, run.measure_traced(session, seconds=0)


class TracerSelfCheck(unittest.TestCase):
    def check_workload(self, name):
        workload = WORKLOADS[name]
        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work:
            runs = [traced_run(workload, work) for _ in range(2)]
        first, second = (r[1]["traced"][0] for r in runs)
        self.assertEqual(first["calls"], second["calls"])
        self.assertEqual(first["counters"], second["counters"])
        self.assertGreater(first["calls"]["cli.main"], 0)
        for session, result in runs:
            self.assertEqual(session.failures, [])
            # traced and untraced passes alike matched the goldens
            self.assertEqual(session.golden_checked, session.attempted)
            self.assertEqual(installed_wrappers(), [])
            spans = result["traced"][0]
            # the harness calls only cli.main, and every instant inside it is
            # the self time of exactly one open span
            top = spans["incl"]["cli.main"]
            self.assertAlmostEqual(sum(spans["self"].values()), top, delta=1e-6 * top)

    def test_oracle_slice(self):
        self.check_workload("oracle-slice")

    def test_pipeline_dense(self):
        self.check_workload("pipeline-dense")

    def test_sweep_exact(self):
        self.check_workload("sweep-exact")

    def test_protocol_roundtrip(self):
        self.check_workload("protocol-roundtrip")

    def test_every_binding_is_wrapped_and_restored(self):
        import dualbench.adcomb
        import dualbench.f2

        original = dualbench.f2.wht
        self.assertIs(dualbench.adcomb.wht, original)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(dualbench.f2.wht, original)
            self.assertIs(dualbench.adcomb.wht, dualbench.f2.wht)
            self.assertIn("dualbench.matrix.BoolMatrix.take", installed_wrappers())
            dualbench.adcomb.wht([1, 0, 0, 0])
            dualbench.f2.wht([1, 0])
        finally:
            tracer.remove()
        self.assertIs(dualbench.f2.wht, original)
        self.assertIs(dualbench.adcomb.wht, original)
        self.assertEqual(installed_wrappers(), [])
        self.assertEqual(tracer.calls["f2.wht"], 2)
        self.assertEqual(tracer.counters["f2.wht.elements"], 6)

    def test_probe_reports_its_own_peak_memory(self):
        ballast = b"x" * (64 << 20)  # resident, so the harness's peak is far above the probe's
        harness_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        args = argparse.Namespace(workload="oracle-slice", seed=PINNED_SEED)
        report = run.probe(args, step=True)
        self.assertGreater(len(ballast), 0)
        self.assertLess(report["peak_rss_mb"], harness_mb - 32)
        self.assertGreater(report["peak_rss_mb"], 0)
        self.assertTrue(0 < report["wall_s"] < 60)


if __name__ == "__main__":
    unittest.main()
