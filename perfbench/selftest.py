"""Self-tests of the benchmark's oracles: each check passes on a real job
output and fails on the same output perturbed (one eigenvalue removed, mu
shifted by 1e-6, ...).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gapforge.bands import build_cell_graph, folded_matrices, GridSpec  # noqa: E402
from gapforge import cli  # noqa: E402

import checks  # noqa: E402
from workloads import Job  # noqa: E402

SPEC = [[1.0, 2.0], [3.0, 4.5]]
SMALL_CELL = [[0.5, 0.5, 0.2, 0.28]]


def run(job: Job) -> checks.JobResult:
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        report = cli.run_pipeline(cli.load_config(None, {**job.config, "out": tmp}))
        files = {Path(p).name: Path(p).read_text() for p in report.artifacts}
    return checks.JobResult(report.exit_code, None, files)


def edited(result: checks.JobResult, name: str, edit) -> checks.JobResult:
    """A copy of the result whose JSON artifact ``name`` went through ``edit``."""
    doc = json.loads(result.files[name])
    edit(doc)
    return checks.JobResult(result.exit_code, None, {**result.files, name: json.dumps(doc)})


def rewrite_csv(result: checks.JobResult, name: str, edit) -> checks.JobResult:
    lines = result.files[name].splitlines()
    return checks.JobResult(result.exit_code, None, {**result.files, name: "\n".join(edit(lines))})


def design_job(command: str, intervals=SPEC) -> Job:
    return Job(f"s/{command}", command, {"command": command, "intervals": intervals, "n": 3},
               meta={"spec": "s"})


class DesignChecks(unittest.TestCase):
    def setUp(self):
        self.checker = checks.Checker("design-corpus")
        self.design = design_job("design")
        self.out = run(self.design)
        self.assertEqual(self.checker.check(self.design, self.out), [None])

    def assertFails(self, job, result):
        verdict = checks.Checker("design-corpus")
        verdict.models = self.checker.models
        self.assertIsNotNone(verdict.check(job, result)[0])

    def test_mu_shifted(self):
        def shift(doc):
            doc["mu"][1] *= 1.0 + 1e-6
        self.assertFails(self.design, edited(self.out, "design.json", shift))

    def test_sigma_shifted(self):
        def shift(doc):
            doc["model"]["sigma"][0] *= 1.0 + 1e-10
        self.assertFails(self.design, edited(self.out, "design.json", shift))

    def test_m1_closed_form(self):
        job = design_job("design", [[1.0, 2.0]])
        out = run(job)
        self.assertEqual(checks.Checker("design-corpus").check(job, out), [None])

        def heavier(doc):
            doc["model"]["rho"][0] *= 1.0 + 1e-9
        self.assertFails(job, edited(out, "design.json", heavier))

    def test_limit_spectrum_gap_moved(self):
        job = design_job("limit-spectrum")
        out = run(job)
        self.assertEqual(self.checker.check(job, out), [None])

        def move(doc):
            doc["gaps"][0][1] *= 1.0 + 1e-6
        self.assertFails(job, edited(out, "limit_spectrum.json", move))

    def test_dispersion_value_changed(self):
        job = design_job("dispersion")
        out = run(job)
        self.assertEqual(self.checker.check(job, out), [None])

        def nudge(lines):
            lam, value, flag = lines[100].split(",")
            lines[100] = ",".join([lam, repr(float(value) * (1.0 + 1e-9)), flag])
            return lines
        self.assertFails(job, rewrite_csv(out, "dispersion.csv", nudge))

    def test_verify_failed(self):
        job = design_job("verify")
        out = run(job)
        self.assertEqual(self.checker.check(job, out), [None])
        self.assertFails(job, checks.JobResult(1, None, out.files))


class CellChecks(unittest.TestCase):
    ladder = Job("n3", "convergence", {"command": "convergence", "intervals": [[1.0, 2.0]], "n": 3,
                                       "channel": 0, "eps_list": [0.2, 0.1, 0.05, 0.025]})

    @classmethod
    def setUpClass(cls):
        cls.out = run(cls.ladder)

    def check(self, job, result):
        return checks.Checker("radial-ladder").check(job, result)[0]

    def column(self, name, edit):
        def rewrite(lines):
            header = lines[0].split(",")
            col = header.index(name)
            rows = [line.split(",") for line in lines[1:]]
            edit(rows, col)
            return [lines[0]] + [",".join(r) for r in rows]
        return rewrite_csv(self.out, "convergence.csv", rewrite)

    def test_passes(self):
        self.assertIsNone(self.check(self.ladder, self.out))

    def test_rayleigh_bound(self):
        def lift(rows, col):
            rows[1][col] = repr(float(rows[1][col]) * 1.01)
        self.assertIsNotNone(self.check(self.ladder, self.column("lambda1", lift)))

    def test_reference_limit(self):
        def shift(rows, col):
            for r in rows:
                r[col] = repr(float(r[col]) * (1.0 + 1e-4))
        self.assertIsNotNone(self.check(self.ladder, self.column("Lj_lambda2", shift)))

    def test_error_must_shrink(self):
        def stall(rows, col):
            rows[3][col] = rows[2][col]
        self.assertIsNotNone(self.check(self.ladder, self.column("lambda1", stall)))

    def test_cell_eigs(self):
        job = Job("c", "cell-eigs", {"command": "cell-eigs", "intervals": [[1.0, 2.0]], "n": 3,
                                     "channel": 0, "eps": 0.025, "num_eigs": 6})
        out = run(job)
        self.assertIsNone(self.check(job, out))

        def drop(doc):
            del doc["eigenvalues"][3]

        def leak(doc):
            doc["flux_ratio"] = 1.02
        self.assertIsNotNone(self.check(job, edited(out, "cell_eigs.json", drop)))
        self.assertIsNotNone(self.check(job, edited(out, "cell_eigs.json", leak)))


class BandChecks(unittest.TestCase):
    job = Job("cell", "bands", {"command": "bands", "holes": SMALL_CELL, "base_resolution": 16,
                                "theta_grid": 4, "num_bands": 6}, ops=16)

    @classmethod
    def setUpClass(cls):
        cls.out = run(cls.job)
        cls.wider = run(Job("cell", "bands", {**cls.job.config, "num_bands": 7}, ops=16))

    def verdicts(self, result):
        return checks.Checker("bubble-scan").check(self.job, result)

    def table(self, result, edit):
        def rewrite(lines):
            rows = [line.split(",") for line in lines[1:]]
            edit(rows)
            return [lines[0]] + [",".join(r) for r in rows]
        return rewrite_csv(result, "bands.csv", rewrite)

    def test_passes(self):
        self.assertEqual(self.verdicts(self.out), [None] * 16)

    def test_eigenvalue_removed(self):
        # character 5 reports lambda_1..lambda_7 without lambda_3: the
        # inertia count below lambda_6 then exceeds 5
        wide = [r.split(",") for r in self.wider.files["bands.csv"].splitlines()[1:]]
        kept = [r for r in wide if int(r[0]) == 5 and int(r[3]) != 3]

        def skip(rows):
            at = [i for i, r in enumerate(rows) if int(r[0]) == 5]
            for i, r in zip(at, kept):
                rows[i][4] = r[4]
        verdicts = self.verdicts(self.table(self.out, skip))
        self.assertIn("inertia", verdicts[5] or "")
        # the conjugate character (3, 3) no longer matches it
        self.assertIn("conj", verdicts[15] or "")

    def test_trivial_character(self):
        def lift(rows):
            rows[0][4] = "1e-8"
        self.assertIn("trivial", self.verdicts(self.table(self.out, lift))[0] or "")

    def test_known_faults_named(self):
        self.assertTrue(checks.Checker("band-sweep").is_known_fault("demo#2,2"))
        self.assertFalse(checks.Checker("bubble-scan").is_known_fault("demo#2,2"))

    def test_pencil_matches_package_fold(self):
        graph = build_cell_graph(holes=[tuple(h) for h in SMALL_CELL], grid=GridSpec(16))
        theta = [np.exp(0.7j), np.exp(-2.1j)]
        K, M = checks.bloch_pencil(graph, theta)
        K2, M2 = folded_matrices(graph, theta)

        def spectrum(K, M):
            s = 1.0 / np.sqrt(M)
            return np.linalg.eigvalsh(K.toarray() * s[:, None] * s[None, :])

        self.assertTrue(np.allclose(spectrum(K, M), spectrum(K2, M2), rtol=1e-10, atol=1e-10))
        self.assertAlmostEqual(M.sum(), M2.sum(), places=12)


class MetricNames(unittest.TestCase):
    def test_layer_metrics_match_benchmark_json(self):
        from tracer import LAYER_UNITS, Tracer

        traced = set(Tracer().layer_metrics()) | {"trace.untraced_wall_s", "trace.overhead_s"}
        self.assertEqual(traced, set(LAYER_UNITS))
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(LAYER_UNITS.items()))


class DemoGap(unittest.TestCase):
    def test_documented_tolerances(self):
        sigma, mu = checks.DEMO_SIGMA, checks.DEMO_MU
        self.assertIsNone(checks.demo_gap_problem([[1.05 * sigma, 1.25 * mu]]))
        self.assertIsNotNone(checks.demo_gap_problem([[1.11 * sigma, mu]]))
        self.assertIsNotNone(checks.demo_gap_problem([[sigma, 0.69 * mu]]))
        self.assertIsNotNone(checks.demo_gap_problem([]))


if __name__ == "__main__":
    unittest.main()
