"""Checks of the benchmark itself: seeding, witnesses, failure counting, tracing.

    python3 perfbench/selftest.py

The name keeps it out of the package's pytest collection; it takes about
ten seconds.
"""

import json
import math
import os
import random
import shutil
import subprocess
import sys
import unittest

import run

run.import_package()

import spans  # noqa: E402
import workloads  # noqa: E402
from kgcoherent import numerics  # noqa: E402

JOB_DIR = run.OUT / "selftest"


class _Perturbed:
    """A workload whose job output is altered after the real job ran."""

    def __init__(self, base, perturb):
        self._base = base
        self._perturb = perturb

    def __getattr__(self, name):
        return getattr(self._base, name)

    def run(self, job):
        return self._perturb(job, self._base.run(job))


def _rewrite_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _rewrite_csv_row(path, row, column, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = lines[row + 1].split(",")
    fields[column] = repr(edit(float(fields[column])))
    lines[row + 1] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _run_one(workload, job):
    runner = run.Runner(workload, 0, None)
    runner.records.append(runner.execute(job, False))
    runner.check_witnesses()
    return runner.records[0]


def _first_job(name, index=0, seed=3):
    return workloads.WORKLOADS[name].round(random.Random(seed), str(JOB_DIR))[index]


class Seeding(unittest.TestCase):
    def test_seed_fixes_values_and_never_the_mix(self):
        for name, workload in workloads.WORKLOADS.items():
            def kinds(jobs):
                return [(j["kind"], j.get("levels"), j.get("samples")) for j in jobs]
            one = workload.round(random.Random(1), str(JOB_DIR))
            again = workload.round(random.Random(1), str(JOB_DIR))
            other = workload.round(random.Random(2), str(JOB_DIR))
            self.assertEqual(one, again, name)
            self.assertNotEqual(one, other, name)
            self.assertEqual(kinds(one), kinds(other), name)

    def test_alpha_argument_parses_back(self):
        from kgcoherent.cli import parse_alpha

        for alpha in ([-1.2, 0.3], [0.5, -2.0], [-0.000001, -1.0]):
            arg = workloads._alpha_arg(alpha)
            self.assertEqual(parse_alpha(arg.split("=", 1)[1]), complex(*alpha))


class Witnesses(unittest.TestCase):
    def assertPasses(self, record):
        self.assertIsNone(record["error"])
        self.assertLessEqual(record["witness_ratio"], 1.0)

    def assertFails(self, record):
        self.assertIsNotNone(record["error"])
        self.assertFalse(record["witness_ratio"] <= 1.0)

    def test_figure_series(self):
        base = workloads.WORKLOADS["figure_series"]
        job = _first_job("figure_series")
        self.assertPasses(_run_one(base, job))

        def below_floor(job, code):
            _rewrite_csv_row(job["path"], 500, 3, lambda v: 0.4999)
            return code

        def off_by_1e7(job, code):
            _rewrite_csv_row(job["path"], job["rows"][1], 1, lambda v: v * (1 + 1e-7))
            return code

        def truncated(job, code):
            with open(job["path"], encoding="utf-8") as fh:
                lines = fh.readlines()
            with open(job["path"], "w", encoding="utf-8") as fh:
                fh.writelines(lines[:-1])
            return code

        for perturb in (below_floor, off_by_1e7, truncated, lambda job, code: 1):
            self.assertFails(_run_one(_Perturbed(base, perturb), job))

    def test_spectral_oracle(self):
        base = workloads.WORKLOADS["spectral_oracle"]
        job = _first_job("spectral_oracle")
        self.assertPasses(_run_one(base, job))

        def shift_level(job, code):
            def edit(payload):
                payload["levels"][2]["fd"] *= 1 + 1e-9
            _rewrite_json(job["path"], edit)
            return code

        def not_passed(job, code):
            _rewrite_json(job["path"], lambda payload: payload.update(passed=False))
            return code

        def drop_level(job, code):
            _rewrite_json(job["path"], lambda payload: payload["levels"].pop())
            return code

        for perturb in (shift_level, not_passed, drop_level):
            self.assertFails(_run_one(_Perturbed(base, perturb), job))

    def test_coherent_checks(self):
        base = workloads.WORKLOADS["coherent_checks"]
        job = _first_job("coherent_checks")
        self.assertPasses(_run_one(base, job))

        def weight(job, result):
            result[3][1] *= 1 + 1e-8
            return result

        def phase(job, result):
            result[1][7] += 2 * workloads.PHASE_BOUND
            return result

        def eigenstate(job, result):
            result[0][2][2][5] += 1e-6
            return result

        def moment(job, result):
            result[2][4]["converged"] = False
            return result

        def grid(job, result):
            quad, series = result[4][1]
            result[4][1] = ((quad[0] + 1e-4,) + tuple(quad[1:]), series)
            return result

        def raises(job, result):
            raise FloatingPointError("injected")

        for perturb in (weight, phase, eigenstate, moment, grid, raises):
            self.assertFails(_run_one(_Perturbed(base, perturb), job))


class HostSpeed(unittest.TestCase):
    def test_times_scale_to_reference_speed(self):
        slow = 2.0 * run.REFERENCE_MS
        records = [{"kind": "a", "ms": 100.0}] * 20
        scaled, timed, scale, _ = run.end_to_end(records, [0.2] * 3, [slow] * 21, 30.0)
        self.assertEqual(scale, 0.5)
        self.assertEqual((timed["job_ms.p50"], timed["jobs_per_s"]), (100.0, 10.0))
        self.assertAlmostEqual(scaled["job_ms.p50"], 50.0)
        self.assertAlmostEqual(scaled["job_ms.tail"], 50.0)
        self.assertAlmostEqual(scaled["jobs_per_s"], 20.0)
        self.assertAlmostEqual(scaled["setup_s"], 0.1)
        self.assertEqual(scaled["peak_rss_mb"], 30.0)

    def test_each_job_scales_by_the_kernel_runs_around_it(self):
        ref = run.REFERENCE_MS
        records = [{"kind": "a", "ms": 100.0}, {"kind": "a", "ms": 100.0}]
        self.assertEqual(run.scaled_ms(records, [ref, ref, 3.0 * ref]), [100.0, 50.0])


class Tracing(unittest.TestCase):
    def test_every_predicted_counter_is_nonzero(self):
        for name, workload in workloads.WORKLOADS.items():
            tracer = spans.Tracer()
            runner = run.Runner(workload, 0, tracer)
            job = runner.new_round()[0]
            with tracer.installed():
                record = runner.execute(job, True)
            self.assertIsNone(record["error"], name)
            values = spans.layer_metrics(tracer, 1, 0.0)
            self.assertEqual(spans.completeness_problems(name, values, tracer), [], name)
            self.assertEqual(set(values), {m for m, _ in spans.layer_metric_names()})

    def test_wrappers_cover_every_namespace_and_are_removed(self):
        from kgcoherent import linear_osc, poschl_teller

        originals = (numerics.compensated_sum, numerics.bessel_k_many,
                     numerics.log_gamma)
        tracer = spans.Tracer()
        with tracer.installed():
            self.assertIsNot(linear_osc.compensated_sum, originals[0])
            self.assertIs(linear_osc.compensated_sum, numerics.compensated_sum)
            self.assertIsNot(poschl_teller.bessel_k_many, originals[1])
            self.assertIsNot(poschl_teller.log_gamma, originals[2])
        self.assertIs(linear_osc.compensated_sum, originals[0])
        self.assertIs(poschl_teller.bessel_k_many, originals[1])
        self.assertIs(numerics.log_gamma, originals[2])

    def test_self_time_excludes_children(self):
        tracer = spans.Tracer()
        with tracer.installed():
            tracer.job(0, lambda: numerics.bessel_k_many(1.5, [0.5, 1.0]))
        summary = tracer.summary()
        job = summary["total_s"][spans.JOB_SPAN]
        self.assertAlmostEqual(sum(summary["self_s"].values()), job, delta=1e-9)
        self.assertGreater(summary["self_s"]["numerics.bessel_k_many"], 0.0)


class Command(unittest.TestCase):
    def test_benchmark_json_names_what_the_runner_reports(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual({w["name"]: w["why"] for w in bench["workloads"]},
                         {n: w.why for n, w in workloads.WORKLOADS.items()})
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         spans.layer_metric_names())

    def test_short_run_prints_result_last(self):
        done = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", "coherent_checks",
             "--seed", "5", "--seconds", "1", "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END_UNITS))
        self.assertTrue(all(math.isfinite(m["value"]) and m["value"] > 0
                            for m in result["metrics"].values()))

    def test_fails_without_sources(self):
        bare = run.OUT / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.BENCH.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "figure_series",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    os.makedirs(JOB_DIR, exist_ok=True)
    unittest.main()
