#!/usr/bin/env python3
"""Tests of the benchmark itself: the catalog, the output format, and a
tiny-size smoke run of every workload at two seeds.

    python3 perfbench/test_bench.py
"""
import json
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py: builds atm_bench)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# A thread, lane or worker count baked into a name (the `_t4` bug class).
HOST_PART = re.compile(r"(^|[._-])(t|l|w|threads?|lanes?|workers?|cpus?|nproc)\d+($|[._-])")


def unique_pairs(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError("duplicate key in %s" % keys)
    return dict(pairs)


def drive(*args, cpus=None):
    """Run atm_bench; returns (host block, result) from its last two lines."""
    preexec = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    out = subprocess.run([str(run.BINARY), *args], capture_output=True, text=True,
                         preexec_fn=preexec, timeout=120)
    if out.returncode != 0:
        raise AssertionError("atm_bench failed (%d): %s" % (out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    return (json.loads(lines[-2], object_pairs_hook=unique_pairs)["host"],
            json.loads(lines[-1], object_pairs_hook=unique_pairs))


def tiny(workload, seed, trace, cpus=None):
    return drive("--workload", workload, "--seed", str(seed), "--seconds", "0.3",
                 "--trace", str(trace), "--scale", "tiny", cpus=cpus)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        out = subprocess.run([str(run.BINARY), "--manifest"], capture_output=True,
                             text=True, check=True)
        cls.manifest = json.loads(out.stdout, object_pairs_hook=unique_pairs)
        cls.workloads = [w["name"] for w in cls.manifest["workloads"]]

    def test_manifest_is_the_checked_in_benchmark_json(self):
        checked_in = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(checked_in, self.manifest)

    def test_catalog_names_and_units(self):
        m = self.manifest
        names = [x["name"] for x in m["workloads"] + m["end_to_end"] + m["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
            self.assertNotRegex(name, HOST_PART)
        for metric in m["end_to_end"] + m["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        bounds = {x["name"]: x["bound"] for x in m["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def check_result(self, result, catalog):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        # Every declared metric exactly once (duplicates fail in unique_pairs),
        # in catalog order, with the catalog's unit.
        self.assertEqual(list(result["metrics"]), [x["name"] for x in catalog])
        for x in catalog:
            value = result["metrics"][x["name"]]
            self.assertEqual(value["unit"], x["unit"])
            self.assertIsInstance(value["value"], (int, float))

    def test_smoke_every_workload_at_two_seeds(self):
        for workload in self.workloads:
            for seed in (1, 2):
                with self.subTest(workload=workload, seed=seed):
                    host, result = tiny(workload, seed, 0)
                    self.check_result(result, self.manifest["end_to_end"])
                    for x in self.manifest["end_to_end"]:
                        self.assertGreater(result["metrics"][x["name"]]["value"], 0)
                    self.assertEqual(host["lanes"], host["workers"] + 1)
                    self.assertLessEqual(host["lanes"], max(2, host["nproc"] - 1))

    def test_traced_layers_apply_and_account_for_lane_time(self):
        layer = self.manifest["per_layer"]
        for workload in self.workloads:
            with self.subTest(workload=workload):
                _, result = tiny(workload, 3, 1)
                self.check_result(result, layer)
                v = {k: x["value"] for k, x in result["metrics"].items()}
                shares = ("runtime.creation_pct", "sched.idle_pct", "sched.help_pct",
                          "atm.hash_pct", "atm.memoize_pct", "exec.task_pct",
                          "attrib.unattributed_pct")
                self.assertAlmostEqual(sum(v[s] for s in shares), 100.0, places=6)
                self.assertGreater(v["exec.ms_total"], 0)
                self.assertGreater(v["apps.off_run_ms_p50"], 0)
                if workload == "task-storm":
                    self.assertGreater(v["runtime.submit_ns_p50"], 0)
                    self.assertGreater(v["runtime.taskwait_ms_p50"], 0)
                    self.assertEqual(v["atm.hash_ns_p50"], 0)
                else:
                    self.assertGreater(v["atm.hash_ns_p50"], 0)
                    self.assertGreater(v["atm.update_ns_p50"], 0)
                if workload == "bs-reuse":
                    self.assertGreater(v["apps.reuse_pct"], 0)

    def test_names_do_not_depend_on_the_host(self):
        narrow_host, narrow = tiny("task-storm", 1, 1, cpus={0})
        _, wide = tiny("task-storm", 1, 1)
        self.assertEqual(narrow_host["nproc"], 1)
        self.assertEqual(list(narrow["metrics"]), list(wide["metrics"]))

    def test_rejects_bad_arguments(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
                     ["--workload", "bs-reuse", "--seed", "1", "--seconds", "1",
                      "--trace", "2"]):
            out = subprocess.run([str(run.BINARY), *args], capture_output=True, text=True)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
