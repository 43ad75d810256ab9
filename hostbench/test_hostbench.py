#!/usr/bin/env python3
"""Self-test of the host-speed benchmark (hostbench/run.py).

Run from the repository root:

    python3 -m unittest hostbench/test_hostbench.py

It builds the benchmark on first use (into $CARGO_TARGET_DIR, default
.bench_build) and runs every workload at a tiny instruction budget.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = "20000"


def work_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = path if os.path.isabs(path) else os.path.join(ROOT, path)
    path = os.path.join(path, "selftest")
    os.makedirs(path, exist_ok=True)
    return path


def run(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script] + list(args),
                          capture_output=True, text=True, cwd=cwd,
                          timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class HostbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]
        cls.declared = {
            0: {m["name"]: m["unit"] for m in cls.spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in cls.spec["per_layer"]},
        }

    def tiny(self, workload, trace, *extra, seed="7"):
        proc = run("--workload", workload, "--seed", seed, "--seconds", "1",
                   "--trace", str(trace), "--instrs", TINY, *extra)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return result_of(proc)

    def test_tiny_runs_pass_and_print_exactly_the_declared_metrics(self):
        for workload in self.workloads:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = self.tiny(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {name: m["unit"]
                               for name, m in result["metrics"].items()}
                    self.assertEqual(printed, self.declared[trace])
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_default_seed_matches_checked_in_pins(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                proc = run("--workload", workload, "--seed", "0",
                           "--seconds", "1", "--trace", "0")
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.assertIn("checked: pinned", proc.stdout)
                self.assertEqual(result_of(proc)["failed"], 0)

    def test_names_and_units_are_well_formed(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            names += [m["name"] for m in self.spec[group]]
            for m in self.spec[group]:
                self.assertRegex(m["unit"], UNIT)
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        for w in self.spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_bad_arguments_exit_nonzero(self):
        bad = [
            [],
            ["--workload", "nope", "--seed", "1", "--seconds", "1"],
            ["--workload", "mcf_addrcheck", "--seconds", "1"],
            ["--workload", "mcf_addrcheck", "--seed", "-1", "--seconds", "1"],
            ["--workload", "mcf_addrcheck", "--seed", "1", "--seconds", "0"],
            ["--workload", "mcf_addrcheck", "--seed", "1", "--seconds", "x"],
            ["--workload", "mcf_addrcheck", "--seed", "1", "--seconds", "1",
             "--trace", "2"],
            ["--workload", "mcf_addrcheck", "--seed", "1", "--seconds", "1",
             "--instrs", "0"],
        ]
        for args in bad:
            with self.subTest(args=args):
                proc = run(*args)
                self.assertNotEqual(proc.returncode, 0)
                self.assertEqual(proc.stdout.strip(), "")

    def test_perturbed_pin_is_a_failed_op(self):
        pinned = os.path.join(work_dir(), "pinned.json")
        if os.path.exists(pinned):
            os.remove(pinned)
        workload = "req_serve_bounds"
        self.tiny(workload, 0, "--pinned", pinned, "--regen-pinned",
                  seed="0")
        self.assertTrue(self.tiny(workload, 0, "--pinned", pinned,
                                  seed="0")["correct"])
        with open(pinned) as f:
            pins = json.load(f)
        pins[workload]["sim"]["total_cycles"] += 1
        with open(pinned, "w") as f:
            json.dump(pins, f)
        proc = run("--workload", workload, "--seed", "0", "--seconds", "1",
                   "--trace", "0", "--instrs", TINY, "--pinned", pinned)
        self.assertNotEqual(proc.returncode, 0)
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_benchmark_alone_fails_without_a_result(self):
        alone = os.path.join(work_dir(), "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        for path in self.spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(alone, path))
        proc = run("--workload", self.workloads[0], "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=alone,
                   script=os.path.join(alone, "hostbench", "run.py"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
