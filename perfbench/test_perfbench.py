#!/usr/bin/env python3
"""Self-tests of the benchmark: short traced and untraced runs of every
workload, checking the conservation laws and dominance claims the metrics
rest on. Run from the repository root (builds like run.py does):

    python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "3"


def run(workload, trace, seed=5):
    """Runs one workload; returns (exit code, report lines, summary)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines else None
    return done.returncode, lines, summary


def value(summary, name):
    return summary["metrics"][name]["value"]


def digest(lines):
    return [line for line in lines if line.startswith("loss bits digest")]


class TracedRuns(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for workload in ("train_transformer", "train_wide_socket",
                         "serve_open_loop"):
            cls.runs[workload] = run(workload, 1)

    def test_runs_are_correct(self):
        for workload, (code, lines, summary) in self.runs.items():
            with self.subTest(workload=workload):
                self.assertEqual(code, 0, "\n".join(lines[-20:]))
                self.assertTrue(summary["correct"])
                self.assertEqual(summary["failed"], 0)
                self.assertGreater(summary["attempted"], 0)

    def test_phase_coverage(self):
        for workload in ("train_transformer", "train_wide_socket"):
            summary = self.runs[workload][2]
            self.assertGreaterEqual(value(summary, "train.phase_coverage"),
                                    0.95, workload)

    def test_dominant_layer(self):
        t = self.runs["train_transformer"][2]
        w = self.runs["train_wide_socket"][2]
        self.assertGreater(
            value(t, "kernels.fb_ms") / value(t, "train.iteration_ms"), 0.5)
        self.assertLess(
            value(w, "kernels.fb_ms") / value(w, "train.iteration_ms"), 0.5)
        self.assertGreater(value(w, "train.comm_share"),
                           value(t, "train.comm_share"))

    def test_net_counters_only_on_the_socket_workload(self):
        for workload in ("train_transformer", "serve_open_loop"):
            summary = self.runs[workload][2]
            for name in ("net.bytes_sent_per_iter", "net.frames_per_iter",
                         "net.wire_gbps", "net.recv_deadline_exceeded"):
                self.assertEqual(value(summary, name), 0, (workload, name))
        w = self.runs["train_wide_socket"][2]
        self.assertGreater(value(w, "net.bytes_sent_per_iter"), 0)
        self.assertEqual(
            value(w, "net.bytes_sent_per_iter"),
            value(w, "net.bytes_sent_intra_per_iter") +
            value(w, "net.bytes_sent_inter_per_iter"))
        self.assertEqual(value(w, "net.recv_deadline_exceeded"), 0)

    def test_hierarchical_gather_crosses_nodes(self):
        w = self.runs["train_wide_socket"][2]
        self.assertGreater(value(w, "comm.inter_node_bytes_per_iter"), 0)
        self.assertGreater(value(w, "comm.all_gather.bytes_per_iter"), 0)

    def test_serving_counters(self):
        s = self.runs["serve_open_loop"][2]
        self.assertGreater(value(s, "serve.batch_samples_mean"), 1)
        self.assertGreater(value(s, "serve.gathers_per_batch"), 0)
        self.assertEqual(value(s, "serve.failed_batches"), 0)
        self.assertEqual(value(s, "serve.rejected"), 0)


class Repeatability(unittest.TestCase):
    def test_counts_and_loss_bits_repeat(self):
        for workload in ("train_transformer", "train_wide_socket"):
            with self.subTest(workload=workload):
                a = run(workload, 1, seed=9)
                b = run(workload, 1, seed=9)
                self.assertEqual(a[0], 0)
                self.assertEqual(b[0], 0)
                self.assertEqual(digest(a[1]), digest(b[1]))
                self.assertTrue(digest(a[1]))
                for name in ("comm.all_gather.bytes_per_iter",
                             "comm.reduce_scatter.bytes_per_iter",
                             "comm.all_reduce.bytes_per_iter",
                             "comm.calls_per_iter", "net.frames_per_iter",
                             "net.bytes_sent_per_iter"):
                    self.assertEqual(value(a[2], name), value(b[2], name),
                                     name)

    def test_untraced_run_reports_end_to_end_metrics(self):
        code, lines, summary = run("serve_open_loop", 0)
        self.assertEqual(code, 0, "\n".join(lines[-20:]))
        self.assertEqual(
            sorted(summary["metrics"]),
            sorted(["samples_per_s", "latency_ms_p50", "latency_ms_tail",
                    "slo_attainment", "setup_s", "peak_rss_mb"]))
        for m in summary["metrics"].values():
            self.assertGreater(m["value"], 0)


if __name__ == "__main__":
    unittest.main()
