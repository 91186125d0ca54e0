"""Tests of the benchmark itself: seeded inputs, the percentile rule and
the output checks. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

They build nadroid and pbtool with dune (as the benchmark does) and use
.perfbench_run/ as scratch space.
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import run  # noqa: E402


def setUpModule():
    run.build()
    os.makedirs(run.WORK, exist_ok=True)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        self.assertEqual(run.percentile(range(1, 101), 90), 90)
        self.assertEqual(run.percentile(range(1, 101), 50), 50)
        self.assertEqual(run.percentile(range(1, 11), 90), 9)
        self.assertEqual(run.percentile([0.5, 0.1, 0.3], 50), 0.3)
        self.assertEqual(run.percentile([7.0], 90), 7.0)

    def test_ten_samples_beyond(self):
        # p90 of 100 samples leaves exactly 10 beyond it; p95 would leave 5
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(1000), 99)
        self.assertEqual(run.tail_percentile(99), 75)
        self.assertEqual(run.tail_percentile(20), 50)
        self.assertIsNone(run.tail_percentile(19))


class WorkloadDigest(unittest.TestCase):
    def digest(self, workload, seed):
        if workload == "fleet":
            _, st = run.setup_fleet(seed)
        else:
            _, st = run.setup_corpus(workload, seed, 1)
        return st["digest"]

    def test_same_seed_same_digest(self):
        for w in ("corpus-cold", "crash-resume", "fleet"):
            self.assertEqual(self.digest(w, 3), self.digest(w, 3), w)

    def test_other_seed_other_digest(self):
        for w in ("corpus-cold", "crash-resume", "fleet"):
            self.assertNotEqual(self.digest(w, 3), self.digest(w, 4), w)

    def test_serve_stream_is_seeded(self):
        pool = run.load_pool_refs()
        a = run.setup_serve_inputs(5, pool)["digest"]
        self.assertEqual(a, run.setup_serve_inputs(5, pool)["digest"])
        self.assertNotEqual(a, run.setup_serve_inputs(6, pool)["digest"])


class OutputChecks(unittest.TestCase):
    def test_golden_byte_flip_fails(self):
        _, st = run.setup_corpus("corpus-cold", 1, 1)
        names = st["names"]
        code, _, _, out, _ = run.run_cli(
            [run.NADROID, "analyze", "--jobs", "1", "--no-cache", "--json"] + names,
            st["inputs"], "test-golden",
        )
        self.assertEqual(code, 0)
        run.check_batch(out, names, run.golden_refs(names))
        with tempfile.TemporaryDirectory() as tmp:
            golden = os.path.join(tmp, "golden")
            shutil.copytree(run.GOLDEN_DIR, golden)
            victim = os.path.join(golden, names[0] + ".expected")
            data = bytearray(run.read_bytes(victim))
            data[len(data) // 2] ^= 0x01
            with open(victim, "wb") as f:
                f.write(data)
            with self.assertRaises(run.BenchError):
                run.check_batch(out, names, run.golden_refs(names, golden_dir=golden))

    def test_reference_digest_change_fails(self):
        pool = run.load_pool_refs()
        names = list(pool)[:20]
        inputs = run.fresh_dir(os.path.join(run.WORK, "test-pool"))
        run.gen_pool(inputs, names, pool)
        code, _, _, out, _ = run.run_cli(
            [run.NADROID, "analyze", "--no-cache", "--stream"] + names, inputs, "test-pool"
        )
        self.assertEqual(code, 0)
        run.check_stream(out, names, {n: pool[n].out_md5 for n in names})
        with tempfile.TemporaryDirectory() as tmp:
            refs = os.path.join(tmp, "pool.tsv")
            lines = run.read_bytes(run.POOL_REFS).decode().split("\n")
            i = next(k for k, l in enumerate(lines) if l.startswith(names[7] + " "))
            fields = lines[i].split()
            fields[4] = ("0" if fields[4][0] != "0" else "1") + fields[4][1:]
            lines[i] = " ".join(fields)
            with open(refs, "w") as f:
                f.write("\n".join(lines))
            altered = run.load_pool_refs(refs)
            with self.assertRaises(run.BenchError):
                run.check_stream(out, names, {n: altered[n].out_md5 for n in names})

    def test_generator_drift_fails(self):
        pool = run.load_pool_refs()
        name = list(pool)[3]
        pool[name].src_md5 = "0" * 32
        inputs = run.fresh_dir(os.path.join(run.WORK, "test-drift"))
        with self.assertRaises(run.BenchError):
            run.gen_pool(inputs, [name], pool)


if __name__ == "__main__":
    unittest.main()
