#!/usr/bin/env python3
"""The nadroid benchmark: four workloads over the user-facing surfaces.

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The script builds `nadroid` and
the benchmark's own tool (perfbench/tool) with dune, makes the
workload's inputs from the seed, measures for --seconds seconds, checks
every output against a committed reference, and prints one JSON result
as its last line of standard output. --trace 0 drives the nadroid
binary and reports the end-to-end metrics; --trace 1 runs the traced
in-process composition (pbtool trace) and reports the per-layer metrics.
The full record (machine fingerprint, workload and output digests,
every metric's sample count, median and quartiles) is written to
.perfbench_run/record-<workload>-<seed>-<trace>.json. See README.md.
"""

import argparse
import ctypes
import fcntl
import hashlib
import json
import math
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".perfbench_run")
NADROID = os.path.join(ROOT, "_build", "default", "bin", "nadroid.exe")
PBTOOL = os.path.join(ROOT, "_build", "default", "perfbench", "tool", "pbtool.exe")
GOLDEN_DIR = os.path.join(ROOT, "test", "golden")
POOL_REFS = os.path.join(BENCH_DIR, "refs", "pool.tsv")

WORKLOADS = ("corpus-cold", "fleet", "serve-mixed", "crash-resume")
NPROC = len(os.sched_getaffinity(0))
# The generated-app pool: Megacorpus seed 7, 300 apps, 2% adversarial,
# Table-1 LOC. Its per-app input and output digests are committed in
# refs/pool.tsv, so every seed is checked against committed references.
# fleet runs the whole pool in a seeded order (constant work per seed);
# serve-mixed draws a size-stratified seeded sample from it.
POOL_SEED = 7
POOL_APPS = 300
FLEET_CACHE_MAX = 128 * 1024  # below the ~210 KB the 300 apps store
SERVE_GENERATED = 100
SERVE_CONNS = 2
# The daemon's select loop runs on its own domain and the client is a process
# of its own, so the worker pool leaves them a core. At jobs = nproc the
# daemon's domains oversubscribe the cores, and a minor collection, which
# stops every domain, presumably waits for one that is descheduled. On a
# 2-core container that ran at about half the request rate, with run-to-run
# spread the bounds could not hold.
SERVE_JOBS = max(1, NPROC - 1)
SERVE_ZIPF_S = 0.7
SERVE_ROUNDS = 3
SERVE_RESTARTS = 2  # per round
SETUP_REPS = 9
MIN_ITERS = 3
# corpus-cold gives each invocation its own seeded order of the corpus,
# cycling through this many. The heap's high-water mark at jobs 1 depends
# on the order (23-28 MB over 16 random orders), so a single order per run
# made peak_rss_mb jump from seed to seed; a median over many orders does not.
CORPUS_ORDERS = 128

END_TO_END = (
    ("setup_s", "s"),
    ("apps_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("resume_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


class BenchError(Exception):
    """A wrong output or a failed operation: the run is not correct."""


# -- statistics --------------------------------------------------------------


def percentile(samples, q):
    """Nearest-rank q-th percentile: the smallest sample with at least q% of
    the samples at or below it."""
    s = sorted(samples)
    if not s:
        raise ValueError("no samples")
    k = max(1, math.ceil(q / 100.0 * len(s)))
    return s[k - 1]


def tail_percentile(n, candidates=(99.9, 99, 95, 90, 75, 50)):
    """The highest candidate percentile that keeps at least ten samples
    beyond it among n samples, or None when even the median does not."""
    for q in candidates:
        if n - max(1, math.ceil(q / 100.0 * n)) >= 10:
            return q
    return None


def summary(samples):
    """Run count, median and quartiles of one metric's in-run samples."""
    s = [float(x) for x in samples]
    if len(s) >= 2:
        q1, _, q3 = statistics.quantiles(s, n=4)
    else:
        q1 = q3 = s[0]
    return {"runs": len(s), "median": statistics.median(s), "q1": q1, "q3": q3}


# -- processes ---------------------------------------------------------------

_live = {}  # pid -> Popen, every process this script started and not yet reaped


def _become_subreaper():
    # Orphaned grandchildren (the workers of a killed supervisor) are
    # re-parented to this process, so they can be waited for.
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def spawn(args, cwd, stdout, stderr, env=None):
    p = subprocess.Popen(
        args, cwd=cwd, stdout=stdout, stderr=stderr, env=env, start_new_session=True
    )
    _live[p.pid] = p
    return p


def reap(p):
    """Wait for p and every process left in its group; return (exit code,
    peak RSS in MB of p and the children it waited for)."""
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    _live.pop(p.pid, None)
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    while True:
        try:
            os.waitpid(-p.pid, 0)
        except ChildProcessError:
            break
    return p.returncode, ru.ru_maxrss / 1024.0


def stop_all():
    for p in list(_live.values()):
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        reap(p)


def run_cli(args, cwd, tag, env=None):
    """Run one nadroid invocation; stdout and stderr go to files so the
    pipes never throttle it. Returns (exit code, wall s, peak RSS MB,
    stdout bytes, stderr bytes)."""
    out_path = os.path.join(WORK, tag + ".out")
    err_path = os.path.join(WORK, tag + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = spawn(args, cwd, out, err, env)
        code, rss = reap(p)
        wall = time.perf_counter() - t0
    with open(out_path, "rb") as f:
        stdout = f.read()
    with open(err_path, "rb") as f:
        stderr = f.read()
    return code, wall, rss, stdout, stderr


# -- build and inputs --------------------------------------------------------


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        raise SystemExit("perfbench: no dune-project at %s: not a source checkout" % ROOT)
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "bin/nadroid.exe", "perfbench/tool/pbtool.exe"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=dict(os.environ, DUNE_CACHE="disabled"),  # build only inside the checkout
    )
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        raise SystemExit("perfbench: build failed")


def md5_hex(data):
    return hashlib.md5(data).hexdigest()


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


class PoolApp:
    def __init__(self, index, kind, size, src_md5, out_md5):
        self.index, self.kind, self.size = index, kind, size
        self.src_md5, self.out_md5 = src_md5, out_md5


def load_pool_refs(path=POOL_REFS):
    """name -> PoolApp, in pool order. `size` is the Megacorpus LOC target
    (normal apps) or the adversarial size parameter."""
    pool = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            name, kind, size, src_md5, out_md5 = line.split()
            pool[name] = PoolApp(len(pool), kind, int(size), src_md5, out_md5)
    return pool


def stratified_sample(rng, names, key, picks, strata):
    """Pick `picks` of `names`: sort by key, cut into `strata` equal runs and
    draw each run's share at random. Work per run then hardly depends on
    the seed, while two apps of one run are drawn together about as often
    as in a plain random sample."""
    ordered = sorted(names, key=lambda n: (key(n), n))
    out = []
    for g in range(strata):
        run = ordered[g * len(ordered) // strata : (g + 1) * len(ordered) // strata]
        out += rng.sample(run, (g + 1) * picks // strata - g * picks // strata)
    return out


def golden_refs(names, golden_dir=GOLDEN_DIR):
    """name -> md5 of the committed golden report."""
    return {n: md5_hex(read_bytes(os.path.join(golden_dir, n + ".expected"))) for n in names}


def gen_corpus(inputs):
    subprocess.run([PBTOOL, "gen-corpus", inputs], check=True)
    return sorted(os.listdir(inputs))


def gen_pool(inputs, names, pool):
    """Write the chosen pool apps; their sources must match the committed
    input digests, or the generator changed and the references with it."""
    subprocess.run(
        [PBTOOL, "gen-pool", inputs, str(POOL_SEED), str(POOL_APPS)]
        + [str(pool[n].index) for n in names],
        check=True,
    )
    for n in names:
        got = md5_hex(read_bytes(os.path.join(inputs, n)))
        if got != pool[n].src_md5:
            raise BenchError(
                "%s: generated source %s differs from the committed input digest %s "
                "(the Megacorpus generator changed; re-bless refs/pool.tsv)" % (n, got, pool[n].src_md5)
            )


def workload_digest(workload, params, inputs, names, extra=()):
    """Digest of what the program is given: the workload's flags and the
    ordered input sources. Kept apart from the digest of its outputs."""
    h = hashlib.sha256()
    h.update(json.dumps([workload, params], sort_keys=True).encode())
    for n in names:
        h.update(n.encode() + b"\0" + hashlib.sha256(read_bytes(os.path.join(inputs, n))).digest())
    for x in extra:
        h.update(str(x).encode() + b"\0")
    return h.hexdigest()


# -- output checks -----------------------------------------------------------


def canonical(app):
    """The golden-file form of one per-app JSON object (test/golden/*.expected)."""
    return (
        "app: %s\npotential: %d\nafter-sound: %d\nafter-unsound: %d\n\n%s"
        % (app["name"], app["potential"], app["sound"], app["unsound"], app["report"])
    ).encode()


def check_app(app, refs):
    if app.get("degraded") != []:
        raise BenchError("%s: degraded analysis %r" % (app.get("name"), app.get("degraded")))
    want = refs.get(app["name"])
    got = md5_hex(canonical(app))
    if got != want:
        raise BenchError("%s: report digest %s differs from reference %s" % (app["name"], got, want))


def check_batch(stdout, names, refs):
    """`analyze --json` output: every file, in input order, matching its reference."""
    doc = json.loads(stdout)
    if doc.get("files") != len(names) or doc.get("faults") != []:
        raise BenchError("batch: files=%r faults=%r" % (doc.get("files"), doc.get("faults")))
    apps = doc["apps"]
    if [a["name"] for a in apps] != list(names):
        raise BenchError("batch: apps out of input order")
    for a in apps:
        check_app(a, refs)


def check_stream(stdout, names, refs):
    """`analyze --stream` output: one object per line, in input order."""
    lines = stdout.splitlines()
    if len(lines) != len(names):
        raise BenchError("stream: %d lines for %d files" % (len(lines), len(names)))
    for line, n in zip(lines, names):
        a = json.loads(line)
        if a.get("name") != n or "report" not in a:
            raise BenchError("stream: expected %s, got %s" % (n, line[:120]))
        check_app(a, refs)


def check_response(line, name, refs):
    doc = json.loads(line)
    if doc.get("files") != 1 or doc.get("faults") != [] or len(doc.get("apps", [])) != 1:
        raise BenchError("%s: response %s" % (name, line[:200]))
    if doc["apps"][0]["name"] != name:
        raise BenchError("%s: response names %s" % (name, doc["apps"][0]["name"]))
    check_app(doc["apps"][0], refs)


# -- workloads ---------------------------------------------------------------


class Run:
    """What one run measured: per-metric sample lists plus counts."""

    def __init__(self):
        self.samples = {}
        self.attempted = 0
        self.output_digest = None
        self.notes = {}

    def add(self, metric, value):
        self.samples.setdefault(metric, []).append(value)


def balanced_order(seed, names, size):
    """A seeded order whose two halves carry equal work on every seed. The
    apps are split into halves by greedy size balancing, each half runs
    largest first (so the jobs=nproc schedule ends without a straggler),
    and the seed swaps neighbours within each half. crash-resume kills the
    batch in the middle, so what is left to resume must not depend on the
    seed; at jobs 1 a near-fixed order also keeps the heap's high-water
    mark from depending on it."""
    halves, totals = ([], []), [0, 0]
    for n in sorted(names, key=lambda n: (-size(n), n)):
        h = 0 if totals[0] <= totals[1] else 1
        halves[h].append(n)
        totals[h] += size(n)
    rng = random.Random("balanced-order:%d" % seed)
    for half in halves:
        for i in range(0, len(half) - 1, 2):
            if rng.random() < 0.5:
                half[i], half[i + 1] = half[i + 1], half[i]
    return halves[0] + halves[1]


def repeat_setup(make):
    """Set up SETUP_REPS times, timing each; keep the last set-up's state."""
    times, state = [], None
    for i in range(SETUP_REPS):
        if state is not None and "teardown" in state:
            state["teardown"]()
        t0 = time.perf_counter()
        state = make()
        times.append(time.perf_counter() - t0)
    return times, state


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def setup_corpus(workload, seed, jobs):
    def make():
        inputs = fresh_dir(os.path.join(WORK, "inputs"))
        names = balanced_order(
            seed, gen_corpus(inputs), lambda n: os.path.getsize(os.path.join(inputs, n))
        )
        refs = golden_refs(names)
        orders = []
        if workload == "corpus-cold":
            rng = random.Random("corpus-orders:%d" % seed)
            orders = [rng.sample(names, len(names)) for _ in range(CORPUS_ORDERS)]
        digest = workload_digest(
            workload, {"jobs": jobs}, inputs, names, [",".join(o) for o in orders]
        )
        return {"inputs": inputs, "names": names, "orders": orders, "refs": refs,
                "digest": digest}

    times, st = repeat_setup(make)
    st["remake"] = make
    return times, st


def remake_setup(run, st):
    """Time one more set-up between measured iterations. The machine's
    speed drifts over seconds, so set-ups timed only at the start of a run
    read whatever spell the run started in. Rewriting the inputs must give
    the same workload digest."""
    t0 = time.perf_counter()
    again = st["remake"]()
    run.add("setup_s", time.perf_counter() - t0)
    if again["digest"] != st["digest"]:
        raise BenchError("a repeated set-up made other inputs")


def setup_fleet(seed):
    pool = load_pool_refs()

    def make():
        inputs = fresh_dir(os.path.join(WORK, "inputs"))
        names = list(pool)
        random.Random("fleet:%d" % seed).shuffle(names)
        gen_pool(inputs, names, pool)
        refs = {n: pool[n].out_md5 for n in names}
        digest = workload_digest(
            "fleet", {"jobs": NPROC, "cache_max": FLEET_CACHE_MAX}, inputs, names
        )
        return {"inputs": inputs, "names": names, "refs": refs, "digest": digest}

    return repeat_setup(make)


def timed_loop(seconds, body, between=None):
    """Call body(i) until `seconds` have passed (at least MIN_ITERS times),
    and between() after each call when it is given."""
    t0 = time.perf_counter()
    i = 0
    while i < MIN_ITERS or time.perf_counter() - t0 < seconds:
        body(i)
        if between is not None:
            between()
        i += 1


def corpus_cold(seed, seconds):
    setup_times, st = setup_corpus("corpus-cold", seed, 1)
    run = Run()
    run.samples["setup_s"] = setup_times
    names, inputs, refs, orders = st["names"], st["inputs"], st["refs"], st["orders"]
    first = {}  # order index -> the output of its first invocation
    rss = []

    def body(i):
        k = i % len(orders)
        code, wall, peak, out, err = run_cli(
            [NADROID, "analyze", "--jobs", "1", "--no-cache", "--json"] + orders[k], inputs, "cli"
        )
        run.attempted += len(names)
        if code != 0:
            raise BenchError("analyze exited %d: %s" % (code, err[-300:]))
        if k not in first:
            check_batch(out, orders[k], refs)
            first[k] = out
        elif out != first[k]:
            raise BenchError("iteration %d output differs from the first in its order" % i)
        run.add("latency_s", wall)
        rss.append(peak)

    timed_loop(seconds, body, lambda: remake_setup(run, st))
    lat = run.samples.pop("latency_s")
    run.samples["apps_per_s"] = [len(names) * len(lat) / sum(lat)]
    run.samples["latency_p50_s"] = lat
    run.notes["latency_samples"] = len(lat)
    run.notes["latency_op"] = "one `analyze --json` invocation over the corpus"
    # nothing persists between invocations, so recovering a lost batch is
    # a full cold re-run: its expected (mean) wall time
    run.samples["resume_s"] = [sum(lat) / len(lat)]
    run.samples["peak_rss_mb"] = rss
    run.output_digest = hashlib.sha256(first[0]).hexdigest()
    return st["digest"], run


def fleet(seed, seconds):
    setup_times, st = setup_fleet(seed)
    run = Run()
    run.samples["setup_s"] = setup_times
    names, inputs, refs = st["names"], st["inputs"], st["refs"]
    cache = os.path.join(WORK, "fleet-cache")
    args = [
        NADROID, "analyze", "--jobs", str(NPROC), "--stream", "--cache",
        "--cache-dir", cache, "--cache-max-bytes", str(FLEET_CACHE_MAX),
    ] + names
    first = {}
    lat, rss = [], []

    def body(i):
        shutil.rmtree(cache, ignore_errors=True)
        code, wall, peak, out, err = run_cli(args, inputs, "fleet")
        run.attempted += len(names)
        if code != 0 or err:
            raise BenchError("fleet analyze exited %d: %s" % (code, err[-300:]))
        if "out" not in first:
            check_stream(out, names, refs)
            first["out"] = out
        elif out != first["out"]:
            raise BenchError("fleet iteration %d output differs from the first" % i)
        lat.append(wall)
        rss.append(peak)
        # the fleet's recovery path: re-running the batch on the cache the
        # capped run left behind (survivors hit, evictees recompute)
        code, wall, peak, out2, err = run_cli(args, inputs, "fleet-rerun")
        run.attempted += len(names)
        if code != 0 or err or out2 != first["out"]:
            raise BenchError("fleet re-run on the warm cache differs (exit %d)" % code)
        run.add("resume_s", wall)
        rss.append(peak)

    timed_loop(seconds, body)
    shutil.rmtree(cache, ignore_errors=True)
    run.samples["apps_per_s"] = [len(names) * len(lat) / sum(lat)]
    run.samples["latency_p50_s"] = lat
    run.notes["latency_samples"] = len(lat)
    run.notes["latency_op"] = "one cold `analyze --stream --cache` invocation over the fleet"
    run.samples["peak_rss_mb"] = rss
    run.output_digest = hashlib.sha256(first["out"]).hexdigest()
    return st["digest"], run


# serve-mixed ---------------------------------------------------------------


def sock_path():
    # relative to ROOT: a Unix socket path must stay under ~100 bytes
    return os.path.relpath(os.path.join(WORK, "serve.sock"), ROOT)


def start_daemon(cache, tag):
    log = open(os.path.join(WORK, tag + ".err"), "wb")
    p = spawn(
        [NADROID, "serve", "--socket", sock_path(), "--jobs", str(SERVE_JOBS), "--quiet",
         "--cache-dir", cache],
        ROOT, subprocess.DEVNULL, log,
    )
    log.close()
    deadline = time.perf_counter() + 30
    while True:
        try:
            c = Conn()
            c.roundtrip(b'{"op":"ping"}')
            c.close()
            return p
        except OSError:
            if p.poll() is not None or time.perf_counter() > deadline:
                raise BenchError("serve did not come up")
            time.sleep(0.01)


def stop_daemon(p):
    c = Conn()
    c.sock.sendall(b'{"op":"shutdown"}\n')
    c.close()
    code, rss = reap(p)
    if code != 0:
        raise BenchError("serve exited %d" % code)
    return rss


class Conn:
    """One blocking client connection (newline-framed JSON)."""

    def __init__(self):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(sock_path())
        except OSError:
            self.sock.close()
            raise
        self.buf = b""

    def roundtrip(self, line):
        self.sock.sendall(line + b"\n")
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise OSError("daemon closed the connection")
            self.buf += chunk
        resp, _, self.buf = self.buf.partition(b"\n")
        return resp

    def close(self):
        self.sock.close()


def request_line(name, src):
    return json.dumps(
        {"op": "analyze", "source": src, "file": name, "cache": True}, separators=(",", ":")
    ).encode()


class Zipf:
    """Seeded, skewed request stream: rank r is drawn with weight 1/(r+1)^s.

    Ranks are stratified by request size: the apps, sorted by size, are cut
    into chunks of 4 and the chunks take a fixed (seed-independent) order
    of popularity; the seed shuffles the apps within each chunk. So the
    seed changes which app is hot but barely changes how big the hot
    requests are, which would otherwise dominate run-to-run spread."""

    def __init__(self, seed, sizes):
        by_size = sorted(sizes, key=lambda n: (sizes[n], n))
        chunks = [by_size[i : i + 4] for i in range(0, len(by_size), 4)]
        random.Random("serve-chunks").shuffle(chunks)
        rng = random.Random("serve-rank:%d" % seed)
        self.ranked = []
        for chunk in chunks:
            rng.shuffle(chunk)
            self.ranked += chunk
        self.cum = []
        acc = 0.0
        for r in range(len(self.ranked)):
            acc += 1.0 / (r + 1) ** SERVE_ZIPF_S
            self.cum.append(acc)
        self.rng = random.Random("serve-stream:%d" % seed)

    def next(self):
        return self.rng.choices(self.ranked, cum_weights=self.cum)[0]


def setup_serve_inputs(seed, pool):
    """The serve working set: the corpus plus SERVE_GENERATED pool apps,
    their references, and the seeded request stream over them."""
    inputs = fresh_dir(os.path.join(WORK, "inputs"))
    corpus = gen_corpus(inputs)
    rng = random.Random("serve:%d" % seed)
    adversarial = [n for n in pool if pool[n].kind == "adversarial"]
    normal = [n for n in pool if pool[n].kind != "adversarial"]
    n_adv = round(SERVE_GENERATED * len(adversarial) / len(pool))
    generated = stratified_sample(rng, adversarial, lambda n: pool[n].size, n_adv, max(1, n_adv))
    generated += stratified_sample(rng, normal, lambda n: pool[n].size, SERVE_GENERATED - n_adv, 10)
    gen_pool(inputs, generated, pool)
    names = corpus + generated
    refs = golden_refs(corpus)
    refs.update({n: pool[n].out_md5 for n in generated})
    sources = {n: read_bytes(os.path.join(inputs, n)) for n in names}
    stream = Zipf(seed, {n: len(src) for n, src in sources.items()})
    prefix = [stream.next() for _ in range(1000)]
    digest = workload_digest(
        "serve-mixed", {"jobs": SERVE_JOBS, "conns": SERVE_CONNS, "zipf_s": SERVE_ZIPF_S},
        inputs, sorted(names), prefix,
    )
    return {"inputs": inputs, "names": names, "refs": refs, "sources": sources, "digest": digest}


def closed_loop(stream, lines, seconds, on_response):
    """Drive the daemon with SERVE_CONNS connections, each sending its next
    request only when the previous answer is in, for `seconds`. Returns
    (per-request latencies, window wall time)."""
    latencies = []
    sel = selectors.DefaultSelector()
    conns = []
    try:
        for _ in range(SERVE_CONNS):
            c = Conn()
            c.sock.setblocking(False)
            conns.append(c)
        t0 = time.perf_counter()
        end = t0 + seconds

        def send(c):
            c.name = stream.next()
            c.out = lines[c.name] + b"\n"
            c.sent = time.perf_counter()
            sel.register(c.sock, selectors.EVENT_WRITE, c)

        for c in conns:
            send(c)
        inflight = len(conns)
        while inflight:
            for key, ev in sel.select(timeout=60):
                c = key.data
                if ev & selectors.EVENT_WRITE:
                    c.out = c.out[c.sock.send(c.out) :]
                    if not c.out:
                        sel.modify(c.sock, selectors.EVENT_READ, c)
                    continue
                chunk = c.sock.recv(1 << 16)
                if not chunk:
                    raise BenchError("daemon closed a connection")
                c.buf += chunk
                if b"\n" not in c.buf:
                    continue
                resp, _, c.buf = c.buf.partition(b"\n")
                now = time.perf_counter()
                latencies.append(now - c.sent)
                on_response(c.name, resp)
                sel.unregister(c.sock)
                if now < end:
                    send(c)
                else:
                    inflight -= 1
        return latencies, time.perf_counter() - t0
    finally:
        for c in conns:
            c.close()
        sel.close()


def serve_mixed(seed, seconds):
    """SERVE_ROUNDS rounds, each: a daemon on an empty cache driven closed
    loop for seconds/SERVE_ROUNDS, then stopped (its peak RSS), then
    restarted on the cache it left to re-serve every app it answered (the
    recovery time). Spreading the rounds over the run keeps a slow spell of
    the machine from landing on one metric only."""
    pool = load_pool_refs()

    def cache_dir(r):
        return os.path.join(WORK, "serve-cache-%d" % r)

    def make():
        st = setup_serve_inputs(seed, pool)
        st["lines"] = {n: request_line(n, src.decode()) for n, src in st["sources"].items()}
        daemon = st["daemon"] = start_daemon(fresh_dir(cache_dir(0)), "serve")
        st["teardown"] = lambda: stop_daemon(daemon)
        return st

    setup_times, st = repeat_setup(make)
    run = Run()
    run.samples["setup_s"] = setup_times
    refs, lines = st["refs"], st["lines"]
    stream = Zipf(seed, {n: len(src) for n, src in st["sources"].items()})
    seen = {}  # name -> first response bytes (checked in full)
    answered = set()  # apps answered by the current round's daemon

    def on_response(name, resp):
        run.attempted += 1
        answered.add(name)
        first = seen.get(name)
        if first is None:
            check_response(resp, name, refs)
            seen[name] = resp
        elif resp != first:
            raise BenchError("%s: response differs from its first" % name)

    latencies, window = [], 0.0
    daemon = st["daemon"]
    for r in range(SERVE_ROUNDS):
        if r > 0:
            daemon = start_daemon(fresh_dir(cache_dir(r)), "serve")
        answered.clear()
        lat, wall = closed_loop(stream, lines, seconds / SERVE_ROUNDS, on_response)
        latencies += lat
        window += wall
        run.add("peak_rss_mb", stop_daemon(daemon))
        for _ in range(SERVE_RESTARTS):
            t0 = time.perf_counter()
            daemon = start_daemon(cache_dir(r), "serve-restart")
            c = Conn()
            try:
                for name in sorted(answered):
                    resp = c.roundtrip(lines[name])
                    run.attempted += 1
                    if resp != seen[name]:
                        raise BenchError("%s: restarted daemon answers differently" % name)
            finally:
                c.close()
            run.add("resume_s", time.perf_counter() - t0)
            stop_daemon(daemon)
        shutil.rmtree(cache_dir(r), ignore_errors=True)
    run.samples["apps_per_s"] = [len(latencies) / window]
    run.samples["latency_p50_s"] = latencies
    run.notes["latency_samples"] = len(latencies)
    run.notes["latency_op"] = "one analyze request, closed loop, %d connections" % SERVE_CONNS
    run.notes["distinct_apps"] = len(seen)
    h = hashlib.sha256()
    for name in sorted(seen):
        h.update(seen[name] + b"\n")
    run.output_digest = h.hexdigest()
    return st["digest"], run


# crash-resume --------------------------------------------------------------


def crash_resume(seed, seconds):
    setup_times, st = setup_corpus("crash-resume", seed, NPROC)
    run = Run()
    run.samples["setup_s"] = setup_times
    names, inputs, refs = st["names"], st["inputs"], st["refs"]
    kill_at = (len(names) + 1) // 2
    base = [NADROID, "analyze", "--supervise", "--jobs", str(NPROC), "--json"]
    first = {}
    lat, rss = [], []
    env_kill = dict(os.environ, NADROID_FAULTS="journal_append:%d:kill" % kill_at)
    env_clean = {k: v for k, v in os.environ.items() if k != "NADROID_FAULTS"}

    def body(i):
        j1 = os.path.join(WORK, "journal-full")
        j2 = os.path.join(WORK, "journal-crash")
        for j in (j1, j2):
            if os.path.exists(j):
                os.remove(j)
        code, wall, peak, out, err = run_cli(base + ["--journal", j1] + names, inputs, "full", env_clean)
        run.attempted += len(names)
        if code != 0:
            raise BenchError("supervised batch exited %d: %s" % (code, err[-300:]))
        if "out" not in first:
            check_batch(out, names, refs)
            first["out"] = out
        elif out != first["out"]:
            raise BenchError("iteration %d output differs from the first" % i)
        lat.append(wall)
        rss.append(peak)
        # the scheduled kill: SIGKILL at the middle journal append
        code, _, peak, _, err = run_cli(base + ["--journal", j2] + names, inputs, "killed", env_kill)
        if code != -signal.SIGKILL:
            raise BenchError("the scheduled kill did not fire (exit %d)" % code)
        code, wall, peak, out, err = run_cli(
            base + ["--journal", j2, "--resume"] + names, inputs, "resume", env_clean
        )
        run.attempted += len(names)
        if code != 0:
            raise BenchError("resume exited %d: %s" % (code, err[-300:]))
        if out != first["out"]:
            raise BenchError("resumed output differs from the uninterrupted run")
        if b"resume: 0 of" in err or b"resume:" not in err:
            raise BenchError("resume replayed nothing: %s" % err[-200:])
        run.add("resume_s", wall)

    timed_loop(seconds, body, lambda: remake_setup(run, st))
    run.samples["apps_per_s"] = [len(names) * len(lat) / sum(lat)]
    run.samples["latency_p50_s"] = lat
    run.notes["latency_samples"] = len(lat)
    run.notes["latency_op"] = "one uninterrupted `analyze --supervise --journal` invocation"
    run.samples["peak_rss_mb"] = rss
    run.output_digest = hashlib.sha256(first["out"]).hexdigest()
    return st["digest"], run


# -- traced run --------------------------------------------------------------

TRACE_OPTS = {
    # workload -> (jobs, extra pbtool flags, supervised ops per traced pass)
    "corpus-cold": (1, [], 8),
    "fleet": (NPROC, ["-cache-max", str(FLEET_CACHE_MAX)], 16),
    "serve-mixed": (1, ["-persist-cache", "-pass", "300"], 8),
    "crash-resume": (NPROC, [], 27),
}


def traced(workload, seed, seconds):
    if workload in ("corpus-cold", "crash-resume"):
        setup_times, st = setup_corpus(workload, seed, TRACE_OPTS[workload][0])
        plan = st["names"]
    elif workload == "fleet":
        setup_times, st = setup_fleet(seed)
        plan = st["names"]
    else:
        pool = load_pool_refs()
        setup_times, st = repeat_setup(lambda: setup_serve_inputs(seed, pool))
        stream = Zipf(seed, {n: len(src) for n, src in st["sources"].items()})
        plan = [stream.next() for _ in range(20000)]
    jobs, flags, supervise_ops = TRACE_OPTS[workload]
    plan_path = os.path.join(WORK, "trace.plan")
    refs_path = os.path.join(WORK, "trace.refs")
    with open(plan_path, "w") as f:
        f.write("\n".join(plan) + "\n")
    with open(refs_path, "w") as f:
        f.write("".join("%s %s\n" % kv for kv in sorted(st["refs"].items())))
    work = fresh_dir(os.path.join(WORK, "trace-work"))
    spans = os.path.join(WORK, "spans-%s-%d.jsonl" % (workload, seed))
    r = subprocess.run(
        [PBTOOL, "trace", "-inputs", st["inputs"], "-plan", plan_path, "-refs", refs_path,
         "-work", work, "-jobs", str(jobs), "-seconds", str(seconds),
         "-supervise-ops", str(supervise_ops), "-spans", spans] + flags,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    shutil.rmtree(work, ignore_errors=True)
    if r.returncode != 0:
        raise BenchError("traced run failed: %s" % r.stderr.decode(errors="replace")[-500:])
    metrics = json.loads(r.stdout)
    return st["digest"], setup_times, metrics, spans


# -- records -----------------------------------------------------------------


def fingerprint():
    def cmd(args):
        try:
            return subprocess.run(args, capture_output=True, text=True, cwd=ROOT).stdout.strip()
        except OSError:
            return ""

    rev = cmd(["git", "rev-parse", "HEAD"]) or None
    h = hashlib.sha256()
    for top in ("bin", "lib", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for fn in sorted(files):
                if fn.endswith((".ml", ".mli", "dune", ".py", ".tsv")):
                    p = os.path.join(dirpath, fn)
                    h.update(os.path.relpath(p, ROOT).encode() + b"\0" + read_bytes(p))
    return {
        "nproc": NPROC,
        "ocaml": cmd(["ocamlfind", "ocamlopt", "-version"]) or cmd(["ocamlopt", "-version"]),
        "git_rev": rev,
        "source_digest": h.hexdigest(),
    }


def bless_pool():
    """Regenerate refs/pool.tsv: every pool app's kind and size, the digest
    of its source and the digest of its uncached report. Run only when the
    generator or the analysis deliberately changes."""
    inputs = fresh_dir(os.path.join(WORK, "pool"))
    plan = subprocess.run(
        [PBTOOL, "pool-plan", str(POOL_SEED), str(POOL_APPS)],
        check=True, capture_output=True, text=True,
    ).stdout.split("\n")
    plan = [line.split() for line in plan if line]
    subprocess.run(
        [PBTOOL, "gen-pool", inputs, str(POOL_SEED), str(POOL_APPS)]
        + [str(i) for i in range(len(plan))],
        check=True,
    )
    names = [name for name, _, _ in plan]
    code, _, _, out, err = run_cli(
        [NADROID, "analyze", "--jobs", str(NPROC), "--no-cache", "--json"] + names, inputs, "bless"
    )
    doc = json.loads(out)
    if code != 0 or doc["faults"] or any(a["degraded"] for a in doc["apps"]):
        raise SystemExit("perfbench: pool analysis failed: %s" % err[-300:])
    with open(POOL_REFS, "w") as f:
        f.write("# Megacorpus seed %d, %d apps: name, kind, LOC target or adversarial size,\n"
                "# md5 of the source, md5 of the canonical report (test/golden form)\n"
                "# from `analyze --no-cache`. Regenerate: python3 perfbench/run.py --bless-pool\n"
                % (POOL_SEED, POOL_APPS))
        for (name, kind, size), a in zip(plan, doc["apps"]):
            src = md5_hex(read_bytes(os.path.join(inputs, name)))
            f.write("%s %s %s %s %s\n" % (name, kind, size, src, md5_hex(canonical(a))))
    shutil.rmtree(inputs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--bless-pool", action="store_true", help="regenerate refs/pool.tsv and exit")
    a = ap.parse_args(argv)
    if not a.bless_pool and (a.workload is None or a.seed is None or a.seconds is None):
        ap.error("--workload, --seed and --seconds are required")
    build()
    os.chdir(ROOT)
    os.makedirs(WORK, exist_ok=True)
    # runs in one checkout share the scratch directory and the socket path
    lock = open(os.path.join(WORK, "lock"), "w")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        raise SystemExit("perfbench: another run is using %s" % WORK)
    for entry in os.scandir(WORK):  # inputs and caches a killed run left behind
        if entry.is_dir():
            shutil.rmtree(entry.path)
    if a.bless_pool:
        bless_pool()
        return 0
    _become_subreaper()
    record = {
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "fingerprint": fingerprint(),
    }
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        if a.trace:
            digest, setup_times, layer, spans = traced(a.workload, a.seed, a.seconds)
            record.update(workload_digest=digest, spans=os.path.relpath(spans, ROOT))
            record["setup_s"] = summary(setup_times)
            attempted = int(layer["trace.ops"]["value"])
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                wanted = [m["name"] for m in json.load(f)["per_layer"]]
            metrics = {k: layer[k] for k in wanted}
            record["per_layer"] = layer
        else:
            fn = {"corpus-cold": corpus_cold, "fleet": fleet,
                  "serve-mixed": serve_mixed, "crash-resume": crash_resume}[a.workload]
            digest, run = fn(a.seed, a.seconds)
            s = run.samples
            s["latency_p90_s"] = [percentile(s["latency_p50_s"], 90)]
            attempted = run.attempted
            # a failed operation raises BenchError, so a correct run has none
            s["ok_ratio"] = [1.0 - failed / attempted]
            record.update(workload_digest=digest, output_digest=run.output_digest, notes=run.notes)
            record["notes"]["latency_tail_percentile"] = tail_percentile(len(s["latency_p50_s"]))
            record["metrics"] = {}
            for name, unit in END_TO_END:
                summ = summary(s[name])
                summ["unit"] = unit
                record["metrics"][name] = summ
                metrics[name] = {"value": summ["median"], "unit": unit}
    except (BenchError, json.JSONDecodeError, KeyError, subprocess.CalledProcessError) as e:
        sys.stderr.write("perfbench: INCORRECT: %s\n" % e)
        correct = False
        attempted, failed = max(attempted, 1), max(failed, 1)
    finally:
        stop_all()
    record.update(correct=correct, attempted=attempted, failed=failed)
    path = os.path.join(WORK, "record-%s-%d-%d.json" % (a.workload, a.seed, a.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
