#!/bin/sh
# CI gate: formatting, build, tests, and a smoke run of the
# machine-readable timing bench. Run from the repository root.
set -eu

cd "$(dirname "$0")/.."

# 1. Formatting. dune fmt covers dune files always and OCaml sources
#    only when ocamlformat is installed; without it `dune build @fmt`
#    errors out, so gate on the binary and at least keep dune files
#    honest either way.
if command -v ocamlformat >/dev/null 2>&1; then
  dune build @fmt
else
  echo "ci: ocamlformat not found; checking dune files only" >&2
  # @fmt stops at the first missing-ocamlformat error, but the dune-file
  #  rules run first, so a dirty dune file still fails before that point.
  out=$(dune build @fmt 2>&1) && : || true
  if printf '%s' "$out" | grep -q '^diff '; then
    printf '%s\n' "$out" >&2
    echo "ci: dune files are not formatted (run: dune build @fmt --auto-promote)" >&2
    exit 1
  fi
fi

# 2. Build + full test suite (tier 1).
dune build
dune runtest

# 3. Timing bench must emit parseable JSON with the expected totals.
json=$(dune exec --no-print-directory bench/main.exe -- timing --json --jobs 1)
for key in '"jobs"' '"apps"' '"totals"' '"elapsed"' '"pruned"'; do
  case $json in
  *${key}*) ;;
  *)
    echo "ci: timing --json output is missing ${key}" >&2
    exit 1
    ;;
  esac
done
# 4. Chaos-fuzz smoke: mutated corpus sources must only ever produce
#    clean runs or structured frontend/budget faults (exit 0 iff so).
dune exec --no-print-directory bin/nadroid.exe -- fuzz --seed 42 --mutants 200

# 5. Differential soundness gate: 100 generated apps, the sound-config
#    static pipeline cross-checked against the schedule explorer; any
#    dynamically witnessed NPE without a matching warning (or dropped
#    seeded pair) fails with exit 4. Fixed seed, deterministic.
dune exec --no-print-directory bin/nadroid.exe -- difftest --seed 42 --apps 100

# 6. Golden-report regression: the committed canonical reports for the
#    27-app corpus must match a fresh analysis byte-for-byte
#    (regenerate deliberately with `nadroid golden --bless`).
dune exec --no-print-directory bin/nadroid.exe -- golden --dir test/golden

# 7. Oracle equivalence on the corpus and on >= 200 generated apps: the
#    worklist PTA solver must be bit-identical to the reference solver,
#    the indexed thread forest to the rescan-every-API-edge expansion,
#    and the pruned escaping set to unpruned per-entry counting.
dune exec --no-print-directory test/test_main.exe -- test pta-equivalence
dune exec --no-print-directory test/test_main.exe -- test forest-escape-equivalence

# 8. Cache drift gate: a cold pass filling a fresh cache and a warm pass
#    served from it must both match the golden reports byte-for-byte.
cache_dir="_nadroid_cache/ci.$$"
rm -rf "$cache_dir"
dune exec --no-print-directory bin/nadroid.exe -- golden --dir test/golden --cache --cache-dir "$cache_dir"
dune exec --no-print-directory bin/nadroid.exe -- golden --dir test/golden --cache --cache-dir "$cache_dir"
rm -rf "$cache_dir"

# 9. Perf bench smoke: cold/warm/reference batches must emit the
#    BENCH_9.json trajectory point with its expected keys.
dune exec --no-print-directory bench/main.exe -- perf --json --jobs 1 >/dev/null
for key in '"cold_elapsed"' '"warm_elapsed"' '"reference_elapsed"' '"cold_frontend"' '"speedup_cold_vs_reference"' '"warm_hits"' '"pta_visits"' '"pta_steps"'; do
  case $(cat BENCH_9.json) in
  *${key}*) ;;
  *)
    echo "ci: BENCH_9.json is missing ${key}" >&2
    exit 1
    ;;
  esac
done

# 10. Wedged-analysis gate: an adversarial app whose filter phase runs
#     ~10s unbounded must, under --deadline 2, terminate within 2x the
#     deadline with exit 0 and a partial report marked DEGRADED (the
#     marker prints with the metrics, hence --timings). A hang here
#     means in-flight cancellation regressed.
adv_src="_nadroid_cache/ci-adv.$$.mand"
adv_out="_nadroid_cache/ci-adv.$$.out"
mkdir -p _nadroid_cache
dune build bin/nadroid.exe
./_build/default/bin/nadroid.exe synth --adversarial --seed 0 --size 70 > "$adv_src"
adv_t0=$(date +%s)
./_build/default/bin/nadroid.exe analyze "$adv_src" --deadline 2 --timings > "$adv_out"
adv_elapsed=$(( $(date +%s) - adv_t0 ))
if [ "$adv_elapsed" -gt 4 ]; then
  echo "ci: adversarial analyze took ${adv_elapsed}s under --deadline 2 (limit 4s)" >&2
  exit 1
fi
if ! grep -q 'DEGRADED' "$adv_out"; then
  echo "ci: adversarial analyze under --deadline 2 did not report DEGRADED" >&2
  exit 1
fi
rm -f "$adv_src" "$adv_out"

# 11. Monotonic-clock gate: deadline/duration arithmetic must never read
#     the wall clock. The only gettimeofday in lib/bin/bench is the one
#     inside lib/clock that feeds Clock.wall (display timestamps only).
if grep -rn "Unix.gettimeofday" lib bin bench --include='*.ml' \
  | grep -v '^lib/clock/clock\.ml:'; then
  echo "ci: Unix.gettimeofday outside lib/clock — use Nadroid_clock.Clock" >&2
  exit 1
fi

# 12. Serve daemon smoke: boot, answer a request batch byte-identically
#     to the cold CLI, drain on shutdown, exit 0.
serve_sock="/tmp/nadroid-ci.$$.sock"
serve_src="_nadroid_cache/ci-serve.$$.mand"
rm -f "$serve_sock"
dune build bin/nadroid.exe
./_build/default/bin/nadroid.exe corpus ConnectBot > "$serve_src"
./_build/default/bin/nadroid.exe serve --socket "$serve_sock" --quiet &
serve_pid=$!
cold=$(./_build/default/bin/nadroid.exe analyze --json "$serve_src")
warm=$(./_build/default/bin/nadroid.exe request --socket "$serve_sock" \
  "$serve_src" "$serve_src" "$serve_src")
if [ "$warm" != "$cold
$cold
$cold" ]; then
  echo "ci: daemon responses differ from cold analyze --json" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
./_build/default/bin/nadroid.exe request --socket "$serve_sock" --shutdown \
  > /dev/null
if ! wait "$serve_pid"; then
  echo "ci: serve daemon did not exit 0 on graceful shutdown" >&2
  exit 1
fi
rm -f "$serve_src" "$serve_sock"

# 13. Serve bench smoke: concurrent clients against a forked daemon must
#     report zero byte mismatches and a clean daemon exit in BENCH_6.json.
dune exec --no-print-directory bench/main.exe -- serve --json \
  --clients 4 --rounds 1 --jobs 1 >/dev/null
for key in '"rps"' '"p50"' '"p99"' '"mismatches":0' '"daemon_exit":0'; do
  case $(cat BENCH_6.json) in
  *${key}*) ;;
  *)
    echo "ci: BENCH_6.json is missing ${key}" >&2
    exit 1
    ;;
  esac
done

# 14. Crash-survival gate: (a) a batch SIGKILLed mid-run leaves a
#     journal whose --resume rerun exits 0 with output byte-identical
#     to an uninterrupted run; (b) an app that kills its supervised
#     worker costs exactly one quarantine fault while the rest of the
#     batch still analyzes; (c) a supervised daemon keeps serving
#     byte-identically after a request crashes its worker.
crash_dir="_nadroid_cache/ci-crash.$$"
mkdir -p "$crash_dir"
for app in ToDoList Zxing Music; do
  ./_build/default/bin/nadroid.exe corpus "$app" > "$crash_dir/$app.mand"
done
crash_files="$crash_dir/ToDoList.mand $crash_dir/Zxing.mand $crash_dir/Music.mand"
crash_golden=$(./_build/default/bin/nadroid.exe analyze --json --jobs 1 $crash_files)
rc=0
NADROID_FAULTS="journal_append:2:kill" \
  ./_build/default/bin/nadroid.exe analyze --json --jobs 1 \
  --journal "$crash_dir/journal" $crash_files > /dev/null 2>&1 || rc=$?
if [ "$rc" -lt 128 ]; then
  echo "ci: injected SIGKILL did not kill the batch (rc=$rc)" >&2
  exit 1
fi
resumed=$(./_build/default/bin/nadroid.exe analyze --json --jobs 1 \
  --journal "$crash_dir/journal" --resume $crash_files)
if [ "$resumed" != "$crash_golden" ]; then
  echo "ci: resumed batch is not byte-identical to the uninterrupted run" >&2
  exit 1
fi
rc=0
sup=$(NADROID_FAULTS="worker_task=Zxing.mand:kill" \
  ./_build/default/bin/nadroid.exe analyze --json --supervise --jobs 1 \
  $crash_files 2>/dev/null) || rc=$?
if [ "$rc" -ne 4 ]; then
  echo "ci: supervised batch with a crashing app should exit 4, got $rc" >&2
  exit 1
fi
case $sup in
*quarantined*) ;;
*)
  echo "ci: supervised batch output does not name the quarantine" >&2
  exit 1
  ;;
esac
if [ "$(printf '%s' "$sup" | grep -o '"fault":' | wc -l)" -ne 1 ]; then
  echo "ci: the crashing app must cost exactly one fault entry" >&2
  exit 1
fi
crash_sock="/tmp/nadroid-ci-crash.$$.sock"
rm -f "$crash_sock"
NADROID_FAULTS="worker_task=Zxing.mand:kill" \
  ./_build/default/bin/nadroid.exe serve --socket "$crash_sock" --quiet \
  --supervise --jobs 1 &
crash_pid=$!
rc=0
./_build/default/bin/nadroid.exe request --socket "$crash_sock" \
  "$crash_dir/Zxing.mand" > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 4 ]; then
  echo "ci: crashing request should answer a fault (exit 4), got $rc" >&2
  kill "$crash_pid" 2>/dev/null || true
  exit 1
fi
cold_todo=$(./_build/default/bin/nadroid.exe analyze --json "$crash_dir/ToDoList.mand")
after=$(./_build/default/bin/nadroid.exe request --socket "$crash_sock" \
  "$crash_dir/ToDoList.mand")
if [ "$after" != "$cold_todo" ]; then
  echo "ci: daemon lost byte-identity after a worker crash" >&2
  kill "$crash_pid" 2>/dev/null || true
  exit 1
fi
./_build/default/bin/nadroid.exe request --socket "$crash_sock" --shutdown \
  > /dev/null
if ! wait "$crash_pid"; then
  echo "ci: supervised daemon did not exit 0 after a worker crash" >&2
  exit 1
fi
rm -rf "$crash_dir" "$crash_sock"

# 15. Blast-radius matrix: seeded fault injection across the cache,
#     journal and worker seams; every app outcome must be baseline-
#     identical or an attributable structured fault — any escape
#     exits 4.
dune exec --no-print-directory bin/nadroid.exe -- faultfuzz \
  --seed 42 --trials 8 --apps 6 --jobs 2

# 16. Fleet smoke: a seeded 500-app mega-corpus (2% adversarial) through
#     the work-stealing scheduler on 4 jobs, cached under a tight
#     --cache-max-bytes cap. The driver itself exits non-zero on any
#     fault or any cross-scheduler digest mismatch; re-check both from
#     BENCH_8.json anyway so a silent driver regression can't pass.
fleet_dir="/tmp/nadroid-ci-fleet.$$"
rm -rf "$fleet_dir" BENCH_8.json
mkdir -p "$fleet_dir"
dune exec --no-print-directory bench/main.exe -- fleet --json --jobs 4 \
  --apps 500 --adversarial 0.02 --seed 42 \
  --cache --cache-dir "$fleet_dir" --cache-max-bytes 262144 > /dev/null
case $(cat BENCH_8.json) in
*'"digests_identical":true,"faults":0,'*) ;;
*)
  echo "ci: fleet smoke must report zero faults and identical digests" >&2
  exit 1
  ;;
esac
rm -rf "$fleet_dir"

# 17. Frontend gate: (a) the frontend-equivalence group — table-driven
#     lexer and token-array parser must be byte-identical to the
#     reference paths on 200 generated apps and the corpus, and count_loc
#     must agree with the naive LOC-spec scanner on every corpus app;
#     (b) perf smoke against HEAD measured on this machine — HEAD is
#     exported with `git archive`, its bench built in the export, and
#     the two `bench perf` cold batches run alternately twice each. The
#     working tree's best cold batch must be within 20% of HEAD's best,
#     and every app's deterministic pta_visits/pta_steps must equal
#     HEAD's exactly. A baseline recorded on another host would measure
#     the host, not the code.
dune exec --no-print-directory test/test_main.exe -- test frontend-equivalence
head_dir="_nadroid_cache/ci-head.$$"
rm -rf "$head_dir"
mkdir -p "$head_dir"
if git archive HEAD 2>/dev/null | tar -x -C "$head_dir" 2>/dev/null \
  && [ -f "$head_dir/dune-project" ]; then
  dune build --root "$head_dir" bench/main.exe
  dune build bench/main.exe
  # run `bench perf` in directory $1; print its cold batch seconds
  perf_cold() {
    (cd "$1" && ./_build/default/bench/main.exe perf --json --jobs 1 >/dev/null \
      && sed -n 's/.*"cold_elapsed":\([0-9.][0-9.]*\).*/\1/p' BENCH_9.json)
  }
  # one line per app of the BENCH_9 record $1: name, pta_visits, pta_steps
  pta_counts() {
    python3 -c 'import json, sys
for a in json.load(open(sys.argv[1]))["apps"]:
    print(a["name"], a["pta_visits"], a["pta_steps"])' "$1"
  }
  head1=$(perf_cold "$head_dir")
  work1=$(perf_cold .)
  head2=$(perf_cold "$head_dir")
  work2=$(perf_cold .)
  if ! awk -v h1="$head1" -v h2="$head2" -v w1="$work1" -v w2="$work2" \
    'BEGIN { h = (h1 < h2 ? h1 : h2); w = (w1 < w2 ? w1 : w2); exit !(w <= h * 1.2) }'; then
    echo "ci: perf smoke regressed >20% vs HEAD on this machine" \
      "(HEAD ${head1}s / ${head2}s, working tree ${work1}s / ${work2}s)" >&2
    rm -rf "$head_dir"
    exit 1
  fi
  if [ "$(pta_counts BENCH_9.json)" != "$(pta_counts "$head_dir/BENCH_9.json")" ]; then
    echo "ci: per-app pta_visits/pta_steps differ from HEAD" >&2
    rm -rf "$head_dir"
    exit 1
  fi
  echo "ci: perf smoke: HEAD ${head1}s / ${head2}s, working tree ${work1}s / ${work2}s"
else
  echo "ci: cannot export HEAD with git archive; skipping perf smoke" >&2
fi
rm -rf "$head_dir"

# 18. Benchmark self-tests: seeded inputs, the percentile rule and the
#     output checks of perfbench/run.py (a flipped golden byte or a
#     drifted reference must fail the benchmark).
python3 -m unittest discover -s perfbench/tests

# 19. Code size: the line counts of lib/, bin/ and bench/ (.ml and .mli),
#     printed on every run so the ROADMAP's figures can be re-checked.
for d in lib bin bench; do
  lines=$(find "$d" \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l)
  echo "ci: $d: $lines lines (.ml/.mli)"
done

echo "ci: ok"
