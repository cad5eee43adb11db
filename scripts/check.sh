#!/usr/bin/env sh
# The full offline verification gate: formatting, release build, test
# suite, and warning-free clippy. No network access is required — the workspace has
# no external dependencies (vendored PRNG + bench harness), so everything
# resolves from the local toolchain alone.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release (tier-1, offline)"
cargo build --release --workspace --offline

echo "==> cargo test -q (tier-1, offline)"
cargo test -q --workspace --offline

echo "==> cargo test --release -q (offline)"
# rustc 1.95.0 can miscompile a pair of by-value builder calls in release
# mode only (see the note in crates/core/src/engine/config.rs), so the
# suite also runs optimized.
cargo test --release -q --workspace --offline

echo "==> cargo clippy -- -D warnings (offline)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> perfbench: the end-to-end benchmark's own tests"
cargo test --release --offline --manifest-path perfbench/Cargo.toml
python3 -m unittest discover -s perfbench -p 'test_*.py'

echo "==> observability smoke: run --trace-out + report on a toy graph"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
PHIGRAPH=./target/release/phigraph
"$PHIGRAPH" generate gnm "$SMOKE_DIR/g.bin" --scale tiny --seed 7 >/dev/null
"$PHIGRAPH" run sssp "$SMOKE_DIR/g.bin" --engine pipe \
    --trace-out "$SMOKE_DIR/trace.json" --trace-format chrome >/dev/null
grep -q '"thread_name"' "$SMOKE_DIR/trace.json"
"$PHIGRAPH" run sssp "$SMOKE_DIR/g.bin" --hetero \
    --trace-out "$SMOKE_DIR/report.json" --trace-format json >/dev/null
"$PHIGRAPH" report "$SMOKE_DIR/report.json" --steps | grep -q "phase decomposition"
"$PHIGRAPH" run pagerank "$SMOKE_DIR/g.bin" --iters 3 \
    --trace-out "$SMOKE_DIR/metrics.prom" --trace-format prom >/dev/null
grep -q "^phigraph_supersteps{" "$SMOKE_DIR/metrics.prom"
"$PHIGRAPH" run sssp "$SMOKE_DIR/g.bin" --engine lock \
    --checkpoint-every 4 --checkpoint-dir "$SMOKE_DIR/ckpt" >/dev/null
"$PHIGRAPH" recover "$SMOKE_DIR/ckpt" | grep -q "failover :"

echo "==> integrity smoke: seeded SDC chaos run heals bit-identically"
"$PHIGRAPH" run sssp "$SMOKE_DIR/g.bin" --engine lock \
    --out "$SMOKE_DIR/clean.txt" >/dev/null
"$PHIGRAPH" run sssp "$SMOKE_DIR/g.bin" --engine lock --integrity full \
    --faults 1:bitflip-msg,2:bitflip-state --checkpoint-dir "$SMOKE_DIR/sdc" \
    --out "$SMOKE_DIR/healed.txt" | grep -q "integrity"
cmp "$SMOKE_DIR/clean.txt" "$SMOKE_DIR/healed.txt"
"$PHIGRAPH" recover "$SMOKE_DIR/sdc" | grep -q "integrity:"
# With the audit off a message bit-flip stays in the result: until it has
# fired every step fills the buffer, where the flip lands, and lock, pipe
# and omp fill it alike. All three print one checksum, not the clean one.
"$PHIGRAPH" generate gnm "$SMOKE_DIR/gnm-small.bin" --scale small --seed 7 >/dev/null
for app in pagerank sssp; do
    CLEAN="$("$PHIGRAPH" run "$app" "$SMOKE_DIR/gnm-small.bin" --checksum \
        | sed -n 's/^checksum=//p')"
    test -n "$CLEAN"
    FLIPPED=""
    for engine in lock pipe omp; do
        GOT="$("$PHIGRAPH" run "$app" "$SMOKE_DIR/gnm-small.bin" --engine "$engine" \
            --faults 1:bitflip-msg --checkpoint-dir "$SMOKE_DIR/flip-$app-$engine" \
            --checksum | sed -n 's/^checksum=//p')"
        test -n "$GOT"
        FLIPPED="${FLIPPED:-$GOT}"
        if [ "$GOT" != "$FLIPPED" ]; then
            echo "$app --engine $engine with a message bit-flip printed $GOT, lock printed $FLIPPED" >&2
            exit 1
        fi
    done
    if [ "$FLIPPED" = "$CLEAN" ]; then
        echo "$app: the message bit-flip left the clean checksum $CLEAN" >&2
        exit 1
    fi
    echo "    ($app with a message bit-flip: checksum=$FLIPPED on lock, pipe and omp; clean $CLEAN)"
done

echo "==> one-machine smoke: a dead worker rolls back once, on one device and on a fabric rank"
# Single-device recovery is the N = 1 case of the failover driver: the
# same fail-stop site fires on one device and on rank 1 of a 2-rank
# fabric, each run rolls back once to its newest barrier and prints the
# clean run's checksum.
one_machine() { # <checkpoint dir> <fault> <run flags...>
    CK="$SMOKE_DIR/$1"
    FAULT="$2"
    shift 2
    WANT1="$("$PHIGRAPH" run sssp "$SMOKE_DIR/g.bin" "$@" --checksum \
        | sed -n 's/^checksum=//p')"
    test -n "$WANT1"
    "$PHIGRAPH" run sssp "$SMOKE_DIR/g.bin" "$@" --checkpoint-every 2 \
        --checkpoint-dir "$CK" --faults "$FAULT" --checksum > "$CK.txt"
    grep -q "checksum=$WANT1" "$CK.txt"
    "$PHIGRAPH" recover "$CK" > "$CK.recover.txt"
    grep -q "rollbacks=1" "$CK.recover.txt"
}
one_machine one-ckpt 3:worker --engine lock
one_machine one-fabric-ckpt 3:worker:1 --devices 2
# A fault kind with no injection site on one device is an error, not a no-op.
CODE=0
"$PHIGRAPH" run sssp "$SMOKE_DIR/g.bin" --faults 2:exchange \
    --checkpoint-dir "$SMOKE_DIR/one-none" >/dev/null 2>&1 || CODE=$?
test "$CODE" -eq 2 || { echo "one-device exchange fault exited $CODE, expected 2" >&2; exit 1; }
echo "    (worker fault at step 3: one device and rank 1 of 2 roll back once, checksum parity: ok)"

echo "==> fabric smoke: N=3 rank crash mid-run, survivors recover bit-identically"
# A clean 3-rank run fixes the expected checksum; the chaos run kills
# rank 1 at superstep 4, so the survivors must migrate its partition,
# replay from the newest common barrier, and land on the same bits.
WANT3="$("$PHIGRAPH" run sssp "$SMOKE_DIR/g.bin" --devices 3 --checksum \
    | sed -n 's/^checksum=//p')"
"$PHIGRAPH" run sssp "$SMOKE_DIR/g.bin" --devices 3 --checkpoint-every 2 \
    --checkpoint-dir "$SMOKE_DIR/fabric-ckpt" --faults 4:crash-rank:1 --checksum \
    | grep -q "checksum=$WANT3"
# The checkpoint dir uses the per-rank layout and records the eviction.
"$PHIGRAPH" recover "$SMOKE_DIR/fabric-ckpt" > "$SMOKE_DIR/fabric-recover.txt"
grep -q "rank2: " "$SMOKE_DIR/fabric-recover.txt"
grep -q "migrations=1" "$SMOKE_DIR/fabric-recover.txt"
echo "    (rank 1 killed at step 4 of 3-rank SSSP: checksum parity after migration: ok)"

echo "==> determinism smoke: lock, pipe and omp PageRank, SSSP, BFS and WCC print seq's checksum on every run, two ranks one checksum"
# f32 sums follow their association order. Every framework mode fills each
# column in source order on the locking engine's host path (pipe and omp
# differ only in what the cost model charges), so on any host thread count
# three runs of each and one seq run must print the same checksum.
WANT_PR="$("$PHIGRAPH" run pagerank "$SMOKE_DIR/gnm-small.bin" --engine seq --checksum \
    | sed -n 's/^checksum=//p')"
test -n "$WANT_PR"
for engine in lock pipe omp; do
    for i in 1 2 3; do
        GOT_PR="$("$PHIGRAPH" run pagerank "$SMOKE_DIR/gnm-small.bin" --engine "$engine" \
            --checksum | sed -n 's/^checksum=//p')"
        if [ "$GOT_PR" != "$WANT_PR" ]; then
            echo "$engine run $i printed checksum $GOT_PR, seq printed $WANT_PR" >&2
            exit 1
        fi
    done
done
echo "    (lock x3, pipe x3, omp x3 and seq: checksum=$WANT_PR)"
# Two ranks: a rank with peers never gathers, so every PageRank step folds
# each message on arrival, the peer's combined batch after the rank's own
# messages. Rank 1 runs the same host path on lock and on pipe: two runs of
# each must print one checksum.
FABRIC_PR="$("$PHIGRAPH" run pagerank "$SMOKE_DIR/gnm-small.bin" --devices 2 --checksum \
    | sed -n 's/^checksum=//p')"
test -n "$FABRIC_PR"
for engine in lock pipe pipe; do
    GOT_PR="$("$PHIGRAPH" run pagerank "$SMOKE_DIR/gnm-small.bin" --devices 2 \
        --engine "$engine" --checksum | sed -n 's/^checksum=//p')"
    if [ "$GOT_PR" != "$FABRIC_PR" ]; then
        echo "--devices 2 --engine $engine printed checksum $GOT_PR, the first run printed $FABRIC_PR" >&2
        exit 1
    fi
done
echo "    (--devices 2, lock x2 and pipe x2: checksum=$FABRIC_PR)"
# --integrity full arms the message audit on one device, which makes every
# dense step fill the buffer instead of gathering, and seals the exchange
# frames on two ranks, whose steps fold on arrival either way: each must
# print the checksum of the plain runs above.
GOT_PR="$("$PHIGRAPH" run pagerank "$SMOKE_DIR/gnm-small.bin" --integrity full \
    --checkpoint-dir "$SMOKE_DIR/pr-full" --checksum | sed -n 's/^checksum=//p')"
if [ "$GOT_PR" != "$WANT_PR" ]; then
    echo "--integrity full printed checksum $GOT_PR, seq printed $WANT_PR" >&2
    exit 1
fi
GOT_PR="$("$PHIGRAPH" run pagerank "$SMOKE_DIR/gnm-small.bin" --devices 2 --integrity full \
    --checkpoint-dir "$SMOKE_DIR/pr-full-2" --checksum | sed -n 's/^checksum=//p')"
if [ "$GOT_PR" != "$FABRIC_PR" ]; then
    echo "--devices 2 --integrity full printed checksum $GOT_PR, the plain runs printed $FABRIC_PR" >&2
    exit 1
fi
echo "    (--integrity full on one device and on --devices 2: the same checksums)"
# On a rank with peers a message bit-flip strikes the outgoing frame, not a
# buffer cell, and the rank's steps fold on arrival while it is pending. The
# frame check heals it to the clean checksum; without the check lock and
# pipe carry the same flip into one checksum that is not the clean one.
GOT_PR="$("$PHIGRAPH" run pagerank "$SMOKE_DIR/gnm-small.bin" --devices 2 \
    --faults 1:bitflip-msg --integrity frames --checksum | sed -n 's/^checksum=//p')"
if [ "$GOT_PR" != "$FABRIC_PR" ]; then
    echo "--devices 2 with a healed message bit-flip printed checksum $GOT_PR, the plain runs printed $FABRIC_PR" >&2
    exit 1
fi
FLIPPED=""
for engine in lock pipe; do
    GOT_PR="$("$PHIGRAPH" run pagerank "$SMOKE_DIR/gnm-small.bin" --devices 2 \
        --engine "$engine" --faults 1:bitflip-msg --checksum | sed -n 's/^checksum=//p')"
    test -n "$GOT_PR"
    FLIPPED="${FLIPPED:-$GOT_PR}"
    if [ "$GOT_PR" != "$FLIPPED" ]; then
        echo "--devices 2 --engine $engine with a message bit-flip printed $GOT_PR, lock printed $FLIPPED" >&2
        exit 1
    fi
done
if [ "$FLIPPED" = "$FABRIC_PR" ]; then
    echo "--devices 2: the message bit-flip left the clean checksum $FABRIC_PR" >&2
    exit 1
fi
echo "    (--devices 2 with a message bit-flip: healed by frames to $FABRIC_PR; checksum=$FLIPPED on lock and pipe without)"
# Traversals: their supersteps fold each message on arrival, and under
# --integrity full they insert each message into the buffer instead. Both
# print seq's checksum on every mode, and two --devices 2 runs print one
# checksum.
for app in sssp bfs wcc; do
    WANT="$("$PHIGRAPH" run "$app" "$SMOKE_DIR/gnm-small.bin" --engine seq --checksum \
        | sed -n 's/^checksum=//p')"
    test -n "$WANT"
    for engine in lock pipe omp; do
        for audit in "" "--integrity full --checkpoint-dir $SMOKE_DIR/$app-$engine-full"; do
            # shellcheck disable=SC2086 # $audit is a list of flags
            GOT="$("$PHIGRAPH" run "$app" "$SMOKE_DIR/gnm-small.bin" --engine "$engine" \
                $audit --checksum | sed -n 's/^checksum=//p')"
            if [ "$GOT" != "$WANT" ]; then
                echo "$app --engine $engine $audit printed checksum $GOT, seq printed $WANT" >&2
                exit 1
            fi
        done
    done
    FIRST="$("$PHIGRAPH" run "$app" "$SMOKE_DIR/gnm-small.bin" --devices 2 --checksum \
        | sed -n 's/^checksum=//p')"
    SECOND="$("$PHIGRAPH" run "$app" "$SMOKE_DIR/gnm-small.bin" --devices 2 --checksum \
        | sed -n 's/^checksum=//p')"
    if [ -z "$FIRST" ] || [ "$FIRST" != "$SECOND" ]; then
        echo "$app --devices 2 printed checksums $FIRST and $SECOND" >&2
        exit 1
    fi
done
echo "    (sssp, bfs and wcc on lock, pipe and omp, audited or not: seq's checksums; --devices 2 x2: one checksum each)"

echo "==> object-fabric smoke: semicluster on 3 ranks writes the one-device values"
# Object messages run on the same rank loop as POD ones: a 3-rank
# Semi-Clustering run must write exactly what one device writes.
"$PHIGRAPH" generate dblp "$SMOKE_DIR/dblp.bin" --scale tiny --seed 7 >/dev/null
"$PHIGRAPH" run semicluster "$SMOKE_DIR/dblp.bin" --out "$SMOKE_DIR/sc1.txt" >/dev/null
"$PHIGRAPH" run semicluster "$SMOKE_DIR/dblp.bin" --devices 3 \
    --out "$SMOKE_DIR/sc3.txt" >/dev/null
cmp "$SMOKE_DIR/sc1.txt" "$SMOKE_DIR/sc3.txt"
echo "    (semicluster --devices 3 == one device: ok)"

echo "==> bench smoke: BENCH_*.json emission + regression gate"
# Smoke-measure every area into the repo root (the per-PR perf artifacts),
# then prove the gate both passes and trips. Numbers from smoke runs are
# for trend/gating only; full runs use 'phigraph bench run' without flags.
"$PHIGRAPH" bench run --out-dir . --smoke --seed 7 --samples 3 --warmup 1
for area in csb superstep exchange integrity partition objmsg serve serve_degraded obs; do
    test -f "BENCH_$area.json" || { echo "missing BENCH_$area.json" >&2; exit 1; }
done
if [ -d bench-baseline ]; then
    # Generous threshold: CI machines vary wildly; the committed baseline
    # only guards against order-of-magnitude cliffs.
    "$PHIGRAPH" bench compare bench-baseline . --threshold 10
else
    echo "    (no bench-baseline/ yet; bootstrapping from this run)"
    mkdir -p bench-baseline
    cp BENCH_*.json bench-baseline/
fi
# The gate must exit nonzero against a baseline perturbed 100x faster.
"$PHIGRAPH" bench perturb BENCH_csb.json "$SMOKE_DIR/fast.json" --factor 0.01
if "$PHIGRAPH" bench compare "$SMOKE_DIR/fast.json" BENCH_csb.json >/dev/null 2>&1; then
    echo "bench gate FAILED to trip on a perturbed baseline" >&2
    exit 1
fi
echo "    (gate trips on perturbed baseline: ok)"

echo "==> serving smoke: concurrent multi-tenant daemon over stdin"
# ≥8 concurrent mixed-tenant queries through a live daemon; all must
# complete with correct answers (checksum parity with one-shot runs),
# the Prometheus dump must carry per-tenant counters, and the report
# must decompose the run by tenant.
SERVE_FIFO="$SMOKE_DIR/serve.fifo"
MSOCK="$SMOKE_DIR/metrics.sock"
mkfifo "$SERVE_FIFO"
"$PHIGRAPH" serve "$SMOKE_DIR/g.bin" --workers 2 --queue-cap 32 \
    --tenants gold:4:2,silver:2:1,bronze:1:1 \
    --report-out "$SMOKE_DIR/serve_report.json" \
    --prom-out "$SMOKE_DIR/serve.prom" \
    --metrics-sock "$MSOCK" \
    --events-out "$SMOKE_DIR/serve_events.jsonl" \
    < "$SERVE_FIFO" > "$SMOKE_DIR/serve_out.jsonl" 2>/dev/null &
SERVE_PID=$!
# Hold the write end open so every job is in flight before EOF.
exec 9> "$SERVE_FIFO"
printf '%s\n' \
    '{"id":"q1","tenant":"gold","app":"bfs","source":0}' \
    '{"id":"q2","tenant":"silver","app":"sssp","sources":[0,3]}' \
    '{"id":"q3","tenant":"bronze","app":"pagerank","iters":5}' \
    '{"id":"q4","tenant":"gold","app":"ppr","source":2,"iters":8}' \
    '{"id":"q5","tenant":"silver","app":"wcc"}' \
    '{"id":"q6","tenant":"bronze","app":"bfs","source":5}' \
    '{"id":"q7","tenant":"gold","app":"sssp","sources":[1]}' \
    '{"id":"q8","tenant":"silver","app":"bfs","source":9}' \
    >&9
# Mid-traffic scrape of the metrics socket while the daemon is live
# (stdin still open). Give the 1 Hz sampler a beat so the sliding
# windows have a baseline, then retry until the listener answers.
sleep 1.5
SCRAPED=""
for _ in 1 2 3 4 5 6 7 8 9 10; do
    if "$PHIGRAPH" top "$MSOCK" --raw --count 1 > "$SMOKE_DIR/scrape.prom" 2>/dev/null \
        && grep -q '^phigraph_serve_' "$SMOKE_DIR/scrape.prom"; then
        SCRAPED=yes
        break
    fi
    sleep 0.5
done
test -n "$SCRAPED" || { echo "metrics socket never answered" >&2; exit 1; }
# Prometheus exposition shape: paired HELP/TYPE, no malformed sample
# lines, live histogram buckets, and the sliding-window gauge families.
test "$(grep -c '^# HELP' "$SMOKE_DIR/scrape.prom")" \
    -eq "$(grep -c '^# TYPE' "$SMOKE_DIR/scrape.prom")"
if grep -v '^#' "$SMOKE_DIR/scrape.prom" | grep -q -v '^[a-zA-Z_][a-zA-Z0-9_]*\({[^}]*}\)\{0,1\} -\{0,1\}[0-9]'; then
    echo "malformed Prometheus sample line in mid-traffic scrape" >&2
    exit 1
fi
grep -q '_bucket{le=' "$SMOKE_DIR/scrape.prom"
grep -q 'phigraph_serve_window_jobs_per_sec{tenant="gold",window="10s"}' "$SMOKE_DIR/scrape.prom"
grep -q 'phigraph_serve_window_shed_level{window="10s"}' "$SMOKE_DIR/scrape.prom"
grep -q 'quantile="0.99"' "$SMOKE_DIR/scrape.prom"
# The rendered per-tenant table reads the same scrape.
"$PHIGRAPH" top "$MSOCK" --count 1 --window 10s | grep -q "gold"
# The same exposition is reachable in-protocol, mid-traffic.
printf '%s\n' '{"op":"stats","format":"prom"}' >&9
exec 9>&-                       # EOF: graceful drain, then exit
wait "$SERVE_PID"
test "$(grep -c '"status": "ok"' "$SMOKE_DIR/serve_out.jsonl")" -eq 9
grep '"format": "prom"' "$SMOKE_DIR/serve_out.jsonl" | grep -q 'phigraph_serve_window_queued'
test ! -e "$MSOCK" || { echo "stale metrics socket left behind" >&2; exit 1; }
# The JSONL event log threads trace ids admission -> reply, and the
# report command tallies it (degrading, never erroring, on partials).
grep -q '"ev": "admit"' "$SMOKE_DIR/serve_events.jsonl"
grep -q '"ev": "done"' "$SMOKE_DIR/serve_events.jsonl"
grep '"ev": "done"' "$SMOKE_DIR/serve_events.jsonl" | grep -q '"trace": "t'
"$PHIGRAPH" report "$SMOKE_DIR/serve_events.jsonl" 2>/dev/null | grep -q "^event log:"
# Correctness: the daemon's BFS answer equals a one-shot run bit for bit.
WANT="$("$PHIGRAPH" run bfs "$SMOKE_DIR/g.bin" --checksum | sed -n 's/^checksum=//p')"
grep '"id": "q1"' "$SMOKE_DIR/serve_out.jsonl" | grep -q "$WANT"
grep -q 'phigraph_serve_jobs_completed{tenant="gold"} 3' "$SMOKE_DIR/serve.prom"
grep -q 'phigraph_serve_jobs_completed{tenant="bronze"} 2' "$SMOKE_DIR/serve.prom"
# (capture, then grep: grep -q closing the pipe early would EPIPE the CLI)
"$PHIGRAPH" report "$SMOKE_DIR/serve_report.json" > "$SMOKE_DIR/serve_report.txt"
grep -q "per-tenant decomposition" "$SMOKE_DIR/serve_report.txt"
grep -q "gold" "$SMOKE_DIR/serve_report.txt"
# SIGTERM with stdin held open: clean exit 0 without leaking the pool.
SERVE_FIFO2="$SMOKE_DIR/serve2.fifo"
mkfifo "$SERVE_FIFO2"
"$PHIGRAPH" serve "$SMOKE_DIR/g.bin" --workers 2 \
    --report-out "$SMOKE_DIR/serve_report2.json" \
    --journal-dir "$SMOKE_DIR/sigterm-journal" \
    < "$SERVE_FIFO2" >/dev/null 2>&1 &
SERVE2_PID=$!
exec 8> "$SERVE_FIFO2"
sleep 1
kill -TERM "$SERVE2_PID"
wait "$SERVE2_PID"              # set -e: fails unless the daemon exits 0
exec 8>&-
# A SIGTERM'd daemon with a journal leaves its flight recording behind.
"$PHIGRAPH" report "$SMOKE_DIR/sigterm-journal/flight.json" \
    | grep -q 'flight recording: reason "sigterm"'
echo "    (8 mixed-tenant jobs + live scrape ok, checksum parity, clean SIGTERM + flight: ok)"

echo "==> chaos smoke: seeded kill/restart/reload soak at 2x admission capacity"
# 20 in-process daemon incarnations sharing one journal, faults drawn
# from the serving fault catalog (daemon-kill, worker-hang, slow-client,
# malformed-line), hot reloads mid-traffic. Exits nonzero unless every
# admitted job reached exactly one terminal outcome with a checksum
# bit-identical to a direct one-shot execution.
"$PHIGRAPH" serve-chaos --cycles 20 --seed 7 \
    --journal-dir "$SMOKE_DIR/chaos-journal" \
    > "$SMOKE_DIR/chaos.jsonl" 2>/dev/null
grep -q '"status": "ok"' "$SMOKE_DIR/chaos.jsonl"
# Every killed incarnation leaves a flight-recorder postmortem; the
# canonical flight.json must exist and parse whenever a kill fired.
if grep '"daemon-kill"' "$SMOKE_DIR/chaos.jsonl" | grep -q -v '"daemon-kill": 0'; then
    test -f "$SMOKE_DIR/chaos-journal/flight.json" \
        || { echo "chaos kill left no flight.json" >&2; exit 1; }
    "$PHIGRAPH" report "$SMOKE_DIR/chaos-journal/flight.json" \
        | grep -q 'flight recording: reason "chaos-kill"'
    ls "$SMOKE_DIR/chaos-journal"/flight-c*.json >/dev/null 2>&1 \
        || { echo "chaos kill left no per-cycle flight artifact" >&2; exit 1; }
fi
echo "    (20 kill/restart/reload cycles: zero lost, zero corrupted)"

echo "==> journal smoke: kill -9 mid-burst, restart replays bit-identically"
JDIR="$SMOKE_DIR/serve-journal"
JOBS_FIFO="$SMOKE_DIR/journal.fifo"
mkfifo "$JOBS_FIFO"
"$PHIGRAPH" serve "$SMOKE_DIR/g.bin" --workers 1 --journal-dir "$JDIR" \
    --report-out "$SMOKE_DIR/journal_report1.json" \
    < "$JOBS_FIFO" > "$SMOKE_DIR/journal_out1.jsonl" 2>/dev/null &
JPID=$!
exec 7> "$JOBS_FIFO"
printf '%s\n' \
    '{"id":"j1","tenant":"gold","app":"bfs","source":0}' \
    '{"id":"j2","tenant":"gold","app":"pagerank","iters":40}' \
    '{"id":"j3","tenant":"silver","app":"wcc"}' \
    '{"id":"j4","tenant":"silver","app":"sssp","sources":[3]}' \
    >&7
sleep 1
kill -9 "$JPID" 2>/dev/null || true
wait "$JPID" 2>/dev/null || true
exec 7>&-
# Restart on the same journal with an immediate EOF: recovery re-emits
# every finished result and replays the incomplete remainder to
# completion before exiting.
"$PHIGRAPH" serve "$SMOKE_DIR/g.bin" --workers 1 --journal-dir "$JDIR" \
    --report-out "$SMOKE_DIR/journal_report2.json" \
    < /dev/null > "$SMOKE_DIR/journal_out2.jsonl" 2>/dev/null
for id in j1 j2 j3 j4; do
    grep "\"id\": \"$id\"" "$SMOKE_DIR/journal_out2.jsonl" | grep -q '"status": "ok"' \
        || { echo "journal replay lost $id" >&2; exit 1; }
done
# Checksum parity: the replayed BFS answer equals the one-shot run.
grep '"id": "j1"' "$SMOKE_DIR/journal_out2.jsonl" | grep -q "$WANT"
echo "    (kill -9 -> restart -> 4/4 jobs ok, checksum parity: ok)"

echo "==> hot-swap smoke: reload mid-traffic drops no queries"
"$PHIGRAPH" generate gnm "$SMOKE_DIR/g2.bin" --scale tiny --seed 8 >/dev/null
printf '%s\n' \
    '{"id":"r1","app":"bfs","source":0}' \
    '{"id":"r2","app":"wcc"}' \
    "{\"op\":\"reload\",\"path\":\"$SMOKE_DIR/g2.bin\"}" \
    '{"id":"r3","app":"bfs","source":0}' \
    '{"id":"r4","app":"sssp","sources":[1]}' \
    | "$PHIGRAPH" serve "$SMOKE_DIR/g.bin" --workers 2 \
        --report-out "$SMOKE_DIR/reload_report.json" \
        > "$SMOKE_DIR/reload_out.jsonl" 2>/dev/null
grep '"op":"reload"' "$SMOKE_DIR/reload_out.jsonl" | grep -q '"epoch":2'
test "$(grep -c '"status": "ok"' "$SMOKE_DIR/reload_out.jsonl")" -eq 4
echo "    (reload to epoch 2 mid-traffic, 4/4 queries + reload ack ok)"

echo "==> all checks passed"
