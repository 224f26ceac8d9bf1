#!/bin/sh
# Tier-1 gate: warning-free compilation, the test suite, and a clean
# lint of the SDR case study on the FX70T device (exit 1 on any
# Error-severity RFxxx finding).
#
#   bin/lint.sh               -- the full gate
#   bin/lint.sh test-matrix   -- the test suite only, once per worker
#                                count (RFLOOR_WORKERS in {1, 2, 4})
#                                under a fixed RFLOOR_TEST_SEED, so the
#                                randomized differential suite replays
#                                the same instances on every axis
#   bin/lint.sh trace-check   -- tracing gate only: solve a pinned tiny
#                                instance with --trace jsonl, validate
#                                the capture, and check the result is
#                                byte-identical with tracing off
#   bin/lint.sh bench-smoke   -- bench-artifact gate only: run the quick
#                                (mini-device) bench set on a 2s budget,
#                                validate the artifact and require a
#                                clean self-compare.  Never touches the
#                                FX70T instances.
#   bin/lint.sh serve-smoke   -- service gate only: script an NDJSON
#                                session against tiny/mini devices and
#                                assert one canonical-key cache hit
#                                (zero nodes), one cooperative cancel,
#                                and a schema-valid metrics snapshot.
#   bin/lint.sh simplex-check -- LP-core gate only: the sparse-LU
#                                property suite (L·U=P·B·Q with Q a
#                                permutation, every L multiplier at
#                                most 10, ftran/btran, update-vs-
#                                refactor, up to m = 300), the pinned
#                                FX70T root LP (iterations, objective
#                                bits, x digest, minor words per
#                                iteration) and the fill of its optimal
#                                basis (L+U at most 1.5x its nonzeros),
#                                the full 200-instance LP differential
#                                (sparse vs frozen dense reference, warm
#                                vs cold children, cold-vs-warm B&B) and
#                                the branch-and-bound differentials (the
#                                1-worker engine bit for bit against the
#                                frozen sequential loop, and 1/2/4
#                                workers against it on 200 MILPs) at
#                                the pinned seed and at seeds 7 and
#                                424242, then the simplex fixtures and
#                                the cancellation tests at the pinned
#                                seed and at seeds 1, 7, 12 and 42.
#   bin/lint.sh search-check  -- combinatorial-engine gate only: the
#                                search suites at the pinned seed and at
#                                seeds 7 and 424242 (the flat engine
#                                against the frozen list-based reference
#                                engine on SDR, SDR2, SDR3 node limits,
#                                the feasibility variants and 320 seeded
#                                instances; brute force on tiny
#                                instances; the node-count pins; the
#                                allocation bound per node), then the
#                                full SDR3 lexicographic proof through
#                                the CLI with no node limit, which must
#                                end proven at 120 wasted frames, wire
#                                length 1504, in 70539270 nodes (about
#                                25 s).
#   bin/lint.sh perf-smoke    -- benchmark gate only: sh perfbench/smoke.sh,
#                                every BENCHMARK.json workload at 1/20
#                                scale, untraced and traced, each passing
#                                its correctness checks and printing
#                                exactly the declared metric names and
#                                units.
#   bin/lint.sh concheck      -- concurrency gate only: exhaust the
#                                interleaving scenarios and race-detect
#                                an instrumented 2-worker solve on the
#                                pinned seed, lint lib/ and bin/ for raw
#                                sync primitives (RF401..RF403), and
#                                trace-verify a fresh jsonl solve plus
#                                two seeded-defect fixtures that must
#                                be rejected.
#   bin/lint.sh portfolio-check -- strategy/portfolio gate only: the
#                                Strategy grammar suite (round-trips,
#                                RF501/RF502), a 25-instance cuts-on/off
#                                differential at the pinned seed, the
#                                race-cancellation tests (losers observe
#                                the cooperative stop), a raw-sync lint
#                                of lib/portfolio, and a CLI solve
#                                through --strategy portfolio:[...].
#   bin/lint.sh obsv-check    -- operational-plane gate only: boot a
#                                live serve --telemetry 0 session,
#                                scrape /metrics, /healthz and /statusz,
#                                stream a progress-enabled job (>= 2
#                                frames, result last, the in-flight job
#                                visible in /statusz), reject a seeded
#                                malformed HTTP request (RF602, never a
#                                crash), and round-trip a captured
#                                trace through trace-export /
#                                trace-validate / trace-report.
#   bin/lint.sh online-check  -- online-floorplanning gate only: replay
#                                the pinned seeded 100-event workload
#                                locally with every audit on (each move
#                                through the relocation filter, each
#                                non-moving module's image compared in
#                                place with its old one, MER set equal
#                                to a recompute), push the
#                                same trace as rfloor-service/1 frames
#                                through the live service (>= 1 defrag
#                                episode, zero error frames, final
#                                layout matching the local replay),
#                                reject a seeded duplicate-add fixture
#                                (RF702), run `test_main.exe test online`
#                                (admission pinned to the original scan,
#                                the pinned FX70T churn replay) and
#                                `test_main.exe test 'bitstream.*'` (the
#                                pinned image wire format, the parse
#                                length check and the allocation bounds;
#                                again at RFLOOR_TEST_SEED 7 and 424242
#                                for the seeded relocation round-trip
#                                property), and relocate an area
#                                off the FX70T in both directions, which
#                                must exit 1 with a message and never an
#                                "internal error".
set -eu
cd "$(dirname "$0")/.."

# one trap for every gate's scratch space (a later trap would replace
# an earlier one and leak its directory); obsv-check also parks its
# serve PID here so a failing assertion never leaks the process
tmp="" btmp="" stmp="" ctmp="" ptmp="" otmp="" ltmp="" qtmp="" osrv=""
trap '{ [ -n "$osrv" ] && kill "$osrv" 2>/dev/null; rm -rf "$tmp" "$btmp" "$stmp" "$ctmp" "$ptmp" "$otmp" "$ltmp" "$qtmp"; } || true' EXIT

bench_smoke() {
    echo "== bench-smoke (quick instance set, 2s budget)"
    btmp=$(mktemp -d)
    RFLOOR_BENCH_BUDGET=2 dune exec bench/main.exe -- \
        --artifact smoke --artifact-dir "$btmp" --instances quick
    dune exec bin/rfloor_cli.exe -- trace-validate --kind bench \
        "$btmp/BENCH_smoke.json"
    dune exec bin/rfloor_cli.exe -- bench-compare \
        "$btmp/BENCH_smoke.json" "$btmp/BENCH_smoke.json"
    echo "bench-smoke passed (artifact valid, self-compare clean)"
}

trace_check() {
    echo "== trace-check (tiny pinned instance, milp, 2 workers)"
    tmp=$(mktemp -d)
    cat > "$tmp/device.txt" <<'EOF'
name: lintdev
ccbccdccbc
ccbccdccbc
EOF
    cat > "$tmp/design.txt" <<'EOF'
name: lintdesign
region filter clb=2 bram=1
region decoder clb=2 dsp=1
net filter decoder 32
EOF
    dune exec bin/rfloor_cli.exe -- solve \
        --device-file "$tmp/device.txt" --design-file "$tmp/design.txt" \
        --engine milp --workers 2 --time 30 \
        --trace "jsonl:$tmp/trace.jsonl" > "$tmp/out.traced" 2> "$tmp/report.txt"
    dune exec bin/rfloor_cli.exe -- trace-validate "$tmp/trace.jsonl"
    grep -q 'phase breakdown:' "$tmp/report.txt" || {
        echo "trace-check: no phase breakdown in the traced report" >&2; exit 1; }
    dune exec bin/rfloor_cli.exe -- solve \
        --device-file "$tmp/device.txt" --design-file "$tmp/design.txt" \
        --engine milp --workers 2 --time 30 \
        --trace off > "$tmp/out.plain"
    for key in 'engine:' 'wasted frames:'; do
        a=$(grep "$key" "$tmp/out.traced" || true)
        b=$(grep "$key" "$tmp/out.plain" || true)
        if [ "$a" != "$b" ] || [ -z "$a" ]; then
            echo "trace-check: '$key' differs with tracing on/off:" >&2
            echo "  traced: $a" >&2
            echo "  plain : $b" >&2
            exit 1
        fi
    done
    echo "trace-check passed (schema valid, result identical with tracing off)"
}

serve_smoke() {
    echo "== serve-smoke (scripted NDJSON session: cache hit + cancel)"
    stmp=$(mktemp -d)
    # a: lexicographic solve of a tiny inline device (optimal in well
    #    under a second); b: the identical request, which must be an
    #    exact canonical-key hit; c: a slower relocation job that gets
    #    cancelled while queued (one service worker).
    cat > "$stmp/session.ndjson" <<'EOF'
{"op":"solve","id":"a","device_text":"name: tiny\nccbccd\nccbccd\nccbccd\n","design_text":"name: toy\nregion filter clb=2 bram=1\nregion decoder clb=2 dsp=1\nnet filter decoder 32\n","time":30}
{"op":"solve","id":"b","device_text":"name: tiny\nccbccd\nccbccd\nccbccd\n","design_text":"name: toy\nregion filter clb=2 bram=1\nregion decoder clb=2 dsp=1\nnet filter decoder 32\n","time":30}
{"op":"solve","id":"c","device":"mini","design_text":"name: toy\nregion filter clb=2 bram=1\nregion decoder clb=2 dsp=1\nnet filter decoder 32\nreloc filter 1 hard\n","time":60}
{"op":"cancel","id":"c"}
{"op":"stats"}
{"op":"shutdown"}
EOF
    dune exec bin/rfloor_cli.exe -- batch "$stmp/session.ndjson" \
        --workers 1 --metrics "json:$stmp/metrics.json" > "$stmp/out.ndjson"
    b_line=$(grep '"id":"b"' "$stmp/out.ndjson")
    case "$b_line" in
        *'"source":"cache"'*) ;;
        *) echo "serve-smoke: request b was not a cache hit:" >&2
           echo "  $b_line" >&2; exit 1;;
    esac
    case "$b_line" in
        *'"nodes":0'*) ;;
        *) echo "serve-smoke: cache hit b ran branch-and-bound nodes:" >&2
           echo "  $b_line" >&2; exit 1;;
    esac
    c_line=$(grep '"id":"c"' "$stmp/out.ndjson" | grep '"type":"result"')
    case "$c_line" in
        *'"outcome":"stopped"'*) ;;
        *) echo "serve-smoke: request c was not cancelled:" >&2
           echo "  $c_line" >&2; exit 1;;
    esac
    grep -q '"type":"ack","op":"cancel","id":"c","ok":true' "$stmp/out.ndjson" || {
        echo "serve-smoke: cancel of c was not acknowledged" >&2; exit 1; }
    grep '"type":"stats"' "$stmp/out.ndjson" | grep -q '"cache_hits":1' || {
        echo "serve-smoke: stats frame does not count the cache hit" >&2; exit 1; }
    dune exec bin/rfloor_cli.exe -- trace-validate --kind metrics \
        "$stmp/metrics.json"
    echo "serve-smoke passed (cache hit with 0 nodes, cancel acked, metrics valid)"
}

concheck() {
    echo "== concheck (interleavings, race detector, source lint, trace invariants)"
    ctmp=$(mktemp -d)
    # 1. scenario explorer + detector self-test + recorded 2-worker solve
    dune exec bin/rfloor_cli.exe -- concheck --seed "${RFLOOR_TEST_SEED:-2015}"
    # 2. raw Mutex/Condition/Atomic outside lib/sync
    dune exec bin/rfloor_cli.exe -- lint --sources lib --sources bin
    # 3. causal invariants of a fresh traced solve
    cat > "$ctmp/device.txt" <<'EOF'
name: concheckdev
ccbccdccbc
ccbccdccbc
EOF
    cat > "$ctmp/design.txt" <<'EOF'
name: concheckdesign
region filter clb=2 bram=1
region decoder clb=2 dsp=1
net filter decoder 32
EOF
    dune exec bin/rfloor_cli.exe -- solve \
        --device-file "$ctmp/device.txt" --design-file "$ctmp/design.txt" \
        --engine milp --workers 2 --time 30 \
        --trace "jsonl:$ctmp/trace.jsonl" > /dev/null
    dune exec bin/rfloor_cli.exe -- trace-verify "$ctmp/trace.jsonl"
    # 4. the verifier must still have teeth: seeded defects must fail
    cat > "$ctmp/bad_span.jsonl" <<'EOF'
{"t":0.0,"w":0,"ev":"span_start","phase":"build"}
{"t":0.1,"w":0,"ev":"span_start","phase":"root_lp"}
{"t":0.2,"w":0,"ev":"span_end","phase":"build"}
{"t":0.3,"w":0,"ev":"span_end","phase":"root_lp"}
EOF
    if dune exec bin/rfloor_cli.exe -- trace-verify "$ctmp/bad_span.jsonl" \
        > /dev/null 2>&1; then
        echo "concheck: out-of-order span fixture was accepted (RF431 lost)" >&2
        exit 1
    fi
    cat > "$ctmp/bad_incumbent.jsonl" <<'EOF'
{"t":0.0,"w":0,"ev":"span_start","phase":"branch_bound"}
{"t":0.1,"w":0,"ev":"incumbent","obj":5.0,"node":1}
{"t":0.2,"w":0,"ev":"incumbent","obj":9.0,"node":2}
{"t":0.3,"w":0,"ev":"incumbent","obj":4.0,"node":3}
{"t":0.4,"w":0,"ev":"span_end","phase":"branch_bound"}
EOF
    if dune exec bin/rfloor_cli.exe -- trace-verify "$ctmp/bad_incumbent.jsonl" \
        > /dev/null 2>&1; then
        echo "concheck: non-monotone incumbent fixture was accepted (RF433 lost)" >&2
        exit 1
    fi
    echo "concheck passed (schedules exhausted, solve race-free, sources clean, invariants enforced)"
}

simplex_check() {
    echo "== simplex-check (LU properties, pinned FX70T root LP and basis fill, fixtures, LP and B&B differentials)"
    seed="${RFLOOR_TEST_SEED:-2015}"
    RFLOOR_TEST_SEED="$seed" dune exec test/test_main.exe -- test simplex_core.lu
    dune exec test/test_main.exe -- test simplex_core.root_lp
    # cases 3-5 of the differential suite are the LP-core trio (sparse
    # vs dense reference, warm child re-solves, cold-vs-warm B&B), at
    # their default 200 instances; case 1 runs 1/2/4 workers against
    # the frozen sequential loop and case 9 the 1-worker engine bit for
    # bit against it
    for s in "$seed" 7 424242; do
        RFLOOR_TEST_SEED="$s" dune exec test/test_main.exe -- test differential 1,3-5,9
    done
    # 1, 7, 12 and 42 are seeds at which the cancellation tests once
    # met an instance solved before the token fired
    for s in "$seed" 1 7 12 42; do
        RFLOOR_TEST_SEED="$s" dune exec test/test_main.exe -- test milp.simplex
        RFLOOR_TEST_SEED="$s" dune exec test/test_main.exe -- test service.cancel
    done
    echo "simplex-check passed (L·U=P·B·Q properties, pinned root LP and fill bound, fixtures, LP and B&B differentials (1-worker engine = reference B&B, workers 1/2/4 vs reference) at seeds $seed, 7, 424242, fixtures and cancellation at seeds $seed, 1, 7, 12, 42)"
}

search_check() {
    echo "== search-check (search suites, full SDR3 lexicographic proof)"
    seed="${RFLOOR_TEST_SEED:-2015}"
    # the seeded reference contract and the brute-force properties
    # depend on each seed's instances
    for s in "$seed" 7 424242; do
        RFLOOR_TEST_SEED="$s" dune exec test/test_main.exe -- test 'search.*'
    done
    # the proof the paper's commercial solver left open after 6 h: a CPU
    # budget far above its run time, so only a proof can end it
    qtmp=$(mktemp -d)
    dune exec bin/rfloor_cli.exe -- solve --device fx70t --design sdr3 \
        --strategy combinatorial --time 36000 -v > "$qtmp/sdr3.txt" 2>&1
    grep -q '^wasted frames: 120, wire length: 1504.0$' "$qtmp/sdr3.txt" || {
        echo "search-check: SDR3 did not end proven at 120 / 1504:" >&2
        grep 'wasted frames\|search stopped' "$qtmp/sdr3.txt" >&2; exit 1; }
    grep -q '^nodes 70539270 ' "$qtmp/sdr3.txt" || {
        echo "search-check: SDR3 proof did not take 70539270 nodes:" >&2
        grep '^nodes ' "$qtmp/sdr3.txt" >&2; exit 1; }
    echo "search-check passed (search suites at seeds $seed, 7, 424242, SDR3 proven 120 / 1504 in 70539270 nodes)"
}

perf_smoke() {
    echo "== perf-smoke (every benchmark workload at 1/20 scale)"
    sh perfbench/smoke.sh
    echo "perf-smoke passed"
}

portfolio_check() {
    echo "== portfolio-check (strategy grammar, cut differential, race cancellation)"
    seed="${RFLOOR_TEST_SEED:-2015}"
    # 1. Strategy round-trips, RF502 parse errors, deprecated sugar,
    #    RF501 member-budget clamp
    RFLOOR_TEST_SEED="$seed" dune exec test/test_main.exe -- \
        test portfolio.strategy
    # 2. the symmetry/packing cut families never change a proved
    #    stage-1 verdict (25-instance smoke subset; the default suite
    #    runs 200)
    RFLOOR_TEST_SEED="$seed" RFLOOR_CUTS_DIFF=25 \
        dune exec test/test_main.exe -- test portfolio.cuts
    # 3. cancellation protocol: racing losers observe the cooperative
    #    stop (cases 1-2; case 0 is the slow vs-sequential differential
    #    that dune runtest covers)
    RFLOOR_TEST_SEED="$seed" dune exec test/test_main.exe -- \
        test portfolio.race 1-2
    # 4. no raw Mutex/Condition/Atomic in the race implementation
    dune exec bin/rfloor_cli.exe -- lint --sources lib/portfolio
    # 5. a 2-member portfolio solves the pinned tiny instance from the
    #    CLI and reports through the shared printer
    ptmp=$(mktemp -d)
    cat > "$ptmp/device.txt" <<'EOF'
name: portfoliodev
ccbccdccbc
ccbccdccbc
EOF
    cat > "$ptmp/design.txt" <<'EOF'
name: portfoliodesign
region filter clb=2 bram=1
region decoder clb=2 dsp=1
net filter decoder 32
EOF
    dune exec bin/rfloor_cli.exe -- solve \
        --device-file "$ptmp/device.txt" --design-file "$ptmp/design.txt" \
        --strategy 'portfolio:[milp:2,combinatorial]' --time 30 \
        > "$ptmp/out.txt"
    grep -q 'wasted frames:' "$ptmp/out.txt" || {
        echo "portfolio-check: CLI portfolio solve found no plan" >&2; exit 1; }
    grep -q 'portfolio' "$ptmp/out.txt" || {
        echo "portfolio-check: CLI output does not name the strategy" >&2; exit 1; }
    echo "portfolio-check passed (grammar, differential, cancellation, CLI race)"
}

obsv_check() {
    echo "== obsv-check (telemetry endpoint, progress stream, perfetto export)"
    otmp=$(mktemp -d)
    # a 3x14 device and a 4-region chained design: enough
    # branch-and-bound nodes that a 2.5 s budget streams several
    # progress frames, still seconds end to end
    cat > "$otmp/device.txt" <<'EOF'
name: obsvdev
ccbccdccbcccbc
ccbccdccbcccbc
ccbccdccbcccbc
EOF
    cat > "$otmp/design.txt" <<'EOF'
name: obsvdesign
region filter clb=3 bram=1
region decoder clb=3 dsp=1
region mixer clb=2 bram=1
region sink clb=2
net filter decoder 32
net decoder mixer 16
net mixer sink 8
EOF
    req='{"op":"solve","id":"p1","device_text":"name: obsvdev\nccbccdccbcccbc\nccbccdccbcccbc\nccbccdccbcccbc\n","design_text":"name: obsvdesign\nregion filter clb=3 bram=1\nregion decoder clb=3 dsp=1\nregion mixer clb=2 bram=1\nregion sink clb=2\nnet filter decoder 32\nnet decoder mixer 16\nnet mixer sink 8\n","time":2.5,"progress":{"interval_s":0.3}}'
    # 1. a live serve session: requests arrive through a fifo held open
    #    on fd 9 so the session outlives each printf
    mkfifo "$otmp/in"
    dune exec bin/rfloor_cli.exe -- serve --workers 1 --telemetry 0 \
        < "$otmp/in" > "$otmp/out.ndjson" 2> "$otmp/err.log" &
    osrv=$!
    exec 9> "$otmp/in"
    port=""
    i=0
    while [ $i -lt 100 ]; do
        port=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$otmp/err.log")
        [ -n "$port" ] && break
        i=$((i + 1)); sleep 0.1
    done
    [ -n "$port" ] || {
        echo "obsv-check: telemetry port never announced" >&2; exit 1; }
    # all three endpoints answer before any job exists
    h=$(dune exec bin/rfloor_cli.exe -- scrape --port "$port" /healthz)
    [ "$h" = "ok" ] || {
        echo "obsv-check: /healthz said '$h'" >&2; exit 1; }
    dune exec bin/rfloor_cli.exe -- scrape --port "$port" /metrics \
        > "$otmp/metrics.txt"
    grep -q '^rfloor_build_info{' "$otmp/metrics.txt" || {
        echo "obsv-check: /metrics lacks rfloor_build_info" >&2; exit 1; }
    grep -q '^rfloor_uptime_seconds ' "$otmp/metrics.txt" || {
        echo "obsv-check: /metrics lacks rfloor_uptime_seconds" >&2; exit 1; }
    dune exec bin/rfloor_cli.exe -- scrape --port "$port" /statusz \
        | grep -q '"v":"rfloor-statusz/1"' || {
        echo "obsv-check: /statusz lacks the rfloor-statusz/1 tag" >&2; exit 1; }
    # a progress-streamed job; /statusz must list it while in flight
    printf '%s\n' "$req" >&9
    seen=""
    i=0
    while [ $i -lt 50 ]; do
        if dune exec bin/rfloor_cli.exe -- scrape --port "$port" /statusz \
            | grep -q '"id":"p1"'; then
            seen=yes; break
        fi
        grep '"id":"p1"' "$otmp/out.ndjson" 2>/dev/null \
            | grep -q '"type":"result"' && break
        i=$((i + 1)); sleep 0.2
    done
    [ -n "$seen" ] || {
        echo "obsv-check: /statusz never listed the in-flight job p1" >&2
        exit 1; }
    i=0
    while [ $i -lt 300 ]; do
        grep '"id":"p1"' "$otmp/out.ndjson" 2>/dev/null \
            | grep -q '"type":"result"' && break
        i=$((i + 1)); sleep 0.1
    done
    grep '"id":"p1"' "$otmp/out.ndjson" | grep -q '"type":"result"' || {
        echo "obsv-check: job p1 produced no result frame" >&2; exit 1; }
    nprog=$(grep '"id":"p1"' "$otmp/out.ndjson" \
        | grep -c '"type":"progress"' || true)
    [ "$nprog" -ge 2 ] || {
        echo "obsv-check: expected >= 2 progress frames, saw $nprog" >&2
        exit 1; }
    last=$(grep '"id":"p1"' "$otmp/out.ndjson" | tail -1)
    case "$last" in
        *'"type":"result"'*) ;;
        *) echo "obsv-check: a progress frame followed the result:" >&2
           echo "  $last" >&2; exit 1;;
    esac
    # the seeded malformed request: 400 + RF602, and the server lives on
    raw=$(dune exec bin/rfloor_cli.exe -- scrape --port "$port" \
        --raw 'NONSENSE REQUEST')
    case "$raw" in
        *'400 Bad Request'*) ;;
        *) echo "obsv-check: malformed request was not answered 400" >&2
           exit 1;;
    esac
    case "$raw" in
        *RF602*) ;;
        *) echo "obsv-check: 400 body does not carry RF602" >&2; exit 1;;
    esac
    h=$(dune exec bin/rfloor_cli.exe -- scrape --port "$port" /healthz)
    [ "$h" = "ok" ] || {
        echo "obsv-check: server died after the malformed request" >&2
        exit 1; }
    dune exec bin/rfloor_cli.exe -- scrape --port "$port" /metrics \
        | grep -q '^rfloor_telemetry_bad_requests_total [1-9]' || {
        echo "obsv-check: bad request not counted in /metrics" >&2; exit 1; }
    printf '{"op":"shutdown"}\n' >&9
    exec 9>&-
    wait "$osrv"
    osrv=""
    # 2. timeline export: the same instance through --trace, then
    #    JSONL -> perfetto, a direct perfetto capture, and the report
    dune exec bin/rfloor_cli.exe -- solve \
        --device-file "$otmp/device.txt" --design-file "$otmp/design.txt" \
        --engine milp --workers 2 --time 2.5 \
        --trace "jsonl:$otmp/trace.jsonl" > /dev/null
    dune exec bin/rfloor_cli.exe -- trace-export "$otmp/trace.jsonl" \
        -o "$otmp/trace.perfetto.json"
    dune exec bin/rfloor_cli.exe -- trace-validate --kind perfetto \
        "$otmp/trace.perfetto.json"
    dune exec bin/rfloor_cli.exe -- trace-validate "$otmp/trace.perfetto.json"
    dune exec bin/rfloor_cli.exe -- trace-report "$otmp/trace.jsonl" \
        --critical-path > "$otmp/report.txt"
    grep -q 'phase dominance' "$otmp/report.txt" || {
        echo "obsv-check: trace-report lacks the dominance table" >&2; exit 1; }
    grep -q 'critical path' "$otmp/report.txt" || {
        echo "obsv-check: trace-report lacks the critical path" >&2; exit 1; }
    dune exec bin/rfloor_cli.exe -- solve \
        --device-file "$otmp/device.txt" --design-file "$otmp/design.txt" \
        --engine milp --workers 2 --time 2.5 \
        --trace "perfetto:$otmp/direct.json" > /dev/null
    dune exec bin/rfloor_cli.exe -- trace-validate "$otmp/direct.json"
    echo "obsv-check passed (endpoints live under a real job, >= $nprog progress frames, RF602 survived, perfetto valid)"
}

online_check() {
    echo "== online-check (workload replay, live service, defect fixture)"
    ltmp=$(mktemp -d)
    seed="${RFLOOR_TEST_SEED:-2015}"
    # 1. local replay with every audit on: each move passes the
    #    bitstream relocation filter, each non-moving module's image is
    #    compared in place with its old one (Image.equal: same wire
    #    bytes), and the incremental free-rectangle set equals a
    #    from-scratch recompute after every event
    dune exec bin/rfloor_cli.exe -- online --device mini --seed "$seed" \
        --events 100 > "$ltmp/replay.txt"
    grep -q '^violations: 0$' "$ltmp/replay.txt" || {
        echo "online-check: local replay reported audit violations:" >&2
        cat "$ltmp/replay.txt" >&2; exit 1; }
    episodes=$(sed -n 's/^defrag episodes: \([0-9]*\)$/\1/p' "$ltmp/replay.txt")
    [ -n "$episodes" ] && [ "$episodes" -ge 1 ] || {
        echo "online-check: pinned trace produced no defrag episode" >&2
        exit 1; }
    # 2. the same trace as rfloor-service/1 frames through the live
    #    service: no error frames, >= 1 defragmentation episode, and
    #    the final layout frame matching the local replay's state
    dune exec bin/rfloor_cli.exe -- online --device mini --seed "$seed" \
        --events 100 --emit "$ltmp/online.ndjson"
    dune exec bin/rfloor_cli.exe -- batch "$ltmp/online.ndjson" \
        --metrics "json:$ltmp/metrics.json" > "$ltmp/out.ndjson" 2> /dev/null
    if grep -q '"outcome":"error"' "$ltmp/out.ndjson"; then
        echo "online-check: service replay produced error frames:" >&2
        grep '"outcome":"error"' "$ltmp/out.ndjson" | head -3 >&2; exit 1
    fi
    svc_episodes=$(grep -c '"outcome":"defrag"\|"outcome":"fallback"' \
        "$ltmp/out.ndjson" || true)
    [ "$svc_episodes" -ge 1 ] || {
        echo "online-check: no defrag episode through the live service" >&2
        exit 1; }
    final=$(grep '"op":"layout"' "$ltmp/out.ndjson" | tail -1)
    occ=$(sed -n 's/^final occupancy: \([0-9.]*\).*/\1/p' "$ltmp/replay.txt")
    case "$final" in
        *'"occupancy":'"$occ"*) ;;
        *) echo "online-check: service final occupancy differs from the" >&2
           echo "  local replay ($occ): $final" >&2; exit 1;;
    esac
    dune exec bin/rfloor_cli.exe -- trace-validate --kind metrics \
        "$ltmp/metrics.json"
    grep -q 'rfloor_online_moves_executed_total' "$ltmp/metrics.json" || {
        echo "online-check: metrics lack the rfloor_online_* family" >&2
        exit 1; }
    # 3. seeded-defect fixture: a duplicate add must be refused (RF702)
    #    and an op before any layout must be refused (RF703)
    cat > "$ltmp/defect.ndjson" <<'EOF'
{"op":"add","name":"early","demand":{"clb":2}}
{"op":"layout","device":"mini"}
{"op":"add","name":"a","demand":{"clb":2}}
{"op":"add","name":"a","demand":{"clb":2}}
{"op":"shutdown"}
EOF
    dune exec bin/rfloor_cli.exe -- batch "$ltmp/defect.ndjson" \
        > "$ltmp/defect.out" 2> /dev/null
    grep -q '"code":"RF703"' "$ltmp/defect.out" || {
        echo "online-check: add before layout was not refused (RF703 lost)" >&2
        exit 1; }
    grep -q '"code":"RF702"' "$ltmp/defect.out" || {
        echo "online-check: duplicate add was accepted (RF702 lost)" >&2
        exit 1; }
    # 4. admission decisions and the FX70T churn replay pinned to the
    #    original scan; the image wire format and its allocation pinned;
    #    the relocation round-trip property at two more seeds
    dune exec test/test_main.exe -- test online
    dune exec test/test_main.exe -- test 'bitstream.*'
    for s in 7 424242; do
        RFLOOR_TEST_SEED="$s" dune exec test/test_main.exe -- test 'bitstream.*'
    done
    # 5. out-of-device fixture: a source or target area off the FX70T is
    #    refused with a message and exit 1, never an uncaught exception
    for areas in "3,1,2,2 42,1,2,2" "42,1,2,2 3,1,2,2"; do
        set -- $areas
        status=0
        dune exec bin/rfloor_cli.exe -- relocate --device fx70t \
            --src "$1" --dst "$2" > "$ltmp/reloc.out" 2>&1 || status=$?
        if [ "$status" -ne 1 ] || grep -q 'internal error' "$ltmp/reloc.out" \
            || ! grep -q 'leaves the device' "$ltmp/reloc.out"; then
            echo "online-check: relocate --src $1 --dst $2 exited $status:" >&2
            cat "$ltmp/reloc.out" >&2; exit 1
        fi
    done
    echo "online-check passed (audits clean, $svc_episodes defrag episodes through the service, defects rejected, admission and wire format pinned)"
}

if [ "${1:-}" = "online-check" ]; then
    dune build
    online_check
    exit 0
fi

if [ "${1:-}" = "obsv-check" ]; then
    dune build
    obsv_check
    exit 0
fi

if [ "${1:-}" = "portfolio-check" ]; then
    dune build
    portfolio_check
    exit 0
fi

if [ "${1:-}" = "simplex-check" ]; then
    dune build
    simplex_check
    exit 0
fi

if [ "${1:-}" = "search-check" ]; then
    dune build
    search_check
    exit 0
fi

if [ "${1:-}" = "perf-smoke" ]; then
    perf_smoke
    exit 0
fi

if [ "${1:-}" = "concheck" ]; then
    concheck
    exit 0
fi

if [ "${1:-}" = "serve-smoke" ]; then
    serve_smoke
    exit 0
fi

if [ "${1:-}" = "trace-check" ]; then
    trace_check
    exit 0
fi

if [ "${1:-}" = "bench-smoke" ]; then
    bench_smoke
    exit 0
fi

if [ "${1:-}" = "test-matrix" ]; then
    seed="${RFLOOR_TEST_SEED:-2015}"
    for workers in 1 2 4; do
        echo "== dune runtest (RFLOOR_WORKERS=$workers RFLOOR_TEST_SEED=$seed)"
        RFLOOR_WORKERS="$workers" RFLOOR_TEST_SEED="$seed" dune runtest --force
    done
    echo "lint.sh: test matrix passed (workers 1/2/4, seed $seed)"
    exit 0
fi

echo "== dune build --profile lint @check (warnings as errors)"
dune build --profile lint @check

echo "== dune build && dune runtest"
dune build
dune runtest

echo "== rfloor_cli lint (fx70t / sdr)"
dune exec bin/rfloor_cli.exe -- lint --device fx70t --design sdr

simplex_check

search_check

portfolio_check

trace_check

bench_smoke

perf_smoke

serve_smoke

obsv_check

online_check

concheck

echo "lint.sh: all gates passed"
