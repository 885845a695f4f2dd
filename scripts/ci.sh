#!/bin/sh
# Tier-1 gate: formatting, vet, the flatflash-lint invariant suite, build,
# and the full test suite under the race detector. Run from the repo root
# (make ci does).
set -eu

echo "== gofmt =="
unformatted=$(gofmt -l . | grep -v '^\.git/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== flatflash-lint =="
# Static enforcement of the simulator's determinism, virtual-time, and
# hot-path invariants (see DESIGN.md): any diagnostic fails the gate. The
# JSON output is re-emitted in file:line form (annotation-friendly) with a
# per-analyzer count summary, so a failing run names the invariant that
# broke, not just a wall of text.
go build -o /tmp/flatflash-lint ./cmd/flatflash-lint
/tmp/flatflash-lint -q -json ./... > /tmp/lint.json || true
python3 - /tmp/lint.json <<'EOF'
import json, sys, collections
diags = json.load(open(sys.argv[1]))
counts = collections.Counter(d["analyzer"] for d in diags)
for d in diags:
    print("%s:%d: %s: %s" % (d["file"], d["line"], d["analyzer"], d["message"]))
for name, n in sorted(counts.items()):
    print("  %-12s %d" % (name, n), file=sys.stderr)
sys.exit(1 if diags else 0)
EOF

echo "== flatflash-lint mutant smoke =="
# The analyzers themselves are load-bearing: prove the attribwindow CFG
# analysis still catches a real regression by deleting one attrib End call
# from a scratch copy of the tree and requiring a diagnostic. A lint suite
# that stays green on a mutated tree is a broken gate, not a clean one.
mutant_dir=$(mktemp -d)
trap 'rm -rf "$mutant_dir"' EXIT
tar --exclude=.git -cf - . | (cd "$mutant_dir" && tar -xf -)
python3 - "$mutant_dir/internal/core/persist.go" <<'EOF'
import sys
path = sys.argv[1]
src = open(path).read()
lines = src.splitlines(keepends=True)
out, dropped = [], False
for l in lines:
    if not dropped and "s.att.End(" in l:
        dropped = True
        continue
    out.append(l)
if not dropped:
    sys.exit("mutant smoke: no s.att.End( line found in persist.go to delete")
open(path, "w").writelines(out)
EOF
if (cd "$mutant_dir" && /tmp/flatflash-lint -q -only attribwindow ./internal/core/ > /tmp/mutant.txt 2>&1); then
    echo "mutant smoke FAILED: attribwindow missed a deleted End call"
    exit 1
fi
grep -q "attribwindow" /tmp/mutant.txt || {
    echo "mutant smoke FAILED: lint failed for a reason other than attribwindow:"
    cat /tmp/mutant.txt
    exit 1
}
rm -rf "$mutant_dir"
trap - EXIT
echo "mutant smoke ok (attribwindow caught the deleted End)"

echo "== go test -race =="
go test -race ./...

echo "== go test -shuffle=on =="
# Randomized test order catches inter-test state leaks (package-level caches,
# shared tmp files) that a fixed order can hide.
go test -shuffle=on ./...

echo "== hostbench tests =="
# The host-time benchmark is its own module (hostbench/go.mod), so ./...
# above never reaches it. Its tests check the output digests, verdicts and
# profile folding the benchmark's results rest on.
(cd hostbench && go vet ./... && go test ./...)

echo "== bench smoke =="
# One iteration of every benchmark: catches benchmarks that no longer build
# or crash (the allocation-budget tests ride the normal test passes above).
go test -bench=. -benchtime=1x -run='^$' ./...

echo "== fuzz smoke =="
# Short seeded-corpus-plus-mutation runs over every fuzz target in the
# tree, discovered per package so new fuzzers are picked up automatically
# instead of silently skipped. A regression in the parsers shows up here
# long before anyone runs the fuzzers by hand.
for pkg in $(go list ./...); do
    fuzzers=$(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true)
    for f in $fuzzers; do
        go test -fuzz="^${f}\$" -fuzztime=3s -run='^$' "$pkg"
    done
done

echo "== bench regression (warn-only) =="
# Diff a one-shot bench run against the latest BENCH_*.json snapshot. This is
# advisory: CI machines are too noisy for a hard ns/op gate, but the printed
# deltas make a regression visible in the log. Alloc regressions are still
# hard-gated by the AllocsPerRun tests above.
latest_bench=$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1 || true)
if [ -n "$latest_bench" ] && ! grep -q '"Benchmark' "$latest_bench"; then
    # An empty or truncated snapshot would diff as everything-removed noise.
    echo "benchdiff: $latest_bench has no benchmarks, skipping (warn only)"
    latest_bench=""
fi
if [ -n "$latest_bench" ] && [ -x scripts/bench.sh ]; then
    if BENCHTIME=3x ./scripts/bench.sh /tmp/BENCH_ci.json >/dev/null 2>&1; then
        ./scripts/benchdiff.sh "$latest_bench" /tmp/BENCH_ci.json || \
            echo "benchdiff: comparison failed (warn only)"
    else
        echo "benchdiff: bench run failed (warn only)"
    fi
else
    echo "benchdiff: no BENCH_*.json snapshot to compare against (warn only)"
fi

echo "== observability smoke =="
# Two same-seed runs with the latency-attribution and flight-recorder dumps
# enabled must produce byte-identical, line-parseable JSONL files, and the
# budget table must reach stdout. Guards the ISSUE 6 determinism contract
# end to end through the real CLI.
go build -o /tmp/flatflash-sim ./cmd/flatflash-sim
obs_run() {
    /tmp/flatflash-sim -kind flatflash -pattern zipf -ops 4000 -seed 7 \
        -slo 4us -latency-out "$1" -flight-out "$2"
}
obs_run /tmp/obs_lat1.jsonl /tmp/obs_flight1.jsonl > /tmp/obs_out1.txt
obs_run /tmp/obs_lat2.jsonl /tmp/obs_flight2.jsonl > /tmp/obs_out2.txt
cmp /tmp/obs_lat1.jsonl /tmp/obs_lat2.jsonl || {
    echo "latency dumps differ across same-seed runs"; exit 1; }
cmp /tmp/obs_flight1.jsonl /tmp/obs_flight2.jsonl || {
    echo "flight dumps differ across same-seed runs"; exit 1; }
grep -q "latency budget" /tmp/obs_out1.txt || {
    echo "budget table missing from sim output"; exit 1; }
for dump in /tmp/obs_lat1.jsonl /tmp/obs_flight1.jsonl; do
    [ -s "$dump" ] || { echo "$dump is empty"; exit 1; }
    python3 -c 'import json,sys
for line in open(sys.argv[1]):
    json.loads(line)' "$dump" || { echo "$dump has invalid JSONL"; exit 1; }
done
echo "observability smoke ok"

echo "== fleet smoke =="
# A tiny fleet sweep must be byte-identical across runs AND across worker
# counts — the ISSUE 7 determinism contract, end to end through the real CLI.
go build -o /tmp/flatflash-bench ./cmd/flatflash-bench
fleet_run() {
    /tmp/flatflash-bench fleet -shards 1,2 -rates 50000,400000 -seeds 1 \
        -ops 800 -region 262144 -slo 400us -workers "$1"
}
fleet_run 2 > /tmp/fleet_run1.txt
fleet_run 2 > /tmp/fleet_run2.txt
fleet_run 1 > /tmp/fleet_seq.txt
cmp /tmp/fleet_run1.txt /tmp/fleet_run2.txt || {
    echo "fleet reports differ across same-seed runs"; exit 1; }
cmp /tmp/fleet_run1.txt /tmp/fleet_seq.txt || {
    echo "fleet reports differ across worker counts"; exit 1; }
grep -q "fleet sweep points=4" /tmp/fleet_run1.txt || {
    echo "fleet report missing sweep header"; exit 1; }
echo "fleet smoke ok"

echo "== parallel engine smoke =="
# The consolidate experiment and a migrating fleet sweep through the real
# CLI with several workers, at GOMAXPROCS=1 and GOMAXPROCS=4, byte-compared
# against the one-worker run: reports must not depend on the worker count
# or the machine. The fleet sweep migrates pages at many epoch boundaries,
# so it exercises the epoch loop's window flushes and rebalances.
/tmp/flatflash-bench -quick consolidate > /tmp/psim_seq.txt
GOMAXPROCS=1 /tmp/flatflash-bench -quick -parallel 4 consolidate > /tmp/psim_par1.txt
GOMAXPROCS=4 /tmp/flatflash-bench -quick -parallel 4 consolidate > /tmp/psim_par4.txt
cmp /tmp/psim_seq.txt /tmp/psim_par1.txt || {
    echo "parallel report differs from sequential at GOMAXPROCS=1"; exit 1; }
cmp /tmp/psim_seq.txt /tmp/psim_par4.txt || {
    echo "parallel report differs from sequential at GOMAXPROCS=4"; exit 1; }
migr_run() {
    /tmp/flatflash-bench fleet -shards 2,4 -seeds 1 -dram 65536 -region 1048576 \
        -rates 400000 -ops 40000 -migrate-epoch 1ms -parallel "$1"
}
migr_run 0 > /tmp/migr_seq.txt
grep -q "migrations=[1-9]" /tmp/migr_seq.txt || {
    echo "migrating fleet sweep migrated nothing"; exit 1; }
for procs in 1 4; do
    for par in 2 4; do
        GOMAXPROCS=$procs migr_run $par > /tmp/migr_par.txt
        cmp /tmp/migr_seq.txt /tmp/migr_par.txt || {
            echo "migrating fleet differs at GOMAXPROCS=$procs -parallel $par"; exit 1; }
    done
done
# A shared flight recorder must see its shed_onset triggers in arrival
# order whatever -parallel asks for.
flight_run() {
    GOMAXPROCS=4 /tmp/flatflash-bench fleet -shards 2,4 -rates 400000,2000000 \
        -ops 20000 -slo 100us -flight-out /tmp/fleet_flight.jsonl -parallel "$1"
}
flight_run 0 > /tmp/fleet_flight_seq.txt
cp /tmp/fleet_flight.jsonl /tmp/fleet_flight_seq.jsonl
flight_run 4 > /tmp/fleet_flight_par.txt
cmp /tmp/fleet_flight_seq.txt /tmp/fleet_flight_par.txt || {
    echo "fleet flight-recorder report differs with -parallel 4"; exit 1; }
cmp /tmp/fleet_flight_seq.jsonl /tmp/fleet_flight.jsonl || {
    echo "fleet flight dump differs with -parallel 4"; exit 1; }
# Negative worker counts are rejected with a non-zero exit on every path.
for args in "consolidate -parallel -2 -workers -1" "-parallel -3 consolidate" \
        "fleet -parallel -3" "fleet -workers -1"; do
    # shellcheck disable=SC2086 # word splitting of $args is intended
    if /tmp/flatflash-bench $args > /dev/null 2>&1; then
        echo "flatflash-bench $args exited 0"; exit 1
    fi
done
echo "parallel engine smoke ok"

echo "== suite fan-out smoke =="
# The paper suite runs its experiments on GOMAXPROCS workers and prints them
# in registry order, so its bytes must not depend on the core count. A
# metrics registry forces one worker: the report lines must be a plain
# run's, and the metrics file must not depend on GOMAXPROCS either. An
# unknown experiment is rejected before any experiment prints.
for procs in 1 4; do
    GOMAXPROCS=$procs /tmp/flatflash-bench -quick > /tmp/suite_p$procs.txt
    GOMAXPROCS=$procs /tmp/flatflash-bench -quick -metrics-out /tmp/suite_m$procs.jsonl \
        > /tmp/suite_mout$procs.txt
    tail -n 1 /tmp/suite_mout$procs.txt | grep -q '^metrics: ' || {
        echo "-metrics-out run at GOMAXPROCS=$procs lacks its metrics line"; exit 1; }
    head -n -1 /tmp/suite_mout$procs.txt | cmp - /tmp/suite_p1.txt || {
        echo "-metrics-out changed the suite report at GOMAXPROCS=$procs"; exit 1; }
done
cmp /tmp/suite_p1.txt /tmp/suite_p4.txt || {
    echo "suite report differs between GOMAXPROCS=1 and GOMAXPROCS=4"; exit 1; }
cmp /tmp/suite_m1.jsonl /tmp/suite_m4.jsonl || {
    echo "suite metrics differ between GOMAXPROCS=1 and GOMAXPROCS=4"; exit 1; }
if /tmp/flatflash-bench -quick fig8 nosuch > /tmp/suite_bad.txt 2> /dev/null; then
    echo "flatflash-bench -quick fig8 nosuch exited 0"; exit 1
fi
[ ! -s /tmp/suite_bad.txt ] || {
    echo "flatflash-bench printed reports before rejecting an unknown experiment"; exit 1; }
echo "suite fan-out smoke ok"

echo "== demand map smoke =="
# The demand-paged translation map must never change data results — only
# when map accesses cost time and what gets persisted. The equivalence
# properties run explicitly here (FTL-level and through the full hierarchy),
# then the CLI surface: same-seed demand-mode runs must be byte-identical
# with the map counters visible, and a demand-mode crash sweep must verify
# clean while recovering through the GTD partial-scan path on every point.
go test -count=1 -run 'TestDemandEquivalence' ./internal/ftl
go test -count=1 -run 'TestDemandModeDataEquivalence' ./internal/core
map_run() {
    /tmp/flatflash-sim -kind flatflash -pattern zipf -ops 4000 -seed 7 -map-cache 4
}
map_run > /tmp/map_run1.txt
map_run > /tmp/map_run2.txt
cmp /tmp/map_run1.txt /tmp/map_run2.txt || {
    echo "demand-mode reports differ across same-seed runs"; exit 1; }
for counter in map_cache_hits map_cache_misses map_fetches flash_trans_programs; do
    grep -q "$counter" /tmp/map_run1.txt || {
        echo "demand-mode report missing $counter"; exit 1; }
done
/tmp/flatflash-sim -kind flatflash -pattern zipf -ops 4000 -seed 7 > /tmp/map_off.txt
if grep -q "map_cache" /tmp/map_off.txt; then
    echo "default mode leaked map counters into the report"; exit 1
fi
/tmp/flatflash-bench crashsweep -points 6 -map-cache 4 > /tmp/map_cs.txt || {
    echo "demand-mode crash sweep found violations"; exit 1; }
grep -q "violations=0" /tmp/map_cs.txt || {
    echo "demand-mode crash sweep report lacks violations=0"; exit 1; }
grep -q "gtd_partial=1" /tmp/map_cs.txt || {
    echo "demand-mode crash sweep never used GTD partial-scan recovery"; exit 1; }
echo "demand map smoke ok"

echo "== coverage floors =="
# Safety-critical packages keep a per-package statement-coverage floor: the
# fault engine guards crash consistency, and the analyzer suite guards every
# other invariant, so silent coverage rot there is disproportionately risky.
cover_floor() {
    pkg=$1
    floor=$2
    cover=$(go test -cover "$pkg" | awk '{for (i=1;i<=NF;i++) if ($i=="coverage:") {sub(/%$/,"",$(i+1)); print $(i+1)}}')
    if [ -z "$cover" ]; then
        echo "could not read coverage for $pkg"
        exit 1
    fi
    if [ "$(printf '%s\n' "$cover" | awk -v f="$floor" '{print ($1 < f) ? 1 : 0}')" = "1" ]; then
        echo "$pkg coverage ${cover}% below ${floor}% floor"
        exit 1
    fi
    echo "$pkg coverage ${cover}% (floor ${floor}%)"
}
cover_floor ./internal/fault 80
cover_floor ./internal/analyzers 80
# The CFG builder underlies the flow-sensitive analyzers; an unmodeled edge
# there is a false negative in every one of them.
cover_floor ./internal/analyzers/cfg 80
# The observability layer (attribution engine, flight recorder, shared CLI
# flags) is how regressions elsewhere get diagnosed, so it keeps a floor too.
cover_floor ./internal/telemetry 80
cover_floor ./internal/obsflags 80
# The fleet front end (sharding, admission control, migration) and the
# open-loop arrival generator gate the scale-out results, so they keep
# floors as well.
cover_floor ./internal/fleet 80
cover_floor ./internal/workload 80
# The demand-paged translation map sits under every demand-mode result and
# its replacement/GTD bookkeeping is pure policy code — cheap to cover, and
# costly to get wrong silently.
cover_floor ./internal/mapcache 80

echo "ci: all green"
