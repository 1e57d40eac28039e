#!/bin/sh
# Measures the forwarded-write hot path after the zero-allocation rewrite
# (pooled frame buffers, vectored writes, span coalescing, allocation-free
# routing) and emits BENCH_hotpath.json at the repo root.
#
# Two benchmarks feed the report:
#
#   - livestack.BenchmarkHotPathWrite/{512K,64K,4K}: end to end — a live
#     I/O-node stack, one forwarding client, repeated writes of one chunk
#     (512 KiB) and a small request (64 KiB). Compared against the seed
#     baseline committed below (min ns/op over paired runs on the same
#     machine, measured immediately before the rewrite) to report the
#     ns/op reduction the rewrite bought. The 4 KiB row (ns/op and
#     allocs/op, no seed baseline) is the per-message cost: framing,
#     syscalls, the daemon's handler and its dispatch.
#   - rpc.BenchmarkWirePathWrite512K: the rpc layer alone (TCP round trip
#     to an acking echo server). This carries the allocs/op budget — the
#     frame pools own every allocation here, so the number is
#     deterministic and CI-enforceable. The script FAILS if allocs/op
#     exceeds ALLOC_BUDGET.
#   - rpc.BenchmarkWirePathWrite4M: the same round trip at the default
#     coalesce limit, the largest frame a default client builds. This
#     carries the B/op budget — an unpooled frame shows up as ~4 MB/op per
#     side — and the script FAILS if B/op exceeds BYTES_BUDGET_4M.
#
# Each PAIRS iteration runs the benchmarks in a fresh `go test` process
# and the summary takes the MINIMUM ns/op across iterations: on
# shared/noisy machines the minimum is the standard low-noise estimate of
# a benchmark's true cost, and single runs here can swing ±20%.
set -eu

cd "$(dirname "$0")/.."

PAIRS="${PAIRS:-5}"
BENCHTIME="${BENCHTIME:-1s}"
OUT="${OUT:-BENCH_hotpath.json}"

# Seed baseline: min ns/op over 5 paired runs at commit ba6aded (before
# the hot-path rewrite), same benchmark bodies.
SEED_512K="${SEED_512K:-393681}"
SEED_64K="${SEED_64K:-56279}"
SEED_ALLOCS_512K="${SEED_ALLOCS_512K:-21}"

# allocs/op ceiling on the wire path (the two remaining allocations are
# the request/response Path string decodes, one per side).
ALLOC_BUDGET="${ALLOC_BUDGET:-2}"

# B/op ceiling on the 4 MiB wire path: both frames come from the top body
# class, so what remains is the same two Path strings.
BYTES_BUDGET_4M="${BYTES_BUDGET_4M:-4096}"

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo ">> benchmarking forwarded-write hot path ($PAIRS paired runs, $BENCHTIME each)"
i=1
while [ "$i" -le "$PAIRS" ]; do
    go test -run '^$' -bench 'BenchmarkHotPathWrite' -benchmem -benchtime "$BENCHTIME" \
        ./internal/livestack/ | grep ns/op | tee -a "$RAW"
    go test -run '^$' -bench 'BenchmarkWirePathWrite(512K|4M)$' -benchmem -benchtime "$BENCHTIME" \
        ./internal/rpc/ | grep ns/op | tee -a "$RAW"
    i=$((i + 1))
done

awk -v out="$OUT" -v seed512="$SEED_512K" -v seed64="$SEED_64K" \
    -v seedallocs="$SEED_ALLOCS_512K" -v budget="$ALLOC_BUDGET" -v bbudget="$BYTES_BUDGET_4M" \
    -v pairs="$PAIRS" '
/BenchmarkHotPathWrite\/512K/ {
    if (!e512 || $3 < e512) e512 = $3
    if (!ea512 || $9 < ea512) ea512 = $9
}
/BenchmarkHotPathWrite\/64K/  { if (!e64 || $3 < e64) e64 = $3 }
/BenchmarkHotPathWrite\/4K/ {
    if (!e4 || $3 < e4) e4 = $3
    if (!n4++ || $9 < ea4) ea4 = $9
}
/BenchmarkWirePathWrite512K/ {
    if (!w512 || $3 < w512) w512 = $3
    if (!wa512 || $9 < wa512) wa512 = $9
}
/BenchmarkWirePathWrite4M/ {
    if (!w4m || $3 < w4m) w4m = $3
    if (!n4m++ || $7 < wb4m) wb4m = $7
    if (!wa4m || $9 < wa4m) wa4m = $9
}
END {
    if (!e512 || !e64 || !e4 || !w512 || !w4m) { print "bench_hotpath: no samples parsed" > "/dev/stderr"; exit 1 }
    r512 = (seed512 - e512) * 100.0 / seed512
    r64  = (seed64 - e64) * 100.0 / seed64
    ok = (wa512 <= budget)
    bok = (wb4m <= bbudget)
    printf "{\n"                                                        >  out
    printf "  \"estimator\": \"min over %d paired runs\",\n", pairs    >> out
    printf "  \"end_to_end\": {\n"                                      >> out
    printf "    \"benchmark\": \"BenchmarkHotPathWrite\",\n"            >> out
    printf "    \"seed_512k_ns_per_op\": %d,\n", seed512                >> out
    printf "    \"now_512k_ns_per_op\": %d,\n", e512                    >> out
    printf "    \"reduction_512k_pct\": %.2f,\n", r512                  >> out
    printf "    \"seed_64k_ns_per_op\": %d,\n", seed64                  >> out
    printf "    \"now_64k_ns_per_op\": %d,\n", e64                      >> out
    printf "    \"reduction_64k_pct\": %.2f,\n", r64                    >> out
    printf "    \"seed_512k_allocs_per_op\": %d,\n", seedallocs         >> out
    printf "    \"now_512k_allocs_per_op\": %d,\n", ea512               >> out
    printf "    \"now_4k_ns_per_op\": %d,\n", e4                        >> out
    printf "    \"now_4k_allocs_per_op\": %d\n", ea4                    >> out
    printf "  },\n"                                                     >> out
    printf "  \"wire_path\": {\n"                                       >> out
    printf "    \"benchmark\": \"BenchmarkWirePathWrite512K\",\n"       >> out
    printf "    \"ns_per_op\": %d,\n", w512                             >> out
    printf "    \"allocs_per_op\": %d,\n", wa512                        >> out
    printf "    \"allocs_budget\": %d,\n", budget                       >> out
    printf "    \"within_budget\": %s\n", (ok ? "true" : "false")       >> out
    printf "  },\n"                                                     >> out
    printf "  \"wire_path_4m\": {\n"                                    >> out
    printf "    \"benchmark\": \"BenchmarkWirePathWrite4M\",\n"         >> out
    printf "    \"ns_per_op\": %d,\n", w4m                             >> out
    printf "    \"allocs_per_op\": %d,\n", wa4m                        >> out
    printf "    \"bytes_per_op\": %d,\n", wb4m                         >> out
    printf "    \"bytes_budget\": %d,\n", bbudget                      >> out
    printf "    \"within_budget\": %s\n", (bok ? "true" : "false")      >> out
    printf "  }\n"                                                      >> out
    printf "}\n"                                                        >> out
    printf "end-to-end 512K: seed=%dns now=%dns (-%.2f%%), 64K: seed=%dns now=%dns (-%.2f%%)\n", \
        seed512, e512, r512, seed64, e64, r64
    printf "end-to-end 4K: %dns %d allocs/op\n", e4, ea4
    printf "wire path 512K: %dns %d allocs/op (budget %d)\n", w512, wa512, budget
    printf "wire path 4M: %dns %d allocs/op %d B/op (budget %d B/op)\n", w4m, wa4m, wb4m, bbudget
    if (!ok) { print "bench_hotpath: allocs/op over budget" > "/dev/stderr"; exit 1 }
    if (!bok) { print "bench_hotpath: 4M wire path B/op over budget" > "/dev/stderr"; exit 1 }
}' "$RAW"

echo "wrote $OUT"
