#!/usr/bin/env bash
# Bench smoke: the end-to-end checks the gate's `bench/` does not make —
# observability, checkpoint-journal overhead, the CLV spill bench and
# the replacement-policy differential. Without an argument the spill
# bench refreshes the committed BENCH_tiers.json in the repo root; with
# one, it writes into that directory instead, so a CI run leaves the
# working tree as it found it.
#
# Usage: scripts/bench_smoke.sh [output-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
out_dir="${1:-.}"

# Observability smoke: an end-to-end CLI run under a tight --maxmem must
# emit a metrics JSON that parses and shows real slot traffic (non-zero
# slot.misses — CLVs were recomputed under the budget).
echo "==> observability smoke (--metrics-json under tight --maxmem)"
cargo build --release --bin phyloplace
obsdir="$(mktemp -d -t obs_smoke.XXXXXX)"
trap 'rm -rf "$obsdir"' EXIT
cat > "$obsdir/ref.nwk" <<'EOF'
((A:0.1,B:0.2):0.05,(C:0.15,D:0.1):0.05,E:0.3);
EOF
cat > "$obsdir/ref.fasta" <<'EOF'
>A
ACGTACGTAC
>B
ACGTACGTCC
>C
ACTTACGAAC
>D
ACTTACGTAC
>E
GCTTACGTAA
EOF
cat > "$obsdir/q.fasta" <<'EOF'
>q1
ACGTACGTAC
>q2
ACTTACG-AC
EOF
target/release/phyloplace place \
  --tree "$obsdir/ref.nwk" --ref-msa "$obsdir/ref.fasta" --queries "$obsdir/q.fasta" \
  --maxmem 1 --chunk 1 \
  --out "$obsdir/out.jplace" \
  --metrics-json "$obsdir/metrics.json" --trace "$obsdir/trace.json"
python3 - "$obsdir/metrics.json" "$obsdir/trace.json" <<'EOF'
import json, sys
metrics = json.load(open(sys.argv[1]))
misses = metrics["counters"]["slot.misses"]
assert misses > 0, f"expected non-zero slot.misses, got {misses}"
hits = metrics["counters"]["slot.hits"]
acquires = metrics["counters"]["slot.acquires"]
assert hits + misses == acquires, f"{hits} + {misses} != {acquires}"
# The traversal planner's reuses of cached CLVs are hits: a slot-managed
# run that reads 0 would mean they went uncounted again.
assert hits > 0, "expected non-zero slot.hits under a tight --maxmem"
# The release binary is the instrumented one: kernel time is recorded.
op_ns = metrics["histograms"]["engine.op_ns"]
assert op_ns["count"] == metrics["counters"]["engine.ops"] > 0, op_ns
trace = json.load(open(sys.argv[2]))
names = {e["name"] for e in trace["traceEvents"]}
assert "prescore" in names and "thorough" in names, f"missing phase spans: {sorted(names)}"
print(f"metrics OK: hits={hits} misses={misses} acquires={acquires}; "
      f"trace OK: {len(trace['traceEvents'])} events")
EOF

# Checkpoint-journal overhead: the same CI-scale run with and without
# --checkpoint, reported as % wall-clock. The journal fsyncs one frame
# per chunk; this keeps an eye on that cost as chunk/frame sizes evolve.
echo "==> checkpoint journal overhead (journal on vs off)"
cargo build --release -q --example export_dataset
jdir="$(mktemp -d -t journal_smoke.XXXXXX)"
trap 'rm -rf "$obsdir" "$jdir"' EXIT
target/release/examples/export_dataset "$jdir"
journal_args=(place --tree "$jdir/ref.nwk" --ref-msa "$jdir/ref.fasta"
              --queries "$jdir/query.fasta" --chunk 4)
bin=target/release/phyloplace
# Warm-up, then 3 timed repeats of each mode (best-of to damp noise).
"$bin" "${journal_args[@]}" --out "$jdir/warm.jplace"
best_ns() { # best_ns <label> [extra args...]
    local label="$1"; shift
    local best=""
    for _ in 1 2 3; do
        local t0 t1 dt
        t0=$(date +%s%N)
        "$bin" "${journal_args[@]}" "$@" --out "$jdir/$label.jplace" >/dev/null 2>&1
        t1=$(date +%s%N)
        dt=$((t1 - t0))
        if [ -z "$best" ] || [ "$dt" -lt "$best" ]; then best=$dt; fi
    done
    echo "$best"
}
off_ns=$(best_ns off)
rm -rf "$jdir/ckpt"
on_ns=$(best_ns on --checkpoint "$jdir/ckpt")
cmp "$jdir/off.jplace" "$jdir/on.jplace" \
    || { echo "journaling changed the output"; exit 1; }
python3 - "$off_ns" "$on_ns" <<'EOF'
import sys
off, on = int(sys.argv[1]), int(sys.argv[2])
pct = 100.0 * (on - off) / off if off else float("nan")
print(f"journal overhead: off={off/1e6:.1f} ms, on={on/1e6:.1f} ms, "
      f"delta={pct:+.1f}% wall-clock (best of 3)")
EOF

# CLV spill bench: drive the real spill/reload pipeline on one DNA and
# one protein reference and refresh BENCH_tiers.json — the measured
# reload latency and the recompute-vs-reload crossover the spill-vs-drop
# cost model steers by. One summary line per dataset lands in the CI log.
echo "==> CLV spill reload latency vs recompute crossover"
tiers_out="$out_dir/BENCH_tiers.json"
cargo run --release -q --example bench_tiers -- "$tiers_out"
python3 - "$tiers_out" <<'EOF'
import json, sys
rows = json.load(open(sys.argv[1]))
assert len(rows) == 2, f"bench_tiers must produce one row per dataset: {rows}"
for r in rows:
    assert r["reload_ns"] > 0, f"unmeasured reload latency: {r}"
    print(f"tier [{r['dataset']}/{r['alphabet']}/{r['tier']}]: "
          f"write={r['write_ns']/1e3:.1f}us  reload={r['reload_ns']/1e3:.1f}us  "
          f"recompute={r['recompute_ns_per_cost']:.0f}ns/cost  "
          f"crossover@cost={r['crossover_cost']:.0f}")
EOF

# Replacement-policy smoke: one tight-budget traced run per policy, then
# the offline replay reports that policy's miss rate next to the Belady
# oracle's floor at the same slot count — the paper's eviction ablation
# in one screenful, with each line backed by a bit-exact differential
# (`replay --verify` fails unless simulator and live counters agree).
echo "==> replacement-policy miss rates (live vs clairvoyant oracle)"
for policy in cost lru mru fifo random cost-lru; do
    "$bin" place --tree "$jdir/ref.nwk" --ref-msa "$jdir/ref.fasta" \
        --queries "$jdir/query.fasta" --chunk 7 --maxmem 300K --no-lookup \
        --strategy "$policy" --slot-trace "$jdir/$policy.trace" \
        --metrics-json "$jdir/$policy.metrics.json" \
        --out "$jdir/$policy.jplace" >/dev/null 2>&1
    "$bin" replay --trace "$jdir/$policy.trace" \
        --verify "$jdir/$policy.metrics.json" \
        | grep -E "^  ($policy|belady) " \
        || { echo "$policy: replay differential failed"; exit 1; }
done
# The default knows the sweep's order; a policy that only guesses must
# not beat it.
python3 - "$jdir" <<'EOF'
import json, sys
misses = {p: json.load(open(f"{sys.argv[1]}/{p}.metrics.json"))["counters"]["slot.misses"]
          for p in ("cost", "lru", "cost-lru")}
assert misses["cost"] < min(misses["lru"], misses["cost-lru"]), f"default policy lost: {misses}"
print(f"default policy ahead: slot.misses {misses}")
EOF
