#!/usr/bin/env bash
# The full CI gate: release build, a Table II smoke run, the benchmark
# harness, the whole workspace's test suite, formatting, clippy's
# deny-level lints, and the bench smoke pass (writing the spill bench's
# JSON to a throwaway directory so the committed BENCH_tiers.json is not
# churned).
#
# Usage: scripts/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release, every binary and example (warnings are errors)"
RUSTFLAGS="-D warnings" cargo build --release --workspace --bins --examples

# The paper's Table II at ci scale (≈ 0.3 s): every dataset must plan
# and place at `floor_budget` and `lookup_floor_budget` — the binary
# `.expect`s both — so a planner change that breaks an operating point
# fails here. Same flags as above, so the release artifacts are reused.
echo "==> Table II smoke (pewo table2_absolute --scale ci)"
RUSTFLAGS="-D warnings" cargo run --release -q -p pewo-bench --bin table2_absolute -- \
    --scale ci --repeats 1

# The benchmark gate (BENCHMARK.json) builds `bench/` against this
# workspace's public API (`RunReport`, `DegradationStats`, `memplan`,
# `tree_log_likelihood`, `ManagedStore::with_slots`) and rejects a change
# whose outputs stop checking out. Build it, unit-test it and run it
# briefly here, so an API break or a wrong answer fails CI, not the gate.
echo "==> benchmark harness (unit tests against the workspace + quick run)"
cargo test --release --offline -q --manifest-path bench/Cargo.toml
# `bench/` path-depends on this workspace, so cargo rewrites its lock
# file whenever a member crate gains or loses a dependency edge. The
# gate's lock file must not change under it: fail here instead.
git diff --exit-code -- bench/Cargo.lock \
    || { echo "bench/Cargo.lock changed: a workspace dependency edge moved"; exit 1; }
quick_out=$(mktemp -t bench_quick.XXXXXX)
bash bench/run.sh --quick > "$quick_out" 2>&1 \
    || { tail -20 "$quick_out"; echo "bench/run.sh --quick failed"; exit 1; }
if grep -q '"correct": false' "$quick_out" || ! grep -q '"correct": true' "$quick_out"; then
    grep 'INCORRECT' "$quick_out" || true
    echo "bench/run.sh --quick reported an incorrect output"; exit 1
fi
rm -f "$quick_out"

# `--workspace`: at a workspace root with a root package, a bare
# `cargo test` runs the root package's tests only — the member crates'
# unit and property tests (warm == cold in `epa-place`, the slot-model
# proptest in `phylo-amc`, the daemon's merge tests) run here or
# nowhere.
echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The kernel crate's differential + proptest suite, once per tier: the
# dispatch must be correct no matter what PHYLO_KERNEL_TIER pins. The
# placement crate rides along: its evaluator-vs-table and
# table-vs-generic-loop checks must hold over whichever kernels produced
# the partials; so does the models crate, whose `P(t)` loop orders feed
# all of them.
tier_crates=(-p phylo-kernel -p phylo-models -p epa-place)
for tier in reference simd; do
    echo "==> cargo test -q ${tier_crates[*]} (PHYLO_KERNEL_TIER=$tier)"
    PHYLO_KERNEL_TIER="$tier" cargo test -q "${tier_crates[@]}"
done
# The forced-fallback run (simd tier + portable backend) is what a
# non-AVX2 host executes, and on an AVX2 host it is now the only run that
# sends the portable table fill and the `fixed` bodies through the
# dispatchers (the differential suite calls the bodies directly in every
# run); it also proves the AVX2 `target_feature` shims of `propagate`
# and the score-table fill are off when told to be. The golden jplace
# hashes pin each tier themselves; they join this run, the one backend
# an AVX2 host never picks on its own.
echo "==> cargo test -q ${tier_crates[*]} (simd tier, forced portable fallback)"
PHYLO_KERNEL_TIER=simd PHYLO_SIMD_PORTABLE=1 cargo test -q "${tier_crates[@]}"
PHYLO_KERNEL_TIER=simd PHYLO_SIMD_PORTABLE=1 cargo test -q --test golden_jplace

echo "==> cargo test -q --features faults --test faults (fault matrix)"
cargo test -q --features faults --test faults

echo "==> cargo test -q --features faults --test crash_resume (kill-and-resume matrix)"
cargo test -q --features faults --test crash_resume

echo "==> shell-level interrupt + resume smoke (deadline -> exit 3 -> --resume -> byte-compare)"
smoke_dir=$(mktemp -d -t crash_smoke.XXXXXX)
trap 'rm -rf "$smoke_dir"' EXIT
chunk=7
cargo run --release -q --example export_dataset -- "$smoke_dir" neotrop "$chunk"
bin=target/release/phyloplace
place_args=(place --tree "$smoke_dir/ref.nwk" --ref-msa "$smoke_dir/ref.fasta"
            --queries "$smoke_dir/query.fasta" --chunk "$chunk")
# The budget of the passes below that must run under pressure: the
# floor budget at this chunk size plus a fixed number of CLV slots
# (`examples/export_dataset.rs`), so that the pressure does not thin
# whenever the reference's static data shrinks.
pressure=$(cat "$smoke_dir/pressure.maxmem")
"$bin" "${place_args[@]}" --out "$smoke_dir/full.jplace"
# A zero deadline cancels at the first chunk boundary: the run must
# exit 3, leave a valid partial jplace, and a replayable journal.
rc=0
"$bin" "${place_args[@]}" --checkpoint "$smoke_dir/ckpt" --deadline 0 \
    --out "$smoke_dir/partial.jplace" || rc=$?
[ "$rc" -eq 3 ] || { echo "expected exit 3 from interrupted run, got $rc"; exit 1; }
grep -q '"completed": false' "$smoke_dir/partial.jplace" \
    || { echo "partial jplace not marked incomplete"; exit 1; }
"$bin" "${place_args[@]}" --resume "$smoke_dir/ckpt" --out "$smoke_dir/resumed.jplace"
cmp "$smoke_dir/full.jplace" "$smoke_dir/resumed.jplace" \
    || { echo "resumed jplace differs from uninterrupted run"; exit 1; }
echo "    interrupt/resume smoke OK (resumed output byte-identical)"

echo "==> replay differential (capture -> replay -> exact counter compare, per policy and thread count)"
# A tight budget with the lookup table disabled forces real eviction
# traffic; a slot manager fed the captured trace must then reproduce the
# live slot.* counters bit-exactly (DESIGN.md §10) — a mismatch means the
# trace missed a table mutation. The default thread count is the
# runner's core count, so the contract is pinned at three explicit ones:
# one thread that prepares and scores, two, and four sharing the sweeps'
# work board. All must replay exactly,
# and agree with each other on the jplace and on every slot counter.
#
# The replay's feasibility floor is a trace's peak pinned set plus one.
# Above the slots the run had, it says the run did not fit where it ran:
# every slot was pinned at once, as when each schedule pinned every slot
# it touched until its ops had run — pins that changed no decision. They
# must not come back.
floor_within_slots() {
    local live floor
    live=$(sed -n 's/^#meta .*n_slots=\([0-9]*\).*/\1/p' "$1")
    floor=$("$bin" replay --trace "$1" --policies belady --slots "$live" \
        | sed -n 's/^feasibility floor: \([0-9]*\) slots.*/\1/p')
    [ -n "$live" ] && [ -n "$floor" ] && [ "$floor" -le "$live" ] \
        || { echo "$2: replay feasibility floor ${floor:-?} above the run's ${live:-?} slots"; exit 1; }
}
for policy in cost lru mru fifo random cost-lru; do
    for threads in 1 2 4; do
        run="$smoke_dir/$policy.t$threads"
        "$bin" "${place_args[@]}" --maxmem "$pressure" --no-lookup --strategy "$policy" \
            --threads "$threads" --slot-trace "$run.trace" --metrics-json "$run.metrics.json" \
            --out "$run.jplace" >/dev/null 2>&1
        grep -q '"slot.evictions": 0' "$run.metrics.json" \
            && { echo "$policy: no evictions — the differential run is not under pressure"; exit 1; }
        "$bin" replay --trace "$run.trace" --verify "$run.metrics.json" \
            | grep -E 'verified|oracle bound holds' \
            || { echo "$policy at $threads threads: replay differential failed"; exit 1; }
        grep -E '"slot\.(hits|misses|evictions)"' "$run.metrics.json" > "$run.slots"
        floor_within_slots "$run.trace" "$policy at $threads threads"
    done
    for threads in 2 4; do
        cmp "$smoke_dir/$policy.t1.jplace" "$smoke_dir/$policy.t$threads.jplace" \
            || { echo "$policy: jplace differs between 1 and $threads threads"; exit 1; }
        cmp "$smoke_dir/$policy.t1.slots" "$smoke_dir/$policy.t$threads.slots" \
            || { echo "$policy: slot counters differ between 1 and $threads threads"; exit 1; }
    done
done
# With such pins the neotrop runs above still keep their floor within
# their 18 slots; the pro_ref export (625 taxa, 24 slots at its
# pressure) does not (25).
pro_dir="$smoke_dir/pro_ref"
cargo run --release -q --example export_dataset -- "$pro_dir" pro_ref
"$bin" place --tree "$pro_dir/ref.nwk" --ref-msa "$pro_dir/ref.fasta" --queries "$pro_dir/query.fasta" \
    --maxmem "$(cat "$pro_dir/pressure.maxmem")" --no-lookup --threads 2 \
    --slot-trace "$pro_dir/run.trace" --metrics-json "$pro_dir/run.metrics.json" \
    --out "$pro_dir/run.jplace" >/dev/null 2>&1
floor_within_slots "$pro_dir/run.trace" "pro_ref at 2 threads"
# The floor's static term: a placement run asks for no per-edge matrix
# cells, and every static table is counted in one `mem.static.*` gauge.
# A table that comes back, or grows outside the split, fails here instead
# of only raising the floor.
python3 - "$pro_dir/run.metrics.json" <<'PY'
import json, sys
gauges = json.load(open(sys.argv[1]))["gauges"]
split = {k: v for k, v in gauges.items() if k.startswith("mem.static.")}
total = gauges["mem.tracked.static_data"]
assert split.get("mem.static.pmatrices") == 0, f"per-edge matrix cells in a placement run: {split}"
assert sum(split.values()) == total > 0, f"mem.static.* {split} do not sum to static_data {total}"
print(f"    static term OK: {total} B = {split}")
PY
echo "    replay differential OK (all policies bit-exact at 1, 2 and 4 threads, oracle bound holds, feasibility floor within the live slots)"

echo "==> CLV spill pass (tight --maxmem + --tier-dir -> byte-compare)"
# A slot budget below the working set with evicted CLVs spilled to a
# file: the spill may only change *where* CLV bytes wait, never the
# likelihoods — the jplace must match the unconstrained run
# byte-for-byte, and the metrics must show real spill traffic.
tier_dir="$smoke_dir/tiers"
mkdir -p "$tier_dir"
"$bin" "${place_args[@]}" --maxmem "$pressure" --no-lookup --tier-dir "$tier_dir" \
    --metrics-json "$smoke_dir/tiered.metrics.json" \
    --out "$smoke_dir/tiered.jplace" >/dev/null 2>&1
cmp "$smoke_dir/full.jplace" "$smoke_dir/tiered.jplace" \
    || { echo "spilled run differs from unconstrained run"; exit 1; }
grep -q '"tier.demotions": 0' "$smoke_dir/tiered.metrics.json" \
    && { echo "spilled run wrote nothing — the pass is not under pressure"; exit 1; }
grep -q '"tier.demotions"' "$smoke_dir/tiered.metrics.json" \
    || { echo "tier counters missing from metrics JSON"; exit 1; }
# Same run under a tiny byte budget: spills become drops, output still
# byte-identical (drops degrade to recomputation, not to wrong
# likelihoods).
"$bin" "${place_args[@]}" --maxmem "$pressure" --no-lookup --tier-dir "$tier_dir" --tier-budget 1K \
    --metrics-json "$smoke_dir/tiercap.metrics.json" \
    --out "$smoke_dir/tiercap.jplace" >/dev/null 2>&1
cmp "$smoke_dir/full.jplace" "$smoke_dir/tiercap.jplace" \
    || { echo "budget-capped spilled run differs from unconstrained run"; exit 1; }
grep -q '"tier.drops_budget": 0' "$smoke_dir/tiercap.metrics.json" \
    && { echo "1K tier budget dropped nothing"; exit 1; }
echo "    CLV spill OK (spills under pressure, output byte-identical)"

echo "==> daemon pass (phyloplaced: typed per-request errors, byte-identity, SIGTERM drain)"
# The service contract end-to-end: concurrent requests where one is past
# its deadline and one is malformed must each get a typed response, the
# good response must be byte-identical to a cold `phyloplace place` run,
# and SIGTERM during an open session must drain to exit 0.
dbin=target/release/phyloplaced
serve_dir="$smoke_dir/serve"
mkdir -p "$serve_dir"
python3 - "$smoke_dir/query.fasta" "$serve_dir" <<'PY'
import json, sys
qfa, outdir = sys.argv[1], sys.argv[2]
recs = ['>' + r for r in open(qfa).read().split('>') if r.strip()]
open(outdir + '/q0.fasta', 'w').write(recs[0])
with open(outdir + '/requests.ndjson', 'w') as f:
    f.write(json.dumps({"id": "good", "op": "place", "queries": recs[0]}) + "\n")
    f.write(json.dumps({"id": "late", "op": "place", "queries": recs[1],
                        "deadline_ms": -1}) + "\n")
    f.write("this is not a request\n")
    f.write(json.dumps({"id": "st", "op": "status"}) + "\n")
PY
serve_args=(--tree "$smoke_dir/ref.nwk" --ref-msa "$smoke_dir/ref.fasta")
"$dbin" "${serve_args[@]}" < "$serve_dir/requests.ndjson" \
    > "$serve_dir/responses.ndjson" 2>/dev/null \
    || { echo "daemon EOF drain did not exit 0"; exit 1; }
"$bin" place "${serve_args[@]}" --queries "$serve_dir/q0.fasta" \
    > "$serve_dir/cold.jplace" 2>/dev/null
python3 - "$serve_dir" <<'PY'
import json, sys
d = sys.argv[1]
codes, jplace = {}, None
for line in open(d + '/responses.ndjson'):
    r = json.loads(line)
    codes[r.get('id', '')] = r['code']
    if r.get('id') == 'good':
        jplace = r['jplace']
assert codes.get('good') == 'Ok', codes
assert codes.get('late') == 'Deadline', codes
assert codes.get('') == 'BadRequest', codes
assert codes.get('st') == 'Ok', codes
open(d + '/warm.jplace', 'w').write(jplace)
PY
cmp "$serve_dir/cold.jplace" "$serve_dir/warm.jplace" \
    || { echo "daemon response differs from cold place run"; exit 1; }
# SIGTERM drain: stdin stays open through a fifo; the daemon must answer
# the in-flight request, then exit 0 on SIGTERM without waiting for EOF.
mkfifo "$serve_dir/in"
"$dbin" "${serve_args[@]}" < "$serve_dir/in" > "$serve_dir/drain.ndjson" 2>/dev/null &
dpid=$!
exec 3> "$serve_dir/in"
head -1 "$serve_dir/requests.ndjson" >&3
for _ in $(seq 1 300); do [ -s "$serve_dir/drain.ndjson" ] && break; sleep 0.1; done
[ -s "$serve_dir/drain.ndjson" ] || { echo "daemon never answered"; exit 1; }
kill -TERM "$dpid"
rc=0; wait "$dpid" || rc=$?
exec 3>&-
[ "$rc" -eq 0 ] || { echo "SIGTERM drain exited $rc, want 0"; exit 1; }
grep -q '"code":"Ok"' "$serve_dir/drain.ndjson" \
    || { echo "drained daemon lost its in-flight response"; exit 1; }
# Overlapping requests: without --maxmem the daemon runs one request per
# core at once. Two clients on a Unix socket send four requests each,
# each waiting for its reply, and every response must be byte-identical
# to a cold `phyloplace place` run of its queries.
"$dbin" "${serve_args[@]}" --unix "$serve_dir/d.sock" 2>/dev/null &
dpid=$!
python3 - "$smoke_dir/query.fasta" "$serve_dir" <<'PY' \
    || { kill -TERM "$dpid"; echo "overlapping clients failed"; exit 1; }
import json, socket, sys, threading, time
recs = ['>' + r for r in open(sys.argv[1]).read().split('>') if r.strip()]
d = sys.argv[2]
for _ in range(600):
    try:
        socket.socket(socket.AF_UNIX).connect(d + '/d.sock')
        break
    except OSError:
        time.sleep(0.1)
failed = []
def client(c):
    try:
        serve(c)
    except Exception as e:
        failed.append(f'client {c}: {e!r}')
def serve(c):
    s = socket.socket(socket.AF_UNIX)
    s.connect(d + '/d.sock')
    f = s.makefile('rw')
    for k in range(4):
        i = 4 * c + k
        # Requests of one to four queries, so that runs differ in length.
        q = ''.join(recs[i:i + 1 + k])
        open(f'{d}/o{i}.fasta', 'w').write(q)
        f.write(json.dumps({"id": f"o{i}", "op": "place", "queries": q}) + "\n")
        f.flush()
        r = json.loads(f.readline())
        assert r['code'] == 'Ok' and r['id'] == f'o{i}', (r['id'], r['code'], r.get('detail'))
        open(f'{d}/o{i}.warm.jplace', 'w').write(r['jplace'])
threads = [threading.Thread(target=client, args=(c,)) for c in range(2)]
for t in threads: t.start()
for t in threads: t.join()
sys.exit('\n'.join(failed) or None)
PY
kill -TERM "$dpid"
rc=0; wait "$dpid" || rc=$?
[ "$rc" -eq 0 ] || { echo "overlapping-request daemon drained with $rc, want 0"; exit 1; }
for i in $(seq 0 7); do
    [ -s "$serve_dir/o$i.warm.jplace" ] || { echo "overlapping request o$i got no response"; exit 1; }
    "$bin" place "${serve_args[@]}" --queries "$serve_dir/o$i.fasta" \
        > "$serve_dir/o$i.cold.jplace" 2>/dev/null
    cmp "$serve_dir/o$i.cold.jplace" "$serve_dir/o$i.warm.jplace" \
        || { echo "overlapping request o$i differs from its cold place run"; exit 1; }
done
echo "    daemon pass OK (typed codes, byte-identity, SIGTERM drain -> 0, overlapping clients)"

echo "==> daemon chaos (mid-request crash isolated to its request)"
# The faults-enabled debug build through the `phyloplace serve` alias:
# one injected mid-request panic must yield exactly one typed Internal
# error while every other concurrent request still gets its bytes.
# The release binary has no fault hooks, so this step builds and runs
# the debug binary with them.
cargo build -q --features faults
fbin=target/debug/phyloplace
python3 - "$smoke_dir/query.fasta" "$serve_dir" <<'PY'
import json, sys
recs = ['>' + r for r in open(sys.argv[1]).read().split('>') if r.strip()]
with open(sys.argv[2] + '/chaos.ndjson', 'w') as f:
    for i in range(3):
        f.write(json.dumps({"id": f"c{i}", "op": "place", "queries": recs[i]}) + "\n")
PY
PHYLO_FAULTS="serve::mid_request_crash=once" \
    "$fbin" serve "${serve_args[@]}" < "$serve_dir/chaos.ndjson" \
    > "$serve_dir/chaos-out.ndjson" 2>/dev/null \
    || { echo "chaos daemon did not drain to exit 0"; exit 1; }
python3 - "$serve_dir/chaos-out.ndjson" <<'PY'
import json, sys
codes = [json.loads(l)['code'] for l in open(sys.argv[1])]
assert sorted(codes) == ['Internal', 'Ok', 'Ok'], codes
PY
echo "    daemon chaos OK (one Internal, siblings served)"

# Fault sites and the fault matrix move together: a site that no test
# arms is failure handling nothing exercises, and a name a test arms
# that no code fires tests nothing. A site is a `phylo_faults::fire`
# call, or a `*_probed` helper given the site's name, outside the faults
# crate; a test arms one with `phylo_faults::arm`, a `(site, Trigger::…)`
# row or a `PHYLO_FAULTS=site=…` spec.
echo "==> every fault site is armed by a test, every armed name is fired"
fault_names() { # PATTERN PATH...: site names on the matching non-comment lines
    local pattern=$1; shift
    grep -rhE --include='*.rs' --include='*.sh' --exclude-dir=faults "$pattern" "$@" \
        | grep -vE '^[[:space:]]*//' | grep -oE "$pattern" \
        | grep -oE '"[a-z_]+::[a-z_]+' | tr -d '"' | sort -u || true
}
site='"[a-z_]+::[a-z_]+'
fired=$(fault_names "(phylo_faults::fire|_probed)\([^\"]*$site\"" crates src)
armed=$( { fault_names "phylo_faults::arm\($site\"" crates src tests
           fault_names "\($site\", Trigger::" crates src tests
           fault_names "PHYLO_FAULTS\"?(=|, )$site=" scripts tests; } | sort -u)
[ -n "$fired" ] || { echo "found no fault site: the guard's pattern is stale"; exit 1; }
unarmed=$(comm -23 <(echo "$fired") <(echo "$armed"))
unfired=$(comm -13 <(echo "$fired") <(echo "$armed"))
[ -z "$unarmed" ] || { echo "fault sites no test arms:"; echo "$unarmed"; exit 1; }
[ -z "$unfired" ] || { echo "armed fault names no code fires:"; echo "$unfired"; exit 1; }
echo "    $(echo "$fired" | wc -l) fault sites, each armed by a test"

# Probes are always live: there is one build, and a gate that creeps back
# in would halve what every step above covers.
echo "==> no observability feature gate (probes are the only build)"
if grep -rnE 'feature = "(obs|enabled)"|^obs = ' crates src tests Cargo.toml; then
    echo "an obs/enabled cargo feature is back"; exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

# Deny-level lints (clippy's `correctness` group) fail the gate; the
# warn-level backlog is printed and does not.
echo "==> cargo clippy --workspace --offline -q (deny-level lints fail)"
cargo clippy --workspace --offline -q

# A doc link that names a deleted or ambiguous item fails here, so docs
# cannot keep pointing at code that is gone; so does public documentation
# that links a private item, which the rendered docs cannot show. The
# vendored stand-ins for external crates are not ours to document.
echo "==> cargo doc (broken and private intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --offline --no-deps -q --workspace --exclude proptest --exclude rand

echo "==> bench smoke"
bench_out=$(mktemp -d -t bench_smoke.XXXXXX)
trap 'rm -rf "$smoke_dir" "$bench_out"' EXIT
scripts/bench_smoke.sh "$bench_out"

echo "==> CI OK"
