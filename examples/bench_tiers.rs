//! Measures the spill-file trade-off the spill-vs-drop cost model
//! navigates: how long writing a CLV to the spill file and reading it
//! back take versus recomputing the CLV with the kernels, and the
//! recompute cost (in descendant-operation units) where the two break
//! even — the *crossover* below which spilling stops paying.
//!
//! The measurement drives the real pipeline, not a synthetic loop: a
//! floor-slot [`ManagedStore`] with a [`TieredStore`] attached walks
//! every directed edge of the tree twice, so the first pass spills
//! evicted CLVs and the second pass reloads them, and the reported
//! latencies are the store's own EWMAs — the exact numbers the live
//! cost model steers by. One DNA and one protein dataset, since the
//! CLV row width (4 vs 20 states) moves both sides of the crossover.
//!
//! Run with: `cargo run --release --example bench_tiers [out.json]`
//! (default output: `BENCH_tiers.json` in the working directory).

use phyloplace::amc::{StrategyKind, TierConfig, TieredStore};
use phyloplace::prelude::*;
use phyloplace::tree::ids::DirEdgeId;

struct TierRow {
    dataset: &'static str,
    alphabet: &'static str,
    write_ns: f64,
    reload_ns: f64,
    recompute_ns_per_cost: f64,
    crossover_cost: f64,
    demotions: u64,
    reloads: u64,
    payload_bytes: usize,
}

fn measure(spec: &phyloplace::datasets::DatasetSpec) -> TierRow {
    let ds = generate_dataset(spec);
    let patterns = phyloplace::seq::compress(&ds.reference).unwrap();
    let ctx = ReferenceContext::new(
        ds.tree.clone(),
        ds.model.clone(),
        ds.spec.alphabet.alphabet(),
        &patterns,
    )
    .unwrap();

    // Floor slots: every block of edges evicts the previous one, so the
    // two passes below exercise spilling and reloading on every CLV.
    let store = ManagedStore::with_slots(&ctx, ctx.min_slots(), StrategyKind::default()).unwrap();
    let dir = std::env::temp_dir().join(format!("bench-tiers-{}", std::process::id()));
    let tiers = TieredStore::new(
        &TierConfig::new(dir),
        ctx.tree().n_dir_edges(),
        ctx.layout().clv_len(),
        ctx.layout().patterns,
        ctx.cost_table(),
    )
    .unwrap();
    store.arena().set_tiers(std::sync::Arc::clone(&tiers));

    let n_edges = ctx.tree().n_edges();
    let walk = || {
        // One edge per block: two target pins plus the traversal floor
        // always fit in `min_slots`, for any tree size.
        for e in 0..n_edges {
            let e = phyloplace::tree::ids::EdgeId(e as u32);
            let prepared =
                store.prepare(&ctx, &[DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)]).unwrap();
            store.release(prepared);
        }
    };
    walk(); // populate: recomputes feed the rate EWMA, evictions spill and feed the write EWMA
    walk(); // revisit: reloads feed the latency EWMA

    let stats = tiers.stats();
    let (write_ns, reload_ns) = (tiers.write_ns(), tiers.reload_ns());
    let rate = tiers.recompute_ns_per_cost();
    let crossover = if rate > 0.0 { (write_ns + reload_ns) / rate } else { f64::NAN };
    TierRow {
        dataset: spec.name,
        alphabet: match spec.alphabet {
            phyloplace::seq::alphabet::AlphabetKind::Dna => "dna",
            _ => "protein",
        },
        write_ns,
        reload_ns,
        recompute_ns_per_cost: rate,
        crossover_cost: crossover,
        demotions: stats.demotions,
        reloads: stats.reloads,
        payload_bytes: tiers.record_len(),
    }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_tiers.json".to_string());
    let mut rows = Vec::new();
    // One DNA and one protein reference: the state count scales the
    // recompute side ~5x while the payload (and thus reload) scales
    // similarly — where the crossover lands is an empirical question.
    for spec in
        [phyloplace::datasets::neotrop(Scale::Ci), phyloplace::datasets::serratus(Scale::Ci)]
    {
        let row = measure(&spec);
        println!(
            "{:<10} {:<8} write={:>8.0}ns  reload={:>8.0}ns  recompute={:>8.1}ns/cost  \
             crossover@cost={:<8.1} demotions={} reloads={}",
            row.dataset,
            row.alphabet,
            row.write_ns,
            row.reload_ns,
            row.recompute_ns_per_cost,
            row.crossover_cost,
            row.demotions,
            row.reloads,
        );
        rows.push(row);
    }

    // Hand-rolled JSON (no serde in the tree): one object per dataset
    // with both sides of the crossover.
    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"dataset\": \"{}\", \"alphabet\": \"{}\", \"tier\": \"disk\", \
             \"write_ns\": {:.1}, \"reload_ns\": {:.1}, \"recompute_ns_per_cost\": {:.3}, \
             \"crossover_cost\": {:.3}, \"demotions\": {}, \"reloads\": {}, \
             \"payload_bytes\": {}}}{}\n",
            r.dataset,
            r.alphabet,
            r.write_ns,
            r.reload_ns,
            r.recompute_ns_per_cost,
            if r.crossover_cost.is_nan() { -1.0 } else { r.crossover_cost },
            r.demotions,
            r.reloads,
            r.payload_bytes,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("]\n");
    std::fs::write(&out_path, json).unwrap();
    println!("wrote {out_path}");
}
