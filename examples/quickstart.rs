//! Quickstart: place query sequences on a reference tree, with and
//! without a memory budget, and export `jplace` output.
//!
//! Run with: `cargo run --release --example quickstart`

use phyloplace::place::result::to_jplace;
use phyloplace::prelude::*;

fn main() {
    // 1. A reference analysis needs a tree, an alignment, and a model.
    //    Here we synthesize all three (a scaled-down analogue of the
    //    paper's `neotrop` dataset); with real data you would parse the
    //    tree via `phyloplace::tree::newick::parse` and the alignment via
    //    `phyloplace::seq::fasta::read`.
    let spec = phyloplace::datasets::neotrop(Scale::Ci);
    let ds = generate_dataset(&spec);
    println!(
        "reference: {} taxa × {} sites ({}), {} queries",
        ds.tree.n_leaves(),
        ds.reference.n_sites(),
        ds.spec.alphabet,
        ds.queries.len()
    );

    // 2. Compress the alignment to site patterns and build the engine
    //    context: tip encodings and code sets, cost tables (transition
    //    matrices are built per operation).
    let patterns = phyloplace::seq::compress(&ds.reference).expect("non-empty alignment");
    let ctx = ReferenceContext::new(
        ds.tree.clone(),
        ds.model.clone(),
        ds.spec.alphabet.alphabet(),
        &patterns,
    )
    .expect("alignment covers every taxon");
    println!(
        "CLV shape: {} patterns × {} rates × {} states = {:.1} KiB per CLV",
        ctx.layout().patterns,
        ctx.layout().rates,
        ctx.layout().states,
        ctx.layout().clv_bytes() as f64 / 1024.0
    );

    // 3. Place with EPA-NG defaults (no memory limit).
    let batch = QueryBatch::new(&ds.queries, ds.reference.n_sites()).expect("aligned queries");
    let placer =
        Placer::new(ctx, patterns.site_to_pattern().to_vec(), EpaConfig::default()).unwrap();
    let (results, report) = placer.place(&batch).expect("placement");
    println!(
        "\nunlimited memory: {:?}, peak {:.1} MiB, {} slots, {} CLV computations",
        report.total_time,
        report.peak_memory as f64 / (1024.0 * 1024.0),
        report.slots,
        report.slot_stats.misses
    );

    // 4. The same run under an explicit memory budget (the paper's
    //    --maxmem): fewer CLV slots, more recomputation.
    let ctx2 = ReferenceContext::new(
        ds.tree.clone(),
        ds.model.clone(),
        ds.spec.alphabet.alphabet(),
        &patterns,
    )
    .unwrap();
    let budget_cfg = EpaConfig::default().with_maxmem_mib(1.0);
    let placer2 = Placer::new(ctx2, patterns.site_to_pattern().to_vec(), budget_cfg).unwrap();
    let (results2, report2) = placer2.place(&batch).expect("budgeted placement");
    println!(
        "1 MiB budget:     {:?}, peak {:.1} MiB, {} slots, {} CLV computations",
        report2.total_time,
        report2.peak_memory as f64 / (1024.0 * 1024.0),
        report2.slots,
        report2.slot_stats.misses
    );

    // 5. Identical placements either way — memory management never
    //    changes results.
    for (a, b) in results.iter().zip(&results2) {
        assert_eq!(a.best().unwrap().edge, b.best().unwrap().edge);
    }
    println!("\nbest placements (identical under both budgets):");
    for r in results.iter().take(5) {
        let best = r.best().unwrap();
        println!(
            "  {} -> edge {} (lnL {:.2}, LWR {:.2})",
            r.name, best.edge, best.log_likelihood, best.like_weight_ratio
        );
    }

    // 6. Export the standard jplace interchange format.
    let jplace = to_jplace(&ds.tree, &results);
    println!(
        "\njplace output: {} bytes (first line: {})",
        jplace.len(),
        jplace.lines().next().unwrap()
    );
}
