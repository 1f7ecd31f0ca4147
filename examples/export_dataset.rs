//! Exports a synthetic dataset to on-disk files the `phyloplace` CLI can
//! consume: `ref.nwk`, `ref.fasta`, and `query.fasta` in the given
//! directory. Used by `scripts/ci.sh` to drive the binary end-to-end
//! (checkpoint → interrupt → resume) against real files.
//!
//! Beside them it writes `pressure.maxmem`: a `--maxmem` value (in KiB,
//! `…K`) that holds the floor budget of a `--chunk CHUNK` run (default
//! chunk size if not given) plus [`PRESSURE_SLOTS`] CLV slots, so that a
//! run with `--no-lookup` under it evicts and spills whatever the
//! reference's static data weighs.
//!
//! ```text
//! cargo run --release --example export_dataset -- OUT_DIR [neotrop|serratus|pro_ref [CHUNK]]
//! ```

use phyloplace::amc::SlotArena;
use phyloplace::place::{build_reference, memplan, EpaConfig, DEFAULT_GAMMA_ALPHA};
use phyloplace::prelude::Scale;
use std::path::Path;

/// CLV slots above the floor in `pressure.maxmem`. The CI neotrop export
/// then holds 18 of its 42 inner CLVs, so its sweeps must evict.
const PRESSURE_SLOTS: usize = 8;

fn main() {
    let usage = || -> ! {
        eprintln!("usage: export_dataset OUT_DIR [neotrop|serratus|pro_ref [CHUNK]]");
        std::process::exit(2);
    };
    let mut args = std::env::args().skip(1);
    let dir = args.next().unwrap_or_else(|| usage());
    let which = args.next().unwrap_or_else(|| "neotrop".to_string());
    let mut cfg = EpaConfig::default();
    if let Some(chunk) = args.next() {
        cfg.chunk_size = chunk.parse().ok().filter(|&c| c > 0).unwrap_or_else(|| usage());
    }
    let spec = match which.as_str() {
        "neotrop" => phyloplace::datasets::neotrop(Scale::Ci),
        "serratus" => phyloplace::datasets::serratus(Scale::Ci),
        "pro_ref" => phyloplace::datasets::pro_ref(Scale::Ci),
        other => {
            eprintln!("unknown dataset {other:?} (want neotrop|serratus|pro_ref)");
            std::process::exit(2);
        }
    };
    let ds = phyloplace::datasets::generate(&spec);
    let dir = Path::new(&dir);
    std::fs::create_dir_all(dir).expect("create output directory");
    let tree = phyloplace::tree::newick::write(&ds.tree);
    let ref_fasta = phyloplace::seq::fasta::to_string(ds.reference.rows(), 70);
    std::fs::write(dir.join("ref.nwk"), &tree).expect("write ref.nwk");
    std::fs::write(dir.join("ref.fasta"), &ref_fasta).expect("write ref.fasta");
    std::fs::write(dir.join("query.fasta"), phyloplace::seq::fasta::to_string(&ds.queries, 70))
        .expect("write query.fasta");
    // The reference a `phyloplace place` run over these files builds, with
    // the CLI's default model (`--aa` for protein).
    let reference =
        build_reference(&tree, &ref_fasta, spec.alphabet, DEFAULT_GAMMA_ALPHA, cfg.clone())
            .expect("the exported dataset builds");
    let ctx = reference.placer.ctx();
    let layout = ctx.layout();
    let floor = memplan::floor_budget(ctx, &cfg, ds.queries.len(), reference.n_sites);
    let slot_bytes = SlotArena::bytes_per_slot(layout.clv_len(), layout.patterns);
    let pressure = (floor + PRESSURE_SLOTS * slot_bytes).div_ceil(1024);
    std::fs::write(dir.join("pressure.maxmem"), format!("{pressure}K\n"))
        .expect("write pressure.maxmem");
    eprintln!(
        "wrote {} ({} taxa, {} sites, {} queries; pressure --maxmem {pressure}K)",
        dir.display(),
        ds.tree.n_leaves(),
        ds.reference.n_sites(),
        ds.queries.len()
    );
}
