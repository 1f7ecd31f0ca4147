//! One front door: a cold `run_placement` and a warm `WarmEngine`
//! request are the same pipeline, so their jplace bytes must agree under
//! every scoring-flag combination — not only the defaults the daemon
//! suite compares. Also pins the jplace writer's JSON escaping, which
//! both paths share.

use phyloplace::amc::CancelToken;
use phyloplace::cli::{engine_settings, run_placement, CliOptions};
use phyloplace::datasets::{generate, neotrop, serratus, DatasetSpec, Scale};
use phyloplace::place::result::{to_jplace_with, PlacementEntry};
use phyloplace::place::{build_reference, memplan, PlacementResult};
use phyloplace::seq::fasta;
use phyloplace::serve::WarmEngine;
use phyloplace::tree::EdgeId;

/// A dataset in the image of `spec`, cut down to what 48 × 2 debug-build
/// runs can afford.
fn inputs(spec: DatasetSpec, leaves: usize, sites: usize, n_queries: usize) -> CliOptions {
    let ds = generate(&DatasetSpec { leaves, sites, n_queries, ..spec });
    CliOptions {
        tree_text: phyloplace::tree::newick::write(&ds.tree),
        ref_fasta: fasta::to_string(ds.reference.rows(), 70),
        query_fasta: fasta::to_string(&ds.queries, 70),
        alphabet: ds.spec.alphabet,
        ..CliOptions::default()
    }
}

/// A budget just above the floor of this configuration at one query per
/// chunk, in MiB: AMC on, lookup table out of reach.
fn floorish_mib(opts: &CliOptions) -> f64 {
    let cfg = engine_settings(opts).unwrap().epa_config();
    let r = build_reference(&opts.tree_text, &opts.ref_fasta, opts.alphabet, opts.gamma_alpha, cfg)
        .unwrap();
    let floor = memplan::floor_budget(r.placer.ctx(), r.placer.config(), 1, r.n_sites);
    floor as f64 * 1.05 / (1024.0 * 1024.0)
}

fn served(opts: &CliOptions) -> String {
    let engine =
        WarmEngine::build(&opts.tree_text, &opts.ref_fasta, &engine_settings(opts).unwrap())
            .unwrap();
    let rows = engine.parse_queries(&opts.query_fasta).map_err(|f| f.detail).unwrap();
    let mut out = engine.place_merged(&[rows], &CancelToken::new());
    out.remove(0).map_err(|f| f.detail).unwrap().jplace
}

#[test]
fn cold_and_served_bytes_agree_under_every_scoring_flag_set() {
    let mut compared = 0;
    for base in [inputs(neotrop(Scale::Ci), 16, 40, 4), inputs(serratus(Scale::Ci), 8, 16, 2)] {
        for gamma_alpha in [base.gamma_alpha, None, Some(0.3)] {
            for budgeted in [false, true] {
                for no_lookup in [false, true] {
                    for threads in [1, 2] {
                        let mut opts =
                            CliOptions { gamma_alpha, no_lookup, threads, ..base.clone() };
                        if budgeted {
                            opts.chunk_size = 1;
                            opts.maxmem_mib = Some(floorish_mib(&opts));
                        }
                        let what = format!(
                            "{:?} gamma={gamma_alpha:?} maxmem={:?} chunk={} no_lookup={no_lookup} \
                             threads={threads}",
                            opts.alphabet, opts.maxmem_mib, opts.chunk_size
                        );
                        let cold = run_placement(&opts).unwrap();
                        assert!(cold.completed, "{what}");
                        let lookup_on = cold.summary.contains("lookup on");
                        assert_eq!(lookup_on, !budgeted && !no_lookup, "{what}: {}", cold.summary);
                        assert_eq!(served(&opts), cold.jplace, "served != cold: {what}");
                        compared += 1;
                    }
                }
            }
        }
    }
    assert_eq!(compared, 48);
}

#[test]
fn hostile_names_are_json_escaped_cold_and_served() {
    // Through the text front door: Newick and FASTA names may hold
    // anything but their own delimiters and whitespace.
    let opts = CliOptions {
        tree_text: "((A:0.1,B\"x:0.2):0.05,(C\\:0.15,D\u{1}:0.1):0.05,E:0.3);".into(),
        ref_fasta: ">A\nACGTACGTAC\n>B\"x\nACGTACGTCC\n>C\\\nACTTACGAAC\n>D\u{1}\nACTTACGTAC\n\
                    >E\nGCTTACGTAA\n"
            .into(),
        query_fasta:
            ">q\u{1}a\nACGTACGTAC\n>soft\u{ad}hyphen\nACTTACG-AC\n>\"\\\u{7f}\nACGTACGTCC\n".into(),
        ..CliOptions::default()
    };
    let cold = run_placement(&opts).unwrap().jplace;
    let tree_line = cold.lines().nth(2).unwrap();
    assert!(tree_line.starts_with("  \"tree\": \"(A:0.1{"), "{tree_line}");
    for escaped in ["B\\\"x:0.2{", "C\\\\:0.15{", "D\\u0001:0.1{"] {
        assert!(tree_line.contains(escaped), "{escaped} not in {tree_line}");
    }
    // Only what JSON requires is escaped; the rest stays UTF-8.
    for name in ["\"q\\u0001a\"", "\"soft\u{ad}hyphen\"", "\"\\\"\\\\\u{7f}\""] {
        assert!(cold.contains(&format!("\"n\": [{name}]}}")), "{name} not in {cold}");
    }
    assert_eq!(served(&opts), cold);

    // Past the parsers: names a library caller may hand over, newlines
    // included, cannot break the line-oriented document either.
    let tree = phyloplace::tree::tree::tripod(["A\n", "B\r\t", "C"], [0.1, 0.2, 0.3]).unwrap();
    let result = |name: &str| {
        let mut r = PlacementResult {
            name: name.to_string(),
            placements: vec![PlacementEntry {
                edge: EdgeId(0),
                log_likelihood: -3.0,
                like_weight_ratio: 0.0,
                pendant_length: 0.1,
                distal_length: 0.05,
            }],
        };
        r.finalize();
        r
    };
    let all = [result("line\nbreak"), result("plain")];
    let whole = to_jplace_with(&tree, &all, true);
    assert_eq!(whole.lines().count(), 10, "{whole}");
    assert!(whole.contains("(A\\n:0.1{0},B\\r\\t:0.2{1},C:0.3{2});"), "{whole}");
    assert!(whole.contains("\"n\": [\"line\\nbreak\"]},\n"), "{whole}");
}
