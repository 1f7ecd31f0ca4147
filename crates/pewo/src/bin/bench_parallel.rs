//! Scaling at the floor: places `pro_ref` at CI scale under a **floor**
//! AMC budget with 1, 2 and 8 threads (fastest of N by total time),
//! verifies the emitted jplace is byte-identical across thread counts,
//! and records the phase timings and the sweeps' board tallies —
//! together with the host's core count, so the numbers can be read
//! honestly on any machine — in `BENCH_parallel.json`.
//!
//! Usage: `cargo run --release -p pewo-bench --bin bench_parallel -- [out.json]`

use epa_place::result::to_jplace;
use epa_place::{memplan, EpaConfig, Placer};
use pewo_bench::{build_batch, build_reference, repeat_fastest, Timed};
use phylo_datasets as datasets;
use phylo_datasets::Scale;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn main() {
    let out = std::env::args().nth(1).unwrap_or_else(|| "BENCH_parallel.json".to_string());
    let repeats: usize =
        std::env::var("BENCH_REPEATS").ok().and_then(|v| v.parse().ok()).unwrap_or(3);
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let spec = datasets::pro_ref(Scale::Ci);
    let ds = datasets::generate(&spec);
    let batch = build_batch(&ds);
    let base = EpaConfig::default();
    let (probe, _) = build_reference(&ds);
    let floor = memplan::floor_budget(&probe, &base, batch.len(), batch.n_sites());
    drop(probe);

    let mut rows = Vec::new();
    let mut jplace: Option<String> = None;
    let mut byte_identical = true;
    for threads in THREAD_COUNTS {
        let cfg =
            EpaConfig { max_memory: Some(floor), threads, async_prefetch: true, ..base.clone() };
        let run = repeat_fastest(repeats, || {
            let (ctx, s2p) = build_reference(&ds);
            let placer = Placer::new(ctx, s2p, cfg.clone()).expect("valid cfg");
            let (results, report) = placer.place(&batch).expect("floor-budget run");
            Timed { time: report.total_time, payload: (to_jplace(&ds.tree, &results), report) }
        });
        let (j, report) = run.payload;
        match &jplace {
            None => jplace = Some(j),
            Some(reference) => byte_identical &= *reference == j,
        }
        eprintln!(
            "threads={threads}: thorough {:.3}s, prescore {:.3}s, total {:.3}s",
            report.thorough_time.as_secs_f64(),
            report.prescore_time.as_secs_f64(),
            report.total_time.as_secs_f64()
        );
        rows.push((threads, report));
    }

    let t1 = rows[0].1.thorough_time.as_secs_f64();
    let t8 = rows[rows.len() - 1].1.thorough_time.as_secs_f64();
    let speedup = t1 / t8.max(1e-12);
    let per_thread = rows
        .iter()
        .map(|(threads, r)| {
            format!(
                "    \"{threads}\": {{ \"thorough_s\": {:.6}, \"prescore_s\": {:.6}, \
                 \"total_s\": {:.6}, \"workers\": {}, \"threads_started\": {}, \
                 \"prepare_ms\": {:.3}, \"score_ms\": {:.3}, \"idle_ms\": {:.3}, \"slots\": {}, \
                 \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"acquires\": {}, \
                 \"flush_retries\": {} }}",
                r.thorough_time.as_secs_f64(),
                r.prescore_time.as_secs_f64(),
                r.total_time.as_secs_f64(),
                r.scoring.workers,
                r.scoring.sweep.threads_started,
                r.scoring.sweep.prepare_ns as f64 / 1e6,
                r.scoring.sweep.score_ns as f64 / 1e6,
                r.scoring.sweep.idle_ns as f64 / 1e6,
                r.slots,
                r.slot_stats.hits,
                r.slot_stats.misses,
                r.slot_stats.evictions,
                r.slot_stats.acquires,
                r.degradation.flush_retries
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"dataset\": \"pro_ref\",\n  \"scale\": \"ci\",\n  \"mode\": \"amc-floor\",\n  \
         \"host_cores\": {host_cores},\n  \"repeats\": {repeats},\n  \"threads\": {{\n{per_thread}\n  }},\n  \
         \"thorough_speedup_8_vs_1\": {speedup:.3},\n  \
         \"jplace_byte_identical\": {byte_identical},\n  \
         \"note\": \"threads are every busy thread: a sweep's threads claim both the next \
         block's prepare and the pinned blocks' scoring units; the board times are summed over \
         threads; speedup is bounded by host_cores\"\n}}\n"
    );
    std::fs::write(&out, &json).expect("write BENCH_parallel.json");
    println!("{json}");
    eprintln!("wrote {out}");
    assert!(byte_identical, "jplace output must not depend on the worker count");
}
