//! Reproduces **Fig. 7**: parallel efficiency on the wide-alignment
//! dataset (serratus) with the *experimental across-site* parallelization
//! of the branch-block CLV precomputation, compared against the default
//! asynchronous scheme.
//!
//! In the across-site mode the block's CLVs are computed synchronously
//! using all worker threads split over alignment sites, and placement
//! then also uses all workers — the paper's modified EPA-NG (§V-C).
//! Expected shape: a clear PE improvement over the async scheme in `full`
//! mode on this wide alignment (the paper measured ~4 % → ~16 % at 32
//! threads), with the caveat that narrow alignments do not benefit.

use epa_place::{memplan, EpaConfig, Placer};
use pewo_bench::setup::thread_sweep;
use pewo_bench::{
    build_batch, build_reference, equivalent_chunk, parse_args, repeat_fastest, write_csv, Table,
    Timed,
};
use phylo_datasets as datasets;

fn main() {
    let args = parse_args();
    let mut table = Table::new(
        format!(
            "Fig. 7 — across-site PE on serratus (scale: {}, fastest of {} runs)",
            args.scale, args.repeats
        ),
        &["mode", "scheme", "threads", "P(r)", "time (s)", "PE"],
    );
    let spec = datasets::serratus(args.scale);
    let ds = datasets::generate(&spec);
    let batch = build_batch(&ds);
    let chunk = equivalent_chunk(136, 5000, batch.len());
    let base = EpaConfig { chunk_size: chunk, ..Default::default() };
    let (probe, _) = build_reference(&ds);
    let floor = memplan::floor_budget(&probe, &base, batch.len(), batch.n_sites());
    let plenty = memplan::lookup_floor_budget(&probe, &base, batch.len(), batch.n_sites())
        + probe.max_slots()
            * phylo_amc::SlotArena::bytes_per_slot(
                probe.layout().clv_len(),
                probe.layout().patterns,
            );
    drop(probe);

    for (mode, maxmem) in [("off", None), ("full", Some(floor)), ("maxmem", Some(plenty))] {
        let serial_cfg =
            EpaConfig { max_memory: maxmem, threads: 1, async_prefetch: false, ..base.clone() };
        let serial = repeat_fastest(args.repeats, || {
            let (ctx, s2p) = build_reference(&ds);
            let placer = Placer::new(ctx, s2p, serial_cfg.clone()).expect("valid cfg");
            let (_, report) = placer.place(&batch).expect("serial run");
            Timed { time: report.total_time, payload: () }
        });
        let t_serial = serial.time.as_secs_f64();

        for threads in thread_sweep(args.max_threads) {
            for scheme in ["async", "across-site"] {
                let amc_on = maxmem.is_some();
                let cfg = match scheme {
                    "async" => EpaConfig {
                        max_memory: maxmem,
                        threads,
                        async_prefetch: amc_on,
                        sitepar_threads: 1,
                        ..base.clone()
                    },
                    _ => EpaConfig {
                        max_memory: maxmem,
                        threads,
                        async_prefetch: false,
                        sitepar_threads: threads,
                        ..base.clone()
                    },
                };
                let run = repeat_fastest(args.repeats, || {
                    let (ctx, s2p) = build_reference(&ds);
                    let placer = Placer::new(ctx, s2p, cfg.clone()).expect("valid cfg");
                    let (_, report) = placer.place(&batch).expect("parallel run");
                    Timed { time: report.total_time, payload: () }
                });
                // Either scheme's threads are all its busy threads: the
                // async scheme's sweep threads prepare blocks and score
                // them, the across-site scheme's split both over sites.
                let p = threads;
                let pe = t_serial / run.time.as_secs_f64() / p as f64;
                table.row(&[
                    mode.to_string(),
                    scheme.to_string(),
                    threads.to_string(),
                    p.to_string(),
                    format!("{:.2}", run.time.as_secs_f64()),
                    format!("{pe:.3}"),
                ]);
            }
        }
    }
    print!("{}", table.render());
    let path = write_csv(&format!("fig7_{}", args.scale), &table);
    eprintln!("csv: {}", path.display());
}
