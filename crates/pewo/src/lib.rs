//! PEWO-style experiment harness.
//!
//! The paper measures EPA-NG through the PEWO workflow: each
//! configuration is run several times, results are averaged (figures) or
//! the fastest run is taken (parallel-efficiency plots), memory is the
//! peak footprint, and the sweep axes are `--maxmem`, chunk size, thread
//! count, and dataset. This crate reproduces that protocol as a library
//! plus one binary per table/figure:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1_datasets` | Table I (dataset characteristics) |
//! | `table2_absolute` | Table II (absolute time/memory at O/I/F) |
//! | `fig3_memory_sweep` | Fig. 3 (slowdown vs memory fraction, chunk 5000-equivalent) |
//! | `fig4_chunk_sweep` | Fig. 4 (the same with chunk 500-equivalent) |
//! | `fig5_pplacer` | Fig. 5 (EPA-NG vs pplacer, memory saving on/off) |
//! | `fig6_parallel_efficiency` | Fig. 6 (PE vs threads; off/full/maxmem) |
//! | `ablation_strategies` | replacement-strategy ablation (paper §VI outlook) |
//! | `ablation_lookup` | lookup-table on/off ablation (the ≈23× effect) |
//!
//! Every binary accepts `--scale ci|bench|paper` (default `bench`) and
//! `--repeats N`, prints an aligned text table, and writes CSV to
//! `target/experiments/`.

pub mod measure;
pub mod setup;
pub mod sweeps;
pub mod table;

pub use measure::{mean_duration, repeat_fastest, repeat_mean, Timed};
pub use setup::{build_batch, build_reference, equivalent_chunk, parse_args, HarnessArgs};
pub use table::{write_csv, Table};
