//! The `phyloplace` command-line tool.
//!
//! ```text
//! phyloplace place --tree ref.nwk --ref-msa ref.fasta --queries q.fasta \
//!     [--aa] [--maxmem SIZE[K|M|G|T]|auto] [--gamma ALPHA|--no-gamma] \
//!     [--chunk N] [--threads N] [--out out.jplace] \
//!     [--strategy cost|lru|mru|fifo|random|cost-lru] [--slot-trace TRACE.txt] \
//!     [--checkpoint DIR | --resume DIR] [--deadline SECS]
//! phyloplace replay --trace TRACE.txt [--slots N,M,...] [--policies LIST|all] \
//!     [--threshold PCT] [--verify METRICS.json]
//! ```
//!
//! Exit codes: `0` success, `1` runtime error, `2` usage/input error, `3`
//! interrupted (SIGINT/SIGTERM or `--deadline` — the checkpoint journal
//! holds every finished chunk, so a `--resume` run completes the work),
//! `130` aborted by a second SIGINT during a graceful drain.

use phylo_amc::CancelToken;
use phylo_shard::{Shutdown, EXIT_INTERRUPTED};
use phyloplace::{cli, signals};

fn main() {
    // A malformed fault spec means the requested chaos experiment is
    // not the one that would run — refuse rather than half-arm.
    if let Err(msg) = phylo_faults::arm_from_env() {
        eprintln!("{msg}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("replay") {
        // The replay lab is offline: no signal plumbing, no placement.
        let opts = match phyloplace::replay_cli::parse_replay(&args) {
            Ok(o) => o,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        };
        match phyloplace::replay_cli::run_replay(&opts) {
            Ok(report) => {
                print!("{report}");
                return;
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(1);
            }
        }
    }
    if args.first().map(String::as_str) == Some("serve") {
        // Alias for the `phyloplaced` daemon binary: same flags, same
        // exit-code contract (a completed drain is success, exit 0).
        std::process::exit(phyloplace::serve_cli::serve_main(&args[1..]));
    }
    let (opts, out_path) = match cli::parse_cli(&args) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let cancel = CancelToken::new();
    // The shutdown machine shares the run's cancel token: the first
    // signal arms cooperative cancellation (the run drains to a durable
    // chunk boundary and exits 3), the second aborts at exit 130.
    signals::install(Shutdown::with_cancel(cancel.clone()));
    match cli::run_placement_with(&opts, cancel) {
        Ok(out) => {
            eprintln!("{}", out.summary);
            match out_path {
                Some(path) => {
                    // Atomic, durable write: a crash mid-write must not
                    // leave a truncated jplace behind, and the rename
                    // must survive power loss (file + dir fsync).
                    let p = std::path::Path::new(&path);
                    if let Err(e) = phyloplace::place::result::write_jplace_atomic(p, &out.jplace) {
                        eprintln!("{path}: {e}");
                        std::process::exit(1);
                    }
                    eprintln!("wrote {path}{}", if out.completed { "" } else { " (partial)" });
                }
                None => print!("{}", out.jplace),
            }
            if !out.completed {
                std::process::exit(EXIT_INTERRUPTED);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}
