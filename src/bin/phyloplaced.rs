//! `phyloplaced` — the hardened placement daemon.
//!
//! ```text
//! phyloplaced --tree REF.nwk --ref-msa REF.fasta \
//!     [--aa] [--maxmem SIZE|auto] [--gamma ALPHA|--no-gamma] \
//!     [--chunk N] [--threads N] [--strategy ...] [--no-lookup] \
//!     [--stdio | --unix SOCKET | --tcp HOST:PORT] \
//!     [--queue-cap N] [--batch-max N]
//! ```
//!
//! Loads the reference once (tree, model, CLV slot arena, preplacement
//! lookup), then serves newline-delimited JSON placement requests.
//! Responses are byte-identical to `phyloplace place` over the same
//! inputs.
//!
//! Exit codes: `0` clean drain (SIGTERM / first SIGINT / stdin EOF —
//! every in-flight request finishes with a valid response first), `1`
//! runtime error, `2` usage or input error, `130` aborted by a second
//! SIGINT during the drain.

fn main() {
    if let Err(msg) = phylo_faults::arm_from_env() {
        eprintln!("{msg}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(phyloplace::serve_cli::serve_main(&args));
}
