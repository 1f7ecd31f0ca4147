//! CLI surface for the placement daemon (`phyloplaced`, also reachable
//! as `phyloplace serve`): parse the daemon flags, build the warm
//! engine once, and hand off to the `phylo-serve` server loop.
//!
//! The scoring flags are `phyloplace place`'s, parsed by the same table
//! ([`crate::cli::parse_scoring_flag`]), because a daemon response is a
//! cold `place` run's bytes.

use crate::cli::{engine_settings, parse_scoring_flag, parse_value, CliOptions};
use phylo_serve::{EngineSettings, ServeConfig, Transport, WarmEngine};
use phylo_shard::Shutdown;

/// Parsed daemon invocation.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    pub tree_path: String,
    pub ref_path: String,
    pub settings: EngineSettings,
    pub config: ServeConfig,
    pub transport: Transport,
}

const USAGE: &str = "usage: phyloplaced --tree REF.nwk --ref-msa REF.fasta \
  [--aa] [--maxmem SIZE[K|M|G|T] | --maxmem auto] [--gamma ALPHA | --no-gamma] \
  [--chunk N] [--threads N (default: the machine's cores)] \
  [--strategy cost|lru|mru|fifo|random|cost-lru] [--no-lookup] \
  [--stdio | --unix SOCKET.path | --tcp HOST:PORT] [--queue-cap N] [--batch-max N]\n\
Serves newline-delimited JSON placement requests against a warm reference.\n\
Exit codes: 0 clean drain (SIGTERM/SIGINT or stdin EOF), 1 runtime error, \
2 usage/input error, 130 aborted by a second SIGINT.";

/// Parses daemon flags. `args` excludes the leading `serve` token when
/// invoked through `phyloplace serve`.
pub fn parse_serve(args: &[String]) -> Result<ServeOptions, String> {
    let mut scoring = CliOptions::default();
    let mut config = ServeConfig::default();
    let mut transport = Transport::Stdio;
    let mut tree_path = None;
    let mut ref_path = None;
    let usage = |e: String| format!("{e}\n{USAGE}");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().cloned().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--tree" => tree_path = Some(value()?),
            "--ref-msa" => ref_path = Some(value()?),
            "--stdio" => transport = Transport::Stdio,
            "--unix" => transport = Transport::Unix(std::path::PathBuf::from(value()?)),
            "--tcp" => transport = Transport::Tcp(value()?),
            "--queue-cap" => config.queue_cap = parse_value(flag, &value()?).map_err(usage)?,
            "--batch-max" => {
                config.batch_max = parse_value(flag, &value()?).map_err(usage)?;
                if config.batch_max == 0 {
                    return Err(format!("bad --batch-max 0: must be >= 1\n{USAGE}"));
                }
            }
            other => {
                if !parse_scoring_flag(&mut scoring, other, &mut it).map_err(usage)? {
                    return Err(format!("unknown flag {other:?}\n{USAGE}"));
                }
            }
        }
    }
    let tree_path = tree_path.ok_or_else(|| format!("--tree is required\n{USAGE}"))?;
    let ref_path = ref_path.ok_or_else(|| format!("--ref-msa is required\n{USAGE}"))?;
    let settings = engine_settings(&scoring).map_err(usage)?;
    Ok(ServeOptions { tree_path, ref_path, settings, config, transport })
}

/// Usage-vs-runtime error split for the binary's exit code.
pub enum ServeError {
    /// Bad inputs (exit 2): unreadable/unparseable reference files.
    Input(String),
    /// Runtime failure (exit 1): transport/bind errors, executor panic.
    Runtime(String),
}

impl ServeError {
    pub fn exit_code(&self) -> i32 {
        match self {
            ServeError::Input(_) => 2,
            ServeError::Runtime(_) => 1,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Input(m) | ServeError::Runtime(m) => write!(f, "{m}"),
        }
    }
}

/// Loads the reference inputs, warms the engine, and serves until
/// drained. Returns only after a clean drain.
pub fn run_serve(opts: &ServeOptions, shutdown: &Shutdown) -> Result<(), ServeError> {
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| ServeError::Input(format!("{path}: {e}")))
    };
    let tree_text = read(&opts.tree_path)?;
    let ref_fasta = read(&opts.ref_path)?;
    let t0 = std::time::Instant::now();
    let engine =
        WarmEngine::build(&tree_text, &ref_fasta, &opts.settings).map_err(ServeError::Input)?;
    eprintln!("phyloplaced: warm in {:.1?}", t0.elapsed());
    phylo_serve::run(engine, opts.config.clone(), opts.transport.clone(), shutdown.clone())
        .map_err(ServeError::Runtime)
}

/// Everything `phyloplaced ARGS` and `phyloplace serve ARGS` do after
/// arming faults; returns the process exit status. A completed drain is
/// success (0): every admitted request got its response — unlike
/// `place`, where an interrupt leaves work undone (exit 3).
pub fn serve_main(args: &[String]) -> i32 {
    let opts = match parse_serve(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    let shutdown = Shutdown::new();
    crate::signals::install(shutdown.clone());
    match run_serve(&opts, &shutdown) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_seq::alphabet::AlphabetKind;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_full_flag_surface() {
        let o = parse_serve(&argv(
            "--tree t.nwk --ref-msa r.fa --aa --no-gamma --chunk 128 --threads 2 \
             --strategy lru --no-lookup --unix /tmp/pp.sock --queue-cap 9 --batch-max 3",
        ))
        .unwrap();
        assert_eq!(o.tree_path, "t.nwk");
        assert_eq!(o.settings.alphabet, AlphabetKind::Protein);
        assert_eq!(o.settings.gamma_alpha, None);
        assert_eq!(o.settings.chunk_size, 128);
        assert_eq!(o.settings.threads, 2);
        assert_eq!(o.settings.strategy, phylo_amc::StrategyKind::Lru);
        assert!(o.settings.no_lookup);
        assert!(matches!(o.transport, Transport::Unix(_)));
        assert_eq!(o.config.queue_cap, 9);
        assert_eq!(o.config.batch_max, 3);
        // The daemon's own defaults (the scoring ones are the flag
        // table's, checked in `cli::tests`).
        let o = parse_serve(&argv("--tree t.nwk --ref-msa r.fa")).unwrap();
        assert!(matches!(o.transport, Transport::Stdio));
        assert_eq!(o.config.queue_cap, 64);
        assert_eq!(o.config.batch_max, 8);
    }

    #[test]
    fn rejects_missing_inputs_and_bad_values() {
        assert!(parse_serve(&argv("--ref-msa r.fa")).is_err(), "--tree required");
        assert!(parse_serve(&argv("--tree t.nwk")).is_err(), "--ref-msa required");
        assert!(parse_serve(&argv("--tree t --ref-msa r --batch-max 0")).is_err());
        assert!(parse_serve(&argv("--tree t --ref-msa r --queue-cap x")).is_err());
        assert!(parse_serve(&argv("--tree t --ref-msa r --bogus")).is_err());
        assert!(parse_serve(&argv("--tree t --ref-msa r --tcp")).is_err(), "value-less flag");
    }
}
