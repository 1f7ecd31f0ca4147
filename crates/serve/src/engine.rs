//! The warm placement engine behind the daemon: reference tree, model,
//! CLV slot arena, and preplacement lookup built once at startup, then
//! shared by every request.
//!
//! The reference comes from [`epa_place::build_reference`] — the same
//! builder a cold `phyloplace place` run calls — and every request runs
//! the same chunk loop, which is why a daemon response is byte-identical
//! to a cold CLI run of the same queries.

use crate::proto::Code;
use epa_place::result::to_jplace_with;
use epa_place::{EpaConfig, Placer, PreplacementMode, QueryBatch, WarmStore};
use phylo_amc::CancelToken;
use phylo_journal::fnv1a64;
use phylo_seq::alphabet::AlphabetKind;
use phylo_seq::{fasta, Sequence};
use phylo_tree::Tree;
use std::sync::atomic::{AtomicIsize, Ordering};

/// The scoring settings of an engine: what the flags `place` and
/// `serve` share resolve to. `Default` is the one definition of their
/// defaults.
#[derive(Debug, Clone)]
pub struct EngineSettings {
    pub alphabet: AlphabetKind,
    /// Γ shape (4 categories); `None` = rate-homogeneous.
    pub gamma_alpha: Option<f64>,
    pub max_memory: Option<usize>,
    pub chunk_size: usize,
    pub threads: usize,
    pub strategy: phylo_amc::StrategyKind,
    pub no_lookup: bool,
}

impl Default for EngineSettings {
    fn default() -> Self {
        let cfg = EpaConfig::default();
        EngineSettings {
            alphabet: AlphabetKind::Dna,
            gamma_alpha: epa_place::DEFAULT_GAMMA_ALPHA,
            max_memory: cfg.max_memory,
            chunk_size: cfg.chunk_size,
            threads: cfg.threads,
            strategy: cfg.strategy,
            no_lookup: false,
        }
    }
}

impl EngineSettings {
    /// The placement configuration these settings stand for.
    pub fn epa_config(&self) -> EpaConfig {
        EpaConfig {
            max_memory: self.max_memory,
            chunk_size: self.chunk_size,
            threads: self.threads,
            strategy: self.strategy,
            preplacement: if self.no_lookup {
                PreplacementMode::Off
            } else {
                PreplacementMode::Auto
            },
            ..Default::default()
        }
    }
}

/// A served placement: the jplace document plus request accounting.
pub struct Served {
    pub jplace: String,
    pub n_queries: usize,
    /// Whether the engine walked the degradation ladder during this
    /// run (feeds the daemon's pressure ladder).
    pub degraded: bool,
}

/// A typed per-request failure (maps straight onto a response code).
#[derive(Debug)]
pub struct ServeFail {
    pub code: Code,
    pub detail: String,
}

impl ServeFail {
    fn bad(detail: String) -> Self {
        ServeFail { code: Code::BadRequest, detail }
    }
}

/// The long-lived engine: context + warm store + fingerprint.
pub struct WarmEngine {
    placer: Placer,
    warm: WarmStore,
    tree: Tree,
    n_sites: usize,
    alphabet: AlphabetKind,
    fingerprint: u64,
    /// Cores no run holds: `threads` less the cores of the runs in
    /// flight, below zero while runs hold more cores than there are.
    free_cores: AtomicIsize,
}

/// The cores one run scores on, given back when it ends (or unwinds).
struct HeldCores<'a> {
    free: &'a AtomicIsize,
    n: usize,
}

impl Drop for HeldCores<'_> {
    fn drop(&mut self) {
        self.free.fetch_add(self.n as isize, Ordering::SeqCst);
    }
}

impl WarmEngine {
    /// Builds the full warm state from the reference inputs. Errors are
    /// strings suitable for startup diagnostics (the daemon exits 2 on
    /// bad inputs, like the CLI).
    pub fn build(
        tree_text: &str,
        ref_fasta: &str,
        st: &EngineSettings,
    ) -> Result<WarmEngine, String> {
        let epa_place::Reference { placer, tree, n_sites } = epa_place::build_reference(
            tree_text,
            ref_fasta,
            st.alphabet,
            st.gamma_alpha,
            st.epa_config(),
        )
        .map_err(|e| e.to_string())?;
        let warm = placer.warm_up().map_err(|e| format!("warm-up: {e}"))?;
        // The warm-state fingerprint: a client (or the status probe's
        // reader) can verify which reference/settings this daemon is
        // warm for without re-reading the inputs.
        let mut fp = fnv1a64(tree_text.as_bytes());
        fp ^= fnv1a64(ref_fasta.as_bytes()).rotate_left(1);
        fp ^= fnv1a64(format!("{st:?}").as_bytes()).rotate_left(2);
        let free_cores = AtomicIsize::new(placer.config().threads as isize);
        Ok(WarmEngine {
            placer,
            warm,
            tree,
            n_sites,
            alphabet: st.alphabet,
            fingerprint: fp,
            free_cores,
        })
    }

    /// Hex fingerprint of (tree, reference, settings).
    pub fn fingerprint(&self) -> String {
        format!("{:016x}", self.fingerprint)
    }

    /// Slots in the warm arena.
    pub fn slots(&self) -> usize {
        self.warm.slots()
    }

    /// Cores the engine scores on (`--threads`): all of them go to a
    /// run that overlaps no other.
    pub fn threads(&self) -> usize {
        self.placer.config().threads
    }

    /// How many runs the engine admits at once: one per core when the
    /// store is uncapped (no `--maxmem`), whose runs only read it; one
    /// under a cap, where a run computes CLVs and installs its cancel
    /// token store-wide.
    pub fn runs(&self) -> usize {
        if self.warm.runs_may_overlap() {
            self.threads()
        } else {
            1
        }
    }

    /// Takes the cores no other run holds, at least one.
    fn take_cores(&self) -> HeldCores<'_> {
        let take = |free: isize| free.max(1);
        let before = self
            .free_cores
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |free| Some(free - take(free)))
            .expect("the update never declines");
        HeldCores { free: &self.free_cores, n: take(before) as usize }
    }

    /// Whether the preplacement lookup table is resident.
    pub fn use_lookup(&self) -> bool {
        self.warm.use_lookup()
    }

    /// Parses one request's FASTA payload (cheap; done on the reader
    /// thread so a malformed payload is rejected before admission).
    pub fn parse_queries(&self, query_fasta: &str) -> Result<Vec<Sequence>, ServeFail> {
        let rows = fasta::parse(query_fasta, self.alphabet)
            .map_err(|e| ServeFail::bad(format!("queries: {e}")))?;
        if rows.is_empty() {
            return Err(ServeFail::bad("queries: empty FASTA payload".to_string()));
        }
        for r in &rows {
            if r.codes().len() != self.n_sites {
                return Err(ServeFail::bad(format!(
                    "queries: {} has {} aligned sites, reference has {}",
                    r.name(),
                    r.codes().len(),
                    self.n_sites
                )));
            }
        }
        Ok(rows)
    }

    /// Places a micro-batch of requests in ONE warm engine run: all
    /// requests' queries are concatenated into a single batch, scored
    /// together, and the per-request results sliced back out. Per-query
    /// results are independent of batch composition (the engine's
    /// chunking-equivalence contract), so merging cannot change any
    /// request's bytes.
    ///
    /// `cancel` is the run-scoped token (a single request's own token
    /// when the batch has one element; a drain/abort-only token when
    /// merged). A cancelled run maps to a typed failure per request,
    /// never a torn jplace: a request either gets its complete document
    /// or an error.
    ///
    /// The run scores on the cores no other run holds, at least one,
    /// and gives them back when it ends: a lone run gets every core, and
    /// runs that overlap share them.
    pub fn place_merged(
        &self,
        requests: &[Vec<Sequence>],
        cancel: &CancelToken,
    ) -> Vec<Result<Served, ServeFail>> {
        let all: Vec<Sequence> = requests.iter().flatten().cloned().collect();
        let batch = match QueryBatch::new(&all, self.n_sites) {
            Ok(b) => b,
            Err(e) => {
                let detail = format!("queries: {e}");
                return requests.iter().map(|_| Err(ServeFail::bad(detail.clone()))).collect();
            }
        };
        let placed = {
            let cores = self.take_cores();
            self.placer.place_warm(&self.warm, &batch, cancel, cores.n)
        };
        let outcome = match placed {
            Ok(o) => o,
            Err(e) => {
                let fail = ServeFail { code: Code::Internal, detail: format!("placement: {e}") };
                return requests
                    .iter()
                    .map(|_| Err(ServeFail { code: fail.code, detail: fail.detail.clone() }))
                    .collect();
            }
        };
        if !outcome.completed {
            // Cancelled mid-run (deadline or client cancel): every
            // request in the run gets the typed error — the caller
            // refines Deadline vs Cancelled from the request token.
            return requests
                .iter()
                .map(|_| {
                    Err(ServeFail {
                        code: Code::Cancelled,
                        detail: "run cancelled before completion".to_string(),
                    })
                })
                .collect();
        }
        let degraded = {
            let d = &outcome.report.degradation;
            d.prefetch_disabled + d.block_clamped + d.flush_retries > 0
        };
        let mut out = Vec::with_capacity(requests.len());
        let mut off = 0usize;
        for req in requests {
            let n = req.len();
            let slice = &outcome.results[off..off + n];
            off += n;
            // An injected mid-request crash: prove the blast radius is
            // one request. The panic is caught right here, converted to
            // a typed Internal error, and every other request in the
            // same engine run still gets its bytes.
            let rendered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if phylo_faults::fire("serve::mid_request_crash") {
                    panic!("injected mid-request crash");
                }
                to_jplace_with(&self.tree, slice, true)
            }));
            out.push(match rendered {
                Ok(jplace) => Ok(Served { jplace, n_queries: n, degraded }),
                Err(payload) => {
                    phylo_obs::counter!("serve.internal_errors").inc();
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "request panicked".to_string());
                    Err(ServeFail { code: Code::Internal, detail: msg })
                }
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_datasets::{generate, neotrop, Scale};

    fn dataset_texts() -> (String, String, Vec<String>) {
        let ds = generate(&neotrop(Scale::Ci));
        let tree = phylo_tree::newick::write(&ds.tree);
        let mut ref_fa = String::new();
        for row in ds.reference.rows() {
            ref_fa.push_str(&format!(">{}\n{}\n", row.name(), row.to_text()));
        }
        let queries: Vec<String> =
            ds.queries.iter().map(|q| format!(">{}\n{}\n", q.name(), q.to_text())).collect();
        (tree, ref_fa, queries)
    }

    #[test]
    fn merged_requests_slice_back_to_per_request_documents() {
        let (tree, ref_fa, queries) = dataset_texts();
        let engine = WarmEngine::build(&tree, &ref_fa, &EngineSettings::default()).unwrap();
        let token = CancelToken::new();
        // Serve [q0] and [q1, q2] merged in one run, then each alone:
        // the merged documents must be byte-identical to the solo ones.
        let r0 = engine.parse_queries(&queries[0]).unwrap();
        let r12 = engine.parse_queries(&format!("{}{}", queries[1], queries[2])).unwrap();
        let merged = engine.place_merged(&[r0.clone(), r12.clone()], &token);
        let solo0 = engine.place_merged(&[r0], &token);
        let solo12 = engine.place_merged(&[r12], &token);
        let doc = |r: &Result<Served, ServeFail>| r.as_ref().ok().unwrap().jplace.clone();
        assert_eq!(doc(&merged[0]), doc(&solo0[0]));
        assert_eq!(doc(&merged[1]), doc(&solo12[0]));
        assert_eq!(merged[1].as_ref().ok().unwrap().n_queries, 2);
    }

    #[test]
    fn a_lone_run_holds_every_core_and_overlapping_runs_share_them() {
        let (tree, ref_fa, _) = dataset_texts();
        let st = EngineSettings { threads: 2, ..EngineSettings::default() };
        let engine = WarmEngine::build(&tree, &ref_fa, &st).unwrap();
        assert_eq!(engine.runs(), 2, "an uncapped store admits one run per core");
        let first = engine.take_cores();
        assert_eq!(first.n, 2);
        let second = engine.take_cores();
        assert_eq!(second.n, 1, "a run never gets fewer than one core");
        drop(first);
        let third = engine.take_cores();
        assert_eq!(third.n, 1, "the second run still holds its core");
        drop((second, third));
        assert_eq!(engine.take_cores().n, 2);
        let capped = EngineSettings { max_memory: Some(64 << 20), ..st };
        assert_eq!(WarmEngine::build(&tree, &ref_fa, &capped).unwrap().runs(), 1);
    }

    #[test]
    fn bad_payloads_are_typed_not_fatal() {
        let (tree, ref_fa, queries) = dataset_texts();
        let engine = WarmEngine::build(&tree, &ref_fa, &EngineSettings::default()).unwrap();
        assert!(engine.parse_queries("").is_err());
        assert!(engine.parse_queries(">q\nACG\n").is_err(), "wrong width must be rejected");
        assert!(engine.parse_queries("garbage not fasta").is_err());
        // The engine still serves after rejections.
        let ok = engine.parse_queries(&queries[0]).unwrap();
        let served = engine.place_merged(&[ok], &CancelToken::new());
        assert!(served[0].is_ok());
    }

    #[test]
    fn pre_armed_token_yields_typed_cancellation() {
        let (tree, ref_fa, queries) = dataset_texts();
        let engine = WarmEngine::build(&tree, &ref_fa, &EngineSettings::default()).unwrap();
        let armed = CancelToken::new();
        armed.cancel();
        let rows = engine.parse_queries(&queries[0]).unwrap();
        let out = engine.place_merged(&[rows.clone()], &armed);
        let fail = out[0].as_ref().err().unwrap();
        assert_eq!(fail.code, Code::Cancelled);
        // And the engine is not poisoned for the next request.
        let ok = engine.place_merged(&[rows], &CancelToken::new());
        assert!(ok[0].is_ok());
    }
}
