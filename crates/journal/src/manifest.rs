//! Run manifest: fingerprints the inputs and the chunking-relevant
//! configuration of a placement run.
//!
//! `--resume` is only sound when the resumed run would enumerate the
//! same queries in the same chunks and score them under the same model;
//! otherwise replayed frames would be silently attributed to the wrong
//! queries. The manifest records content hashes of the tree / reference
//! MSA / query inputs plus the effective (post-memory-plan) chunk size
//! and the scoring knobs, and [`Manifest::check_matches`] refuses any
//! divergence with a typed, field-naming error instead of producing a
//! corrupt merge.
//!
//! The file is hand-rolled JSON (this workspace takes no external
//! dependencies): one `"key": value` pair per line, read back through
//! [`phylo_obs::Fields`], hashes as 16-hex-char strings so 64-bit values
//! never pass through f64.

use phylo_obs::Fields;

use crate::JournalError;

/// Manifest format version; bump on any layout change so an old journal
/// directory fails with a clear error instead of a field-parse error.
pub const MANIFEST_FORMAT: u32 = 1;

/// FNV-1a 64-bit content hash — stable, dependency-free, and plenty for
/// "did the user pass the same file" (this is a consistency check, not a
/// security boundary).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything that must match for frame replay to be valid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    pub format: u32,
    /// FNV-1a of the Newick tree text.
    pub tree_hash: u64,
    /// FNV-1a of the reference MSA text.
    pub ref_msa_hash: u64,
    /// FNV-1a of the query FASTA text.
    pub query_hash: u64,
    /// Alphabet name (e.g. `dna`).
    pub alphabet: String,
    /// Gamma shape as exact f64 bits, or `None` when rate heterogeneity
    /// is off — bit-compares, so 1.0 vs 1.0000000001 is a mismatch.
    pub gamma_alpha_bits: Option<u64>,
    /// Effective chunk size after the memory plan clamped it; chunk
    /// boundaries (and therefore frame indices) depend on it.
    pub chunk_size: usize,
    /// Total query count the chunking iterated over.
    pub n_queries: usize,
    /// Thorough-phase candidate fraction, exact f64 bits.
    pub thorough_fraction_bits: u64,
    /// Minimum thorough candidates per query.
    pub thorough_min: usize,
    /// Branch-length-optimization iterations in the thorough phase.
    pub blo_iterations: usize,
}

impl Manifest {
    /// Checks that `self` (the current run) is compatible with `on_disk`
    /// (the checkpointed run being resumed). The error names the first
    /// diverging field; `expected` is the on-disk value.
    pub fn check_matches(&self, on_disk: &Manifest) -> Result<(), JournalError> {
        if self.format != on_disk.format {
            return Err(mismatch("format", on_disk.format, self.format));
        }
        let hashes = [
            ("tree_hash", self.tree_hash, on_disk.tree_hash),
            ("ref_msa_hash", self.ref_msa_hash, on_disk.ref_msa_hash),
            ("query_hash", self.query_hash, on_disk.query_hash),
        ];
        for (field, found, expected) in hashes {
            if found != expected {
                return Err(mismatch(field, format!("{expected:016x}"), format!("{found:016x}")));
            }
        }
        if self.alphabet != on_disk.alphabet {
            return Err(mismatch("alphabet", &on_disk.alphabet, &self.alphabet));
        }
        if self.gamma_alpha_bits != on_disk.gamma_alpha_bits {
            let show = |v: &Option<u64>| match v {
                Some(bits) => format!("{}", f64::from_bits(*bits)),
                None => "none".into(),
            };
            return Err(mismatch(
                "gamma_alpha",
                show(&on_disk.gamma_alpha_bits),
                show(&self.gamma_alpha_bits),
            ));
        }
        if self.chunk_size != on_disk.chunk_size {
            return Err(mismatch("chunk_size", on_disk.chunk_size, self.chunk_size));
        }
        if self.n_queries != on_disk.n_queries {
            return Err(mismatch("n_queries", on_disk.n_queries, self.n_queries));
        }
        if self.thorough_fraction_bits != on_disk.thorough_fraction_bits {
            return Err(mismatch(
                "thorough_fraction",
                f64::from_bits(on_disk.thorough_fraction_bits),
                f64::from_bits(self.thorough_fraction_bits),
            ));
        }
        if self.thorough_min != on_disk.thorough_min {
            return Err(mismatch("thorough_min", on_disk.thorough_min, self.thorough_min));
        }
        if self.blo_iterations != on_disk.blo_iterations {
            return Err(mismatch("blo_iterations", on_disk.blo_iterations, self.blo_iterations));
        }
        Ok(())
    }

    /// Serializes to the manifest JSON text (trailing newline included).
    pub fn to_json(&self) -> String {
        let gamma = match self.gamma_alpha_bits {
            Some(bits) => format!("\"{bits:016x}\""),
            None => "null".into(),
        };
        format!(
            concat!(
                "{{\n",
                "  \"format\": {},\n",
                "  \"tree_hash\": \"{:016x}\",\n",
                "  \"ref_msa_hash\": \"{:016x}\",\n",
                "  \"query_hash\": \"{:016x}\",\n",
                "  \"alphabet\": \"{}\",\n",
                "  \"gamma_alpha_bits\": {},\n",
                "  \"chunk_size\": {},\n",
                "  \"n_queries\": {},\n",
                "  \"thorough_fraction_bits\": \"{:016x}\",\n",
                "  \"thorough_min\": {},\n",
                "  \"blo_iterations\": {}\n",
                "}}\n",
            ),
            self.format,
            self.tree_hash,
            self.ref_msa_hash,
            self.query_hash,
            self.alphabet,
            gamma,
            self.chunk_size,
            self.n_queries,
            self.thorough_fraction_bits,
            self.thorough_min,
            self.blo_iterations,
        )
    }

    /// Parses the manifest JSON produced by [`Manifest::to_json`]. The
    /// error string names the missing or malformed field.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let f = Fields(text);
        let format: u32 = f.uint("format")?;
        if format != MANIFEST_FORMAT {
            return Err(format!(
                "unsupported manifest format {format} (this build reads {MANIFEST_FORMAT})"
            ));
        }
        let gamma_alpha_bits = match f.raw("gamma_alpha_bits")? {
            "null" => None,
            _ => Some(f.hex("gamma_alpha_bits")?),
        };
        Ok(Manifest {
            format,
            tree_hash: f.hex("tree_hash")?,
            ref_msa_hash: f.hex("ref_msa_hash")?,
            query_hash: f.hex("query_hash")?,
            alphabet: f.string("alphabet")?.to_owned(),
            gamma_alpha_bits,
            chunk_size: f.uint("chunk_size")?,
            n_queries: f.uint("n_queries")?,
            thorough_fraction_bits: f.hex("thorough_fraction_bits")?,
            thorough_min: f.uint("thorough_min")?,
            blo_iterations: f.uint("blo_iterations")?,
        })
    }
}

/// A `ManifestMismatch` naming `field`; `expected` is the on-disk value.
fn mismatch(field: &'static str, expected: impl ToString, found: impl ToString) -> JournalError {
    JournalError::ManifestMismatch {
        field,
        expected: expected.to_string(),
        found: found.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            format: MANIFEST_FORMAT,
            tree_hash: fnv1a64(b"(a,b);"),
            ref_msa_hash: fnv1a64(b">a\nACGT\n"),
            query_hash: fnv1a64(b">q\nACG-\n"),
            alphabet: "dna".into(),
            gamma_alpha_bits: Some(1.0f64.to_bits()),
            chunk_size: 7,
            n_queries: 23,
            thorough_fraction_bits: 0.1f64.to_bits(),
            thorough_min: 2,
            blo_iterations: 8,
        }
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let m = sample();
        assert_eq!(Manifest::parse(&m.to_json()).unwrap(), m);
        let no_gamma = Manifest { gamma_alpha_bits: None, ..sample() };
        assert_eq!(Manifest::parse(&no_gamma.to_json()).unwrap(), no_gamma);
    }

    #[test]
    fn check_matches_names_the_diverging_field() {
        let m = sample();
        assert!(m.check_matches(&m).is_ok());
        let other = Manifest { query_hash: 1, ..sample() };
        match other.check_matches(&m) {
            Err(JournalError::ManifestMismatch { field, .. }) => assert_eq!(field, "query_hash"),
            r => panic!("expected query_hash mismatch, got {r:?}"),
        }
        let other = Manifest { chunk_size: 8, ..sample() };
        match other.check_matches(&m) {
            Err(JournalError::ManifestMismatch { field, expected, found }) => {
                assert_eq!(field, "chunk_size");
                assert_eq!(expected, "7");
                assert_eq!(found, "8");
            }
            r => panic!("expected chunk_size mismatch, got {r:?}"),
        }
    }

    #[test]
    fn parse_reports_missing_and_malformed_fields() {
        assert!(Manifest::parse("{}").unwrap_err().contains("format"));
        let broken = sample().to_json().replace("\"alphabet\": \"dna\"", "\"alphabet\": 3");
        assert!(Manifest::parse(&broken).unwrap_err().contains("alphabet"));
        let future = sample().to_json().replace("\"format\": 1", "\"format\": 99");
        assert!(Manifest::parse(&future).unwrap_err().contains("unsupported"));
    }
}
