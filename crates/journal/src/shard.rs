//! Shard-set manifest: fingerprints a *sharded* run's inputs and split
//! geometry.
//!
//! The shard coordinator splits the query stream into contiguous ranges
//! and gives each worker its own journal directory. Re-running the
//! coordinator over the same work directory (the coordinator-crash
//! recovery path) is only sound when the split is identical — same
//! inputs, same shard count, same per-shard query ranges — otherwise a
//! worker would `--resume` a journal that belongs to different queries.
//! The per-worker [`crate::Manifest`] already refuses *that* mismatch at
//! the shard level; this manifest refuses it one level up, before any
//! worker is launched, with an error that names the diverging field.

use crate::fields::{check_inputs, malformed, mismatch, Fields, Inputs};
use crate::{JournalError, Manifest};

/// Shard-set manifest format version; bump on any layout change.
pub const SHARD_MANIFEST_FORMAT: u32 = 1;

/// File name of the shard-set manifest inside a coordinator work
/// directory.
pub const SHARD_MANIFEST_FILE: &str = "shards.json";

/// Everything that must match for a coordinator work directory to be
/// reused: the input fingerprints and the exact split geometry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSetManifest {
    pub format: u32,
    /// FNV-1a of the Newick tree text.
    pub tree_hash: u64,
    /// FNV-1a of the reference MSA text.
    pub ref_msa_hash: u64,
    /// FNV-1a of the *unsplit* query FASTA text.
    pub query_hash: u64,
    /// Queries per shard, in shard order (contiguous split; the sum is
    /// the total query count).
    pub shard_sizes: Vec<usize>,
}

impl ShardSetManifest {
    /// Number of shards in the split.
    pub fn n_shards(&self) -> usize {
        self.shard_sizes.len()
    }

    fn inputs(&self) -> Inputs {
        (self.format, [self.tree_hash, self.ref_msa_hash, self.query_hash])
    }

    /// Checks that `self` (the current coordinator invocation) matches
    /// `on_disk` (the work directory's recorded split). The error names
    /// the first diverging field; `expected` is the on-disk value.
    pub fn check_matches(&self, on_disk: &ShardSetManifest) -> Result<(), JournalError> {
        check_inputs(self.inputs(), on_disk.inputs())?;
        if self.shard_sizes != on_disk.shard_sizes {
            return Err(mismatch(
                "shard_sizes",
                format!("{:?}", on_disk.shard_sizes),
                format!("{:?}", self.shard_sizes),
            ));
        }
        Ok(())
    }

    /// Serializes to the manifest JSON text (trailing newline included).
    pub fn to_json(&self) -> String {
        let sizes = self.shard_sizes.iter().map(usize::to_string).collect::<Vec<_>>().join(", ");
        format!(
            concat!(
                "{{\n",
                "  \"format\": {},\n",
                "  \"tree_hash\": \"{:016x}\",\n",
                "  \"ref_msa_hash\": \"{:016x}\",\n",
                "  \"query_hash\": \"{:016x}\",\n",
                "  \"shard_sizes\": [{}]\n",
                "}}\n",
            ),
            self.format, self.tree_hash, self.ref_msa_hash, self.query_hash, sizes,
        )
    }

    /// Parses the JSON produced by [`ShardSetManifest::to_json`]. The
    /// error string names the missing or malformed field.
    pub fn parse(text: &str) -> Result<ShardSetManifest, String> {
        let f = Fields(text);
        let format: u32 = f.uint("format")?;
        if format != SHARD_MANIFEST_FORMAT {
            return Err(format!(
                "unsupported shard manifest format {format} (this build reads \
                 {SHARD_MANIFEST_FORMAT})"
            ));
        }
        let inner = f
            .raw("shard_sizes")?
            .strip_prefix('[')
            .and_then(|v| v.strip_suffix(']'))
            .ok_or_else(|| malformed("shard_sizes"))?;
        let shard_sizes = inner
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| s.parse::<usize>().map_err(|_| malformed("shard_sizes")))
            .collect::<Result<Vec<_>, _>>()?;
        if shard_sizes.is_empty() {
            return Err("malformed field `shard_sizes`: empty split".to_string());
        }
        Ok(ShardSetManifest {
            format,
            tree_hash: f.hex("tree_hash")?,
            ref_msa_hash: f.hex("ref_msa_hash")?,
            query_hash: f.hex("query_hash")?,
            shard_sizes,
        })
    }

    /// The per-worker run manifest for shard `shard`: same input tree and
    /// reference fingerprints, but the query hash and count are the
    /// shard's own. `shard_query_text` is the shard's FASTA slice exactly
    /// as the worker will read it.
    pub fn worker_manifest(
        &self,
        shard: usize,
        shard_query_text: &str,
        template: &Manifest,
    ) -> Manifest {
        Manifest {
            query_hash: crate::fnv1a64(shard_query_text.as_bytes()),
            n_queries: self.shard_sizes[shard],
            ..template.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShardSetManifest {
        ShardSetManifest {
            format: SHARD_MANIFEST_FORMAT,
            tree_hash: 0xdead_beef,
            ref_msa_hash: 0xfeed_f00d,
            query_hash: 0x0123_4567_89ab_cdef,
            shard_sizes: vec![9, 9, 8],
        }
    }

    #[test]
    fn roundtrips_through_json() {
        let m = sample();
        assert_eq!(ShardSetManifest::parse(&m.to_json()).unwrap(), m);
        let single = ShardSetManifest { shard_sizes: vec![26], ..sample() };
        assert_eq!(ShardSetManifest::parse(&single.to_json()).unwrap(), single);
    }

    #[test]
    fn check_matches_names_the_field() {
        let m = sample();
        assert!(m.check_matches(&m).is_ok());
        let other = ShardSetManifest { shard_sizes: vec![13, 13], ..sample() };
        match other.check_matches(&m) {
            Err(JournalError::ManifestMismatch { field, expected, found }) => {
                assert_eq!(field, "shard_sizes");
                assert_eq!(expected, "[9, 9, 8]");
                assert_eq!(found, "[13, 13]");
            }
            r => panic!("expected shard_sizes mismatch, got {r:?}"),
        }
        let other = ShardSetManifest { query_hash: 1, ..sample() };
        match other.check_matches(&m) {
            Err(JournalError::ManifestMismatch { field, .. }) => assert_eq!(field, "query_hash"),
            r => panic!("expected query_hash mismatch, got {r:?}"),
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ShardSetManifest::parse("{}").unwrap_err().contains("format"));
        let future = sample().to_json().replace("\"format\": 1", "\"format\": 9");
        assert!(ShardSetManifest::parse(&future).unwrap_err().contains("unsupported"));
        let broken = sample().to_json().replace("[9, 9, 8]", "[9, x]");
        assert!(ShardSetManifest::parse(&broken).unwrap_err().contains("shard_sizes"));
        let empty = sample().to_json().replace("[9, 9, 8]", "[]");
        assert!(ShardSetManifest::parse(&empty).unwrap_err().contains("empty split"));
    }
}
