//! What the two manifests ([`crate::Manifest`], [`crate::ShardSetManifest`])
//! share: reading one field of their one-`"key": value`-per-line JSON,
//! and the format + input-hash comparison their `check_matches` opens
//! with.

use crate::JournalError;

/// A manifest's JSON text, read one field at a time. Every error string
/// names the missing or malformed field.
pub(crate) struct Fields<'a>(pub(crate) &'a str);

impl<'a> Fields<'a> {
    /// The value text of `key`: the rest of its line, trimmed, without
    /// the separating comma.
    pub(crate) fn raw(&self, key: &str) -> Result<&'a str, String> {
        let needle = format!("\"{key}\":");
        let start =
            self.0.find(&needle).ok_or_else(|| format!("missing field `{key}`"))? + needle.len();
        let rest = &self.0[start..];
        let end = rest.find('\n').unwrap_or(rest.len());
        Ok(rest[..end].trim().trim_end_matches(','))
    }

    /// An unquoted number.
    pub(crate) fn uint<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.raw(key)?.parse().map_err(|_| malformed(key))
    }

    /// A quoted string, without its quotes.
    pub(crate) fn string(&self, key: &str) -> Result<&'a str, String> {
        let v = self.raw(key)?;
        v.strip_prefix('"').and_then(|v| v.strip_suffix('"')).ok_or_else(|| malformed(key))
    }

    /// A 64-bit value written as a quoted hex string, so it never passes
    /// through f64.
    pub(crate) fn hex(&self, key: &str) -> Result<u64, String> {
        u64::from_str_radix(self.string(key)?, 16).map_err(|_| malformed(key))
    }
}

/// The parse error for a field that is present but unreadable.
pub(crate) fn malformed(key: &str) -> String {
    format!("malformed field `{key}`")
}

/// A `ManifestMismatch` naming `field`; `expected` is the on-disk value.
pub(crate) fn mismatch(
    field: &'static str,
    expected: impl ToString,
    found: impl ToString,
) -> JournalError {
    JournalError::ManifestMismatch {
        field,
        expected: expected.to_string(),
        found: found.to_string(),
    }
}

/// The format version and the tree / reference-MSA / query hashes, in
/// the order both manifests compare them.
pub(crate) type Inputs = (u32, [u64; 3]);

/// Compares the current run's [`Inputs`] with the on-disk ones and names
/// the first that diverges.
pub(crate) fn check_inputs(current: Inputs, on_disk: Inputs) -> Result<(), JournalError> {
    if current.0 != on_disk.0 {
        return Err(mismatch("format", on_disk.0, current.0));
    }
    let fields = ["tree_hash", "ref_msa_hash", "query_hash"];
    for ((field, found), expected) in fields.into_iter().zip(current.1).zip(on_disk.1) {
        if found != expected {
            return Err(mismatch(field, format!("{expected:016x}"), format!("{found:016x}")));
        }
    }
    Ok(())
}
