//! The exit-code contract, exercised through the real binary: `0`
//! success, `1` runtime error, `2` usage/input error, `3` interrupted.
//! The in-process test suites assert typed errors; this file asserts
//! the thing scripts and schedulers actually see — process exit status.

use phyloplace::prelude::Scale;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_phyloplace"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("phyloplace-contract-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Writes the synthetic CI dataset as real files, exactly like the
/// `export_dataset` example `scripts/ci.sh` uses.
fn export(dir: &Path) {
    let ds = phyloplace::datasets::generate(&phyloplace::datasets::neotrop(Scale::Ci));
    std::fs::write(dir.join("ref.nwk"), phyloplace::tree::newick::write(&ds.tree)).unwrap();
    std::fs::write(
        dir.join("ref.fasta"),
        phyloplace::seq::fasta::to_string(ds.reference.rows(), 70),
    )
    .unwrap();
    std::fs::write(dir.join("query.fasta"), phyloplace::seq::fasta::to_string(&ds.queries, 70))
        .unwrap();
}

fn place_args(dir: &Path) -> Vec<String> {
    [
        "place",
        "--tree",
        dir.join("ref.nwk").to_str().unwrap(),
        "--ref-msa",
        dir.join("ref.fasta").to_str().unwrap(),
        "--queries",
        dir.join("query.fasta").to_str().unwrap(),
        "--chunk",
        "7",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        vec![],
        vec!["place".to_string()],
        vec!["place".to_string(), "--bogus".to_string()],
        // The retired sharded fleet and its heartbeat flag.
        vec!["place".to_string(), "--heartbeat".to_string()],
        vec!["shard".to_string()],
        // The retired middle kernel tier is not a tier name.
        vec!["place".to_string(), "--kernel-tier".to_string(), "fixed".to_string()],
    ] {
        let out = bin().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
}

/// A `PHYLO_KERNEL_TIER` that names no tier would otherwise be read as
/// `auto`: every front door refuses it up front, as it refuses a bad
/// `--kernel-tier`.
#[test]
fn bad_kernel_tier_env_exits_2() {
    let dir = tmpdir("tier-env");
    export(&dir);
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let serve = ["serve", "--tree", &path("ref.nwk"), "--ref-msa", &path("ref.fasta")];
    for args in [place_args(&dir), serve.iter().map(|s| s.to_string()).collect()] {
        let out = bin().args(&args).env("PHYLO_KERNEL_TIER", "fixed").output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("PHYLO_KERNEL_TIER") && stderr.contains("auto|reference|simd"),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn malformed_inputs_exit_2() {
    let dir = tmpdir("malformed");
    export(&dir);
    // Missing file.
    let mut args = place_args(&dir);
    args[6] = dir.join("nope.fasta").to_string_lossy().into_owned();
    let out = bin().args(&args).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // A query file that is not FASTA at all.
    std::fs::write(dir.join("garbage.fasta"), "this is not fasta\n").unwrap();
    let mut args = place_args(&dir);
    args[6] = dir.join("garbage.fasta").to_string_lossy().into_owned();
    let out = bin().args(&args).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stderr.starts_with(b"error: "), "untyped failure: {out:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_manifest_mismatch_exits_2() {
    let dir = tmpdir("mismatch");
    export(&dir);
    let ckpt = dir.join("ckpt");
    let out = bin()
        .args(place_args(&dir))
        .arg("--checkpoint")
        .arg(&ckpt)
        .arg("--out")
        .arg(dir.join("a.jplace"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // Same checkpoint, different query file: the journal's frames would
    // attribute results to the wrong queries, so the run is refused as
    // an input error — not retried, not silently recomputed.
    let q2 = dir.join("query2.fasta");
    let text = std::fs::read_to_string(dir.join("query.fasta")).unwrap();
    let last_record = text.rfind("\n>").unwrap() + 1;
    std::fs::write(&q2, &text[..last_record]).unwrap();
    let mut args = place_args(&dir);
    args[6] = q2.to_string_lossy().into_owned();
    let out = bin()
        .args(&args)
        .arg("--resume")
        .arg(&ckpt)
        .arg("--out")
        .arg(dir.join("b.jplace"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resume"), "error does not name the resume: {stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn deadline_zero_exits_3_with_valid_partial() {
    let dir = tmpdir("deadline");
    export(&dir);
    let out = bin()
        .args(place_args(&dir))
        .arg("--checkpoint")
        .arg(dir.join("ckpt"))
        .arg("--deadline")
        .arg("0")
        .arg("--out")
        .arg(dir.join("partial.jplace"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let partial = std::fs::read_to_string(dir.join("partial.jplace")).unwrap();
    assert!(partial.contains("\"completed\": false"), "partial not marked incomplete");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The integer after `"key": ` / `"key": {"count": ` in a metrics file.
fn metric(doc: &str, key: &str) -> u64 {
    let at = doc.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key:?} in {doc}"));
    let digits = doc[at + key.len() + 2..].trim_start_matches(|c: char| !c.is_ascii_digit());
    digits[..digits.find(|c: char| !c.is_ascii_digit()).unwrap()].parse().unwrap()
}

#[test]
fn metrics_and_trace_are_live_in_the_default_build() {
    let dir = tmpdir("obs");
    export(&dir);
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (m, t, s) = (path("metrics.json"), path("trace.json"), path("slots.txt"));
    let out = bin()
        .args(place_args(&dir))
        .args(["--maxmem", "300K", "--no-lookup", "--out", &path("out.jplace")])
        .args(["--metrics-json", &m, "--trace", &t, "--slot-trace", &s])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("warning"), "{stderr}");

    let metrics = std::fs::read_to_string(&m).unwrap();
    assert!(metric(&metrics, "engine.ops") > 0, "{metrics}");
    assert!(metric(&metrics, "engine.op_ns") > 0, "empty kernel-time histogram: {metrics}");
    assert!(metric(&metrics, "slot.misses") > 0, "a floor-budget run recomputes: {metrics}");
    assert_eq!(
        metric(&metrics, "slot.hits") + metric(&metrics, "slot.misses"),
        metric(&metrics, "slot.acquires"),
        "{metrics}"
    );
    assert_eq!(metrics.matches("\"kernel.tier.").count(), 1, "{metrics}");
    let trace = std::fs::read_to_string(&t).unwrap();
    for span in ["\"name\":\"prescore\"", "\"name\":\"thorough\""] {
        assert!(trace.contains(span), "no {span} span in the trace");
    }

    // The replay reproduces that file's slot counters exactly.
    let out = bin().args(["replay", "--trace", &s, "--verify", &m]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}
