//! The daemon contract, exercised through the real `phyloplaced`
//! binary: byte-identity of served placements with `phyloplace place`,
//! typed per-request errors that never take the process down, immediate
//! overload shedding, and the SIGTERM/EOF drain to exit 0.
//!
//! The chaos half (`#[cfg(feature = "faults")]`) arms the `serve::*`
//! fault sites through `PHYLO_FAULTS` and proves each injected failure
//! is isolated to the request (or accept attempt) that hit it.

use phyloplace::prelude::Scale;
use phyloplace::serve::proto;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

fn daemon_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_phyloplaced"))
}

fn place_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_phyloplace"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("phyloplace-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Writes the synthetic CI dataset and returns per-query FASTA payloads.
fn export(dir: &Path) -> Vec<String> {
    let ds = phyloplace::datasets::generate(&phyloplace::datasets::neotrop(Scale::Ci));
    std::fs::write(dir.join("ref.nwk"), phyloplace::tree::newick::write(&ds.tree)).unwrap();
    std::fs::write(
        dir.join("ref.fasta"),
        phyloplace::seq::fasta::to_string(ds.reference.rows(), 70),
    )
    .unwrap();
    ds.queries
        .iter()
        .map(|q| phyloplace::seq::fasta::to_string(std::slice::from_ref(q), 70))
        .collect()
}

/// A running daemon on stdio with line-oriented send/recv.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(dir: &Path, extra: &[&str], env: &[(&str, &str)]) -> Daemon {
        let mut cmd = daemon_bin();
        cmd.arg("--tree")
            .arg(dir.join("ref.nwk"))
            .arg("--ref-msa")
            .arg(dir.join("ref.fasta"))
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().unwrap();
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        Daemon { child, stdin: Some(stdin), stdout }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stdin.as_mut().unwrap(), "{line}").unwrap();
    }

    fn recv(&mut self) -> BTreeMap<String, proto::Value> {
        let mut line = String::new();
        assert_ne!(self.stdout.read_line(&mut line).unwrap(), 0, "daemon closed stdout");
        proto::parse_object(line.trim_end()).unwrap_or_else(|e| panic!("{e}: {line:?}"))
    }

    /// Closes stdin (EOF drain) and waits; returns the exit code.
    fn finish(mut self) -> i32 {
        drop(self.stdin.take());
        self.child.wait().unwrap().code().unwrap()
    }
}

fn place_req(id: &str, fasta: &str, deadline_ms: Option<f64>) -> String {
    let dl = deadline_ms.map(|d| format!(",\"deadline_ms\":{d}")).unwrap_or_default();
    format!(
        "{{\"id\":\"{id}\",\"op\":\"place\",\"queries\":\"{}\"{dl}}}",
        phylo_obs::json_escape(fasta)
    )
}

fn field<'a>(obj: &'a BTreeMap<String, proto::Value>, key: &str) -> &'a str {
    obj.get(key).and_then(|v| v.as_str()).unwrap_or_else(|| panic!("no {key} in {obj:?}"))
}

/// Cold reference run: `phyloplace place` over the same inputs, stdout
/// captured (exactly the bytes the daemon must reproduce).
fn cold_place(dir: &Path, query_fasta: &str) -> String {
    let qpath =
        dir.join(format!("q-{}.fasta", phyloplace::journal::fnv1a64(query_fasta.as_bytes())));
    std::fs::write(&qpath, query_fasta).unwrap();
    let out = place_bin()
        .args(["place", "--tree"])
        .arg(dir.join("ref.nwk"))
        .arg("--ref-msa")
        .arg(dir.join("ref.fasta"))
        .arg("--queries")
        .arg(&qpath)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "cold place failed: {out:?}");
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn served_responses_are_byte_identical_to_cold_place_runs() {
    let dir = tmpdir("identity");
    let queries = export(&dir);
    let mut d = Daemon::spawn(&dir, &[], &[]);
    // Fire several concurrently so the executor can micro-batch them:
    // merged scoring must not change any request's bytes.
    for (i, q) in queries.iter().take(3).enumerate() {
        d.send(&place_req(&format!("r{i}"), q, None));
    }
    let mut got: BTreeMap<String, String> = BTreeMap::new();
    for _ in 0..3 {
        let resp = d.recv();
        assert_eq!(field(&resp, "code"), "Ok", "{resp:?}");
        got.insert(field(&resp, "id").to_string(), field(&resp, "jplace").to_string());
    }
    assert_eq!(d.finish(), 0, "EOF drain must exit 0");
    for (i, q) in queries.iter().take(3).enumerate() {
        let cold = cold_place(&dir, q);
        assert_eq!(got[&format!("r{i}")], cold, "query {i}: daemon bytes != cold place bytes");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn typed_request_errors_leave_the_daemon_serving() {
    let dir = tmpdir("typed");
    let queries = export(&dir);
    let mut d = Daemon::spawn(&dir, &["--threads", "2"], &[]);

    // Malformed line: typed BadRequest.
    d.send("not json at all");
    assert_eq!(field(&d.recv(), "code"), "BadRequest");
    // Well-formed JSON, bad payload (wrong alignment width).
    d.send(&place_req("w", ">q\nACGT\n", None));
    let resp = d.recv();
    assert_eq!(field(&resp, "code"), "BadRequest");
    assert_eq!(field(&resp, "id"), "w", "error carries the request id");
    // Already-expired deadline: typed, immediate, never queued.
    d.send(&place_req("late", &queries[0], Some(-1.0)));
    assert_eq!(field(&d.recv(), "code"), "Deadline");
    // Unknown op.
    d.send(r#"{"id":"x","op":"explode"}"#);
    assert_eq!(field(&d.recv(), "code"), "BadRequest");
    // After all of that, a good request still gets its bytes.
    d.send(&place_req("good", &queries[0], Some(60000.0)));
    assert_eq!(field(&d.recv(), "code"), "Ok");

    // Status reflects the history.
    d.send(r#"{"id":"s","op":"status"}"#);
    let st = d.recv();
    assert_eq!(field(&st, "phase"), "running");
    assert!(!field(&st, "fingerprint").is_empty());
    assert_eq!(st["served"], proto::Value::Num(1.0));
    assert!(st["bad_request"].as_num().unwrap() >= 3.0, "{st:?}");
    assert_eq!(st["deadline_expired"], proto::Value::Num(1.0));
    // No `--maxmem`: one run per core at once.
    assert_eq!(st["runs"], proto::Value::Num(2.0), "{st:?}");
    assert_eq!(d.finish(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Sends a 32-query request, polls `status` until it is in flight,
/// then sends a one-query request. Returns the ids in the order they
/// were answered, after checking both documents against cold runs.
fn large_then_small(tag: &str, extra: &[&str]) -> Vec<String> {
    let dir = tmpdir(tag);
    let queries = export(&dir);
    let (large, small) = (queries[..32].concat(), queries[32].clone());
    let mut d = Daemon::spawn(&dir, extra, &[]);
    d.send(&place_req("large", &large, None));
    loop {
        d.send(r#"{"id":"st","op":"status"}"#);
        let st = d.recv();
        assert_eq!(field(&st, "id"), "st", "the large request ended before it was seen running");
        if st["in_flight"] == proto::Value::Num(1.0) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    d.send(&place_req("small", &small, None));
    let mut order = Vec::new();
    let mut docs = BTreeMap::new();
    for _ in 0..2 {
        let resp = d.recv();
        assert_eq!(field(&resp, "code"), "Ok", "{resp:?}");
        order.push(field(&resp, "id").to_string());
        docs.insert(field(&resp, "id").to_string(), field(&resp, "jplace").to_string());
    }
    assert_eq!(d.finish(), 0);
    assert_eq!(docs["large"], cold_place(&dir, &large), "large: daemon bytes != cold bytes");
    assert_eq!(docs["small"], cold_place(&dir, &small), "small: daemon bytes != cold bytes");
    std::fs::remove_dir_all(&dir).unwrap();
    order
}

#[test]
fn an_uncapped_daemon_answers_a_small_request_during_a_large_one() {
    let order = large_then_small("overlap", &["--threads", "2"]);
    assert_eq!(order, ["small", "large"], "the small request waited for the large one");
}

#[test]
fn a_daemon_at_the_floor_runs_one_request_at_a_time() {
    // The smallest `--maxmem` a 32-query chunk plans under.
    let ds = phyloplace::datasets::generate(&phyloplace::datasets::neotrop(Scale::Ci));
    let tree = phyloplace::tree::newick::write(&ds.tree);
    let ref_fa = phyloplace::seq::fasta::to_string(ds.reference.rows(), 70);
    let cfg = phyloplace::place::EpaConfig { chunk_size: 32, ..Default::default() };
    let alphabet = phyloplace::seq::alphabet::AlphabetKind::Dna;
    let gamma = phyloplace::place::DEFAULT_GAMMA_ALPHA;
    let built = phyloplace::place::build_reference(&tree, &ref_fa, alphabet, gamma, cfg.clone());
    let reference = built.unwrap();
    let floor = phyloplace::place::memplan::floor_budget(
        reference.placer.ctx(),
        &cfg,
        cfg.chunk_size,
        reference.n_sites,
    );
    let maxmem = format!("{}K", floor.div_ceil(1024));
    let args = ["--threads", "2", "--chunk", "32", "--maxmem", &maxmem];
    let order = large_then_small("floor", &args);
    assert_eq!(order, ["large", "small"], "a capped daemon overlapped two runs");
}

#[test]
fn full_queue_sheds_immediately_with_typed_overloaded() {
    let dir = tmpdir("overload");
    let queries = export(&dir);
    // cap 0: deterministic total overload.
    let mut d = Daemon::spawn(&dir, &["--queue-cap", "0"], &[]);
    let t0 = Instant::now();
    d.send(&place_req("r", &queries[0], None));
    let resp = d.recv();
    assert_eq!(field(&resp, "code"), "Overloaded");
    assert!(t0.elapsed() < Duration::from_secs(10), "shed must not queue-wait");
    // Liveness keeps answering under total overload.
    d.send(r#"{"id":"s","op":"status"}"#);
    let st = d.recv();
    assert_eq!(st["shed"], proto::Value::Num(1.0));
    assert_eq!(st["queue_depth"], proto::Value::Num(0.0));
    assert_eq!(d.finish(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sigterm_drains_queued_requests_and_exits_zero_without_eof() {
    let dir = tmpdir("drain");
    let queries = export(&dir);
    let mut d = Daemon::spawn(&dir, &["--batch-max", "1"], &[]);
    // Prove liveness, then load the queue and SIGTERM mid-stream with
    // stdin still open: every admitted request must still get a valid
    // response and the process must exit 0 without waiting for EOF.
    d.send(&place_req("warm", &queries[0], None));
    assert_eq!(field(&d.recv(), "code"), "Ok");
    for (i, q) in queries.iter().take(4).enumerate() {
        d.send(&place_req(&format!("r{i}"), q, None));
    }
    let pid = d.child.id();
    let term = Command::new("kill").args(["-TERM", &pid.to_string()]).status().unwrap();
    assert!(term.success());
    // Responses for everything admitted before the signal. Admission
    // racing the signal is fine either way: each request ends as Ok or
    // a typed Draining rejection, never silence.
    let mut ok = 0;
    let mut draining = 0;
    for _ in 0..4 {
        match field(&d.recv(), "code") {
            "Ok" => ok += 1,
            "Draining" => draining += 1,
            other => panic!("unexpected code {other}"),
        }
    }
    assert_eq!(ok + draining, 4);
    let status = d.child.wait().unwrap();
    assert_eq!(status.code(), Some(0), "SIGTERM drain must exit 0");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_subcommand_is_an_alias_for_the_daemon() {
    let dir = tmpdir("alias");
    let queries = export(&dir);
    let mut cmd = place_bin();
    cmd.arg("serve")
        .arg("--tree")
        .arg(dir.join("ref.nwk"))
        .arg("--ref-msa")
        .arg(dir.join("ref.fasta"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = cmd.spawn().unwrap();
    let mut stdin = child.stdin.take().unwrap();
    writeln!(stdin, "{}", place_req("a", &queries[0], None)).unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let line = String::from_utf8(out.stdout).unwrap();
    let resp = proto::parse_object(line.trim_end()).unwrap();
    assert_eq!(field(&resp, "code"), "Ok");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn daemon_usage_and_input_errors_exit_2() {
    // Missing required flags.
    let out = daemon_bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Unreadable reference input.
    let out = daemon_bin().args(["--tree", "/nope.nwk", "--ref-msa", "/nope.fa"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unix_socket_transport_serves_concurrent_connections() {
    let dir = tmpdir("unix");
    let queries = export(&dir);
    let sock = dir.join("pp.sock");
    let mut child = daemon_bin()
        .arg("--tree")
        .arg(dir.join("ref.nwk"))
        .arg("--ref-msa")
        .arg(dir.join("ref.fasta"))
        .arg("--unix")
        .arg(&sock)
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // Wait for the socket to appear.
    let t0 = Instant::now();
    while !sock.exists() {
        assert!(t0.elapsed() < Duration::from_secs(60), "socket never appeared");
        std::thread::sleep(Duration::from_millis(20));
    }
    let connect = || std::os::unix::net::UnixStream::connect(&sock).unwrap();
    let conns: Vec<String> = (0..2)
        .map(|i| {
            let s = connect();
            let mut r = BufReader::new(s.try_clone().unwrap());
            let mut w = s;
            writeln!(w, "{}", place_req(&format!("c{i}"), &queries[i], None)).unwrap();
            let mut line = String::new();
            r.read_line(&mut line).unwrap();
            line
        })
        .collect();
    for (i, line) in conns.iter().enumerate() {
        let resp = proto::parse_object(line.trim_end()).unwrap();
        assert_eq!(field(&resp, "code"), "Ok", "conn {i}");
        assert_eq!(field(&resp, "id"), format!("c{i}"));
    }
    let term = Command::new("kill").args(["-TERM", &child.id().to_string()]).status().unwrap();
    assert!(term.success());
    assert_eq!(child.wait().unwrap().code(), Some(0));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The chaos matrix: each `serve::*` fault fires inside the daemon and
/// must be isolated to the request (or accept attempt) it hit.
#[cfg(feature = "faults")]
mod chaos {
    use super::*;

    #[test]
    fn mid_request_crash_is_isolated_to_one_request() {
        let dir = tmpdir("chaos-crash");
        let queries = export(&dir);
        // `once:0`: the first rendered request panics; its sibling in
        // the same micro-batch and every later request must be clean.
        let mut d = Daemon::spawn(&dir, &[], &[("PHYLO_FAULTS", "serve::mid_request_crash=once")]);
        d.send(&place_req("a", &queries[0], None));
        d.send(&place_req("b", &queries[1], None));
        let mut codes: BTreeMap<String, String> = BTreeMap::new();
        for _ in 0..2 {
            let resp = d.recv();
            codes.insert(field(&resp, "id").to_string(), field(&resp, "code").to_string());
        }
        let internals = codes.values().filter(|c| c.as_str() == "Internal").count();
        let oks = codes.values().filter(|c| c.as_str() == "Ok").count();
        assert_eq!((internals, oks), (1, 1), "exactly one victim: {codes:?}");
        // The daemon survives and the next request is byte-correct.
        d.send(&place_req("after", &queries[2], None));
        let resp = d.recv();
        assert_eq!(field(&resp, "code"), "Ok");
        assert_eq!(field(&resp, "jplace"), cold_place(&dir, &queries[2]));
        assert_eq!(d.finish(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_parse_failure_is_a_typed_bad_request() {
        let dir = tmpdir("chaos-parse");
        let queries = export(&dir);
        let mut d = Daemon::spawn(&dir, &[], &[("PHYLO_FAULTS", "serve::request_parse=once")]);
        // A perfectly valid request hits the injected parse failure.
        d.send(&place_req("a", &queries[0], None));
        assert_eq!(field(&d.recv(), "code"), "BadRequest");
        // The very same bytes succeed once the fault is spent.
        d.send(&place_req("a", &queries[0], None));
        assert_eq!(field(&d.recv(), "code"), "Ok");
        assert_eq!(d.finish(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn slow_client_stalls_only_its_own_responses() {
        let dir = tmpdir("chaos-slow");
        let queries = export(&dir);
        let mut d = Daemon::spawn(&dir, &[], &[("PHYLO_FAULTS", "serve::slow_client=once")]);
        let t0 = Instant::now();
        d.send(&place_req("slow", &queries[0], None));
        let resp = d.recv();
        // The response is delayed by the injected stall but still
        // arrives complete — slow clients degrade latency, not
        // correctness, and the drain still exits 0.
        assert_eq!(field(&resp, "code"), "Ok");
        assert!(t0.elapsed() >= Duration::from_millis(1400), "stall should be observable");
        assert_eq!(d.finish(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn accept_error_does_not_kill_the_listener() {
        let dir = tmpdir("chaos-accept");
        let queries = export(&dir);
        let sock = dir.join("pp.sock");
        let mut child = daemon_bin()
            .arg("--tree")
            .arg(dir.join("ref.nwk"))
            .arg("--ref-msa")
            .arg(dir.join("ref.fasta"))
            .arg("--unix")
            .arg(&sock)
            .env("PHYLO_FAULTS", "serve::accept_error=once")
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let t0 = Instant::now();
        while !sock.exists() {
            assert!(t0.elapsed() < Duration::from_secs(60), "socket never appeared");
            std::thread::sleep(Duration::from_millis(20));
        }
        // The first accept poll hits the injected error; the daemon
        // backs off and keeps listening, so this connection succeeds.
        let s = std::os::unix::net::UnixStream::connect(&sock).unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());
        let mut w = s;
        writeln!(w, "{}", place_req("a", &queries[0], None)).unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        let resp = proto::parse_object(line.trim_end()).unwrap();
        assert_eq!(field(&resp, "code"), "Ok");
        let term = Command::new("kill").args(["-TERM", &child.id().to_string()]).status().unwrap();
        assert!(term.success());
        assert_eq!(child.wait().unwrap().code(), Some(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
