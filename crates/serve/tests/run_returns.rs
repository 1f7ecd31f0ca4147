//! `phylo_serve::run` in-process, as the benchmark harness calls it:
//! once it returns after a drain, no thread of the daemon is left to
//! keep the warm engine alive. One test in its own binary, so that the
//! process's thread count is this daemon's alone.

use phylo_datasets::{generate, neotrop, Scale};
use phylo_serve::{proto, run, EngineSettings, ServeConfig, Transport, WarmEngine};
use phylo_shard::Shutdown;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// Threads of this process (`Threads:` in `/proc/self/status`).
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:")).unwrap();
    line.trim().parse().unwrap()
}

#[test]
fn a_drained_run_leaves_no_thread_behind() {
    let ds = generate(&neotrop(Scale::Ci));
    let tree = phylo_tree::newick::write(&ds.tree);
    let ref_fa = phylo_seq::fasta::to_string(ds.reference.rows(), 70);
    let query = phylo_seq::fasta::to_string(&ds.queries[..1], 70);
    let engine = WarmEngine::build(&tree, &ref_fa, &EngineSettings::default()).unwrap();
    let dir = std::env::temp_dir().join(format!("phylo-serve-returns-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("d.sock");

    let before = threads();
    let shutdown = Shutdown::new();
    let server = {
        let (sock, shutdown) = (sock.clone(), shutdown.clone());
        std::thread::spawn(move || {
            run(engine, ServeConfig::default(), Transport::Unix(sock), shutdown)
        })
    };
    let t0 = Instant::now();
    let stream = loop {
        match UnixStream::connect(&sock) {
            Ok(s) => break s,
            Err(e) if t0.elapsed() > Duration::from_secs(30) => panic!("connect: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    // A deadline, so the sweeper has a token to watch.
    let line = proto::render(&[
        proto::Field::Str("id", "r0"),
        proto::Field::Str("op", "place"),
        proto::Field::Str("queries", &query),
        proto::Field::Int("deadline_ms", 60_000),
    ]);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(&stream, "{line}").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let reply = proto::parse_object(reply.trim_end()).unwrap();
    assert_eq!(reply["code"].as_str(), Some("Ok"), "{reply:?}");
    drop((reader, stream));

    shutdown.on_signal();
    server.join().unwrap().unwrap();
    // The connection's reader and writer end with the connection; the
    // daemon's own threads must be gone by the time `run` returns.
    let t0 = Instant::now();
    while threads() > before && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), before, "a thread of the drained daemon is still running");
    std::fs::remove_dir_all(&dir).unwrap();
}
