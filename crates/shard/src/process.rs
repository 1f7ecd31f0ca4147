//! The subprocess-backed [`Worker`]: spawns a `phyloplace place
//! --heartbeat` child with piped stdout, parses heartbeat lines on a
//! reader thread, and forwards everything else to stderr with a shard
//! prefix.

use crate::heartbeat::{HbLine, Heartbeat, HeartbeatScanner};
use crate::supervisor::{Worker, WorkerProgress};
use std::io::{self, Read};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

#[derive(Default)]
struct HbState {
    beats: u64,
    hb: Heartbeat,
    last_beat: Option<Instant>,
}

/// One worker subprocess plus its heartbeat reader thread.
pub struct ProcessWorker {
    child: Child,
    hb: Arc<Mutex<HbState>>,
    reader: Option<JoinHandle<()>>,
}

#[cfg(unix)]
fn send_signal(pid: u32, sig: i32) {
    // Graceful stop needs SIGTERM; std's `Child::kill` is SIGKILL only,
    // so use the libc `kill(2)` std already links (same idiom as the
    // binary's signal handler installation).
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    unsafe {
        kill(pid as i32, sig);
    }
}

/// Live worker pids, for the abort escape hatch: a second SIGINT exits
/// the coordinator *from the signal watchdog*, bypassing the supervision
/// loop's own kill-everything paths — without this registry the fleet
/// (possibly hung, possibly mid-chunk) would be orphaned.
static LIVE_PIDS: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn register(pid: u32) {
    LIVE_PIDS.lock().unwrap_or_else(|e| e.into_inner()).push(pid);
}

fn deregister(pid: u32) {
    LIVE_PIDS.lock().unwrap_or_else(|e| e.into_inner()).retain(|p| *p != pid);
}

/// SIGKILLs every worker subprocess still registered as live. Called on
/// the hard-abort path right before `process::exit` — no reaping (the
/// OS inherits the zombies for the instant the coordinator has left).
pub fn kill_registered_workers() {
    let pids: Vec<u32> = std::mem::take(&mut *LIVE_PIDS.lock().unwrap_or_else(|e| e.into_inner()));
    for _pid in pids {
        #[cfg(unix)]
        send_signal(_pid, 9);
    }
}

/// Classifies one complete stdout line from a worker. Beats update the
/// shared progress state; lines that *look* like beats but do not parse
/// are skipped with a counter (a garbled beat is noise, not silence —
/// the worker's next clean beat still proves liveness); everything else
/// is forwarded to stderr with the shard prefix.
fn handle_line(state: &Arc<Mutex<HbState>>, shard: usize, line: HbLine) {
    match line {
        HbLine::Beat(beat) => {
            let mut s = state.lock().unwrap_or_else(|e| e.into_inner());
            s.beats += 1;
            s.hb = beat;
            s.last_beat = Some(Instant::now());
        }
        HbLine::Malformed(raw) => {
            phylo_obs::counter!("shard.heartbeat_malformed").inc();
            eprintln!("[shard {shard}] malformed heartbeat skipped: {raw}");
        }
        HbLine::Other(raw) => {
            if !raw.trim().is_empty() {
                eprintln!("[shard {shard}] {raw}");
            }
        }
    }
}

impl ProcessWorker {
    /// Spawns `cmd` with piped stdout and starts the heartbeat reader.
    /// `shard` labels forwarded non-heartbeat output.
    pub fn spawn(mut cmd: Command, shard: usize) -> io::Result<ProcessWorker> {
        cmd.stdout(Stdio::piped());
        let mut child = cmd.spawn()?;
        register(child.id());
        let stdout = child.stdout.take().expect("stdout was piped");
        let hb: Arc<Mutex<HbState>> = Arc::default();
        let state = hb.clone();
        let reader = std::thread::spawn(move || {
            // Raw reads through an incremental scanner, not
            // `BufReader::lines`: one invalid-UTF-8 byte on the pipe
            // must not kill this thread — that silenced every later
            // beat and made a *healthy* worker look hung, so the
            // supervisor would kill and requeue it for nothing.
            let mut stdout = stdout;
            let mut scanner = HeartbeatScanner::new();
            let mut buf = [0u8; 4096];
            loop {
                let n = match stdout.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                };
                for line in scanner.push(&buf[..n]) {
                    handle_line(&state, shard, line);
                }
            }
            if let Some(line) = scanner.finish() {
                handle_line(&state, shard, line);
            }
        });
        Ok(ProcessWorker { child, hb, reader: Some(reader) })
    }

    fn join_reader(&mut self) {
        // The child is dead, so the pipe is normally at (or racing
        // toward) EOF — but a grandchild the worker forked can inherit
        // the write end and keep the pipe open indefinitely (dash, for
        // one, forks even single commands). A reader join must never
        // wedge the supervision loop on such an orphan, so poll briefly
        // and then detach: the thread parks in `read` and exits on its
        // own at EOF, touching only its Arc'd heartbeat state.
        let Some(r) = self.reader.take() else { return };
        let deadline = Instant::now() + std::time::Duration::from_secs(1);
        while !r.is_finished() {
            if Instant::now() >= deadline {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let _ = r.join();
    }
}

impl Worker for ProcessWorker {
    fn try_wait(&mut self) -> io::Result<Option<i32>> {
        match self.child.try_wait()? {
            Some(status) => {
                deregister(self.child.id());
                self.join_reader();
                // `code()` is None when the child died to a signal.
                Ok(Some(status.code().unwrap_or(-1)))
            }
            None => Ok(None),
        }
    }

    fn terminate(&mut self) {
        #[cfg(unix)]
        send_signal(self.child.id(), 15);
        #[cfg(not(unix))]
        {
            let _ = self.child.kill();
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        // Reap immediately — SIGKILL death is prompt and leaving the pid
        // unreaped would leak a zombie per re-queue.
        let _ = self.child.wait();
        deregister(self.child.id());
        self.join_reader();
    }

    fn progress(&self) -> WorkerProgress {
        let s = self.hb.lock().unwrap_or_else(|e| e.into_inner());
        WorkerProgress {
            beats: s.beats,
            chunks_done: s.hb.chunks_done,
            n_chunks: s.hb.n_chunks,
            queries_done: s.hb.queries_done,
            n_queries: s.hb.n_queries,
            last_beat: s.last_beat,
        }
    }
}

impl Drop for ProcessWorker {
    /// No worker outlives its supervisor: whatever path drops the handle
    /// (error unwind, abort), the subprocess is killed and reaped.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        deregister(self.child.id());
        self.join_reader();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `kill_registered_workers` drains the process-global pid registry,
    // so tests that spawn workers must not overlap with it in time.
    static LOCK: Mutex<()> = Mutex::new(());

    fn sh(script: &str) -> Command {
        let mut c = Command::new("sh");
        c.arg("-c").arg(script);
        c
    }

    #[test]
    fn exit_codes_and_heartbeats_are_observed() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut w = ProcessWorker::spawn(sh("echo 'HB 1 4 25 100'; exit 0"), 0).unwrap();
        let code = loop {
            if let Some(c) = w.try_wait().unwrap() {
                break c;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        };
        assert_eq!(code, 0);
        let p = w.progress();
        assert_eq!(p.beats, 1);
        assert_eq!((p.chunks_done, p.n_chunks, p.queries_done, p.n_queries), (1, 4, 25, 100));
        assert!(p.last_beat.is_some());

        let mut w = ProcessWorker::spawn(sh("exit 7"), 0).unwrap();
        let code = loop {
            if let Some(c) = w.try_wait().unwrap() {
                break c;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        };
        assert_eq!(code, 7);
    }

    #[test]
    fn garbage_and_malformed_lines_do_not_silence_later_beats() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Invalid UTF-8, then a truncated HB line, then a real beat: the
        // old `BufReader::lines` reader died at the first byte of junk
        // and never saw the beat, so the worker looked silent.
        let mut w = ProcessWorker::spawn(
            sh("printf 'bin \\377\\376 junk\\nHB 9 9\\nHB 2 4 50 100\\n'; exit 0"),
            0,
        )
        .unwrap();
        let code = loop {
            if let Some(c) = w.try_wait().unwrap() {
                break c;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        };
        assert_eq!(code, 0);
        let p = w.progress();
        assert_eq!(p.beats, 1, "the beat after the garbage must still land");
        assert_eq!((p.chunks_done, p.n_chunks, p.queries_done, p.n_queries), (2, 4, 50, 100));
    }

    #[test]
    fn kill_stops_a_sleeping_child() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let start = Instant::now();
        // `exec` so the shell does not fork a grandchild that would
        // outlive the kill (dash forks even single commands).
        let mut w = ProcessWorker::spawn(sh("exec sleep 600"), 0).unwrap();
        assert_eq!(w.try_wait().unwrap(), None);
        w.kill();
        assert!(start.elapsed() < std::time::Duration::from_secs(30));
    }

    #[test]
    fn kill_is_not_wedged_by_a_pipe_holding_grandchild() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // The backgrounded grandchild inherits the stdout write end and
        // survives the kill; reaping the worker must not block on it.
        let mut w = ProcessWorker::spawn(sh("sleep 30 & exec sleep 600"), 0).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(100));
        let start = Instant::now();
        w.kill();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "kill blocked on an orphaned pipe holder"
        );
    }

    #[cfg(unix)]
    #[test]
    fn abort_registry_kills_live_workers() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut w = ProcessWorker::spawn(sh("exec sleep 600"), 0).unwrap();
        let pid = w.child.id();
        assert!(LIVE_PIDS.lock().unwrap().contains(&pid));
        kill_registered_workers();
        assert!(LIVE_PIDS.lock().unwrap().is_empty());
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        loop {
            if w.child.try_wait().unwrap().is_some() {
                break;
            }
            assert!(Instant::now() < deadline, "registered worker survived the abort kill");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        w.join_reader();
    }

    #[cfg(unix)]
    #[test]
    fn terminate_sends_sigterm() {
        // Short sleeps in a loop: the trap runs after the current sleep
        // finishes, and no long-lived grandchild holds the stdout pipe
        // open past the shell's death.
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut w =
            ProcessWorker::spawn(sh("trap 'exit 3' TERM; while :; do sleep 0.1; done"), 0).unwrap();
        // Give the shell a beat to install the trap.
        std::thread::sleep(std::time::Duration::from_millis(100));
        w.terminate();
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        let code = loop {
            if let Some(c) = w.try_wait().unwrap() {
                break c;
            }
            assert!(Instant::now() < deadline, "SIGTERM was not delivered");
            std::thread::sleep(std::time::Duration::from_millis(5));
        };
        assert_eq!(code, 3);
    }
}
