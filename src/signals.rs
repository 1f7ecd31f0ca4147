//! SIGINT/SIGTERM plumbing shared by every long-running subcommand and
//! by `phyloplaced`: the handler counts, a watchdog thread mirrors the
//! count into the [`Shutdown`] state machine. One signal drains
//! gracefully; a second abandons the drain (exit 130).

use phylo_shard::{Phase, Shutdown, EXIT_ABORTED};
use std::sync::atomic::{AtomicU32, Ordering};

/// Incremented (only) by the signal handler. Counting is the entire
/// handler body — the async-signal-safe subset.
static SIGNALS: AtomicU32 = AtomicU32::new(0);

extern "C" fn on_signal(_signum: i32) {
    SIGNALS.fetch_add(1, Ordering::SeqCst);
}

/// Installs the SIGINT/SIGTERM handlers and spawns the detached
/// watchdog that forwards handler-counted signals into `shutdown`. At
/// the second signal the process exits 130 on the spot: the user asked
/// twice, so no more graceful anything.
pub fn install(shutdown: Shutdown) {
    // The libc `signal(2)` that std already links — no new dependency.
    // Failure to install (exotic platforms) degrades to default signal
    // behavior, not an error.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as usize;
    // SAFETY: `signal` is the C library's, called with valid signal
    // numbers and a handler of the `void (*)(int)` shape it expects; the
    // handler only performs an atomic add, which is async-signal-safe.
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
    std::thread::spawn(move || loop {
        if shutdown.record_signals(SIGNALS.load(Ordering::SeqCst)) == Phase::Aborting {
            std::process::exit(EXIT_ABORTED);
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    });
}
