//! Run lifecycle: the Running → Draining → Aborting signal state
//! machine and the exit codes it ends in ([`shutdown`]). `phyloplace
//! place`, `phyloplaced` and the bench harness share it, so one signal
//! drains every front door the same way and a second escapes the drain
//! (exit 130).
//!
//! The crate keeps its historical name until the bench lockfile is
//! refreshed; it no longer holds a sharded fleet.

pub mod shutdown;

pub use shutdown::{Phase, Shutdown, EXIT_ABORTED, EXIT_INTERRUPTED};
