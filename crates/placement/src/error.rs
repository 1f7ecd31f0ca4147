//! Error type for the placement pipeline.

use std::fmt;

/// Errors raised while configuring or running placement.
#[derive(Debug)]
pub enum PlaceError {
    /// The memory budget cannot hold even the mandatory structures; the
    /// message suggests the smallest workable budget and a smaller chunk.
    BudgetTooSmall {
        /// The requested budget.
        budget_bytes: usize,
        /// The smallest feasible budget at this chunk size.
        required_bytes: usize,
        /// The chunk size the requirement was computed for.
        chunk_size: usize,
    },
    /// A query sequence's aligned length differs from the reference.
    QueryLength {
        /// The query's name.
        name: String,
        /// The reference alignment width.
        expected: usize,
        /// The query's aligned length.
        found: usize,
    },
    /// No queries were supplied.
    NoQueries,
    /// The slot count leaves too little headroom above the traversal
    /// floor to pin even a one-branch block. The memory planner always
    /// reserves this headroom; the error guards hand-built slot counts.
    SlotHeadroomTooSmall {
        /// The slot count actually configured.
        slots: usize,
        /// The `⌈log₂ n⌉ + 2` traversal floor that must stay unpinned.
        min_slots: usize,
        /// Slots a single block needs on top of the floor.
        needed: usize,
    },
    /// A configuration field is out of range.
    BadConfig(String),
    /// A scoring unit or a block prepare panicked. The panic was contained
    /// where the job ran: the other threads are joined and the sweep's
    /// prepared blocks released before this is surfaced, so the store
    /// remains usable.
    WorkerPanicked {
        /// Which thread panicked and the panic payload, if printable.
        context: String,
    },
    /// A likelihood evaluated to NaN or ±∞. With the scaled kernels this
    /// is a numeric failure (corrupted CLV data or scaler underflow),
    /// never a property of the input, so it is surfaced instead of
    /// silently mis-ranking placements.
    NonFiniteLikelihood {
        /// The query being scored.
        query: String,
        /// The branch it was scored on.
        edge: u32,
    },
    /// Writing the jplace output failed.
    OutputIo(std::io::Error),
    /// Propagated engine/AMC failure.
    Engine(phylo_engine::EngineError),
    /// Checkpoint journal failure: an append could not be made durable,
    /// or a `--resume` directory failed validation (missing/mismatched
    /// manifest, frame that contradicts the current run's chunking).
    Journal(phylo_journal::JournalError),
}

impl PlaceError {
    /// True when this error is the cooperative-cancellation signal
    /// ([`phylo_amc::AmcError::Cancelled`]) surfacing through the
    /// engine, possibly via a scoring worker. Not a failure: the
    /// orchestrator unwinds cleanly, keeps every chunk journaled so
    /// far, and reports a partial result.
    pub fn is_cancellation(&self) -> bool {
        matches!(
            self,
            PlaceError::Engine(phylo_engine::EngineError::Amc(phylo_amc::AmcError::Cancelled))
        )
    }
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::BudgetTooSmall { budget_bytes, required_bytes, chunk_size } => write!(
                f,
                "--maxmem budget of {budget_bytes} B cannot hold mandatory structures \
                 ({required_bytes} B at chunk size {chunk_size}); raise the budget or \
                 lower the chunk size"
            ),
            PlaceError::QueryLength { name, expected, found } => write!(
                f,
                "query {name:?} has aligned length {found}, reference alignment has {expected} sites"
            ),
            PlaceError::NoQueries => write!(f, "no query sequences supplied"),
            PlaceError::SlotHeadroomTooSmall { slots, min_slots, needed } => write!(
                f,
                "{slots} slots leave no headroom for branch blocks: the traversal floor is \
                 {min_slots} slots and each block pins {needed} more; raise the budget"
            ),
            PlaceError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            PlaceError::WorkerPanicked { context } => {
                write!(f, "worker thread panicked: {context}")
            }
            PlaceError::NonFiniteLikelihood { query, edge } => write!(
                f,
                "non-finite likelihood for query {query:?} on edge {edge}: numeric failure \
                 in the kernel"
            ),
            PlaceError::OutputIo(e) => write!(f, "could not write placement output: {e}"),
            PlaceError::Engine(e) => write!(f, "engine error: {e}"),
            PlaceError::Journal(e) => write!(f, "checkpoint journal: {e}"),
        }
    }
}

impl std::error::Error for PlaceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlaceError::Engine(e) => Some(e),
            PlaceError::OutputIo(e) => Some(e),
            PlaceError::Journal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<phylo_engine::EngineError> for PlaceError {
    fn from(e: phylo_engine::EngineError) -> Self {
        PlaceError::Engine(e)
    }
}

impl From<phylo_journal::JournalError> for PlaceError {
    fn from(e: phylo_journal::JournalError) -> Self {
        PlaceError::Journal(e)
    }
}
