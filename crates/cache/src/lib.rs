//! # hatric-cache
//!
//! The data-cache substrate of the HATRIC simulator: per-CPU private L1/L2
//! caches, a shared last-level cache, and a directory-based MESI coherence
//! protocol whose directory entries are extended with the two bits HATRIC
//! needs — `nPT` and `gPT` — marking cache lines that hold nested or guest
//! page-table entries (Sec. 4.2 of the paper).
//!
//! The hierarchy is *behavioural*: it tracks line presence, MESI-style
//! ownership, sharer lists, evictions and coherence messages, and reports
//! which level satisfied each access so the timing layer can charge
//! latencies.  It does not store data bytes.
//!
//! Key HATRIC-specific behaviours implemented here:
//!
//! * a write to a line whose directory entry is marked `nPT`/`gPT` reports
//!   the full sharer list so translation structures on those CPUs can be
//!   sent co-tag invalidations;
//! * sharer lists for page-table lines are updated **lazily**: evicting such
//!   a line from a private cache does not remove the CPU from the sharer
//!   list (the CPU may still cache translations from it); CPUs are demoted
//!   when a spurious invalidation reaches them (Fig. 6);
//! * directory-entry evictions trigger back-invalidations of the associated
//!   line in every sharer, and are reported so translation structures can be
//!   back-invalidated too.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cache;
pub mod directory;
pub mod hierarchy;
pub mod line;
mod order;

pub use cache::{PrivateCache, PrivateCacheConfig};
pub use directory::{CoherenceDirectory, DirectoryConfig, DirectoryEntry, SharerSet};
pub use hierarchy::{
    AccessOutcome, BackInvalidation, CacheHierarchy, CacheHierarchyConfig, CacheStatsDelta,
    CacheStatsSnapshot, HitLevel, PrivatePair, SharedCache, SharedCacheOp, SimAccess, SimWrite,
    WriteOutcome,
};
pub use line::{MesiState, PtKind};
