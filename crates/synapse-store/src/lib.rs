#![warn(missing_docs)]

//! Profile persistence for Synapse.
//!
//! The paper stores profiles either in a MongoDB database — indexed by
//! the `(command, tags)` combination, subject to MongoDB's 16 MB
//! document limit (§4.5, "DB limitations") — or on disk as files (no
//! size limit). This crate provides both backends without requiring a
//! server:
//!
//! * [`DocumentDb`] — an embedded, thread-safe JSON document store with
//!   named collections, subset-match queries and a configurable
//!   per-document size limit defaulting to 16 MB. It reproduces the
//!   paper's ~250 k-sample cap (and the Fig. 4 footnote about the
//!   largest configuration missing data samples).
//! * [`FileStore`] — one profile per JSON file, unlimited samples.
//! * [`ProfileStore`] — the backend-independent interface the profiler
//!   and emulator use ("search the database for a matching profile").
//! * [`ShardedDb`] — a sharded, compacting key/value store for very
//!   large keyspaces (campaign result caches): opaque byte values in
//!   256 binary shard files by key prefix, dirty-shard-only saves, a
//!   manifest recording the layout, and a compaction pass merging
//!   small shards. On-disk stores are multi-process safe:
//!   opens/saves/compactions run under an advisory [`FileLock`] and
//!   dirty saves merge back values concurrent processes added, so
//!   cluster workers can share one cache directory.

pub mod collection;
pub mod db;
pub mod document;
pub mod error;
pub mod filestore;
pub mod lock;
pub mod profilestore;
pub mod query;
pub mod sharded;

pub use collection::Collection;
pub use db::DocumentDb;
pub use document::{Document, DEFAULT_DOC_LIMIT};
pub use error::StoreError;
pub use filestore::FileStore;
pub use lock::FileLock;
pub use profilestore::{DbProfileStore, ProfileStore, SaveReport};
pub use query::Query;
pub use sharded::{
    shard_of, CompactStats, SaveStats, ShardStats, ShardedDb, StoreCounters, LOCK_FILE, SHARD_COUNT,
};
