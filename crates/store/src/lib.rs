//! # anonet-store
//!
//! A log-structured, sharded, crash-safe on-disk key/value store,
//! specialized for the derandomization cache: the keys begin with
//! canonical quotient encodings `s(G_*)` and the values are the
//! replayable `CachedAssignment` tapes that make warm-started batch runs
//! skip the expensive `A_*` search entirely.
//!
//! Zero external dependencies: `std` plus `anonet-obs` for metrics.
//!
//! ## File format
//!
//! A store directory holds one subdirectory per shard (`shard-NN/`),
//! each containing append-only segment logs `seg-XXXXXXXX.log`:
//!
//! ```text
//! segment  := header frame*
//! header   := magic:"ANST" version:u16le shard:u16le          (8 bytes)
//! frame    := payload_len:u32le crc32:u32le payload           (8+n bytes)
//! payload  := kind:u8 ns:u8 key_len:u32le key:bytes value:bytes
//! ```
//!
//! Every frame is written with a **single** `write` call, so a crash can
//! only tear the file's tail. On open, each segment is scanned front to
//! back; the first frame that is incomplete or fails its CRC marks a
//! torn tail, which is truncated away. A frame whose CRC *passes* but
//! whose payload cannot be decoded is a hard [`StoreError::Corrupt`] —
//! that is damage a torn write cannot explain. A tombstone frame
//! (`kind` 1) unbinds its key; the store no longer writes them, but
//! recovery honours the ones in segments written by older versions.
//!
//! ## Sharding
//!
//! Keys route to a shard by their first byte (the first byte of the
//! canonical quotient encoding). Each shard has its own lock, index, and
//! segment chain, so writes and reads on distinct shards run
//! concurrently.
//!
//! ## Index
//!
//! The in-memory index (a deterministic `BTreeMap`) maps `(namespace,
//! key)` to the record's segment/offset; it is rebuilt on open by the
//! same scan that performs recovery (latest frame wins, tombstones
//! unbind). Nothing is evicted or compacted: the cache writes each
//! distinct key once, so the log holds almost no dead frames.
//!
//! ## Warm start
//!
//! [`Store::warm_scan`] streams the live entries of a namespace back out
//! in key order (deterministic), which is how
//! `PersistentDerandCache::warm` in `anonet-batch` preloads a fresh
//! process's memory cache from a previous run's disk state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod segment;
mod store;

pub use error::{Result, StoreError};
pub use store::{Store, StoreConfig, StoreStats};
