//! spp-cache: a cross-call result cache for minimization sessions.
//!
//! Repeated and near-duplicate functions dominate service-style
//! minimization traffic, and both phases of the SPP pipeline are worth
//! amortizing: EPPP generation is the measured bottleneck of the paper's
//! Table 2, and the exact cover adds a branch-and-bound search on top.
//! This crate provides the storage layer for skipping both:
//!
//! - [`Fingerprint`]: a canonical function identity — variable count,
//!   output index, don't-care-set hash and truth-table (ON-set) hash — so
//!   two lookups alias only when the functions are byte-for-byte the same
//!   sets of points;
//! - [`CacheKey`]: a fingerprint plus an [`EntryKind`] and an options
//!   hash, so results computed under different budgets never alias;
//! - [`Cache`]: a sharded, byte-budgeted, LRU-evicting in-memory map from
//!   keys to any [`CacheValue`], with hit/miss/evict statistics
//!   ([`CacheStats`]) and [`spp_obs::Event`] emission;
//! - an optional versioned + checksummed on-disk store
//!   ([`CacheConfig::with_dir`]) that persists every insertion and
//!   rejects corrupt or schema-mismatched files gracefully (typed
//!   [`Event::CacheCorruptEntry`] events, never a panic or a wrong
//!   answer).
//!
//! The crate is deliberately *below* `spp-core`: it knows nothing about
//! pseudocubes or forms. `spp-core` implements [`CacheValue`] for its
//! payloads and re-exports the user-facing handle as `SppCache`.
//!
//! # Examples
//!
//! ```
//! use spp_cache::{Cache, CacheConfig, CacheKey, CacheValue, EntryKind, Fingerprint};
//! use spp_obs::RunCtx;
//!
//! #[derive(Clone, PartialEq, Debug)]
//! struct Blob(Vec<u8>);
//! impl CacheValue for Blob {
//!     const SCHEMA: u32 = 1;
//!     fn approx_bytes(&self) -> u64 { self.0.len() as u64 }
//!     fn encode(&self, out: &mut Vec<u8>) { out.extend_from_slice(&self.0) }
//!     fn decode(bytes: &[u8]) -> Option<Self> { Some(Blob(bytes.to_vec())) }
//! }
//!
//! let cache: Cache<Blob> = Cache::new(CacheConfig::default());
//! let f = spp_boolfn::BoolFn::from_indices(3, &[1, 2, 4]);
//! let key = CacheKey {
//!     fingerprint: Fingerprint::of_fn(&f, 0),
//!     kind: EntryKind::Result,
//!     options_hash: 7,
//! };
//! let ctx = RunCtx::default();
//! assert_eq!(cache.get(&key, &ctx), None);
//! cache.insert(key, Blob(vec![1, 2, 3]), &ctx);
//! assert_eq!(cache.get(&key, &ctx), Some(Blob(vec![1, 2, 3])));
//! assert_eq!(cache.stats().hits, 1);
//! ```

// `deny` rather than `forbid`: the `lock` module binds `flock(2)` directly
// (the workspace is dependency-free) and carries the crate's only
// `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod lock;
mod persist;
pub mod wire;

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use spp_boolfn::BoolFn;
use spp_gf2::Gf2Vec;
use spp_obs::{Event, ResourceGovernor, RunCtx};

pub use lock::{DirLock, LockMode};
pub use persist::DiskStore;

/// When the on-disk store calls `fsync` while writing an entry.
///
/// The cache is a re-derivable optimization, so the default trades
/// durability for speed; the stricter rungs exist for shared directories
/// that must survive power loss, not just process crashes (the atomic
/// temp-file + rename path already guarantees no *torn* entries at every
/// level).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync (default): crash-consistent but not power-loss-durable.
    #[default]
    Never,
    /// Fsync each entry's bytes before the atomic rename.
    Entry,
    /// [`Entry`](FsyncPolicy::Entry) plus an fsync of the cache directory
    /// after the rename, making the entry's *existence* durable too.
    Full,
}

impl FsyncPolicy {
    /// The stable lower-snake identifier (`"never"`, `"entry"`, `"full"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FsyncPolicy::Never => "never",
            FsyncPolicy::Entry => "entry",
            FsyncPolicy::Full => "full",
        }
    }

    /// Parses the identifier produced by [`as_str`](Self::as_str).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "never" => Some(FsyncPolicy::Never),
            "entry" => Some(FsyncPolicy::Entry),
            "full" => Some(FsyncPolicy::Full),
            _ => None,
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// FNV-1a 64-bit hash of a byte slice — the workspace's dependency-free
/// hash for fingerprints, option keys and on-disk checksums. Stable across
/// platforms and releases (little-endian serialization everywhere).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = KeyHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

/// An incremental FNV-1a 64-bit hasher for composing fingerprints and
/// option hashes field by field.
///
/// # Examples
///
/// ```
/// use spp_cache::KeyHasher;
///
/// let mut h = KeyHasher::new();
/// h.write_u64(42);
/// h.write_u8(1);
/// let a = h.finish();
/// assert_ne!(a, KeyHasher::new().finish());
/// ```
#[derive(Clone, Debug)]
pub struct KeyHasher(u64);

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher::new()
    }
}

impl KeyHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        KeyHasher(Self::OFFSET)
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
    }

    /// Feeds a `u64` as eight little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Feeds a byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// The hash of everything written so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The two 64-bit words of a GF(2) point (`spp_gf2::MAX_BITS = 128`), for
/// hashing and serialization.
pub(crate) fn point_words(v: &Gf2Vec) -> [u64; 2] {
    let mut w = [0u64; 2];
    for i in v.iter_ones() {
        w[i / 64] |= 1u64 << (i % 64);
    }
    w
}

/// A canonical function fingerprint: the cache-key component that
/// identifies *which Boolean function* an entry belongs to.
///
/// Two functions collide only if they have the same variable count, the
/// same output index *and* the same FNV-1a hashes of their (sorted,
/// canonical) ON-sets and don't-care sets; in particular a don't-care-mask
/// change always changes the fingerprint. Hash collisions remain
/// astronomically unlikely but possible, which is why `spp-core` verifies
/// every cached result against the function before returning it.
///
/// # Examples
///
/// ```
/// use spp_boolfn::BoolFn;
/// use spp_cache::Fingerprint;
///
/// let f = BoolFn::from_indices(4, &[1, 2, 3]);
/// let g = BoolFn::with_dont_cares(4, f.on_set().iter().copied(), f.dc_set().iter().copied());
/// assert_eq!(Fingerprint::of_fn(&f, 0), Fingerprint::of_fn(&g, 0));
/// // A different don't-care set (same ON-set) never aliases.
/// let h = BoolFn::with_dont_cares(
///     4,
///     f.on_set().iter().copied(),
///     [spp_gf2::Gf2Vec::from_u64(4, 0)],
/// );
/// assert_ne!(Fingerprint::of_fn(&f, 0), Fingerprint::of_fn(&h, 0));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// The ambient variable count `n`.
    pub num_vars: u16,
    /// Which output of a multi-output function this is (0 for
    /// single-output use).
    pub output_index: u32,
    /// FNV-1a hash of the canonical don't-care set.
    pub dc_hash: u64,
    /// FNV-1a hash of the canonical ON-set (the truth table's 1-points).
    pub tt_hash: u64,
}

/// Hashes a canonical (sorted) point set: the length, then each point's
/// two little-endian words.
fn hash_points(points: &[Gf2Vec]) -> u64 {
    let mut h = KeyHasher::new();
    h.write_u64(points.len() as u64);
    for p in points {
        let [w0, w1] = point_words(p);
        h.write_u64(w0);
        h.write_u64(w1);
    }
    h.finish()
}

impl Fingerprint {
    /// The fingerprint of `f` as output number `output_index`.
    #[must_use]
    pub fn of_fn(f: &BoolFn, output_index: u32) -> Self {
        Fingerprint {
            num_vars: f.num_vars() as u16,
            output_index,
            dc_hash: hash_points(f.dc_set()),
            tt_hash: hash_points(f.on_set()),
        }
    }

    /// A joint fingerprint over several per-output fingerprints (for
    /// multi-output entries): `num_vars` from the first part,
    /// `output_index` = the output count, hashes folded in order.
    #[must_use]
    pub fn combined(parts: &[Fingerprint]) -> Self {
        let mut dc = KeyHasher::new();
        let mut tt = KeyHasher::new();
        for p in parts {
            dc.write_u64(u64::from(p.output_index));
            dc.write_u64(p.dc_hash);
            tt.write_u64(u64::from(p.output_index));
            tt.write_u64(p.tt_hash);
        }
        Fingerprint {
            num_vars: parts.first().map_or(0, |p| p.num_vars),
            output_index: parts.len() as u32,
            dc_hash: dc.finish(),
            tt_hash: tt.finish(),
        }
    }
}

/// What a cache entry stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EntryKind {
    /// A complete, verified, optimal minimization result.
    Result,
    /// A complete (non-truncated) EPPP candidate set.
    Eppp,
    /// A complete, verified, optimal multi-output result.
    Multi,
    /// A snapshot of the generation levels behind a complete EPPP set,
    /// kept so near-duplicate functions can splice instead of
    /// regenerating.
    Levels,
}

impl EntryKind {
    /// A stable lower-snake identifier (used in events, stats and file
    /// names).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EntryKind::Result => "result",
            EntryKind::Eppp => "eppp",
            EntryKind::Multi => "multi",
            EntryKind::Levels => "levels",
        }
    }

    pub(crate) fn to_u8(self) -> u8 {
        match self {
            EntryKind::Result => 0,
            EntryKind::Eppp => 1,
            EntryKind::Multi => 2,
            EntryKind::Levels => 3,
        }
    }

    pub(crate) fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(EntryKind::Result),
            1 => Some(EntryKind::Eppp),
            2 => Some(EntryKind::Multi),
            3 => Some(EntryKind::Levels),
            _ => None,
        }
    }
}

impl std::fmt::Display for EntryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A full cache lookup key: function identity, entry kind, and a hash of
/// the options that the stored value depends on.
///
/// Which options belong in `options_hash` is the *caller's* invalidation
/// policy: `spp-core` hashes only the options that can change a complete
/// entry (grouping strategy and the covering budgets for results; grouping
/// alone for EPPP sets) and deliberately excludes parallelism and time
/// limits, because the pipeline's outputs are bit-identical at any thread
/// count and only *complete* (deterministic) work is ever inserted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Which function the entry belongs to.
    pub fingerprint: Fingerprint,
    /// What the entry stores.
    pub kind: EntryKind,
    /// Hash of the result-relevant options (see type docs).
    pub options_hash: u64,
}

/// A type that can live in a [`Cache`]: sized for the byte budget and
/// serializable for the on-disk store.
///
/// `decode` must reject anything `encode` could not have produced (return
/// `None`, never panic): on-disk payloads have already passed a checksum,
/// but defense in depth is cheap.
pub trait CacheValue: Clone + Send + Sync + 'static {
    /// Payload schema version, embedded in every on-disk entry. Bump it
    /// whenever the encoding changes; mismatched files are skipped as if
    /// absent.
    const SCHEMA: u32;

    /// Approximate in-memory footprint, charged against the cache budget.
    fn approx_bytes(&self) -> u64;

    /// Appends the serialized payload to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Parses a payload produced by [`CacheValue::encode`]; `None` on any
    /// mismatch.
    fn decode(bytes: &[u8]) -> Option<Self>;
}

/// Configuration of a [`Cache`].
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`CacheConfig::default`] and the `with_*` builder methods.
///
/// # Examples
///
/// ```
/// use spp_cache::CacheConfig;
///
/// let config = CacheConfig::default().with_byte_budget(8 * 1024 * 1024).with_shards(4);
/// assert_eq!(config.byte_budget, 8 * 1024 * 1024);
/// assert_eq!(config.shards, 4);
/// assert!(config.dir.is_none());
/// ```
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct CacheConfig {
    /// Total in-memory byte budget, split evenly across shards. Entries
    /// larger than one shard's slice are never kept in memory (they still
    /// reach the disk store) and are counted as immediate evictions.
    pub byte_budget: u64,
    /// Number of independently locked shards.
    pub shards: usize,
    /// Directory for the persistent store; `None` keeps the cache
    /// memory-only.
    pub dir: Option<PathBuf>,
    /// Durability policy of the persistent store (ignored without `dir`).
    pub fsync: FsyncPolicy,
}

impl Default for CacheConfig {
    /// 64 MiB across 16 shards, memory-only, no fsync.
    fn default() -> Self {
        CacheConfig {
            byte_budget: 64 * 1024 * 1024,
            shards: 16,
            dir: None,
            fsync: FsyncPolicy::Never,
        }
    }
}

impl CacheConfig {
    /// Sets the total in-memory byte budget.
    #[must_use]
    pub fn with_byte_budget(mut self, bytes: u64) -> Self {
        self.byte_budget = bytes;
        self
    }

    /// Sets the shard count (clamped to at least 1).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Enables the on-disk store under `dir` (created on first write).
    #[must_use]
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Sets the on-disk store's durability policy.
    #[must_use]
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }
}

/// A point-in-time snapshot of a cache's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Lookups answered from the cache (memory or disk).
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// The subset of `hits` loaded from the on-disk store.
    pub disk_hits: u64,
    /// Entries stored in memory.
    pub insertions: u64,
    /// Entries dropped to stay within the byte budget (including
    /// larger-than-shard entries dropped immediately).
    pub evictions: u64,
    /// On-disk entries rejected as corrupt, truncated or
    /// schema-mismatched.
    pub corrupt_skipped: u64,
    /// Files moved aside by [`Cache::recover`]'s startup scan or by
    /// corrupt-entry handling (the subset of failures acted on by
    /// quarantine rather than plain skipping).
    pub quarantined: u64,
    /// Covering searches warm-started from a cached cover.
    pub warm_starts: u64,
    /// Generations answered by splicing a sibling's cached levels.
    pub delta_reuses: u64,
    /// Delta splice attempts abandoned (fell back to cold generation).
    pub delta_rejects: u64,
    /// Entries currently resident in memory.
    pub entries: u64,
    /// Bytes currently charged to the cache's governor.
    pub bytes: u64,
}

impl CacheStats {
    /// The snapshot as one JSON object: the `cache` field of the daemon's
    /// `{"op":"stats"}` and `{"op":"health"}` replies.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hits\": {}, \"misses\": {}, \"disk_hits\": {}, \"insertions\": {}, \
             \"evictions\": {}, \"corrupt_skipped\": {}, \"quarantined\": {}, \
             \"warm_starts\": {}, \
             \"delta_reuses\": {}, \"delta_rejects\": {}, \
             \"entries\": {}, \"bytes\": {}}}",
            self.hits,
            self.misses,
            self.disk_hits,
            self.insertions,
            self.evictions,
            self.corrupt_skipped,
            self.quarantined,
            self.warm_starts,
            self.delta_reuses,
            self.delta_rejects,
            self.entries,
            self.bytes
        )
    }
}

impl std::fmt::Display for CacheStats {
    /// The human one-liner the CLI prints.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits ({} disk), {} misses, {} warm starts, {} delta reuses \
             ({} rejected), {} insertions, \
             {} evictions, {} corrupt skipped, {} quarantined, \
             {} entries, {} bytes",
            self.hits,
            self.disk_hits,
            self.misses,
            self.warm_starts,
            self.delta_reuses,
            self.delta_rejects,
            self.insertions,
            self.evictions,
            self.corrupt_skipped,
            self.quarantined,
            self.entries,
            self.bytes
        )
    }
}

/// Fixed per-entry bookkeeping overhead charged on top of
/// [`CacheValue::approx_bytes`].
const ENTRY_OVERHEAD: u64 = 64;

struct Entry<V> {
    value: V,
    bytes: u64,
    stamp: u64,
}

struct Shard<V> {
    map: HashMap<CacheKey, Entry<V>>,
    bytes: u64,
}

impl<V> Default for Shard<V> {
    fn default() -> Self {
        Shard { map: HashMap::new(), bytes: 0 }
    }
}

/// A sharded, byte-budgeted, LRU-evicting map from [`CacheKey`]s to
/// values, with optional write-through persistence.
///
/// Shard selection depends only on the fingerprint and kind, so all
/// entries for one function land in one shard and
/// [`get_any`](Cache::get_any) stays a single-shard scan. Recency is a
/// global atomic clock stamped per access; eviction removes the
/// least-recently-stamped entries of the inserting shard. Memory is
/// charged to an internal [`ResourceGovernor`] (one budget for the whole
/// cache), exposed via [`governor`](Cache::governor) so owners can fold
/// cache pressure into their own accounting.
///
/// All methods take `&self` and are safe (and lock-poisoning-tolerant)
/// under concurrent use from session worker threads.
pub struct Cache<V: CacheValue> {
    shards: Vec<Mutex<Shard<V>>>,
    shard_budget: u64,
    clock: AtomicU64,
    governor: ResourceGovernor,
    disk: Option<DiskStore>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    corrupt_skipped: AtomicU64,
    quarantined: AtomicU64,
    warm_starts: AtomicU64,
    delta_reuses: AtomicU64,
    delta_rejects: AtomicU64,
}

impl<V: CacheValue> std::fmt::Debug for Cache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache")
            .field("shards", &self.shards.len())
            .field("shard_budget", &self.shard_budget)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<V: CacheValue> Cache<V> {
    /// Builds an empty cache from `config`.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        Cache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: (config.byte_budget / shards as u64).max(1),
            clock: AtomicU64::new(0),
            governor: ResourceGovernor::unbounded(),
            disk: config.dir.map(|dir| DiskStore::new(dir).with_fsync(config.fsync)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt_skipped: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            warm_starts: AtomicU64::new(0),
            delta_reuses: AtomicU64::new(0),
            delta_rejects: AtomicU64::new(0),
        }
    }

    fn shard_index(&self, fingerprint: &Fingerprint, kind: EntryKind) -> usize {
        let mut h = KeyHasher::new();
        h.write_u64(u64::from(fingerprint.num_vars));
        h.write_u64(u64::from(fingerprint.output_index));
        h.write_u64(fingerprint.dc_hash);
        h.write_u64(fingerprint.tt_hash);
        h.write_u8(kind.to_u8());
        (h.finish() % self.shards.len() as u64) as usize
    }

    fn lock_shard(&self, index: usize) -> std::sync::MutexGuard<'_, Shard<V>> {
        self.shards[index].lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks `key` up, consulting memory first and then the disk store.
    /// Emits [`Event::CacheHit`] / [`Event::CacheMiss`] /
    /// [`Event::CacheCorruptEntry`] on `ctx` and updates the counters. A
    /// disk hit is promoted into memory.
    pub fn get(&self, key: &CacheKey, ctx: &RunCtx) -> Option<V> {
        let index = self.shard_index(&key.fingerprint, key.kind);
        {
            let mut shard = self.lock_shard(index);
            // Stamp before cloning so the entry is fresh even if the clone
            // is slow.
            let stamp = self.tick();
            if let Some(entry) = shard.map.get_mut(key) {
                entry.stamp = stamp;
                let value = entry.value.clone();
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                ctx.emit(Event::CacheHit { kind: key.kind.as_str(), disk: false });
                return Some(value);
            }
        }
        if let Some(disk) = &self.disk {
            match disk.load::<V>(key) {
                Ok(Some(value)) => {
                    self.store_in_memory(index, *key, value.clone(), ctx);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    ctx.emit(Event::CacheHit { kind: key.kind.as_str(), disk: true });
                    return Some(value);
                }
                Ok(None) => {}
                Err((path, reason)) => {
                    self.corrupt_skipped.fetch_add(1, Ordering::Relaxed);
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                    ctx.emit(Event::CacheCorruptEntry { path: path.clone(), reason });
                    // Move the bad file aside so it cannot trip every run.
                    disk.quarantine(&path);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        ctx.emit(Event::CacheMiss { kind: key.kind.as_str() });
        None
    }

    /// Looks `key` up and *takes ownership*: an in-memory hit is removed
    /// from its shard (bytes debited) and returned without a clone; a
    /// disk hit is returned without memory promotion, and the disk copy
    /// stays. For consumers of large payloads — the delta path consumes a
    /// level snapshot into the spliced result, and deep-cloning a
    /// 100k-member snapshot costs more than the splice itself. Hit/miss
    /// accounting matches [`get`](Self::get); the removal is not an
    /// eviction.
    pub fn take(&self, key: &CacheKey, ctx: &RunCtx) -> Option<V> {
        let index = self.shard_index(&key.fingerprint, key.kind);
        {
            let mut shard = self.lock_shard(index);
            if let Some(entry) = shard.map.remove(key) {
                shard.bytes -= entry.bytes;
                self.governor.debit(entry.bytes);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                ctx.emit(Event::CacheHit { kind: key.kind.as_str(), disk: false });
                return Some(entry.value);
            }
        }
        if let Some(disk) = &self.disk {
            match disk.load::<V>(key) {
                Ok(Some(value)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    ctx.emit(Event::CacheHit { kind: key.kind.as_str(), disk: true });
                    return Some(value);
                }
                Ok(None) => {}
                Err((path, reason)) => {
                    self.corrupt_skipped.fetch_add(1, Ordering::Relaxed);
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                    ctx.emit(Event::CacheCorruptEntry { path: path.clone(), reason });
                    disk.quarantine(&path);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        ctx.emit(Event::CacheMiss { kind: key.kind.as_str() });
        None
    }

    /// The most recently used in-memory entry for `fingerprint` of `kind`,
    /// under *any* options hash — the warm-start probe: when the exact key
    /// misses (say, different covering budgets), a sibling entry for the
    /// same function can still seed the covering search. Silent: no
    /// events, no hit/miss accounting.
    pub fn get_any(&self, fingerprint: &Fingerprint, kind: EntryKind) -> Option<V> {
        let index = self.shard_index(fingerprint, kind);
        let mut shard = self.lock_shard(index);
        let stamp = self.tick();
        let entry = shard
            .map
            .iter_mut()
            .filter(|(k, _)| k.fingerprint == *fingerprint && k.kind == kind)
            .max_by_key(|(_, e)| e.stamp)?;
        entry.1.stamp = stamp;
        Some(entry.1.value.clone())
    }

    /// Inserts `value` under `key`, evicting least-recently-used entries
    /// of the target shard as needed, and writes through to the disk store
    /// when one is configured. An entry larger than one shard's budget
    /// slice is not kept in memory (counted as an immediate eviction) but
    /// still reaches the disk store.
    pub fn insert(&self, key: CacheKey, value: V, ctx: &RunCtx) {
        if let Some(disk) = &self.disk {
            disk.store(&key, &value);
        }
        let index = self.shard_index(&key.fingerprint, key.kind);
        self.store_in_memory(index, key, value, ctx);
    }

    fn store_in_memory(&self, index: usize, key: CacheKey, value: V, ctx: &RunCtx) {
        let bytes = value.approx_bytes() + ENTRY_OVERHEAD;
        if bytes > self.shard_budget {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            ctx.emit(Event::CacheEvicted { entries: 1, bytes });
            return;
        }
        let stamp = self.tick();
        let mut shard = self.lock_shard(index);
        if let Some(old) = shard.map.insert(key, Entry { value, bytes, stamp }) {
            shard.bytes -= old.bytes;
            self.governor.debit(old.bytes);
        }
        shard.bytes += bytes;
        self.governor.charge(bytes);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        let mut evicted_entries = 0usize;
        let mut evicted_bytes = 0u64;
        while shard.bytes > self.shard_budget {
            // The just-inserted entry has the freshest stamp and fits on
            // its own, so the minimum is always some other entry.
            let victim = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
                .expect("non-empty shard over budget");
            let old = shard.map.remove(&victim).expect("victim exists");
            shard.bytes -= old.bytes;
            self.governor.debit(old.bytes);
            evicted_entries += 1;
            evicted_bytes += old.bytes;
        }
        drop(shard);
        if evicted_entries > 0 {
            self.evictions.fetch_add(evicted_entries as u64, Ordering::Relaxed);
            ctx.emit(Event::CacheEvicted { entries: evicted_entries, bytes: evicted_bytes });
        }
    }

    /// Runs the disk store's startup recovery scan: every on-disk entry
    /// is validated, corrupt ones are quarantined (moved aside, never
    /// loaded again) and crash-orphaned temp files are removed. Emits one
    /// [`Event::CacheQuarantined`] per file acted on and returns their
    /// count. A no-op for memory-only caches.
    ///
    /// Self-healing by construction: a corrupt or half-written entry costs
    /// one regeneration, never an error.
    pub fn recover(&self, ctx: &RunCtx) -> usize {
        let Some(disk) = &self.disk else { return 0 };
        let acted = disk.recover::<V>();
        self.quarantined.fetch_add(acted.len() as u64, Ordering::Relaxed);
        let count = acted.len();
        for (path, reason) in acted {
            ctx.emit(Event::CacheQuarantined { path, reason });
        }
        count
    }

    /// Records that a covering search was warm-started from `columns`
    /// cached columns (emits [`Event::CacheWarmStart`]).
    pub fn note_warm_start(&self, columns: usize, ctx: &RunCtx) {
        self.warm_starts.fetch_add(1, Ordering::Relaxed);
        ctx.emit(Event::CacheWarmStart { columns });
    }

    /// Records a generation answered by splicing a sibling's cached
    /// levels (the caller emits [`Event::DeltaReuse`] with the details).
    pub fn note_delta_reuse(&self) {
        self.delta_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a delta splice attempt that was abandoned in favor of cold
    /// generation (the caller emits [`Event::DeltaRejected`]).
    pub fn note_delta_reject(&self) {
        self.delta_rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// The governor holding the cache's current byte account. Budgets are
    /// enforced by eviction, not by this governor (it is unbounded); it
    /// exists so owners can read or fold the pressure.
    #[must_use]
    pub fn governor(&self) -> &ResourceGovernor {
        &self.governor
    }

    /// A point-in-time snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len() as u64)
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt_skipped: self.corrupt_skipped.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            warm_starts: self.warm_starts.load(Ordering::Relaxed),
            delta_reuses: self.delta_reuses.load(Ordering::Relaxed),
            delta_rejects: self.delta_rejects.load(Ordering::Relaxed),
            entries,
            bytes: self.governor.bytes(),
        }
    }
}

/// A summary of one cached function, kept by the [`SummaryIndex`] so a
/// near-duplicate lookup can find it without decoding any payload.
#[derive(Clone, Debug)]
pub struct FnSummary {
    /// Identity of the summarized function.
    pub fingerprint: Fingerprint,
    /// Variable count (summaries of different widths never match).
    pub num_vars: u16,
    /// Dense ON-set bitmap, one bit per point of `{0,1}^num_vars`.
    pub on_words: Vec<u64>,
    /// Dense DC-set bitmap in the same layout.
    pub dc_words: Vec<u64>,
}

/// A bounded in-memory ring of [`FnSummary`]s supporting nearest-sibling
/// lookups by ON-set Hamming distance.
///
/// This is the delta-reuse rendezvous: when `spp-core` caches a
/// function's generation levels it also [`record`](SummaryIndex::record)s
/// the function's bitmaps here, and a later near-duplicate request asks
/// [`best_sibling`](SummaryIndex::best_sibling) for the closest recorded
/// function with an *identical* DC set before attempting a splice.
/// Summaries live only for the index's lifetime — levels promoted from
/// the disk store are re-recorded as they are touched, not on startup.
#[derive(Debug)]
pub struct SummaryIndex {
    entries: Mutex<std::collections::VecDeque<FnSummary>>,
    capacity: usize,
}

impl Default for SummaryIndex {
    /// A ring of 256 summaries (16-variable bitmaps are 8 KiB each, so
    /// the index tops out around 4 MiB).
    fn default() -> Self {
        SummaryIndex::new(256)
    }
}

impl SummaryIndex {
    /// Builds an empty index holding at most `capacity` summaries
    /// (clamped to at least 1); the oldest is evicted first.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SummaryIndex {
            entries: Mutex::new(std::collections::VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, std::collections::VecDeque<FnSummary>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records (or refreshes) a summary. An existing entry with the same
    /// fingerprint is replaced in place; otherwise the oldest entry makes
    /// room when the ring is full.
    pub fn record(&self, summary: FnSummary) {
        let mut entries = self.lock();
        if let Some(slot) =
            entries.iter_mut().find(|e| e.fingerprint == summary.fingerprint)
        {
            *slot = summary;
            return;
        }
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(summary);
    }

    /// Finds the recorded function closest to `(on, dc)` in ON-set
    /// Hamming distance, among functions of the same width with a
    /// byte-identical DC bitmap and a distance in `1..=max_distance`
    /// (distance 0 is excluded: an exact match is an ordinary cache hit,
    /// not a delta). Ties break to the earlier-recorded summary, keeping
    /// the answer deterministic.
    #[must_use]
    pub fn best_sibling(
        &self,
        num_vars: u16,
        on: &[u64],
        dc: &[u64],
        max_distance: usize,
    ) -> Option<FnSummary> {
        let entries = self.lock();
        let mut best: Option<(usize, &FnSummary)> = None;
        for entry in entries.iter() {
            if entry.num_vars != num_vars
                || entry.on_words.len() != on.len()
                || entry.dc_words != dc
            {
                continue;
            }
            let d: usize =
                on.iter().zip(&entry.on_words).map(|(x, y)| (x ^ y).count_ones() as usize).sum();
            if d == 0 || d > max_distance {
                continue;
            }
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, entry));
            }
        }
        best.map(|(_, e)| e.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Blob(Vec<u8>);

    impl CacheValue for Blob {
        const SCHEMA: u32 = 7;
        fn approx_bytes(&self) -> u64 {
            self.0.len() as u64
        }
        fn encode(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.0);
        }
        fn decode(bytes: &[u8]) -> Option<Self> {
            if bytes.first() == Some(&0xde) {
                return None; // simulate a decode-level rejection
            }
            Some(Blob(bytes.to_vec()))
        }
    }

    fn key(tt: u64, opts: u64) -> CacheKey {
        CacheKey {
            fingerprint: Fingerprint { num_vars: 4, output_index: 0, dc_hash: 0, tt_hash: tt },
            kind: EntryKind::Result,
            options_hash: opts,
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("spp-cache-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn summary(tt: u64, on: Vec<u64>, dc: Vec<u64>) -> FnSummary {
        FnSummary {
            fingerprint: Fingerprint { num_vars: 6, output_index: 0, dc_hash: 0, tt_hash: tt },
            num_vars: 6,
            on_words: on,
            dc_words: dc,
        }
    }

    #[test]
    fn summary_index_finds_nearest_sibling_with_identical_dc() {
        let index = SummaryIndex::new(8);
        index.record(summary(1, vec![0b1111], vec![0]));
        index.record(summary(2, vec![0b1110], vec![0]));
        index.record(summary(3, vec![0b1101], vec![0b1]));

        // Exact match (tt_hash 1, distance 0) is excluded, so the
        // distance-1 sibling wins.
        let best = index.best_sibling(6, &[0b1111], &[0], 8).expect("sibling");
        assert_eq!(best.fingerprint.tt_hash, 2);
        // From an unrecorded ON set, distance 1 beats distance 2.
        let best = index.best_sibling(6, &[0b0111], &[0], 8).expect("sibling");
        assert_eq!(best.fingerprint.tt_hash, 1);
        // DC mismatch filters out tt_hash 3 even though it is closer.
        let best = index.best_sibling(6, &[0b1100], &[0], 8).expect("sibling");
        assert_eq!(best.fingerprint.tt_hash, 2);
        // Distance cap and width mismatch both yield no sibling.
        assert!(index.best_sibling(6, &[!0u64], &[0], 8).is_none());
        assert!(index.best_sibling(7, &[0b0111], &[0], 8).is_none());
    }

    #[test]
    fn summary_index_ranks_siblings_by_distance_summed_over_words() {
        // 8-variable bitmaps span four words. Each sibling's differences
        // sit in a different word, and only the sum over all words ranks
        // them: a distance read from word 0 alone would pick tt_hash 2.
        let eight = |tt: u64, on: [u64; 4]| FnSummary {
            fingerprint: Fingerprint { num_vars: 8, output_index: 0, dc_hash: 0, tt_hash: tt },
            num_vars: 8,
            on_words: on.to_vec(),
            dc_words: vec![0; 4],
        };
        let query = [0u64, 0, 0, 0];
        let index = SummaryIndex::new(8);
        index.record(eight(1, [0, 0b111, 0, 1 << 63])); // distance 4
        index.record(eight(2, [0b1, 0, 0b11, 0])); // distance 3
        index.record(eight(3, [0, 0, 0, 0b11 << 62])); // distance 2
        let best = index.best_sibling(8, &query, &[0; 4], 8).expect("sibling");
        assert_eq!(best.fingerprint.tt_hash, 3);
        let best = index.best_sibling(8, &[0, 0b111, 0, 0], &[0; 4], 8).expect("sibling");
        assert_eq!(best.fingerprint.tt_hash, 1, "distance 1, all in word 3");
        // The cap applies to the summed distance.
        assert!(index.best_sibling(8, &[!0, !0, !0, !0], &[0; 4], 8).is_none());
    }

    #[test]
    fn summary_index_replaces_same_fingerprint_and_evicts_oldest() {
        let index = SummaryIndex::new(2);
        index.record(summary(1, vec![0b1], vec![0]));
        index.record(summary(1, vec![0b11], vec![0])); // refresh, not a second slot
        index.record(summary(2, vec![0b111], vec![0]));
        index.record(summary(3, vec![0b1111], vec![0])); // evicts tt_hash 1
        assert!(index.best_sibling(6, &[0b1], &[0], 1).is_none());
        let best = index.best_sibling(6, &[0b110], &[0], 8).expect("sibling");
        assert_eq!(best.fingerprint.tt_hash, 2);
    }

    #[test]
    fn hit_after_insert_and_miss_before() {
        let cache: Cache<Blob> = Cache::new(CacheConfig::default());
        let ctx = RunCtx::default();
        assert_eq!(cache.get(&key(1, 0), &ctx), None);
        cache.insert(key(1, 0), Blob(vec![9; 10]), &ctx);
        assert_eq!(cache.get(&key(1, 0), &ctx), Some(Blob(vec![9; 10])));
        assert_eq!(cache.get(&key(1, 1), &ctx), None); // different options
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.entries), (1, 2, 1, 1));
        assert!(s.bytes >= 10);
    }

    #[test]
    fn lru_eviction_respects_recency_and_budget() {
        // One shard so eviction order is observable; room for two entries.
        let config = CacheConfig::default()
            .with_shards(1)
            .with_byte_budget(2 * (100 + ENTRY_OVERHEAD));
        let cache: Cache<Blob> = Cache::new(config);
        let ctx = RunCtx::default();
        cache.insert(key(1, 0), Blob(vec![1; 100]), &ctx);
        cache.insert(key(2, 0), Blob(vec![2; 100]), &ctx);
        // Touch key 1 so key 2 is the LRU victim.
        assert!(cache.get(&key(1, 0), &ctx).is_some());
        cache.insert(key(3, 0), Blob(vec![3; 100]), &ctx);
        assert!(cache.get(&key(1, 0), &ctx).is_some());
        assert_eq!(cache.get(&key(2, 0), &ctx), None);
        assert!(cache.get(&key(3, 0), &ctx).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert!(s.bytes <= 2 * (100 + ENTRY_OVERHEAD));
    }

    #[test]
    fn oversized_entries_count_as_immediate_evictions() {
        let cache: Cache<Blob> =
            Cache::new(CacheConfig::default().with_shards(1).with_byte_budget(64));
        let ctx = RunCtx::default();
        cache.insert(key(1, 0), Blob(vec![0; 4096]), &ctx);
        assert_eq!(cache.get(&key(1, 0), &ctx), None);
        let s = cache.stats();
        assert_eq!((s.evictions, s.entries, s.bytes), (1, 0, 0));
    }

    #[test]
    fn get_any_finds_sibling_options() {
        let cache: Cache<Blob> = Cache::new(CacheConfig::default());
        let ctx = RunCtx::default();
        cache.insert(key(5, 10), Blob(vec![1]), &ctx);
        cache.insert(key(5, 11), Blob(vec![2]), &ctx);
        let fp = key(5, 0).fingerprint;
        // Most recently used sibling wins.
        assert_eq!(cache.get_any(&fp, EntryKind::Result), Some(Blob(vec![2])));
        assert!(cache.get(&key(5, 10), &ctx).is_some());
        assert_eq!(cache.get_any(&fp, EntryKind::Result), Some(Blob(vec![1])));
        assert_eq!(cache.get_any(&fp, EntryKind::Eppp), None);
        let other = Fingerprint { tt_hash: 6, ..fp };
        assert_eq!(cache.get_any(&other, EntryKind::Result), None);
    }

    #[test]
    fn disk_round_trip_survives_a_new_cache() {
        let dir = tmp_dir("roundtrip");
        let ctx = RunCtx::default();
        {
            let cache: Cache<Blob> =
                Cache::new(CacheConfig::default().with_dir(&dir));
            cache.insert(key(8, 3), Blob(vec![4, 5, 6]), &ctx);
        }
        let cache: Cache<Blob> = Cache::new(CacheConfig::default().with_dir(&dir));
        assert_eq!(cache.get(&key(8, 3), &ctx), Some(Blob(vec![4, 5, 6])));
        let s = cache.stats();
        assert_eq!((s.hits, s.disk_hits, s.entries), (1, 1, 1));
        // Promoted into memory: a second get is a memory hit.
        assert!(cache.get(&key(8, 3), &ctx).is_some());
        assert_eq!(cache.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_truncated_and_mismatched_files_are_skipped() {
        #[derive(Default)]
        struct Collect(Mutex<Vec<Event>>);
        impl spp_obs::EventSink for Collect {
            fn emit(&self, event: &Event) {
                self.0.lock().unwrap().push(event.clone());
            }
        }
        let dir = tmp_dir("corrupt");
        let ctx = RunCtx::default();
        let seed: Cache<Blob> = Cache::new(CacheConfig::default().with_dir(&dir));
        seed.insert(key(1, 0), Blob(vec![1; 50]), &ctx); // will be bit-flipped
        seed.insert(key(2, 0), Blob(vec![2; 50]), &ctx); // will be truncated
        seed.insert(key(3, 0), Blob(vec![3; 50]), &ctx); // will be emptied
        drop(seed);
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("sppc"))
            .collect();
        paths.sort();
        assert_eq!(paths.len(), 3);
        // Flip one payload byte of the first file (breaks the checksum),
        // truncate the second mid-header, empty the third.
        let mut bytes = std::fs::read(&paths[0]).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&paths[0], &bytes).unwrap();
        let bytes = std::fs::read(&paths[1]).unwrap();
        std::fs::write(&paths[1], &bytes[..10]).unwrap();
        std::fs::write(&paths[2], b"").unwrap();

        let sink = std::sync::Arc::new(Collect::default());
        let ctx = RunCtx::new().with_sink(sink.clone());
        let cache: Cache<Blob> = Cache::new(CacheConfig::default().with_dir(&dir));
        for tt in [1, 2, 3] {
            assert_eq!(cache.get(&key(tt, 0), &ctx), None, "tt={tt}");
        }
        let s = cache.stats();
        assert_eq!((s.corrupt_skipped, s.hits, s.misses), (3, 0, 3));
        let events = sink.0.lock().unwrap();
        let corrupt: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e, Event::CacheCorruptEntry { .. }))
            .collect();
        assert_eq!(corrupt.len(), 3);
        // Bad files were removed; the next lookup is a clean miss.
        drop(events);
        assert_eq!(cache.get(&key(1, 0), &ctx), None);
        assert_eq!(cache.stats().corrupt_skipped, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_and_key_mismatches_are_rejected() {
        #[derive(Clone, Debug, PartialEq)]
        struct Blob2(Vec<u8>);
        impl CacheValue for Blob2 {
            const SCHEMA: u32 = 8; // != Blob::SCHEMA
            fn approx_bytes(&self) -> u64 {
                self.0.len() as u64
            }
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.0);
            }
            fn decode(bytes: &[u8]) -> Option<Self> {
                Some(Blob2(bytes.to_vec()))
            }
        }
        let dir = tmp_dir("schema");
        let ctx = RunCtx::default();
        let old: Cache<Blob> = Cache::new(CacheConfig::default().with_dir(&dir));
        old.insert(key(1, 0), Blob(vec![7; 8]), &ctx);
        drop(old);
        let new: Cache<Blob2> = Cache::new(CacheConfig::default().with_dir(&dir));
        assert_eq!(new.get(&key(1, 0), &ctx), None);
        assert_eq!(new.stats().corrupt_skipped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_rejections_surface_as_corrupt() {
        let dir = tmp_dir("decode");
        let ctx = RunCtx::default();
        let seed: Cache<Blob> = Cache::new(CacheConfig::default().with_dir(&dir));
        // Blob::decode refuses payloads starting with 0xde; the file is
        // otherwise perfectly valid (checksum included).
        seed.insert(key(9, 0), Blob(vec![0xde, 1, 2]), &ctx);
        drop(seed);
        let cache: Cache<Blob> = Cache::new(CacheConfig::default().with_dir(&dir));
        assert_eq!(cache.get(&key(9, 0), &ctx), None);
        assert_eq!(cache.stats().corrupt_skipped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprints_separate_dc_masks_and_outputs() {
        let on = [Gf2Vec::from_u64(4, 3), Gf2Vec::from_u64(4, 5)];
        let f = BoolFn::with_dont_cares(4, on.iter().copied(), std::iter::empty());
        let g = BoolFn::with_dont_cares(4, on.iter().copied(), [Gf2Vec::from_u64(4, 9)]);
        assert_ne!(Fingerprint::of_fn(&f, 0), Fingerprint::of_fn(&g, 0));
        assert_ne!(Fingerprint::of_fn(&f, 0), Fingerprint::of_fn(&f, 1));
        assert_eq!(Fingerprint::of_fn(&f, 0), Fingerprint::of_fn(&f.clone(), 0));
        let combined = Fingerprint::combined(&[Fingerprint::of_fn(&f, 0)]);
        assert_ne!(combined, Fingerprint::of_fn(&f, 0));
    }

    #[test]
    fn stats_json_has_every_gated_field() {
        let json = CacheStats::default().to_json();
        for field in [
            "hits", "misses", "disk_hits", "insertions", "evictions", "corrupt_skipped",
            "quarantined", "warm_starts", "delta_reuses", "delta_rejects", "entries", "bytes",
        ] {
            assert!(json.contains(&format!("\"{field}\": ")), "missing {field} in {json}");
        }
        assert!(CacheStats::default().to_string().contains("0 hits"));
    }
}
