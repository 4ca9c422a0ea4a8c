//! The content-addressed derandomization cache.
//!
//! The address of every entry is the canonical byte encoding `s(G_*)` of a
//! finite view graph (paper, Section 3.1): the quotient is encoded under
//! its canonical node order, so the key is **isomorphism-invariant** — two
//! 2-hop colored instances whose quotients are isomorphic as labeled
//! graphs produce the *same* key, and therefore share entries. By Lemma 3
//! that covers every pair of lifts of a common base.
//!
//! One table, keyed by `(problem-id, s(G_*))`: the minimal successful
//! [`BitAssignment`] of the canonical simulation, with tapes stored **by
//! canonical position** (index `p` holds the tape of the `p`-th node in
//! the canonical order on `V_*`) so they transfer to any isomorphic
//! presentation of the quotient, plus the attempt count and simulation
//! length needed to reproduce the full derandomizer metadata on a hit.
//! Entries are never evicted: each one replaces a whole canonical search.
//!
//! The table is a [`Mutex`]-guarded hash map. Lock poisoning is
//! deliberately ignored (`into_inner` on poison): a panicking job in a
//! batch must not take the cache down with it, and every value is updated
//! atomically under the lock, so a poisoned state is still consistent.
//!
//! Optionally, a [`CacheBackend`] (see [`crate::persist`]) sits beneath
//! the table as a durable second tier: memory misses fall through to it
//! (outside the lock), disk hits are promoted into memory, and fresh
//! inserts write through. Backend failures never fail a lookup — they
//! count as [`CacheStats::disk_errors`] and the cache runs memory-only.
//!
//! Lookups are **single-flight** ([`DerandCache::lookup_or_claim`]):
//! the first lookup of a `(problem, s(G_*))` key that finds nothing in
//! memory claims the key, and later lookups of it wait until the claim is
//! published or dropped. So every distinct key is looked up on disk and
//! searched once, and the hit/miss counters come out exactly as in a
//! sequential run, at any thread count and in any schedule.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use anonet_graph::BitString;
use anonet_graph::{Label, LabeledGraph};
use anonet_store::StoreError;
use anonet_views::{quotient, ViewMode};

use crate::persist::{CacheBackend, WarmEntry};

/// The content address of a 2-hop colored **instance**: the encoding
/// `s(G_*)` of its quotient ([`ViewQuotient::encoding`]). Two instances
/// share a key iff their quotients are isomorphic — in particular, all
/// lifts of a common base share one key.
///
/// # Errors
///
/// Propagates quotient-construction errors if `g` is not 2-hop colored.
///
/// [`ViewQuotient::encoding`]: anonet_views::ViewQuotient::encoding
pub fn instance_key<L: Label>(g: &LabeledGraph<L>) -> anonet_views::Result<Vec<u8>> {
    Ok(quotient(g, ViewMode::Portless)?.encoding())
}

/// A cached canonical simulation, returned by
/// [`DerandCache::lookup_assignment`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedAssignment {
    /// Tapes by canonical position: `tapes[p]` is the tape of quotient
    /// node `p`, since a quotient's numbering is the canonical order on
    /// `V_*`.
    pub tapes: Vec<BitString>,
    /// Simulations attempted when the entry was first computed.
    pub attempts: usize,
    /// Rounds of the successful canonical simulation.
    pub simulation_rounds: usize,
}

/// Approximate resident size of one assignment entry.
fn assignment_bytes(problem: &str, key: &[u8], cached: &CachedAssignment) -> usize {
    key.len()
        + problem.len()
        + cached.tapes.iter().map(|tape| tape.len().div_ceil(8)).sum::<usize>()
}

#[derive(Debug, Default)]
struct Tables {
    assignments: HashMap<(String, Vec<u8>), CachedAssignment>,
    /// [`assignment_bytes`] summed over `assignments`.
    bytes: usize,
    /// Assignment keys claimed by a lookup that is still searching.
    in_flight: HashSet<(String, Vec<u8>)>,
    /// Lookups that waited for a claimed key (schedule-dependent, so not
    /// part of [`CacheStats`]).
    coalesced: u64,
    assignment_hits: u64,
    assignment_misses: u64,
    disk_hits: u64,
    disk_misses: u64,
    disk_errors: u64,
}

impl Tables {
    /// Stores `cached` under `key` unless an entry is already resident
    /// (first write wins); returns `true` if it stored it.
    fn insert(&mut self, key: (String, Vec<u8>), cached: CachedAssignment) -> bool {
        match self.assignments.entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                self.bytes += assignment_bytes(&slot.key().0, &slot.key().1, &cached);
                slot.insert(cached);
                true
            }
        }
    }
}

/// The answer of [`DerandCache::lookup_or_claim`].
#[derive(Debug)]
pub enum Lookup<'a> {
    /// The assignment was cached: in memory, on disk, or published by the
    /// search this lookup waited for.
    Hit(CachedAssignment),
    /// Nothing is cached, and the caller now holds the key's claim.
    Miss(Claim<'a>),
}

/// The right and duty to search one `(problem, s(G_*))` key: concurrent
/// lookups of the key wait until the claim is published or dropped.
/// Dropping it unpublished (the search failed or panicked) releases the
/// key, so waiters never hang; the next of them claims it in turn.
#[derive(Debug)]
pub struct Claim<'a> {
    cache: &'a DerandCache,
    key: (String, Vec<u8>),
}

impl Claim<'_> {
    /// Stores the found assignment (as
    /// [`DerandCache::insert_assignment`]) and wakes the waiters, which
    /// then hit it.
    pub fn publish(self, cached: CachedAssignment) {
        self.cache.insert_assignment(&self.key.0, &self.key.1, cached);
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.cache.lock().in_flight.remove(&self.key);
        self.cache.released.notify_all();
    }
}

/// A point-in-time snapshot of cache accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct `(problem, quotient)` assignments stored.
    pub assignment_entries: usize,
    /// Assignment lookups that found an entry.
    pub assignment_hits: u64,
    /// Assignment lookups that found nothing.
    pub assignment_misses: u64,
    /// Approximate resident payload size in bytes (keys + tapes).
    pub bytes: usize,
    /// Assignment lookups answered by the persistent tier (each also
    /// counts in [`assignment_hits`](CacheStats::assignment_hits); memory
    /// hits are `assignment_hits - disk_hits`).
    pub disk_hits: u64,
    /// Memory misses the persistent tier also missed.
    pub disk_misses: u64,
    /// Backend calls that failed; the cache degraded to memory-only for
    /// that operation.
    pub disk_errors: u64,
}

impl CacheStats {
    /// Assignment-level hit rate in `[0, 1]`; `0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.assignment_hits + self.assignment_misses;
        if total == 0 {
            0.0
        } else {
            self.assignment_hits as f64 / total as f64
        }
    }

    /// The accounting for a window that started at snapshot `before`:
    /// cumulative counters (hits, misses, disk counters) are differenced,
    /// resident state (entries, bytes) keeps this snapshot's values.
    ///
    /// # Errors
    ///
    /// [`CounterRegression`] if any cumulative counter in `before` exceeds
    /// this snapshot's value. Cumulative counters are monotone within one
    /// cache lifetime, so a backwards counter means `before` belongs to a
    /// different (stale) lifecycle and the window delta is meaningless.
    pub fn delta_from(&self, before: &CacheStats) -> Result<CacheStats, CounterRegression> {
        fn window(
            counter: &'static str,
            after: u64,
            before: u64,
        ) -> Result<u64, CounterRegression> {
            after.checked_sub(before).ok_or(CounterRegression { counter, before, after })
        }
        Ok(CacheStats {
            assignment_entries: self.assignment_entries,
            bytes: self.bytes,
            assignment_hits: window(
                "assignment_hits",
                self.assignment_hits,
                before.assignment_hits,
            )?,
            assignment_misses: window(
                "assignment_misses",
                self.assignment_misses,
                before.assignment_misses,
            )?,
            disk_hits: window("disk_hits", self.disk_hits, before.disk_hits)?,
            disk_misses: window("disk_misses", self.disk_misses, before.disk_misses)?,
            disk_errors: window("disk_errors", self.disk_errors, before.disk_errors)?,
        })
    }

    /// One-line rendering for reports.
    pub fn render(&self) -> String {
        let disk = if self.disk_hits + self.disk_misses + self.disk_errors > 0 {
            format!(
                "; disk hits {} / memory hits {} / disk misses {}, {} disk error(s)",
                self.disk_hits,
                self.assignment_hits - self.disk_hits,
                self.disk_misses,
                self.disk_errors,
            )
        } else {
            String::new()
        };
        format!(
            "cache: {} assignment(s), {} B; \
             hits {} / misses {} (hit rate {:.1}%){disk}",
            self.assignment_entries,
            self.bytes,
            self.assignment_hits,
            self.assignment_misses,
            100.0 * self.hit_rate(),
        )
    }
}

/// A cumulative counter moved backwards between the `before` snapshot and
/// the current one — the snapshots come from different cache lifecycles
/// (e.g. a baseline taken before the cache was reopened), so no window
/// delta exists. Returned by [`CacheStats::delta_from`] instead of a
/// silently wrapped or saturated difference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterRegression {
    /// Name of the offending counter field.
    pub counter: &'static str,
    /// The counter's value in the `before` snapshot.
    pub before: u64,
    /// The counter's (smaller) value in the current snapshot.
    pub after: u64,
}

impl fmt::Display for CounterRegression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache counter {} went backwards ({} -> {}): stale baseline snapshot",
            self.counter, self.before, self.after
        )
    }
}

impl std::error::Error for CounterRegression {}

/// Thread-safe, content-addressed store for derandomization artifacts.
///
/// Shared by wrapping in [`std::sync::Arc`]; every method takes `&self`.
///
/// # Example
///
/// ```
/// use anonet_batch::{CachedAssignment, DerandCache};
/// use anonet_graph::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cache = DerandCache::new();
/// // All lifts of the colored C3 share one content address.
/// let c3 = generators::cycle(3)?.with_labels(vec![1u32, 2, 3])?;
/// let c12 = generators::cycle(12)?
///     .with_labels(vec![1u32, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3])?;
/// let key = anonet_batch::instance_key(&c3)?;
/// assert_eq!(key, anonet_batch::instance_key(&c12)?);
/// let tapes = vec!["1".parse().unwrap(), "0".parse().unwrap(), "0".parse().unwrap()];
/// let cached = CachedAssignment { tapes, attempts: 1, simulation_rounds: 2 };
/// cache.insert_assignment("mis", &key, cached.clone());
/// // The C12 lift is answered by the C3 entry.
/// let c12_key = anonet_batch::instance_key(&c12)?;
/// assert_eq!(cache.lookup_assignment("mis", &c12_key), Some(cached));
/// assert_eq!(cache.stats().assignment_hits, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct DerandCache {
    tables: Mutex<Tables>,
    /// Signalled whenever a claimed key is released.
    released: Condvar,
    backend: Option<Arc<dyn CacheBackend>>,
}

impl DerandCache {
    /// An empty memory-only cache.
    pub fn new() -> Self {
        DerandCache::default()
    }

    /// Layers a durable [`CacheBackend`] beneath the memory table (see
    /// [`crate::PersistentDerandCache`] for the batteries-included
    /// bundle).
    pub fn with_backend(mut self, backend: Arc<dyn CacheBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    fn lock(&self) -> MutexGuard<'_, Tables> {
        // A job that panicked mid-batch must not poison the whole cache;
        // all updates are atomic under the lock, so the state is sound.
        self.tables.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Looks up the canonical simulation for `problem` on the quotient
    /// addressed by `key`, without claiming it: a miss is only reported.
    /// Counts exactly like [`DerandCache::lookup_or_claim`].
    pub fn lookup_assignment(&self, problem: &str, key: &[u8]) -> Option<CachedAssignment> {
        match self.lookup_or_claim(problem, key) {
            Lookup::Hit(cached) => Some(cached),
            Lookup::Miss(_) => None,
        }
    }

    /// Looks up the canonical simulation for `problem` on the quotient
    /// addressed by `key`; on a miss the caller becomes the one searcher
    /// for the key. Entries are cloned out so the lock is held only
    /// briefly.
    ///
    /// Memory answers first. If another lookup has claimed the key, this
    /// one waits for it: a published result is a memory hit, a dropped
    /// claim hands the key on. With a backend attached, the claimant's
    /// memory miss falls through to the disk tier (outside the lock), and
    /// a disk hit is promoted into memory so it pays the read once per
    /// process. A backend error counts as a miss plus a
    /// [`disk_errors`](CacheStats::disk_errors) tick — persistence never
    /// fails a lookup.
    pub fn lookup_or_claim(&self, problem: &str, key: &[u8]) -> Lookup<'_> {
        let k = (problem.to_string(), key.to_vec());
        let mut t = self.lock();
        let mut waited = false;
        loop {
            if let Some(cached) = t.assignments.get(&k) {
                let cached = cached.clone();
                t.assignment_hits += 1;
                t.coalesced += u64::from(waited);
                return Lookup::Hit(cached);
            }
            if !t.in_flight.contains(&k) {
                break;
            }
            waited = true;
            t = self.released.wait(t).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        t.in_flight.insert(k.clone());
        let Some(backend) = &self.backend else {
            t.assignment_misses += 1;
            return Lookup::Miss(Claim { cache: self, key: k });
        };
        drop(t);
        let claim = Claim { cache: self, key: k };
        match backend.load_assignment(problem, key) {
            Ok(Some(cached)) => {
                let mut t = self.lock();
                t.assignment_hits += 1;
                t.disk_hits += 1;
                // A plain insert_assignment may have won; first write wins.
                t.insert(claim.key.clone(), cached.clone());
                drop(t);
                drop(claim);
                Lookup::Hit(cached)
            }
            Ok(None) => {
                let mut t = self.lock();
                t.assignment_misses += 1;
                t.disk_misses += 1;
                Lookup::Miss(claim)
            }
            Err(_) => {
                let mut t = self.lock();
                t.assignment_misses += 1;
                t.disk_errors += 1;
                Lookup::Miss(claim)
            }
        }
    }

    /// Lookups that found their key claimed by a concurrent search and
    /// waited for it. Depends on the thread schedule, unlike every
    /// [`CacheStats`] counter.
    pub fn coalesced(&self) -> u64 {
        self.lock().coalesced
    }

    /// Stores the canonical simulation for `problem` on the quotient
    /// addressed by `key`. Tapes must be in canonical-position order. First
    /// write wins: concurrent inserts of the same key keep the existing
    /// entry (both compute the same canonical object). A fresh insert
    /// writes through to the backend, if one is attached.
    pub fn insert_assignment(&self, problem: &str, key: &[u8], cached: CachedAssignment) {
        let fresh = self.lock().insert((problem.to_string(), key.to_vec()), cached.clone());
        if fresh {
            if let Some(backend) = &self.backend {
                if backend.store_assignment(problem, key, &cached).is_err() {
                    self.lock().disk_errors += 1;
                }
            }
        }
    }

    /// Preloads up to `limit` entries from the backend into the memory
    /// table (no-op without a backend). Hit/miss counters are untouched;
    /// already-resident entries keep their memory copy. Returns the
    /// number of entries loaded.
    ///
    /// # Errors
    ///
    /// Backend read errors (entries decoded before the failure stay
    /// loaded).
    pub fn warm(&self, limit: usize) -> Result<usize, StoreError> {
        let Some(backend) = &self.backend else { return Ok(0) };
        let entries = backend.warm(limit)?;
        let mut t = self.lock();
        let mut loaded = 0;
        for WarmEntry { problem, key, cached } in entries {
            loaded += usize::from(t.insert((problem, key), cached));
        }
        Ok(loaded)
    }

    /// Flushes the backend, if one is attached.
    ///
    /// # Errors
    ///
    /// Backend I/O.
    pub fn flush(&self) -> Result<(), StoreError> {
        match &self.backend {
            Some(backend) => backend.flush(),
            None => Ok(()),
        }
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.lock().assignments.len()
    }

    /// `true` if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the accounting counters.
    pub fn stats(&self) -> CacheStats {
        let t = self.lock();
        CacheStats {
            assignment_entries: t.assignments.len(),
            assignment_hits: t.assignment_hits,
            assignment_misses: t.assignment_misses,
            disk_hits: t.disk_hits,
            disk_misses: t.disk_misses,
            disk_errors: t.disk_errors,
            bytes: t.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_graph::generators;

    fn colored_cycle(n: usize) -> LabeledGraph<u32> {
        let labels: Vec<u32> = (0..n).map(|i| (i % 3) as u32 + 1).collect();
        generators::cycle(n).unwrap().with_labels(labels).unwrap()
    }

    fn tape(bits: &str) -> BitString {
        bits.parse().unwrap()
    }

    #[test]
    fn lifts_share_an_address() {
        let keys: Vec<Vec<u8>> =
            [3usize, 6, 9, 12].iter().map(|&n| instance_key(&colored_cycle(n)).unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn different_bases_have_different_addresses() {
        let c3 = instance_key(&colored_cycle(3)).unwrap();
        let c4 =
            instance_key(&generators::cycle(4).unwrap().with_labels(vec![1u32, 2, 3, 4]).unwrap())
                .unwrap();
        assert_ne!(c3, c4);
    }

    #[test]
    fn assignment_roundtrip_and_accounting() {
        let cache = DerandCache::new();
        let key = instance_key(&colored_cycle(6)).unwrap();
        assert_eq!(cache.lookup_assignment("mis", &key), None);
        let cached = CachedAssignment {
            tapes: vec![tape("101"), tape("011"), tape("000")],
            attempts: 7,
            simulation_rounds: 4,
        };
        cache.insert_assignment("mis", &key, cached.clone());
        assert_eq!(cache.lookup_assignment("mis", &key), Some(cached));
        // Different problem id: separate entry space.
        assert_eq!(cache.lookup_assignment("coloring", &key), None);
        let s = cache.stats();
        assert_eq!(s.assignment_entries, 1);
        assert_eq!(s.assignment_hits, 1);
        assert_eq!(s.assignment_misses, 2);
        assert!(s.bytes > key.len());
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn first_insert_wins() {
        let cache = DerandCache::new();
        let key = instance_key(&colored_cycle(3)).unwrap();
        let first = CachedAssignment { tapes: vec![tape("1")], attempts: 1, simulation_rounds: 1 };
        let second = CachedAssignment { tapes: vec![tape("0")], attempts: 9, simulation_rounds: 9 };
        cache.insert_assignment("p", &key, first.clone());
        cache.insert_assignment("p", &key, second);
        assert_eq!(cache.lookup_assignment("p", &key), Some(first));
    }

    #[test]
    fn concurrent_use_is_consistent() {
        use std::sync::Arc;
        let cache = Arc::new(DerandCache::new());
        let key = instance_key(&colored_cycle(12)).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let key = key.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        if cache.lookup_assignment("mis", &key).is_none() {
                            cache.insert_assignment(
                                "mis",
                                &key,
                                CachedAssignment {
                                    tapes: vec![tape("101"), tape("011"), tape("000")],
                                    attempts: 3,
                                    simulation_rounds: i + 1,
                                },
                            );
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.assignment_entries, 1);
        assert_eq!(s.assignment_hits + s.assignment_misses, 400);
        // Whoever inserted first won; the entry is internally consistent.
        let got = cache.lookup_assignment("mis", &key).unwrap();
        assert_eq!(got.tapes.len(), 3);
        assert_eq!(got.attempts, 3);
    }

    fn cached(rounds: usize) -> CachedAssignment {
        CachedAssignment { tapes: vec![tape("10")], attempts: 1, simulation_rounds: rounds }
    }

    /// Eight workers look up one key at once; whoever claims it "searches"
    /// (sleeps) and publishes. Counted exactly as eight sequential jobs.
    fn single_flight_race(cache: &DerandCache) -> usize {
        let searches = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| match cache.lookup_or_claim("mis", b"k") {
                    Lookup::Hit(hit) => assert_eq!(hit, cached(1)),
                    Lookup::Miss(claim) => {
                        searches.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        claim.publish(cached(1));
                    }
                });
            }
        });
        searches.into_inner()
    }

    #[test]
    fn single_flight_searches_each_key_once() {
        let cache = DerandCache::new();
        assert_eq!(single_flight_race(&cache), 1);
        let s = cache.stats();
        assert_eq!((s.assignment_misses, s.assignment_hits), (1, 7));
        assert!(cache.coalesced() <= 7);
    }

    #[test]
    fn dropped_claim_hands_the_key_on() {
        let cache = DerandCache::new();
        let Lookup::Miss(claim) = cache.lookup_or_claim("mis", b"k") else {
            panic!("an empty cache must miss")
        };
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| match cache.lookup_or_claim("mis", b"k") {
                Lookup::Miss(claim) => claim.publish(cached(2)),
                Lookup::Hit(_) => panic!("nothing was published"),
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(claim); // the first search failed
            waiter.join().unwrap();
        });
        assert_eq!(cache.lookup_assignment("mis", b"k"), Some(cached(2)));
        let s = cache.stats();
        assert_eq!((s.assignment_misses, s.assignment_hits), (2, 1));
    }

    /// A disk tier that starts empty and counts its reads.
    #[derive(Debug, Default)]
    struct CountingBackend {
        loads: Mutex<u64>,
    }

    impl CacheBackend for CountingBackend {
        fn load_assignment(
            &self,
            _: &str,
            _: &[u8],
        ) -> Result<Option<CachedAssignment>, StoreError> {
            *self.loads.lock().unwrap() += 1;
            Ok(None)
        }
        fn store_assignment(
            &self,
            _: &str,
            _: &[u8],
            _: &CachedAssignment,
        ) -> Result<(), StoreError> {
            Ok(())
        }
        fn warm(&self, _: usize) -> Result<Vec<WarmEntry>, StoreError> {
            Ok(Vec::new())
        }
        fn flush(&self) -> Result<(), StoreError> {
            Ok(())
        }
    }

    #[test]
    fn single_flight_covers_the_disk_miss_path() {
        let backend = Arc::new(CountingBackend::default());
        let cache = DerandCache::new().with_backend(Arc::clone(&backend) as Arc<dyn CacheBackend>);
        assert_eq!(single_flight_race(&cache), 1);
        assert_eq!(*backend.loads.lock().unwrap(), 1);
        let s = cache.stats();
        assert_eq!((s.assignment_misses, s.disk_misses, s.assignment_hits), (1, 1, 7));
    }

    #[test]
    fn delta_from_rejects_backwards_counters() {
        let after =
            CacheStats { assignment_hits: 5, assignment_misses: 2, ..CacheStats::default() };
        // A snapshot from a previous cache lifecycle.
        let stale = CacheStats { assignment_hits: 9, ..CacheStats::default() };
        let err = after.delta_from(&stale).unwrap_err();
        assert_eq!(err.counter, "assignment_hits");
        assert_eq!(err.before, 9);
        assert_eq!(err.after, 5);
        assert!(err.to_string().contains("assignment_hits"));
        assert!(err.to_string().contains("stale"));

        // The monotone window still diffs cleanly.
        let before =
            CacheStats { assignment_hits: 2, assignment_misses: 1, ..CacheStats::default() };
        let delta = after.delta_from(&before).unwrap();
        assert_eq!(delta.assignment_hits, 3);
        assert_eq!(delta.assignment_misses, 1);
        // Identity window: every cumulative counter is zero.
        let zero = after.delta_from(&after).unwrap();
        assert_eq!(zero.assignment_hits, 0);
        assert_eq!(zero.assignment_misses, 0);
        assert_eq!(zero.disk_hits, 0);
    }
}
