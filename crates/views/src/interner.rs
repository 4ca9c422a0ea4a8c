//! Hash-consing of canonical byte encodings.
//!
//! The `A_*` engine compares canonical view encodings constantly: the C2
//! condition asks whether a node's depth-`p` view occurs in a candidate,
//! the candidate-pool memo is keyed by the encoded label universe, and
//! `Update-Graph` tie-breaks by the `s(G_*)` encoding. All of those are
//! equality tests on `Vec<u8>` values that repeat massively across nodes
//! and phases. The [`Interner`] maps each distinct encoding to a dense
//! [`Sym`] so repeated comparisons and hash lookups cost one `u32`
//! instead of a byte-vector walk, and each distinct encoding is stored
//! exactly once.
//!
//! **Symbols are identity, not order.** [`Sym`]s are handed out in
//! first-seen order, so `Sym` comparisons must never replace the paper's
//! canonical byte orders (`s(G_*)`, the `Update-Graph` total order) — use
//! [`Interner::resolve`] and compare bytes when an *ordering* is needed.
//! Equality of symbols, however, is exactly equality of encodings.

use std::collections::HashMap;

/// An interned encoding: a dense handle that is equal iff the underlying
/// byte encodings are equal (within one [`Interner`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Sym(u32);

impl Sym {
    /// The dense index of this symbol (first-seen order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A hash-consing table for canonical byte encodings.
///
/// # Example
///
/// ```
/// use anonet_views::Interner;
///
/// let mut interner = Interner::new();
/// let a = interner.intern(b"view-encoding");
/// let b = interner.intern(b"view-encoding");
/// assert_eq!(a, b); // one symbol per distinct encoding
/// assert_eq!(interner.resolve(a), b"view-encoding");
/// assert_eq!(interner.sym(b"unseen"), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Interner {
    lookup: HashMap<Box<[u8]>, Sym>,
    entries: Vec<Box<[u8]>>,
    hits: u64,
    misses: u64,
    stored_bytes: usize,
}

impl Interner {
    /// An empty table.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns `bytes`, returning its (new or existing) symbol.
    pub fn intern(&mut self, bytes: &[u8]) -> Sym {
        if let Some(&sym) = self.lookup.get(bytes) {
            self.hits += 1;
            return sym;
        }
        self.misses += 1;
        self.stored_bytes += bytes.len();
        let sym = Sym(u32::try_from(self.entries.len()).expect("fewer than 2^32 encodings"));
        let boxed: Box<[u8]> = bytes.into();
        self.entries.push(boxed.clone());
        self.lookup.insert(boxed, sym);
        sym
    }

    /// Looks up the symbol of an already-interned encoding, without
    /// interning. Read-only, so safe to share across worker threads.
    pub fn sym(&self, bytes: &[u8]) -> Option<Sym> {
        self.lookup.get(bytes).copied()
    }

    /// The bytes behind a symbol.
    ///
    /// # Panics
    ///
    /// Panics if `sym` came from a different interner (index out of range).
    pub fn resolve(&self, sym: Sym) -> &[u8] {
        &self.entries[sym.index()]
    }

    /// Number of distinct encodings interned.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime count of [`intern`](Interner::intern) calls that found an
    /// existing encoding.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime count of [`intern`](Interner::intern) calls that inserted
    /// a new encoding.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total payload bytes of the distinct encodings stored (excludes map
    /// overhead; used as a footprint proxy).
    pub fn stored_bytes(&self) -> usize {
        self.stored_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut t = Interner::new();
        let a = t.intern(b"alpha");
        let b = t.intern(b"beta");
        let a2 = t.intern(b"alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
    }

    #[test]
    fn resolve_round_trips() {
        let mut t = Interner::new();
        let syms: Vec<Sym> = (0u8..50).map(|i| t.intern(&[i, i, i])).collect();
        for (i, sym) in syms.iter().enumerate() {
            assert_eq!(t.resolve(*sym), &[i as u8, i as u8, i as u8]);
        }
    }

    #[test]
    fn sym_lookup_does_not_intern() {
        let mut t = Interner::new();
        assert!(t.is_empty());
        assert_eq!(t.sym(b"x"), None);
        assert!(t.is_empty());
        let s = t.intern(b"x");
        assert_eq!(t.sym(b"x"), Some(s));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn hit_miss_counters_track_lookups() {
        let mut t = Interner::new();
        assert_eq!((t.hits(), t.misses()), (0, 0));
        t.intern(b"alpha");
        t.intern(b"alpha");
        t.intern(b"beta");
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 2);
        assert_eq!(t.stored_bytes(), "alpha".len() + "beta".len());
        // `sym` is read-only and must not move the counters.
        let _ = t.sym(b"alpha");
        assert_eq!((t.hits(), t.misses()), (1, 2));
    }

    #[test]
    fn empty_encoding_is_a_valid_entry() {
        let mut t = Interner::new();
        let e = t.intern(b"");
        assert_eq!(t.resolve(e), b"");
        assert_eq!(t.intern(b""), e);
    }
}
