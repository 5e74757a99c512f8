//! Stable content hashing for decision-engine artifact keys.
//!
//! The engine layer (`tpx-engine`) memoizes compiled artifacts — path
//! automata, counter-example automata, schema compilations — in a cache
//! keyed by the *content* of the schema or transducer they were compiled
//! from. `std::hash::Hash` is unsuitable for such keys: its output is
//! randomized per process (`RandomState`) and unspecified across releases.
//! This module provides a fixed 64-bit FNV-1a hasher and a [`StableHash`]
//! trait whose results depend only on the hashed content, so cache keys are
//! reproducible across runs, threads and (for future sharded deployments)
//! machines.

use std::fmt::Write as _;

/// A 64-bit FNV-1a hasher with a fixed, documented algorithm.
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// Absorbs a `usize` (widened to `u64` so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Content-stable hashing: equal content ⇒ equal hash, in every process.
pub trait StableHash {
    /// Feeds `self`'s content into the hasher.
    fn stable_hash(&self, h: &mut StableHasher);
}

/// The stable hash of a single value.
pub fn stable_hash_of<T: StableHash + ?Sized>(value: &T) -> u64 {
    let mut h = StableHasher::new();
    value.stable_hash(&mut h);
    h.finish()
}

/// The stable hash of a value's `Debug` rendering — an escape hatch for
/// deep generic structures (e.g. DTL transducers over arbitrary pattern
/// languages) whose `Debug` output is a faithful function of their content.
pub fn stable_hash_debug<T: std::fmt::Debug + ?Sized>(value: &T) -> u64 {
    struct H(StableHasher);
    impl std::fmt::Write for H {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut sink = H(StableHasher::new());
    write!(sink, "{value:?}").expect("Debug formatting never fails");
    sink.0.finish()
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl StableHash for $t {
            fn stable_hash(&self, h: &mut StableHasher) {
                h.write_u64(*self as u64);
            }
        }
    )*};
}
impl_int!(u8, u16, u32, u64, usize, i32, i64);

impl StableHash for bool {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write(&[u8::from(*self)]);
    }
}

impl StableHash for str {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_usize(self.len());
        h.write(self.as_bytes());
    }
}

impl StableHash for String {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.as_str().stable_hash(h);
    }
}

impl<T: StableHash> StableHash for [T] {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_usize(self.len());
        for x in self {
            x.stable_hash(h);
        }
    }
}

impl<T: StableHash> StableHash for Vec<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.as_slice().stable_hash(h);
    }
}

impl<T: StableHash> StableHash for Option<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            None => h.write(&[0]),
            Some(x) => {
                h.write(&[1]);
                x.stable_hash(h);
            }
        }
    }
}

impl<A: StableHash, B: StableHash> StableHash for (A, B) {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.0.stable_hash(h);
        self.1.stable_hash(h);
    }
}

impl<A: StableHash, B: StableHash, C: StableHash> StableHash for (A, B, C) {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.0.stable_hash(h);
        self.1.stable_hash(h);
        self.2.stable_hash(h);
    }
}

impl<T: StableHash + ?Sized> StableHash for &T {
    fn stable_hash(&self, h: &mut StableHasher) {
        (**self).stable_hash(h);
    }
}

impl StableHash for crate::Symbol {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(u64::from(self.0));
    }
}

/// A fast, deterministic hasher for in-memory keyed lookups (the
/// rustc "Fx" multiply-rotate scheme). Unlike `RandomState` it is not
/// seeded per process, and unlike [`StableHasher`] it is built for speed
/// on small integer keys, not for a documented cross-release value. Not
/// collision-resistant: use it only for keys no adversary chooses.
#[derive(Clone, Copy, Default, Debug)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_content_equal_hash() {
        let a = vec![1u32, 2, 3];
        let b = vec![1u32, 2, 3];
        assert_eq!(stable_hash_of(&a), stable_hash_of(&b));
        assert_ne!(stable_hash_of(&a), stable_hash_of(&vec![1u32, 2, 4]));
    }

    #[test]
    fn length_prefix_disambiguates_concatenation() {
        // ["ab", "c"] vs ["a", "bc"] must differ.
        let x = vec!["ab".to_owned(), "c".to_owned()];
        let y = vec!["a".to_owned(), "bc".to_owned()];
        assert_ne!(stable_hash_of(&x), stable_hash_of(&y));
    }

    #[test]
    fn fx_hash_is_fixed_across_hashers() {
        use std::hash::{BuildHasher, Hash, Hasher};
        let key = (7u32, 11u32);
        let one = FxBuildHasher::default().hash_one(key);
        let mut h = FxHasher::default();
        key.hash(&mut h);
        assert_eq!(one, h.finish());
        assert_ne!(one, FxBuildHasher::default().hash_one((11u32, 7u32)));
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a 64 of the empty input is the offset basis.
        assert_eq!(StableHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = StableHasher::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn debug_hash_is_content_stable() {
        #[derive(Debug)]
        #[allow(dead_code)]
        struct S {
            x: u32,
            s: &'static str,
        }
        let h1 = stable_hash_debug(&S { x: 1, s: "a" });
        let h2 = stable_hash_debug(&S { x: 1, s: "a" });
        let h3 = stable_hash_debug(&S { x: 2, s: "a" });
        assert_eq!(h1, h2);
        assert_ne!(h1, h3);
    }
}
