//! The content-addressed artifact cache, sharded for concurrency.
//!
//! Expensive pipeline intermediates (path automata, rearranging NTAs,
//! MSO→NBTA compilations) are keyed by `(kind, content hash)`, where the
//! hash is the [`tpx_trees::StableHash`] of the schema or transducer the
//! artifact was compiled from. Hashing the *content* (rather than an
//! address or an insertion counter) means two structurally equal schemas
//! share one compilation, across threads and in any order.
//!
//! Concurrency: the key space is split over [`DEFAULT_SHARDS`] independent
//! shards (a power of two, chosen by mixing the kind and key hashes), so
//! two workers touching different artifacts almost never touch the same
//! lock. Within a shard the map is behind an [`RwLock`] whose *read* lock
//! is the hit fast path — concurrent readers of an already-built artifact
//! share the lock, and the only writer section (inserting a fresh slot,
//! applying the eviction bound) contains no user code. Each entry is a
//! [`OnceLock`] slot, so builders run *outside* every lock and every
//! artifact is compiled exactly once even when many workers race to it —
//! the losers block on the slot and receive the winner's `Arc`. Artifacts
//! are uniformly `Arc`-shared: a cache hit is a pointer clone, never a
//! copy.
//!
//! Stats (hits/misses/evictions) are shard-local atomics, aggregated on
//! demand by [`ArtifactCache::stats`]; the eviction bound is likewise
//! enforced per shard, so a full shard resets without stalling its
//! siblings.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

type Slot = OnceLock<Arc<dyn Any + Send + Sync>>;

/// A recoverable cache failure. Generic over the builder's own error type
/// `E` (use [`std::convert::Infallible`] for infallible builders).
#[derive(Debug)]
pub enum CacheError<E> {
    /// `(kind, key)` was previously cached with a different artifact type —
    /// a stage-naming bug in the caller.
    TypeMismatch {
        /// The offending stage name.
        kind: &'static str,
    },
    /// The builder closure panicked. Only its own slot is affected — the
    /// slot is left uninitialized so a later lookup retries the build, and
    /// the shard (and the rest of the cache) stays fully serviceable.
    BuilderPanicked {
        /// The stage whose builder panicked.
        kind: &'static str,
        /// The panic payload rendered as text (when it was a string).
        message: String,
    },
    /// The builder returned an error (not memoized; a later lookup
    /// retries).
    Build(E),
}

impl<E: std::fmt::Display> std::fmt::Display for CacheError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::TypeMismatch { kind } => {
                write!(f, "artifact kind {kind:?} cached with two types")
            }
            CacheError::BuilderPanicked { kind, message } => {
                write!(f, "builder for artifact kind {kind:?} panicked: {message}")
            }
            CacheError::Build(e) => write!(f, "artifact build failed: {e}"),
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for CacheError<E> {}

/// Renders a caught panic payload as text.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Sentinel panic payload used to tunnel a builder `Err` out of
/// `OnceLock::get_or_init` (which only supports infallible init). The
/// actual error rides in a side channel; the payload just marks the unwind
/// as ours.
struct BuildAbort;

thread_local! {
    /// Set while this thread raises a [`BuildAbort`], so the panic hook
    /// stays silent for the sentinel (it is control flow, not a failure).
    static RAISING_BUILD_ABORT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Wraps the current panic hook (once per process) with one that ignores
/// [`BuildAbort`] sentinel unwinds; every other panic reaches the previous
/// hook unchanged.
fn install_abort_quiet_hook() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !RAISING_BUILD_ABORT.with(|f| f.get()) {
                previous(info);
            }
        }));
    });
}

/// Raises the [`BuildAbort`] sentinel without tripping the panic hook.
fn raise_build_abort() -> ! {
    RAISING_BUILD_ABORT.with(|f| f.set(true));
    std::panic::panic_any(BuildAbort);
}

/// Hit/miss/entry/eviction counters of an [`ArtifactCache`] (or one of its
/// shards), taken at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an already-built artifact.
    pub hits: u64,
    /// Lookups that had to build the artifact (at most one per distinct
    /// `(kind, key)` pair per shard generation).
    pub misses: u64,
    /// Distinct artifacts currently held.
    pub entries: usize,
    /// Entries dropped by capacity resets (see
    /// [`ArtifactCache::with_max_entries`]).
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// One shard: an independent map plus its local counters. Counters are
/// atomics (never touched under the map lock); the map's write lock guards
/// only slot insertion and the coarse capacity reset.
struct Shard {
    map: RwLock<HashMap<(&'static str, u64), Arc<Slot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            map: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .map
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// A concurrent, content-hash-keyed memo table for pipeline artifacts.
///
/// Artifacts are stored type-erased (`Arc<dyn Any>`); the `kind` string
/// names the pipeline stage and fixes the concrete type, so a key collision
/// across stages is impossible by construction.
///
/// The entry count is bounded (default [`DEFAULT_MAX_ENTRIES`]), enforced
/// shard-locally: inserting a fresh key into a full shard performs a
/// *coarse reset* — that shard's map is dropped and its next generation
/// starts empty, without touching any other shard. Long batch or fuzz runs
/// over many distinct schemas/transducers therefore hold at most one
/// generation of artifacts per shard instead of growing without bound; the
/// dropped entries are surfaced as [`CacheStats::evictions`].
pub struct ArtifactCache {
    shards: Box<[Shard]>,
    /// Per-shard entry bound (`0` = unbounded). The global bound passed to
    /// [`ArtifactCache::with_max_entries`] is split evenly, so the sum of
    /// shard capacities never exceeds it.
    per_shard_cap: usize,
}

/// Default entry-count bound of [`ArtifactCache::new`].
pub const DEFAULT_MAX_ENTRIES: usize = 4096;

/// Default shard count of [`ArtifactCache::new`] (a power of two; shrunk
/// when the entry bound is smaller, so the bound stays meaningful).
pub const DEFAULT_SHARDS: usize = 16;

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::with_max_entries(DEFAULT_MAX_ENTRIES)
    }
}

impl ArtifactCache {
    /// An empty cache holding at most [`DEFAULT_MAX_ENTRIES`] artifacts
    /// over [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `max_entries` artifacts
    /// (`0` = unbounded), sharded [`DEFAULT_SHARDS`] ways.
    pub fn with_max_entries(max_entries: usize) -> Self {
        Self::with_shards(max_entries, DEFAULT_SHARDS)
    }

    /// An empty cache with an explicit shard count. `shards` is rounded up
    /// to a power of two, then halved until it does not exceed a non-zero
    /// `max_entries` — a bound of 2 over 16 shards would otherwise give
    /// every shard capacity 0 and the bound would mean nothing.
    pub fn with_shards(max_entries: usize, shards: usize) -> Self {
        let mut n = shards.next_power_of_two().max(1);
        if max_entries > 0 {
            while n > max_entries {
                n /= 2;
            }
        }
        ArtifactCache {
            shards: (0..n).map(|_| Shard::new()).collect(),
            per_shard_cap: if max_entries == 0 { 0 } else { max_entries / n },
        }
    }

    /// The number of shards the key space is split over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard `(kind, key)` lives in: FNV-1a over the kind name mixed
    /// with the (already well-distributed) content hash, finished with a
    /// Fibonacci multiply so low-entropy keys still spread.
    fn shard_index(&self, kind: &'static str, key: u64) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in kind.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        h ^= key;
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) & (self.shards.len() - 1)
    }

    /// Fetches (or creates) the slot for `(kind, key)`.
    ///
    /// The hot path is a shard *read* lock: when the key is present the
    /// slot `Arc` is cloned and returned without any exclusive locking.
    /// Only a genuinely fresh key upgrades to the shard write lock, which
    /// applies the per-shard capacity reset first. Poisoned locks are
    /// recovered rather than propagated: the map is only mutated in the
    /// two short critical sections below (and [`ArtifactCache::clear`]),
    /// which contain no user code and are atomic with respect to panics,
    /// so a poisoned lock still guards a consistent map — builder panics
    /// happen strictly outside the locks and poison only their own
    /// `OnceLock` attempt.
    fn slot(&self, kind: &'static str, key: u64) -> (&Shard, Arc<Slot>) {
        let shard = &self.shards[self.shard_index(kind, key)];
        {
            let map = shard.map.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(slot) = map.get(&(kind, key)) {
                return (shard, Arc::clone(slot));
            }
        }
        let mut map = shard.map.write().unwrap_or_else(PoisonError::into_inner);
        if self.per_shard_cap > 0
            && map.len() >= self.per_shard_cap
            && !map.contains_key(&(kind, key))
        {
            // Coarse per-shard reset: drop the shard's generation rather
            // than tracking recency per entry. In-flight builders keep
            // their slots alive through their own `Arc`s and finish
            // unaffected; sibling shards are untouched.
            shard
                .evictions
                .fetch_add(map.len() as u64, Ordering::Relaxed);
            map.clear();
        }
        (shard, Arc::clone(map.entry((kind, key)).or_default()))
    }

    /// Returns the artifact for `(kind, key)`, building it with `build` on
    /// first use. The second component reports whether this was a cache hit
    /// (`true`) or this call built the artifact (`false`).
    ///
    /// The builder may fail, and every failure mode — builder error, builder
    /// panic, a type different from the one `(kind, key)` was first built
    /// with — comes back as a recoverable [`CacheError`] instead of
    /// unwinding. Only *successful* builds are memoized: on `Err`
    /// the slot stays uninitialized (`OnceLock` guarantees a panicked or
    /// aborted initializer leaves the cell empty and lets the next caller
    /// retry), so a budget-starved build can be retried with a larger budget
    /// and a panicking build poisons only its own slot, never the shard.
    pub fn get_or_build<T, E, F>(
        &self,
        kind: &'static str,
        key: u64,
        build: F,
    ) -> Result<(Arc<T>, bool), CacheError<E>>
    where
        T: Send + Sync + 'static,
        E: Send + 'static,
        F: FnOnce() -> Result<T, E>,
    {
        install_abort_quiet_hook();
        let (shard, slot) = self.slot(kind, key);
        let mut built = false;
        let mut failed: Option<E> = None;
        // `OnceLock::get_or_init` wants an infallible initializer; a
        // builder `Err` is tunnelled out as a `BuildAbort` unwind (error in
        // the `failed` side channel) and caught right here. Unwind safety:
        // `built`/`failed` are plain locals written before the panic, and
        // the cache itself is only touched through atomics and the
        // poison-recovering locks.
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            slot.get_or_init(|| {
                built = true;
                match build() {
                    Ok(v) => Arc::new(v) as Arc<dyn Any + Send + Sync>,
                    Err(e) => {
                        failed = Some(e);
                        raise_build_abort();
                    }
                }
            })
            .clone()
        }));
        RAISING_BUILD_ABORT.with(|f| f.set(false));
        let erased = match unwound {
            Ok(a) => a,
            Err(payload) => {
                return Err(match failed {
                    Some(e) => CacheError::Build(e),
                    None if payload.is::<BuildAbort>() => {
                        // Another thread's aborted build propagated to us
                        // through the OnceLock: treat it as a retryable
                        // panic without a message.
                        CacheError::BuilderPanicked {
                            kind,
                            message: "racing builder aborted".into(),
                        }
                    }
                    None => CacheError::BuilderPanicked {
                        kind,
                        message: panic_message(payload.as_ref()),
                    },
                });
            }
        };
        if built {
            shard.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            shard.hits.fetch_add(1, Ordering::Relaxed);
        }
        let arc = erased
            .downcast::<T>()
            .map_err(|_| CacheError::TypeMismatch { kind })?;
        Ok((arc, !built))
    }

    /// An aggregated snapshot of the per-shard hit/miss/entry/eviction
    /// counters.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in self.shards.iter().map(Shard::stats) {
            total.hits += s.hits;
            total.misses += s.misses;
            total.entries += s.entries;
            total.evictions += s.evictions;
        }
        total
    }

    /// Per-shard counter snapshots, in shard order (for observability and
    /// the concurrency tests; most callers want [`ArtifactCache::stats`]).
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(Shard::stats).collect()
    }

    /// Drops every cached artifact in every shard (counters keep
    /// accumulating).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard
                .map
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    #[test]
    fn builds_once_then_hits() {
        let cache = ArtifactCache::new();
        let mut builds = 0;
        let (a, hit) = cache
            .get_or_build("t", 1, || {
                Ok::<_, Infallible>({
                    builds += 1;
                    42usize
                })
            })
            .unwrap();
        assert!(!hit);
        assert_eq!(*a, 42);
        let (b, hit) = cache
            .get_or_build("t", 1, || {
                Ok::<_, Infallible>({
                    builds += 1;
                    99usize
                })
            })
            .unwrap();
        assert!(hit);
        assert_eq!(*b, 42);
        assert_eq!(builds, 1);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                entries: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn single_shard_capacity_reset_is_exact() {
        // One shard of capacity 2 reproduces the pre-sharding coarse-reset
        // semantics exactly: two full resets over five distinct keys.
        let cache = ArtifactCache::with_shards(2, 1);
        assert_eq!(cache.shard_count(), 1);
        for key in 0..5u64 {
            let _ = cache
                .get_or_build("t", key, move || Ok::<_, Infallible>(key))
                .unwrap();
        }
        let stats = cache.stats();
        assert!(stats.entries <= 2, "bound violated: {}", stats.entries);
        assert_eq!(stats.evictions, 4); // two coarse resets of a full shard
        assert_eq!(stats.misses, 5);
        // A re-requested evicted key is rebuilt, not resurrected.
        let (_, hit) = cache
            .get_or_build("t", 0, || Ok::<_, Infallible>(0u64))
            .unwrap();
        assert!(!hit);
    }

    #[test]
    fn sharded_capacity_bound_holds_globally() {
        // The global bound is split across shards; however keys distribute,
        // the cache never holds more than `max_entries` artifacts and every
        // built entry is either still present or counted as evicted.
        let cache = ArtifactCache::with_max_entries(8);
        for key in 0..100u64 {
            let _ = cache
                .get_or_build("t", key, move || Ok::<_, Infallible>(key))
                .unwrap();
        }
        let stats = cache.stats();
        assert!(stats.entries <= 8, "bound violated: {}", stats.entries);
        assert_eq!(stats.misses, 100);
        assert_eq!(stats.evictions + stats.entries as u64, 100);
    }

    #[test]
    fn shard_stats_aggregate_to_totals() {
        let cache = ArtifactCache::new();
        for key in 0..50u64 {
            let _ = cache
                .get_or_build("t", key, move || Ok::<_, Infallible>(key))
                .unwrap();
            let _ = cache
                .get_or_build("t", key, move || Ok::<_, Infallible>(key))
                .unwrap(); // hit
        }
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.len(), cache.shard_count());
        let total = cache.stats();
        assert_eq!(per_shard.iter().map(|s| s.hits).sum::<u64>(), total.hits);
        assert_eq!(
            per_shard.iter().map(|s| s.misses).sum::<u64>(),
            total.misses
        );
        assert_eq!(
            per_shard.iter().map(|s| s.entries).sum::<usize>(),
            total.entries
        );
        assert_eq!(total.hits, 50);
        assert_eq!(total.misses, 50);
        // 50 distinct keys over 16 shards: the mix actually spreads.
        assert!(
            per_shard.iter().filter(|s| s.entries > 0).count() > 1,
            "all 50 keys landed in one shard"
        );
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = ArtifactCache::with_max_entries(0);
        for key in 0..100u64 {
            let _ = cache
                .get_or_build("t", key, move || Ok::<_, Infallible>(key))
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 100);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn kinds_partition_the_key_space() {
        let cache = ArtifactCache::new();
        let (a, _) = cache
            .get_or_build("x", 7, || Ok::<_, Infallible>(1usize))
            .unwrap();
        let (b, _) = cache
            .get_or_build("y", 7, || Ok::<_, Infallible>(2u64))
            .unwrap();
        assert_eq!(*a, 1);
        assert_eq!(*b, 2);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn clear_drops_entries_but_not_counters() {
        let cache = ArtifactCache::new();
        let _ = cache
            .get_or_build("t", 1, || Ok::<_, Infallible>(0u8))
            .unwrap();
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 1);
        let (_, hit) = cache
            .get_or_build("t", 1, || Ok::<_, Infallible>(0u8))
            .unwrap();
        assert!(!hit, "cleared entries are rebuilt");
    }

    #[test]
    fn type_mismatch_is_a_recoverable_error() {
        let cache = ArtifactCache::new();
        let _ = cache
            .get_or_build("t", 1, || Ok::<_, Infallible>(42usize))
            .unwrap();
        let err = cache
            .get_or_build::<u64, Infallible, _>("t", 1, || Ok(7u64))
            .unwrap_err();
        assert!(matches!(err, CacheError::TypeMismatch { kind: "t" }));
        // The cache is still serviceable afterwards, with the original
        // artifact intact.
        let (v, hit) = cache
            .get_or_build("t", 1, || Ok::<_, Infallible>(0usize))
            .unwrap();
        assert!(hit);
        assert_eq!(*v, 42);
    }

    #[test]
    fn failed_build_is_not_memoized_and_retries() {
        let cache = ArtifactCache::new();
        let err = cache
            .get_or_build::<usize, &str, _>("t", 1, || Err("out of fuel"))
            .unwrap_err();
        assert!(matches!(err, CacheError::Build("out of fuel")));
        // Retry with a successful builder: the slot was left empty.
        let (v, hit) = cache
            .get_or_build::<usize, &str, _>("t", 1, || Ok(5))
            .unwrap();
        assert!(!hit);
        assert_eq!(*v, 5);
        // Errors count neither as hits nor as misses.
        assert_eq!(cache.stats().misses, 1);
    }

    /// Regression (poisoning recovery): a panicking build must poison only
    /// its own slot. The same key rebuilds successfully afterwards, other
    /// keys in the same shard are unaffected, and the eviction accounting
    /// stays exact.
    #[test]
    fn panicking_build_poisons_only_its_slot_and_rebuilds() {
        let cache = ArtifactCache::with_shards(4, 1); // everything in one shard
        let err = cache
            .get_or_build::<usize, Infallible, _>("t", 0, || panic!("boom"))
            .unwrap_err();
        let CacheError::BuilderPanicked { kind, message } = err else {
            panic!("expected BuilderPanicked");
        };
        assert_eq!(kind, "t");
        assert!(message.contains("boom"), "{message}");
        // The shard is not wedged: a *different* key in the same shard
        // builds immediately...
        let (v, hit) = cache
            .get_or_build("t", 1, || Ok::<_, Infallible>(10usize))
            .unwrap();
        assert!(!hit);
        assert_eq!(*v, 10);
        // ...and the panicked key itself rebuilds successfully and is then
        // served from cache.
        let (v, hit) = cache
            .get_or_build("t", 0, || Ok::<_, Infallible>(7usize))
            .unwrap();
        assert!(!hit, "the poisoned slot must retry the build");
        assert_eq!(*v, 7);
        let (v, hit) = cache
            .get_or_build("t", 0, || Ok::<_, Infallible>(99usize))
            .unwrap();
        assert!(hit, "the rebuilt artifact is memoized");
        assert_eq!(*v, 7);
        // Eviction stats stay exact after the panic: fill past capacity.
        for key in 10..15u64 {
            let _ = cache
                .get_or_build("t", key, move || Ok::<_, Infallible>(key as usize))
                .unwrap();
        }
        let stats = cache.stats();
        assert!(stats.entries <= 4, "bound violated: {}", stats.entries);
        assert_eq!(stats.misses, 7, "2 initial + 5 fill builds");
        assert_eq!(stats.evictions + stats.entries as u64, 7);
    }

    /// Racing threads where the *first* builder panics: the survivors
    /// retry the build on the same slot and all end up sharing one
    /// successfully built artifact.
    #[test]
    fn racing_builders_recover_from_a_panicking_first_build() {
        use std::sync::atomic::AtomicBool;
        let cache = ArtifactCache::new();
        let poisoned_once = AtomicBool::new(false);
        let built = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    // Retry until a successful build lands; only the very
                    // first builder panics.
                    for _ in 0..16 {
                        let r = cache.get_or_build::<usize, Infallible, _>("race", 1, || {
                            if !poisoned_once.swap(true, Ordering::SeqCst) {
                                panic!("first build dies");
                            }
                            built.fetch_add(1, Ordering::SeqCst);
                            Ok(11)
                        });
                        match r {
                            Ok((v, _)) => {
                                assert_eq!(*v, 11);
                                return;
                            }
                            Err(CacheError::BuilderPanicked { .. }) => continue,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                    panic!("never recovered from the poisoned build");
                });
            }
        });
        assert_eq!(
            built.load(Ordering::SeqCst),
            1,
            "exactly one successful build after the panic"
        );
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn racing_builders_compile_exactly_once() {
        let cache = ArtifactCache::new();
        let built = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let (v, _) = cache
                        .get_or_build("race", 5, || {
                            Ok::<_, Infallible>({
                                built.fetch_add(1, Ordering::Relaxed);
                                // Widen the race window a little.
                                std::thread::sleep(std::time::Duration::from_millis(5));
                                7usize
                            })
                        })
                        .unwrap();
                    assert_eq!(*v, 7);
                });
            }
        });
        assert_eq!(built.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 7);
    }
}
