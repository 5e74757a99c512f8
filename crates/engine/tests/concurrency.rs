//! Concurrency contracts of the sharded [`ArtifactCache`] and the batch
//! scheduler: exactly-once builds under heavy seeded contention, exact
//! hit/miss accounting, the per-shard eviction bound, and determinism of
//! `check_many_governed` across worker counts.

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tpx_engine::{
    ArtifactCache, CheckOptions, Decider, Engine, Metrics, Task, TopdownDecider, Verdict,
};
use tpx_treeauto::{Nta, NtaBuilder};
use tpx_trees::Alphabet;
use tpx_workload::transducers;

/// A tiny deterministic PRNG (xorshift64*), so the stress schedule is
/// seeded and reproducible without pulling in a rand crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

const THREADS: usize = 16;
const OPS_PER_THREAD: usize = 1_000;
const DISTINCT_KEYS: u64 = 64;

/// 16 threads × 1k `get_or_build` calls over 64 overlapping keys on an
/// unbounded cache: every key builds exactly once (the `OnceLock`
/// contract), and the aggregated hit/miss totals account for every single
/// lookup.
#[test]
fn stress_unbounded_builds_each_key_exactly_once() {
    let cache = ArtifactCache::with_max_entries(0);
    let builds: Vec<AtomicU64> = (0..DISTINCT_KEYS).map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = &cache;
            let builds = &builds;
            s.spawn(move || {
                let mut rng = Rng(0x9E37_79B9 + t as u64);
                for _ in 0..OPS_PER_THREAD {
                    let key = rng.next() % DISTINCT_KEYS;
                    let (v, _) = cache
                        .get_or_build("stress", key, || {
                            Ok::<_, Infallible>({
                                builds[key as usize].fetch_add(1, Ordering::SeqCst);
                                key
                            })
                        })
                        .unwrap();
                    assert_eq!(*v, key, "cache returned another key's artifact");
                }
            });
        }
    });
    for (key, b) in builds.iter().enumerate() {
        assert_eq!(
            b.load(Ordering::SeqCst),
            1,
            "key {key} built a wrong number of times"
        );
    }
    let stats = cache.stats();
    let total_ops = (THREADS * OPS_PER_THREAD) as u64;
    assert_eq!(stats.misses, DISTINCT_KEYS, "one miss per distinct key");
    assert_eq!(stats.hits, total_ops - DISTINCT_KEYS);
    assert_eq!(stats.lookups(), total_ops);
    assert_eq!(stats.entries, DISTINCT_KEYS as usize);
    assert_eq!(stats.evictions, 0);
    // Per-shard counters aggregate exactly to the totals.
    let per_shard = cache.shard_stats();
    assert_eq!(per_shard.iter().map(|s| s.hits).sum::<u64>(), stats.hits);
    assert_eq!(
        per_shard.iter().map(|s| s.misses).sum::<u64>(),
        stats.misses
    );
}

/// The same seeded stress against a *bounded* cache: the entry bound holds
/// at every instant we can observe, rebuild-after-evict keeps the totals
/// consistent (hits + misses = lookups; every build is a miss), and every
/// built entry is either still resident or counted as evicted.
#[test]
fn stress_bounded_cache_keeps_eviction_invariants() {
    const MAX_ENTRIES: usize = 32; // < 64 keys: eviction guaranteed
    let cache = ArtifactCache::with_max_entries(MAX_ENTRIES);
    let builds = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = &cache;
            let builds = &builds;
            s.spawn(move || {
                let mut rng = Rng(0xDEAD_BEEF + t as u64);
                for i in 0..OPS_PER_THREAD {
                    let key = rng.next() % DISTINCT_KEYS;
                    let (v, _) = cache
                        .get_or_build("stress", key, || {
                            Ok::<_, Infallible>({
                                builds.fetch_add(1, Ordering::SeqCst);
                                key
                            })
                        })
                        .unwrap();
                    assert_eq!(*v, key);
                    if i % 64 == 0 {
                        assert!(
                            cache.stats().entries <= MAX_ENTRIES,
                            "entry bound violated mid-run"
                        );
                    }
                }
            });
        }
    });
    let stats = cache.stats();
    let total_ops = (THREADS * OPS_PER_THREAD) as u64;
    assert!(stats.entries <= MAX_ENTRIES);
    assert_eq!(stats.lookups(), total_ops);
    assert_eq!(
        stats.misses,
        builds.load(Ordering::SeqCst),
        "every build is a miss and vice versa"
    );
    assert!(
        stats.misses >= DISTINCT_KEYS,
        "each key built at least once"
    );
    // Conservation: everything ever built is now resident or was evicted.
    assert_eq!(stats.evictions + stats.entries as u64, stats.misses);
}

fn universal(alpha: &Alphabet) -> Nta {
    let mut b = NtaBuilder::new(alpha);
    b.root("u");
    for (_, name) in alpha.entries() {
        b.rule("u", name, "(u | ut)*");
    }
    b.text_rule("ut");
    b.finish()
}

/// Runs the workload suite as a batch on `jobs` workers, returning the
/// verdicts plus the aggregated metric counters.
fn run_suite(jobs: usize) -> (Vec<Verdict>, std::collections::BTreeMap<String, u64>) {
    let alpha = transducers::plain_alphabet(2);
    let schema = universal(&alpha);
    let suite: Vec<_> = transducers::suite(&alpha, 4)
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    let deciders: Vec<TopdownDecider> = suite.iter().map(TopdownDecider::new).collect();
    let tasks: Vec<Task> = deciders
        .iter()
        .map(|d| (d as &dyn Decider, &schema))
        .collect();
    let metrics = Arc::new(Metrics::enabled());
    let engine = Engine::with_jobs(jobs).with_metrics(metrics.clone());
    let verdicts: Vec<Verdict> = engine
        .check_many_governed(&tasks, &CheckOptions::unlimited())
        .into_iter()
        .map(|r| r.expect("suite checks succeed"))
        .collect();
    (verdicts, metrics.snapshot().counters)
}

/// `check_many_governed` is deterministic in everything but timing: verdicts (in
/// task order, including per-stage cache attribution) and every aggregated
/// metric *counter* are identical for `jobs ∈ {1, 2, 4}`. The scheduler
/// guarantees this by prefetching each declared artifact before any check
/// that needs it runs, so hit/miss attribution never depends on which
/// worker got there first.
#[test]
fn check_many_is_deterministic_across_jobs_1_2_4() {
    let (verdicts_1, counters_1) = run_suite(1);
    assert!(!counters_1.is_empty());
    for jobs in [2usize, 4] {
        let (verdicts_n, counters_n) = run_suite(jobs);
        assert_eq!(verdicts_1.len(), verdicts_n.len());
        for (i, (a, b)) in verdicts_1.iter().zip(&verdicts_n).enumerate() {
            assert_eq!(
                format!("{:?}", a.outcome),
                format!("{:?}", b.outcome),
                "verdict {i} differs between jobs=1 and jobs={jobs}"
            );
            // Stage-level cache attribution is part of the contract.
            let attribution = |v: &Verdict| {
                v.stats
                    .stages
                    .iter()
                    .map(|s| (s.stage, s.cache_hit))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                attribution(a),
                attribution(b),
                "cache attribution of task {i} differs at jobs={jobs}"
            );
        }
        assert_eq!(
            counters_1, counters_n,
            "metric counters differ between jobs=1 and jobs={jobs}"
        );
    }
}

/// The work-stealing path agrees with the inline path when checks panic:
/// panic isolation and result ordering survive parallel scheduling.
#[test]
fn parallel_batches_match_sequential_under_contention() {
    let unlimited = CheckOptions::unlimited();
    let alpha = transducers::plain_alphabet(2);
    let schema = universal(&alpha);
    let t = transducers::identity_transducer(&alpha);
    // Many tasks over one (decider, schema): maximal slot contention.
    let d = TopdownDecider::new(&t);
    let tasks: Vec<Task> = (0..32).map(|_| (&d as &dyn Decider, &schema)).collect();
    let sequential = Engine::with_jobs(1)
        .check_many_governed(&tasks, &unlimited)
        .into_iter()
        .map(Result::unwrap)
        .collect::<Vec<_>>();
    let parallel = Engine::with_jobs(8)
        .check_many_governed(&tasks, &unlimited)
        .into_iter()
        .map(Result::unwrap)
        .collect::<Vec<_>>();
    assert_eq!(sequential.len(), parallel.len());
    for (a, b) in sequential.iter().zip(&parallel) {
        assert_eq!(a.is_preserving(), b.is_preserving());
    }
    // 32 checks, 2 distinct stages: the parallel engine deduplicated them
    // into exactly 2 stage tasks too.
    let engine = Engine::with_jobs(8);
    for r in engine.check_many_governed(&tasks, &unlimited) {
        r.unwrap();
    }
    let batch = engine.batch_stats();
    assert_eq!(batch.stage_tasks, 2);
    assert_eq!(batch.checks, 32);
    assert_eq!(engine.cache_stats().misses, 2);
    assert_eq!(
        engine.cache_stats().hits,
        64,
        "every check hits both stages"
    );
}
