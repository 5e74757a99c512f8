//! # `tpx-engine`: the unified decision engine
//!
//! Both deciders of the paper — the PTIME top-down decider (Theorem 4.11)
//! and the DTL decider (Theorems 5.12/5.18) — behind one [`Decider`] trait
//! producing a structured [`Verdict`]: the decision, the witness, and a
//! per-stage account (timings, artifact sizes, cache attribution).
//!
//! The deciders' staged pipelines (in `tpx-topdown::decide` and
//! `tpx-dtl::decide`) expose their expensive intermediates — the `A_N`/`A_T`
//! path automata, the rearranging NTA, the MSO→NBTA counter-example
//! compilation, the schema NBTA — as named artifacts. The engine memoizes
//! them in a content-hash-keyed [`ArtifactCache`] ([`tpx_trees::StableHash`]
//! keys), so checking many transducers against one schema compiles the
//! schema side once, and checking one transducer against many schemas
//! compiles the transducer side once.
//!
//! [`Engine::check_many_governed`] turns a batch of `(decider, schema)` tasks into a
//! *stage graph*: the distinct artifacts the batch needs are deduplicated
//! up front and prefetched as their own tasks, with each check scheduled
//! once its artifacts exist. A work-stealing `std::thread::scope` pool
//! ([`scheduler`]) drains the graph over the sharded cache; each cache
//! entry still builds exactly once, and a single-worker run is fully
//! deterministic.
//!
//! Every check is governed: it runs under the fuel/deadline budget of a
//! [`CheckOptions`] and returns a [`DecisionError`] instead of panicking.
//! Callers without limits pass [`CheckOptions::unlimited`].
//!
//! ```
//! use tpx_engine::{CheckOptions, Engine, TopdownDecider};
//!
//! let (alpha, schema) = tpx_workload::chain_schema(3);
//! let t = tpx_workload::identity_transducer(&alpha);
//! let engine = Engine::new();
//! let unlimited = CheckOptions::unlimited();
//! let verdict = engine.check_governed(&TopdownDecider::new(&t), &schema, &unlimited)?;
//! assert!(verdict.is_preserving());
//! // A second check against the same schema hits the cache.
//! let verdict = engine.check_governed(&TopdownDecider::new(&t), &schema, &unlimited)?;
//! assert!(verdict.stats.stage("topdown/schema").unwrap().cache_hit == Some(true));
//! # Ok::<(), tpx_engine::DecisionError>(())
//! ```

pub mod analysis;
pub mod budget;
pub mod cache;
pub mod conformance;
pub mod decider;
mod engine;
pub mod pipeline;
pub mod retention;
pub mod scheduler;
pub mod verdict;

pub use analysis::{
    analysis_by_name, Analysis, WitnessKind, ANALYSIS_NAMES, OUTPUT_CONFORMANCE, TEXT_PRESERVATION,
    TEXT_RETENTION,
};
pub use budget::{
    Budget, BudgetExceeded, BudgetHandle, CheckOptions, DecisionError, DegradeBound, ExhaustReason,
};
pub use cache::{ArtifactCache, CacheError, CacheStats};
pub use conformance::OutputConformanceDecider;
pub use decider::{Decider, DtlDecider, TopdownDecider};
pub use engine::{BatchStats, Engine, Task};
pub use pipeline::{CachedStage, Pipeline, Stage, StageError, StageKey};
pub use retention::TextRetentionDecider;
pub use scheduler::{RunStats, StageGraph};
pub use tpx_obs::{Metrics, MetricsSnapshot, Span, SpanFields, TraceEvent, Tracer};
pub use verdict::{CheckStats, Outcome, StageReport, Verdict};
