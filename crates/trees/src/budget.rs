//! Resource budgets for the decision pipelines: wall-clock deadlines plus
//! *fuel*, a coarse work-unit counter charged at state/transition
//! construction sites.
//!
//! The symbolic pipelines (NTA/NBTA products, subset constructions, the
//! MSO→NBTA compilation) are heavy-tailed: a tiny input can blow up
//! non-elementarily. A [`Budget`] makes every such computation complete,
//! fail, or degrade within caller-set bounds. The mechanism is cooperative:
//! hot construction loops hold a [`BudgetHandle`] and call
//! [`BudgetHandle::charge`] (or the zero-cost probe
//! [`BudgetHandle::check_budget`]) once per unit of work; when the fuel or
//! the deadline runs out the probe returns a [`BudgetExceeded`] carrying
//! how much was spent, and the error propagates out through `Result`s —
//! no thread is killed, no partial state leaks.
//!
//! Placement rules (see DESIGN.md §10):
//!
//! * charge **1 unit per constructed state or transition** in worklist and
//!   saturation loops — never per arithmetic op (too hot) and never per
//!   pipeline stage (too coarse to interrupt a blowup);
//! * probes live in the *construction* loops, not on the read paths:
//!   membership tests and accessors stay infallible;
//! * the deadline is polled every [`DEADLINE_POLL_MASK`]+1 charges so the
//!   common case stays one relaxed atomic add.
//!
//! Every fallible operation of the automata and decider crates takes a
//! `&BudgetHandle` and has no unbudgeted twin; a caller without limits
//! passes `&BudgetHandle::unlimited()`, which counts fuel but never fails.
//!
//! This module lives in `tpx-trees` because every crate of the workspace
//! depends on it; the engine re-exports it as `tpx_engine::budget`.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A resource limit configuration: optional fuel, optional deadline.
///
/// `Budget` is the plain-data half (cheap to copy, store in configs, parse
/// from CLI flags); [`Budget::start`] turns it into a live [`BudgetHandle`]
/// whose clock starts ticking at that moment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum work units; `None` = unlimited.
    pub fuel: Option<u64>,
    /// Maximum wall-clock time; `None` = unlimited.
    pub timeout: Option<Duration>,
}

impl Budget {
    /// No limits at all.
    pub const UNLIMITED: Budget = Budget {
        fuel: None,
        timeout: None,
    };

    /// A budget limited to `fuel` work units.
    pub fn with_fuel(self, fuel: u64) -> Budget {
        Budget {
            fuel: Some(fuel),
            ..self
        }
    }

    /// A budget limited to `timeout` of wall-clock time.
    pub fn with_timeout(self, timeout: Duration) -> Budget {
        Budget {
            timeout: Some(timeout),
            ..self
        }
    }

    /// Whether this budget imposes no limit.
    pub fn is_unlimited(&self) -> bool {
        self.fuel.is_none() && self.timeout.is_none()
    }

    /// Starts the clock: a live handle with this budget's limits.
    pub fn start(&self) -> BudgetHandle {
        BudgetHandle::new(*self)
    }
}

/// Which limit a computation ran into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExhaustReason {
    /// The fuel counter crossed its limit.
    Fuel,
    /// The wall-clock deadline passed.
    Deadline,
    /// [`BudgetHandle::cancel`] was called.
    Cancelled,
}

impl fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExhaustReason::Fuel => "fuel exhausted",
            ExhaustReason::Deadline => "deadline exceeded",
            ExhaustReason::Cancelled => "cancelled",
        })
    }
}

/// The error of a failed budget probe: why, and how much was consumed.
#[derive(Clone, Copy, Debug)]
pub struct BudgetExceeded {
    /// Which limit was hit.
    pub reason: ExhaustReason,
    /// Work units charged up to the failing probe.
    pub fuel_spent: u64,
    /// Wall-clock time elapsed since [`Budget::start`].
    pub elapsed: Duration,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after {} fuel units, {:.1?}",
            self.reason, self.fuel_spent, self.elapsed
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// The deadline is polled once every this-many-plus-one charges (must be
/// `2^k - 1`), so the common probe is a single relaxed atomic add.
pub const DEADLINE_POLL_MASK: u64 = 255;

/// A live, shareable budget: atomic fuel counter, deadline, cancel flag.
///
/// One handle is shared (by reference) across every stage of one check;
/// [`BudgetHandle::fuel_spent`] thus accounts for the whole pipeline, and a
/// per-stage delta can be taken by sampling it before and after a stage.
/// All operations are `&self` and thread-safe, so the handle also works as
/// a cross-thread cancellation token.
#[derive(Debug)]
pub struct BudgetHandle {
    fuel_limit: Option<u64>,
    fuel_spent: AtomicU64,
    deadline: Option<Instant>,
    started: Instant,
    cancelled: AtomicBool,
    charges: AtomicU64,
}

impl BudgetHandle {
    /// A live handle enforcing `budget`, with the clock started now.
    pub fn new(budget: Budget) -> Self {
        let started = Instant::now();
        BudgetHandle {
            fuel_limit: budget.fuel,
            fuel_spent: AtomicU64::new(0),
            deadline: budget.timeout.map(|t| started + t),
            started,
            cancelled: AtomicBool::new(false),
            charges: AtomicU64::new(0),
        }
    }

    /// A handle that never fails a probe (still counts fuel).
    pub fn unlimited() -> Self {
        Self::new(Budget::UNLIMITED)
    }

    /// Whether this handle enforces any limit.
    pub fn is_limited(&self) -> bool {
        self.fuel_limit.is_some() || self.deadline.is_some()
    }

    /// Work units charged so far.
    pub fn fuel_spent(&self) -> u64 {
        self.fuel_spent.load(Ordering::Relaxed)
    }

    /// Wall-clock time since the handle was started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Requests cooperative cancellation: the next probe on any thread
    /// sharing this handle fails with [`ExhaustReason::Cancelled`].
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    fn exceeded(&self, reason: ExhaustReason) -> BudgetExceeded {
        BudgetExceeded {
            reason,
            fuel_spent: self.fuel_spent(),
            elapsed: self.elapsed(),
        }
    }

    /// Charges `units` of work and probes every limit. The fuel check is
    /// exact; the deadline is polled every [`DEADLINE_POLL_MASK`]+1 charges.
    pub fn charge(&self, units: u64) -> Result<(), BudgetExceeded> {
        let spent = self.fuel_spent.fetch_add(units, Ordering::Relaxed) + units;
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(self.exceeded(ExhaustReason::Cancelled));
        }
        if let Some(limit) = self.fuel_limit {
            if spent > limit {
                return Err(self.exceeded(ExhaustReason::Fuel));
            }
        }
        if self.deadline.is_some() {
            let n = self.charges.fetch_add(1, Ordering::Relaxed);
            if n & DEADLINE_POLL_MASK == 0 {
                self.check_deadline()?;
            }
        }
        Ok(())
    }

    /// A zero-fuel probe: fails iff the budget is already exhausted. Use at
    /// loop heads that do work without constructing states.
    pub fn check_budget(&self) -> Result<(), BudgetExceeded> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(self.exceeded(ExhaustReason::Cancelled));
        }
        if let Some(limit) = self.fuel_limit {
            if self.fuel_spent() > limit {
                return Err(self.exceeded(ExhaustReason::Fuel));
            }
        }
        self.check_deadline()
    }

    /// Polls the deadline unconditionally (not batched).
    pub fn check_deadline(&self) -> Result<(), BudgetExceeded> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(self.exceeded(ExhaustReason::Deadline)),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_fails_but_counts() {
        let h = BudgetHandle::unlimited();
        for _ in 0..1000 {
            h.charge(3).unwrap();
        }
        h.check_budget().unwrap();
        assert_eq!(h.fuel_spent(), 3000);
        assert!(!h.is_limited());
    }

    #[test]
    fn fuel_limit_is_exact() {
        let h = Budget::default().with_fuel(10).start();
        for _ in 0..10 {
            h.charge(1).unwrap();
        }
        let err = h.charge(1).unwrap_err();
        assert_eq!(err.reason, ExhaustReason::Fuel);
        assert_eq!(err.fuel_spent, 11);
        // Once exhausted, even the zero-fuel probe fails.
        assert!(h.check_budget().is_err());
    }

    #[test]
    fn zero_fuel_fails_on_first_charge() {
        let h = Budget::default().with_fuel(0).start();
        assert!(h.check_budget().is_ok(), "nothing spent yet");
        let err = h.charge(1).unwrap_err();
        assert_eq!(err.reason, ExhaustReason::Fuel);
    }

    #[test]
    fn expired_deadline_fails_probe() {
        let h = Budget::default().with_timeout(Duration::ZERO).start();
        let err = h.check_budget().unwrap_err();
        assert_eq!(err.reason, ExhaustReason::Deadline);
        // Charges notice the deadline within one poll window.
        let h = Budget::default().with_timeout(Duration::ZERO).start();
        let mut failed = false;
        for _ in 0..=DEADLINE_POLL_MASK {
            if h.charge(1).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "deadline not noticed within the poll window");
    }

    #[test]
    fn cancel_trips_every_sharer() {
        let h = Budget::default().with_fuel(u64::MAX).start();
        h.charge(1).unwrap();
        h.cancel();
        assert!(h.is_cancelled());
        let err = h.charge(1).unwrap_err();
        assert_eq!(err.reason, ExhaustReason::Cancelled);
        assert!(h.check_budget().is_err());
    }

    #[test]
    fn budget_config_builders() {
        let b = Budget::default()
            .with_fuel(7)
            .with_timeout(Duration::from_millis(5));
        assert_eq!(b.fuel, Some(7));
        assert_eq!(b.timeout, Some(Duration::from_millis(5)));
        assert!(!b.is_unlimited());
        assert!(Budget::UNLIMITED.is_unlimited());
        let h = b.start();
        assert!(h.is_limited());
        assert_eq!(h.fuel_spent(), 0);
    }
}
