//! The benchmark's own arithmetic: percentiles, failure bookkeeping, self
//! time from nested intervals, and the `serve_max_rps` step selection.
//! Everything here is pure, so it is unit-tested in isolation.

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending). `None`
/// when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The percentiles the benchmark reports tails at, highest first.
pub const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_PERCENTILES`] that still has at least
/// ten samples beyond it among `n` samples (`None` below 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// The low decile of unsorted repeats (nearest rank; the minimum below
/// ten samples). 0 when empty.
pub fn low_decile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 10.0).unwrap_or(0.0)
}

/// Median of unsorted values (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// What happened to every operation a workload attempted. A wrong
/// verdict is not counted here: it aborts the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that ended with a checked verdict.
    pub succeeded: u64,
    /// Operations that ended with any other error.
    pub errored: u64,
    /// Requests the server shed or refused.
    pub shed: u64,
    /// Requests sent but never answered.
    pub dropped: u64,
}

impl Tally {
    /// Failed operations: errored + shed/refused + dropped. A check whose
    /// budget runs out either errors (counted here) or degrades to a
    /// bounded verdict, which is a checked verdict like any other.
    pub fn failed(&self) -> u64 {
        self.errored + self.shed + self.dropped
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Adds `other`'s counts into `self`.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.errored += other.errored;
        self.shed += other.shed;
        self.dropped += other.dropped;
    }
}

/// A time interval `[start, end]` in microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Start, µs.
    pub start: f64,
    /// End, µs (≥ start).
    pub end: f64,
}

impl Interval {
    /// Length of the interval.
    pub fn len(&self) -> f64 {
        self.end - self.start
    }

    /// Whether `other` lies within `self`.
    pub fn contains(&self, other: &Interval) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

/// For each interval, the index of its parent: the shortest other interval
/// that contains it and that `may_parent(parent, child)` allows. Ties in
/// length go to the earlier index, and an interval never parents one of
/// its own ancestors (exactly equal intervals nest in index order).
pub fn parents(
    spans: &[Interval],
    may_parent: impl Fn(usize, usize) -> bool,
) -> Vec<Option<usize>> {
    // Sort by (start asc, end desc, index asc): every ancestor of a span
    // precedes it, so a stack walk finds the innermost container.
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| {
        spans[a]
            .start
            .total_cmp(&spans[b].start)
            .then(spans[b].end.total_cmp(&spans[a].end))
            .then(a.cmp(&b))
    });
    let mut out = vec![None; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    for &i in &order {
        while let Some(&top) = open.last() {
            if spans[top].end < spans[i].start {
                open.pop();
            } else {
                break;
            }
        }
        out[i] = open
            .iter()
            .rev()
            .copied()
            .find(|&p| spans[p].contains(&spans[i]) && may_parent(p, i));
        open.push(i);
    }
    out
}

/// Self time of every interval: its length minus the part of it that its
/// children (per `parent`) cover. Overlapping children count once.
pub fn self_times(spans: &[Interval], parent: &[Option<usize>]) -> Vec<f64> {
    let mut children: Vec<Vec<Interval>> = vec![Vec::new(); spans.len()];
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = p {
            children[*p].push(spans[i]);
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.start.total_cmp(&b.start));
            let mut covered = 0.0;
            let mut cursor = s.start;
            for k in kids {
                let (from, to) = (k.start.max(cursor), k.end.min(s.end));
                if to > from {
                    covered += to - from;
                    cursor = to;
                }
            }
            (s.len() - covered).max(0.0)
        })
        .collect()
}

/// One fixed-rate step of the open-loop ladder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateStep {
    /// Offered rate, requests per second.
    pub offered: f64,
    /// Completed (answered, checked) requests per second of the step.
    pub achieved: f64,
    /// p99 latency from scheduled send time, ms.
    pub p99_ms: f64,
    /// Whether in-flight count or queue depth kept growing.
    pub backlog_growing: bool,
    /// Requests of the step that failed (shed, errored, dropped).
    pub failed: u64,
}

impl RateStep {
    /// Whether the step meets the latency limit with no growing backlog
    /// and no failures (a failed request misses any latency limit).
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.p99_ms <= limit_ms && !self.backlog_growing && self.failed == 0
    }
}

/// `serve_max_rps`: the achieved rate of the highest offered rate that
/// passes. `None` when no step passes.
pub fn max_passing_rate(steps: &[RateStep], limit_ms: f64) -> Option<f64> {
    steps
        .iter()
        .filter(|s| s.passes(limit_ms))
        .max_by(|a, b| a.offered.total_cmp(&b.offered))
        .map(|s| s.achieved)
}

/// Whether a series of in-flight (or queue depth) samples, taken evenly
/// over one step, shows a growing backlog: the last quarter's mean is
/// above `floor` and above twice the first quarter's mean.
pub fn backlog_grows(samples: &[f64], floor: f64) -> bool {
    if samples.len() < 4 {
        return false;
    }
    let q = samples.len() / 4;
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let first = mean(&samples[..q]);
    let last = mean(&samples[samples.len() - q..]);
    last > floor && last > 2.0 * first
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(low_decile(&[5.0, 3.0]), 3.0);
        let v: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        assert_eq!(low_decile(&v), 3.0);
        assert_eq!(low_decile(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn failed_share_counts_every_failure_kind() {
        let mut t = Tally {
            attempted: 10,
            succeeded: 5,
            errored: 2,
            shed: 2,
            dropped: 1,
        };
        assert_eq!(t.failed(), 5);
        assert!((t.failed_share() - 0.5).abs() < 1e-12);
        t.merge(&Tally {
            attempted: 10,
            succeeded: 10,
            ..Tally::default()
        });
        assert_eq!(t.attempted, 20);
        assert!((t.failed_share() - 0.25).abs() < 1e-12);
        assert_eq!(Tally::default().failed_share(), 0.0);
    }

    fn iv(start: f64, end: f64) -> Interval {
        Interval { start, end }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100] ⊃ a [10,40] ⊃ a1 [15,20]; b [50,90]; c [60,95]
        // overlaps b but also lies in root.
        let spans = [
            iv(0.0, 100.0),
            iv(10.0, 40.0),
            iv(15.0, 20.0),
            iv(50.0, 90.0),
            iv(60.0, 95.0),
        ];
        let p = parents(&spans, |_, _| true);
        assert_eq!(p, vec![None, Some(0), Some(1), Some(0), Some(0)]);
        let s = self_times(&spans, &p);
        // root: 100 − |[10,40] ∪ [50,95]| = 100 − 75.
        assert_eq!(s, vec![25.0, 25.0, 5.0, 40.0, 35.0]);
    }

    #[test]
    fn equal_intervals_nest_in_index_order_and_filters_apply() {
        let spans = [iv(0.0, 10.0), iv(0.0, 10.0), iv(2.0, 3.0)];
        let p = parents(&spans, |_, _| true);
        assert_eq!(p, vec![None, Some(0), Some(1)]);
        // Forbid span 1 as a parent: span 2 falls through to span 0.
        let p = parents(&spans, |parent, _| parent != 1);
        assert_eq!(p, vec![None, Some(0), Some(0)]);
        let s = self_times(&spans, &p);
        assert_eq!(s, vec![0.0, 10.0, 1.0]);
    }

    fn step(offered: f64, p99_ms: f64, growing: bool, failed: u64) -> RateStep {
        RateStep {
            offered,
            achieved: offered * 0.99,
            p99_ms,
            backlog_growing: growing,
            failed,
        }
    }

    #[test]
    fn max_rate_is_the_highest_passing_step() {
        let steps = [
            step(1000.0, 1.0, false, 0),
            step(2000.0, 2.0, false, 0),
            step(4000.0, 30.0, false, 0), // over the limit
            step(3000.0, 4.0, false, 0),
            step(3500.0, 4.0, true, 0),  // backlog grows
            step(3200.0, 4.0, false, 1), // a failure misses the limit
        ];
        assert_eq!(max_passing_rate(&steps, 5.0), Some(3000.0 * 0.99));
        assert_eq!(max_passing_rate(&steps[2..3], 5.0), None);
    }

    #[test]
    fn backlog_growth_needs_a_rising_tail_above_the_floor() {
        assert!(!backlog_grows(
            &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0],
            4.0
        ));
        assert!(backlog_grows(
            &[1.0, 2.0, 5.0, 9.0, 14.0, 20.0, 30.0, 40.0],
            4.0
        ));
        // Steady but above the floor: not growing.
        assert!(!backlog_grows(&[30.0; 8], 4.0));
        assert!(!backlog_grows(&[1.0, 100.0], 4.0));
    }
}
