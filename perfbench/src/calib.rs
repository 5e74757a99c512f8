//! Host-speed calibration.
//!
//! The host this benchmark was built on is shared, and for seconds to
//! minutes at a time the same check runs up to 1.6× slower while
//! neighbours load the machine. A fixed kernel of the benchmark's own —
//! building small hash sets of pairs and a B-tree keyed by sorted vectors,
//! the allocation-heavy mix the program's automaton constructions share —
//! slows down with it: over four minutes on that host a cold chain-32
//! check ranged from 55 to 100 ms while its ratio to the kernel stayed
//! between 149 and 162. So the benchmark runs the kernel between units of work
//! and scales every time to a host on which the kernel takes
//! [`REFERENCE_KERNEL_MS`]: `normalized = wall × reference ÷ kernel`.
//! The kernel never calls the program, so the program's own speed-ups and
//! slow-downs pass through unchanged.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// The kernel time of the reference host, ms (the build host, unloaded).
pub const REFERENCE_KERNEL_MS: f64 = 0.45;

/// One run of the kernel, ms.
fn kernel_ms(salt: u64) -> f64 {
    let t0 = Instant::now();
    let mut x = salt | 1;
    let mut sets: Vec<HashSet<(u32, u32)>> = Vec::with_capacity(300);
    let mut index: BTreeMap<Vec<u32>, usize> = BTreeMap::new();
    for i in 0..300 {
        let mut set = HashSet::new();
        for _ in 0..20 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            set.insert(((x % 97) as u32, (x % 89) as u32));
        }
        let mut key: Vec<u32> = set.iter().map(|&(a, b)| a * 100 + b).collect();
        key.sort_unstable();
        index.insert(key, i);
        sets.push(set);
    }
    std::hint::black_box((sets.len(), index.len()));
    t0.elapsed().as_secs_f64() * 1e3
}

/// The host's current speed: the median of three kernel runs, ms.
pub fn probe() -> f64 {
    let mut t = [kernel_ms(1), kernel_ms(2), kernel_ms(3)];
    t.sort_by(f64::total_cmp);
    t[1]
}

/// Scale factor for work that ran between two probes.
pub fn factor(before_ms: f64, after_ms: f64) -> f64 {
    2.0 * REFERENCE_KERNEL_MS / (before_ms + after_ms)
}

/// A probe chain: each unit of work is scaled by the probes on either
/// side of it, and the probe after one unit is the probe before the next.
pub struct Calib {
    last: f64,
    probe: fn() -> f64,
}

impl Calib {
    /// Starts the chain with a fresh probe on the calling thread.
    pub fn new() -> Self {
        Self::with_probe(probe)
    }

    /// Starts a chain that probes with `probe` (e.g. on another CPU).
    pub fn with_probe(probe: fn() -> f64) -> Self {
        Calib {
            last: probe(),
            probe,
        }
    }

    /// Probes after a unit of work; returns the unit's scale factor.
    pub fn next_factor(&mut self) -> f64 {
        let after = (self.probe)();
        let k = factor(self.last, after);
        self.last = after;
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_to_the_reference() {
        assert!((factor(0.45, 0.45) - 1.0).abs() < 1e-12);
        // On a host twice as slow as the reference every time halves.
        assert!((factor(0.9, 0.9) - 0.5).abs() < 1e-12);
        assert!((factor(0.4, 0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probes_chain() {
        let mut c = Calib::new();
        let k = c.next_factor();
        assert!(k.is_finite() && k > 0.0);
    }
}
