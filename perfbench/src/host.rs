//! A probe of the host's own speed, made of code the benchmark owns.
//!
//! The runs share a virtual host whose speed moves by regimes lasting
//! minutes: every timed call, CPU- or memory-bound, in memory or on disk,
//! took 1.3–1.5× longer in a slow regime than in a fast one. The probe
//! sorts a fixed array in RAM with the standard library, a few times per
//! iteration, so it sees the regime the calls see. A run's host factor is
//! the median probe time over the probe's time on the reference host;
//! dividing a timing by it gives reference-host seconds. Nothing the
//! probe runs belongs to the workspace, so a change to the program moves
//! the timings and never the factor.

use std::hint::black_box;
use std::time::Instant;

/// Keys the probe sorts.
const KEYS: usize = 1 << 20;

/// Seconds one probe takes on the reference host (2-core x86-64 VM,
/// 2.1 GHz, in a fast regime).
pub const REFERENCE_SECS: f64 = 0.020;

/// The probe's fixed input and its scratch copy.
pub struct Probe {
    keys: Vec<u64>,
    scratch: Vec<u64>,
}

impl Probe {
    pub fn new() -> Self {
        // xorshift64: fixed keys for every run and seed.
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let keys = (0..KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Probe {
            keys,
            scratch: Vec::with_capacity(KEYS),
        }
    }

    /// Copy and sort the keys once; returns the seconds it took.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.keys);
        self.scratch.sort_unstable();
        black_box(self.scratch[KEYS / 2]);
        t.elapsed().as_secs_f64()
    }
}

/// Median probe time over the reference one (1 when there are no probes).
pub fn factor(probe_secs: &[f64]) -> f64 {
    if probe_secs.is_empty() {
        1.0
    } else {
        crate::stats::median(probe_secs) / REFERENCE_SECS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_median_over_reference() {
        assert_eq!(factor(&[]), 1.0);
        let f = factor(&[REFERENCE_SECS * 3.0, REFERENCE_SECS, REFERENCE_SECS * 2.0]);
        assert!((f - 2.0).abs() < 1e-12);
    }

    #[test]
    fn probe_sorts() {
        let mut p = Probe::new();
        assert!(p.run() > 0.0);
        assert!(p.scratch.windows(2).all(|w| w[0] <= w[1]));
    }
}
