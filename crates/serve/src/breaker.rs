//! The one circuit breaker and the one backoff schedule of the serve
//! tiers.
//!
//! The daemon keeps a [`Breaker`] per session spec (its quarantine),
//! the cluster front one per shard. Both count consecutive failures; at
//! the threshold the circuit opens for a [`backoff_ms`] cooldown, and
//! when the cooldown runs out the circuit is half-open: the next
//! attempt goes through, a failure re-opens it for twice as long (up to
//! [`COOLDOWN_CAP`] times the base) and a success resets it. The
//! client's retry policy spaces its attempts on the same schedule.

use std::time::{Duration, Instant};

use gnnmls_par::rng::splitmix64;

use crate::protocol::QuarantineInfo;

/// How far a breaker's cooldown grows, as a multiple of its base: four
/// doublings.
const COOLDOWN_CAP: u64 = 16;

/// Capped exponential backoff with deterministic jitter: `base·2^step`,
/// capped at `cap`, plus up to a quarter of that drawn from
/// `splitmix64(seed)`, capped again. Never below `base` when
/// `cap >= base`; the same arguments always give the same delay.
pub(crate) fn backoff_ms(base: u64, step: u32, cap: u64, seed: u64) -> u64 {
    let cap = cap.max(1);
    let grown = base
        .max(1)
        .saturating_mul(1u64.checked_shl(step).unwrap_or(u64::MAX))
        .min(cap);
    let jitter = splitmix64(seed) % (grown / 4 + 1);
    grown.saturating_add(jitter).min(cap)
}

/// A consecutive-failure circuit breaker. Open means "refuse until
/// `open_until`"; past that instant the circuit is half-open until the
/// next outcome is recorded.
#[derive(Debug, Default)]
pub(crate) struct Breaker {
    /// Consecutive failures since the last success.
    pub(crate) failures: u32,
    /// Times the circuit opened since the last success: the doubling
    /// step of the next cooldown.
    pub(crate) opens: u32,
    open_until: Option<Instant>,
}

impl Breaker {
    /// Milliseconds until the open circuit half-opens (at least 1);
    /// `None` when closed or half-open.
    pub(crate) fn remaining_ms(&self) -> Option<u64> {
        let now = Instant::now();
        let until = self.open_until.filter(|&t| t > now)?;
        Some(((until - now).as_millis() as u64).max(1))
    }

    /// Counts a failure. At `threshold` consecutive failures a circuit
    /// that is not already open opens for
    /// `backoff_ms(base_ms, opens, 16·base_ms, seed ^ opens)`; returns
    /// that cooldown when it did.
    pub(crate) fn record_failure(
        &mut self,
        threshold: u32,
        base_ms: u64,
        seed: u64,
    ) -> Option<u64> {
        self.failures = self.failures.saturating_add(1);
        if self.failures < threshold.max(1) || self.remaining_ms().is_some() {
            return None;
        }
        let base = base_ms.max(1);
        let cap = base.saturating_mul(COOLDOWN_CAP);
        let ms = backoff_ms(base, self.opens, cap, seed ^ u64::from(self.opens));
        self.open_until = Some(Instant::now() + Duration::from_millis(ms));
        self.opens = self.opens.saturating_add(1);
        Some(ms)
    }

    /// Opens the circuit now, as if the threshold had just been reached
    /// (a shard known to be dead). Returns the cooldown when it opened.
    pub(crate) fn trip(&mut self, threshold: u32, base_ms: u64, seed: u64) -> Option<u64> {
        self.failures = self.failures.max(threshold.max(1) - 1);
        self.record_failure(threshold, base_ms, seed)
    }

    /// A success closes the circuit and forgets the history.
    pub(crate) fn record_success(&mut self) {
        *self = Self::default();
    }

    /// This breaker as a `Health` quarantine entry under `key`.
    pub(crate) fn info(&self, key: u64) -> QuarantineInfo {
        let remaining_ms = self.remaining_ms().unwrap_or(0);
        QuarantineInfo {
            key,
            strikes: self.failures,
            open: remaining_ms > 0,
            remaining_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    #[test]
    fn cap_holds_after_jitter_at_every_step() {
        // Caps on, between and just above doublings of the base.
        for (base, cap) in [(500, 8_000), (500, 30_000), (500, 17_000), (10, 100)] {
            for step in 0..70 {
                for seed in 0..64 {
                    let ms = backoff_ms(base, step, cap, seed);
                    assert!(
                        ms <= cap,
                        "base {base} step {step} seed {seed}: {ms} > {cap}"
                    );
                }
            }
        }
    }

    #[test]
    fn cooldown_never_falls_below_base() {
        for base in [1, 3, 10, 500, 5_000] {
            for step in 0..70 {
                for seed in 0..64 {
                    let ms = backoff_ms(base, step, base * COOLDOWN_CAP, seed);
                    assert!(ms >= base, "base {base} step {step} seed {seed}: {ms}");
                }
            }
        }
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let schedule = |seed: u64| -> Vec<u64> {
            (0..4)
                .map(|step| backoff_ms(400, step, 6_400, seed ^ u64::from(step)))
                .collect()
        };
        assert_eq!(schedule(42), schedule(42));
        assert_ne!(schedule(42), schedule(43));
        for (step, ms) in (0..4).zip(schedule(42)) {
            let grown = 400 << step;
            assert!(
                (grown..=grown + grown / 4).contains(&ms),
                "step {step}: {ms}"
            );
        }
    }

    #[test]
    fn failed_half_open_probe_doubles_the_cooldown() {
        let (threshold, base, seed) = (2, 20, 9);
        let mut b = Breaker::default();
        assert_eq!(b.record_failure(threshold, base, seed), None);
        let first = b.record_failure(threshold, base, seed).unwrap();
        assert!((20..=25).contains(&first), "{first}");
        assert!(b.remaining_ms().is_some());
        // A failure while open only counts.
        assert_eq!(b.record_failure(threshold, base, seed), None);
        assert_eq!(b.opens, 1);
        std::thread::sleep(Duration::from_millis(first + 5));
        assert_eq!(b.remaining_ms(), None, "half-open");
        let second = b.record_failure(threshold, base, seed).unwrap();
        assert!((40..=50).contains(&second), "{second}");
        assert_eq!(second, backoff_ms(base, 1, base * COOLDOWN_CAP, seed ^ 1));
        assert_eq!(b.opens, 2);
    }

    #[test]
    fn success_resets_opens() {
        let mut b = Breaker::default();
        b.trip(3, 10_000, 1).unwrap();
        assert_eq!((b.failures, b.opens), (3, 1));
        assert!(b.info(4).open);
        b.record_success();
        assert_eq!((b.failures, b.opens), (0, 0));
        assert_eq!(b.remaining_ms(), None);
        assert!(!b.info(4).open);
        // The history is gone: the threshold counts from zero and the
        // next cooldown is the first step's again.
        assert_eq!(b.record_failure(3, 10_000, 1), None);
        assert_eq!(b.record_failure(3, 10_000, 1), None);
        let ms = b.record_failure(3, 10_000, 1).unwrap();
        assert!((10_000..=12_500).contains(&ms), "{ms}");
    }

    #[test]
    fn front_stops_doubling_at_16x_its_base() {
        let cfg = ClusterConfig::default();
        let base = cfg.breaker_cooldown_ms;
        for opens in 4..40 {
            let mut b = Breaker {
                opens,
                ..Breaker::default()
            };
            let ms = b.trip(cfg.breaker_threshold, base, cfg.seed).unwrap();
            assert_eq!(ms, 16 * base, "opens {opens}");
        }
        // Below the cap it still doubles.
        let mut b = Breaker {
            opens: 3,
            ..Breaker::default()
        };
        let ms = b.trip(cfg.breaker_threshold, base, cfg.seed).unwrap();
        assert!((8 * base..=16 * base).contains(&ms), "{ms}");
    }
}
