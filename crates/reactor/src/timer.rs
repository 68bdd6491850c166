//! A hashed timer wheel with slot-granularity coalescing.
//!
//! The serve loop needs thousands of cheap, coarse timers: per-
//! connection stall deadlines, retry backoffs, forward deadlines. A
//! wheel quantizes every deadline up to its slot granularity, so timers
//! landing in the same slot fire together on one wakeup, and never
//! *early* (a deadline is always rounded up).
//!
//! Keys are caller-chosen `u64`s (the serve loop tags them with a
//! purpose in the high byte). Re-scheduling a key moves it; cancelling
//! is O(1) lazy removal (the slot entry is skipped at fire time).

use std::collections::HashMap;
use std::time::{Duration, Instant};

struct Entry {
    key: u64,
    tick: u64,
}

/// The wheel. Single-threaded, owned by the loop.
pub struct TimerWheel {
    start: Instant,
    granularity: Duration,
    slots: Vec<Vec<Entry>>,
    /// key → the tick it is armed for. The single source of truth;
    /// slot entries whose tick disagrees are stale and skipped.
    armed: HashMap<u64, u64>,
    /// Next tick to sweep.
    cursor: u64,
}

impl TimerWheel {
    /// A wheel with the given slot granularity and slot count. The
    /// granularity is the coalescing quantum — 1ms suits connection
    /// stalls and retry backoffs.
    pub fn new(granularity: Duration, slots: usize) -> Self {
        let slots = slots.max(1);
        Self {
            start: Instant::now(),
            granularity: granularity.max(Duration::from_micros(1)),
            slots: (0..slots).map(|_| Vec::new()).collect(),
            armed: HashMap::new(),
            cursor: 0,
        }
    }

    /// Ticks since `start`, rounding *up* (deadlines never fire early).
    fn tick_for(&self, at: Instant) -> u64 {
        let since = at.saturating_duration_since(self.start);
        let g = self.granularity.as_nanos().max(1);
        since.as_nanos().div_ceil(g) as u64
    }

    /// Ticks fully elapsed at `now`, rounding down.
    fn tick_elapsed(&self, now: Instant) -> u64 {
        let since = now.saturating_duration_since(self.start);
        let g = self.granularity.as_nanos().max(1);
        (since.as_nanos() / g) as u64
    }

    /// Arms (or re-arms) `key` to fire no earlier than `at`.
    pub fn schedule(&mut self, key: u64, at: Instant) {
        let tick = self.tick_for(at).max(self.cursor);
        let slot = (tick % self.slots.len() as u64) as usize;
        self.armed.insert(key, tick);
        self.slots[slot].push(Entry { key, tick });
    }

    /// Convenience: arms `key` to fire `after` from now.
    pub fn schedule_after(&mut self, key: u64, after: Duration) {
        self.schedule(key, Instant::now() + after);
    }

    /// Disarms `key` (no-op when not armed).
    pub fn cancel(&mut self, key: u64) {
        self.armed.remove(&key);
    }

    /// Whether `key` is currently armed.
    pub fn is_armed(&self, key: u64) -> bool {
        self.armed.contains_key(&key)
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.armed.len()
    }

    /// No timers armed.
    pub fn is_empty(&self) -> bool {
        self.armed.is_empty()
    }

    /// When the next armed timer is due, for deriving the poll timeout.
    /// `None` when nothing is armed.
    pub fn next_deadline(&self) -> Option<Instant> {
        let tick = *self.armed.values().min()?;
        Some(self.start + mul_duration(self.granularity, tick))
    }

    /// Pops every timer due at `now` into `out` (appended, not
    /// cleared), disarming them. Timers in the same slot fire together
    /// regardless of their sub-granularity spacing.
    pub fn pop_expired(&mut self, now: Instant, out: &mut Vec<u64>) {
        let now_tick = self.tick_elapsed(now);
        if self.armed.is_empty() {
            // Nothing armed: fast-forward so a long idle period costs
            // nothing to sweep later.
            self.cursor = self.cursor.max(now_tick.saturating_add(1));
            return;
        }
        while self.cursor <= now_tick {
            let slot = (self.cursor % self.slots.len() as u64) as usize;
            let due = self.cursor;
            self.slots[slot].retain(|e| {
                if e.tick != due {
                    // A future lap of the wheel, or a stale entry for a
                    // re-scheduled key: keep only if still meaningful.
                    return self.armed.get(&e.key).is_some_and(|&t| t == e.tick);
                }
                if self.armed.get(&e.key) == Some(&due) {
                    self.armed.remove(&e.key);
                    out.push(e.key);
                }
                false
            });
            self.cursor += 1;
            if self.armed.is_empty() {
                self.cursor = self.cursor.max(now_tick.saturating_add(1));
                break;
            }
        }
    }
}

/// `Duration * u64` without the panicking `u32` cap of `Duration::mul`.
fn mul_duration(d: Duration, n: u64) -> Duration {
    Duration::from_nanos((d.as_nanos() as u64).saturating_mul(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wheel_ms(slots: usize) -> TimerWheel {
        TimerWheel::new(Duration::from_millis(1), slots)
    }

    #[test]
    fn fires_in_order_and_never_early() {
        let mut w = wheel_ms(64);
        let t0 = Instant::now();
        w.schedule(1, t0 + Duration::from_millis(5));
        w.schedule(2, t0 + Duration::from_millis(2));
        assert_eq!(w.len(), 2);

        let mut out = Vec::new();
        w.pop_expired(t0 + Duration::from_millis(1), &mut out);
        assert!(out.is_empty(), "nothing due yet");

        w.pop_expired(t0 + Duration::from_millis(3), &mut out);
        assert_eq!(out, vec![2]);

        out.clear();
        w.pop_expired(t0 + Duration::from_millis(10), &mut out);
        assert_eq!(out, vec![1]);
        assert!(w.is_empty());
    }

    #[test]
    fn same_slot_timers_coalesce_into_one_wakeup() {
        // 1ms granularity: deadlines 100µs apart land in the same slot
        // and fire together — the coalescing contract.
        let mut w = wheel_ms(64);
        let t0 = Instant::now();
        for k in 0..8u64 {
            w.schedule(k, t0 + Duration::from_micros(2_000 + 100 * k));
        }
        // All quantize up to the 3ms tick.
        let dl = w.next_deadline().unwrap();
        let mut out = Vec::new();
        w.pop_expired(dl, &mut out);
        out.sort_unstable();
        assert_eq!(out, (0..8).collect::<Vec<_>>(), "one slot, one wakeup");
    }

    #[test]
    fn cancel_prevents_fire_and_reschedule_moves() {
        let mut w = wheel_ms(16);
        let t0 = Instant::now();
        w.schedule(7, t0 + Duration::from_millis(2));
        w.cancel(7);
        assert!(!w.is_armed(7));
        let mut out = Vec::new();
        w.pop_expired(t0 + Duration::from_millis(5), &mut out);
        assert!(out.is_empty());

        // Re-schedule pushes the deadline out; only the new one fires.
        w.schedule(8, t0 + Duration::from_millis(6));
        w.schedule(8, t0 + Duration::from_millis(20));
        w.pop_expired(t0 + Duration::from_millis(10), &mut out);
        assert!(out.is_empty(), "old deadline must not fire");
        w.pop_expired(t0 + Duration::from_millis(25), &mut out);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn wheel_wraparound_does_not_fire_future_laps() {
        // 4 slots of 1ms: a 2ms and a 6ms timer share slot index 2.
        let mut w = wheel_ms(4);
        let t0 = Instant::now();
        w.schedule(1, t0 + Duration::from_millis(2));
        w.schedule(2, t0 + Duration::from_millis(6));
        let mut out = Vec::new();
        w.pop_expired(t0 + Duration::from_millis(3), &mut out);
        assert_eq!(out, vec![1], "the next-lap timer stays armed");
        assert!(w.is_armed(2));
        out.clear();
        w.pop_expired(t0 + Duration::from_millis(7), &mut out);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn next_deadline_tracks_minimum() {
        let mut w = wheel_ms(32);
        assert!(w.next_deadline().is_none());
        let t0 = Instant::now();
        w.schedule(1, t0 + Duration::from_millis(9));
        w.schedule(2, t0 + Duration::from_millis(4));
        let dl = w.next_deadline().unwrap();
        assert!(dl <= t0 + Duration::from_millis(6), "min deadline wins");
        w.cancel(2);
        let dl = w.next_deadline().unwrap();
        assert!(dl >= t0 + Duration::from_millis(8));
    }

    #[test]
    fn long_idle_gap_is_cheap_and_correct() {
        let mut w = wheel_ms(8);
        let t0 = Instant::now();
        let mut out = Vec::new();
        // Idle sweep far into the future with nothing armed.
        w.pop_expired(t0 + Duration::from_secs(5), &mut out);
        assert!(out.is_empty());
        // A timer armed after the gap still fires (cursor must not
        // have run past schedulable ticks).
        w.schedule(3, t0 + Duration::from_secs(5) + Duration::from_millis(2));
        w.pop_expired(
            t0 + Duration::from_secs(5) + Duration::from_millis(4),
            &mut out,
        );
        assert_eq!(out, vec![3]);
    }
}
