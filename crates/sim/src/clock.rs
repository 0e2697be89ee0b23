//! A shared logical clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A logical clock measured in microseconds.
///
/// The clock is shared by cloning; all clones observe and advance the same
/// instant. Devices advance it as they charge for simulated I/O, so "elapsed
/// simulated time" is simply the difference of two [`SimClock::now`] readings.
///
/// # Examples
///
/// ```
/// use argus_sim::SimClock;
///
/// let clock = SimClock::new();
/// let start = clock.now();
/// clock.advance(250);
/// assert_eq!(clock.now() - start, 250);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    micros: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the current logical time in microseconds.
    pub fn now(&self) -> u64 {
        self.micros.load(Ordering::Relaxed)
    }

    /// Advances the clock by `micros` microseconds and returns the new time.
    pub fn advance(&self, micros: u64) -> u64 {
        self.micros.fetch_add(micros, Ordering::Relaxed) + micros
    }

    /// Moves the clock forward to `deadline` if it is in the future; time
    /// never moves backwards.
    pub fn advance_to(&self, deadline: u64) {
        self.micros.fetch_max(deadline, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(SimClock::new().now(), 0);
    }

    #[test]
    fn advance_accumulates() {
        let c = SimClock::new();
        c.advance(10);
        c.advance(5);
        assert_eq!(c.now(), 15);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(7);
        assert_eq!(b.now(), 7);
        b.advance(3);
        assert_eq!(a.now(), 10);
    }

    #[test]
    fn advance_to_never_rewinds() {
        let c = SimClock::new();
        c.advance(100);
        c.advance_to(50);
        assert_eq!(c.now(), 100);
        c.advance_to(150);
        assert_eq!(c.now(), 150);
    }
}
