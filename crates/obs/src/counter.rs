//! Atomic counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing atomic counter.
///
/// Cloning a `Counter` yields another handle to the *same* underlying value,
/// so a [`crate::Registry`] can hand out a live handle to one of its rows.
///
/// # Examples
///
/// ```
/// use argus_obs::Counter;
///
/// let c = Counter::new();
/// let handle = c.clone();
/// handle.inc();
/// handle.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (for per-run experiment isolation).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = Counter::new();
        let b = a.clone();
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn reset_zeroes_all_handles() {
        let a = Counter::new();
        let b = a.clone();
        a.add(10);
        b.reset();
        assert_eq!(a.get(), 0);
    }

    #[test]
    fn counters_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Counter>();
    }
}
