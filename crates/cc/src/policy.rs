//! Concurrency-control policies and the retry/backoff schedule.

use argus_sim::DetRng;

/// What the system does when a lock request collides with a holder.
///
/// The thesis assumes two-phase read/write locks on atomic objects (§2.4)
/// but leaves the collision discipline open. Three classic disciplines are
/// provided so workloads can compare them side by side (experiment E14):
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CcPolicy {
    /// Optimistic conflict-abort: a conflicting request fails immediately;
    /// the caller aborts the action and retries after a backoff. No waiting,
    /// no deadlock possible, but heavy contention wastes work.
    #[default]
    ConflictAbort,
    /// Blocking with deadlock detection: conflicting requests park in a
    /// per-object FIFO queue; every new wait edge triggers a wait-for-graph
    /// cycle search, and the youngest action on a cycle is aborted.
    Blocking,
    /// Blocking with a lock-wait timeout on the simulated clock: parked
    /// requests that wait longer than [`WAIT_TIMEOUT_US`] abort
    /// their action and retry after a backoff. Deadlocks are broken by the
    /// timeout rather than a cycle search.
    Timeout,
}

impl CcPolicy {
    /// A short stable name (table rows, JSON artifacts).
    pub fn name(&self) -> &'static str {
        match self {
            CcPolicy::ConflictAbort => "conflict-abort",
            CcPolicy::Blocking => "blocking",
            CcPolicy::Timeout => "timeout",
        }
    }
}

/// Lock-wait timeout in simulated µs ([`CcPolicy::Timeout`] only).
pub const WAIT_TIMEOUT_US: u64 = 5_000;

/// Backoff ceiling for retry 0, in simulated µs.
const BACKOFF_BASE_US: u64 = 200;
/// Upper bound on any backoff delay, in simulated µs.
const BACKOFF_CAP_US: u64 = 12_800;

/// The delay before retry number `attempt` (0-based): *full jitter*
/// exponential backoff — uniform in `[1, min(12 800, 200 << attempt)]` µs,
/// drawn from the caller's deterministic generator so a seed pins the whole
/// retry schedule.
pub fn backoff_delay_us(attempt: u32, rng: &mut DetRng) -> u64 {
    // The cap holds from attempt 6 on; clamping the shift keeps it far from
    // overflow for any attempt count.
    let ceiling = (BACKOFF_BASE_US << attempt.min(16)).min(BACKOFF_CAP_US);
    1 + rng.gen_range(ceiling)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(CcPolicy::ConflictAbort.name(), "conflict-abort");
        assert_eq!(CcPolicy::Blocking.name(), "blocking");
        assert_eq!(CcPolicy::Timeout.name(), "timeout");
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for attempt in 0..20 {
            let da = backoff_delay_us(attempt, &mut a);
            let db = backoff_delay_us(attempt, &mut b);
            assert_eq!(da, db);
            assert!((1..=12_800).contains(&da), "delay {da} out of range");
        }
    }

    #[test]
    fn backoff_ceiling_grows_then_caps() {
        // The ceiling doubles 200 → 400 → … → 12 800 → 12 800…; sample many
        // draws per attempt and check the maxima respect the ceilings.
        let mut rng = DetRng::new(3);
        for (attempt, ceiling) in [
            (0u32, 200u64),
            (1, 400),
            (2, 800),
            (5, 6_400),
            (6, 12_800),
            (9, 12_800),
        ] {
            for _ in 0..200 {
                assert!(backoff_delay_us(attempt, &mut rng) <= ceiling);
            }
        }
    }

    #[test]
    fn backoff_survives_huge_attempt_counts() {
        let mut rng = DetRng::new(5);
        assert!(backoff_delay_us(u32::MAX, &mut rng) <= 12_800);
    }
}
