//! Crash and decay injection.

use crate::{PageNo, StorageError, StorageResult};
use std::sync::{Arc, Mutex};

/// Kind of low-level device operation observed by a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceOp {
    /// A page read.
    Read,
    /// A page write.
    Write,
    /// A durability barrier (`sync`).
    Force,
}

/// One recorded device operation, in issue order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// What kind of operation.
    pub op: DeviceOp,
    /// Page touched, when the call site knows it (forces have none).
    pub page: Option<PageNo>,
}

/// Lifetime totals of operations a plan has observed (attempted operations:
/// the op that fires a crash is counted, ops refused while down are not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Page reads observed.
    pub reads: u64,
    /// Page writes observed.
    pub writes: u64,
    /// Durability barriers observed.
    pub forces: u64,
}

impl OpCounts {
    /// All operations of any kind.
    pub fn total(&self) -> u64 {
        self.reads + self.writes + self.forces
    }

    /// Per-kind difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &OpCounts) -> OpCounts {
        OpCounts {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            forces: self.forces.saturating_sub(earlier.forces),
        }
    }
}

/// A shared fault plan for one simulated node's device stack.
///
/// A plan is armed with a countdown of low-level page writes (or, via
/// [`FaultPlan::arm_after_ops`], of *any* device operations — reads and
/// forces included, which is what lets a crash land in the middle of
/// recovery's read-mostly log scan); when the countdown reaches zero the node
/// "crashes": the in-progress write is torn and every subsequent operation
/// fails with [`StorageError::Crashed`] until the harness calls
/// [`FaultPlan::heal`] (modelling the node restarting).
///
/// The plan also doubles as the sweep instrument: it keeps lifetime
/// [`OpCounts`] so a harness can measure how many device operations a
/// workload or a recovery issued (the sweepable crash-point range), an
/// optional op trace ([`FaultPlan::start_trace`] / [`FaultPlan::take_trace`])
/// for minimizing counterexamples, and the *frontier* page — the page the
/// most recent write attempt touched, i.e. where a torn write landed.
///
/// Clones share state, so one plan can be threaded through a mirrored disk,
/// the log on top of it, and the recovery system above that.
///
/// # Examples
///
/// ```
/// use argus_stable::FaultPlan;
///
/// let plan = FaultPlan::new();
/// plan.arm_after_writes(2);
/// assert!(plan.note_write().is_ok());   // write 1
/// assert!(plan.note_write().is_ok());   // write 2
/// assert!(plan.note_write().is_err());  // crash fires here
/// assert!(plan.is_crashed());
/// plan.heal();
/// assert!(plan.note_write().is_ok());
/// assert_eq!(plan.op_counts().writes, 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Arc<Mutex<PlanInner>>,
}

#[derive(Debug, Default)]
struct PlanInner {
    /// Remaining low-level writes before a crash fires. `None` = disarmed.
    writes_until_crash: Option<u64>,
    /// Remaining device operations of *any* kind before a crash fires.
    ops_until_crash: Option<u64>,
    /// Set once a crash has fired; cleared by `heal`.
    crashed: bool,
    /// Total crashes fired over the plan's lifetime.
    crash_count: u64,
    /// Lifetime operation totals.
    counts: OpCounts,
    /// In-flight op trace, when recording.
    trace: Option<Vec<TraceEntry>>,
    /// Page of the most recent write attempt (including a torn one).
    frontier: Option<PageNo>,
}

impl FaultPlan {
    /// Creates a disarmed plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the plan to crash when the `n + 1`-th subsequent low-level write
    /// begins (i.e. `n` more writes complete, the next one tears).
    pub fn arm_after_writes(&self, n: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.writes_until_crash = Some(n);
    }

    /// Arms the plan to crash when the `n + 1`-th subsequent device operation
    /// of *any* kind (read, write, or force) begins. Unlike
    /// [`arm_after_writes`](Self::arm_after_writes) this can land a crash in
    /// the middle of a pure read sequence, e.g. recovery's backward log scan.
    pub fn arm_after_ops(&self, n: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.ops_until_crash = Some(n);
    }

    /// Disarms any pending crash without healing an already-fired one.
    pub fn disarm(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.writes_until_crash = None;
        inner.ops_until_crash = None;
    }

    fn note_op(&self, op: DeviceOp, page: Option<PageNo>) -> StorageResult<()> {
        let mut inner = self.inner.lock().unwrap();
        if inner.crashed {
            return Err(StorageError::Crashed);
        }
        match op {
            DeviceOp::Read => inner.counts.reads += 1,
            DeviceOp::Write => {
                inner.counts.writes += 1;
                if page.is_some() {
                    inner.frontier = page;
                }
            }
            DeviceOp::Force => inner.counts.forces += 1,
        }
        if let Some(trace) = &mut inner.trace {
            trace.push(TraceEntry { op, page });
        }
        let ops_fire = match &mut inner.ops_until_crash {
            Some(0) => {
                inner.ops_until_crash = None;
                true
            }
            Some(n) => {
                *n -= 1;
                false
            }
            None => false,
        };
        let write_fire = op == DeviceOp::Write
            && match &mut inner.writes_until_crash {
                Some(0) => {
                    inner.writes_until_crash = None;
                    true
                }
                Some(n) => {
                    *n -= 1;
                    false
                }
                None => false,
            };
        if ops_fire || write_fire {
            inner.crashed = true;
            inner.crash_count += 1;
            let crash_count = inner.crash_count;
            drop(inner);
            argus_obs::with_current(|reg| reg.inc(argus_obs::Count::StableCrashesFired));
            let (kind, lane) = (argus_trace::Kind::CrashFired, argus_trace::STORE_LANE);
            argus_trace::with_current(|t| t.instant(kind, lane, None, &[crash_count]));
            Err(StorageError::Crashed)
        } else {
            Ok(())
        }
    }

    /// Called by devices before every low-level page write.
    ///
    /// Returns `Err(Crashed)` when the crash fires on this write (the caller
    /// must tear the page) or when the node is already down.
    pub fn note_write(&self) -> StorageResult<()> {
        self.note_op(DeviceOp::Write, None)
    }

    /// Like [`note_write`](Self::note_write) but records which page the write
    /// targets, so the sweep can find the crash frontier.
    pub fn note_write_at(&self, pno: PageNo) -> StorageResult<()> {
        self.note_op(DeviceOp::Write, Some(pno))
    }

    /// Called by devices before reads; a down node cannot read either, and an
    /// op-countdown ([`arm_after_ops`](Self::arm_after_ops)) can fire here.
    pub fn note_read(&self) -> StorageResult<()> {
        self.note_op(DeviceOp::Read, None)
    }

    /// Like [`note_read`](Self::note_read) with the page recorded.
    pub fn note_read_at(&self, pno: PageNo) -> StorageResult<()> {
        self.note_op(DeviceOp::Read, Some(pno))
    }

    /// Called by devices before a durability barrier (`sync`).
    pub fn note_force(&self) -> StorageResult<()> {
        self.note_op(DeviceOp::Force, None)
    }

    /// Returns whether the node is currently down.
    pub fn is_crashed(&self) -> bool {
        self.inner.lock().unwrap().crashed
    }

    /// Restarts the node: clears the crashed flag. Volatile state above the
    /// device layer must be discarded by the caller; the media keep whatever
    /// the crash left behind.
    pub fn heal(&self) {
        self.inner.lock().unwrap().crashed = false;
    }

    /// Whether a crash countdown is currently armed.
    pub fn is_armed(&self) -> bool {
        let inner = self.inner.lock().unwrap();
        inner.writes_until_crash.is_some() || inner.ops_until_crash.is_some()
    }

    /// Total crashes fired so far.
    pub fn crash_count(&self) -> u64 {
        self.inner.lock().unwrap().crash_count
    }

    /// Lifetime operation totals (attempted ops; refusals while down are not
    /// counted). Snapshot before and after a phase and subtract
    /// ([`OpCounts::since`]) to size a sweep.
    pub fn op_counts(&self) -> OpCounts {
        self.inner.lock().unwrap().counts
    }

    /// Page targeted by the most recent write attempt — where a torn write
    /// landed, which is where decay composed with a crash is interesting.
    pub fn frontier_page(&self) -> Option<PageNo> {
        self.inner.lock().unwrap().frontier
    }

    /// Begins recording an op trace (clearing any previous one).
    pub fn start_trace(&self) {
        self.inner.lock().unwrap().trace = Some(Vec::new());
    }

    /// Stops recording and returns the trace collected since
    /// [`start_trace`](Self::start_trace); empty if never started.
    pub fn take_trace(&self) -> Vec<TraceEntry> {
        self.inner.lock().unwrap().trace.take().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_plan_never_fires() {
        let plan = FaultPlan::new();
        for _ in 0..1000 {
            plan.note_write().unwrap();
        }
        assert!(!plan.is_crashed());
        assert_eq!(plan.op_counts().writes, 1000);
    }

    #[test]
    fn countdown_fires_exactly_once_armed() {
        let plan = FaultPlan::new();
        plan.arm_after_writes(0);
        assert!(plan.note_write().is_err());
        assert_eq!(plan.crash_count(), 1);
        // Still down until healed.
        assert!(plan.note_write().is_err());
        assert_eq!(plan.crash_count(), 1);
    }

    #[test]
    fn reads_fail_while_down() {
        let plan = FaultPlan::new();
        plan.arm_after_writes(0);
        let _ = plan.note_write();
        assert!(plan.note_read().is_err());
        plan.heal();
        assert!(plan.note_read().is_ok());
    }

    #[test]
    fn disarm_cancels_pending_crash() {
        let plan = FaultPlan::new();
        plan.arm_after_writes(1);
        plan.arm_after_ops(1);
        plan.disarm();
        for _ in 0..10 {
            plan.note_write().unwrap();
        }
    }

    #[test]
    fn clones_share_the_plan() {
        let plan = FaultPlan::new();
        let other = plan.clone();
        plan.arm_after_writes(0);
        assert!(other.note_write().is_err());
        assert!(plan.is_crashed());
    }

    #[test]
    fn op_countdown_counts_reads_and_forces() {
        let plan = FaultPlan::new();
        plan.arm_after_ops(2);
        assert!(plan.note_read().is_ok()); // op 1
        assert!(plan.note_force().is_ok()); // op 2
        assert!(plan.note_read().is_err()); // crash fires on op 3, a read
        assert!(plan.is_crashed());
        assert_eq!(plan.crash_count(), 1);
    }

    #[test]
    fn write_countdown_ignores_reads() {
        let plan = FaultPlan::new();
        plan.arm_after_writes(1);
        for _ in 0..10 {
            plan.note_read().unwrap();
            plan.note_force().unwrap();
        }
        assert!(plan.note_write().is_ok());
        assert!(plan.note_write().is_err());
    }

    #[test]
    fn counts_trace_and_frontier() {
        let plan = FaultPlan::new();
        plan.start_trace();
        plan.note_read_at(7).unwrap();
        plan.note_write_at(3).unwrap();
        plan.note_force().unwrap();
        plan.note_write_at(9).unwrap();
        let counts = plan.op_counts();
        assert_eq!(
            counts,
            OpCounts {
                reads: 1,
                writes: 2,
                forces: 1
            }
        );
        assert_eq!(counts.total(), 4);
        assert_eq!(plan.frontier_page(), Some(9));
        let trace = plan.take_trace();
        assert_eq!(trace.len(), 4);
        assert_eq!(
            trace[1],
            TraceEntry {
                op: DeviceOp::Write,
                page: Some(3)
            }
        );
        assert_eq!(
            trace[2],
            TraceEntry {
                op: DeviceOp::Force,
                page: None
            }
        );
        // Recording stopped: nothing accumulates.
        plan.note_read().unwrap();
        assert!(plan.take_trace().is_empty());
    }

    #[test]
    fn torn_write_counts_and_sets_frontier() {
        let plan = FaultPlan::new();
        plan.arm_after_writes(0);
        assert!(plan.note_write_at(5).is_err());
        assert_eq!(plan.op_counts().writes, 1);
        assert_eq!(plan.frontier_page(), Some(5));
        // Refused ops while down are not counted.
        let _ = plan.note_write_at(6);
        assert_eq!(plan.op_counts().writes, 1);
        assert_eq!(plan.frontier_page(), Some(5));
    }

    #[test]
    fn op_counts_since_subtracts() {
        let plan = FaultPlan::new();
        plan.note_write().unwrap();
        let before = plan.op_counts();
        plan.note_write().unwrap();
        plan.note_read().unwrap();
        let delta = plan.op_counts().since(&before);
        assert_eq!(
            delta,
            OpCounts {
                reads: 1,
                writes: 1,
                forces: 0
            }
        );
    }
}
