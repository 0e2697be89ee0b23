//! Per-object FIFO wait queues for lock requests that could not be granted.

use crate::WaitForGraph;
use argus_objects::{ActionId, GuardianId, HeapId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The mode of a lock request on an atomic object (§2.4.1). A mutex seize
/// (§2.4.2) queues as [`LockMode::Exclusive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// A read lock; compatible with other read locks.
    Shared,
    /// A write lock (or mutex possession); compatible with nothing.
    Exclusive,
}

impl LockMode {
    /// Whether two requests in these modes could both be granted.
    pub fn compatible(self, other: LockMode) -> bool {
        self == LockMode::Shared && other == LockMode::Shared
    }

    /// The mode as a static name, for journal events and trace spans.
    pub fn name(self) -> &'static str {
        match self {
            LockMode::Shared => "shared",
            LockMode::Exclusive => "exclusive",
        }
    }
}

/// Names one lockable object in the world: a heap slot at a guardian.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ObjKey {
    /// The guardian whose heap holds the object.
    pub gid: GuardianId,
    /// The object's volatile address in that heap.
    pub hid: HeapId,
}

/// The lock holders of one object, snapshotted from a heap when the
/// wait-for graph is built.
#[derive(Debug, Clone, Default)]
pub struct LockHolders {
    /// The write-lock holder (or mutex possessor), if any.
    pub writer: Option<ActionId>,
    /// Read-lock holders, in action-id order.
    pub readers: Vec<ActionId>,
}

/// A parked lock request: the action, what it wants, and the continuation
/// the scheduler runs once the request is granted.
#[derive(Debug)]
pub struct Waiter<C> {
    /// The requesting action.
    pub aid: ActionId,
    /// The requested mode.
    pub mode: LockMode,
    /// Simulated time at which the request parked.
    pub parked_at: u64,
    /// Simulated deadline after which the request times out ([`crate::CcPolicy::Timeout`]).
    pub deadline: Option<u64>,
    /// The lock holder this request is queued behind at park time (the
    /// writer, or the first reader blocking an exclusive request), when one
    /// is known. Carried so the grant-time trace span can name who was
    /// waited on.
    pub holder: Option<ActionId>,
    /// What to run when the request is granted.
    pub cont: C,
}

/// The lock manager: a FIFO wait queue per contended object.
///
/// The manager itself never touches a heap — granting is a two-phase
/// conversation with the owner of the heaps (the guardian `World`): the
/// owner snapshots [`LockManager::fronts`], attempts the actual heap
/// acquisition for each front, and pops granted waiters with
/// [`LockManager::take_front`]. That split keeps this structure free of any
/// borrow of guardian state and keeps grant order deterministic (queues
/// iterate in [`ObjKey`] order, each queue in FIFO order).
#[derive(Debug)]
pub struct LockManager<C> {
    queues: BTreeMap<ObjKey, VecDeque<Waiter<C>>>,
}

impl<C> Default for LockManager<C> {
    fn default() -> Self {
        Self {
            queues: BTreeMap::new(),
        }
    }
}

impl<C> LockManager<C> {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parks a request at the back of `key`'s queue. An `upgrade` (the
    /// action already holds a shared lock and wants exclusive) parks at the
    /// *front*: it cannot give way to later arrivals, which would have to
    /// wait behind its shared lock anyway.
    pub fn park(&mut self, key: ObjKey, waiter: Waiter<C>, upgrade: bool) {
        // A manager is built without a registry or tracer and records
        // into whichever are current when the request parks; borrowing
        // them (no handle clone) keeps that to one lock per record.
        argus_obs::with_current(|reg| {
            reg.event(argus_obs::Event::LockBlocked {
                mode: waiter.mode.name(),
                holder_seq: waiter.holder.map(|h| h.seq),
            })
        });
        argus_trace::with_current(|tracer| {
            tracer.instant(
                "cc",
                "lock_blocked",
                key.gid.0,
                Some(argus_trace::Key::new(
                    waiter.aid.coordinator.0,
                    waiter.aid.seq,
                )),
                &[
                    ("hid", u64::from(key.hid.0)),
                    ("holder_seq", waiter.holder.map_or(0, |h| h.seq)),
                ],
            )
        });
        let queue = self.queues.entry(key).or_default();
        if upgrade {
            queue.push_front(waiter);
        } else {
            queue.push_back(waiter);
        }
    }

    /// Whether any request is parked.
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// Total parked requests.
    pub fn waiter_count(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }

    /// Whether `key` has a non-empty queue.
    pub fn has_queue(&self, key: ObjKey) -> bool {
        self.queues.contains_key(&key)
    }

    /// Whether `aid` has at least one parked request.
    pub fn is_blocked(&self, aid: ActionId) -> bool {
        self.queues.values().any(|q| q.iter().any(|w| w.aid == aid))
    }

    /// Every action with a parked request, in id order.
    pub fn blocked_actions(&self) -> BTreeSet<ActionId> {
        self.queues
            .values()
            .flat_map(|q| q.iter().map(|w| w.aid))
            .collect()
    }

    /// The front of every queue, in key order — the candidates the owner of
    /// the heaps should try to grant.
    pub fn fronts(&self) -> Vec<(ObjKey, ActionId, LockMode)> {
        self.queues
            .iter()
            .filter_map(|(k, q)| q.front().map(|w| (*k, w.aid, w.mode)))
            .collect()
    }

    /// Pops the front waiter of `key`'s queue (after the owner successfully
    /// acquired the heap lock on its behalf).
    pub fn take_front(&mut self, key: ObjKey) -> Option<Waiter<C>> {
        let queue = self.queues.get_mut(&key)?;
        let waiter = queue.pop_front();
        if queue.is_empty() {
            self.queues.remove(&key);
        }
        waiter
    }

    /// Removes every request parked by `aid` (abort, victim, timeout),
    /// returning them in key order.
    pub fn cancel(&mut self, aid: ActionId) -> Vec<(ObjKey, Waiter<C>)> {
        self.remove_where(|_, w| w.aid == aid)
    }

    /// Removes every request parked on an object at guardian `gid` (the
    /// guardian crashed; its heap — and the locks in it — are gone).
    pub fn drain_guardian(&mut self, gid: GuardianId) -> Vec<(ObjKey, Waiter<C>)> {
        self.remove_where(|key, _| key.gid == gid)
    }

    fn remove_where(
        &mut self,
        mut pred: impl FnMut(ObjKey, &Waiter<C>) -> bool,
    ) -> Vec<(ObjKey, Waiter<C>)> {
        let mut removed = Vec::new();
        let keys: Vec<ObjKey> = self.queues.keys().copied().collect();
        for key in keys {
            let queue = self.queues.get_mut(&key).expect("key just listed");
            let mut kept = VecDeque::with_capacity(queue.len());
            for waiter in queue.drain(..) {
                if pred(key, &waiter) {
                    removed.push((key, waiter));
                } else {
                    kept.push_back(waiter);
                }
            }
            if kept.is_empty() {
                self.queues.remove(&key);
            } else {
                *queue = kept;
            }
        }
        removed
    }

    /// Actions whose earliest deadline has passed at `now`, in id order.
    pub fn expired(&self, now: u64) -> Vec<ActionId> {
        let overdue = |w: &&Waiter<C>| w.deadline.is_some_and(|d| d <= now);
        let waiters = self.queues.values().flatten();
        let mut out: Vec<ActionId> = waiters.filter(overdue).map(|w| w.aid).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The earliest deadline of any parked request.
    pub fn next_deadline(&self) -> Option<u64> {
        self.queues
            .values()
            .flat_map(|q| q.iter().filter_map(|w| w.deadline))
            .min()
    }

    /// Builds the wait-for graph from the queues and the given holder
    /// snapshot. Edges:
    ///
    /// * waiter → holder, when the held lock blocks the request (an
    ///   exclusive request waits on the writer and every reader; a shared
    ///   request waits only on the writer);
    /// * waiter → earlier waiter in the same queue, when their modes are
    ///   incompatible (FIFO order means the later one cannot be granted
    ///   before the earlier one completes).
    pub fn wait_for_edges(&self, holders: &BTreeMap<ObjKey, LockHolders>) -> WaitForGraph {
        let mut graph = WaitForGraph::new();
        for (key, queue) in &self.queues {
            let held = holders.get(key);
            for (i, waiter) in queue.iter().enumerate() {
                if let Some(held) = held {
                    if let Some(writer) = held.writer {
                        graph.add_edge(waiter.aid, writer);
                    }
                    if waiter.mode == LockMode::Exclusive {
                        for &reader in &held.readers {
                            graph.add_edge(waiter.aid, reader);
                        }
                    }
                }
                for earlier in queue.iter().take(i) {
                    if !waiter.mode.compatible(earlier.mode) {
                        graph.add_edge(waiter.aid, earlier.aid);
                    }
                }
            }
        }
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u64) -> ActionId {
        ActionId::new(GuardianId(9), n)
    }

    fn key(g: u32, h: u32) -> ObjKey {
        ObjKey {
            gid: GuardianId(g),
            hid: HeapId(h),
        }
    }

    fn waiter(n: u64, mode: LockMode) -> Waiter<&'static str> {
        Waiter {
            aid: a(n),
            mode,
            parked_at: 0,
            deadline: None,
            holder: None,
            cont: "c",
        }
    }

    #[test]
    fn fifo_order_and_take() {
        let mut lm = LockManager::new();
        lm.park(key(0, 1), waiter(1, LockMode::Exclusive), false);
        lm.park(key(0, 1), waiter(2, LockMode::Shared), false);
        assert_eq!(lm.fronts(), vec![(key(0, 1), a(1), LockMode::Exclusive)]);
        assert_eq!(lm.take_front(key(0, 1)).unwrap().aid, a(1));
        assert_eq!(lm.fronts(), vec![(key(0, 1), a(2), LockMode::Shared)]);
        assert_eq!(lm.take_front(key(0, 1)).unwrap().aid, a(2));
        assert!(lm.is_empty());
    }

    #[test]
    fn upgrades_jump_the_queue() {
        let mut lm = LockManager::new();
        lm.park(key(0, 1), waiter(1, LockMode::Exclusive), false);
        lm.park(key(0, 1), waiter(2, LockMode::Exclusive), true);
        assert_eq!(lm.fronts(), vec![(key(0, 1), a(2), LockMode::Exclusive)]);
    }

    #[test]
    fn cancel_removes_all_of_an_action() {
        let mut lm = LockManager::new();
        lm.park(key(0, 1), waiter(1, LockMode::Shared), false);
        lm.park(key(0, 2), waiter(1, LockMode::Exclusive), false);
        lm.park(key(0, 2), waiter(2, LockMode::Shared), false);
        let removed = lm.cancel(a(1));
        assert_eq!(removed.len(), 2);
        assert_eq!(lm.waiter_count(), 1);
        assert!(!lm.is_blocked(a(1)));
        assert!(lm.is_blocked(a(2)));
    }

    #[test]
    fn drain_guardian_only_touches_its_keys() {
        let mut lm = LockManager::new();
        lm.park(key(0, 1), waiter(1, LockMode::Shared), false);
        lm.park(key(1, 1), waiter(2, LockMode::Shared), false);
        let removed = lm.drain_guardian(GuardianId(0));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].1.aid, a(1));
        assert!(lm.is_blocked(a(2)));
    }

    #[test]
    fn deadlines_expire_and_sort() {
        let mut lm = LockManager::new();
        let mut w1 = waiter(1, LockMode::Shared);
        w1.deadline = Some(100);
        let mut w2 = waiter(2, LockMode::Shared);
        w2.deadline = Some(50);
        lm.park(key(0, 1), w1, false);
        lm.park(key(0, 2), w2, false);
        assert_eq!(lm.next_deadline(), Some(50));
        assert_eq!(lm.expired(49), Vec::<ActionId>::new());
        assert_eq!(lm.expired(50), vec![a(2)]);
        assert_eq!(lm.expired(100), vec![a(1), a(2)]);
    }

    #[test]
    fn wait_edges_respect_modes() {
        // Holder: writer a1 on (0,1); readers a2,a3 on (0,2).
        let mut lm = LockManager::new();
        lm.park(key(0, 1), waiter(4, LockMode::Shared), false);
        lm.park(key(0, 2), waiter(5, LockMode::Exclusive), false);
        lm.park(key(0, 2), waiter(6, LockMode::Shared), false);
        let mut holders = BTreeMap::new();
        holders.insert(
            key(0, 1),
            LockHolders {
                writer: Some(a(1)),
                readers: Vec::new(),
            },
        );
        holders.insert(
            key(0, 2),
            LockHolders {
                writer: None,
                readers: vec![a(2), a(3)],
            },
        );
        let g = lm.wait_for_edges(&holders);
        // Shared request waits only on the writer.
        assert_eq!(g.successors(a(4)).collect::<Vec<_>>(), vec![a(1)]);
        // Exclusive request waits on every reader.
        assert_eq!(g.successors(a(5)).collect::<Vec<_>>(), vec![a(2), a(3)]);
        // The later shared request waits on the earlier exclusive one (FIFO)
        // but not on the readers.
        assert_eq!(g.successors(a(6)).collect::<Vec<_>>(), vec![a(5)]);
    }

    #[test]
    fn upgrade_cycle_shows_in_edges() {
        // a1 and a2 both hold shared; both queue for exclusive.
        let mut lm = LockManager::new();
        lm.park(key(0, 1), waiter(1, LockMode::Exclusive), true);
        lm.park(key(0, 1), waiter(2, LockMode::Exclusive), true);
        let mut holders = BTreeMap::new();
        holders.insert(
            key(0, 1),
            LockHolders {
                writer: None,
                readers: vec![a(1), a(2)],
            },
        );
        let g = lm.wait_for_edges(&holders);
        assert!(g.cycle_through(a(1)).is_some() || g.cycle_through(a(2)).is_some());
    }
}
