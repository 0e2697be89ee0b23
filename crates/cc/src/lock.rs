//! Per-object FIFO wait queues for lock requests that could not be granted,
//! indexed by the actions that parked them.

use argus_objects::{ActionId, GuardianId, HeapId};
use argus_sim::IntMap;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Bound;

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
}

/// Names one lockable object in the world: a heap slot at a guardian.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ObjKey {
    /// The guardian whose heap holds the object.
    pub gid: GuardianId,
    /// The object's volatile address in that heap.
    pub hid: HeapId,
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

/// The front request of one queue, as the owner of the heaps sees it when
/// deciding whether to try a grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Front {
    /// The queue's object.
    pub key: ObjKey,
    /// The action at the front.
    pub aid: ActionId,
    /// What it asks for.
    pub mode: LockMode,
    /// The owner's stamp when it last failed to grant this very request
    /// ([`LockManager::note_refused`]); `None` since the front last changed.
    pub refused_at: Option<u64>,
}

#[derive(Debug)]
struct Queue<C> {
    waiters: VecDeque<Waiter<C>>,
    /// See [`Front::refused_at`].
    refused_at: Option<u64>,
}

/// The lock manager: a FIFO wait queue per contended object, and per action
/// the queues it has parked in.
///
/// The manager itself never touches a heap — granting is a two-phase
/// conversation with the owner of the heaps (the guardian `World`): the
/// owner walks [`LockManager::fronts`], attempts the actual heap
/// acquisition for each front, and pops granted waiters with
/// [`LockManager::take_front`]. That split keeps this structure free of any
/// borrow of guardian state and keeps grant order deterministic (queues
/// iterate in [`ObjKey`] order, each queue in FIFO order). A front the owner
/// could not grant carries the owner's stamp from then on
/// ([`LockManager::note_refused`]) until it changes, so the owner can skip
/// it until its own state has moved.
#[derive(Debug)]
pub struct LockManager<C> {
    queues: BTreeMap<ObjKey, Queue<C>>,
    /// Action → the queue of each request it has parked, one entry per
    /// request: what [`LockManager::is_blocked`], [`LockManager::cancel`]
    /// and the deadlock search read instead of every queue.
    parked: IntMap<ActionId, Vec<ObjKey>>,
    /// Parked requests that carry a deadline; while there are none, the
    /// deadline queries answer without looking.
    deadlines: usize,
    /// Bumped by every park and every removal.
    version: u64,
    /// Emptied queues and index lists, reused by the next ones.
    spare_queues: Vec<VecDeque<Waiter<C>>>,
    spare_keys: Vec<Vec<ObjKey>>,
}

impl<C> Default for LockManager<C> {
    fn default() -> Self {
        Self {
            queues: BTreeMap::new(),
            parked: IntMap::default(),
            deadlines: 0,
            version: 0,
            spare_queues: Vec::new(),
            spare_keys: Vec::new(),
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
        // A manager is built without a tracer and records into the one
        // current when the request parks; borrowing it (no handle clone)
        // keeps that to one lock per record.
        argus_trace::with_current(|tracer| {
            tracer.instant(
                argus_trace::Kind::LockBlocked,
                key.gid.0,
                Some(argus_trace::Key::new(
                    waiter.aid.coordinator.0,
                    waiter.aid.seq,
                )),
                &[u64::from(key.hid.0), waiter.holder.map_or(0, |h| h.seq)],
            )
        });
        let spare = &mut self.spare_keys;
        let keys = self.parked.entry(waiter.aid);
        keys.or_insert_with(|| spare.pop().unwrap_or_default())
            .push(key);
        self.deadlines += usize::from(waiter.deadline.is_some());
        self.version += 1;
        let spare = &mut self.spare_queues;
        let queue = self.queues.entry(key).or_insert_with(|| Queue {
            waiters: spare.pop().unwrap_or_default(),
            refused_at: None,
        });
        if upgrade {
            queue.waiters.push_front(waiter);
            queue.refused_at = None;
        } else {
            queue.waiters.push_back(waiter);
        }
    }

    /// Whether any request is parked.
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// Total parked requests.
    pub fn waiter_count(&self) -> usize {
        self.parked.values().map(Vec::len).sum()
    }

    /// Whether `key` has a non-empty queue.
    pub fn has_queue(&self, key: ObjKey) -> bool {
        self.queues.contains_key(&key)
    }

    /// Whether `aid` has at least one parked request.
    pub fn is_blocked(&self, aid: ActionId) -> bool {
        self.parked.contains_key(&aid)
    }

    /// Every action with a parked request, in id order.
    pub fn blocked_actions(&self) -> BTreeSet<ActionId> {
        self.parked.keys().copied().collect()
    }

    /// A number that changes whenever a request parks or leaves a queue:
    /// while it reads the same, every queue is as it was.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The front of every queue after `after` (of every queue, for `None`),
    /// in key order — the candidates the owner of the heaps should try to
    /// grant.
    pub fn fronts(&self, after: Option<ObjKey>) -> impl Iterator<Item = Front> + '_ {
        let from = after.map_or(Bound::Unbounded, Bound::Excluded);
        let queues = self.queues.range((from, Bound::Unbounded));
        queues.filter_map(|(&key, q)| {
            q.waiters.front().map(|w| Front {
                key,
                aid: w.aid,
                mode: w.mode,
                refused_at: q.refused_at,
            })
        })
    }

    /// Records that the owner failed to grant `key`'s front while its own
    /// state read `stamp`; [`Front::refused_at`] carries it until the front
    /// changes.
    pub fn note_refused(&mut self, key: ObjKey, stamp: u64) {
        if let Some(queue) = self.queues.get_mut(&key) {
            queue.refused_at = Some(stamp);
        }
    }

    /// Pops the front waiter of `key`'s queue (after the owner successfully
    /// acquired the heap lock on its behalf).
    pub fn take_front(&mut self, key: ObjKey) -> Option<Waiter<C>> {
        self.remove(key, 0)
    }

    /// Removes every request parked by `aid` (abort, victim, timeout),
    /// returning them in key order.
    pub fn cancel(&mut self, aid: ActionId) -> Vec<(ObjKey, Waiter<C>)> {
        let mut keys = self.parked_keys(aid).to_vec();
        keys.sort_unstable();
        keys.dedup();
        let mut removed = Vec::new();
        for key in keys {
            loop {
                let Some(at) = self.queue(key).position(|w| w.aid == aid) else {
                    break;
                };
                removed.extend(self.remove(key, at).map(|w| (key, w)));
            }
        }
        removed
    }

    /// Removes every request parked on an object at guardian `gid` (the
    /// guardian crashed; its heap — and the locks in it — are gone).
    pub fn drain_guardian(&mut self, gid: GuardianId) -> Vec<(ObjKey, Waiter<C>)> {
        let keys = |hid| ObjKey {
            gid,
            hid: HeapId(hid),
        };
        let mut removed = Vec::new();
        while let Some((&key, _)) = self.queues.range(keys(0)..=keys(u32::MAX)).next() {
            removed.extend(self.remove(key, 0).map(|w| (key, w)));
        }
        removed
    }

    /// Takes the request at position `at` of `key`'s queue out of the
    /// manager, keeping the emptied buffers for reuse.
    fn remove(&mut self, key: ObjKey, at: usize) -> Option<Waiter<C>> {
        let queue = self.queues.get_mut(&key)?;
        let waiter = queue.waiters.remove(at)?;
        if at == 0 {
            queue.refused_at = None;
        }
        if queue.waiters.is_empty() {
            let queue = self.queues.remove(&key).expect("queue just emptied");
            self.spare_queues.push(queue.waiters);
        }
        let Entry::Occupied(mut keys) = self.parked.entry(waiter.aid) else {
            unreachable!("queued requests are indexed");
        };
        let indexed = keys.get().iter().position(|k| *k == key);
        keys.get_mut()
            .swap_remove(indexed.expect("indexed at its queue"));
        if keys.get().is_empty() {
            self.spare_keys.push(keys.remove());
        }
        self.deadlines -= usize::from(waiter.deadline.is_some());
        self.version += 1;
        Some(waiter)
    }

    /// The queues `aid` has requests parked in, one entry per request.
    pub(crate) fn parked_keys(&self, aid: ActionId) -> &[ObjKey] {
        self.parked.get(&aid).map_or(&[], Vec::as_slice)
    }

    /// The requests parked at `key`, front first (none if it has no queue).
    pub(crate) fn queue(&self, key: ObjKey) -> impl Iterator<Item = &Waiter<C>> + Clone {
        self.queues.get(&key).into_iter().flat_map(|q| &q.waiters)
    }

    /// Actions whose earliest deadline has passed at `now`, in id order.
    pub fn expired(&self, now: u64) -> Vec<ActionId> {
        if self.deadlines == 0 {
            return Vec::new();
        }
        let overdue = |w: &&Waiter<C>| w.deadline.is_some_and(|d| d <= now);
        let waiters = self.queues.values().flat_map(|q| &q.waiters);
        let mut out: Vec<ActionId> = waiters.filter(overdue).map(|w| w.aid).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The earliest deadline of any parked request.
    pub fn next_deadline(&self) -> Option<u64> {
        if self.deadlines == 0 {
            return None;
        }
        let waiters = self.queues.values().flat_map(|q| &q.waiters);
        waiters.filter_map(|w| w.deadline).min()
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

    fn fronts<C>(lm: &LockManager<C>) -> Vec<(ObjKey, ActionId, LockMode)> {
        lm.fronts(None).map(|f| (f.key, f.aid, f.mode)).collect()
    }

    /// The index agrees with the queues: every parked request is listed
    /// under its action once per request, and nothing else is.
    fn assert_indexed<C>(lm: &LockManager<C>) {
        let mut from_queues: Vec<(ActionId, ObjKey)> = lm
            .queues
            .iter()
            .flat_map(|(k, q)| q.waiters.iter().map(move |w| (w.aid, *k)))
            .collect();
        let mut from_index: Vec<(ActionId, ObjKey)> = lm
            .parked
            .iter()
            .flat_map(|(a, keys)| keys.iter().map(move |k| (*a, *k)))
            .collect();
        from_queues.sort_unstable();
        from_index.sort_unstable();
        assert_eq!(from_queues, from_index);
        assert!(lm.queues.values().all(|q| !q.waiters.is_empty()));
        let with_deadline = lm.queues.values().flat_map(|q| &q.waiters);
        assert_eq!(
            with_deadline.filter(|w| w.deadline.is_some()).count(),
            lm.deadlines
        );
    }

    #[test]
    fn fifo_order_and_take() {
        let mut lm = LockManager::new();
        lm.park(key(0, 1), waiter(1, LockMode::Exclusive), false);
        lm.park(key(0, 1), waiter(2, LockMode::Shared), false);
        assert_eq!(fronts(&lm), vec![(key(0, 1), a(1), LockMode::Exclusive)]);
        assert_eq!(lm.take_front(key(0, 1)).unwrap().aid, a(1));
        assert_eq!(fronts(&lm), vec![(key(0, 1), a(2), LockMode::Shared)]);
        assert_eq!(lm.take_front(key(0, 1)).unwrap().aid, a(2));
        assert!(lm.is_empty());
        assert_indexed(&lm);
    }

    #[test]
    fn upgrades_jump_the_queue() {
        let mut lm = LockManager::new();
        lm.park(key(0, 1), waiter(1, LockMode::Exclusive), false);
        lm.park(key(0, 1), waiter(2, LockMode::Exclusive), true);
        assert_eq!(fronts(&lm), vec![(key(0, 1), a(2), LockMode::Exclusive)]);
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
        assert_indexed(&lm);
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
        assert_indexed(&lm);
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
        lm.cancel(a(2));
        assert_eq!(lm.next_deadline(), Some(100));
        lm.take_front(key(0, 1));
        assert_eq!((lm.next_deadline(), lm.deadlines), (None, 0));
        assert_indexed(&lm);
    }

    #[test]
    fn the_index_follows_every_way_a_request_leaves() {
        let mut lm = LockManager::new();
        // a1 parked in two queues at two guardians, and twice in one.
        lm.park(key(0, 1), waiter(1, LockMode::Exclusive), false);
        lm.park(key(1, 1), waiter(1, LockMode::Shared), false);
        lm.park(key(1, 1), waiter(2, LockMode::Shared), false);
        lm.park(key(1, 1), waiter(1, LockMode::Exclusive), false);
        lm.park(key(1, 2), waiter(3, LockMode::Exclusive), false);
        assert_indexed(&lm);
        assert_eq!(lm.parked_keys(a(1)).len(), 3);
        assert_eq!(lm.waiter_count(), 5);

        // take_front: a1 leaves (0,1) but stays blocked at G1.
        assert_eq!(lm.take_front(key(0, 1)).unwrap().aid, a(1));
        assert!(lm.is_blocked(a(1)) && !lm.has_queue(key(0, 1)));
        assert_indexed(&lm);

        // cancel: both of a1's requests at (1,1) go, in FIFO order; a2 is
        // the new front.
        let removed = lm.cancel(a(1));
        let modes: Vec<LockMode> = removed.iter().map(|(_, w)| w.mode).collect();
        assert_eq!(modes, vec![LockMode::Shared, LockMode::Exclusive]);
        assert!(!lm.is_blocked(a(1)));
        assert_eq!(lm.fronts(None).next().unwrap().aid, a(2));
        assert!(lm.cancel(a(1)).is_empty());
        assert_indexed(&lm);

        // drain (a crash at G1): everyone left goes.
        assert_eq!(lm.drain_guardian(GuardianId(1)).len(), 2);
        assert!(lm.is_empty() && lm.parked.is_empty());
        assert_eq!(lm.blocked_actions(), BTreeSet::new());
        assert_indexed(&lm);

        // Reused buffers come back clean.
        lm.park(key(2, 1), waiter(4, LockMode::Shared), false);
        assert_eq!(lm.parked_keys(a(4)), &[key(2, 1)]);
        assert_eq!(lm.blocked_actions(), BTreeSet::from([a(4)]));
        assert_indexed(&lm);
    }

    #[test]
    fn a_refusal_is_remembered_until_the_front_changes() {
        let mut lm = LockManager::new();
        lm.park(key(0, 1), waiter(1, LockMode::Exclusive), false);
        lm.park(key(0, 2), waiter(2, LockMode::Exclusive), false);
        lm.note_refused(key(0, 1), 7);
        lm.note_refused(key(0, 2), 7);
        let v = lm.version();
        // A request behind the front changes nothing the owner probed.
        lm.park(key(0, 1), waiter(3, LockMode::Exclusive), false);
        assert!(lm.version() > v);
        let refused: Vec<_> = lm.fronts(None).map(|f| f.refused_at).collect();
        assert_eq!(refused, vec![Some(7), Some(7)]);
        // An upgrade, a grant or a cancel at the front each forget it.
        lm.park(key(0, 1), waiter(4, LockMode::Exclusive), true);
        assert_eq!(lm.fronts(None).next().unwrap().refused_at, None);
        lm.note_refused(key(0, 1), 8);
        lm.take_front(key(0, 1));
        assert_eq!(lm.fronts(None).next().unwrap().refused_at, None);
        lm.cancel(a(2));
        assert!(!lm.has_queue(key(0, 2)));
        // `fronts` resumes after a key.
        let after: Vec<_> = lm.fronts(Some(key(0, 0))).map(|f| f.key).collect();
        assert_eq!(after, vec![key(0, 1)]);
        assert_eq!(lm.fronts(Some(key(0, 1))).count(), 0);
    }
}
