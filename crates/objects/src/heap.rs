//! The guardian's volatile memory.

use crate::{
    ActionId, AtomicObject, HeapId, MutexObject, ObjRef, ObjectBody, ObjectSlot, Uid, Value,
};
use argus_sim::{IntMap, IntSet};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Errors from heap operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeapError {
    /// The heap id names no live object.
    NoSuchObject(HeapId),
    /// No object with this uid exists in volatile memory.
    NoSuchUid(Uid),
    /// A lock could not be granted because another action holds one.
    LockConflict {
        obj: Uid,
        requester: ActionId,
        /// The conflicting holders at refusal time (writer first, then
        /// readers in id order).
        holders: Vec<ActionId>,
    },
    /// The operation required a write lock the action does not hold.
    NotWriteLocked { obj: Uid, aid: ActionId },
    /// The mutex is in another action's possession.
    MutexSeized { obj: Uid, requester: ActionId },
    /// The operation required possession of the mutex first.
    NotSeized { obj: Uid, aid: ActionId },
    /// The object is not of the kind the operation expects.
    WrongKind { obj: Uid },
    /// An object with this uid already exists (recovery double-insert).
    DuplicateUid(Uid),
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::NoSuchObject(h) => write!(f, "no object at {h}"),
            HeapError::NoSuchUid(u) => write!(f, "no object with uid {u}"),
            HeapError::LockConflict {
                obj,
                requester,
                holders,
            } => {
                write!(f, "lock conflict on {obj} for {requester}; held by ")?;
                for (i, h) in holders.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{h}")?;
                }
                Ok(())
            }
            HeapError::NotWriteLocked { obj, aid } => {
                write!(f, "{aid} does not hold a write lock on {obj}")
            }
            HeapError::MutexSeized { obj, requester } => {
                write!(f, "mutex {obj} is seized; {requester} must wait")
            }
            HeapError::NotSeized { obj, aid } => write!(f, "{aid} has not seized mutex {obj}"),
            HeapError::WrongKind { obj } => write!(f, "object {obj} has the wrong kind"),
            HeapError::DuplicateUid(u) => write!(f, "uid {u} already present"),
        }
    }
}

impl std::error::Error for HeapError {}

/// Result alias for heap operations.
pub type HeapResult<T> = Result<T, HeapError>;

/// The volatile object memory of one guardian.
///
/// Holds every recoverable object currently in volatile memory, indexed both
/// by [`HeapId`] (the "vm address" of the thesis's tables) and by [`Uid`].
/// Also owns the guardian's *stable counter*, the uid generator that recovery
/// resets past the largest restored uid (§3.2).
///
/// # Examples
///
/// ```
/// use argus_objects::{ActionId, GuardianId, Heap, Value};
///
/// let mut heap = Heap::new();
/// let aid = ActionId::new(GuardianId(0), 1);
/// let obj = heap.alloc_atomic(Value::Int(1), None);
///
/// // A write lock creates a current version; the base stays visible to
/// // everyone else until commit.
/// heap.acquire_write(obj, aid)?;
/// heap.write_value(obj, aid, |v| *v = Value::Int(2))?;
/// assert_eq!(heap.read_value(obj, None)?, &Value::Int(1));
/// assert_eq!(heap.read_value(obj, Some(aid))?, &Value::Int(2));
///
/// heap.commit_action(aid);
/// assert_eq!(heap.read_value(obj, None)?, &Value::Int(2));
/// # Ok::<(), argus_objects::HeapError>(())
/// ```
///
/// # The lock index
///
/// The heap keeps, per action, the objects on which that action holds a
/// read lock, a write lock or mutex possession, so that
/// [`Heap::commit_action`] and [`Heap::abort_action`] visit the locks an
/// action holds instead of every object in the heap. The index is
/// authoritative — release consults nothing else — which is why lock
/// state can only change through the heap's own operations: objects are
/// handed out by shared reference, recovery restores versions through
/// [`Heap::restore_base`], [`Heap::restore_current`] and
/// [`Heap::restore_mutex_value`], and [`Heap::insert_with_uid`] indexes
/// whatever locks a restored body already carries.
#[derive(Debug, Default, Clone)]
pub struct Heap {
    slots: Vec<Option<ObjectSlot>>,
    by_uid: IntMap<Uid, HeapId>,
    next_uid: u64,
    /// Action → the objects it holds a lock or possession on, each once.
    /// Ordered, so a handful of live actions is one node and no hashing.
    held: BTreeMap<ActionId, Vec<HeapId>>,
    /// Emptied lists of resolved actions, reused by the next ones.
    spare: Vec<Vec<HeapId>>,
    /// See [`Heap::releases`].
    releases: u64,
}

impl Heap {
    /// Creates an empty heap. Uid 0 is reserved for the stable root.
    pub fn new() -> Self {
        Self {
            next_uid: 1,
            ..Self::default()
        }
    }

    /// Creates a heap containing a fresh stable-variables root object: an
    /// atomic object with the predefined uid [`Uid::STABLE_ROOT`] holding an
    /// empty sequence of `(name, value)` pairs.
    pub fn with_stable_root() -> Self {
        let mut heap = Self::new();
        heap.insert_with_uid(
            Uid::STABLE_ROOT,
            ObjectBody::Atomic(AtomicObject::new(Value::Seq(Vec::new()))),
        )
        .expect("fresh heap cannot contain the root already");
        heap
    }

    fn insert_slot(&mut self, slot: ObjectSlot) -> HeapId {
        let uid = slot.uid;
        let h = HeapId(self.slots.len() as u32);
        // A body may arrive locked: a creator's read lock, or the write
        // lock recovery grants an in-doubt action.
        match &slot.body {
            ObjectBody::Atomic(obj) => {
                // An action both writing and reading is indexed once.
                let readers = obj.readers.iter().filter(|r| Some(**r) != obj.writer);
                for aid in obj.writer.iter().chain(readers) {
                    self.note_held(*aid, h);
                }
            }
            ObjectBody::Mutex(obj) => {
                if let Some(aid) = obj.seized_by {
                    self.note_held(aid, h);
                }
            }
        }
        self.slots.push(Some(slot));
        self.by_uid.insert(uid, h);
        self.releases += 1;
        h
    }

    /// How many times this heap released a lock or possession — or gained
    /// an object, which can as well turn a refused lock request into a
    /// grantable one. While it reads the same, no request refused here can
    /// have become grantable: an acquisition never makes one so.
    pub fn releases(&self) -> u64 {
        self.releases
    }

    /// Indexes `h` as held by `aid`. The caller has checked, from the
    /// object's own lock state, that `aid` held nothing on it before.
    fn note_held(&mut self, aid: ActionId, h: HeapId) {
        let spare = &mut self.spare;
        self.held
            .entry(aid)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push(h);
    }

    /// Draws a fresh uid from the stable counter.
    pub fn fresh_uid(&mut self) -> Uid {
        let uid = Uid(self.next_uid);
        self.next_uid += 1;
        uid
    }

    /// The next uid the counter would produce.
    pub fn next_uid(&self) -> u64 {
        self.next_uid
    }

    /// Resets the stable counter; recovery calls this with one past the
    /// largest restored uid so uids are never reused (§3.2).
    pub fn set_next_uid(&mut self, next: u64) {
        self.next_uid = next;
    }

    /// Allocates a new atomic object. Per §2.4.1, the creating action (when
    /// given) holds a read lock on it, and there is only a base version.
    pub fn alloc_atomic(&mut self, value: Value, creator: Option<ActionId>) -> HeapId {
        let uid = self.fresh_uid();
        let mut obj = AtomicObject::new(value);
        if let Some(aid) = creator {
            obj.readers.insert(aid);
        }
        self.insert_slot(ObjectSlot {
            uid,
            body: ObjectBody::Atomic(obj),
        })
    }

    /// Allocates a new mutex object.
    pub fn alloc_mutex(&mut self, value: Value) -> HeapId {
        let uid = self.fresh_uid();
        self.insert_slot(ObjectSlot {
            uid,
            body: ObjectBody::Mutex(MutexObject::new(value)),
        })
    }

    /// Inserts an object with a known uid — used by recovery when rebuilding
    /// volatile memory from the log.
    pub fn insert_with_uid(&mut self, uid: Uid, body: ObjectBody) -> HeapResult<HeapId> {
        if self.by_uid.contains_key(&uid) {
            return Err(HeapError::DuplicateUid(uid));
        }
        self.next_uid = self.next_uid.max(uid.0 + 1);
        Ok(self.insert_slot(ObjectSlot { uid, body }))
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.by_uid.len()
    }

    /// Whether the heap holds no objects.
    pub fn is_empty(&self) -> bool {
        self.by_uid.is_empty()
    }

    /// Looks up an object by heap id.
    pub fn get(&self, h: HeapId) -> HeapResult<&ObjectSlot> {
        self.slots
            .get(h.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(HeapError::NoSuchObject(h))
    }

    /// Looks up an object mutably by heap id. Private: lock state reachable
    /// through a `&mut ObjectSlot` could change behind the lock index.
    fn get_mut(&mut self, h: HeapId) -> HeapResult<&mut ObjectSlot> {
        self.slots
            .get_mut(h.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(HeapError::NoSuchObject(h))
    }

    /// The uid of the object at `h`.
    pub fn uid_of(&self, h: HeapId) -> HeapResult<Uid> {
        Ok(self.get(h)?.uid)
    }

    /// The volatile address of the object with uid `uid`, if resident.
    pub fn lookup(&self, uid: Uid) -> Option<HeapId> {
        self.by_uid.get(&uid).copied()
    }

    /// The stable-variables root object, if present.
    pub fn stable_root(&self) -> Option<HeapId> {
        self.lookup(Uid::STABLE_ROOT)
    }

    /// Iterates over `(heap id, object)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (HeapId, &ObjectSlot)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|slot| (HeapId(i as u32), slot)))
    }

    // ---- Atomic-object locking (§2.4.1) --------------------------------

    /// Acquires a read lock on an atomic object for `aid`.
    pub fn acquire_read(&mut self, h: HeapId, aid: ActionId) -> HeapResult<()> {
        let slot = self.get_mut(h)?;
        let uid = slot.uid;
        match &mut slot.body {
            ObjectBody::Atomic(obj) => {
                if let Some(w) = obj.writer {
                    if w != aid {
                        return Err(HeapError::LockConflict {
                            obj: uid,
                            requester: aid,
                            holders: vec![w],
                        });
                    }
                }
                let newly_held = obj.readers.insert(aid) && obj.writer != Some(aid);
                if newly_held {
                    self.note_held(aid, h);
                }
                Ok(())
            }
            ObjectBody::Mutex(_) => Err(HeapError::WrongKind { obj: uid }),
        }
    }

    /// Acquires a write lock on an atomic object for `aid`, creating the
    /// current version (a copy of the base) if this is the first write.
    pub fn acquire_write(&mut self, h: HeapId, aid: ActionId) -> HeapResult<()> {
        let slot = self.get_mut(h)?;
        let uid = slot.uid;
        match &mut slot.body {
            ObjectBody::Atomic(obj) => {
                if obj.locked_by_other(aid) {
                    let mut holders: Vec<ActionId> =
                        obj.writer.iter().copied().filter(|w| *w != aid).collect();
                    holders.extend(obj.readers.iter().copied().filter(|r| *r != aid));
                    return Err(HeapError::LockConflict {
                        obj: uid,
                        requester: aid,
                        holders,
                    });
                }
                let was_reader = obj.readers.remove(&aid); // upgrade subsumes the read lock
                if obj.writer.is_none() {
                    obj.writer = Some(aid);
                    obj.current = Some(obj.base.clone());
                    if !was_reader {
                        self.note_held(aid, h);
                    }
                }
                Ok(())
            }
            ObjectBody::Mutex(_) => Err(HeapError::WrongKind { obj: uid }),
        }
    }

    /// Reads the version of an atomic object visible to `aid` (or the base
    /// version for `None`). For mutex objects, the single current version.
    pub fn read_value(&self, h: HeapId, aid: Option<ActionId>) -> HeapResult<&Value> {
        let slot = self.get(h)?;
        match &slot.body {
            ObjectBody::Atomic(obj) => Ok(obj.version_for(aid)),
            ObjectBody::Mutex(obj) => Ok(&obj.value),
        }
    }

    /// Mutates the current version of a write-locked atomic object.
    pub fn write_value(
        &mut self,
        h: HeapId,
        aid: ActionId,
        f: impl FnOnce(&mut Value),
    ) -> HeapResult<()> {
        let slot = self.get_mut(h)?;
        let uid = slot.uid;
        match &mut slot.body {
            ObjectBody::Atomic(obj) => {
                if obj.writer != Some(aid) {
                    return Err(HeapError::NotWriteLocked { obj: uid, aid });
                }
                f(obj
                    .current
                    .as_mut()
                    .expect("write lock implies a current version"));
                Ok(())
            }
            ObjectBody::Mutex(_) => Err(HeapError::WrongKind { obj: uid }),
        }
    }

    // ---- Lock queries (for the concurrency-control subsystem) -----------

    /// The current lock holders of the object at `h`: the write-lock holder
    /// (or mutex possessor) and the read-lock holders in id order, read in
    /// place.
    pub fn lock_holders(
        &self,
        h: HeapId,
    ) -> HeapResult<(Option<ActionId>, impl Iterator<Item = ActionId> + '_)> {
        let (writer, readers) = match &self.get(h)?.body {
            ObjectBody::Atomic(obj) => (obj.writer, Some(&obj.readers)),
            ObjectBody::Mutex(obj) => (obj.seized_by, None),
        };
        Ok((writer, readers.into_iter().flatten().copied()))
    }

    /// Whether `aid` holds any lock (read or write) or possession on the
    /// object at `h`.
    pub fn holds_lock(&self, h: HeapId, aid: ActionId) -> bool {
        match self.get(h).map(|s| &s.body) {
            Ok(ObjectBody::Atomic(obj)) => obj.writer == Some(aid) || obj.readers.contains(&aid),
            Ok(ObjectBody::Mutex(obj)) => obj.seized_by == Some(aid),
            Err(_) => false,
        }
    }

    /// The uids of every object on which `aid` holds a lock or possession,
    /// in uid order — the post-abort emptiness check and the stale-lock
    /// lint both audit with this. Deliberately a scan of the objects'
    /// own lock state rather than a read of the lock index: it is the
    /// independent witness that indexed release missed nothing.
    pub fn locks_held_by(&self, aid: ActionId) -> Vec<Uid> {
        let mut uids: Vec<Uid> = self
            .slots
            .iter()
            .flatten()
            .filter(|slot| match &slot.body {
                ObjectBody::Atomic(obj) => obj.writer == Some(aid) || obj.readers.contains(&aid),
                ObjectBody::Mutex(obj) => obj.seized_by == Some(aid),
            })
            .map(|slot| slot.uid)
            .collect();
        uids.sort_unstable();
        uids
    }

    // ---- Mutex objects (§2.4.2) -----------------------------------------

    /// Seizes a mutex object for `aid`.
    pub fn seize(&mut self, h: HeapId, aid: ActionId) -> HeapResult<()> {
        let slot = self.get_mut(h)?;
        let uid = slot.uid;
        match &mut slot.body {
            ObjectBody::Mutex(obj) => match obj.seized_by {
                Some(holder) if holder != aid => Err(HeapError::MutexSeized {
                    obj: uid,
                    requester: aid,
                }),
                holder => {
                    obj.seized_by = Some(aid);
                    if holder.is_none() {
                        self.note_held(aid, h);
                    }
                    Ok(())
                }
            },
            ObjectBody::Atomic(_) => Err(HeapError::WrongKind { obj: uid }),
        }
    }

    /// Releases a seized mutex object.
    pub fn release(&mut self, h: HeapId, aid: ActionId) -> HeapResult<()> {
        let slot = self.get_mut(h)?;
        let uid = slot.uid;
        match &mut slot.body {
            ObjectBody::Mutex(obj) => {
                if obj.seized_by != Some(aid) {
                    return Err(HeapError::NotSeized { obj: uid, aid });
                }
                obj.seized_by = None;
                self.releases += 1;
                let held = self.held.get_mut(&aid).expect("possession is indexed");
                let at = held
                    .iter()
                    .position(|x| *x == h)
                    .expect("possession is indexed");
                held.swap_remove(at);
                if held.is_empty() {
                    let emptied = self.held.remove(&aid).expect("just borrowed");
                    self.spare.push(emptied);
                }
                Ok(())
            }
            ObjectBody::Atomic(_) => Err(HeapError::WrongKind { obj: uid }),
        }
    }

    /// Mutates a mutex object's value; the caller must have seized it.
    pub fn mutate_mutex(
        &mut self,
        h: HeapId,
        aid: ActionId,
        f: impl FnOnce(&mut Value),
    ) -> HeapResult<()> {
        let slot = self.get_mut(h)?;
        let uid = slot.uid;
        match &mut slot.body {
            ObjectBody::Mutex(obj) => {
                if obj.seized_by != Some(aid) {
                    return Err(HeapError::NotSeized { obj: uid, aid });
                }
                f(&mut obj.value);
                Ok(())
            }
            ObjectBody::Atomic(_) => Err(HeapError::WrongKind { obj: uid }),
        }
    }

    // ---- Action completion ----------------------------------------------

    /// Installs every current version written by `aid` and releases all of
    /// its locks (local effect of a commit). Visits only the objects `aid`
    /// holds a lock on.
    pub fn commit_action(&mut self, aid: ActionId) {
        self.release_all(aid, true);
    }

    /// Discards every current version written by `aid` and releases all of
    /// its locks (local effect of an abort). Mutex values keep their new
    /// state — mutations under `seize` are not undone by abort (§2.4.2).
    pub fn abort_action(&mut self, aid: ActionId) {
        self.release_all(aid, false);
    }

    fn release_all(&mut self, aid: ActionId, install: bool) {
        let Some(mut held) = self.held.remove(&aid) else {
            return;
        };
        self.releases += 1;
        for h in held.drain(..) {
            let slot = self.slots[h.0 as usize]
                .as_mut()
                .expect("indexed objects are resident");
            match &mut slot.body {
                ObjectBody::Atomic(obj) => {
                    if obj.writer == Some(aid) {
                        let current = obj.current.take();
                        if install {
                            obj.base = current.expect("writer implies current");
                        }
                        obj.writer = None;
                    }
                    obj.readers.remove(&aid);
                }
                ObjectBody::Mutex(obj) => {
                    if obj.seized_by == Some(aid) {
                        obj.seized_by = None;
                    }
                }
            }
        }
        self.spare.push(held);
    }

    // ---- Version restoration (recovery) -----------------------------------

    /// Replaces the committed base version of the atomic object at `h`.
    pub fn restore_base(&mut self, h: HeapId, value: Value) -> HeapResult<()> {
        let slot = self.get_mut(h)?;
        match &mut slot.body {
            ObjectBody::Atomic(obj) => {
                obj.base = value;
                Ok(())
            }
            ObjectBody::Mutex(_) => Err(HeapError::WrongKind { obj: slot.uid }),
        }
    }

    /// Attaches `value` as the current version of the atomic object at `h`
    /// and grants `aid` — an in-doubt action whose prepared version this is
    /// — the write lock, unless the object is already write-locked. Returns
    /// whether the version was attached.
    pub fn restore_current(&mut self, h: HeapId, aid: ActionId, value: Value) -> HeapResult<bool> {
        let slot = self.get_mut(h)?;
        match &mut slot.body {
            ObjectBody::Atomic(obj) => {
                if obj.writer.is_some() {
                    return Ok(false);
                }
                obj.current = Some(value);
                obj.writer = Some(aid);
                if !obj.readers.contains(&aid) {
                    self.note_held(aid, h);
                }
                Ok(true)
            }
            ObjectBody::Mutex(_) => Err(HeapError::WrongKind { obj: slot.uid }),
        }
    }

    /// Replaces the single version of the mutex object at `h`.
    pub fn restore_mutex_value(&mut self, h: HeapId, value: Value) -> HeapResult<()> {
        let slot = self.get_mut(h)?;
        match &mut slot.body {
            ObjectBody::Mutex(obj) => {
                obj.value = value;
                Ok(())
            }
            ObjectBody::Atomic(_) => Err(HeapError::WrongKind { obj: slot.uid }),
        }
    }

    /// The final pass of recovery (§3.4.3): replaces every uid reference in
    /// every resident object's versions with the volatile-memory reference of
    /// the restored object. Uids with no resident object are left in place
    /// (they can only occur in versions that are themselves unreachable).
    pub fn resolve_uid_refs(&mut self) {
        let by_uid = self.by_uid.clone();
        let fix = |value: &mut Value| {
            value.map_refs(&mut |r| match r {
                ObjRef::Uid(u) => by_uid.get(&u).map(|h| ObjRef::Heap(*h)).unwrap_or(r),
                heap_ref => heap_ref,
            });
        };
        for slot in self.slots.iter_mut().flatten() {
            match &mut slot.body {
                ObjectBody::Atomic(obj) => {
                    fix(&mut obj.base);
                    if let Some(cur) = &mut obj.current {
                        fix(cur);
                    }
                }
                ObjectBody::Mutex(obj) => fix(&mut obj.value),
            }
        }
    }

    // ---- Accessibility (§3.3.3.2) ---------------------------------------

    /// Walks the object graph from the stable root and returns the uids of
    /// every reachable recoverable object, following references in both base
    /// and current versions (the rebuilt accessibility set of recovery
    /// step 4).
    pub fn accessible_uids(&self) -> IntSet<Uid> {
        let mut seen = IntSet::default();
        let Some(root) = self.stable_root() else {
            return seen;
        };
        let mut queue = VecDeque::from([root]);
        seen.insert(Uid::STABLE_ROOT);
        while let Some(h) = queue.pop_front() {
            let Ok(slot) = self.get(h) else { continue };
            let mut visit = |value: &Value| {
                value.for_each_ref(&mut |r| {
                    let target = match r {
                        ObjRef::Heap(hh) => Some(*hh),
                        ObjRef::Uid(u) => self.lookup(*u),
                    };
                    if let Some(hh) = target {
                        if let Ok(s) = self.get(hh) {
                            if seen.insert(s.uid) {
                                queue.push_back(hh);
                            }
                        }
                    }
                });
            };
            match &slot.body {
                ObjectBody::Atomic(obj) => {
                    visit(&obj.base);
                    if let Some(cur) = &obj.current {
                        visit(cur);
                    }
                }
                ObjectBody::Mutex(obj) => visit(&obj.value),
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GuardianId;

    fn aid(n: u64) -> ActionId {
        ActionId::new(GuardianId(0), n)
    }

    #[test]
    fn with_stable_root_reserves_uid_zero() {
        let heap = Heap::with_stable_root();
        let root = heap.stable_root().unwrap();
        assert_eq!(heap.uid_of(root).unwrap(), Uid::STABLE_ROOT);
        assert_eq!(heap.len(), 1);
    }

    #[test]
    fn alloc_assigns_increasing_uids() {
        let mut heap = Heap::with_stable_root();
        let a = heap.alloc_atomic(Value::Int(1), None);
        let b = heap.alloc_mutex(Value::Int(2));
        assert!(heap.uid_of(a).unwrap() < heap.uid_of(b).unwrap());
        assert_eq!(heap.lookup(heap.uid_of(b).unwrap()), Some(b));
    }

    #[test]
    fn creator_holds_read_lock_on_new_atomic() {
        let mut heap = Heap::new();
        let h = heap.alloc_atomic(Value::Unit, Some(aid(1)));
        match &heap.get(h).unwrap().body {
            ObjectBody::Atomic(obj) => assert!(obj.readers.contains(&aid(1))),
            _ => panic!("expected atomic"),
        }
    }

    #[test]
    fn write_lock_creates_version_and_isolates() {
        let mut heap = Heap::new();
        let h = heap.alloc_atomic(Value::Int(10), None);
        heap.acquire_write(h, aid(1)).unwrap();
        heap.write_value(h, aid(1), |v| *v = Value::Int(20))
            .unwrap();
        // The writer sees its version; everyone else sees the base.
        assert_eq!(heap.read_value(h, Some(aid(1))).unwrap(), &Value::Int(20));
        assert_eq!(heap.read_value(h, Some(aid(2))).unwrap(), &Value::Int(10));
        assert_eq!(heap.read_value(h, None).unwrap(), &Value::Int(10));
    }

    #[test]
    fn conflicting_locks_are_refused() {
        let mut heap = Heap::new();
        let h = heap.alloc_atomic(Value::Unit, None);
        heap.acquire_write(h, aid(1)).unwrap();
        assert!(matches!(
            heap.acquire_write(h, aid(2)),
            Err(HeapError::LockConflict { .. })
        ));
        assert!(matches!(
            heap.acquire_read(h, aid(2)),
            Err(HeapError::LockConflict { .. })
        ));
        // Re-acquisition by the holder is fine.
        heap.acquire_write(h, aid(1)).unwrap();
        heap.acquire_read(h, aid(1)).unwrap();
    }

    #[test]
    fn read_locks_block_writers_but_not_readers() {
        let mut heap = Heap::new();
        let h = heap.alloc_atomic(Value::Unit, None);
        heap.acquire_read(h, aid(1)).unwrap();
        heap.acquire_read(h, aid(2)).unwrap();
        assert!(matches!(
            heap.acquire_write(h, aid(3)),
            Err(HeapError::LockConflict { .. })
        ));
    }

    #[test]
    fn read_lock_upgrades_to_write_when_sole_reader() {
        let mut heap = Heap::new();
        let h = heap.alloc_atomic(Value::Int(0), None);
        heap.acquire_read(h, aid(1)).unwrap();
        heap.acquire_write(h, aid(1)).unwrap();
        heap.write_value(h, aid(1), |v| *v = Value::Int(1)).unwrap();
    }

    #[test]
    fn commit_installs_current_version() {
        let mut heap = Heap::new();
        let h = heap.alloc_atomic(Value::Int(1), None);
        heap.acquire_write(h, aid(1)).unwrap();
        heap.write_value(h, aid(1), |v| *v = Value::Int(2)).unwrap();
        heap.commit_action(aid(1));
        assert_eq!(heap.read_value(h, None).unwrap(), &Value::Int(2));
        // Locks are gone.
        heap.acquire_write(h, aid(2)).unwrap();
    }

    #[test]
    fn abort_discards_current_version() {
        let mut heap = Heap::new();
        let h = heap.alloc_atomic(Value::Int(1), None);
        heap.acquire_write(h, aid(1)).unwrap();
        heap.write_value(h, aid(1), |v| *v = Value::Int(2)).unwrap();
        heap.abort_action(aid(1));
        assert_eq!(heap.read_value(h, None).unwrap(), &Value::Int(1));
    }

    #[test]
    fn abort_keeps_mutex_mutations() {
        let mut heap = Heap::new();
        let h = heap.alloc_mutex(Value::Int(1));
        heap.seize(h, aid(1)).unwrap();
        heap.mutate_mutex(h, aid(1), |v| *v = Value::Int(9))
            .unwrap();
        heap.abort_action(aid(1));
        assert_eq!(heap.read_value(h, None).unwrap(), &Value::Int(9));
    }

    #[test]
    fn seize_is_exclusive() {
        let mut heap = Heap::new();
        let h = heap.alloc_mutex(Value::Unit);
        heap.seize(h, aid(1)).unwrap();
        assert!(matches!(
            heap.seize(h, aid(2)),
            Err(HeapError::MutexSeized { .. })
        ));
        heap.release(h, aid(1)).unwrap();
        heap.seize(h, aid(2)).unwrap();
    }

    #[test]
    fn mutex_mutation_requires_possession() {
        let mut heap = Heap::new();
        let h = heap.alloc_mutex(Value::Unit);
        assert!(matches!(
            heap.mutate_mutex(h, aid(1), |_| {}),
            Err(HeapError::NotSeized { .. })
        ));
    }

    #[test]
    fn lock_conflict_reports_holders() {
        let mut heap = Heap::new();
        let h = heap.alloc_atomic(Value::Unit, None);
        heap.acquire_read(h, aid(1)).unwrap();
        heap.acquire_read(h, aid(2)).unwrap();
        match heap.acquire_write(h, aid(3)) {
            Err(HeapError::LockConflict { holders, .. }) => {
                assert_eq!(holders, vec![aid(1), aid(2)]);
            }
            other => panic!("expected conflict, got {other:?}"),
        }
        let msg = heap.acquire_write(h, aid(3)).unwrap_err().to_string();
        assert!(msg.contains("held by T0.1, T0.2"), "display: {msg}");
    }

    #[test]
    fn lock_queries_see_every_holder() {
        let mut heap = Heap::new();
        let a = heap.alloc_atomic(Value::Unit, None);
        let m = heap.alloc_mutex(Value::Unit);
        heap.acquire_write(a, aid(1)).unwrap();
        heap.seize(m, aid(1)).unwrap();
        let holders = |h| {
            let (writer, readers) = heap.lock_holders(h).unwrap();
            (writer, readers.collect::<Vec<_>>())
        };
        assert_eq!(holders(a), (Some(aid(1)), vec![]));
        assert_eq!(holders(m), (Some(aid(1)), vec![]));
        assert!(heap.holds_lock(a, aid(1)) && !heap.holds_lock(a, aid(2)));
        let held = heap.locks_held_by(aid(1));
        assert_eq!(held, vec![heap.uid_of(a).unwrap(), heap.uid_of(m).unwrap()]);
        heap.abort_action(aid(1));
        heap.release(m, aid(1)).ok();
        assert!(heap.locks_held_by(aid(1)).is_empty());
    }

    #[test]
    fn locks_granted_by_recovery_are_released_with_the_action() {
        let mut heap = Heap::new();
        // An in-doubt action's prepared version inserted with its write
        // lock, and one attached to an object restored before it.
        let fresh = heap
            .insert_with_uid(
                Uid(7),
                ObjectBody::Atomic(AtomicObject {
                    base: Value::Unit,
                    current: Some(Value::Int(1)),
                    writer: Some(aid(1)),
                    readers: Default::default(),
                }),
            )
            .unwrap();
        let older = heap
            .insert_with_uid(Uid(8), ObjectBody::Atomic(AtomicObject::new(Value::Int(2))))
            .unwrap();
        assert!(heap.restore_current(older, aid(1), Value::Int(3)).unwrap());
        assert!(
            !heap.restore_current(older, aid(2), Value::Int(4)).unwrap(),
            "a write-locked object keeps its prepared version"
        );
        heap.restore_base(fresh, Value::Int(0)).unwrap();
        assert!(matches!(
            heap.restore_mutex_value(fresh, Value::Unit),
            Err(HeapError::WrongKind { .. })
        ));
        assert_eq!(heap.locks_held_by(aid(1)), vec![Uid(7), Uid(8)]);

        heap.commit_action(aid(1));
        assert!(heap.locks_held_by(aid(1)).is_empty());
        assert_eq!(heap.read_value(fresh, None).unwrap(), &Value::Int(1));
        assert_eq!(heap.read_value(older, None).unwrap(), &Value::Int(3));
        heap.acquire_write(older, aid(2)).unwrap();
    }

    #[test]
    fn kind_mismatches_are_rejected() {
        let mut heap = Heap::new();
        let a = heap.alloc_atomic(Value::Unit, None);
        let m = heap.alloc_mutex(Value::Unit);
        assert!(matches!(
            heap.seize(a, aid(1)),
            Err(HeapError::WrongKind { .. })
        ));
        assert!(matches!(
            heap.acquire_write(m, aid(1)),
            Err(HeapError::WrongKind { .. })
        ));
    }

    #[test]
    fn insert_with_uid_rejects_duplicates_and_bumps_counter() {
        let mut heap = Heap::new();
        heap.insert_with_uid(Uid(41), ObjectBody::Mutex(MutexObject::new(Value::Unit)))
            .unwrap();
        assert!(matches!(
            heap.insert_with_uid(Uid(41), ObjectBody::Mutex(MutexObject::new(Value::Unit))),
            Err(HeapError::DuplicateUid(_))
        ));
        assert!(heap.next_uid() > 41);
    }

    #[test]
    fn resolve_uid_refs_turns_uids_into_pointers() {
        let mut heap = Heap::new();
        let a = heap
            .insert_with_uid(Uid(5), ObjectBody::Atomic(AtomicObject::new(Value::Int(1))))
            .unwrap();
        let b = heap
            .insert_with_uid(
                Uid(6),
                ObjectBody::Mutex(MutexObject::new(Value::Seq(vec![
                    Value::uid_ref(Uid(5)),
                    Value::uid_ref(Uid(999)), // dangling: left alone
                ]))),
            )
            .unwrap();
        heap.resolve_uid_refs();
        assert_eq!(
            heap.read_value(b, None).unwrap(),
            &Value::Seq(vec![Value::heap_ref(a), Value::uid_ref(Uid(999))])
        );
    }

    #[test]
    fn accessibility_follows_refs_from_root() {
        let mut heap = Heap::with_stable_root();
        let a = heap.alloc_atomic(Value::Unit, None);
        let b = heap.alloc_mutex(Value::heap_ref(a));
        let orphan = heap.alloc_atomic(Value::Unit, None);
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, aid(1)).unwrap();
        heap.write_value(root, aid(1), |v| *v = Value::Seq(vec![Value::heap_ref(b)]))
            .unwrap();
        heap.commit_action(aid(1));
        let acc = heap.accessible_uids();
        assert!(acc.contains(&heap.uid_of(b).unwrap()));
        assert!(acc.contains(&heap.uid_of(a).unwrap()));
        assert!(!acc.contains(&heap.uid_of(orphan).unwrap()));
    }

    #[test]
    fn accessibility_sees_uncommitted_current_versions() {
        let mut heap = Heap::with_stable_root();
        let new_obj = heap.alloc_atomic(Value::Unit, Some(aid(1)));
        let root = heap.stable_root().unwrap();
        heap.acquire_write(root, aid(1)).unwrap();
        heap.write_value(root, aid(1), |v| {
            *v = Value::Seq(vec![Value::heap_ref(new_obj)])
        })
        .unwrap();
        // Not yet committed, but the current version makes it reachable.
        let acc = heap.accessible_uids();
        assert!(acc.contains(&heap.uid_of(new_obj).unwrap()));
    }
}
