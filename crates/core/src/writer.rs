//! The writing algorithm (§3.3.3.3), shared by the simple and hybrid logs.
//!
//! The two organizations differ only in what a "data entry" looks like and
//! whether the special outcome entries join the backward chain, so the MOS /
//! accessibility-set / NAOS machinery is written once against the
//! [`EntrySink`] trait and each recovery system supplies its own sink.

use crate::entry::HeapValue;
use crate::{RsError, RsResult};
use argus_objects::{collect_referenced, ActionId, Heap, HeapId, ObjKind, ObjectBody, Uid};
use argus_sim::IntSet;
use std::collections::VecDeque;

/// Receives the entries the writing algorithm produces, in order. A version
/// arrives as it sits in the heap; the sink encodes it flattened.
pub trait EntrySink {
    /// An ordinary data entry for an accessible object's relevant version.
    fn data(
        &mut self,
        uid: Uid,
        kind: ObjKind,
        value: HeapValue<'_>,
        aid: ActionId,
    ) -> RsResult<()>;

    /// A `base_committed` special outcome entry for a newly accessible
    /// atomic object's base version.
    fn base_committed(&mut self, uid: Uid, value: HeapValue<'_>) -> RsResult<()>;

    /// A `prepared_data` special outcome entry: the current version of a
    /// newly accessible atomic object write-locked by an already-prepared
    /// *other* action.
    fn prepared_data(&mut self, uid: Uid, value: HeapValue<'_>, aid: ActionId) -> RsResult<()>;
}

/// What one run of the writing algorithm keeps beside its arguments, owned
/// by the recovery system and reused, so a run allocates nothing once the
/// tables have seen a MOS of its size.
#[derive(Debug, Default)]
pub struct MosScratch {
    /// The newly accessible objects set (NAOS), in discovery order.
    naos: VecDeque<HeapId>,
    /// Every uid that ever entered the NAOS in this run.
    queued: IntSet<Uid>,
    /// The uids of the MOS, each once.
    seen: IntSet<Uid>,
    /// The objects the version being written references.
    referenced: Vec<HeapId>,
}

impl MosScratch {
    /// Queues the objects `value` references that are neither accessible
    /// nor queued yet.
    fn enqueue_refs(&mut self, value: HeapValue<'_>, access: &IntSet<Uid>) -> RsResult<()> {
        self.referenced.clear();
        collect_referenced(value.heap, value.value, &mut self.referenced)?;
        for &h in &self.referenced {
            let uid = value.heap.uid_of(h)?;
            if !access.contains(&uid) && self.queued.insert(uid) {
                self.naos.push_back(h);
            }
        }
        Ok(())
    }
}

/// Runs the §3.3.3.3 algorithm for one `prepare` or `write_entry` call.
///
/// * `aid` — the preparing action.
/// * `mos` — the Modified Objects Set for `aid`.
/// * `access` — the guardian's accessibility set (AS); newly accessible
///   objects are added to it as they are written.
/// * `pat` — the prepared-actions table (PAT), consulted for newly
///   accessible objects write-locked by other actions.
///
/// Returns MOS′: the objects of `mos` that were *not* written because they
/// are (still) inaccessible — the early-prepare contract of §4.4.
pub fn process_mos(
    aid: ActionId,
    mos: &[HeapId],
    heap: &Heap,
    access: &mut IntSet<Uid>,
    pat: &IntSet<ActionId>,
    scratch: &mut MosScratch,
    sink: &mut impl EntrySink,
) -> RsResult<Vec<HeapId>> {
    scratch.naos.clear();
    scratch.queued.clear();
    scratch.seen.clear();
    let at = |value| HeapValue { heap, value };

    // Step 3: process every object in the MOS.
    for &h in mos {
        let slot = heap.get(h)?;
        if !scratch.seen.insert(slot.uid) {
            continue;
        }
        if !access.contains(&slot.uid) {
            // Step 3c: ignore for now; if it becomes newly accessible it
            // will be written through the NAOS below, otherwise it is
            // returned in MOS′.
            continue;
        }
        // Step 3b: copy the relevant version as a data entry.
        let (kind, version) = match &slot.body {
            ObjectBody::Atomic(obj) => (ObjKind::Atomic, at(obj.version_for(Some(aid)))),
            ObjectBody::Mutex(obj) => (ObjKind::Mutex, at(&obj.value)),
        };
        scratch.enqueue_refs(version, access)?;
        sink.data(slot.uid, kind, version, aid)?;
    }

    // Step 4: drain the NAOS, which may grow as versions are copied.
    while let Some(h) = scratch.naos.pop_front() {
        let slot = heap.get(h)?;
        let uid = slot.uid;
        if access.contains(&uid) {
            continue;
        }
        match &slot.body {
            ObjectBody::Mutex(obj) => {
                // A newly accessible mutex object "is no problem": one data
                // entry with its current version suffices (§3.3.3.2).
                scratch.enqueue_refs(at(&obj.value), access)?;
                sink.data(uid, ObjKind::Mutex, at(&obj.value), aid)?;
            }
            ObjectBody::Atomic(obj) => {
                let base = at(&obj.base);
                scratch.enqueue_refs(base, access)?;
                let current = || {
                    let cur = obj.current.as_ref().map(at);
                    cur.ok_or(RsError::Internal("write lock without a current version"))
                };
                match obj.writer {
                    Some(w) if w == aid => {
                        // Step 4a, write-locked by the preparing action:
                        // base_committed for the base, data entry for the
                        // current version.
                        let cur = current()?;
                        scratch.enqueue_refs(cur, access)?;
                        sink.base_committed(uid, base)?;
                        sink.data(uid, ObjKind::Atomic, cur, aid)?;
                    }
                    Some(other) if pat.contains(&other) => {
                        // Write-locked by another action that has already
                        // prepared: base_committed (needed if it aborts) and
                        // prepared_data (needed if it commits).
                        let cur = current()?;
                        scratch.enqueue_refs(cur, access)?;
                        sink.base_committed(uid, base)?;
                        sink.prepared_data(uid, cur, other)?;
                    }
                    // Read-locked (e.g. freshly created), unlocked, or
                    // write-locked by an unprepared action: the base
                    // version alone is what must survive.
                    _ => sink.base_committed(uid, base)?,
                }
            }
        }
        access.insert(uid);
    }

    // MOS′: whatever never became accessible, each object once.
    let mut leftover = Vec::new();
    for &h in mos {
        let uid = heap.uid_of(h)?;
        if !access.contains(&uid) && scratch.seen.remove(&uid) {
            leftover.push(h);
        }
    }
    Ok(leftover)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{encode_value, WireField};
    use argus_objects::{GuardianId, Value};
    use argus_sim::DetRng;
    use argus_slog::Encoder;
    use std::collections::HashSet;

    fn aid(n: u64) -> ActionId {
        ActionId::new(GuardianId(0), n)
    }

    /// Records emitted entries, and the bytes of each version, for
    /// inspection.
    #[derive(Default)]
    struct VecSink(Vec<String>, Vec<Vec<u8>>);

    impl VecSink {
        fn note(&mut self, what: String, value: HeapValue<'_>) -> RsResult<()> {
            let mut enc = Encoder::with_capacity(64);
            value.put(&mut enc)?;
            self.0.push(what);
            self.1.push(enc.finish());
            Ok(())
        }
    }

    impl EntrySink for VecSink {
        fn data(
            &mut self,
            uid: Uid,
            kind: ObjKind,
            v: HeapValue<'_>,
            aid: ActionId,
        ) -> RsResult<()> {
            self.note(format!("data {uid} {kind} {aid}"), v)
        }

        fn base_committed(&mut self, uid: Uid, v: HeapValue<'_>) -> RsResult<()> {
            self.note(format!("bc {uid}"), v)
        }

        fn prepared_data(&mut self, uid: Uid, v: HeapValue<'_>, aid: ActionId) -> RsResult<()> {
            self.note(format!("pd {uid} {aid}"), v)
        }
    }

    type Access = IntSet<Uid>;
    type Pat = IntSet<ActionId>;

    /// `process_mos` with a fresh scratch.
    fn run(
        aid: ActionId,
        mos: &[HeapId],
        heap: &Heap,
        access: &mut Access,
        pat: &Pat,
        sink: &mut VecSink,
    ) -> RsResult<Vec<HeapId>> {
        process_mos(
            aid,
            mos,
            heap,
            access,
            pat,
            &mut MosScratch::default(),
            sink,
        )
    }

    /// Reproduces the worked example of §3.3.3.2 (Figure 3-6): stable
    /// variable X → O1 → O2; T1 write-locks O2 and points it at a new O3.
    #[test]
    fn figure_3_6_newly_accessible_object() {
        let mut heap = Heap::new();
        let o3 = heap.alloc_atomic(Value::Int(3), Some(aid(1)));
        let o2 = heap.alloc_atomic(Value::Unit, None);
        let uid2 = heap.uid_of(o2).unwrap();
        let uid3 = heap.uid_of(o3).unwrap();
        heap.acquire_write(o2, aid(1)).unwrap();
        heap.write_value(o2, aid(1), |v| *v = Value::heap_ref(o3))
            .unwrap();

        let mut access: Access = [uid2].into_iter().collect();
        let pat = Pat::default();
        let mut sink = VecSink::default();
        let leftover = run(aid(1), &[o2], &heap, &mut access, &pat, &mut sink).unwrap();

        assert!(leftover.is_empty());
        assert_eq!(
            sink.0,
            vec![format!("data {uid2} atomic T0.1"), format!("bc {uid3}")]
        );
        // Step 7: the AS now contains O2 and O3.
        assert!(access.contains(&uid2) && access.contains(&uid3));
    }

    #[test]
    fn naos_object_write_locked_by_preparer_gets_both_versions() {
        let mut heap = Heap::new();
        let o3 = heap.alloc_atomic(Value::Int(0), Some(aid(1)));
        heap.acquire_write(o3, aid(1)).unwrap();
        heap.write_value(o3, aid(1), |v| *v = Value::Int(9))
            .unwrap();
        let o2 = heap.alloc_atomic(Value::Unit, None);
        heap.acquire_write(o2, aid(1)).unwrap();
        heap.write_value(o2, aid(1), |v| *v = Value::heap_ref(o3))
            .unwrap();
        let uid2 = heap.uid_of(o2).unwrap();
        let uid3 = heap.uid_of(o3).unwrap();

        let mut access: Access = [uid2].into_iter().collect();
        let mut sink = VecSink::default();
        run(
            aid(1),
            &[o2],
            &heap,
            &mut access,
            &Pat::default(),
            &mut sink,
        )
        .unwrap();
        assert_eq!(
            sink.0,
            vec![
                format!("data {uid2} atomic T0.1"),
                format!("bc {uid3}"),
                format!("data {uid3} atomic T0.1"),
            ]
        );
    }

    #[test]
    fn naos_object_locked_by_prepared_other_action_gets_prepared_data() {
        // Action B prepared while holding a write lock on X; action A then
        // makes X newly accessible. Both base and current versions must be
        // written: bc + pd (§3.3.3.2).
        let a = aid(1);
        let b = aid(2);
        let mut heap = Heap::new();
        let x = heap.alloc_atomic(Value::Int(1), None);
        heap.acquire_write(x, b).unwrap();
        heap.write_value(x, b, |v| *v = Value::Int(2)).unwrap();
        let root = heap.alloc_atomic(Value::Unit, None);
        heap.acquire_write(root, a).unwrap();
        heap.write_value(root, a, |v| *v = Value::heap_ref(x))
            .unwrap();
        let uid_x = heap.uid_of(x).unwrap();
        let uid_root = heap.uid_of(root).unwrap();

        let mut access: Access = [uid_root].into_iter().collect();
        let pat: Pat = [b].into_iter().collect();
        let mut sink = VecSink::default();
        run(a, &[root], &heap, &mut access, &pat, &mut sink).unwrap();
        assert_eq!(
            sink.0,
            vec![
                format!("data {uid_root} atomic T0.1"),
                format!("bc {uid_x}"),
                format!("pd {uid_x} T0.2"),
            ]
        );
    }

    #[test]
    fn unprepared_other_writer_gets_base_only() {
        let a = aid(1);
        let b = aid(2);
        let mut heap = Heap::new();
        let x = heap.alloc_atomic(Value::Int(1), None);
        heap.acquire_write(x, b).unwrap();
        let root = heap.alloc_atomic(Value::Unit, None);
        heap.acquire_write(root, a).unwrap();
        heap.write_value(root, a, |v| *v = Value::heap_ref(x))
            .unwrap();
        let uid_x = heap.uid_of(x).unwrap();
        let uid_root = heap.uid_of(root).unwrap();

        let mut access: Access = [uid_root].into_iter().collect();
        let mut sink = VecSink::default();
        run(a, &[root], &heap, &mut access, &Pat::default(), &mut sink).unwrap();
        assert_eq!(
            sink.0,
            vec![
                format!("data {uid_root} atomic T0.1"),
                format!("bc {uid_x}")
            ]
        );
    }

    #[test]
    fn inaccessible_mos_objects_are_returned_as_mos_prime() {
        let mut heap = Heap::new();
        let orphan = heap.alloc_atomic(Value::Int(1), None);
        heap.acquire_write(orphan, aid(1)).unwrap();
        let mut access = Access::default();
        let mut sink = VecSink::default();
        let leftover = run(
            aid(1),
            &[orphan],
            &heap,
            &mut access,
            &Pat::default(),
            &mut sink,
        )
        .unwrap();
        assert_eq!(leftover, vec![orphan]);
        assert!(sink.0.is_empty());
    }

    #[test]
    fn newly_accessible_mutex_gets_one_data_entry() {
        let a = aid(1);
        let mut heap = Heap::new();
        let m = heap.alloc_mutex(Value::Int(7));
        let root = heap.alloc_atomic(Value::Unit, None);
        heap.acquire_write(root, a).unwrap();
        heap.write_value(root, a, |v| *v = Value::heap_ref(m))
            .unwrap();
        let uid_m = heap.uid_of(m).unwrap();
        let uid_root = heap.uid_of(root).unwrap();

        let mut access: Access = [uid_root].into_iter().collect();
        let mut sink = VecSink::default();
        run(a, &[root], &heap, &mut access, &Pat::default(), &mut sink).unwrap();
        assert_eq!(
            sink.0,
            vec![
                format!("data {uid_root} atomic T0.1"),
                format!("data {uid_m} mutex T0.1"),
            ]
        );
    }

    #[test]
    fn naos_cascades_through_chains_of_new_objects() {
        // root -> n1 -> n2 -> n3, all newly accessible.
        let a = aid(1);
        let mut heap = Heap::new();
        let n3 = heap.alloc_atomic(Value::Int(3), Some(a));
        let n2 = heap.alloc_atomic(Value::heap_ref(n3), Some(a));
        let n1 = heap.alloc_atomic(Value::heap_ref(n2), Some(a));
        let root = heap.alloc_atomic(Value::Unit, None);
        heap.acquire_write(root, a).unwrap();
        heap.write_value(root, a, |v| *v = Value::heap_ref(n1))
            .unwrap();
        let uid_root = heap.uid_of(root).unwrap();

        let mut access: Access = [uid_root].into_iter().collect();
        let mut sink = VecSink::default();
        run(a, &[root], &heap, &mut access, &Pat::default(), &mut sink).unwrap();
        // One data entry for root plus one bc per new object.
        assert_eq!(sink.0.len(), 4);
        assert_eq!(access.len(), 4);
    }

    #[test]
    fn duplicate_mos_entries_write_once() {
        let a = aid(1);
        let mut heap = Heap::new();
        let x = heap.alloc_atomic(Value::Int(0), None);
        heap.acquire_write(x, a).unwrap();
        let uid = heap.uid_of(x).unwrap();
        let mut access: Access = [uid].into_iter().collect();
        let mut sink = VecSink::default();
        run(
            a,
            &[x, x, x],
            &heap,
            &mut access,
            &Pat::default(),
            &mut sink,
        )
        .unwrap();
        assert_eq!(sink.0.len(), 1);
    }

    // ---- the writing algorithm against its oracle ---------------------------

    /// The writing algorithm as it stood before versions were encoded
    /// straight from the heap: three fresh sets and a queue per call, every
    /// version flattened into an owned copy the sink receives. Kept as the
    /// oracle for [`process_mos`], [`collect_referenced`] and the
    /// translating encoder.
    mod oracle {
        use crate::{RsError, RsResult};
        use argus_objects::{
            flatten_value, ActionId, Heap, HeapId, ObjKind, ObjectBody, Uid, Value,
        };
        use std::collections::{HashSet, VecDeque};

        pub(super) trait EntrySink {
            fn data(
                &mut self,
                uid: Uid,
                kind: ObjKind,
                value: Value,
                aid: ActionId,
            ) -> RsResult<()>;
            fn base_committed(&mut self, uid: Uid, value: Value) -> RsResult<()>;
            fn prepared_data(&mut self, uid: Uid, value: Value, aid: ActionId) -> RsResult<()>;
        }

        pub(super) fn process_mos(
            aid: ActionId,
            mos: &[HeapId],
            heap: &Heap,
            access: &mut HashSet<Uid>,
            pat: &HashSet<ActionId>,
            sink: &mut impl EntrySink,
        ) -> RsResult<Vec<HeapId>> {
            let mut naos: VecDeque<HeapId> = VecDeque::new();
            let mut queued: HashSet<Uid> = HashSet::new();

            let enqueue_refs = |referenced: &[HeapId],
                                heap: &Heap,
                                access: &HashSet<Uid>,
                                queued: &mut HashSet<Uid>,
                                naos: &mut VecDeque<HeapId>|
             -> RsResult<()> {
                for &h in referenced {
                    let uid = heap.uid_of(h)?;
                    if !access.contains(&uid) && queued.insert(uid) {
                        naos.push_back(h);
                    }
                }
                Ok(())
            };

            // Step 3: process every object in the MOS.
            let mut seen_mos: HashSet<Uid> = HashSet::new();
            for &h in mos {
                let slot = heap.get(h)?;
                if !seen_mos.insert(slot.uid) {
                    continue;
                }
                if !access.contains(&slot.uid) {
                    // Step 3c: ignore for now; if it becomes newly accessible it
                    // will be written through the NAOS below, otherwise it is
                    // returned in MOS′.
                    continue;
                }
                // Step 3b: copy the relevant version as a data entry.
                match &slot.body {
                    ObjectBody::Atomic(obj) => {
                        let out = flatten_value(heap, obj.version_for(Some(aid)))?;
                        enqueue_refs(&out.referenced, heap, access, &mut queued, &mut naos)?;
                        sink.data(slot.uid, ObjKind::Atomic, out.value, aid)?;
                    }
                    ObjectBody::Mutex(obj) => {
                        let out = flatten_value(heap, &obj.value)?;
                        enqueue_refs(&out.referenced, heap, access, &mut queued, &mut naos)?;
                        sink.data(slot.uid, ObjKind::Mutex, out.value, aid)?;
                    }
                }
            }

            // Step 4: drain the NAOS, which may grow as versions are copied.
            while let Some(h) = naos.pop_front() {
                let slot = heap.get(h)?;
                let uid = slot.uid;
                if access.contains(&uid) {
                    continue;
                }
                match &slot.body {
                    ObjectBody::Mutex(obj) => {
                        // A newly accessible mutex object "is no problem": one data
                        // entry with its current version suffices (§3.3.3.2).
                        let out = flatten_value(heap, &obj.value)?;
                        enqueue_refs(&out.referenced, heap, access, &mut queued, &mut naos)?;
                        sink.data(uid, ObjKind::Mutex, out.value, aid)?;
                    }
                    ObjectBody::Atomic(obj) => {
                        let base = flatten_value(heap, &obj.base)?;
                        enqueue_refs(&base.referenced, heap, access, &mut queued, &mut naos)?;
                        match obj.writer {
                            Some(w) if w == aid => {
                                // Step 4a, write-locked by the preparing action:
                                // base_committed for the base, data entry for the
                                // current version.
                                let cur = obj.current.as_ref().ok_or(RsError::Internal(
                                    "write lock without a current version",
                                ))?;
                                let cur = flatten_value(heap, cur)?;
                                enqueue_refs(
                                    &cur.referenced,
                                    heap,
                                    access,
                                    &mut queued,
                                    &mut naos,
                                )?;
                                sink.base_committed(uid, base.value)?;
                                sink.data(uid, ObjKind::Atomic, cur.value, aid)?;
                            }
                            Some(other) if pat.contains(&other) => {
                                // Write-locked by another action that has already
                                // prepared: base_committed (needed if it aborts) and
                                // prepared_data (needed if it commits).
                                let cur = obj.current.as_ref().ok_or(RsError::Internal(
                                    "write lock without a current version",
                                ))?;
                                let cur = flatten_value(heap, cur)?;
                                enqueue_refs(
                                    &cur.referenced,
                                    heap,
                                    access,
                                    &mut queued,
                                    &mut naos,
                                )?;
                                sink.base_committed(uid, base.value)?;
                                sink.prepared_data(uid, cur.value, other)?;
                            }
                            _ => {
                                // Read-locked (e.g. freshly created), unlocked, or
                                // write-locked by an unprepared action: the base
                                // version alone is what must survive.
                                sink.base_committed(uid, base.value)?;
                            }
                        }
                    }
                }
                access.insert(uid);
            }

            // MOS′: whatever never became accessible.
            let mut leftover = Vec::new();
            let mut seen_leftover = HashSet::new();
            for &h in mos {
                let uid = heap.uid_of(h)?;
                if !access.contains(&uid) && seen_leftover.insert(uid) {
                    leftover.push(h);
                }
            }
            Ok(leftover)
        }
    }

    /// The oracle's sink: the same strings, each flattened version encoded.
    #[derive(Default)]
    struct OracleSink(Vec<String>, Vec<Vec<u8>>);

    impl OracleSink {
        fn note(&mut self, what: String, value: Value) -> RsResult<()> {
            let mut enc = Encoder::with_capacity(64);
            encode_value(&mut enc, &value)?;
            self.0.push(what);
            self.1.push(enc.finish());
            Ok(())
        }
    }

    impl oracle::EntrySink for OracleSink {
        fn data(&mut self, uid: Uid, kind: ObjKind, v: Value, aid: ActionId) -> RsResult<()> {
            self.note(format!("data {uid} {kind} {aid}"), v)
        }

        fn base_committed(&mut self, uid: Uid, v: Value) -> RsResult<()> {
            self.note(format!("bc {uid}"), v)
        }

        fn prepared_data(&mut self, uid: Uid, v: Value, aid: ActionId) -> RsResult<()> {
            self.note(format!("pd {uid} {aid}"), v)
        }
    }

    /// A value of nested regular objects whose references point anywhere in
    /// `0..objects`, volatile or by uid, with repeats.
    fn random_value(rng: &mut DetRng, objects: u32, depth: u32) -> Value {
        match rng.gen_range(if depth == 0 { 5 } else { 7 }) {
            0 => Value::Int(rng.gen_range(1 << 40) as i64),
            1 => Value::Bytes(vec![rng.gen_range(256) as u8; rng.gen_range(80) as usize]),
            2 => Value::Str(format!("s{}", rng.gen_range(1000))),
            3 => Value::heap_ref(HeapId(rng.gen_range(u64::from(objects)) as u32)),
            4 => Value::uid_ref(Uid(rng.gen_range(u64::from(objects) + 3))),
            _ => {
                let n = rng.gen_range(5);
                Value::Seq(
                    (0..n)
                        .map(|_| random_value(rng, objects, depth - 1))
                        .collect(),
                )
            }
        }
    }

    /// A heap of atomic and mutex objects, some created by, write-locked by
    /// or seized by one of three actions, holding random graphs.
    fn random_heap(rng: &mut DetRng) -> (Heap, u32) {
        let objects = rng.gen_between(2, 24) as u32;
        let mut heap = Heap::with_stable_root();
        for _ in 1..objects {
            if rng.gen_bool(0.25) {
                heap.alloc_mutex(Value::Unit);
            } else {
                let creator = rng.gen_bool(0.3).then(|| aid(rng.gen_range(3)));
                heap.alloc_atomic(Value::Unit, creator);
            }
        }
        for h in (0..objects).map(HeapId) {
            let value = random_value(rng, objects, 3);
            let writer = aid(rng.gen_range(3));
            match heap.get(h).unwrap().body.kind() {
                ObjKind::Mutex => {
                    heap.seize(h, writer).unwrap();
                    heap.mutate_mutex(h, writer, |v| *v = value).unwrap();
                    heap.release(h, writer).unwrap();
                }
                ObjKind::Atomic => {
                    heap.restore_base(h, random_value(rng, objects, 2)).unwrap();
                    if rng.gen_bool(0.5) && heap.acquire_write(h, writer).is_ok() {
                        heap.write_value(h, writer, |v| *v = value).unwrap();
                    }
                }
            }
        }
        (heap, objects)
    }

    #[test]
    fn matches_the_oracle_on_seeded_random_heaps() {
        let mut rng = DetRng::new(0x3033);
        let mut scratch = MosScratch::default();
        let (mut specials, mut leftovers) = (0, 0);
        for case in 0..400 {
            let (heap, objects) = random_heap(&mut rng);
            let uid_of = |h: u32| heap.uid_of(HeapId(h)).unwrap();
            let mut access: Access = [Uid::STABLE_ROOT].into_iter().collect();
            access.extend((0..objects).filter(|_| rng.gen_bool(0.3)).map(uid_of));
            let pat: Pat = (0..3).filter(|_| rng.gen_bool(0.5)).map(aid).collect();
            let mos: Vec<HeapId> = (0..rng.gen_range(8))
                .map(|_| HeapId(rng.gen_range(u64::from(objects)) as u32))
                .collect();

            let mut want_access: HashSet<Uid> = access.iter().copied().collect();
            let want_pat: HashSet<ActionId> = pat.iter().copied().collect();
            let mut want = OracleSink::default();
            let want_left =
                oracle::process_mos(aid(0), &mos, &heap, &mut want_access, &want_pat, &mut want);
            let mut got = VecSink::default();
            // The scratch is shared across cases: a run starts by clearing it.
            let got_left = process_mos(
                aid(0),
                &mos,
                &heap,
                &mut access,
                &pat,
                &mut scratch,
                &mut got,
            );

            assert_eq!(got_left.is_ok(), want_left.is_ok(), "case {case}");
            let n = if want_left.is_ok() { want.0.len() } else { 0 };
            if let (Ok(got_left), Ok(want_left)) = (got_left, want_left) {
                assert_eq!(got_left, want_left, "case {case}: MOS′");
                assert_eq!(got.0, want.0, "case {case}: entries");
                specials += got.0.iter().filter(|e| e.starts_with("pd")).count();
                leftovers += got_left.len();
                let got_access: HashSet<Uid> = access.iter().copied().collect();
                assert_eq!(got_access, want_access, "case {case}: access set");
            }
            assert_eq!(got.1[..n], want.1[..n], "case {case}: bytes");
        }
        // The heaps reach the rare arms too.
        assert!(
            specials > 5 && leftovers > 20,
            "{specials} pd, {leftovers} left"
        );
    }

    #[test]
    fn a_heap_value_encodes_as_its_flattened_copy_and_lists_the_same_references() {
        let mut rng = DetRng::new(0xF1A7);
        let mut referenced = Vec::new();
        for case in 0..400 {
            let (heap, objects) = random_heap(&mut rng);
            let value = random_value(&mut rng, objects + 2, 4);
            let want = argus_objects::flatten_value(&heap, &value);
            referenced.clear();
            let got = collect_referenced(&heap, &value, &mut referenced);
            let mut enc = Encoder::with_capacity(64);
            let put = HeapValue {
                heap: &heap,
                value: &value,
            }
            .put(&mut enc);
            let Ok(want) = want else {
                // A dangling volatile reference: all three refuse.
                assert!(got.is_err() && put.is_err(), "case {case}");
                continue;
            };
            got.unwrap();
            put.unwrap();
            assert_eq!(referenced, want.referenced, "case {case}");
            let mut flat = Encoder::with_capacity(64);
            encode_value(&mut flat, &want.value).unwrap();
            assert_eq!(enc.finish(), flat.finish(), "case {case}");
        }
    }
}
