//! The incremental copying algorithm's flattening step (§2.4.3, §3.3.3.1).

use crate::{Heap, HeapId, HeapResult, ObjRef, Value};

/// The result of flattening one object version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlattenOutcome {
    /// The flattened value: all regular data copied inline, every reference
    /// to a recoverable object replaced by its uid (Figure 3-4).
    pub value: Value,
    /// The recoverable objects the value references, in first-encounter
    /// order with duplicates removed. The writing algorithm checks each of
    /// these against the accessibility set to discover newly accessible
    /// objects (§3.3.3.2).
    pub referenced: Vec<HeapId>,
}

/// Flattens `value` against `heap`.
///
/// Copies the data portion — including contained regular objects — but not
/// any contained recoverable objects: "Any references to other recoverable
/// objects are translated from their volatile addresses to their
/// corresponding stable storage references" (§2.4.3). A reference that is
/// already a uid (possible mid-recovery) is preserved and resolved through
/// the heap if the object is resident.
pub fn flatten_value(heap: &Heap, value: &Value) -> HeapResult<FlattenOutcome> {
    let mut referenced = Vec::new();
    let flat = go(heap, value, &mut referenced)?;
    Ok(FlattenOutcome {
        value: flat,
        referenced,
    })
}

/// Appends to `referenced` the recoverable objects `value` references that
/// are not in it yet, in first-encounter order — what [`flatten_value`]
/// reports, for a caller that encodes the version straight from the heap
/// and so needs no flattened copy. A dangling volatile reference is the
/// same error.
pub fn collect_referenced(
    heap: &Heap,
    value: &Value,
    referenced: &mut Vec<HeapId>,
) -> HeapResult<()> {
    match value {
        Value::Seq(items) => {
            for item in items {
                collect_referenced(heap, item, referenced)?;
            }
        }
        Value::Ref(r) => {
            let resident = match r {
                ObjRef::Heap(h) => Some(heap.uid_of(*h).map(|_| *h)?),
                ObjRef::Uid(u) => heap.lookup(*u),
            };
            if let Some(h) = resident.filter(|h| !referenced.contains(h)) {
                referenced.push(h);
            }
        }
        _ => {}
    }
    Ok(())
}

fn go(heap: &Heap, value: &Value, referenced: &mut Vec<HeapId>) -> HeapResult<Value> {
    Ok(match value {
        Value::Seq(items) => {
            let mut copied = Vec::with_capacity(items.len());
            for item in items {
                copied.push(go(heap, item, referenced)?);
            }
            Value::Seq(copied)
        }
        Value::Ref(ObjRef::Heap(h)) => {
            let uid = heap.uid_of(*h)?;
            if !referenced.contains(h) {
                referenced.push(*h);
            }
            Value::uid_ref(uid)
        }
        Value::Ref(ObjRef::Uid(u)) => {
            if let Some(h) = heap.lookup(*u) {
                if !referenced.contains(&h) {
                    referenced.push(h);
                }
            }
            Value::uid_ref(*u)
        }
        leaf => leaf.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HeapError, Uid};

    #[test]
    fn replaces_heap_refs_with_uids() {
        let mut heap = Heap::new();
        let target = heap.alloc_atomic(Value::Int(5), None);
        let uid = heap.uid_of(target).unwrap();
        let value = Value::Seq(vec![Value::Int(1), Value::heap_ref(target)]);
        let out = flatten_value(&heap, &value).unwrap();
        assert_eq!(
            out.value,
            Value::Seq(vec![Value::Int(1), Value::uid_ref(uid)])
        );
        assert_eq!(out.referenced, vec![target]);
        assert!(out.value.is_flat());
    }

    #[test]
    fn copies_regular_objects_inline() {
        // Figure 3-3: a regular object containing a reference to a
        // recoverable object is copied, and the inner reference replaced.
        let mut heap = Heap::new();
        let o4 = heap.alloc_atomic(Value::Int(4), None);
        let regular = Value::Seq(vec![Value::Str("reg".into()), Value::heap_ref(o4)]);
        let value = Value::Seq(vec![regular]);
        let out = flatten_value(&heap, &value).unwrap();
        let uid4 = heap.uid_of(o4).unwrap();
        assert_eq!(
            out.value,
            Value::Seq(vec![Value::Seq(vec![
                Value::Str("reg".into()),
                Value::uid_ref(uid4)
            ])])
        );
        assert_eq!(out.referenced, vec![o4]);
    }

    #[test]
    fn deduplicates_repeated_references() {
        let mut heap = Heap::new();
        let t = heap.alloc_mutex(Value::Unit);
        let value = Value::Seq(vec![Value::heap_ref(t), Value::heap_ref(t)]);
        let out = flatten_value(&heap, &value).unwrap();
        assert_eq!(out.referenced, vec![t]);
    }

    #[test]
    fn keeps_existing_uid_refs() {
        let heap = Heap::new();
        let value = Value::uid_ref(Uid(77));
        let out = flatten_value(&heap, &value).unwrap();
        assert_eq!(out.value, Value::uid_ref(Uid(77)));
        assert!(out.referenced.is_empty());
    }

    #[test]
    fn dangling_heap_ref_is_an_error() {
        let heap = Heap::new();
        let value = Value::heap_ref(HeapId(9));
        assert!(matches!(
            flatten_value(&heap, &value),
            Err(HeapError::NoSuchObject(_))
        ));
    }

    #[test]
    fn leaves_are_cloned() {
        let heap = Heap::new();
        for v in [
            Value::Unit,
            Value::Int(3),
            Value::Bool(true),
            Value::Bytes(vec![1, 2]),
        ] {
            let out = flatten_value(&heap, &v).unwrap();
            assert_eq!(out.value, v);
            assert!(out.referenced.is_empty());
        }
    }
}
