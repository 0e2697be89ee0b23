//! Object values: the data field of a recoverable object.

use crate::{HeapId, Uid};
use std::fmt;

/// A reference from one object's data to a recoverable object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjRef {
    /// A volatile-memory reference (normal operation).
    Heap(HeapId),
    /// A uid reference (the flattened, on-log form; also the transient form
    /// during recovery before the final uid-to-pointer pass of §3.4.3).
    Uid(Uid),
}

/// The data portion of an object.
///
/// `Seq` models regular composite objects (records, arrays): they have no
/// identity and are copied inline with their containing recoverable object.
/// `Ref` is an edge to another recoverable object, which the incremental
/// copying algorithm translates to a [`Uid`] instead of copying (§2.4.3,
/// Figure 2-2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// Nothing.
    Unit,
    /// A signed integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// A regular composite object, copied inline.
    Seq(Vec<Value>),
    /// A reference to a recoverable object.
    Ref(ObjRef),
}

impl Value {
    /// Convenience: a volatile reference.
    pub fn heap_ref(h: HeapId) -> Value {
        Value::Ref(ObjRef::Heap(h))
    }

    /// Convenience: a uid reference.
    pub fn uid_ref(u: Uid) -> Value {
        Value::Ref(ObjRef::Uid(u))
    }

    /// Visits every [`ObjRef`] in the value, outermost first.
    pub fn for_each_ref(&self, f: &mut impl FnMut(&ObjRef)) {
        match self {
            Value::Seq(items) => {
                for item in items {
                    item.for_each_ref(f);
                }
            }
            Value::Ref(r) => f(r),
            _ => {}
        }
    }

    /// Rewrites every [`ObjRef`] in place.
    pub fn map_refs(&mut self, f: &mut impl FnMut(ObjRef) -> ObjRef) {
        match self {
            Value::Seq(items) => {
                for item in items {
                    item.map_refs(f);
                }
            }
            Value::Ref(r) => *r = f(*r),
            _ => {}
        }
    }

    /// Collects the uids of every uid-reference in the value.
    pub fn collect_uid_refs(&self) -> Vec<Uid> {
        let mut uids = Vec::new();
        self.for_each_ref(&mut |r| {
            if let ObjRef::Uid(u) = r {
                uids.push(*u);
            }
        });
        uids
    }

    /// Returns `true` when the value contains no volatile references, i.e.
    /// it is in the flattened form that may be written to the log.
    pub fn is_flat(&self) -> bool {
        let mut flat = true;
        self.for_each_ref(&mut |r| {
            if matches!(r, ObjRef::Heap(_)) {
                flat = false;
            }
        });
        flat
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            Value::Seq(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Ref(ObjRef::Heap(h)) => write!(f, "&{h}"),
            Value::Ref(ObjRef::Uid(u)) => write!(f, "&{u}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::Seq(vec![
            Value::Int(1),
            Value::Seq(vec![Value::heap_ref(HeapId(2)), Value::Str("x".into())]),
            Value::uid_ref(Uid(9)),
        ])
    }

    #[test]
    fn for_each_ref_finds_nested_refs() {
        let mut seen = Vec::new();
        sample().for_each_ref(&mut |r| seen.push(*r));
        assert_eq!(seen, vec![ObjRef::Heap(HeapId(2)), ObjRef::Uid(Uid(9))]);
    }

    #[test]
    fn map_refs_rewrites_in_place() {
        let mut v = sample();
        v.map_refs(&mut |r| match r {
            ObjRef::Heap(_) => ObjRef::Uid(Uid(100)),
            other => other,
        });
        assert!(v.is_flat());
        assert_eq!(v.collect_uid_refs(), vec![Uid(100), Uid(9)]);
    }

    #[test]
    fn is_flat_detects_heap_refs() {
        assert!(!sample().is_flat());
        assert!(Value::Int(3).is_flat());
        assert!(Value::uid_ref(Uid(1)).is_flat());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(sample().to_string(), "[1, [&vm:2, \"x\"], &O9]");
    }
}
