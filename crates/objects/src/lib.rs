//! The recoverable-object model (§2.4 and §3.3.3 of the thesis).
//!
//! A guardian's stable state is a graph of *recoverable objects*, which come
//! in two flavors:
//!
//! * **Built-in atomic objects** — two-phase read/write locking with volatile
//!   versions: acquiring a write lock creates a *current* version beside the
//!   committed *base* version; commit installs the current version, abort
//!   discards it.
//! * **Mutex objects** — a single current version guarded by `seize`, with
//!   the special recovery semantics of \[Weihl 82\]: once an action that
//!   modified a mutex *prepares*, the new mutex state must be restored after
//!   a crash even if that action later aborts.
//!
//! *Regular* objects (plain data) have no identity of their own: they live
//! inline inside the [`Value`] of a recoverable object and are copied with
//! it, which is exactly the sharing rule of the incremental copying algorithm
//! (§2.4.3): "sharing of objects is preserved only for shared recoverable
//! objects".
//!
//! [`Heap`] is the guardian's volatile memory; [`flatten_value`] implements the
//! incremental copy that turns a volatile object graph into a self-contained
//! value whose references to other recoverable objects are [`Uid`]s. The
//! stable-variables root (§3.3.3.2) is an ordinary atomic object with the
//! predefined uid [`Uid::STABLE_ROOT`].

mod flatten;
mod heap;
mod ids;
mod object;
mod value;

pub use flatten::{collect_referenced, flatten_value, FlattenOutcome};
pub use heap::{Heap, HeapError, HeapResult};
pub use ids::{ActionId, GuardianId, HeapId, Uid};
pub use object::{AtomicObject, MutexObject, ObjKind, ObjectBody, ObjectSlot};
pub use value::{ObjRef, Value};
