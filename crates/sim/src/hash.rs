//! One fixed hasher for small integer keys.
//!
//! What sits on it — every table keyed by an integer the program hands out
//! itself, on the commit path and on the read path alike:
//!
//! * `stable`: `PageCache::slots` (page numbers);
//! * `objects`: `Heap::by_uid`, and the set `Heap::accessible_uids` returns;
//! * `core`: the recovery tables (OT, PT, CT, MT, `RecoverCtx`, the
//!   hybrid and redo walk tables), `LogRs::{access, pat}` and the
//!   `LogFormat` hooks that borrow them;
//! * `shadow`: `ShadowRs::{intents, pd_index, coords, access, pat}`;
//! * `guardian`: `World::live`, `Guardian::actions`, `SimNetwork::down`.
//!
//! `scripts/lint.sh` keeps the default hasher out of those crates' non-test
//! code. `check`, `trace::attr` and `twopc::msg` keep it on purpose: their
//! keys are strings, or states an explorer fingerprints.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A fixed, unkeyed hasher for keys that are small integers the program
/// itself hands out — page numbers, uids, action ids, log addresses.
///
/// `HashMap`'s default SipHash is keyed per process to withstand keys chosen
/// by an adversary; none of these keys come from outside, and on the
/// recovery read path a probe of that hasher costs more than the work it
/// guards. This one folds each integer in with a rotate, an xor and one odd
/// multiply (the "Fx" construction), and turns the well-mixed high bits down
/// to where the table takes its bucket index from. Being unkeyed it also
/// makes iteration order a function of the insertions alone — nothing may
/// *depend* on that order, but a same-seed run now repeats it.
///
/// Keep the default hasher for any key that arrives from outside the
/// program.
///
/// SipHash's per-process key is also what exposes code that depends on
/// table order; a fixed hasher freezes such a bug instead. So debug builds
/// start every hash from a thread-local salt ([`with_salt`]) that the
/// determinism tests vary; release builds compile it out and start from 0.
#[derive(Debug, Clone, Copy)]
pub struct IntHasher(u64);

#[cfg(debug_assertions)]
thread_local! {
    static SALT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Runs `f` with every [`IntHasher`] on this thread starting from `salt`,
/// so its tables iterate in another order (debug builds; a release build
/// only runs `f`). A table must live and die under one salt: build inside
/// `f` everything `f` probes.
#[doc(hidden)]
pub fn with_salt<R>(salt: u64, f: impl FnOnce() -> R) -> R {
    #[cfg(debug_assertions)]
    {
        let outer = SALT.replace(salt);
        let out = f();
        SALT.set(outer);
        out
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = salt;
        f()
    }
}

impl Default for IntHasher {
    fn default() -> Self {
        #[cfg(debug_assertions)]
        return Self(SALT.get());
        #[cfg(not(debug_assertions))]
        Self(0)
    }
}

/// 2⁶⁴ / φ, odd: consecutive keys land far apart.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

impl IntHasher {
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MIX);
    }
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits; the table
        // indexes with the low ones.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` over [`IntHasher`]. Built with `IntMap::default()`.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` over [`IntHasher`]. Built with `IntSet::default()`.
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    #[test]
    fn the_hash_of_a_key_is_fixed() {
        assert_eq!(hash_of(7u64), hash_of(7u64));
        assert_ne!(hash_of(7u64), hash_of(8u64));
        // A derived `Hash` feeds fields one by one; order matters.
        assert_ne!(hash_of((1u32, 2u64)), hash_of((2u32, 1u64)));
    }

    #[test]
    fn consecutive_and_strided_keys_spread_over_the_low_bits() {
        // What a table of 1024 buckets sees of sequential page numbers and of
        // page-aligned byte offsets: no bucket may take more than a few.
        for stride in [1u64, 512, 4096] {
            let mut buckets = [0u32; 1024];
            for i in 0..1024u64 {
                buckets[(hash_of(i * stride) & 1023) as usize] += 1;
            }
            let worst = buckets.iter().max().copied().unwrap();
            assert!(worst <= 8, "stride {stride}: {worst} keys in one bucket");
        }
    }

    #[test]
    fn derived_keys_spread_over_the_low_bits() {
        // The shapes the action tables are keyed by, as `#[derive(Hash)]`
        // feeds them: field by field, a newtype as its integer.
        #[derive(Hash)]
        struct Gid(u32);
        #[derive(Hash)]
        struct ActionId(Gid, u64);
        #[derive(Hash)]
        struct ObjKey(Gid, HeapId);
        #[derive(Hash)]
        struct Uid(u64);
        #[derive(Hash)]
        struct HeapId(u32);
        fn worst(hash: impl Fn(u64) -> u64) -> u32 {
            let mut buckets = [0u32; 1024];
            for i in 0..1024 {
                buckets[(hash(i) & 1023) as usize] += 1;
            }
            buckets.into_iter().max().unwrap()
        }
        for g in [0u32, 1, 15] {
            // One coordinator's sequence numbers; one guardian's objects.
            assert!(
                worst(|i| hash_of(ActionId(Gid(g), i))) <= 8,
                "ActionId at G{g}"
            );
            assert!(worst(|i| hash_of(ObjKey(Gid(g), HeapId(i as u32)))) <= 8);
        }
        // Sixteen coordinators' actions interleaved, as a sharded world's.
        assert!(worst(|i| hash_of(ActionId(Gid(i as u32 % 16), i / 16))) <= 8);
        assert!(worst(|i| hash_of(Uid(i))) <= 8);
        assert!(worst(|i| hash_of(HeapId(i as u32))) <= 8);
    }

    #[test]
    fn the_salt_is_debug_only_and_costs_release_nothing() {
        assert_eq!(std::mem::size_of::<IntHasher>(), 8);
        let plain = hash_of(7u64);
        let salted = with_salt(0xA5A5, || {
            // Nested scopes restore the outer salt.
            assert_eq!(with_salt(0, || hash_of(7u64)), plain);
            hash_of(7u64)
        });
        assert_eq!(salted != plain, cfg!(debug_assertions));
        assert_eq!(hash_of(7u64), plain);
        // A table built and probed under one salt works as under any other.
        with_salt(3, || {
            let set: IntSet<u64> = (0..100).collect();
            assert!(set.contains(&99) && !set.contains(&100));
        });
    }

    #[test]
    fn byte_strings_hash_like_their_words() {
        let mut a = IntHasher::default();
        a.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        let mut b = IntHasher::default();
        b.write_u64(1);
        b.write_u64(2);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn a_map_over_it_works_as_usual() {
        let mut map: IntMap<u64, u64> = (0..100).map(|k| (k, k * k)).collect();
        map.insert(3, 0);
        assert_eq!(map.len(), 100);
        assert_eq!(
            (map.get(&3), map.get(&99), map.get(&100)),
            (Some(&0), Some(&9801), None)
        );
    }
}
