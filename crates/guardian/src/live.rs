//! What each party remembers about an action, as one record: a guardian's
//! [`LocalAction`] while the action is known there, the world's
//! [`LiveAction`] until its client takes its answer.

use argus_cc::CcFate;
use argus_objects::{GuardianId, HeapId};
use argus_twopc::{Coordinator, Participant};

/// Guardians held inline before a set spills to the heap: an action
/// touches one guardian, or two when it crosses shards.
const INLINE: usize = 4;

/// A sorted set of guardian ids that allocates only past [`INLINE`].
#[derive(Debug, Clone)]
pub(crate) struct GidSet {
    inline: [GuardianId; INLINE],
    len: usize,
    /// Every member, once the set has outgrown `inline`.
    spill: Vec<GuardianId>,
}

impl Default for GidSet {
    fn default() -> Self {
        Self {
            inline: [GuardianId(0); INLINE],
            len: 0,
            spill: Vec::new(),
        }
    }
}

impl GidSet {
    /// The members, ascending.
    pub(crate) fn as_slice(&self) -> &[GuardianId] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Adds `g`, keeping the order.
    pub(crate) fn insert(&mut self, g: GuardianId) {
        let Err(at) = self.as_slice().binary_search(&g) else {
            return;
        };
        if self.spill.is_empty() && self.len < INLINE {
            self.inline.copy_within(at..self.len, at + 1);
            self.inline[at] = g;
            self.len += 1;
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline[..self.len]);
            }
            self.spill.insert(at, g);
        }
    }
}

/// An action in the world's eyes: begun — or seen touching an object — and
/// not yet answered to its client, or answered and not yet asked.
#[derive(Debug, Clone, Default)]
pub(crate) struct LiveAction {
    /// Begin index: the deadlock victim is the *youngest* cycle member,
    /// i.e. the one with the largest.
    pub(crate) order: u64,
    /// Simulated time the action began, consumed when it resolves to record
    /// its end-to-end trace span. `None` for an action the world did not
    /// see begin (or saw resolve already) that touched an object anyway: it
    /// must still give its locks back, but it has no span.
    pub(crate) began_at: Option<u64>,
    /// Simulated time its commit was launched, until it is answered and the
    /// round is recorded. Until its commit is launched, an action may still
    /// stage a force wherever it touched an object.
    pub(crate) launched_at: Option<u64>,
    /// Guardians the action has touched an object at, its origin among them
    /// from the start: where it wrote, and where it only read — there it
    /// holds read locks, so that guardian too must join two-phase commit
    /// for them to be released with the action (a read-only participant).
    pub(crate) touched: GidSet,
    /// What its client is told once it asks: `Ok(committed)`, the verdict
    /// `commit_settle` takes, or `Err(fate)`, why the lock scheduler gave
    /// up on it, which `take_cc_fate` takes. An answered action is no
    /// longer live: it holds no lock and waits for nothing.
    pub(crate) answer: Option<Result<bool, CcFate>>,
}

/// An action a guardian knows: it ran there since the last restart, or is
/// in two-phase commit there. Forgotten, it answers as unknown — what a
/// crash leaves too.
#[derive(Debug, Clone, Default)]
pub(crate) struct LocalAction {
    /// What it modified here and has not prepared: its MOS (§2.3).
    pub(crate) mos: Vec<HeapId>,
    /// Its coordinator, at its origin, once its commit was asked for.
    pub(crate) coordinator: Option<Coordinator>,
    /// Its participant, once a `Prepare` came.
    pub(crate) participant: Option<Participant>,
    /// Whether its work is in this heap, so a `Prepare` is answered and a
    /// commit point staged (§2.2.2's "known"). Only a machine's row lacks
    /// it: a coordinator recovery resumed, or a machine whose action a
    /// crash or a local abort wiped out here — a commit point for it aborts.
    pub(crate) known: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gids(ns: &[u32]) -> Vec<GuardianId> {
        ns.iter().copied().map(GuardianId).collect()
    }

    #[test]
    fn a_set_stays_sorted_and_deduplicated_across_the_spill() {
        let mut set = GidSet::default();
        for n in [5, 1, 5, 3, 1] {
            set.insert(GuardianId(n));
        }
        assert_eq!(set.as_slice(), gids(&[1, 3, 5]));
        assert!(set.spill.is_empty());
        for n in [9, 0, 4, 3, 7] {
            set.insert(GuardianId(n));
        }
        assert_eq!(set.as_slice(), gids(&[0, 1, 3, 4, 5, 7, 9]));
    }
}
