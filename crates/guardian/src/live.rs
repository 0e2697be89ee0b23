//! What the world remembers about a live action, as one record.

use argus_objects::GuardianId;

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

/// A live action: begun — or seen touching an object — and neither
/// committed nor aborted.
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
    /// Simulated time its commit was launched, until the round is recorded.
    pub(crate) launched_at: Option<u64>,
    /// Whether its commit was launched. Until then it may still stage a
    /// force wherever it touched an object.
    pub(crate) launched: bool,
    /// Guardians the action has touched an object at, its origin among them
    /// from the start: where it wrote, and where it only read — there it
    /// holds read locks, so that guardian too must join two-phase commit
    /// for them to be released with the action (a read-only participant).
    pub(crate) touched: GidSet,
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
