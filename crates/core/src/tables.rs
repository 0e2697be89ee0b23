//! The recovery system's tables: OT, PT, CT, MT (§3.4.1, §4.4, §5.2).

use argus_objects::{ActionId, GuardianId, HeapId, Uid};
use argus_sim::IntMap;
use argus_slog::LogAddress;

/// The state of an object in the object table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObjState {
    /// The version copied so far was written by a prepared (in-doubt)
    /// action; "the latest committed version of this object must be copied
    /// to volatile memory as well" (scenario 1, step 2).
    Prepared,
    /// The object is fully restored.
    #[default]
    Restored,
}

/// One object-table entry: object state plus the volatile-memory address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OtEntry {
    /// Restoration state.
    pub state: ObjState,
    /// Where the object was reconstructed in volatile memory.
    pub heap: HeapId,
    /// For mutex objects, the log address of the data entry whose version
    /// was copied — the recency tiebreak of §4.4: a version at a smaller
    /// address is older and must be ignored.
    pub mutex_addr: Option<LogAddress>,
}

/// The object table (OT): object uid → state + vm address.
#[derive(Debug, Clone, Default)]
pub struct ObjectTable {
    map: IntMap<Uid, OtEntry>,
}

impl ObjectTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up an object.
    pub fn get(&self, uid: Uid) -> Option<&OtEntry> {
        self.map.get(&uid)
    }

    /// Looks up an object mutably.
    pub fn get_mut(&mut self, uid: Uid) -> Option<&mut OtEntry> {
        self.map.get_mut(&uid)
    }

    /// Inserts or replaces an entry.
    pub fn insert(&mut self, uid: Uid, entry: OtEntry) {
        self.map.insert(uid, entry);
    }

    /// Number of objects recorded.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(uid, entry)`.
    pub fn iter(&self) -> impl Iterator<Item = (&Uid, &OtEntry)> {
        self.map.iter()
    }

    /// The largest uid recorded; recovery resets the stable counter past it.
    pub fn max_uid(&self) -> Option<Uid> {
        self.map.keys().max().copied()
    }
}

/// A participant's view of an action's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PState {
    /// Prepared and awaiting the verdict (in doubt).
    Prepared,
    /// Told to commit.
    Committed,
    /// Told to abort.
    Aborted,
}

/// The participant action table (PT): action id → participant state.
///
/// Populated newest-entry-first during the backward scan, so the *first*
/// insertion for an action id wins — that is the action's final state.
#[derive(Debug, Clone, Default)]
pub struct ParticipantTable {
    map: IntMap<ActionId, PState>,
}

impl ParticipantTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up an action's state.
    pub fn get(&self, aid: ActionId) -> Option<PState> {
        self.map.get(&aid).copied()
    }

    /// Records `state` for `aid` unless a (newer) state is already known.
    /// Returns the state now in force.
    pub fn enter(&mut self, aid: ActionId, state: PState) -> PState {
        *self.map.entry(aid).or_insert(state)
    }

    /// Number of actions recorded.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(aid, state)`.
    pub fn iter(&self) -> impl Iterator<Item = (&ActionId, &PState)> {
        self.map.iter()
    }

    /// The actions whose final state is prepared — these are in doubt and
    /// must query their coordinators after recovery.
    pub fn prepared_actions(&self) -> Vec<ActionId> {
        let mut v: Vec<ActionId> = self
            .map
            .iter()
            .filter(|(_, s)| **s == PState::Prepared)
            .map(|(a, _)| *a)
            .collect();
        v.sort();
        v
    }
}

/// A coordinator's view of an action's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CState {
    /// The committing record is on the log; phase two is (re)startable.
    /// Carries the guardian ids of all participants.
    Committing(Vec<GuardianId>),
    /// Two-phase commit finished.
    Done,
}

/// The coordinator action table (CT): action id → coordinator state.
#[derive(Debug, Clone, Default)]
pub struct CoordinatorTable {
    map: IntMap<ActionId, CState>,
}

impl CoordinatorTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up an action's state.
    pub fn get(&self, aid: ActionId) -> Option<&CState> {
        self.map.get(&aid)
    }

    /// Records `state` for `aid` unless a (newer) state is already known.
    pub fn enter(&mut self, aid: ActionId, state: CState) {
        self.map.entry(aid).or_insert(state);
    }

    /// Number of actions recorded.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(aid, state)`.
    pub fn iter(&self) -> impl Iterator<Item = (&ActionId, &CState)> {
        self.map.iter()
    }

    /// Actions still in the committing state — the coordinators that must be
    /// restarted to finish phase two.
    pub fn committing_actions(&self) -> Vec<(ActionId, Vec<GuardianId>)> {
        let mut v: Vec<(ActionId, Vec<GuardianId>)> = self
            .map
            .iter()
            .filter_map(|(a, s)| match s {
                CState::Committing(gids) => Some((*a, gids.clone())),
                CState::Done => None,
            })
            .collect();
        v.sort_by_key(|(a, _)| *a);
        v
    }
}

/// The mutex table (MT, §5.2): mutex uid → log address of the data entry
/// holding its latest *prepared* version. Maintained during normal operation
/// so the snapshot can copy mutex state from the log rather than from
/// volatile memory.
pub type MutexTable = IntMap<Uid, LogAddress>;

/// Everything `recover` hands back to the Argus system so participants and
/// coordinators can resume (§3.4.1 step 5), plus instrumentation counters
/// for the recovery experiments.
#[derive(Debug, Default, Clone)]
pub struct RecoveryOutcome {
    /// The object table.
    pub ot: ObjectTable,
    /// The participant action table.
    pub pt: ParticipantTable,
    /// The coordinator action table.
    pub ct: CoordinatorTable,
    /// Log entries examined (outcome entries processed plus data entries
    /// actually read) — the quantity experiment E3 compares across schemes.
    pub entries_examined: u64,
    /// Data entries whose payloads were read and copied.
    pub data_entries_read: u64,
    /// Backward outcome-chain hops followed (hybrid log only; zero for the
    /// simple log's flat scan and the shadow scheme).
    pub chain_hops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aid(n: u64) -> ActionId {
        ActionId::new(GuardianId(0), n)
    }

    #[test]
    fn pt_first_insertion_wins() {
        let mut pt = ParticipantTable::new();
        assert_eq!(pt.enter(aid(1), PState::Committed), PState::Committed);
        // The (older) prepared entry scanned later must not demote it.
        assert_eq!(pt.enter(aid(1), PState::Prepared), PState::Committed);
        assert_eq!(pt.get(aid(1)), Some(PState::Committed));
    }

    #[test]
    fn pt_lists_in_doubt_actions() {
        let mut pt = ParticipantTable::new();
        pt.enter(aid(3), PState::Prepared);
        pt.enter(aid(1), PState::Aborted);
        pt.enter(aid(2), PState::Prepared);
        assert_eq!(pt.prepared_actions(), vec![aid(2), aid(3)]);
    }

    #[test]
    fn ct_done_shadows_committing() {
        let mut ct = CoordinatorTable::new();
        ct.enter(aid(1), CState::Done);
        ct.enter(aid(1), CState::Committing(vec![GuardianId(1)]));
        assert_eq!(ct.get(aid(1)), Some(&CState::Done));
        assert!(ct.committing_actions().is_empty());
    }

    #[test]
    fn ct_reports_unfinished_coordinators() {
        let mut ct = CoordinatorTable::new();
        ct.enter(
            aid(1),
            CState::Committing(vec![GuardianId(1), GuardianId(2)]),
        );
        assert_eq!(
            ct.committing_actions(),
            vec![(aid(1), vec![GuardianId(1), GuardianId(2)])]
        );
    }

    #[test]
    fn ot_tracks_max_uid() {
        let mut ot = ObjectTable::new();
        assert_eq!(ot.max_uid(), None);
        ot.insert(
            Uid(4),
            OtEntry {
                state: ObjState::Restored,
                heap: HeapId(0),
                mutex_addr: None,
            },
        );
        ot.insert(
            Uid(9),
            OtEntry {
                state: ObjState::Prepared,
                heap: HeapId(1),
                mutex_addr: None,
            },
        );
        assert_eq!(ot.max_uid(), Some(Uid(9)));
        assert_eq!(ot.len(), 2);
    }
}
