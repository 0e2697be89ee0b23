//! The participant state machine (§2.2.2).

use crate::obs::{count, trace_instant};
use crate::Msg;
use argus_objects::{ActionId, GuardianId};
use argus_obs::Count;
use argus_trace::Kind;

/// Where the participant stands in the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartPhase {
    /// Prepare received; the local prepare (data entries + `prepared`
    /// record) is being executed.
    Preparing,
    /// `prepared` record forced: the point of no return — the participant
    /// must await the verdict.
    Prepared,
    /// `committed` record forced.
    Committed,
    /// `aborted` record forced (or the prepare was refused).
    Aborted,
}

/// An effect the guardian must execute on the participant's behalf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartEffect {
    /// Run the local prepare: write the MOS data entries and force the
    /// `prepared` record, then call [`Participant::prepare_succeeded`] or
    /// [`Participant::prepare_failed`].
    PrepareLocally,
    /// Force the `committed` record, install the action's versions, then
    /// call [`Participant::commit_forced`].
    ForceCommit,
    /// Force the `aborted` record, discard the action's versions, then call
    /// [`Participant::abort_forced`].
    ForceAbort,
    /// Send a protocol message.
    Send {
        /// Destination (the coordinator).
        to: GuardianId,
        /// The message.
        msg: Msg,
    },
    /// The action's fate is final at this participant.
    Finished {
        /// The verdict.
        committed: bool,
    },
}

/// A participant's side of one action's two-phase commit.
#[derive(Debug, Clone, Hash)]
pub struct Participant {
    /// The action.
    pub aid: ActionId,
    /// The coordinator's guardian (recoverable from the action id, §2.2.2).
    pub coordinator: GuardianId,
    phase: PartPhase,
}

impl Participant {
    /// Creates a participant that has just received the prepare message.
    pub fn on_prepare(aid: ActionId, coordinator: GuardianId) -> (Self, Vec<PartEffect>) {
        count(Count::TwopcPartPrepares);
        let p = Self {
            aid,
            coordinator,
            phase: PartPhase::Preparing,
        };
        (p, vec![PartEffect::PrepareLocally])
    }

    /// Resumes an in-doubt participant after recovery: it must query its
    /// coordinator for the verdict (§2.2.2).
    pub fn resume_in_doubt(aid: ActionId, coordinator: GuardianId) -> (Self, Vec<PartEffect>) {
        count(Count::TwopcPartResumedInDoubt);
        let p = Self {
            aid,
            coordinator,
            phase: PartPhase::Prepared,
        };
        let effects = vec![PartEffect::Send {
            to: coordinator,
            msg: Msg::QueryOutcome { aid },
        }];
        (p, effects)
    }

    /// Current phase.
    pub fn phase(&self) -> PartPhase {
        self.phase
    }

    /// The local prepare finished: data entries and `prepared` record are on
    /// stable storage.
    pub fn prepare_succeeded(&mut self) -> Vec<PartEffect> {
        count(Count::TwopcPartPrepareOk);
        trace_instant(Kind::VoteSent, self.aid, &[1]);
        self.phase = PartPhase::Prepared;
        vec![PartEffect::Send {
            to: self.coordinator,
            msg: Msg::PrepareOk { aid: self.aid },
        }]
    }

    /// The local prepare could not run (lock conflict, unknown action, …):
    /// reply aborted (§2.2.2).
    pub fn prepare_failed(&mut self) -> Vec<PartEffect> {
        count(Count::TwopcPartPrepareRefused);
        trace_instant(Kind::VoteSent, self.aid, &[0]);
        self.phase = PartPhase::Aborted;
        vec![PartEffect::Send {
            to: self.coordinator,
            msg: Msg::PrepareRefused { aid: self.aid },
        }]
    }

    /// Feeds an incoming protocol message.
    pub fn on_msg(&mut self, msg: &Msg) -> Vec<PartEffect> {
        match (msg, self.phase) {
            (
                Msg::Commit { .. }
                | Msg::Outcome {
                    committed: true, ..
                },
                PartPhase::Prepared,
            ) => {
                vec![PartEffect::ForceCommit]
            }
            (
                Msg::Abort { .. }
                | Msg::Outcome {
                    committed: false, ..
                },
                PartPhase::Prepared,
            ) => {
                vec![PartEffect::ForceAbort]
            }
            // A duplicate commit after resolution: re-acknowledge.
            (Msg::Commit { .. }, PartPhase::Committed) => {
                vec![PartEffect::Send {
                    to: self.coordinator,
                    msg: Msg::CommitAck { aid: self.aid },
                }]
            }
            _ => Vec::new(),
        }
    }

    /// The `committed` record is forced.
    pub fn commit_forced(&mut self) -> Vec<PartEffect> {
        count(Count::TwopcPartCommits);
        self.phase = PartPhase::Committed;
        vec![
            PartEffect::Send {
                to: self.coordinator,
                msg: Msg::CommitAck { aid: self.aid },
            },
            PartEffect::Finished { committed: true },
        ]
    }

    /// The `aborted` record is forced. Nobody waits for it: the coordinator
    /// forgot the action when it sent the abort (§2.2.3).
    pub fn abort_forced(&mut self) -> Vec<PartEffect> {
        count(Count::TwopcPartAborts);
        self.phase = PartPhase::Aborted;
        vec![PartEffect::Finished { committed: false }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gid(n: u32) -> GuardianId {
        GuardianId(n)
    }

    fn aid() -> ActionId {
        ActionId::new(gid(0), 1)
    }

    #[test]
    fn happy_path() {
        let (mut p, effects) = Participant::on_prepare(aid(), gid(0));
        assert_eq!(effects, vec![PartEffect::PrepareLocally]);
        let effects = p.prepare_succeeded();
        assert_eq!(
            effects,
            vec![PartEffect::Send {
                to: gid(0),
                msg: Msg::PrepareOk { aid: aid() }
            }]
        );
        assert_eq!(p.phase(), PartPhase::Prepared);
        let effects = p.on_msg(&Msg::Commit { aid: aid() });
        assert_eq!(effects, vec![PartEffect::ForceCommit]);
        let effects = p.commit_forced();
        assert_eq!(effects.len(), 2);
        assert_eq!(p.phase(), PartPhase::Committed);
    }

    #[test]
    fn abort_path() {
        let (mut p, _) = Participant::on_prepare(aid(), gid(0));
        p.prepare_succeeded();
        assert_eq!(
            p.on_msg(&Msg::Abort { aid: aid() }),
            vec![PartEffect::ForceAbort]
        );
        // No acknowledgement: the coordinator is not waiting.
        assert_eq!(
            p.abort_forced(),
            vec![PartEffect::Finished { committed: false }]
        );
    }

    #[test]
    fn failed_prepare_refuses() {
        let (mut p, _) = Participant::on_prepare(aid(), gid(0));
        let effects = p.prepare_failed();
        assert_eq!(
            effects,
            vec![PartEffect::Send {
                to: gid(0),
                msg: Msg::PrepareRefused { aid: aid() }
            }]
        );
        assert_eq!(p.phase(), PartPhase::Aborted);
    }

    #[test]
    fn in_doubt_resume_queries_coordinator() {
        let (p, effects) = Participant::resume_in_doubt(aid(), gid(3));
        assert_eq!(p.phase(), PartPhase::Prepared);
        assert_eq!(
            effects,
            vec![PartEffect::Send {
                to: gid(3),
                msg: Msg::QueryOutcome { aid: aid() }
            }]
        );
    }

    #[test]
    fn outcome_replies_resolve_in_doubt_participants() {
        let (mut p, _) = Participant::resume_in_doubt(aid(), gid(0));
        assert_eq!(
            p.on_msg(&Msg::Outcome {
                aid: aid(),
                committed: true
            }),
            vec![PartEffect::ForceCommit]
        );
        let (mut p, _) = Participant::resume_in_doubt(aid(), gid(0));
        assert_eq!(
            p.on_msg(&Msg::Outcome {
                aid: aid(),
                committed: false
            }),
            vec![PartEffect::ForceAbort]
        );
    }

    #[test]
    fn duplicate_verdicts_reack() {
        let (mut p, _) = Participant::on_prepare(aid(), gid(0));
        p.prepare_succeeded();
        p.on_msg(&Msg::Commit { aid: aid() });
        p.commit_forced();
        // The coordinator retried: just re-acknowledge.
        assert_eq!(
            p.on_msg(&Msg::Commit { aid: aid() }),
            vec![PartEffect::Send {
                to: gid(0),
                msg: Msg::CommitAck { aid: aid() }
            }]
        );
        // Stale prepare or abort is ignored once committed.
        assert!(p.on_msg(&Msg::Abort { aid: aid() }).is_empty());
    }
}
