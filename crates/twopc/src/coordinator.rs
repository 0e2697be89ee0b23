//! The coordinator state machine (§2.2.1).

use crate::obs::{self, trace_instant};
use crate::Msg;
use argus_objects::{ActionId, GuardianId};
use argus_obs::Event;
use std::collections::BTreeSet;

/// Where the coordinator stands in the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoordPhase {
    /// Prepare messages are out; waiting for votes. A local action (see
    /// [`Coordinator::is_local`]) waits here for its one forced step.
    Preparing,
    /// Every participant voted prepared; the `committing` record is being /
    /// has been forced and commit messages are out.
    Committing,
    /// At least one refusal (or a unilateral abort); abort messages are out.
    Aborting,
    /// All participants acknowledged the commit (a local action: its commit
    /// point is forced). The `done` record is written, not forced.
    Done,
    /// All participants acknowledged the abort.
    Aborted,
}

/// An effect the guardian must execute on the coordinator's behalf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordEffect {
    /// Send a protocol message.
    Send {
        /// Destination guardian.
        to: GuardianId,
        /// The message.
        msg: Msg,
    },
    /// Force the commit point, then call
    /// [`Coordinator::committing_forced`]. For a distributed action the
    /// commit point is the `committing` record (§2.2.1). For a local action
    /// ([`Coordinator::is_local`]) this is the whole commit — *commit
    /// locally*: the guardian writes the action's data entries, `prepared`
    /// and `committed` as one step under one force, with no `committing`
    /// record, no participant machine and no message.
    ForceCommitting,
    /// Append the `done` record to the log buffer — never forced. `done`
    /// only licenses forgetting the action: it rides the next force, and a
    /// crash that loses it recovers a `committing` coordinator that re-sends
    /// its commits and is re-acknowledged (§2.2.3). Nothing waits on it:
    /// [`CoordEffect::Finished`] follows in the same effect list.
    ForceDone,
    /// The protocol is over; the top-level action's fate is final.
    Finished {
        /// The verdict.
        committed: bool,
    },
}

/// The coordinator of one top-level action.
#[derive(Debug, Clone)]
pub struct Coordinator {
    /// The action being committed.
    pub aid: ActionId,
    /// Every guardian involved (participants; may include the coordinator's
    /// own guardian, which also acts as a participant).
    pub participants: Vec<GuardianId>,
    phase: CoordPhase,
    waiting: BTreeSet<GuardianId>,
}

impl Coordinator {
    /// Sorts and dedups a participant list. A guardian an action both read
    /// and wrote at must take part in the protocol exactly once: a
    /// duplicate entry would mean duplicate prepare/commit/abort sends
    /// every round (the `waiting` set would still settle, hiding the
    /// waste), so the constructors normalize deterministically rather than
    /// trusting every caller to.
    fn normalize(mut participants: Vec<GuardianId>) -> Vec<GuardianId> {
        participants.sort_unstable();
        participants.dedup();
        participants
    }

    /// Creates a coordinator about to run the preparing phase. The
    /// participant list is deduplicated and sorted: each guardian joins the
    /// protocol once, however many roles it played in the action.
    pub fn new(aid: ActionId, participants: Vec<GuardianId>) -> Self {
        obs::with(|o| o.coord_started.inc());
        let participants = Self::normalize(participants);
        let waiting = participants.iter().copied().collect();
        Self {
            aid,
            participants,
            phase: CoordPhase::Preparing,
            waiting,
        }
    }

    /// Resumes a coordinator from a recovered `committing` CT entry: phase
    /// two restarts by re-sending commit messages (§2.2.3). The recovered
    /// participant list is normalized like [`Coordinator::new`]'s.
    pub fn resume_committing(
        aid: ActionId,
        participants: Vec<GuardianId>,
    ) -> (Self, Vec<CoordEffect>) {
        obs::with(|o| o.coord_resumed.inc());
        let participants = Self::normalize(participants);
        let waiting: BTreeSet<GuardianId> = participants.iter().copied().collect();
        let coord = Self {
            aid,
            participants,
            phase: CoordPhase::Committing,
            waiting,
        };
        let effects = coord.commit_msgs();
        (coord, effects)
    }

    /// Current phase.
    pub fn phase(&self) -> CoordPhase {
        self.phase
    }

    /// The participants whose replies are still outstanding in the current
    /// phase (votes while preparing, acks while committing or aborting).
    pub fn awaiting(&self) -> Vec<GuardianId> {
        self.waiting.iter().copied().collect()
    }

    /// Whether the coordinator's own guardian is the only participant. Such
    /// an action needs no agreement protocol: its one durable point is its
    /// own `committed` record, so it commits with one force and no message.
    /// A property of the participant set, never a configuration choice.
    pub fn is_local(&self) -> bool {
        self.participants == [self.aid.coordinator]
    }

    /// Starts the commit. A distributed action enters the preparing phase:
    /// prepare messages to every participant. A local action asks for its
    /// commit point at once ([`CoordEffect::ForceCommitting`]).
    pub fn start(&self) -> Vec<CoordEffect> {
        if self.is_local() {
            return vec![CoordEffect::ForceCommitting];
        }
        let n = self.participants.len() as u64;
        obs::with(|o| o.reg.event(Event::PrepareSent { participants: n }));
        trace_instant("prepare_sent", self.aid, &[("participants", n)]);
        self.participants
            .iter()
            .map(|&g| CoordEffect::Send {
                to: g,
                msg: Msg::Prepare { aid: self.aid },
            })
            .collect()
    }

    fn commit_msgs(&self) -> Vec<CoordEffect> {
        self.participants
            .iter()
            .map(|&g| CoordEffect::Send {
                to: g,
                msg: Msg::Commit { aid: self.aid },
            })
            .collect()
    }

    fn abort_msgs(&self) -> Vec<CoordEffect> {
        self.participants
            .iter()
            .map(|&g| CoordEffect::Send {
                to: g,
                msg: Msg::Abort { aid: self.aid },
            })
            .collect()
    }

    /// Feeds an incoming protocol message from `from`.
    pub fn on_msg(&mut self, from: GuardianId, msg: &Msg) -> Vec<CoordEffect> {
        match (msg, self.phase) {
            (Msg::PrepareOk { .. }, CoordPhase::Preparing) => {
                self.waiting.remove(&from);
                if self.waiting.is_empty() {
                    vec![CoordEffect::ForceCommitting]
                } else {
                    Vec::new()
                }
            }
            (Msg::PrepareRefused { .. }, CoordPhase::Preparing) => self.abort_unilaterally(),
            // A refusal after we already started aborting: ignore (it will
            // be told to abort anyway).
            (Msg::PrepareRefused { .. }, CoordPhase::Aborting) => Vec::new(),
            (Msg::CommitAck { .. }, CoordPhase::Committing) => {
                self.waiting.remove(&from);
                if self.waiting.is_empty() {
                    obs::with(|o| o.coord_done.inc());
                    self.phase = CoordPhase::Done;
                    vec![
                        CoordEffect::ForceDone,
                        CoordEffect::Finished { committed: true },
                    ]
                } else {
                    Vec::new()
                }
            }
            (Msg::AbortAck { .. }, CoordPhase::Aborting) => {
                self.waiting.remove(&from);
                if self.waiting.is_empty() {
                    self.phase = CoordPhase::Aborted;
                    vec![CoordEffect::Finished { committed: false }]
                } else {
                    Vec::new()
                }
            }
            // An in-doubt participant asking for the verdict while the vote
            // is still being collected: it crashed after preparing, so any
            // vote of its that is still in flight is stale. The presumed-
            // abort answer is "aborted" — and that answer is a promise, so
            // the coordinator must abort too. Answering "aborted" here and
            // later counting the stale vote toward a commit would let one
            // participant abort while the others commit.
            (Msg::QueryOutcome { .. }, CoordPhase::Preparing) => {
                let mut effects = self.abort_unilaterally();
                effects.push(CoordEffect::Send {
                    to: from,
                    msg: Msg::Outcome {
                        aid: self.aid,
                        committed: false,
                    },
                });
                effects
            }
            // An in-doubt participant asking for the verdict.
            (Msg::QueryOutcome { .. }, phase) => {
                let committed = matches!(phase, CoordPhase::Committing | CoordPhase::Done);
                vec![CoordEffect::Send {
                    to: from,
                    msg: Msg::Outcome {
                        aid: self.aid,
                        committed,
                    },
                }]
            }
            // Anything else is a stale duplicate.
            _ => Vec::new(),
        }
    }

    /// The guardian forced the commit point; the action is now committed.
    /// Phase two begins — or, for a local action, there is none and the
    /// protocol is over.
    pub fn committing_forced(&mut self) -> Vec<CoordEffect> {
        if self.is_local() {
            obs::with(|o| {
                o.coord_committed.inc();
                o.coord_done.inc();
            });
            self.phase = CoordPhase::Done;
            self.waiting.clear();
            return vec![CoordEffect::Finished { committed: true }];
        }
        obs::with(|o| {
            o.coord_committed.inc();
            o.reg.event(Event::OutcomeSent {
                committed: true,
                participants: self.participants.len() as u64,
            });
        });
        trace_instant("outcome_sent", self.aid, &[("committed", 1)]);
        self.phase = CoordPhase::Committing;
        self.waiting = self.participants.iter().copied().collect();
        self.commit_msgs()
    }

    /// Nothing waits on the `done` record any more: the coordinator finishes
    /// when the last acknowledgement arrives. Kept, returning no effects, for
    /// drivers written against the forced `done`.
    pub fn done_forced(&mut self) -> Vec<CoordEffect> {
        Vec::new()
    }

    /// Aborts unilaterally — a refusal arrived, or the Argus system decided
    /// a participant is unreachable (§2.2.1).
    pub fn abort_unilaterally(&mut self) -> Vec<CoordEffect> {
        if matches!(self.phase, CoordPhase::Committing | CoordPhase::Done) {
            // Past the commit point: aborting is no longer possible.
            return Vec::new();
        }
        obs::with(|o| {
            o.coord_aborted.inc();
            o.reg.event(Event::OutcomeSent {
                committed: false,
                participants: self.participants.len() as u64,
            });
        });
        trace_instant("outcome_sent", self.aid, &[("committed", 0)]);
        if self.is_local() {
            // Nobody to tell: the guardian that could not commit locally
            // has already discarded the action.
            self.phase = CoordPhase::Aborted;
            self.waiting.clear();
            return vec![CoordEffect::Finished { committed: false }];
        }
        self.phase = CoordPhase::Aborting;
        self.waiting = self.participants.iter().copied().collect();
        self.abort_msgs()
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

    fn commit_sends(effects: &[CoordEffect]) -> usize {
        effects
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    CoordEffect::Send {
                        msg: Msg::Commit { .. },
                        ..
                    }
                )
            })
            .count()
    }

    #[test]
    fn happy_path_commits() {
        let mut c = Coordinator::new(aid(), vec![gid(0), gid(1)]);
        assert_eq!(c.start().len(), 2);
        assert!(c.on_msg(gid(0), &Msg::PrepareOk { aid: aid() }).is_empty());
        let effects = c.on_msg(gid(1), &Msg::PrepareOk { aid: aid() });
        assert_eq!(effects, vec![CoordEffect::ForceCommitting]);
        let effects = c.committing_forced();
        assert_eq!(commit_sends(&effects), 2);
        assert!(c.on_msg(gid(1), &Msg::CommitAck { aid: aid() }).is_empty());
        // The last acknowledgement finishes the protocol: `done` is
        // written behind it, never waited for.
        let effects = c.on_msg(gid(0), &Msg::CommitAck { aid: aid() });
        assert_eq!(
            effects,
            vec![
                CoordEffect::ForceDone,
                CoordEffect::Finished { committed: true }
            ]
        );
        assert!(c.done_forced().is_empty());
        assert_eq!(c.phase(), CoordPhase::Done);
    }

    #[test]
    fn a_local_action_commits_with_one_forced_step_and_no_message() {
        let mut c = Coordinator::new(aid(), vec![gid(0), gid(0)]);
        assert!(c.is_local());
        assert_eq!(c.start(), vec![CoordEffect::ForceCommitting]);
        assert_eq!(c.phase(), CoordPhase::Preparing);
        assert_eq!(
            c.committing_forced(),
            vec![CoordEffect::Finished { committed: true }]
        );
        assert_eq!(c.phase(), CoordPhase::Done);
        assert!(c.awaiting().is_empty());
        // A sole participant that is not the coordinator's guardian still
        // needs the protocol.
        assert!(!Coordinator::new(aid(), vec![gid(1)]).is_local());
    }

    #[test]
    fn a_local_action_that_cannot_commit_aborts_without_messages() {
        let mut c = Coordinator::new(aid(), vec![gid(0)]);
        c.start();
        assert_eq!(
            c.abort_unilaterally(),
            vec![CoordEffect::Finished { committed: false }]
        );
        assert_eq!(c.phase(), CoordPhase::Aborted);
    }

    #[test]
    fn refusal_aborts_everyone() {
        let mut c = Coordinator::new(aid(), vec![gid(0), gid(1)]);
        c.start();
        let effects = c.on_msg(gid(0), &Msg::PrepareRefused { aid: aid() });
        assert_eq!(effects.len(), 2);
        assert!(effects.iter().all(|e| matches!(
            e,
            CoordEffect::Send {
                msg: Msg::Abort { .. },
                ..
            }
        )));
        c.on_msg(gid(0), &Msg::AbortAck { aid: aid() });
        let effects = c.on_msg(gid(1), &Msg::AbortAck { aid: aid() });
        assert_eq!(effects, vec![CoordEffect::Finished { committed: false }]);
        assert_eq!(c.phase(), CoordPhase::Aborted);
    }

    #[test]
    fn duplicate_votes_are_harmless() {
        let mut c = Coordinator::new(aid(), vec![gid(0), gid(1)]);
        c.start();
        c.on_msg(gid(0), &Msg::PrepareOk { aid: aid() });
        assert!(c.on_msg(gid(0), &Msg::PrepareOk { aid: aid() }).is_empty());
        let effects = c.on_msg(gid(1), &Msg::PrepareOk { aid: aid() });
        assert_eq!(effects, vec![CoordEffect::ForceCommitting]);
    }

    #[test]
    fn duplicate_participants_are_deduped() {
        // A read+write-same-guardian action hands the constructor the same
        // id twice; the protocol must run it as one participant — exactly
        // one prepare out, one vote back tips the commit.
        let mut c = Coordinator::new(aid(), vec![gid(1), gid(0), gid(1)]);
        assert_eq!(c.participants, vec![gid(0), gid(1)]);
        assert_eq!(c.start().len(), 2);
        c.on_msg(gid(0), &Msg::PrepareOk { aid: aid() });
        let effects = c.on_msg(gid(1), &Msg::PrepareOk { aid: aid() });
        assert_eq!(effects, vec![CoordEffect::ForceCommitting]);
        assert_eq!(commit_sends(&c.committing_forced()), 2);

        let (c, effects) = Coordinator::resume_committing(aid(), vec![gid(2), gid(2), gid(0)]);
        assert_eq!(c.participants, vec![gid(0), gid(2)]);
        assert_eq!(commit_sends(&effects), 2);
    }

    #[test]
    fn no_abort_after_commit_point() {
        let mut c = Coordinator::new(aid(), vec![gid(1)]);
        c.start();
        c.on_msg(gid(1), &Msg::PrepareOk { aid: aid() });
        c.committing_forced();
        assert!(c.abort_unilaterally().is_empty());
        assert_eq!(c.phase(), CoordPhase::Committing);
    }

    #[test]
    fn resume_committing_resends_commits() {
        let (c, effects) = Coordinator::resume_committing(aid(), vec![gid(0), gid(1)]);
        assert_eq!(c.phase(), CoordPhase::Committing);
        assert_eq!(commit_sends(&effects), 2);
    }

    #[test]
    fn queries_get_the_right_verdict() {
        let mut c = Coordinator::new(aid(), vec![gid(1)]);
        c.start();
        c.on_msg(gid(1), &Msg::PrepareOk { aid: aid() });
        c.committing_forced();
        let effects = c.on_msg(gid(1), &Msg::QueryOutcome { aid: aid() });
        assert_eq!(
            effects,
            vec![CoordEffect::Send {
                to: gid(1),
                msg: Msg::Outcome {
                    aid: aid(),
                    committed: true
                }
            }]
        );
    }

    #[test]
    fn query_while_preparing_aborts_the_action() {
        // An in-doubt query during the voting phase means the participant
        // crashed after preparing; any in-flight vote of its is stale.
        // Answering "aborted" is a promise, so the coordinator must abort —
        // otherwise the stale vote could later tip it into committing while
        // the queried participant aborts.
        let mut c = Coordinator::new(aid(), vec![gid(0), gid(1)]);
        c.start();
        c.on_msg(gid(1), &Msg::PrepareOk { aid: aid() });
        let effects = c.on_msg(gid(0), &Msg::QueryOutcome { aid: aid() });
        assert_eq!(c.phase(), CoordPhase::Aborting);
        // Abort to both participants, then the promised answer.
        assert_eq!(effects.len(), 3);
        assert_eq!(
            effects[2],
            CoordEffect::Send {
                to: gid(0),
                msg: Msg::Outcome {
                    aid: aid(),
                    committed: false
                }
            }
        );
        // The stale vote arriving afterwards must not resurrect the commit.
        assert!(c.on_msg(gid(0), &Msg::PrepareOk { aid: aid() }).is_empty());
        assert_eq!(c.phase(), CoordPhase::Aborting);
    }
}
