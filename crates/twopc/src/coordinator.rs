//! The coordinator state machine (§2.2.1).

use crate::obs::{count, trace_instant};
use crate::Msg;
use argus_objects::{ActionId, GuardianId};
use argus_obs::Count;
use argus_trace::Kind;

/// Where the coordinator stands in the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoordPhase {
    /// Prepare messages are out; waiting for the remote votes, and then for
    /// the commit point to be forced. A local action (see
    /// [`Coordinator::is_local`]) waits here for that one forced step alone.
    Preparing,
    /// Every remote participant voted prepared and the commit point is
    /// forced; commit messages are out.
    Committing,
    /// All remote participants acknowledged the commit (a local action: its
    /// commit point is forced). The `done` record is written, not forced.
    Done,
    /// Aborted: a refusal, a timeout or a query while preparing. The abort
    /// messages are out and nobody is waited for — a participant that never
    /// hears one asks, and a forgotten action is an aborted one (§2.2.3).
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
    /// [`Coordinator::committing_forced`]: *the whole commit point at home*
    /// as one step under one force — the action's data entries, `prepared`,
    /// `committing` and the guardian's own `committed` — after which the
    /// guardian installs the versions. Its `prepared` precedes no vote and
    /// its `committed` no acknowledgement, so neither needs a force of its
    /// own (DESIGN.md deviation 12). A local action
    /// ([`Coordinator::is_local`]) is that step without the `committing`
    /// record: there is nobody to tell.
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
#[derive(Debug, Clone, Hash)]
pub struct Coordinator {
    /// The action being committed.
    pub aid: ActionId,
    /// Every guardian involved, sorted, the coordinator's own included: it
    /// is listed — the `committing` record names every participant — but
    /// the coordinator neither writes to it nor waits for it.
    pub participants: Vec<GuardianId>,
    phase: CoordPhase,
    /// Remote participants whose reply is outstanding, sorted.
    waiting: Vec<GuardianId>,
    /// The commit point has been asked for (and may not be forced yet): a
    /// duplicated last vote must not ask again, and a query cannot be
    /// answered "aborted" any more.
    point_requested: bool,
}

impl Coordinator {
    /// Lists the coordinator's own guardian, sorts and dedups a participant
    /// list. A guardian an action both read and wrote at must take part in
    /// the protocol exactly once: a duplicate entry would mean duplicate
    /// prepare/commit/abort sends every round (the `waiting` set would
    /// still settle, hiding the waste), so the constructors normalize
    /// deterministically rather than trusting every caller to.
    fn normalize(aid: ActionId, mut participants: Vec<GuardianId>) -> Vec<GuardianId> {
        if !participants.contains(&aid.coordinator) {
            participants.push(aid.coordinator);
        }
        participants.sort_unstable();
        participants.dedup();
        participants
    }

    fn in_phase(aid: ActionId, participants: Vec<GuardianId>, phase: CoordPhase) -> Self {
        let mut coord = Self {
            aid,
            participants: Self::normalize(aid, participants),
            phase,
            waiting: Vec::new(),
            point_requested: phase != CoordPhase::Preparing,
        };
        coord.waiting = coord.remotes().collect();
        coord
    }

    /// Creates a coordinator about to run the preparing phase. The
    /// participant list is deduplicated and sorted: each guardian joins the
    /// protocol once, however many roles it played in the action.
    pub fn new(aid: ActionId, participants: Vec<GuardianId>) -> Self {
        count(Count::TwopcCoordStarted);
        Self::in_phase(aid, participants, CoordPhase::Preparing)
    }

    /// Resumes a coordinator from a recovered `committing` CT entry: phase
    /// two restarts by re-sending commit messages to the remote participants
    /// (§2.2.3) — the coordinator's own guardian recovered its `committed`
    /// from the same force. The recovered participant list is
    /// normalized like [`Coordinator::new`]'s.
    pub fn resume_committing(
        aid: ActionId,
        participants: Vec<GuardianId>,
    ) -> (Self, Vec<CoordEffect>) {
        count(Count::TwopcCoordResumed);
        let coord = Self::in_phase(aid, participants, CoordPhase::Committing);
        let mut effects = Vec::new();
        coord.tell_remotes(Msg::Commit { aid }, &mut effects);
        (coord, effects)
    }

    /// Current phase.
    pub fn phase(&self) -> CoordPhase {
        self.phase
    }

    /// The participants whose replies are still outstanding: votes while
    /// preparing, acknowledgements while committing — the guardians the
    /// timer's re-send of `Commit` goes to (§2.2.3). Nobody acknowledges an
    /// abort, so none once aborted; never the coordinator's own guardian.
    pub fn awaiting(&self) -> Vec<GuardianId> {
        self.waiting.clone()
    }

    /// Whether the coordinator's own guardian is the only participant: no
    /// remote participant. Its commit point needs no `committing` record and ends the protocol —
    /// one force and no message. A property of the participant set, never a
    /// configuration choice.
    pub fn is_local(&self) -> bool {
        self.participants == [self.aid.coordinator]
    }

    /// Everyone the coordinator runs the protocol with.
    fn remotes(&self) -> impl Iterator<Item = GuardianId> + '_ {
        let home = self.aid.coordinator;
        self.participants
            .iter()
            .copied()
            .filter(move |g| *g != home)
    }

    fn tell_remotes(&self, msg: Msg, out: &mut Vec<CoordEffect>) {
        out.extend(self.remotes().map(|to| CoordEffect::Send {
            to,
            msg: msg.clone(),
        }));
    }

    /// Starts the commit: prepare messages to every remote participant. A
    /// local action has none and asks for its commit point at once
    /// ([`CoordEffect::ForceCommitting`]).
    pub fn start(&self) -> Vec<CoordEffect> {
        let mut out = Vec::new();
        self.start_into(&mut out);
        out
    }

    /// [`Coordinator::start`], appending to a list the caller keeps: a
    /// guardian that reuses one runs a local commit without allocating for
    /// its effects. Each transition has this form.
    pub fn start_into(&self, out: &mut Vec<CoordEffect>) {
        if self.is_local() {
            return out.push(CoordEffect::ForceCommitting);
        }
        let n = self.participants.len() as u64;
        trace_instant(Kind::PrepareSent, self.aid, &[n]);
        self.tell_remotes(Msg::Prepare { aid: self.aid }, out)
    }

    /// Feeds an incoming protocol message from `from`.
    pub fn on_msg(&mut self, from: GuardianId, msg: &Msg) -> Vec<CoordEffect> {
        let mut out = Vec::new();
        self.on_msg_into(from, msg, &mut out);
        out
    }

    /// [`Coordinator::on_msg`], appending to `out`.
    pub fn on_msg_into(&mut self, from: GuardianId, msg: &Msg, out: &mut Vec<CoordEffect>) {
        match (msg, self.phase) {
            (Msg::PrepareOk { .. }, CoordPhase::Preparing) => {
                self.waiting.retain(|g| *g != from);
                // Asked for once: a duplicate of the last vote can arrive
                // while the commit point is staged and not yet forced.
                if self.waiting.is_empty() && !self.point_requested {
                    self.point_requested = true;
                    out.push(CoordEffect::ForceCommitting);
                }
            }
            (Msg::PrepareRefused { .. }, CoordPhase::Preparing) => {
                self.abort_unilaterally_into(out)
            }
            (Msg::CommitAck { .. }, CoordPhase::Committing) => {
                self.waiting.retain(|g| *g != from);
                if self.waiting.is_empty() {
                    count(Count::TwopcCoordDone);
                    self.phase = CoordPhase::Done;
                    out.push(CoordEffect::ForceDone);
                    out.push(CoordEffect::Finished { committed: true });
                }
            }
            // A query while the commit point is on its way to the device:
            // every vote is in and "aborted" can no longer be promised, but
            // "committed" is not true yet. Say nothing — the asker is told
            // to commit as soon as the force completes.
            (Msg::QueryOutcome { .. }, CoordPhase::Preparing) if self.point_requested => {}
            // An in-doubt participant asking for the verdict while the vote
            // is still being collected: it crashed after preparing, so any
            // vote of its that is still in flight is stale. The presumed-
            // abort answer is "aborted" — and that answer is a promise, so
            // the coordinator must abort too. Answering "aborted" here and
            // later counting the stale vote toward a commit would let one
            // participant abort while the others commit.
            (Msg::QueryOutcome { .. }, CoordPhase::Preparing) => {
                self.abort_unilaterally_into(out);
                out.push(CoordEffect::Send {
                    to: from,
                    msg: Msg::Outcome {
                        aid: self.aid,
                        committed: false,
                    },
                });
            }
            // An in-doubt participant asking for the verdict.
            (Msg::QueryOutcome { .. }, phase) => {
                let committed = matches!(phase, CoordPhase::Committing | CoordPhase::Done);
                out.push(CoordEffect::Send {
                    to: from,
                    msg: Msg::Outcome {
                        aid: self.aid,
                        committed,
                    },
                });
            }
            // Anything else is a stale duplicate.
            _ => {}
        }
    }

    /// The guardian forced the commit point; the action is now committed.
    /// Phase two begins with the remote participants — or, for a local
    /// action, there is none and the protocol is over.
    pub fn committing_forced(&mut self) -> Vec<CoordEffect> {
        let mut out = Vec::new();
        self.committing_forced_into(&mut out);
        out
    }

    /// [`Coordinator::committing_forced`], appending to `out`.
    pub fn committing_forced_into(&mut self, out: &mut Vec<CoordEffect>) {
        if self.is_local() {
            count(Count::TwopcCoordCommitted);
            count(Count::TwopcCoordDone);
            self.phase = CoordPhase::Done;
            return out.push(CoordEffect::Finished { committed: true });
        }
        count(Count::TwopcCoordCommitted);
        trace_instant(Kind::OutcomeSent, self.aid, &[1]);
        self.phase = CoordPhase::Committing;
        self.waiting = self.remotes().collect();
        self.tell_remotes(Msg::Commit { aid: self.aid }, out)
    }

    /// Nothing waits on the `done` record any more: the coordinator finishes
    /// when the last acknowledgement arrives. Kept, returning no effects, for
    /// drivers written against the forced `done`.
    pub fn done_forced(&mut self) -> Vec<CoordEffect> {
        Vec::new()
    }

    /// Aborts unilaterally — a refusal arrived, the Argus system decided a
    /// participant is unreachable (§2.2.1), or the guardian could not stage
    /// the commit point — appending the effects to `out`. The coordinator's
    /// own guardian never prepared: it drops the action's versions when
    /// this is decided, writes no `aborted` record, and only the remote
    /// participants are told. Only a coordinator still preparing can abort:
    /// past the commit point it is too late, and an abort already decided
    /// is not decided again. Presumed abort (§2.2.3): the protocol is over
    /// once the aborts are out, with no acknowledgement awaited.
    pub fn abort_unilaterally_into(&mut self, out: &mut Vec<CoordEffect>) {
        if self.phase != CoordPhase::Preparing {
            return;
        }
        count(Count::TwopcCoordAborted);
        trace_instant(Kind::OutcomeSent, self.aid, &[0]);
        self.tell_remotes(Msg::Abort { aid: self.aid }, out);
        self.phase = CoordPhase::Aborted;
        self.waiting.clear();
        out.push(CoordEffect::Finished { committed: false })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gid(n: u32) -> GuardianId {
        GuardianId(n)
    }

    /// An action coordinated at guardian 0.
    fn aid() -> ActionId {
        ActionId::new(gid(0), 1)
    }

    fn sends(effects: &[CoordEffect], kind: &str) -> Vec<GuardianId> {
        effects
            .iter()
            .filter_map(|e| match e {
                CoordEffect::Send { to, msg } if msg.kind() == kind => Some(*to),
                _ => None,
            })
            .collect()
    }

    fn abort(c: &mut Coordinator) -> Vec<CoordEffect> {
        let mut out = Vec::new();
        c.abort_unilaterally_into(&mut out);
        out
    }

    const FINISHED_COMMITTED: [CoordEffect; 2] = [
        CoordEffect::ForceDone,
        CoordEffect::Finished { committed: true },
    ];

    #[test]
    fn the_coordinator_runs_the_protocol_with_the_remotes_only() {
        let mut c = Coordinator::new(aid(), vec![gid(1)]);
        assert_eq!(c.participants, vec![gid(0), gid(1)]);
        assert!(!c.is_local());
        assert_eq!(c.awaiting(), vec![gid(1)]);
        assert_eq!(sends(&c.start(), "Prepare"), vec![gid(1)]);
        // The remote's vote is the last one: home's `prepared` rides the
        // commit point.
        let effects = c.on_msg(gid(1), &Msg::PrepareOk { aid: aid() });
        assert_eq!(effects, vec![CoordEffect::ForceCommitting]);
        assert_eq!(c.phase(), CoordPhase::Preparing);
        assert_eq!(sends(&c.committing_forced(), "Commit"), vec![gid(1)]);
        assert_eq!(c.awaiting(), vec![gid(1)]);
        // The last acknowledgement finishes the protocol: `done` is
        // written behind it, never waited for.
        let effects = c.on_msg(gid(1), &Msg::CommitAck { aid: aid() });
        assert_eq!(effects, FINISHED_COMMITTED);
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
        assert!(Coordinator::new(aid(), Vec::new()).is_local());
    }

    #[test]
    fn a_local_action_that_cannot_commit_aborts_without_messages() {
        let mut c = Coordinator::new(aid(), vec![gid(0)]);
        c.start();
        assert_eq!(
            abort(&mut c),
            vec![CoordEffect::Finished { committed: false }]
        );
        assert_eq!(c.phase(), CoordPhase::Aborted);
    }

    #[test]
    fn refusal_aborts_the_remotes_and_nobody_else() {
        let mut c = Coordinator::new(aid(), vec![gid(0), gid(1), gid(2)]);
        c.start();
        let effects = c.on_msg(gid(1), &Msg::PrepareRefused { aid: aid() });
        assert_eq!(sends(&effects, "Abort"), vec![gid(1), gid(2)]);
        // Presumed abort: finished with the aborts, no acknowledgement
        // awaited.
        assert_eq!(effects[2..], [CoordEffect::Finished { committed: false }]);
        assert_eq!(c.phase(), CoordPhase::Aborted);
        assert!(c.awaiting().is_empty());
    }

    #[test]
    fn a_commit_point_that_cannot_be_staged_aborts_the_remotes() {
        let mut c = Coordinator::new(aid(), vec![gid(0), gid(1)]);
        c.start();
        c.on_msg(gid(1), &Msg::PrepareOk { aid: aid() });
        assert_eq!(sends(&abort(&mut c), "Abort"), vec![gid(1)]);
        assert_eq!(c.phase(), CoordPhase::Aborted);
    }

    #[test]
    fn duplicate_votes_are_harmless() {
        let mut c = Coordinator::new(aid(), vec![gid(0), gid(1), gid(2)]);
        c.start();
        c.on_msg(gid(1), &Msg::PrepareOk { aid: aid() });
        assert!(c.on_msg(gid(1), &Msg::PrepareOk { aid: aid() }).is_empty());
        let effects = c.on_msg(gid(2), &Msg::PrepareOk { aid: aid() });
        assert_eq!(effects, vec![CoordEffect::ForceCommitting]);
    }

    #[test]
    fn the_commit_point_is_requested_once() {
        // A duplicate of the last vote arriving while the commit point is
        // staged and not yet forced (still `Preparing`, nobody awaited) used
        // to ask for it a second time.
        let mut c = Coordinator::new(aid(), vec![gid(0), gid(1)]);
        c.start();
        let vote = Msg::PrepareOk { aid: aid() };
        assert_eq!(c.on_msg(gid(1), &vote), vec![CoordEffect::ForceCommitting]);
        assert_eq!(c.phase(), CoordPhase::Preparing);
        assert!(c.on_msg(gid(1), &vote).is_empty());
        // In that window a query is not answered: "aborted" can no longer be
        // promised and "committed" is not durable yet.
        assert!(c
            .on_msg(gid(1), &Msg::QueryOutcome { aid: aid() })
            .is_empty());
        assert_eq!(c.phase(), CoordPhase::Preparing);
        assert_eq!(sends(&c.committing_forced(), "Commit"), vec![gid(1)]);
        assert!(c.on_msg(gid(1), &vote).is_empty());

        // A resumed coordinator is past its commit point from the start.
        let (mut c, _) = Coordinator::resume_committing(aid(), vec![gid(0), gid(1)]);
        assert!(c.on_msg(gid(1), &vote).is_empty());
    }

    #[test]
    fn duplicate_participants_are_deduped() {
        // A read+write-same-guardian action hands the constructor the same
        // id twice; the protocol must run it as one participant — exactly
        // one prepare out, one vote back tips the commit.
        let mut c = Coordinator::new(aid(), vec![gid(1), gid(0), gid(1)]);
        assert_eq!(c.participants, vec![gid(0), gid(1)]);
        assert_eq!(sends(&c.start(), "Prepare"), vec![gid(1)]);
        let effects = c.on_msg(gid(1), &Msg::PrepareOk { aid: aid() });
        assert_eq!(effects, vec![CoordEffect::ForceCommitting]);
        assert_eq!(sends(&c.committing_forced(), "Commit"), vec![gid(1)]);

        let (c, effects) = Coordinator::resume_committing(aid(), vec![gid(2), gid(2), gid(0)]);
        assert_eq!(c.participants, vec![gid(0), gid(2)]);
        assert_eq!(sends(&effects, "Commit"), vec![gid(2)]);
    }

    #[test]
    fn no_abort_after_commit_point() {
        let mut c = Coordinator::new(aid(), vec![gid(1)]);
        c.start();
        c.on_msg(gid(1), &Msg::PrepareOk { aid: aid() });
        c.committing_forced();
        assert!(abort(&mut c).is_empty());
        assert_eq!(c.phase(), CoordPhase::Committing);
    }

    #[test]
    fn an_abort_is_decided_once() {
        // A second unilateral abort (a timeout after a refusal, say) used to
        // count the abort again and re-send every `Abort`.
        let reg = argus_obs::Registry::new();
        let _scope = reg.enter();
        let mut c = Coordinator::new(aid(), vec![gid(1), gid(2)]);
        c.start();
        assert_eq!(sends(&abort(&mut c), "Abort"), vec![gid(1), gid(2)]);
        assert_eq!(c.phase(), CoordPhase::Aborted);
        assert!(abort(&mut c).is_empty());
        assert_eq!(c.phase(), CoordPhase::Aborted);
        assert_eq!(reg.counter("twopc.coord.aborted").get(), 1);
    }

    #[test]
    fn resume_committing_resends_commits_to_the_remotes() {
        let (mut c, effects) = Coordinator::resume_committing(aid(), vec![gid(0), gid(1)]);
        assert_eq!(c.phase(), CoordPhase::Committing);
        assert_eq!(sends(&effects, "Commit"), vec![gid(1)]);
        assert_eq!(c.awaiting(), vec![gid(1)]);
        let effects = c.on_msg(gid(1), &Msg::CommitAck { aid: aid() });
        assert_eq!(effects, FINISHED_COMMITTED);
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
        let mut c = Coordinator::new(aid(), vec![gid(0), gid(1), gid(2)]);
        c.start();
        c.on_msg(gid(2), &Msg::PrepareOk { aid: aid() });
        let effects = c.on_msg(gid(1), &Msg::QueryOutcome { aid: aid() });
        assert_eq!(c.phase(), CoordPhase::Aborted);
        // Abort to both remote participants, the end, then the promised
        // answer.
        assert_eq!(effects.len(), 4);
        assert_eq!(sends(&effects, "Abort"), vec![gid(1), gid(2)]);
        assert_eq!(effects[2], CoordEffect::Finished { committed: false });
        assert_eq!(
            effects[3],
            CoordEffect::Send {
                to: gid(1),
                msg: Msg::Outcome {
                    aid: aid(),
                    committed: false
                }
            }
        );
        // The stale vote arriving afterwards must not resurrect the commit.
        assert!(c.on_msg(gid(1), &Msg::PrepareOk { aid: aid() }).is_empty());
        assert_eq!(c.phase(), CoordPhase::Aborted);
    }
}
