//! Protocol messages.

use argus_objects::{ActionId, GuardianId};
use argus_trace::Kind;

/// A two-phase-commit message.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Msg {
    /// Coordinator → participant: "prepare for action A to commit".
    Prepare {
        /// The committing action.
        aid: ActionId,
    },
    /// Participant → coordinator: prepared successfully.
    PrepareOk {
        /// The action.
        aid: ActionId,
    },
    /// Participant → coordinator: the action is unknown or cannot prepare;
    /// the reply "aborted" of §2.2.2.
    PrepareRefused {
        /// The action.
        aid: ActionId,
    },
    /// Coordinator → participant: the verdict is commit.
    Commit {
        /// The action.
        aid: ActionId,
    },
    /// Participant → coordinator: commit record forced.
    CommitAck {
        /// The action.
        aid: ActionId,
    },
    /// Coordinator → participant: the verdict is abort.
    Abort {
        /// The action.
        aid: ActionId,
    },
    /// Participant → coordinator: an in-doubt participant asking for the
    /// verdict after a crash (§2.2.2).
    QueryOutcome {
        /// The action.
        aid: ActionId,
    },
    /// Coordinator → participant: the answer to a query.
    Outcome {
        /// The action.
        aid: ActionId,
        /// `true` = committed, `false` = aborted.
        committed: bool,
    },
}

impl Msg {
    /// The action the message concerns.
    pub fn aid(&self) -> ActionId {
        match self {
            Msg::Prepare { aid }
            | Msg::PrepareOk { aid }
            | Msg::PrepareRefused { aid }
            | Msg::Commit { aid }
            | Msg::CommitAck { aid }
            | Msg::Abort { aid }
            | Msg::QueryOutcome { aid }
            | Msg::Outcome { aid, .. } => *aid,
        }
    }

    /// The trace kind of the causal flow edge the network records for
    /// this message.
    pub fn flow(&self) -> Kind {
        match self {
            Msg::Prepare { .. } => Kind::NetPrepare,
            Msg::PrepareOk { .. } => Kind::NetPrepareOk,
            Msg::PrepareRefused { .. } => Kind::NetPrepareRefused,
            Msg::Commit { .. } => Kind::NetCommit,
            Msg::CommitAck { .. } => Kind::NetCommitAck,
            Msg::Abort { .. } => Kind::NetAbort,
            Msg::QueryOutcome { .. } => Kind::NetQueryOutcome,
            Msg::Outcome { .. } => Kind::NetOutcome,
        }
    }

    /// The message kind as a static name (`Prepare`, …): its flow's name.
    pub fn kind(&self) -> &'static str {
        self.flow().name()
    }
}

/// A message in flight between two guardians.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Envelope {
    /// Sender.
    pub from: GuardianId,
    /// Receiver.
    pub to: GuardianId,
    /// Payload.
    pub msg: Msg,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aid_is_extracted_from_every_variant() {
        let aid = ActionId::new(GuardianId(1), 9);
        for msg in [
            Msg::Prepare { aid },
            Msg::PrepareOk { aid },
            Msg::PrepareRefused { aid },
            Msg::Commit { aid },
            Msg::CommitAck { aid },
            Msg::Abort { aid },
            Msg::QueryOutcome { aid },
            Msg::Outcome {
                aid,
                committed: true,
            },
        ] {
            assert_eq!(msg.aid(), aid);
            assert!(!msg.kind().is_empty());
        }
    }

    #[test]
    fn kinds_are_distinct() {
        let aid = ActionId::new(GuardianId(0), 1);
        let kinds = [
            Msg::Prepare { aid }.kind(),
            Msg::PrepareOk { aid }.kind(),
            Msg::PrepareRefused { aid }.kind(),
            Msg::Commit { aid }.kind(),
            Msg::CommitAck { aid }.kind(),
            Msg::Abort { aid }.kind(),
            Msg::QueryOutcome { aid }.kind(),
            Msg::Outcome {
                aid,
                committed: false,
            }
            .kind(),
        ];
        let set: std::collections::HashSet<_> = kinds.iter().collect();
        assert_eq!(set.len(), kinds.len());
    }
}
