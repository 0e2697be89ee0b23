//! The retention contract (DESIGN.md, "A guardian's step"): every per-action
//! row of the world and its guardians goes once the last party that could
//! ask about the action has its answer — a verdict when its client takes
//! it, a participant's machine when its verdict is durable, a coordinator
//! when the last acknowledgement is in or its abort is sent. Whatever asks later is
//! answered as for an action a crash wiped out: a `Prepare` is refused, a
//! `Commit` re-acknowledged, a query answered "aborted".
//!
//! The sharded blocking mix and a bank share one world on each
//! organization, with crashes, housekeeping and a network that duplicates
//! and reorders; each round also puts one transfer per bank branch in doubt
//! at its participant. Quiesced, with what was in doubt settled, the world
//! holds no per-action row at all, the money and seat oracles and I1–I12
//! hold, and the trace shows late mail of each kind reaching a guardian
//! that had already forgotten the action, on every organization.

mod common;

use argus::guardian::{CcPolicy, NetFaults, Outcome, RsKind, World, WorldConfig};
use argus::objects::Value;
use argus::sim::CostModel;
use argus::trace::{Key, Kind, Ph, TraceEvent};
use common::MixedRounds;
use std::collections::HashSet;

/// Late mail, read off the trace as `[prepare, commit, query]`: a `Prepare`
/// or `Commit` delivered to a participant after it voted yes and then
/// acknowledged the commit (its machine finished in the step that sent
/// the acknowledgement), and a `QueryOutcome` delivered to the action's
/// coordinator after the action's span closed there (the coordinator
/// finished) and before that guardian next restarted.
fn late_mail(events: &[TraceEvent]) -> [u64; 3] {
    let mut voted = HashSet::new();
    let mut forgot = HashSet::new();
    let mut closed: HashSet<Key> = HashSet::new();
    let mut late = [0; 3];
    for e in events {
        let at = (e.gid, e.key);
        match (e.kind, e.ph) {
            (Kind::Restart, Ph::Begin { .. }) => closed.retain(|k| k.origin != e.gid),
            (Kind::Action, Ph::Complete { .. }) => closed.extend(e.key),
            (Kind::NetPrepareOk, Ph::FlowStart { .. }) => {
                voted.insert(at);
            }
            (Kind::NetCommitAck, Ph::FlowStart { .. }) if voted.contains(&at) => {
                forgot.insert(at);
            }
            (Kind::NetPrepare, Ph::FlowEnd { .. }) if forgot.contains(&at) => late[0] += 1,
            (Kind::NetCommit, Ph::FlowEnd { .. }) if forgot.contains(&at) => late[1] += 1,
            (Kind::NetQueryOutcome, Ph::FlowEnd { .. })
                if e.key
                    .is_some_and(|k| k.origin == e.gid && closed.contains(&k)) =>
            {
                late[2] += 1;
            }
            _ => {}
        }
    }
    late
}

/// A transfer from bank branch `from` to branch `to` whose participant is
/// left in doubt: the coordinator is paused while the participant
/// prepares, the participant asks for the verdict (the question is held
/// with its vote), and the coordinator resumes. Under a duplicating,
/// reordering network a copy of the question can arrive after the
/// coordinator finished and forgot the action.
fn in_doubt_transfer(world: &mut World, mix: &MixedRounds, from: usize, to: usize) -> Outcome {
    let gids = mix.bank.guardians();
    let (coordinator, participant) = (gids[from], gids[to]);
    let a = world.begin(coordinator).unwrap();
    for (g, delta) in [(coordinator, -1), (participant, 1)] {
        let h = mix.bank.account(world, g, 0).unwrap();
        let add = move |v: &mut Value| {
            if let Value::Int(n) = v {
                *n += delta;
            }
        };
        world.write_atomic(g, a, h, add).unwrap();
    }
    world.commit_start(a).unwrap();
    world.pause_guardian(coordinator);
    world.run_until_quiet().unwrap();
    world.requery_in_doubt().unwrap();
    world.resume_guardian(coordinator);
    world.commit_settle(a).unwrap()
}

#[test]
fn a_quiesced_world_retains_no_action_on_every_organization() {
    for kind in RsKind::ALL {
        let tracer = argus::trace::Tracer::new();
        let _scope = tracer.enter();
        // Every force runs as soon as it is staged, between deliveries:
        // with the group-commit batch forced only when the network is idle,
        // every late copy would arrive before the verdict it could be late
        // for on the log organizations.
        let cfg = WorldConfig {
            force: argus::slog::ForceConfig::immediate(),
            ..WorldConfig::with_cc(CcPolicy::Blocking)
        };
        let mut world = World::with_config(CostModel::fast(), cfg);
        let mut mix = MixedRounds::setup(&mut world, kind, 29, (4, 8, 64));
        world.set_network_faults(Some(NetFaults::new(29, 0.2, 0.3)));
        for _ in 0..40 {
            mix.round(&mut world, 24);
            for from in 0..3 {
                let outcome = in_doubt_transfer(&mut world, &mix, from, (from + 1) % 3);
                assert_ne!(outcome, Outcome::Pending, "{kind:?}");
            }
            mix.audit(&world);
        }
        world.run_until_quiet().unwrap();
        world.requery_in_doubt().unwrap();
        assert_eq!(world.retained_actions(), 0, "{kind:?}");
        assert!(world.live_actions().is_empty(), "{kind:?}");
        mix.audit(&world);
        common::lint_world(&mut world);
        assert_eq!(tracer.dropped(), 0, "{kind:?}: the trace lost events");
        let late = late_mail(&tracer.events());
        assert!(
            late.iter().all(|&n| n > 0),
            "{kind:?}: late [prepare, commit, query] that met a forgetful guardian: {late:?}"
        );
    }
}
