//! The one standing check and the one legal-outcomes oracle.
//!
//! Every harness that drives a [`World`] — the crash-schedule sweeper, the
//! VOPR, the scale smoke and the integration tests — records what each
//! action's client saw in a [`Ledger`] and asks [`standing`] whether the
//! world still keeps the thesis's promises. The oracle's three clauses:
//! `Committed` ⇒ the writes are durable at every participant, `Aborted` ⇒
//! invisible everywhere, `InDoubt` ⇒ either, but atomically (all
//! participants agree, with the written values).

use crate::{lint_heap_quiesced, lint_log, lint_trace, LogImage};
use argus_guardian::{Outcome, World, WorldResult};
use argus_objects::{GuardianId, Value};

/// The client-observed fate of one action — what the oracle holds the
/// world to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// `commit` returned `Committed`: the writes are promised durable.
    Committed,
    /// The client aborted (deliberately, or giving up on a node that went
    /// down): the writes must never become visible.
    Aborted,
    /// A fault interrupted two-phase commit: either fate is legal, but it
    /// must be atomic across participants.
    InDoubt,
}

impl Fate {
    /// The fate a `commit` call's result tells its client.
    pub(crate) fn of(commit: WorldResult<Outcome>) -> Self {
        match commit {
            Ok(Outcome::Committed) => Fate::Committed,
            Ok(Outcome::Aborted) => Fate::Aborted,
            Ok(Outcome::Pending) | Err(_) => Fate::InDoubt,
        }
    }
}

/// One action's writes — `(guardian, stable variable, value)`, the
/// variable unique to the action so visibility is unambiguous — and the
/// fate its client saw.
#[derive(Debug, Clone)]
pub struct Action {
    /// The writes the action made (or tried to make).
    pub writes: Vec<(GuardianId, String, i64)>,
    /// What its client was told.
    pub fate: Fate,
}

/// Every action a harness drove, in the order their fates were observed.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// The recorded actions.
    pub actions: Vec<Action>,
}

impl Ledger {
    /// Records one action's writes and observed fate.
    pub fn record(&mut self, writes: Vec<(GuardianId, String, i64)>, fate: Fate) {
        self.actions.push(Action { writes, fate });
    }

    /// How many recorded actions met `fate`.
    pub(crate) fn count(&self, fate: Fate) -> u64 {
        self.actions.iter().filter(|a| a.fate == fate).count() as u64
    }
}

/// When a [`standing`] check runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Between faults: a down guardian is skipped, and only aborted
    /// invisibility is sound — a partition may still hold a committed
    /// action's phase-two mail.
    MidRun,
    /// After every fault has lifted and the world has settled: every
    /// guardian must be up and hold no two-phase-commit machine, and every
    /// clause of the oracle applies.
    Terminal,
}

/// Checks a quiesced world: I12 on its trace, then each guardian in id
/// order — I1–I10 on its log, I11 on its heap, and at [`Phase::Terminal`]
/// no coordinator or participant left waiting — then the legal-outcomes
/// oracle over `ledger` under `phase`. Returns every violation (empty when
/// the world stands). A crash that an armed countdown fires inside the
/// log dump's own reads is the node going down, as under any other
/// operation: the guardian is crashed and skipped, and reported only at
/// [`Phase::Terminal`], where down is a violation.
pub fn standing(w: &mut World, ledger: &Ledger, phase: Phase) -> Vec<String> {
    let terminal = phase == Phase::Terminal;
    let mut out: Vec<String> = lint_trace(w.tracer())
        .iter()
        .map(|v| format!("trace: {v}"))
        .collect();
    let live = w.live_actions();
    for g in w.guardian_ids() {
        if !w.is_up(g) {
            if terminal {
                out.push(format!("{g:?} still down at a terminal check"));
            }
            continue;
        }
        match w.dump_log(g) {
            Ok(Some(entries)) => {
                let report = lint_log(&LogImage::from_entries(entries));
                if !report.is_clean() {
                    out.push(format!("{g:?} log lint: {report}"));
                }
            }
            Ok(None) => {} // shadowing keeps no log
            Err(e) if e.is_crash() => {
                w.crash(g);
                if terminal {
                    out.push(format!("{g:?} went down inside its log dump"));
                }
                continue;
            }
            Err(e) => out.push(format!("{g:?} log dump failed: {e}")),
        }
        let guardian = w.guardian(g).expect("guardian");
        for v in lint_heap_quiesced(&guardian.heap, &live) {
            out.push(format!("{g:?} heap: {v}"));
        }
        // Termination: once faults lift, every party forgets on its own.
        if terminal {
            for aid in &live {
                let c = guardian.coordinator(*aid);
                let c = c.map(|c| (format!("coordinator {:?}", c.phase()), c.awaiting()));
                let p = guardian.participant(*aid);
                let p = p.map(|p| (format!("participant {:?}", p.phase()), vec![p.coordinator]));
                for (machine, awaiting) in c.into_iter().chain(p) {
                    out.push(format!("{g:?} {aid}: {machine} awaits {awaiting:?}"));
                }
            }
        }
    }

    for action in &ledger.actions {
        let seen: Vec<(GuardianId, &str, Option<Value>)> = action
            .writes
            .iter()
            .map(|(g, var, _)| {
                let v = w.guardian(*g).expect("guardian").stable_value(var);
                (*g, var.as_str(), v)
            })
            .collect();
        let visible = seen.iter().filter(|(_, _, v)| v.is_some()).count();
        let wrong = |what: &str, out: &mut Vec<String>| {
            for ((g, var, got), (_, _, want)) in seen.iter().zip(&action.writes) {
                if got.as_ref() != Some(&Value::Int(*want)) {
                    out.push(format!(
                        "{what} write {var}={want} not held at {g:?} (found {got:?})"
                    ));
                }
            }
        };
        match action.fate {
            Fate::Aborted => {
                for (g, var, got) in seen.iter().filter(|(_, _, v)| v.is_some()) {
                    out.push(format!(
                        "aborted write {var} became visible at {g:?} ({got:?})"
                    ));
                }
            }
            Fate::Committed if terminal => wrong("committed", &mut out),
            Fate::InDoubt if terminal && visible != 0 && visible != seen.len() => {
                out.push(format!("in-doubt action resolved non-atomically: {seen:?}"));
            }
            Fate::InDoubt if terminal && visible != 0 => wrong("in-doubt", &mut out),
            Fate::Committed | Fate::InDoubt => {} // mid-run: mail may be held
        }
    }
    out
}

/// The flight recorder for a failing check: writes `schedule`, then every
/// violation, the ledger's actions (writes and the fate the client saw) and
/// each up guardian's decoded log as text, and the world's trace as Chrome
/// trace-event JSON, both under `label`. Returns the paths written: none
/// when there are no violations, and a dump that fails is left out (the
/// violations stand on their own).
pub(crate) fn dump_flight(
    label: &str,
    mut schedule: Vec<String>,
    violations: &[String],
    ledger: &Ledger,
    w: &mut World,
) -> Vec<String> {
    if violations.is_empty() {
        return Vec::new();
    }
    schedule.extend(violations.iter().map(|v| format!("violation: {v}")));
    for (i, a) in ledger.actions.iter().enumerate() {
        schedule.push(format!("action {i}: {:?} -> {:?}", a.writes, a.fate));
    }
    for g in w.guardian_ids() {
        if !w.is_up(g) {
            continue;
        }
        match w.dump_log(g) {
            Ok(Some(entries)) => {
                schedule.push(format!("{g:?} log ({} entries):", entries.len()));
                schedule.extend(entries.iter().map(|(addr, e)| format!("  {addr} {e:?}")));
            }
            Ok(None) => schedule.push(format!("{g:?}: no log (shadowed store)")),
            Err(e) => schedule.push(format!("{g:?}: log dump failed: {e}")),
        }
    }
    let text = argus_trace::flight::dump_text(label, &schedule);
    let trace = argus_trace::flight::dump(label, w.tracer());
    [text, trace]
        .into_iter()
        .filter_map(|p| Some(p.ok()?.display().to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_guardian::RsKind;
    use argus_sim::CostModel;

    /// One committed two-guardian action, then false ledgers against it:
    /// each lie trips exactly its own clause at `Terminal`, and only the
    /// aborted-invisibility lie trips anything at `MidRun`.
    #[test]
    fn each_clause_fires_in_its_phase() {
        let mut w = World::new(CostModel::fast());
        let g0 = w.add_guardian(RsKind::Hybrid).unwrap();
        let g1 = w.add_guardian(RsKind::Hybrid).unwrap();
        let aid = w.begin(g0).unwrap();
        for g in [g0, g1] {
            w.set_stable(g, aid, "x", Value::Int(1)).unwrap();
        }
        assert_eq!(w.commit(aid).unwrap(), Outcome::Committed);

        let x = |g, val| (g, "x".to_owned(), val);
        let mut truth = Ledger::default();
        truth.record(vec![x(g0, 1), x(g1, 1)], Fate::Committed);
        for phase in [Phase::MidRun, Phase::Terminal] {
            assert_eq!(standing(&mut w, &truth, phase), Vec::<String>::new());
        }
        let never = |g| (g, "never".to_owned(), 7);
        let lies = [
            (
                vec![never(g0)],
                Fate::Committed,
                "committed write never=7 not held",
            ),
            (
                vec![x(g0, 1)],
                Fate::Aborted,
                "aborted write x became visible",
            ),
            (
                vec![x(g0, 1), never(g1)],
                Fate::InDoubt,
                "resolved non-atomically",
            ),
            (
                vec![x(g0, 1), x(g1, 9)],
                Fate::InDoubt,
                "in-doubt write x=9 not held",
            ),
        ];
        let mut all = truth.clone();
        for (writes, fate, clause) in lies {
            let mut one = truth.clone();
            one.record(writes.clone(), fate);
            all.record(writes, fate);
            let end = standing(&mut w, &one, Phase::Terminal);
            assert!(
                end.len() == 1 && end[0].contains(clause),
                "{clause}: {end:?}"
            );
            let mid = standing(&mut w, &one, Phase::MidRun);
            assert_eq!(mid, if fate == Fate::Aborted { end } else { vec![] });
        }
        assert_eq!(standing(&mut w, &all, Phase::MidRun).len(), 1);
        assert_eq!(standing(&mut w, &all, Phase::Terminal).len(), 4);

        // A two-phase-commit party left waiting is a violation at the end,
        // named with what it awaits.
        let aid = w.begin(g0).unwrap();
        w.set_stable(g1, aid, "y", Value::Int(2)).unwrap();
        w.pause_guardian(g1);
        w.commit_start(aid).unwrap();
        w.run_until_quiet().unwrap();
        assert!(standing(&mut w, &Ledger::default(), Phase::MidRun).is_empty());
        let end = standing(&mut w, &Ledger::default(), Phase::Terminal);
        let left = format!("{g0:?} {aid}: coordinator Preparing awaits [{g1:?}]");
        assert_eq!(end, [left]);

        // A down guardian is skipped mid-run and a violation at the end.
        w.crash(g1);
        assert!(standing(&mut w, &Ledger::default(), Phase::MidRun).is_empty());
        let end = standing(&mut w, &Ledger::default(), Phase::Terminal);
        assert!(end.iter().any(|v| v.contains("still down")), "{end:?}");
    }
}
