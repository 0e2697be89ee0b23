//! The bounded 2PC interleaving explorer.
//!
//! A deterministic DFS over the *real* `twopc` coordinator/participant state
//! machines (the same code `argus-guardian` drives) that enumerates every
//! message reordering, message drop, and crash point up to a configurable
//! budget, and checks atomicity at every reachable state:
//!
//! * **A1** — a participant only logs `committed` after the coordinator
//!   logged `committing` (the commit point, §2.2.1).
//! * **A2** — no two participants resolve the same action differently: a
//!   `committed` record at one guardian and an `aborted` record at another
//!   is the canonical atomicity violation.
//! * **A3** — every node's log passes the static linter ([`crate::lint_log`])
//!   at every reachable state, crash states included.
//! * **A4** — past the commit point no participant aborts: abort
//!   instructions are only ever issued before the coordinator forces
//!   `committing`, so a `committing` record and a participant `aborted`
//!   record for the same action can never coexist.
//! * **Termination** — in every quiescent terminal state no participant is
//!   prepared-forever: each either resolved or never passed its prepare
//!   point.
//!
//! With `coordinator_participates` the coordinator's node is itself a
//! participant — in `argus-guardian`'s `World`, always — and so also holds a
//! participant log. The machine then runs the protocol with the other
//! participants only, and its commit point is one forced step that appends
//! the node's own data and `prepared`, `committing`, and its own `committed`
//! (DESIGN.md deviation 12). A1–A4 and termination are restated with that
//! node counted as a participant: its `committed` and its `committing` are
//! durable together or not at all (so A1, A2 and A4 cover it through
//! `committing`), the client is told "committed" only with its
//! durable `committed` record and "aborted" only without one — and **no node
//! is ever in doubt about an action it coordinates**: at no reachable state,
//! crash states included, does its log show the action prepared but
//! unresolved. No message is ever addressed to its sender. With
//! `participants: 0` the action is *local* — the coordinator's guardian is
//! its only participant — and the same step has no `committing` record and
//! no second party.
//!
//! Each node keeps a *model log* of real [`LogEntry`] values at synthesized
//! addresses: forced records survive crashes, machine state does not. The
//! coordinator's `done` record is written but never forced, so it sits in a
//! volatile buffer until a later force publishes it (a move of its own) or a
//! crash loses it — after which restart finds `committing` and runs phase
//! two again.
//! Restart rebuilds PT/CT exactly the way `core`'s recovery does
//! (first-insertion-wins over a backward scan) and resumes the machines the
//! way `argus-guardian`'s `World::restart` does — including the
//! presumed-abort rule: a coordinator with no `committing` record answers
//! queries with "aborted".

use crate::image::LogImage;
use crate::lint::lint_log;
use crate::obs::ExploreObs;
use argus_core::LogEntry;
use argus_objects::{ActionId, GuardianId, ObjKind, Uid, Value};
use argus_slog::LogAddress;
use argus_twopc::{
    CoordEffect, CoordPhase, Coordinator, Envelope, Msg, PartEffect, PartPhase, Participant,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// Exploration budgets.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Number of participant guardians besides the coordinator's. Zero
    /// makes the action local: the coordinator's guardian is its only
    /// participant.
    pub participants: usize,
    /// Whether the coordinator's guardian is itself a participant (its node
    /// then also holds a participant log) or a separate node that only
    /// coordinates. A local action's coordinator always participates.
    pub coordinator_participates: bool,
    /// How many crashes may be injected along one schedule.
    pub max_crashes: u32,
    /// How many messages may be dropped along one schedule.
    pub max_drops: u32,
    /// Hard cap on distinct states visited; hitting it is reported in
    /// [`ExploreStats::depth_limited`], not an error.
    pub max_states: usize,
    /// Whether a fresh participant may refuse the prepare (exercises the
    /// abort side of the protocol).
    pub allow_refusal: bool,
    /// Whether a crashed node may restart while messages are still in
    /// flight. Eager restarts race recovery against stale traffic — the
    /// schedule class that exposed the stale-vote atomicity bug (a restarted
    /// participant's query answered "aborted" while its pre-crash vote was
    /// still in flight) — but they multiply the state space by orders of
    /// magnitude. When off, nodes restart only once the network is quiet
    /// (always reachable: delivery to a down node consumes the message).
    pub eager_restarts: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            participants: 2,
            coordinator_participates: false,
            max_crashes: 1,
            max_drops: 1,
            max_states: 200_000,
            allow_refusal: true,
            eager_restarts: false,
        }
    }
}

impl ExploreConfig {
    /// Whether the coordinator's node is a participant of the action.
    fn home_participates(&self) -> bool {
        self.coordinator_participates || self.participants == 0
    }
}

/// Coverage counters for one exploration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreStats {
    /// Distinct states visited.
    pub states_visited: u64,
    /// Successor states pruned because they were already visited.
    pub dedup_pruned: u64,
    /// Crash points injected (mid-delivery and idle).
    pub crash_points: u64,
    /// Messages delivered.
    pub deliveries: u64,
    /// Messages dropped.
    pub drops: u64,
    /// Quiescent fully-resolved terminal states reached.
    pub terminal_states: u64,
    /// Per-node log lints run.
    pub lint_runs: u64,
    /// Expansions cut off by the state cap.
    pub depth_limited: u64,
}

/// The explorer's verdict.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Coverage counters.
    pub stats: ExploreStats,
    /// Every atomicity/lint violation found, with the state that exhibits it.
    pub violations: Vec<String>,
}

impl ExploreReport {
    /// Whether every reachable state satisfied A1–A3 and termination.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with the violation list if the protocol misbehaved.
    #[track_caller]
    pub fn assert_ok(&self) {
        assert!(
            self.ok(),
            "2PC exploration found {} violation(s):\n{}",
            self.violations.len(),
            self.violations.join("\n")
        );
    }
}

// ---- model state ---------------------------------------------------------

const DATA_START: u64 = 512;
const ENTRY_SPACING: u64 = 64;

/// One node's durable side: the model log.
///
/// The entry vector sits behind an [`Rc`] so cloning a state (which the DFS
/// does once per successor, tens of millions of times) is a refcount bump;
/// the rare append copies-on-write. The content hash is maintained on append
/// and shared by the state fingerprint and the lint memo table.
#[derive(Debug, Clone)]
struct ModelLog {
    entries: Rc<Vec<(LogAddress, LogEntry)>>,
    last_outcome: Option<LogAddress>,
    next_addr: u64,
    content_hash: u64,
}

impl ModelLog {
    fn new() -> Self {
        Self {
            entries: Rc::new(Vec::new()),
            last_outcome: None,
            next_addr: DATA_START,
            content_hash: Self::hash_entries(&[]),
        }
    }

    fn hash_entries(entries: &[(LogAddress, LogEntry)]) -> u64 {
        let mut h = DefaultHasher::new();
        entries.hash(&mut h);
        h.finish()
    }

    fn append(&mut self, mut entry: LogEntry) -> LogAddress {
        let addr = LogAddress(self.next_addr);
        self.next_addr += ENTRY_SPACING;
        if entry.is_outcome() {
            entry.set_prev(self.last_outcome);
            self.last_outcome = Some(addr);
        }
        Rc::make_mut(&mut self.entries).push((addr, entry));
        self.content_hash = Self::hash_entries(&self.entries);
        addr
    }

    /// A local prepare as it reaches the log: object `n`'s data entry, then
    /// the `prepared` record carrying its shadow pair.
    fn append_prepared(&mut self, aid: ActionId, n: u64) {
        let daddr = self.append(LogEntry::DataH {
            kind: ObjKind::Atomic,
            value: Value::Int(n as i64),
        });
        self.append(LogEntry::Prepared {
            aid,
            pairs: vec![(Uid(n + 1), daddr)],
            prev: None,
        });
    }

    fn has_committed(&self, aid: ActionId) -> bool {
        self.entries
            .iter()
            .any(|(_, e)| matches!(e, LogEntry::Committed { aid: a, .. } if *a == aid))
    }

    fn has_aborted(&self, aid: ActionId) -> bool {
        self.entries
            .iter()
            .any(|(_, e)| matches!(e, LogEntry::Aborted { aid: a, .. } if *a == aid))
    }

    fn has_committing(&self, aid: ActionId) -> bool {
        self.entries
            .iter()
            .any(|(_, e)| matches!(e, LogEntry::Committing { aid: a, .. } if *a == aid))
    }

    /// Rebuilds this node's participant verdict the way recovery does:
    /// newest entry first, first insertion wins.
    fn recovered_pstate(&self, aid: ActionId) -> Option<argus_core::PState> {
        for (_, entry) in self.entries.iter().rev() {
            match entry {
                LogEntry::Committed { aid: a, .. } if *a == aid => {
                    return Some(argus_core::PState::Committed)
                }
                LogEntry::Aborted { aid: a, .. } if *a == aid => {
                    return Some(argus_core::PState::Aborted)
                }
                LogEntry::Prepared { aid: a, .. } if *a == aid => {
                    return Some(argus_core::PState::Prepared)
                }
                _ => {}
            }
        }
        None
    }

    /// Rebuilds the coordinator's state: `Some(true)` = done, `Some(false)` =
    /// committing (phase two restartable), `None` = no trace (presumed
    /// abort).
    fn recovered_cstate(&self, aid: ActionId) -> Option<(bool, Vec<GuardianId>)> {
        for (_, entry) in self.entries.iter().rev() {
            match entry {
                LogEntry::Done { aid: a, .. } if *a == aid => return Some((true, Vec::new())),
                LogEntry::Committing { aid: a, gids, .. } if *a == aid => {
                    return Some((false, gids.clone()))
                }
                _ => {}
            }
        }
        None
    }
}

/// The coordinator node.
#[derive(Debug, Clone)]
struct CoordNode {
    up: bool,
    log: ModelLog,
    machine: Option<Coordinator>,
    /// The client asked for the commit and the machine has not started yet.
    start_pending: bool,
    /// The `done` record is written but not yet forced (dies with a crash).
    done_buffered: bool,
    /// The `done` record is on the log (survives the machine).
    done: bool,
    /// The protocol finished at the coordinator with this verdict.
    finished: Option<bool>,
}

impl CoordNode {
    /// A node crash: the machine, an unstarted commit request and the
    /// unforced `done` are volatile; the log survives.
    fn crash(&mut self) {
        self.up = false;
        self.machine = None;
        self.start_pending = false;
        self.done_buffered = false;
    }
}

/// One participant node.
#[derive(Debug, Clone)]
struct PartNode {
    up: bool,
    log: ModelLog,
    machine: Option<Participant>,
    /// Locally resolved verdict (from a forced record or a refusal).
    resolved: Option<bool>,
}

/// One step of the schedule that produced a state, as a singly linked list
/// shared structurally between a state and its successors (cloning a state
/// is still a refcount bump). This is the flight recorder's raw material:
/// when a violation is found the chain is unwound into the exact schedule
/// that reaches it.
#[derive(Debug)]
struct PathNode {
    step: String,
    prev: Option<Rc<PathNode>>,
}

/// One global state of the protocol.
#[derive(Debug, Clone)]
struct State {
    coord: CoordNode,
    parts: Vec<PartNode>,
    inflight: Vec<Envelope>,
    crashes_left: u32,
    drops_left: u32,
    /// The schedule that produced this state. Deliberately excluded from
    /// [`State::fingerprint`]: two schedules reaching the same protocol
    /// state are the same state, and the first one to arrive keeps its
    /// history for the flight recorder.
    path: Option<Rc<PathNode>>,
}

impl State {
    /// A canonical fingerprint: machine phases, logs, and the in-flight
    /// multiset (order-insensitive). Hashed with [`DefaultHasher`], which is
    /// deterministic — it is built with fixed keys, never seeded.
    fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.coord.up.hash(&mut h);
        self.coord.start_pending.hash(&mut h);
        self.coord.done_buffered.hash(&mut h);
        self.coord.done.hash(&mut h);
        self.coord.finished.hash(&mut h);
        match &self.coord.machine {
            Some(c) => {
                c.phase().hash(&mut h);
                c.awaiting().hash(&mut h);
            }
            None => 0xffu8.hash(&mut h),
        }
        self.coord.log.content_hash.hash(&mut h);
        for p in &self.parts {
            p.up.hash(&mut h);
            p.resolved.hash(&mut h);
            match &p.machine {
                Some(m) => m.phase().hash(&mut h),
                None => 0xffu8.hash(&mut h),
            }
            p.log.content_hash.hash(&mut h);
        }
        // The in-flight multiset: hash each envelope on its own, then fold
        // the sorted hashes in, so delivery order within the bag is
        // canonical.
        let mut envs: Vec<u64> = self
            .inflight
            .iter()
            .map(|e| {
                let mut eh = DefaultHasher::new();
                e.hash(&mut eh);
                eh.finish()
            })
            .collect();
        envs.sort_unstable();
        envs.hash(&mut h);
        self.crashes_left.hash(&mut h);
        self.drops_left.hash(&mut h);
        h.finish()
    }

    /// Records one schedule step onto this (successor) state's path.
    fn record(&mut self, step: String) {
        self.path = Some(Rc::new(PathNode {
            step,
            prev: self.path.take(),
        }));
    }

    /// Unwinds the path chain into the schedule, root first.
    fn schedule(&self) -> Vec<String> {
        let mut lines = Vec::new();
        let mut cur = self.path.as_deref();
        while let Some(node) = cur {
            lines.push(node.step.clone());
            cur = node.prev.as_deref();
        }
        lines.reverse();
        lines
    }
}

// ---- the explorer --------------------------------------------------------

/// The coordinator's guardian id (node 0); participants are 1..=n.
const COORD: GuardianId = GuardianId(0);

/// The bounded interleaving explorer. See the module docs.
#[derive(Debug)]
pub struct Explorer {
    cfg: ExploreConfig,
    aid: ActionId,
    stats: ExploreStats,
    violations: Vec<String>,
    seen_violations: HashSet<String>,
    /// Lint verdicts keyed by log-content hash: logs repeat across millions
    /// of interleavings, so each distinct log is linted once.
    lint_cache: HashMap<u64, Option<String>>,
}

impl Explorer {
    /// Creates an explorer for one top-level action under `cfg`.
    pub fn new(cfg: ExploreConfig) -> Self {
        Self {
            cfg,
            aid: ActionId::new(COORD, 1),
            stats: ExploreStats::default(),
            violations: Vec::new(),
            seen_violations: HashSet::new(),
            lint_cache: HashMap::new(),
        }
    }

    /// Runs the DFS to exhaustion (or the state cap) and reports.
    pub fn run(mut self) -> ExploreReport {
        let obs = ExploreObs::resolve();
        let root = self.initial_state();
        let mut visited: HashSet<u64> = HashSet::new();
        let mut stack: Vec<State> = Vec::new();
        visited.insert(root.fingerprint());
        stack.push(root);
        while let Some(state) = stack.pop() {
            self.stats.states_visited += 1;
            self.check_state(&state);
            if visited.len() >= self.cfg.max_states {
                self.stats.depth_limited += 1;
                continue;
            }
            for next in self.successors(&state) {
                let fp = next.fingerprint();
                if visited.insert(fp) {
                    stack.push(next);
                } else {
                    self.stats.dedup_pruned += 1;
                }
            }
        }
        obs.states_visited.add(self.stats.states_visited);
        obs.dedup_pruned.add(self.stats.dedup_pruned);
        obs.crash_points.add(self.stats.crash_points);
        obs.deliveries.add(self.stats.deliveries);
        obs.drops.add(self.stats.drops);
        obs.terminal_states.add(self.stats.terminal_states);
        obs.lint_runs.add(self.stats.lint_runs);
        obs.depth_limited.add(self.stats.depth_limited);
        ExploreReport {
            stats: self.stats,
            violations: self.violations,
        }
    }

    fn initial_state(&self) -> State {
        let gids: Vec<GuardianId> = self
            .cfg
            .home_participates()
            .then_some(COORD)
            .into_iter()
            .chain((1..=self.cfg.participants as u32).map(GuardianId))
            .collect();
        State {
            coord: CoordNode {
                up: true,
                log: ModelLog::new(),
                machine: Some(Coordinator::new(self.aid, gids)),
                start_pending: true,
                done_buffered: false,
                done: false,
                finished: None,
            },
            parts: (0..self.cfg.participants)
                .map(|_| PartNode {
                    up: true,
                    log: ModelLog::new(),
                    machine: None,
                    resolved: None,
                })
                .collect(),
            inflight: Vec::new(),
            crashes_left: self.cfg.max_crashes,
            drops_left: self.cfg.max_drops,
            path: None,
        }
    }

    // ---- safety ----------------------------------------------------------

    fn violation(&mut self, kind: &str, detail: String) {
        let text = format!("[{kind}] {detail}");
        if self.seen_violations.insert(text.clone()) {
            self.violations.push(text);
        }
    }

    fn check_state(&mut self, state: &State) {
        let before = self.violations.len();
        self.check_state_inner(state);
        // Flight recorder: the first state to exhibit a violation dumps the
        // schedule that reaches it, and the violation text points at the
        // file so the repro is one redirect away.
        if self.violations.len() > before {
            let mut lines = state.schedule();
            lines.push(format!(
                "-- {} violation(s) at this state:",
                self.violations.len() - before
            ));
            lines.extend(self.violations[before..].iter().cloned());
            if let Ok(path) = argus_trace::flight::dump_text("explore", &lines) {
                let suffix = format!(" [schedule: {}]", path.display());
                for v in &mut self.violations[before..] {
                    v.push_str(&suffix);
                }
            }
        }
    }

    fn check_state_inner(&mut self, state: &State) {
        let aid = self.aid;
        // A1: a committed participant implies a logged commit point.
        for (i, p) in state.parts.iter().enumerate() {
            if p.log.has_committed(aid) && !state.coord.log.has_committing(aid) {
                self.violation(
                    "A1",
                    format!(
                        "participant {} committed without a coordinator committing record",
                        i + 1
                    ),
                );
            }
        }
        // A participating coordinator's node is a participant too. Its
        // records reach the log in the commit point's one force, so what can
        // go wrong there is the client's answer, a split of that force, and
        // a disagreement with the other participants.
        if self.cfg.home_participates() {
            let home = &state.coord.log;
            let durable = home.has_committed(aid);
            match state.coord.finished {
                Some(true) if !durable => self.violation(
                    "A1",
                    "acknowledged committed without a durable committed record at home".into(),
                ),
                Some(false) if durable => {
                    self.violation("A4", "reported aborted after the commit point".into())
                }
                _ => {}
            }
            if self.cfg.participants > 0 && durable != home.has_committing(aid) {
                self.violation(
                    "A1",
                    "home's committed and committing records are not durable together".into(),
                );
            }
            if home.recovered_pstate(aid) == Some(argus_core::PState::Prepared) {
                self.violation(
                    "DOUBT",
                    "the coordinator's node is in doubt about its own action: the commit point's one force was split".into(),
                );
            }
        }
        if let Some(e) = state.inflight.iter().find(|e| e.from == e.to) {
            let kind = e.msg.kind();
            self.violation("SELF", format!("node {} mailed itself a {kind}", e.to.0));
        }
        // A2: no mixed verdicts across participant logs.
        let committed = state.parts.iter().position(|p| p.log.has_committed(aid));
        let aborted = state.parts.iter().position(|p| p.log.has_aborted(aid));
        if let (Some(c), Some(a)) = (committed, aborted) {
            self.violation(
                "A2",
                format!(
                    "participant {} committed while participant {} aborted",
                    c + 1,
                    a + 1
                ),
            );
        }
        // A4: past the commit point no participant may abort. A participant
        // only forces `aborted` on instruction, and abort instructions
        // (verdicts, presumed-abort answers) are only issued before the
        // coordinator forces `committing`.
        if state.coord.log.has_committing(aid) {
            for (i, p) in state.parts.iter().enumerate() {
                if p.log.has_aborted(aid) {
                    self.violation(
                        "A4",
                        format!(
                            "participant {} aborted after the coordinator passed the commit point",
                            i + 1
                        ),
                    );
                }
            }
        }
        // A3: every node's log lints clean. Identical logs recur across huge
        // numbers of interleavings, so verdicts are memoized by content.
        let mut lint_failures = Vec::new();
        {
            let logs = std::iter::once((0usize, &state.coord.log))
                .chain(state.parts.iter().enumerate().map(|(i, p)| (i + 1, &p.log)));
            for (node, log) in logs {
                let key = log.content_hash;
                let verdict = match self.lint_cache.get(&key) {
                    Some(v) => v.clone(),
                    None => {
                        self.stats.lint_runs += 1;
                        let report =
                            lint_log(&LogImage::from_entries(log.entries.as_ref().clone()));
                        let v = if report.is_clean() {
                            None
                        } else {
                            let details: Vec<String> =
                                report.violations.iter().map(|v| v.to_string()).collect();
                            Some(details.join("; "))
                        };
                        self.lint_cache.insert(key, v.clone());
                        v
                    }
                };
                if let Some(detail) = verdict {
                    lint_failures.push((node, detail));
                }
            }
        }
        for (node, detail) in lint_failures {
            self.violation("A3", format!("node {node} log fails lint: {detail}"));
        }
        // Termination check on quiescent, all-up, no-move states.
        if state.inflight.is_empty()
            && state.coord.up
            && state.parts.iter().all(|p| p.up)
            && !self.has_quiescent_move(state)
        {
            self.stats.terminal_states += 1;
            for (i, p) in state.parts.iter().enumerate() {
                let prepared_forever = match &p.machine {
                    Some(m) => m.phase() == PartPhase::Prepared,
                    None => {
                        p.resolved.is_none()
                            && p.log.recovered_pstate(aid) == Some(argus_core::PState::Prepared)
                    }
                };
                if prepared_forever {
                    self.violation(
                        "TERM",
                        format!(
                            "terminal state leaves participant {} prepared forever",
                            i + 1
                        ),
                    );
                }
            }
        }
    }

    /// Whether any quiescent recovery move applies (used to decide
    /// terminality; mirrors [`Explorer::quiesce`]).
    fn has_quiescent_move(&self, state: &State) -> bool {
        if !state.inflight.is_empty() {
            return false;
        }
        if state.coord.up && !state.coord.start_pending {
            if let Some(c) = &state.coord.machine {
                match c.phase() {
                    CoordPhase::Preparing => return true,
                    CoordPhase::Committing | CoordPhase::Aborting if !c.awaiting().is_empty() => {
                        return true;
                    }
                    _ => {}
                }
            }
        }
        state.parts.iter().any(|p| {
            p.up && p
                .machine
                .as_ref()
                .is_some_and(|m| m.phase() == PartPhase::Prepared)
        })
    }

    // ---- successor generation --------------------------------------------

    fn successors(&mut self, state: &State) -> Vec<State> {
        let mut out = Vec::new();
        // The commit request reaches the coordinator: its machine starts,
        // one effect at a time, and may crash between any two.
        if state.coord.up && state.coord.start_pending {
            let (next, steps) = self.start(state.clone(), None);
            out.push(next);
            if state.crashes_left > 0 {
                for k in 0..steps {
                    self.stats.crash_points += 1;
                    out.push(self.start(state.clone(), Some(k)).0);
                }
            }
        }
        // Some later force at the coordinator publishes the buffered `done`
        // (the branch where it is lost instead is any coordinator crash).
        if state.coord.up && state.coord.done_buffered {
            let mut next = state.clone();
            next.record("force publishes done".to_string());
            next.coord.done_buffered = false;
            next.coord.done = true;
            next.coord.log.append(LogEntry::Done {
                aid: self.aid,
                prev: None,
            });
            out.push(next);
        }
        // Deliveries (every reordering; this is where the fan-out lives).
        for idx in 0..state.inflight.len() {
            let votes: &[bool] = if self.is_fresh_prepare(state, idx) && self.cfg.allow_refusal {
                &[true, false]
            } else {
                &[true]
            };
            for &prepare_ok in votes {
                let (next, steps) = self.deliver(state.clone(), idx, prepare_ok, None);
                self.stats.deliveries += 1;
                out.push(next);
                if state.crashes_left > 0 {
                    // Crash the destination after each effect micro-step
                    // (0 = crash before any effect ran; the message is lost
                    // with the machine).
                    for k in 0..steps {
                        let (crashed, _) = self.deliver(state.clone(), idx, prepare_ok, Some(k));
                        self.stats.crash_points += 1;
                        out.push(crashed);
                    }
                }
            }
        }
        // Drops.
        if state.drops_left > 0 {
            for idx in 0..state.inflight.len() {
                let mut next = state.clone();
                let env = next.inflight.remove(idx);
                next.record(format!(
                    "drop {} {}->{}",
                    env.msg.kind(),
                    env.from.0,
                    env.to.0
                ));
                next.drops_left -= 1;
                self.stats.drops += 1;
                out.push(next);
            }
        }
        // Idle crashes.
        if state.crashes_left > 0 {
            if state.coord.up {
                let mut next = state.clone();
                next.record("crash coordinator".to_string());
                next.coord.crash();
                next.crashes_left -= 1;
                self.stats.crash_points += 1;
                out.push(next);
            }
            for i in 0..state.parts.len() {
                if state.parts[i].up {
                    let mut next = state.clone();
                    next.record(format!("crash participant {}", i + 1));
                    next.parts[i].up = false;
                    next.parts[i].machine = None;
                    next.parts[i].resolved = None;
                    next.crashes_left -= 1;
                    self.stats.crash_points += 1;
                    out.push(next);
                }
            }
        }
        // Restarts. By default a node comes back only once the network is
        // quiet (delivery to a down node consumes the message, so the queue
        // can always drain); with `eager_restarts` recovery races the stale
        // in-flight traffic too.
        if self.cfg.eager_restarts || state.inflight.is_empty() {
            if !state.coord.up {
                out.push(self.restart_coord(state.clone()));
            }
            for i in 0..state.parts.len() {
                if !state.parts[i].up {
                    out.push(self.restart_part(state.clone(), i));
                }
            }
        }
        // Quiescent recovery moves (timeouts / re-sends / re-queries) — only
        // when nothing is in flight, so they model "the network went quiet".
        if self.has_quiescent_move(state) {
            out.push(self.quiesce(state.clone()));
        }
        out
    }

    /// Runs the coordinator machine's `start` effects, crashing the
    /// coordinator after `crash_after` of them. Returns the next state and
    /// the number of micro-steps a full start takes.
    fn start(&self, mut state: State, crash_after: Option<usize>) -> (State, usize) {
        state.record(match crash_after {
            Some(k) => format!("start commit crash@{k}"),
            None => "start commit".to_string(),
        });
        state.coord.start_pending = false;
        let machine = state.coord.machine.as_ref().expect("unstarted machine");
        let effects = machine.start().into();
        if crash_after.is_some() {
            state.crashes_left -= 1;
        }
        let steps = self.run_coord_effects(&mut state, effects, crash_after);
        (state, steps)
    }

    /// Is `inflight[idx]` a prepare arriving at a participant that has no
    /// machine, no resolution, and no log trace (i.e. the vote is free)?
    fn is_fresh_prepare(&self, state: &State, idx: usize) -> bool {
        let env = &state.inflight[idx];
        if !matches!(env.msg, Msg::Prepare { .. }) || env.to == COORD {
            return false;
        }
        let Some(p) = state.parts.get((env.to.0 - 1) as usize) else {
            return false;
        };
        p.up && p.machine.is_none() && p.resolved.is_none() && p.log.entries.is_empty()
    }

    // ---- delivery --------------------------------------------------------

    /// Delivers `inflight[idx]`, executing the destination machine's effects
    /// one micro-step at a time. With `crash_after = Some(k)` the
    /// destination crashes after `k` micro-steps: durable log appends and
    /// already-sent messages survive, the machine and the rest of its
    /// effect queue do not. Returns the next state and the number of
    /// micro-steps a full delivery takes.
    fn deliver(
        &self,
        mut state: State,
        idx: usize,
        prepare_ok: bool,
        crash_after: Option<usize>,
    ) -> (State, usize) {
        let env = state.inflight.remove(idx);
        let mut step = format!("deliver {} {}->{}", env.msg.kind(), env.from.0, env.to.0);
        if !prepare_ok {
            step.push_str(" vote=refuse");
        }
        if let Some(k) = crash_after {
            step.push_str(&format!(" crash@{k}"));
        }
        state.record(step);
        let steps = if env.to == COORD {
            self.deliver_to_coord(&mut state, &env, crash_after)
        } else {
            self.deliver_to_part(&mut state, &env, prepare_ok, crash_after)
        };
        (state, steps)
    }

    fn deliver_to_coord(
        &self,
        state: &mut State,
        env: &Envelope,
        crash_after: Option<usize>,
    ) -> usize {
        let coord = &mut state.coord;
        if !coord.up {
            // Delivery to a crashed node: the message evaporates.
            return 0;
        }
        let effects: VecDeque<CoordEffect> = match &mut coord.machine {
            Some(machine) => machine.on_msg(env.from, &env.msg).into(),
            None => {
                // Machine-less coordinator: `done` answers queries with its
                // durable verdict; with no trace at all the presumed-abort
                // rule of §2.2.3 applies.
                match env.msg {
                    Msg::QueryOutcome { aid } => [CoordEffect::Send {
                        to: env.from,
                        msg: Msg::Outcome {
                            aid,
                            committed: coord.done,
                        },
                    }]
                    .into(),
                    _ => VecDeque::new(),
                }
            }
        };
        self.run_coord_effects(state, effects, crash_after)
    }

    /// Executes coordinator effects micro-step by micro-step. Returns steps
    /// taken.
    fn run_coord_effects(
        &self,
        state: &mut State,
        mut queue: VecDeque<CoordEffect>,
        crash_after: Option<usize>,
    ) -> usize {
        let mut steps = 0usize;
        while let Some(effect) = queue.pop_front() {
            if crash_after == Some(steps) {
                state.coord.crash();
                return steps;
            }
            steps += 1;
            match effect {
                CoordEffect::Send { to, msg } => state.inflight.push(Envelope {
                    from: COORD,
                    to,
                    msg,
                }),
                CoordEffect::ForceCommitting => {
                    let aid = self.aid;
                    let log = &mut state.coord.log;
                    let machine = state.coord.machine.as_mut().expect("machine forced");
                    // The commit point, published by one force — all of it
                    // or none survives a crash: a participating
                    // coordinator's own prepare, `committing` unless there is
                    // nobody to tell, and its own `committed`.
                    if machine.participates() {
                        log.append_prepared(aid, 0);
                    }
                    if !machine.is_local() {
                        let gids = machine.participants.clone();
                        log.append(LogEntry::Committing {
                            aid,
                            gids,
                            prev: None,
                        });
                    }
                    if machine.participates() {
                        log.append(LogEntry::Committed { aid, prev: None });
                    }
                    queue.extend(machine.committing_forced());
                }
                CoordEffect::ForceDone => state.coord.done_buffered = true,
                CoordEffect::Finished { committed } => {
                    state.coord.finished = Some(committed);
                }
            }
        }
        if crash_after == Some(steps) {
            state.coord.crash();
        }
        steps
    }

    fn deliver_to_part(
        &self,
        state: &mut State,
        env: &Envelope,
        prepare_ok: bool,
        crash_after: Option<usize>,
    ) -> usize {
        let i = (env.to.0 - 1) as usize;
        if !state.parts[i].up {
            return 0;
        }
        let part = &mut state.parts[i];
        let effects: VecDeque<PartEffect> = match (&mut part.machine, &env.msg) {
            (Some(machine), msg) => machine.on_msg(msg).into(),
            (None, Msg::Prepare { aid }) => {
                match part.log.recovered_pstate(*aid) {
                    // Fresh participant: start the protocol.
                    None if part.resolved.is_none() => {
                        let (machine, effects) = Participant::on_prepare(*aid, env.from);
                        part.machine = Some(machine);
                        effects.into()
                    }
                    // A resolved or restarted participant re-votes from its
                    // durable state (§2.2.2: an unknown action is refused).
                    Some(argus_core::PState::Committed) => [PartEffect::Send {
                        to: env.from,
                        msg: Msg::PrepareOk { aid: *aid },
                    }]
                    .into(),
                    _ => [PartEffect::Send {
                        to: env.from,
                        msg: Msg::PrepareRefused { aid: *aid },
                    }]
                    .into(),
                }
            }
            // Verdicts for a machine-less participant: re-acknowledge from
            // the durable verdict so a re-sent commit/abort converges.
            (None, Msg::Commit { aid }) => match part.log.recovered_pstate(*aid) {
                Some(argus_core::PState::Committed) => [PartEffect::Send {
                    to: env.from,
                    msg: Msg::CommitAck { aid: *aid },
                }]
                .into(),
                _ => VecDeque::new(),
            },
            (None, Msg::Abort { aid }) => match part.log.recovered_pstate(*aid) {
                Some(argus_core::PState::Aborted) | None => [PartEffect::Send {
                    to: env.from,
                    msg: Msg::AbortAck { aid: *aid },
                }]
                .into(),
                _ => VecDeque::new(),
            },
            (None, _) => VecDeque::new(),
        };
        self.run_part_effects(state, i, effects, prepare_ok, crash_after)
    }

    /// Executes participant effects micro-step by micro-step.
    fn run_part_effects(
        &self,
        state: &mut State,
        i: usize,
        mut queue: VecDeque<PartEffect>,
        prepare_ok: bool,
        crash_after: Option<usize>,
    ) -> usize {
        let aid = self.aid;
        let mut steps = 0usize;
        while let Some(effect) = queue.pop_front() {
            if crash_after == Some(steps) {
                state.parts[i].up = false;
                state.parts[i].machine = None;
                state.parts[i].resolved = None;
                return steps;
            }
            steps += 1;
            let part = &mut state.parts[i];
            match effect {
                PartEffect::Send { to, msg } => state.inflight.push(Envelope {
                    from: GuardianId(i as u32 + 1),
                    to,
                    msg,
                }),
                PartEffect::PrepareLocally => {
                    let machine = part.machine.as_mut().expect("machine preparing");
                    if prepare_ok {
                        // The local prepare, forced.
                        part.log.append_prepared(aid, i as u64);
                        queue.extend(machine.prepare_succeeded());
                    } else {
                        // Refusal: nothing reaches the log.
                        queue.extend(machine.prepare_failed());
                        part.resolved = Some(false);
                    }
                }
                PartEffect::ForceCommit => {
                    part.log.append(LogEntry::Committed { aid, prev: None });
                    let machine = part.machine.as_mut().expect("machine resolving");
                    queue.extend(machine.commit_forced());
                }
                PartEffect::ForceAbort => {
                    part.log.append(LogEntry::Aborted { aid, prev: None });
                    let machine = part.machine.as_mut().expect("machine resolving");
                    queue.extend(machine.abort_forced());
                }
                PartEffect::Finished { committed } => {
                    part.resolved = Some(committed);
                }
            }
        }
        if crash_after == Some(steps) {
            state.parts[i].up = false;
            state.parts[i].machine = None;
            state.parts[i].resolved = None;
        }
        steps
    }

    // ---- restart ---------------------------------------------------------

    /// Restarts the coordinator: rebuild the CT from the log, resume phase
    /// two if a `committing` record survives (§2.2.3), presume abort
    /// otherwise.
    fn restart_coord(&self, mut state: State) -> State {
        state.record("restart coordinator".to_string());
        state.coord.up = true;
        match state.coord.log.recovered_cstate(self.aid) {
            Some((true, _)) => {
                state.coord.done = true;
                state.coord.machine = None;
                state.coord.finished = Some(true);
            }
            Some((false, gids)) => {
                let (machine, effects) = Coordinator::resume_committing(self.aid, gids);
                state.coord.machine = Some(machine);
                for effect in effects {
                    if let CoordEffect::Send { to, msg } = effect {
                        state.inflight.push(Envelope {
                            from: COORD,
                            to,
                            msg,
                        });
                    }
                }
            }
            None => {
                // No coordinator trace: the action is forgotten and queries
                // get "aborted" — unless it committed locally, which
                // recovery sees as an ordinary committed participant.
                state.coord.machine = None;
                state.coord.done = false;
                if state.coord.log.has_committed(self.aid) {
                    state.coord.finished = Some(true);
                }
            }
        }
        state
    }

    /// Restarts a participant: rebuild the PT from the log; an in-doubt
    /// prepare resumes by querying the coordinator (§2.2.2).
    fn restart_part(&self, mut state: State, i: usize) -> State {
        state.record(format!("restart participant {}", i + 1));
        state.parts[i].up = true;
        match state.parts[i].log.recovered_pstate(self.aid) {
            Some(argus_core::PState::Prepared) => {
                let (machine, effects) = Participant::resume_in_doubt(self.aid, COORD);
                state.parts[i].machine = Some(machine);
                for effect in effects {
                    if let PartEffect::Send { to, msg } = effect {
                        state.inflight.push(Envelope {
                            from: GuardianId(i as u32 + 1),
                            to,
                            msg,
                        });
                    }
                }
            }
            Some(argus_core::PState::Committed) => {
                state.parts[i].machine = None;
                state.parts[i].resolved = Some(true);
            }
            Some(argus_core::PState::Aborted) => {
                state.parts[i].machine = None;
                state.parts[i].resolved = Some(false);
            }
            None => {
                state.parts[i].machine = None;
                state.parts[i].resolved = None;
            }
        }
        state
    }

    // ---- quiescent recovery ----------------------------------------------

    /// When the network is quiet, the timeout-driven moves fire: a preparing
    /// coordinator aborts unilaterally, a committing/aborting coordinator
    /// re-sends its verdict to the participants it is still awaiting, and an
    /// in-doubt participant re-queries the coordinator.
    fn quiesce(&self, mut state: State) -> State {
        state.record("quiesce (timeout moves fire)".to_string());
        if state.coord.up && !state.coord.start_pending {
            if let Some(machine) = &mut state.coord.machine {
                match machine.phase() {
                    CoordPhase::Preparing => {
                        let effects: VecDeque<CoordEffect> = machine.abort_unilaterally().into();
                        self.run_coord_effects(&mut state, effects, None);
                    }
                    CoordPhase::Committing | CoordPhase::Aborting => {
                        let verdict_commit = machine.phase() == CoordPhase::Committing;
                        for to in machine.awaiting() {
                            state.inflight.push(Envelope {
                                from: COORD,
                                to,
                                msg: if verdict_commit {
                                    Msg::Commit { aid: self.aid }
                                } else {
                                    Msg::Abort { aid: self.aid }
                                },
                            });
                        }
                    }
                    _ => {}
                }
            }
        }
        for i in 0..state.parts.len() {
            let in_doubt = state.parts[i]
                .machine
                .as_ref()
                .is_some_and(|m| m.phase() == PartPhase::Prepared);
            if state.parts[i].up && in_doubt {
                state.inflight.push(Envelope {
                    from: GuardianId(i as u32 + 1),
                    to: COORD,
                    msg: Msg::QueryOutcome { aid: self.aid },
                });
            }
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_exploration_is_clean_and_deterministic() {
        let cfg = ExploreConfig {
            participants: 2,
            coordinator_participates: false,
            max_crashes: 1,
            max_drops: 0,
            max_states: 50_000,
            allow_refusal: false,
            eager_restarts: false,
        };
        let a = Explorer::new(cfg).run();
        a.assert_ok();
        assert!(a.stats.states_visited > 10);
        assert!(a.stats.terminal_states > 0);
        let b = Explorer::new(cfg).run();
        assert_eq!(a.stats.states_visited, b.stats.states_visited);
        assert_eq!(a.stats.dedup_pruned, b.stats.dedup_pruned);
    }

    #[test]
    fn eight_participant_exploration_is_clean() {
        // Sharded-world scale: a coordinator fanning out to 8 participants
        // (the E21 world's typical cross-shard spread) with a crash budget.
        // The state cap bounds the run; hitting it is coverage, not failure.
        let cfg = ExploreConfig {
            participants: 8,
            coordinator_participates: false,
            max_crashes: 1,
            max_drops: 0,
            max_states: 150_000,
            allow_refusal: true,
            eager_restarts: false,
        };
        let report = Explorer::new(cfg).run();
        report.assert_ok();
        assert!(report.stats.terminal_states > 0);
    }

    #[test]
    fn a_local_action_is_all_or_nothing_under_every_crash() {
        // No participants: the coordinator commits locally in one forced
        // step. Every crash point around that step must leave the action
        // either durable and acknowledged, or invisible.
        let cfg = ExploreConfig {
            participants: 0,
            coordinator_participates: true,
            max_crashes: 2,
            max_drops: 0,
            max_states: 10_000,
            allow_refusal: false,
            eager_restarts: true,
        };
        let report = Explorer::new(cfg).run();
        report.assert_ok();
        assert_eq!(report.stats.depth_limited, 0, "space must be exhausted");
        assert!(report.stats.crash_points > 0);
        assert_eq!(report.stats.deliveries, 0, "a local commit sends nothing");
    }

    #[test]
    fn a_two_guardian_commit_is_four_messages_and_three_forced_steps() {
        let mut ex = Explorer::new(ExploreConfig {
            participants: 1,
            coordinator_participates: true,
            allow_refusal: false,
            ..ExploreConfig::default()
        });
        let mut state = ex.start(ex.initial_state(), None).0;
        for _ in 0..4 {
            // Prepare, PrepareOk, Commit, CommitAck — none of them to self.
            assert_eq!(state.inflight.len(), 1);
            state = ex.deliver(state, 0, true, None).0;
            ex.check_state(&state);
        }
        assert!(state.inflight.is_empty());
        assert_eq!(state.coord.finished, Some(true));
        // Home: data, prepared, committing, committed — one step. The
        // participant: data + prepared, then committed.
        let kinds = |log: &ModelLog| -> Vec<&'static str> {
            log.entries.iter().map(|(_, e)| e.name()).collect()
        };
        assert_eq!(
            kinds(&state.coord.log),
            ["data", "prepared", "committing", "committed"]
        );
        assert_eq!(
            kinds(&state.parts[0].log),
            ["data", "prepared", "committed"]
        );
        assert!(ex.violations.is_empty(), "{:?}", ex.violations);

        // The check is not vacuous: a commit point split by a crash — home's
        // `prepared` durable without its verdict — is reported.
        let mut split = ex.start(ex.initial_state(), None).0;
        split.coord.log.append_prepared(ex.aid, 0);
        ex.check_state(&split);
        assert!(
            ex.violations.iter().any(|v| v.starts_with("[DOUBT]")),
            "{:?}",
            ex.violations
        );
        for v in &ex.violations {
            let _ = std::fs::remove_file(dumped_schedule(v));
        }
    }

    /// The flight dump a violation's text names.
    fn dumped_schedule(violation: &str) -> std::path::PathBuf {
        let marker = " [schedule: ";
        let start = violation.find(marker).expect("violation names the dump") + marker.len();
        std::path::PathBuf::from(&violation[start..violation.len() - 1])
    }

    #[test]
    fn a_lost_done_restarts_phase_two_and_terminates() {
        // The schedule the unforced `done` adds: every acknowledgement is
        // in, `done` is buffered, the coordinator crashes. Restart must find
        // `committing`, re-send the commits, be re-acknowledged and finish.
        let mut ex = Explorer::new(ExploreConfig {
            participants: 1,
            allow_refusal: false,
            ..ExploreConfig::default()
        });
        let mut state = ex.initial_state();
        state = ex.start(state, None).0;
        for _ in 0..4 {
            // Prepare, PrepareOk, Commit, CommitAck.
            assert_eq!(state.inflight.len(), 1);
            state = ex.deliver(state, 0, true, None).0;
        }
        assert_eq!(state.coord.finished, Some(true));
        assert!(state.coord.done_buffered && !state.coord.done);
        state.coord.crash();
        let mut state = ex.restart_coord(state);
        let resumed = state.coord.machine.as_ref().expect("phase two resumes");
        assert_eq!(resumed.phase(), CoordPhase::Committing);
        for _ in 0..2 {
            // Commit again, and the re-acknowledgement from the durable verdict.
            assert_eq!(state.inflight.len(), 1);
            state = ex.deliver(state, 0, true, None).0;
        }
        assert!(state.inflight.is_empty() && state.coord.done_buffered);
        ex.check_state(&state);
        assert!(ex.violations.is_empty(), "{:?}", ex.violations);
    }

    #[test]
    fn refusal_schedules_abort_cleanly() {
        let cfg = ExploreConfig {
            participants: 2,
            coordinator_participates: false,
            max_crashes: 0,
            max_drops: 0,
            max_states: 50_000,
            allow_refusal: true,
            eager_restarts: false,
        };
        let report = Explorer::new(cfg).run();
        report.assert_ok();
        assert!(report.stats.terminal_states > 0);
    }

    #[test]
    fn a_violation_dumps_the_failing_schedule() {
        // A hand-built bad state (a participant committed with no
        // coordinator commit point) must trip A1 and leave a schedule dump
        // whose path the violation text names.
        let mut ex = Explorer::new(ExploreConfig {
            participants: 1,
            ..ExploreConfig::default()
        });
        let mut state = ex.start(ex.initial_state(), None).0;
        state.record("deliver prepare 0->1".to_string());
        state.parts[0].log.append(LogEntry::Committed {
            aid: ex.aid,
            prev: None,
        });
        ex.check_state(&state);
        assert!(!ex.violations.is_empty());
        let path = dumped_schedule(&ex.violations[0]);
        assert!(path.exists(), "flight dump {} missing", path.display());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("deliver prepare 0->1"));
        assert!(text.contains("violation(s) at this state"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn eager_restart_schedules_are_clean() {
        // Eager restarts race recovery against stale in-flight messages —
        // the schedule class that exposed the stale-vote bug (an in-doubt
        // query answered "aborted" while the pre-crash vote was still in
        // flight, letting the coordinator commit afterwards). With the
        // coordinator fixed this must exhaust with zero violations.
        let cfg = ExploreConfig {
            participants: 1,
            coordinator_participates: false,
            max_crashes: 2,
            max_drops: 1,
            max_states: 50_000,
            allow_refusal: true,
            eager_restarts: true,
        };
        let report = Explorer::new(cfg).run();
        report.assert_ok();
        assert_eq!(report.stats.depth_limited, 0, "space must be exhausted");
        assert!(report.stats.crash_points > 0);
        assert!(report.stats.terminal_states > 0);
    }
}
