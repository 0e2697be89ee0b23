//! The bounded 2PC interleaving explorer.
//!
//! A deterministic DFS over real [`Guardian`]s — the code `argus-guardian`'s
//! `World` runs, driven through [`Guardian::step`] — each over its own
//! memory store and the real recovery system [`ExploreConfig::kind`] names.
//! Guardian 0 coordinates one action that ran at every guardian, its own
//! included, as `World` builds it. The explorer enumerates every message
//! reordering, message drop, crash and restart up to a configurable budget,
//! and checks atomicity at every reachable state:
//!
//! * **A1** — a participant only logs `committed` after the coordinator
//!   logged `committing` (the commit point, §2.2.1); the client is told
//!   "committed" only with home's `committed` durable; and home's
//!   `committed` and `committing` are durable together or not at all.
//! * **A2** — no two guardians resolve the action differently: a `committed`
//!   record at one and an `aborted` record at another is the canonical
//!   atomicity violation.
//! * **A3** — every guardian's log passes the static linter
//!   ([`crate::lint_log`]) at every reachable state, crash states included.
//!   Shadowing's `dump_log` is `None`: it skips A3, as [`crate::standing`] does.
//! * **A4** — past the commit point nobody aborts: a `committing` record and
//!   an `aborted` record (or a client told "aborted") never coexist.
//! * **DOUBT** — no guardian is ever in doubt about an action it coordinates:
//!   home's `prepared` is never durable without the verdict.
//! * **SELF** — no message is ever addressed to its sender.
//! * **TERM** — in every quiescent terminal state an in-doubt participant's
//!   query is answered, and the coordinator's timer re-sends `Commit` to
//!   every participant it still awaits, so no party waits forever.
//!
//! A move is one input to one guardian's step — a delivery, the commit
//! request, the coordinator's timeout while it is still preparing and the
//! network is quiet (as `World::settle` fires it), the timer's re-query of
//! every in-doubt participant and re-send of a committing coordinator — or
//! a guardian's [`Guardian::force`] with the continuations it returns, a
//! crash, a restart through [`Guardian::restart`] (the function
//! `World::restart` calls), or a drop. What a step stages is durable only
//! once its guardian forces it, so a crash in between loses it. A
//! participant refuses its prepare by aborting the action on its own
//! ([`Guardian::abort_unprepared`]) just before the `Prepare` arrives, which
//! then finds it unknown (§2.2.2). The coordinator's `done` waits for a
//! force only a later action would bring: here a crash loses it, or it
//! stays staged. Durable facts are what the organization's `recover`
//! rebuilds from the forced records.

use crate::image::LogImage;
use crate::lint::lint_log;
use argus_core::providers::MemProvider;
use argus_core::{
    HybridLogRs, LogFormat, LogRs, PState, RecoverySystem, RedoRs, RsResult, SimpleLogRs,
};
use argus_guardian::{Effects, Guardian, Input, RsKind, Touch, WorldResult};
use argus_objects::{ActionId, GuardianId, Heap, Value};
use argus_obs::Count;
use argus_shadow::ShadowRs;
use argus_twopc::{CoordPhase, Envelope, Msg, PartPhase};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// The log under every organization the explorer runs.
type MemLog = argus_slog::StableLog<argus_stable::MemStore>;

/// Exploration budgets.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// The organization every guardian's recovery system is.
    pub kind: RsKind,
    /// Number of participant guardians besides the coordinator's. Zero
    /// makes the action local: the coordinator's guardian is its only
    /// participant.
    pub participants: usize,
    /// How many crashes may be injected along one schedule.
    pub max_crashes: u32,
    /// How many messages may be dropped along one schedule.
    pub max_drops: u32,
    /// Hard cap on distinct states visited; hitting it is reported in
    /// [`ExploreStats::depth_limited`], not an error.
    pub max_states: usize,
    /// Whether a participant may refuse the prepare (exercises the abort
    /// side of the protocol).
    pub allow_refusal: bool,
    /// Whether a crashed guardian may restart while messages are still in
    /// flight. Eager restarts race recovery against stale traffic — the
    /// schedule class that exposed the stale-vote atomicity bug (a restarted
    /// participant's query answered "aborted" while its pre-crash vote was
    /// still in flight) — but they multiply the state space by orders of
    /// magnitude. When off, guardians restart only once the network is quiet
    /// (always reachable: delivery to a down guardian consumes the message).
    pub eager_restarts: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            kind: RsKind::Hybrid,
            participants: 2,
            max_crashes: 1,
            max_drops: 1,
            max_states: 200_000,
            allow_refusal: true,
            eager_restarts: false,
        }
    }
}

/// Coverage counters for one exploration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreStats {
    /// Distinct states visited.
    pub states_visited: u64,
    /// Successor states pruned because they were already visited.
    pub dedup_pruned: u64,
    /// Crashes injected.
    pub crash_points: u64,
    /// Messages delivered.
    pub deliveries: u64,
    /// Messages dropped.
    pub drops: u64,
    /// Quiescent terminal states reached.
    pub terminal_states: u64,
    /// Per-log lints run.
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
    /// Whether every reachable state satisfied every check.
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

// ---- the explored state ---------------------------------------------------

/// An organization the explorer runs: a recovery system over one memory
/// store, cloned with its guardian whenever a move steps it.
trait Org: RecoverySystem + Clone {
    /// The log on the store: everything the organization keeps durably.
    fn log(&self) -> &MemLog;
}

impl<F: LogFormat + Clone> Org for LogRs<MemProvider, F>
where
    F::Pass: Clone,
{
    fn log(&self) -> &MemLog {
        LogRs::log(self)
    }
}

impl Org for ShadowRs<MemProvider> {
    fn log(&self) -> &MemLog {
        ShadowRs::log(self)
    }
}

/// One guardian and the digest of its store, taken when a move last
/// stepped it: hashes of its forced records' payloads and of its staged ones'.
#[derive(Debug, Clone)]
struct Node<R> {
    g: Guardian<R>,
    digest: [u64; 2],
}

impl<R: Org> Node<R> {
    /// A copy of `rs`'s log forces what is staged and walks back over every
    /// record, hashing the newest `staged` of them apart from the rest —
    /// payloads only: a frame carries the log's epoch, which a restart bumps.
    fn digest(rs: &R) -> [u64; 2] {
        let mut log = rs.log().clone();
        let staged = log.pending_count();
        log.force().expect("a memory log forces");
        let mut h = [DefaultHasher::new(), DefaultHasher::new()];
        let (mut walk, mut n) = (log.walk_backward(None), 0);
        while let Some(entry) = walk.next_entry() {
            let (_, _, payload) = entry.expect("a memory log reads back");
            payload.hash(&mut h[usize::from(n < staged)]);
            n += 1;
        }
        h.map(|h| h.finish())
    }
}

/// `x` hashed with [`DefaultHasher`], which is deterministic: it is built
/// with fixed keys, never seeded.
fn hash_of(x: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// One step of the schedule that produced a state, as a singly linked list
/// shared structurally between a state and its successors. This is the
/// flight recorder's raw material: when a violation is found the chain is
/// unwound into the exact schedule that reaches it.
#[derive(Debug)]
struct PathNode {
    step: String,
    prev: Option<Rc<PathNode>>,
}

/// One global state of the protocol. Guardians sit behind an [`Rc`]: a
/// successor shares every guardian its move did not step.
#[derive(Debug, Clone)]
struct State<R> {
    nodes: Vec<Rc<Node<R>>>,
    inflight: Vec<Envelope>,
    /// The client's commit request reached the coordinator, or died with it.
    started: bool,
    /// The client's answer: the verdict the coordinator last reported.
    verdict: Option<bool>,
    crashes_left: u32,
    drops_left: u32,
    /// The schedule that produced this state. Deliberately excluded from
    /// [`State::fingerprint`]: two schedules reaching the same protocol
    /// state are the same state, and the first one to arrive keeps its
    /// history for the flight recorder.
    path: Option<Rc<PathNode>>,
}

impl<R: Org> State<R> {
    /// A canonical fingerprint: each guardian's protocol state for `aid`
    /// and its store's digest, and the in-flight multiset (order-
    /// insensitive). It must cover every field that steers a later step: a
    /// finer one costs states, never soundness. The heap and the recovery
    /// system's volatile tables follow from the machines and the log.
    fn fingerprint(&self, aid: ActionId) -> u64 {
        let mut h = DefaultHasher::new();
        for node in &self.nodes {
            let g = &node.g;
            (g.is_up(), g.knows(aid), g.has_staged()).hash(&mut h);
            (g.coordinator(aid), g.participant(aid), node.digest).hash(&mut h);
        }
        let mut envs: Vec<u64> = self.inflight.iter().map(hash_of).collect();
        envs.sort_unstable();
        envs.hash(&mut h);
        (self.started, self.verdict).hash(&mut h);
        (self.crashes_left, self.drops_left).hash(&mut h);
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

    /// Whether nothing is in flight and no up guardian waits on a force:
    /// where `World` stands when it times out a coordinator or re-queries.
    fn quiet(&self) -> bool {
        let staged = |node: &Rc<Node<R>>| node.g.is_up() && node.g.has_staged();
        self.inflight.is_empty() && !self.nodes.iter().any(staged)
    }

    /// `n` runs `f`, its store is digested again, and what it asks for is
    /// applied: mail goes out and a verdict becomes the client's answer.
    fn step(
        &mut self,
        n: usize,
        f: impl FnOnce(&mut Guardian<R>, &mut Effects) -> WorldResult<()>,
    ) {
        let mut fx = Effects::default();
        let node = Rc::make_mut(&mut self.nodes[n]);
        f(&mut node.g, &mut fx).expect("a guardian over a memory store does not fail");
        node.digest = Node::digest(node.g.recovery_system());
        self.inflight.append(&mut fx.send);
        if let Some((_, committed)) = fx.resolved {
            self.verdict = Some(committed);
        }
    }
}

/// What a log says durably about the action, read through recovery, and
/// whether it lints clean.
#[derive(Debug, Clone)]
struct Facts {
    pstate: Option<PState>,
    committing: bool,
    lint: Vec<String>,
}

impl Facts {
    fn committed(&self) -> bool {
        self.pstate == Some(PState::Committed)
    }

    fn aborted(&self) -> bool {
        self.pstate == Some(PState::Aborted)
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
    /// Facts keyed by forced-records digest: logs repeat across millions of
    /// interleavings, so each distinct log is recovered and linted once.
    facts: HashMap<u64, Facts>,
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
            facts: HashMap::new(),
        }
    }

    /// Runs the DFS to exhaustion (or the state cap) and reports.
    pub fn run(self) -> ExploreReport {
        let mem = MemProvider::fast();
        match self.cfg.kind {
            RsKind::Simple => self.explore(SimpleLogRs::create(mem)),
            RsKind::Hybrid => self.explore(HybridLogRs::create(mem)),
            RsKind::Shadow => self.explore(ShadowRs::create(mem)),
            RsKind::Redo => self.explore(RedoRs::create(mem)),
        }
    }

    fn explore<R: Org>(mut self, fresh: RsResult<R>) -> ExploreReport {
        let root = self.initial_state(&fresh.expect("a memory log formats"));
        let mut visited = HashSet::from([root.fingerprint(self.aid)]);
        let mut stack = vec![root];
        while let Some(state) = stack.pop() {
            self.stats.states_visited += 1;
            self.check_state(&state);
            if visited.len() >= self.cfg.max_states {
                self.stats.depth_limited += 1;
                continue;
            }
            for next in self.successors(&state) {
                if visited.insert(next.fingerprint(self.aid)) {
                    stack.push(next);
                } else {
                    self.stats.dedup_pruned += 1;
                }
            }
        }
        let (obs, s) = (argus_obs::current(), &self.stats);
        obs.add(Count::CheckExploreStatesVisited, s.states_visited);
        obs.add(Count::CheckExploreDedupPruned, s.dedup_pruned);
        obs.add(Count::CheckExploreCrashPoints, s.crash_points);
        obs.add(Count::CheckExploreDeliveries, s.deliveries);
        obs.add(Count::CheckExploreDrops, s.drops);
        obs.add(Count::CheckExploreTerminalStates, s.terminal_states);
        obs.add(Count::CheckExploreLintRuns, s.lint_runs);
        obs.add(Count::CheckExploreDepthLimited, s.depth_limited);
        ExploreReport {
            stats: self.stats,
            violations: self.violations,
        }
    }

    /// Every guardian up, the action written at each, nothing committed.
    fn initial_state<R: Org>(&self, fresh: &R) -> State<R> {
        let nodes = (0..=self.cfg.participants).map(|n| {
            let mut g = Guardian::over(GuardianId(n as u32), Box::new(fresh.clone()));
            let root = g.heap.stable_root().expect("a fresh guardian has its root");
            let write = Touch::Write(|v: &mut Value| *v = Value::Int(n as i64));
            g.touch(self.aid, root, write)
                .expect("the action writes at every guardian");
            let digest = Node::digest(g.recovery_system());
            Rc::new(Node { g, digest })
        });
        State {
            nodes: nodes.collect(),
            inflight: Vec::new(),
            started: false,
            verdict: None,
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

    fn check_state<R: Org>(&mut self, state: &State<R>) {
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

    /// What `node`'s store holds durably about the action: its forced
    /// records recovered and linted, once per distinct digest.
    fn facts<R: Org>(&mut self, node: &Node<R>) -> Facts {
        if let Some(facts) = self.facts.get(&node.digest[0]) {
            return facts.clone();
        }
        let mut rs = node.g.recovery_system().clone();
        rs.simulate_crash().expect("a memory log reopens");
        let outcome = rs.recover(&mut Heap::new()).expect("a memory log recovers");
        let records = rs.dump_log().expect("a memory log reads back");
        self.stats.lint_runs += u64::from(records.is_some());
        let report = records.map(|records| lint_log(&LogImage::from_entries(records)));
        let lint = report.map(|r| r.violations.iter().map(|v| v.to_string()).collect());
        let facts = Facts {
            pstate: outcome.pt.get(self.aid),
            committing: outcome.ct.get(self.aid).is_some(),
            lint: lint.unwrap_or_default(),
        };
        self.facts.insert(node.digest[0], facts.clone());
        facts
    }

    fn check_state_inner<R: Org>(&mut self, state: &State<R>) {
        let facts: Vec<Facts> = state.nodes.iter().map(|n| self.facts(n)).collect();
        let home = &facts[0];
        // A1: a committed participant implies a logged commit point.
        for (i, f) in facts.iter().enumerate().skip(1) {
            if f.committed() && !home.committing {
                let detail = format!("participant {i} committed without a committing record");
                self.violation("A1", detail);
            }
        }
        // Home's records reach the log in the commit point's one force, so
        // what can go wrong there is the client's answer, a split of that
        // force, and a disagreement with the other participants.
        match state.verdict {
            Some(true) if !home.committed() => self.violation(
                "A1",
                "acknowledged committed without a durable committed record at home".into(),
            ),
            Some(false) if home.committed() => {
                self.violation("A4", "reported aborted after the commit point".into())
            }
            _ => {}
        }
        if self.cfg.participants > 0 && home.committed() != home.committing {
            let detail = "home's committed and committing records are not durable together";
            self.violation("A1", detail.into());
        }
        if home.pstate == Some(PState::Prepared) {
            let detail = "the coordinator's guardian is in doubt about its own action: the commit point's one force was split";
            self.violation("DOUBT", detail.into());
        }
        if let Some(e) = state.inflight.iter().find(|e| e.from == e.to) {
            let detail = format!("guardian {} mailed itself a {}", e.to.0, e.msg.kind());
            self.violation("SELF", detail);
        }
        // A2: no mixed verdicts across logs.
        let committed = facts.iter().position(Facts::committed);
        if let (Some(c), Some(a)) = (committed, facts.iter().position(Facts::aborted)) {
            let detail = format!("guardian {c} committed while guardian {a} aborted");
            self.violation("A2", detail);
        }
        // A4: past the commit point nobody aborts. A participant only forces
        // `aborted` on instruction, and abort instructions (verdicts,
        // presumed-abort answers) are only issued before the coordinator
        // forces `committing`.
        if home.committing {
            if let Some(i) = facts.iter().position(Facts::aborted) {
                let detail = format!("guardian {i} aborted after the commit point");
                self.violation("A4", detail);
            }
        }
        // A3: every log lints clean.
        for (i, f) in facts.iter().enumerate().filter(|(_, f)| !f.lint.is_empty()) {
            let detail = f.lint.join("; ");
            self.violation("A3", format!("guardian {i} log fails lint: {detail}"));
        }
        self.check_termination(state);
    }

    /// TERM. A state is terminal when every guardian is up and nothing is
    /// in flight, staged, unstarted or left for the timeout: the timer is
    /// the one move left, and it must get an in-doubt participant an answer
    /// and every participant the coordinator awaits a `Commit`.
    fn check_termination<R: Org>(&mut self, state: &State<R>) {
        let all_up = state.nodes.iter().all(|n| n.g.is_up());
        let coordinator = state.nodes[0].g.coordinator(self.aid);
        let preparing = coordinator.map(|c| c.phase());
        if !(all_up && state.quiet() && state.started && preparing != Some(CoordPhase::Preparing)) {
            return;
        }
        self.stats.terminal_states += 1;
        let awaiting = coordinator.map(|c| c.awaiting()).unwrap_or_default();
        let mut resent = state.clone();
        resent.step(0, |g, fx| g.step(Input::Requery, fx));
        for to in awaiting {
            let commit = |e: &Envelope| e.to == to && matches!(e.msg, Msg::Commit { .. });
            if !resent.inflight.iter().any(commit) {
                let detail = format!("terminal state leaves the coordinator awaiting {to:?}");
                self.violation("TERM", detail);
            }
        }
        for (i, node) in state.nodes.iter().enumerate() {
            let in_doubt = node.g.participant(self.aid).map(|p| p.phase());
            if in_doubt != Some(PartPhase::Prepared) {
                continue;
            }
            let mut asked = state.clone();
            asked.step(i, |g, fx| g.step(Input::Requery, fx));
            for query in std::mem::take(&mut asked.inflight) {
                asked.step(0, |coord, fx| coord.step(Input::Message(query), fx));
            }
            if !asked.inflight.iter().any(|answer| answer.to.0 == i as u32) {
                let detail = format!("terminal state leaves participant {i} prepared forever");
                self.violation("TERM", detail);
            }
        }
    }

    // ---- successor generation --------------------------------------------

    /// `state` after guardian `n` runs `f`, with the move recorded.
    fn after<R: Org>(
        state: &State<R>,
        n: usize,
        step: String,
        f: impl FnOnce(&mut Guardian<R>, &mut Effects) -> WorldResult<()>,
    ) -> State<R> {
        let mut next = state.clone();
        next.record(step);
        next.step(n, f);
        next
    }

    fn successors<R: Org>(&mut self, state: &State<R>) -> Vec<State<R>> {
        let aid = self.aid;
        let mut out = Vec::new();
        // The client asks the coordinator to commit.
        if !state.started && state.nodes[0].g.is_up() {
            let gids = (0..state.nodes.len() as u32).map(GuardianId).collect();
            let mut next = Self::after(state, 0, "commit".into(), |g, fx| {
                g.step(Input::Commit(aid, gids), fx)
            });
            next.started = true;
            out.push(next);
        }
        // Deliveries (every reordering; this is where the fan-out lives). A
        // delivery to a down guardian consumes the message.
        for idx in 0..state.inflight.len() {
            self.stats.deliveries += 1;
            let mut rest = state.clone();
            let env = rest.inflight.remove(idx);
            let (to, label) = (env.to.0 as usize, Self::label("deliver", &env));
            // A participant that would prepare may refuse: it aborts the
            // action on its own, and the `Prepare` finds it unknown.
            let g = &state.nodes[to].g;
            let prepares = matches!(env.msg, Msg::Prepare { .. }) && g.participant(aid).is_none();
            if self.cfg.allow_refusal && to != 0 && prepares && g.knows(aid) {
                let refusal = format!("{label} vote=refuse");
                out.push(Self::after(&rest, to, refusal, |g, fx| {
                    g.abort_unprepared(aid);
                    g.step(Input::Message(env.clone()), fx)
                }));
            }
            rest.record(label);
            rest.step(to, |g, fx| g.step(Input::Message(env), fx));
            out.push(rest);
        }
        // A guardian forces what it staged, and each continuation runs.
        for (n, node) in state.nodes.iter().enumerate() {
            if node.g.is_up() && node.g.has_staged() {
                out.push(Self::after(state, n, format!("force {n}"), |g, fx| {
                    g.force(fx)?
                        .into_iter()
                        .try_for_each(|(op, _)| g.step(Input::Forced(op), fx))
                }));
            }
        }
        // The network is quiet: the timeout gives up on a coordinator still
        // preparing (§2.2.1), and the timer has in-doubt participants query
        // again (§2.2.2) and a committing coordinator re-send (§2.2.3).
        if state.quiet() {
            let coordinator = state.nodes[0].g.coordinator(aid);
            if coordinator.is_some_and(|c| c.phase() == CoordPhase::Preparing) {
                let step = |g: &mut Guardian<R>, fx: &mut Effects| g.step(Input::Timeout(aid), fx);
                out.push(Self::after(state, 0, "timeout".into(), step));
            }
            let in_doubt = |node: &Rc<Node<R>>| {
                let phase = node.g.participant(aid).map(|p| p.phase());
                node.g.is_up() && phase == Some(PartPhase::Prepared)
            };
            let committing = coordinator.is_some_and(|c| c.phase() == CoordPhase::Committing);
            if (committing && state.nodes[0].g.is_up()) || state.nodes.iter().any(in_doubt) {
                let mut next = state.clone();
                next.record("requery".into());
                for n in 0..next.nodes.len() {
                    next.step(n, |g, fx| g.step(Input::Requery, fx));
                }
                out.push(next);
            }
        }
        if state.drops_left > 0 {
            for idx in 0..state.inflight.len() {
                let mut next = state.clone();
                let env = next.inflight.remove(idx);
                next.record(Self::label("drop", &env));
                next.drops_left -= 1;
                self.stats.drops += 1;
                out.push(next);
            }
        }
        for (n, node) in state.nodes.iter().enumerate() {
            if state.crashes_left > 0 && node.g.is_up() {
                let mut next = state.clone();
                next.record(format!("crash {n}"));
                Rc::make_mut(&mut next.nodes[n]).g.crashed();
                // An unstarted commit request dies with the coordinator.
                next.started |= n == 0;
                next.crashes_left -= 1;
                self.stats.crash_points += 1;
                out.push(next);
            }
            // By default a guardian comes back only once the network is
            // quiet; with `eager_restarts` recovery races the stale
            // in-flight traffic too.
            let restartable = self.cfg.eager_restarts || state.inflight.is_empty();
            if restartable && !node.g.is_up() {
                out.push(Self::after(state, n, format!("restart {n}"), |g, fx| {
                    g.restart(fx).map(drop)
                }));
            }
        }
        out
    }

    fn label(what: &str, env: &Envelope) -> String {
        format!("{what} {} {}->{}", env.msg.kind(), env.from.0, env.to.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_core::LogEntry;

    /// The organization the step-by-step tests run: the thesis's own.
    type Hybrid = HybridLogRs<MemProvider>;

    fn fresh() -> Hybrid {
        Hybrid::create(MemProvider::fast()).unwrap()
    }

    fn config(participants: usize, crashes: u32, drops: u32, states: usize) -> ExploreConfig {
        ExploreConfig {
            participants,
            max_crashes: crashes,
            max_drops: drops,
            max_states: states,
            ..ExploreConfig::default()
        }
    }

    /// The successor of `state` whose move is `step`, checked.
    fn take(ex: &mut Explorer, state: &State<Hybrid>, step: &str) -> State<Hybrid> {
        let mut next = ex.successors(state).into_iter();
        let next = next.find(|s| s.path.as_ref().is_some_and(|p| p.step == step));
        let next = next.unwrap_or_else(|| panic!("no move `{step}` from {:?}", state.schedule()));
        ex.check_state(&next);
        next
    }

    /// Runs `steps` from the initial state.
    fn drive(ex: &mut Explorer, steps: &[&str]) -> State<Hybrid> {
        let root = ex.initial_state(&fresh());
        steps
            .iter()
            .fold(root, |state, step| take(ex, &state, step))
    }

    /// A participant's vote is in and the coordinator's commit point is
    /// forced: the first steps of a two-guardian commit.
    const TO_THE_COMMIT_POINT: [&str; 5] = [
        "commit",
        "deliver Prepare 0->1",
        "force 1",
        "deliver PrepareOk 1->0",
        "force 0",
    ];

    /// The rest of it: the commit and its acknowledgement.
    const TO_THE_END: [&str; 3] = ["deliver Commit 0->1", "force 1", "deliver CommitAck 1->0"];

    /// The forced records of `node`'s log, oldest first.
    fn forced(node: &Node<Hybrid>) -> Vec<LogEntry> {
        let mut g = node.g.clone();
        let records = g.dump_log().unwrap().expect("a log organization");
        records.into_iter().map(|(_, e)| e).collect()
    }

    fn kinds(node: &Node<Hybrid>) -> Vec<&'static str> {
        forced(node).iter().map(LogEntry::name).collect()
    }

    /// A guardian over a log holding just the records `write` forces.
    fn planted(
        id: GuardianId,
        write: impl FnOnce(&mut Hybrid) -> RsResult<bool>,
    ) -> Rc<Node<Hybrid>> {
        let mut log = fresh();
        write(&mut log).unwrap();
        log.force_staged().unwrap();
        let g = Guardian::over(id, Box::new(log));
        let digest = Node::digest(g.recovery_system());
        Rc::new(Node { g, digest })
    }

    /// The flight dump a violation's text names.
    fn dumped_schedule(violation: &str) -> std::path::PathBuf {
        let marker = " [schedule: ";
        let start = violation.find(marker).expect("violation names the dump") + marker.len();
        std::path::PathBuf::from(&violation[start..violation.len() - 1])
    }

    #[test]
    fn small_exploration_is_clean_and_deterministic() {
        let cfg = ExploreConfig {
            allow_refusal: false,
            ..config(2, 1, 0, 50_000)
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
        let report = Explorer::new(config(8, 1, 0, 150_000)).run();
        report.assert_ok();
        assert!(report.stats.terminal_states > 0);
    }

    #[test]
    fn a_local_action_is_all_or_nothing_under_every_crash() {
        // No participants: the coordinator commits locally in one forced
        // step. Every crash around that step must leave the action either
        // durable and acknowledged, or invisible.
        let cfg = ExploreConfig {
            allow_refusal: false,
            eager_restarts: true,
            ..config(0, 2, 0, 10_000)
        };
        let report = Explorer::new(cfg).run();
        report.assert_ok();
        assert_eq!(report.stats.depth_limited, 0, "space must be exhausted");
        assert!(report.stats.crash_points > 0);
        assert_eq!(report.stats.deliveries, 0, "a local commit sends nothing");
    }

    #[test]
    fn a_two_guardian_commit_is_four_messages_and_three_forced_steps() {
        let mut ex = Explorer::new(config(1, 1, 0, 1_000));
        let steps = [&TO_THE_COMMIT_POINT[..], &TO_THE_END].concat();
        let state = drive(&mut ex, &steps);
        assert!(state.inflight.is_empty() && state.quiet());
        assert_eq!(state.verdict, Some(true));
        // Home: data, prepared, committing, committed — one force; `done`
        // is staged behind it. The participant: data + prepared, then
        // committed.
        let home = &state.nodes[0];
        assert_eq!(kinds(home), ["data", "prepared", "committing", "committed"]);
        assert_eq!(kinds(&state.nodes[1]), ["data", "prepared", "committed"]);
        assert!(ex.violations.is_empty(), "{:?}", ex.violations);

        // The check is not vacuous: a commit point split by a crash — home's
        // `prepared` durable without its verdict — is reported.
        let mut split = drive(&mut ex, &["commit"]);
        let aid = ex.aid;
        split.nodes[0] = planted(COORD, |log| log.stage_prepare(aid, &[], &Heap::new()));
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

    #[test]
    fn a_lost_done_restarts_phase_two_and_terminates() {
        // Every acknowledgement is in and `done` is staged when the
        // coordinator crashes: restart finds `committing`, re-sends the
        // commit, is re-acknowledged by the participant that forgot the
        // action, and finishes again.
        let mut ex = Explorer::new(config(1, 1, 0, 1_000));
        let steps = [
            &TO_THE_COMMIT_POINT[..],
            &TO_THE_END,
            &["crash 0", "restart 0"],
        ]
        .concat();
        let state = drive(&mut ex, &steps);
        let resumed = state.nodes[0].g.coordinator(ex.aid).map(|c| c.phase());
        assert_eq!(resumed, Some(CoordPhase::Committing));
        let state = take(&mut ex, &state, "deliver Commit 0->1");
        let state = take(&mut ex, &state, "deliver CommitAck 1->0");
        assert!(state.quiet() && state.nodes[0].g.coordinator(ex.aid).is_none());
        assert!(ex.violations.is_empty(), "{:?}", ex.violations);
    }

    #[test]
    fn a_query_inside_the_commit_point_window_is_not_answered() {
        // The participant votes, and the coordinator stages its commit
        // point. The participant crashes, restarts in doubt and queries; the
        // query reaches the coordinator before the force. "Aborted" can no
        // longer be promised and "committed" is not durable yet: no answer.
        // The force then sends the commit.
        let mut ex = Explorer::new(config(1, 1, 0, 1_000));
        let steps = [
            "commit",
            "deliver Prepare 0->1",
            "force 1",
            "deliver PrepareOk 1->0",
            "crash 1",
            "restart 1",
            "deliver QueryOutcome 1->0",
        ];
        let state = drive(&mut ex, &steps);
        assert!(state.inflight.is_empty(), "{:?}", state.inflight);
        assert!(state.nodes[0].g.has_staged());
        let state = take(&mut ex, &state, "force 0");
        let sent: Vec<_> = state
            .inflight
            .iter()
            .map(|e| Explorer::label("", e))
            .collect();
        assert_eq!(sent, [" Commit 0->1"]);
        let state = TO_THE_END
            .iter()
            .fold(state, |s, step| take(&mut ex, &s, step));
        assert_eq!(state.verdict, Some(true));
        assert!(ex.violations.is_empty(), "{:?}", ex.violations);
    }

    #[test]
    fn refusal_schedules_abort_cleanly() {
        let report = Explorer::new(config(2, 0, 0, 50_000)).run();
        report.assert_ok();
        assert!(report.stats.terminal_states > 0);
    }

    #[test]
    fn a_violation_dumps_the_failing_schedule() {
        // A hand-built bad state (a participant committed with no
        // coordinator commit point) must trip A1 and leave a schedule dump
        // whose path the violation text names.
        let mut ex = Explorer::new(config(1, 1, 1, 1_000));
        let mut state = drive(&mut ex, &["commit", "deliver Prepare 0->1"]);
        let aid = ex.aid;
        state.nodes[1] = planted(GuardianId(1), |log| log.stage_commit(aid));
        ex.check_state(&state);
        assert!(ex.violations.iter().any(|v| v.starts_with("[A1]")));
        let path = dumped_schedule(&ex.violations[0]);
        assert!(path.exists(), "flight dump {} missing", path.display());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("deliver Prepare 0->1"));
        assert!(text.contains("violation(s) at this state"));
        let _ = std::fs::remove_file(path);
        assert!(matches!(
            forced(&state.nodes[1]).last(),
            Some(LogEntry::Committed { .. })
        ));
    }

    #[test]
    fn eager_restart_schedules_are_clean() {
        // Eager restarts race recovery against stale in-flight messages —
        // the schedule class that exposed the stale-vote bug (an in-doubt
        // query answered "aborted" while the pre-crash vote was still in
        // flight, letting the coordinator commit afterwards). With the
        // coordinator fixed this must exhaust with zero violations.
        let cfg = ExploreConfig {
            eager_restarts: true,
            ..config(1, 2, 1, 50_000)
        };
        let report = Explorer::new(cfg).run();
        report.assert_ok();
        assert_eq!(report.stats.depth_limited, 0, "space must be exhausted");
        assert!(report.stats.crash_points > 0);
        assert!(report.stats.terminal_states > 0);
    }
}
