//! The static log linter: the invariant catalogue I1–I10.
//!
//! Every invariant is a structural property of the log image alone — no
//! recovery pass, no heap, no device. The catalogue (documented with thesis
//! citations in DESIGN.md):
//!
//! * **I1 well-formed** — every record decodes as a [`LogEntry`] and device
//!   sequence numbers are contiguous from zero (§3.2: the log is an
//!   append-only sequence; a skipped sequence number means a lost record).
//! * **I2 chain terminates** — walking `prev` from the chain head, addresses
//!   strictly decrease and the walk ends at `None` (§4.2: the backward chain
//!   of outcome entries; a cycle or a dangling pointer would hang recovery).
//! * **I3 chain complete** — every entry on the chain is an outcome entry,
//!   and every outcome entry in the log is reachable from the head (§4.3.3:
//!   recovery sees exactly the outcome entries on the chain).
//! * **I4 outcomes matched** — every `committed`/`aborted` has a `prepared`
//!   (or `prepared_data`) for the same action at a lower address (§3.3.2:
//!   a participant logs its prepare before any verdict can arrive).
//! * **I5 verdicts consistent** — no action has both a `committed` and an
//!   `aborted` entry (§2.2.1: the verdict is final).
//! * **I6 coordinator paired** — every `done` has a `committing` at a lower
//!   address (§2.2.1: `done` only after phase two of a logged commit).
//! * **I7 shadow map resolves** — every `(uid, address)` pair in a
//!   `prepared` entry or `committed_ss` checkpoint points at a data entry
//!   at a strictly lower address (§4.2: the distributed shadowing map).
//! * **I8 uids unique** — no uid appears twice within one pair list (§4.3.2:
//!   one version per object per prepare / per checkpoint).
//! * **I9 accessibility closed** — the restorable object set is closed under
//!   references: every uid reachable from a restored value is itself
//!   restorable (§3.3.3.2: the accessibility set invariant).
//! * **I10 tables agree** — PT/CT/OT reconstructed independently by the
//!   checker match what [`argus_core`]'s own recovery produced (only checked
//!   by [`lint_log_against`]).
//! * **I11 no stale locks** — the one heap-level invariant: in a quiesced
//!   world no atomic object retains a read/write lock or a buffered current
//!   version owned by a non-live action, and no mutex stays seized by one
//!   (§2.4.1: locks are released exactly at commit or abort). Checked by
//!   [`lint_heap_quiesced`] over a volatile [`Heap`], not a log image.
//! * **I12 trace consistent** — the one trace-level invariant: every span
//!   the instrumentation opened also closes, event times are monotone per
//!   guardian lane, and every cross-guardian flow edge that arrives was
//!   sent. Checked by [`lint_trace`] over an `argus_trace::Tracer`, not a
//!   log image.

use crate::image::LogImage;
use argus_core::{CState, LogEntry, ObjState, PState, RecoveryOutcome};
use argus_objects::{ActionId, Heap, ObjKind, ObjRef, ObjectBody, Uid, Value};
use argus_obs::Count;
use argus_slog::LogAddress;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

/// Which log organization the image appears to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Chained outcome entries, anonymous data entries, shadow-map pairs
    /// (ch. 4). Detected when any outcome entry carries a `prev` pointer or
    /// any `data_h` / `committed_ss` entry is present.
    Hybrid,
    /// Flat unchained log with self-describing data entries (ch. 3).
    Simple,
    /// REDO-only log with per-object backlinked data entries and chain-head
    /// checkpoints. Detected when any `data_r` entry is present (checked
    /// first: redo logs also carry `committed_ss` checkpoints), or when a
    /// checkpoint appears without any hybrid chaining.
    Redo,
}

impl fmt::Display for Flavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Flavor::Hybrid => "hybrid",
            Flavor::Simple => "simple",
            Flavor::Redo => "redo",
        })
    }
}

/// One invariant of the catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Invariant {
    /// Every record decodes; sequence numbers are contiguous from zero.
    I1WellFormed,
    /// The outcome chain strictly decreases and terminates.
    I2ChainTerminates,
    /// The chain holds outcome entries only, and holds all of them.
    I3ChainComplete,
    /// Every participant verdict has a matching prepare below it.
    I4OutcomeMatched,
    /// No action both committed and aborted.
    I5VerdictConsistent,
    /// Every `done` has a `committing` below it.
    I6CoordinatorPaired,
    /// Every shadow-map pair points at a data entry at a lower address.
    I7ShadowResolves,
    /// Uids are unique within one pair list.
    I8UidsUnique,
    /// The restorable set is closed under references.
    I9AccessClosed,
    /// Checker-reconstructed PT/CT/OT agree with `core`'s recovery.
    I10TablesAgree,
    /// No quiesced heap object retains a lock of a non-live action.
    I11NoStaleLocks,
    /// The recorded trace is self-consistent: spans close, per-guardian
    /// times are monotone, cross-guardian flow edges resolve.
    I12TraceConsistent,
}

impl Invariant {
    /// All invariants, in catalogue order.
    pub const ALL: [Invariant; 12] = [
        Invariant::I1WellFormed,
        Invariant::I2ChainTerminates,
        Invariant::I3ChainComplete,
        Invariant::I4OutcomeMatched,
        Invariant::I5VerdictConsistent,
        Invariant::I6CoordinatorPaired,
        Invariant::I7ShadowResolves,
        Invariant::I8UidsUnique,
        Invariant::I9AccessClosed,
        Invariant::I10TablesAgree,
        Invariant::I11NoStaleLocks,
        Invariant::I12TraceConsistent,
    ];

    /// The catalogue code ("I1" … "I10").
    pub fn code(&self) -> &'static str {
        match self {
            Invariant::I1WellFormed => "I1",
            Invariant::I2ChainTerminates => "I2",
            Invariant::I3ChainComplete => "I3",
            Invariant::I4OutcomeMatched => "I4",
            Invariant::I5VerdictConsistent => "I5",
            Invariant::I6CoordinatorPaired => "I6",
            Invariant::I7ShadowResolves => "I7",
            Invariant::I8UidsUnique => "I8",
            Invariant::I9AccessClosed => "I9",
            Invariant::I10TablesAgree => "I10",
            Invariant::I11NoStaleLocks => "I11",
            Invariant::I12TraceConsistent => "I12",
        }
    }

    /// A one-line description.
    pub fn title(&self) -> &'static str {
        match self {
            Invariant::I1WellFormed => "every record decodes; sequence numbers are contiguous",
            Invariant::I2ChainTerminates => "the outcome chain strictly decreases and terminates",
            Invariant::I3ChainComplete => "the chain holds exactly the outcome entries",
            Invariant::I4OutcomeMatched => "every verdict has a matching prepare below it",
            Invariant::I5VerdictConsistent => "no action both committed and aborted",
            Invariant::I6CoordinatorPaired => "every done has a committing below it",
            Invariant::I7ShadowResolves => "every shadow pair points at a lower data entry",
            Invariant::I8UidsUnique => "uids are unique within one pair list",
            Invariant::I9AccessClosed => "the restorable set is closed under references",
            Invariant::I10TablesAgree => "reconstructed PT/CT/OT agree with core recovery",
            Invariant::I11NoStaleLocks => "no quiesced object keeps a lock of a non-live action",
            Invariant::I12TraceConsistent => {
                "spans close, per-guardian times are monotone, flows resolve"
            }
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code(), self.title())
    }
}

/// One detected invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The violated invariant.
    pub invariant: Invariant,
    /// The log address the violation anchors to, when one exists.
    pub addr: Option<LogAddress>,
    /// What exactly is wrong.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.addr {
            Some(a) => write!(f, "[{}] at {a}: {}", self.invariant.code(), self.detail),
            None => write!(f, "[{}] {}", self.invariant.code(), self.detail),
        }
    }
}

/// The linter's verdict on one log image.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// The detected log organization.
    pub flavor: Flavor,
    /// Decoded entries examined.
    pub entries: usize,
    /// Outcome entries among them.
    pub outcomes: usize,
    /// Everything that is wrong, in detection order.
    pub violations: Vec<Violation>,
}

impl LintReport {
    /// Whether every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether a specific invariant was violated.
    pub fn has(&self, invariant: Invariant) -> bool {
        self.violations.iter().any(|v| v.invariant == invariant)
    }

    /// Panics with the full report if any invariant was violated — the
    /// one-liner scenario tests call after their final crash/recover cycle.
    #[track_caller]
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "log lint failed ({} violation(s)):\n{self}",
            self.violations.len(),
        );
    }
}

/// The report as a titled table (what `argus-lint` prints).
impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (entries, outcomes, n) = (self.entries, self.outcomes, self.violations.len());
        writeln!(
            f,
            "### lint: {} log, {entries} entries ({outcomes} outcome), {n} violation(s)\n",
            self.flavor
        )?;
        let header = ["invariant", "address", "detail"].map(String::from);
        let rows: Vec<Vec<String>> = self
            .violations
            .iter()
            .map(|v| {
                let addr = v.addr.map_or_else(|| "-".into(), |a| a.to_string());
                vec![v.invariant.code().to_string(), addr, v.detail.clone()]
            })
            .collect();
        argus_obs::write_grid(f, &header, &rows)
    }
}

/// Lints a log image against I1–I9.
pub fn lint_log(image: &LogImage) -> LintReport {
    Linter::new(image).run(None)
}

/// Lints a log image against I1–I10: everything [`lint_log`] checks, plus
/// agreement between the checker's independently reconstructed PT/CT/OT and
/// the [`RecoveryOutcome`] an actual `core` recovery pass produced.
pub fn lint_log_against(image: &LogImage, outcome: &RecoveryOutcome) -> LintReport {
    Linter::new(image).run(Some(outcome))
}

/// Lints a volatile heap against I11: in a quiesced world — no action
/// running, none parked on a lock queue, none awaiting a 2PC verdict — no
/// atomic object may retain a read or write lock (or a buffered current
/// version) owned by an action outside `live`, and no mutex may stay seized
/// by one. `live` is whatever the caller still considers active; recovery
/// legitimately re-grants write locks to in-doubt prepared actions, so those
/// must be included. Returns the violations (empty when clean).
pub fn lint_heap_quiesced(heap: &Heap, live: &BTreeSet<ActionId>) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut flag = |detail: String| {
        out.push(Violation {
            invariant: Invariant::I11NoStaleLocks,
            addr: None,
            detail,
        });
    };
    for (_, slot) in heap.iter() {
        let uid = slot.uid;
        match &slot.body {
            ObjectBody::Atomic(obj) => {
                if let Some(w) = obj.writer {
                    if !live.contains(&w) {
                        flag(format!("{uid} keeps a write lock of non-live {w}"));
                    }
                }
                for r in &obj.readers {
                    if !live.contains(r) {
                        flag(format!("{uid} keeps a read lock of non-live {r}"));
                    }
                }
                if obj.current.is_some() && obj.writer.is_none() {
                    flag(format!("{uid} buffers a current version with no writer"));
                }
            }
            ObjectBody::Mutex(obj) => {
                if let Some(s) = obj.seized_by {
                    if !live.contains(&s) {
                        flag(format!("{uid} stays seized by non-live {s}"));
                    }
                }
            }
        }
    }
    out
}

/// Lints a recorded trace against I12: every opened span closes, timestamps
/// are monotone per guardian lane, and every cross-guardian flow edge
/// resolves (see `argus_trace::lint_events` for the precise rules — a
/// truncated trace skips the completeness checks). Returns the violations
/// (empty when clean).
pub fn lint_trace(tracer: &argus_trace::Tracer) -> Vec<Violation> {
    argus_trace::lint_events(&tracer.events(), tracer.dropped() > 0)
        .into_iter()
        .map(|detail| Violation {
            invariant: Invariant::I12TraceConsistent,
            addr: None,
            detail,
        })
        .collect()
}

/// Detects the log organization of an image (see [`Flavor`]).
pub fn detect_flavor(image: &LogImage) -> Flavor {
    // Backlinked data entries are unique to the redo organization; check
    // first, because redo logs also carry `committed_ss` checkpoints.
    if image
        .entries()
        .iter()
        .any(|(_, e)| matches!(e, LogEntry::DataR { .. }))
    {
        return Flavor::Redo;
    }
    let chained = image.entries().iter().any(|(_, e)| {
        // `committed_ss` is excluded from the outcome-with-prev test: a
        // compacted redo checkpoint reuses `prev` as its low-water mark,
        // which is not hybrid chaining.
        matches!(e, LogEntry::DataH { .. })
            || (e.is_outcome() && !matches!(e, LogEntry::CommittedSs { .. }) && e.prev().is_some())
            || matches!(e, LogEntry::Prepared { pairs, .. } if !pairs.is_empty())
    });
    if chained {
        return Flavor::Hybrid;
    }
    // A checkpoint with no hybrid chaining anywhere: a freshly compacted
    // redo log whose every surviving data record was a base (simple logs
    // never write checkpoints).
    if image
        .entries()
        .iter()
        .any(|(_, e)| matches!(e, LogEntry::CommittedSs { .. }))
    {
        return Flavor::Redo;
    }
    Flavor::Simple
}

// ---- the linter ----------------------------------------------------------

struct Linter<'a> {
    image: &'a LogImage,
    flavor: Flavor,
    violations: Vec<Violation>,
}

impl<'a> Linter<'a> {
    fn new(image: &'a LogImage) -> Self {
        Self {
            image,
            flavor: detect_flavor(image),
            violations: Vec::new(),
        }
    }

    fn flag(&mut self, invariant: Invariant, addr: Option<LogAddress>, detail: String) {
        self.violations.push(Violation {
            invariant,
            addr,
            detail,
        });
    }

    fn run(mut self, outcome: Option<&RecoveryOutcome>) -> LintReport {
        let obs = argus_obs::current();
        obs.inc(Count::CheckLintRuns);
        self.check_well_formed();
        let chain = match self.flavor {
            Flavor::Hybrid => self.check_chain(),
            // The simple and redo logs have no outcome chain; recovery is a
            // flat backward scan.
            Flavor::Simple | Flavor::Redo => Vec::new(),
        };
        self.check_outcome_matching();
        self.check_verdict_consistency();
        self.check_coordinator_pairing();
        self.check_shadow_map();
        if self.flavor == Flavor::Redo {
            self.check_backlinks();
        }
        let recon = match self.flavor {
            Flavor::Hybrid => self.reconstruct_hybrid(&chain),
            Flavor::Simple => self.reconstruct_simple(),
            Flavor::Redo => self.reconstruct_redo(),
        };
        self.check_access_closure(&recon);
        if let Some(outcome) = outcome {
            self.check_table_agreement(&recon, outcome);
        }
        obs.add(Count::CheckLintViolations, self.violations.len() as u64);
        LintReport {
            flavor: self.flavor,
            entries: self.image.len(),
            outcomes: self
                .image
                .entries()
                .iter()
                .filter(|(_, e)| e.is_outcome())
                .count(),
            violations: self.violations,
        }
    }

    // ---- I1 --------------------------------------------------------------

    fn check_well_formed(&mut self) {
        for bad in self.image.bad_records() {
            self.flag(
                Invariant::I1WellFormed,
                Some(bad.addr),
                format!("record does not decode: {}", bad.why),
            );
        }
        // Forced records always carry sequence numbers 0, 1, 2, … — a gap
        // means a record was lost (an epoch was skipped). Only meaningful
        // when every record decoded; undecodable records leave holes.
        if self.image.bad_records().is_empty() {
            if let Some(seqs) = self.image.seqs() {
                for (i, (&seq, (addr, _))) in seqs.iter().zip(self.image.entries()).enumerate() {
                    if seq != i as u64 {
                        self.flag(
                            Invariant::I1WellFormed,
                            Some(*addr),
                            format!("sequence number {seq} where {i} was expected"),
                        );
                        break;
                    }
                }
            }
        }
    }

    // ---- I2 / I3 ---------------------------------------------------------

    /// Walks the backward chain, reporting I2 breaks, and returns the chain
    /// as `(address, entry)` newest-first — the reconstruction's input.
    fn check_chain(&mut self) -> Vec<(LogAddress, &'a LogEntry)> {
        let mut chain = Vec::new();
        let mut reachable: HashSet<u64> = HashSet::new();
        let mut cursor = self.image.chain_head();
        while let Some(addr) = cursor {
            let entry = match self.image.get(addr) {
                Some(e) => e,
                None => {
                    self.flag(
                        Invariant::I2ChainTerminates,
                        Some(addr),
                        "chain pointer dangles: no entry at this address".into(),
                    );
                    break;
                }
            };
            if !entry.is_outcome() {
                self.flag(
                    Invariant::I3ChainComplete,
                    Some(addr),
                    format!("{} (data) entry on the outcome chain", entry.name()),
                );
                break;
            }
            reachable.insert(addr.offset());
            chain.push((addr, entry));
            cursor = match entry.prev() {
                Some(prev) if prev.offset() >= addr.offset() => {
                    self.flag(
                        Invariant::I2ChainTerminates,
                        Some(addr),
                        format!("chain pointer {prev} does not decrease (entry is at {addr})"),
                    );
                    break;
                }
                next => next,
            };
        }
        // Every outcome entry must be ON the chain (I3) — a skipped entry is
        // invisible to recovery.
        for (addr, entry) in self.image.entries() {
            if entry.is_outcome() && !reachable.contains(&addr.offset()) {
                self.flag(
                    Invariant::I3ChainComplete,
                    Some(*addr),
                    format!("{} entry not reachable from the chain head", entry.name()),
                );
            }
        }
        chain
    }

    // ---- I4 --------------------------------------------------------------

    fn check_outcome_matching(&mut self) {
        // Lowest prepare address per action.
        let mut first_prepare: HashMap<ActionId, LogAddress> = HashMap::new();
        for (addr, entry) in self.image.entries() {
            if let LogEntry::Prepared { aid, .. } | LogEntry::PreparedData { aid, .. } = entry {
                first_prepare.entry(*aid).or_insert(*addr);
            }
        }
        for (addr, entry) in self.image.entries() {
            if let LogEntry::Committed { aid, .. } | LogEntry::Aborted { aid, .. } = entry {
                match first_prepare.get(aid) {
                    Some(p) if p.offset() < addr.offset() => {}
                    _ => self.flag(
                        Invariant::I4OutcomeMatched,
                        Some(*addr),
                        format!("{} for {aid} has no prepared entry below it", entry.name()),
                    ),
                }
            }
        }
    }

    // ---- I5 --------------------------------------------------------------

    fn check_verdict_consistency(&mut self) {
        let mut committed: HashMap<ActionId, LogAddress> = HashMap::new();
        let mut aborted: HashMap<ActionId, LogAddress> = HashMap::new();
        for (addr, entry) in self.image.entries() {
            match entry {
                LogEntry::Committed { aid, .. } => {
                    committed.entry(*aid).or_insert(*addr);
                }
                LogEntry::Aborted { aid, .. } => {
                    aborted.entry(*aid).or_insert(*addr);
                }
                _ => {}
            }
        }
        let mut both: Vec<_> = committed
            .iter()
            .filter(|(aid, _)| aborted.contains_key(aid))
            .collect();
        both.sort_by_key(|(aid, _)| **aid);
        for (aid, caddr) in both {
            self.flag(
                Invariant::I5VerdictConsistent,
                Some(*caddr),
                format!(
                    "{aid} has both committed (at {caddr}) and aborted (at {}) entries",
                    aborted[aid]
                ),
            );
        }
    }

    // ---- I6 --------------------------------------------------------------

    fn check_coordinator_pairing(&mut self) {
        let mut first_committing: HashMap<ActionId, LogAddress> = HashMap::new();
        for (addr, entry) in self.image.entries() {
            if let LogEntry::Committing { aid, .. } = entry {
                first_committing.entry(*aid).or_insert(*addr);
            }
        }
        for (addr, entry) in self.image.entries() {
            if let LogEntry::Done { aid, .. } = entry {
                match first_committing.get(aid) {
                    Some(c) if c.offset() < addr.offset() => {}
                    _ => self.flag(
                        Invariant::I6CoordinatorPaired,
                        Some(*addr),
                        format!("done for {aid} has no committing entry below it"),
                    ),
                }
            }
        }
    }

    // ---- I7 / I8 ---------------------------------------------------------

    fn check_shadow_map(&mut self) {
        type PairList<'x> = (LogAddress, &'static str, &'x [(Uid, LogAddress)]);
        let lists: Vec<PairList<'_>> = self
            .image
            .entries()
            .iter()
            .filter_map(|(addr, entry)| match entry {
                LogEntry::Prepared { pairs, .. } => Some((*addr, "prepared", pairs.as_slice())),
                LogEntry::CommittedSs { cssl, .. } => {
                    Some((*addr, "committed_ss", cssl.as_slice()))
                }
                _ => None,
            })
            .collect();
        for (addr, name, pairs) in lists {
            let mut seen: BTreeSet<Uid> = BTreeSet::new();
            for (uid, daddr) in pairs {
                if !seen.insert(*uid) {
                    self.flag(
                        Invariant::I8UidsUnique,
                        Some(addr),
                        format!("{name} entry lists {uid} more than once"),
                    );
                }
                if daddr.offset() >= addr.offset() {
                    self.flag(
                        Invariant::I7ShadowResolves,
                        Some(addr),
                        format!("{name} pair for {uid} points at {daddr}, not below the entry"),
                    );
                    continue;
                }
                match self.image.get(*daddr) {
                    Some(LogEntry::Data { .. }) | Some(LogEntry::DataH { .. }) => {}
                    // Redo checkpoints map uids to chain heads, which may be
                    // any committed-version-bearing record of the same uid.
                    Some(
                        LogEntry::DataR { uid: u2, .. }
                        | LogEntry::BaseCommitted { uid: u2, .. }
                        | LogEntry::PreparedData { uid: u2, .. },
                    ) if self.flavor == Flavor::Redo => {
                        if u2 != uid {
                            self.flag(
                                Invariant::I7ShadowResolves,
                                Some(addr),
                                format!("{name} pair for {uid} points at a record for {u2}"),
                            );
                        }
                    }
                    Some(other) => self.flag(
                        Invariant::I7ShadowResolves,
                        Some(addr),
                        format!(
                            "{name} pair for {uid} points at a {} entry at {daddr}",
                            other.name()
                        ),
                    ),
                    None => self.flag(
                        Invariant::I7ShadowResolves,
                        Some(addr),
                        format!("{name} pair for {uid} dangles: no entry at {daddr}"),
                    ),
                }
            }
        }
    }

    // ---- reconstruction (feeds I9 and I10) -------------------------------

    /// Resolves a shadow pair to its data entry, or `None` if it does not
    /// resolve (already reported under I7).
    fn data_at(&self, daddr: LogAddress) -> Option<(ObjKind, &'a Value)> {
        match self.image.get(daddr)? {
            LogEntry::DataH { kind, value } => Some((*kind, value)),
            LogEntry::Data { kind, value, .. } => Some((*kind, value)),
            _ => None,
        }
    }

    /// Mirrors the hybrid chain walk of `core::HybridLogRs::recover`
    /// (§4.3.3) without a heap: same tables, same restore rules, same
    /// selective pair processing.
    fn reconstruct_hybrid(&mut self, chain: &[(LogAddress, &'a LogEntry)]) -> Reconstruction {
        let mut r = Reconstruction::default();
        for &(_, entry) in chain {
            match entry {
                LogEntry::Prepared { aid, pairs, .. } => {
                    let st = r.pt_enter(*aid, PState::Prepared);
                    for (uid, daddr) in pairs {
                        let Some((kind, value)) = self.data_at(*daddr) else {
                            continue;
                        };
                        match st {
                            PState::Committed => {
                                r.restore_committed(*uid, kind, value, Some(*daddr))
                            }
                            PState::Prepared => {
                                r.restore_prepared(*uid, kind, value, *aid, Some(*daddr))
                            }
                            // Mutex versions of a prepared-then-aborted
                            // action are still restored (§2.4.2 scenario 2).
                            PState::Aborted if kind == ObjKind::Mutex => {
                                r.restore_committed(*uid, kind, value, Some(*daddr))
                            }
                            PState::Aborted => {}
                        }
                    }
                }
                LogEntry::Committed { aid, .. } => {
                    r.pt_enter(*aid, PState::Committed);
                }
                LogEntry::Aborted { aid, .. } => {
                    r.pt_enter(*aid, PState::Aborted);
                }
                LogEntry::Committing { aid, gids, .. } => {
                    r.ct_enter(*aid, CState::Committing(gids.clone()));
                }
                LogEntry::Done { aid, .. } => r.ct_enter(*aid, CState::Done),
                LogEntry::BaseCommitted { uid, value, .. } => {
                    r.restore_committed(*uid, ObjKind::Atomic, value, None);
                }
                LogEntry::PreparedData {
                    uid, value, aid, ..
                } => r.on_prepared_data(*uid, value, *aid),
                LogEntry::CommittedSs { cssl, .. } => {
                    for (uid, daddr) in cssl {
                        // Core's checkpoint rule: a resident object that is
                        // not awaiting its base is simply newer — skip.
                        if r.objects
                            .get(uid)
                            .is_some_and(|o| o.state != ObjState::Prepared)
                        {
                            continue;
                        }
                        let Some((kind, value)) = self.data_at(*daddr) else {
                            continue;
                        };
                        r.restore_committed(*uid, kind, value, Some(*daddr));
                    }
                }
                LogEntry::Data { .. } | LogEntry::DataH { .. } | LogEntry::DataR { .. } => {
                    // Already reported as an I3 break; the walk stopped there.
                }
            }
        }
        for v in r.take_kind_conflicts() {
            self.violations.push(v);
        }
        r
    }

    /// Mirrors the simple flat backward scan of `core::SimpleLogRs::recover`
    /// (§3.4.4) without a heap.
    fn reconstruct_simple(&mut self) -> Reconstruction {
        let mut r = Reconstruction::default();
        let mut deferred_cssl: Vec<(Uid, LogAddress)> = Vec::new();
        for (addr, entry) in self.image.entries().iter().rev() {
            match entry {
                LogEntry::Prepared { aid, .. } => {
                    r.pt_enter(*aid, PState::Prepared);
                }
                LogEntry::Committed { aid, .. } => {
                    r.pt_enter(*aid, PState::Committed);
                }
                LogEntry::Aborted { aid, .. } => {
                    r.pt_enter(*aid, PState::Aborted);
                }
                LogEntry::Committing { aid, gids, .. } => {
                    r.ct_enter(*aid, CState::Committing(gids.clone()));
                }
                LogEntry::Done { aid, .. } => r.ct_enter(*aid, CState::Done),
                LogEntry::BaseCommitted { uid, value, .. } => {
                    r.restore_committed(*uid, ObjKind::Atomic, value, None);
                }
                LogEntry::PreparedData {
                    uid, value, aid, ..
                } => r.on_prepared_data(*uid, value, *aid),
                // The simple scan reads a redo record as a plain data entry.
                LogEntry::Data {
                    uid,
                    kind,
                    value,
                    aid,
                }
                | LogEntry::DataR {
                    uid,
                    kind,
                    value,
                    aid,
                    ..
                } => match r.pt.get(aid).copied() {
                    Some(PState::Committed) => r.restore_committed(*uid, *kind, value, Some(*addr)),
                    Some(PState::Prepared) => {
                        r.restore_prepared(*uid, *kind, value, *aid, Some(*addr))
                    }
                    Some(PState::Aborted) if *kind == ObjKind::Mutex => {
                        r.restore_committed(*uid, *kind, value, Some(*addr))
                    }
                    Some(PState::Aborted) | None => {}
                },
                LogEntry::DataH { .. } => {}
                LogEntry::CommittedSs { cssl, .. } => deferred_cssl.extend(cssl.iter().copied()),
            }
        }
        for (uid, daddr) in deferred_cssl {
            if r.objects.get(&uid).map(|o| o.state) == Some(ObjState::Restored) {
                continue;
            }
            if let Some((kind, value)) = self.data_at(daddr) {
                r.restore_committed(uid, kind, value, Some(daddr));
            }
        }
        for v in r.take_kind_conflicts() {
            self.violations.push(v);
        }
        r
    }

    // ---- I7 for the redo organization ------------------------------------

    /// Backlinks are the redo log's shadow-map analogue: every `data_r`
    /// backlink must point strictly below at a data-carrying record of the
    /// *same* object, or a lazy chain walk would restore the wrong state.
    fn check_backlinks(&mut self) {
        type Link = (LogAddress, Uid, LogAddress);
        let links: Vec<Link> = self
            .image
            .entries()
            .iter()
            .filter_map(|(addr, entry)| match entry {
                LogEntry::DataR {
                    uid, back: Some(b), ..
                } => Some((*addr, *uid, *b)),
                _ => None,
            })
            .collect();
        for (addr, uid, back) in links {
            if back.offset() >= addr.offset() {
                self.flag(
                    Invariant::I7ShadowResolves,
                    Some(addr),
                    format!("backlink for {uid} points at {back}, not below the entry"),
                );
                continue;
            }
            match self.image.get(back) {
                Some(
                    LogEntry::DataR { uid: u2, .. }
                    | LogEntry::Data { uid: u2, .. }
                    | LogEntry::BaseCommitted { uid: u2, .. }
                    | LogEntry::PreparedData { uid: u2, .. },
                ) => {
                    if *u2 != uid {
                        self.flag(
                            Invariant::I7ShadowResolves,
                            Some(addr),
                            format!("backlink for {uid} points at a record for {u2} at {back}"),
                        );
                    }
                }
                Some(other) => self.flag(
                    Invariant::I7ShadowResolves,
                    Some(addr),
                    format!(
                        "backlink for {uid} points at a {} entry at {back}",
                        other.name()
                    ),
                ),
                None => self.flag(
                    Invariant::I7ShadowResolves,
                    Some(addr),
                    format!("backlink for {uid} dangles: no entry at {back}"),
                ),
            }
        }
    }

    /// Resolves a redo checkpoint pair to the committed version its record
    /// carries, or `None` if it does not (already reported under I7).
    fn redo_head_at(&self, daddr: LogAddress) -> Option<(ObjKind, &'a Value)> {
        match self.image.get(daddr)? {
            LogEntry::DataR { kind, value, .. } => Some((*kind, value)),
            LogEntry::Data { kind, value, .. } => Some((*kind, value)),
            LogEntry::BaseCommitted { value, .. } => Some((ObjKind::Atomic, value)),
            LogEntry::PreparedData { value, .. } => Some((ObjKind::Atomic, value)),
            _ => None,
        }
    }

    /// Mirrors the redo full scan of `core::RedoRs::recover` without a
    /// heap: a flat backward pass with participant-table dispatch, plus the
    /// deferred checkpoint restore.
    fn reconstruct_redo(&mut self) -> Reconstruction {
        let mut r = Reconstruction::default();
        let mut deferred_cssl: Vec<(Uid, LogAddress)> = Vec::new();
        for (addr, entry) in self.image.entries().iter().rev() {
            match entry {
                LogEntry::Prepared { aid, .. } => {
                    r.pt_enter(*aid, PState::Prepared);
                }
                LogEntry::Committed { aid, .. } => {
                    r.pt_enter(*aid, PState::Committed);
                }
                LogEntry::Aborted { aid, .. } => {
                    r.pt_enter(*aid, PState::Aborted);
                }
                LogEntry::Committing { aid, gids, .. } => {
                    r.ct_enter(*aid, CState::Committing(gids.clone()));
                }
                LogEntry::Done { aid, .. } => r.ct_enter(*aid, CState::Done),
                LogEntry::BaseCommitted { uid, value, .. } => {
                    r.restore_committed(*uid, ObjKind::Atomic, value, None);
                }
                LogEntry::PreparedData {
                    uid, value, aid, ..
                } => r.on_prepared_data(*uid, value, *aid),
                LogEntry::DataR {
                    uid,
                    kind,
                    value,
                    aid,
                    ..
                }
                | LogEntry::Data {
                    uid,
                    kind,
                    value,
                    aid,
                } => match r.pt.get(aid).copied() {
                    Some(PState::Committed) => r.restore_committed(*uid, *kind, value, Some(*addr)),
                    Some(PState::Prepared) => {
                        r.restore_prepared(*uid, *kind, value, *aid, Some(*addr))
                    }
                    Some(PState::Aborted) if *kind == ObjKind::Mutex => {
                        r.restore_committed(*uid, *kind, value, Some(*addr))
                    }
                    Some(PState::Aborted) | None => {}
                },
                LogEntry::DataH { .. } => {}
                LogEntry::CommittedSs { cssl, .. } => deferred_cssl.extend(cssl.iter().copied()),
            }
        }
        for (uid, daddr) in deferred_cssl {
            if r.objects.get(&uid).map(|o| o.state) == Some(ObjState::Restored) {
                continue;
            }
            if let Some((kind, value)) = self.redo_head_at(daddr) {
                r.restore_committed(uid, kind, value, Some(daddr));
            }
        }
        for v in r.take_kind_conflicts() {
            self.violations.push(v);
        }
        r
    }

    // ---- I9 --------------------------------------------------------------

    fn check_access_closure(&mut self, recon: &Reconstruction) {
        for (uid, obj) in &recon.objects {
            for value in obj.base.iter().chain(obj.current.iter()) {
                let mut refs = Vec::new();
                collect_uid_refs(value, &mut refs);
                for target in refs {
                    if !recon.objects.contains_key(&target) {
                        self.flag(
                            Invariant::I9AccessClosed,
                            None,
                            format!("restored {uid} references {target}, which is not restorable"),
                        );
                    }
                }
            }
        }
    }

    // ---- I10 -------------------------------------------------------------

    fn check_table_agreement(&mut self, recon: &Reconstruction, outcome: &RecoveryOutcome) {
        // PT.
        let mut core_pt: BTreeMap<ActionId, PState> = BTreeMap::new();
        for (aid, st) in outcome.pt.iter() {
            core_pt.insert(*aid, *st);
        }
        if recon.pt != core_pt {
            self.flag(
                Invariant::I10TablesAgree,
                None,
                format!(
                    "participant tables disagree: checker {:?}, core {:?}",
                    recon.pt, core_pt
                ),
            );
        }
        // CT.
        let mut core_ct: BTreeMap<ActionId, CState> = BTreeMap::new();
        for (aid, st) in outcome.ct.iter() {
            core_ct.insert(*aid, st.clone());
        }
        if recon.ct != core_ct {
            self.flag(
                Invariant::I10TablesAgree,
                None,
                format!(
                    "coordinator tables disagree: checker {:?}, core {:?}",
                    recon.ct, core_ct
                ),
            );
        }
        // OT: uid set, object states, mutex recency addresses.
        let core_ot: BTreeMap<Uid, (ObjState, Option<LogAddress>)> = outcome
            .ot
            .iter()
            .map(|(uid, e)| (*uid, (e.state, e.mutex_addr)))
            .collect();
        let recon_ot: BTreeMap<Uid, (ObjState, Option<LogAddress>)> = recon
            .objects
            .iter()
            .map(|(uid, o)| (*uid, (o.state, o.mutex_addr)))
            .collect();
        if recon_ot != core_ot {
            for (uid, entry) in &recon_ot {
                match core_ot.get(uid) {
                    Some(core) if core == entry => {}
                    Some(core) => self.flag(
                        Invariant::I10TablesAgree,
                        None,
                        format!(
                            "object tables disagree on {uid}: checker {entry:?}, core {core:?}"
                        ),
                    ),
                    None => self.flag(
                        Invariant::I10TablesAgree,
                        None,
                        format!("checker restored {uid} but core did not"),
                    ),
                }
            }
            for uid in core_ot.keys() {
                if !recon_ot.contains_key(uid) {
                    self.flag(
                        Invariant::I10TablesAgree,
                        None,
                        format!("core restored {uid} but the checker did not"),
                    );
                }
            }
        }
    }
}

/// Collects every `Value::Ref(Uid)` reachable inside a flattened value.
fn collect_uid_refs(value: &Value, out: &mut Vec<Uid>) {
    match value {
        Value::Ref(ObjRef::Uid(u)) => out.push(*u),
        Value::Seq(items) => {
            for item in items {
                collect_uid_refs(item, out);
            }
        }
        _ => {}
    }
}

// ---- pure table reconstruction -------------------------------------------

/// A reconstructed object: the heap-free mirror of `core`'s `OtEntry` plus
/// the restored values (needed for the I9 closure walk).
#[derive(Debug, Clone)]
pub struct ReconObj {
    /// Atomic or mutex.
    pub kind: ObjKind,
    /// Restoration state — `Prepared` while the base version is missing.
    pub state: ObjState,
    /// For mutexes: the address of the version copied (the §4.4 recency
    /// tiebreak).
    pub mutex_addr: Option<LogAddress>,
    /// Base version (mutexes keep their single version here).
    pub base: Option<Value>,
    /// Current version of an in-doubt prepared action.
    pub current: Option<Value>,
    /// The in-doubt writer holding the lock.
    pub writer: Option<ActionId>,
}

/// PT/CT/OT rebuilt purely from the image, mirroring `core::restore`'s rules
/// exactly but without a heap. [`lint_log_against`] compares this against a
/// real [`RecoveryOutcome`]; the I9 closure check walks its values.
#[derive(Debug, Clone, Default)]
pub struct Reconstruction {
    /// Participant table: first insertion (newest entry) wins.
    pub pt: BTreeMap<ActionId, PState>,
    /// Coordinator table: first insertion wins.
    pub ct: BTreeMap<ActionId, CState>,
    /// Object table with values.
    pub objects: BTreeMap<Uid, ReconObj>,
    kind_conflicts: Vec<Violation>,
}

impl Reconstruction {
    fn pt_enter(&mut self, aid: ActionId, state: PState) -> PState {
        *self.pt.entry(aid).or_insert(state)
    }

    fn ct_enter(&mut self, aid: ActionId, state: CState) {
        self.ct.entry(aid).or_insert(state);
    }

    fn kind_conflict(&mut self, uid: Uid, have: ObjKind, got: ObjKind) {
        self.kind_conflicts.push(Violation {
            invariant: Invariant::I1WellFormed,
            addr: None,
            detail: format!("{uid} appears both as {have:?} and as {got:?}"),
        });
    }

    fn take_kind_conflicts(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.kind_conflicts)
    }

    /// Mirror of `RecoverCtx::restore_committed`.
    fn restore_committed(
        &mut self,
        uid: Uid,
        kind: ObjKind,
        value: &Value,
        addr: Option<LogAddress>,
    ) {
        match self.objects.get_mut(&uid) {
            Some(obj) => {
                if obj.kind != kind {
                    let have = obj.kind;
                    self.kind_conflict(uid, have, kind);
                    return;
                }
                match kind {
                    ObjKind::Atomic => {
                        if obj.state == ObjState::Prepared {
                            obj.base = Some(value.clone());
                            obj.state = ObjState::Restored;
                        }
                    }
                    ObjKind::Mutex => Self::maybe_replace_mutex(obj, value, addr),
                }
            }
            None => {
                self.objects.insert(
                    uid,
                    ReconObj {
                        kind,
                        state: ObjState::Restored,
                        mutex_addr: if kind == ObjKind::Mutex { addr } else { None },
                        base: Some(value.clone()),
                        current: None,
                        writer: None,
                    },
                );
            }
        }
    }

    /// Mirror of `RecoverCtx::restore_prepared`.
    fn restore_prepared(
        &mut self,
        uid: Uid,
        kind: ObjKind,
        value: &Value,
        aid: ActionId,
        addr: Option<LogAddress>,
    ) {
        match self.objects.get_mut(&uid) {
            Some(obj) => {
                if obj.kind != kind {
                    let have = obj.kind;
                    self.kind_conflict(uid, have, kind);
                    return;
                }
                match kind {
                    ObjKind::Atomic => {
                        if obj.writer.is_none() {
                            obj.current = Some(value.clone());
                            obj.writer = Some(aid);
                        }
                    }
                    ObjKind::Mutex => Self::maybe_replace_mutex(obj, value, addr),
                }
            }
            None => {
                let obj = match kind {
                    ObjKind::Atomic => ReconObj {
                        kind,
                        state: ObjState::Prepared,
                        mutex_addr: None,
                        base: None,
                        current: Some(value.clone()),
                        writer: Some(aid),
                    },
                    ObjKind::Mutex => ReconObj {
                        kind,
                        state: ObjState::Restored,
                        mutex_addr: addr,
                        base: Some(value.clone()),
                        current: None,
                        writer: None,
                    },
                };
                self.objects.insert(uid, obj);
            }
        }
    }

    /// The §4.4 recency rule.
    fn maybe_replace_mutex(obj: &mut ReconObj, value: &Value, addr: Option<LogAddress>) {
        let newer = match (addr, obj.mutex_addr) {
            (Some(new), Some(old)) => new > old,
            _ => false,
        };
        if newer {
            obj.base = Some(value.clone());
            obj.mutex_addr = addr;
        }
    }

    /// Mirror of `RecoverCtx::on_prepared_data`.
    fn on_prepared_data(&mut self, uid: Uid, value: &Value, aid: ActionId) {
        match self.pt.get(&aid).copied() {
            Some(PState::Aborted) => {}
            Some(PState::Committed) => self.restore_committed(uid, ObjKind::Atomic, value, None),
            Some(PState::Prepared) => self.restore_prepared(uid, ObjKind::Atomic, value, aid, None),
            None => {
                self.pt_enter(aid, PState::Prepared);
                self.restore_prepared(uid, ObjKind::Atomic, value, aid, None);
            }
        }
    }
}
