//! The deterministic slot scheduler behind [`Contended`](crate::Contended)
//! and [`Sharded`](crate::Sharded).
//!
//! `concurrency` slots each run one *plan* at a time — a home guardian to
//! begin at and a list of writes, locked in plan order with no global lock
//! ordering, so plans over the same hot objects wait on each other (§2.4.1:
//! running actions delay one another by holding locks). What happens next
//! is the concurrency-control policy's call
//! ([`argus_guardian::WorldConfig::cc`]):
//!
//! * **conflict-abort** — the submit is refused; the slot aborts the action
//!   and retries after a seeded full-jitter backoff ([`backoff_delay_us`]);
//! * **blocking** — the slot parks FIFO; the wait-for-graph check breaks any
//!   cycle by aborting the youngest member, which retries with backoff;
//! * **timeout** — the slot parks with a deadline; when every slot is stuck
//!   the driver advances the clock to the next deadline and lets
//!   [`World::cc_tick`] expire a waiter, which retries with backoff.
//!
//! One slot performs exactly one transition per round — begin, one
//! lock-acquiring submit, or commit — so locks are held across rounds and
//! slots genuinely interleave. A retry keeps its plan: the same contended
//! objects are re-fought, which is what the backoff exists for. The driver
//! draws only from [`DetRng`] and the simulated clock: a seed pins down the
//! whole run — schedule, abort set, commit order, and final values.

use argus_cc::{backoff_delay_us, CcFate, CcOutcome};
use argus_guardian::{Outcome, World, WorldError, WorldResult};
use argus_objects::{ActionId, GuardianId, HeapId, Value};
use argus_sim::DetRng;
use std::collections::BTreeSet;

/// One write of a plan: `delta` added to the integer `h` at guardian `gid`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Write {
    pub(crate) gid: GuardianId,
    pub(crate) h: HeapId,
    pub(crate) delta: i64,
}

/// One logical action, immutable across its retries.
pub(crate) trait Plan {
    /// The guardian the action begins — and is coordinated — at.
    fn home(&self) -> GuardianId;
    /// The writes, in the order their locks are requested.
    fn writes(&self) -> &[Write];
}

/// What the scheduler counts, whatever the plans are.
#[derive(Debug, Default)]
pub(crate) struct SlotStats {
    pub(crate) committed: u64,
    pub(crate) retries: u64,
    pub(crate) conflicts: u64,
    pub(crate) deadlock_victims: u64,
    pub(crate) timeouts: u64,
    pub(crate) aborted: BTreeSet<ActionId>,
    pub(crate) commit_order: Vec<ActionId>,
}

/// Abort rate: retried attempts over all attempts.
pub(crate) fn abort_rate(committed: u64, retries: u64) -> f64 {
    match committed + retries {
        0 => 0.0,
        attempts => retries as f64 / attempts as f64,
    }
}

/// What a slot does next round.
enum SlotState {
    /// No action in flight; may begin once the clock reaches `retry_at`.
    Idle,
    /// Action begun; `next_op` planned writes issued so far.
    Running { aid: ActionId, next_op: usize },
    /// `next` had no plan left for this slot.
    Finished,
}

struct Slot<P> {
    state: SlotState,
    plan: Option<P>,
    /// Aborted attempts of the current plan so far.
    attempt: u32,
    /// Clock time before which the slot stays idle (backoff).
    retry_at: u64,
}

/// Runs plans on `concurrency` slots until `next` — called with the slot's
/// index whenever one needs a plan — has none left for any of them; `done`
/// gets each plan back as it commits. Returns an error — rather than
/// spinning — if the scheduler ever stalls with no pending event, so a
/// would-be hang fails fast and loudly.
pub(crate) fn run<P: Plan>(
    world: &mut World,
    rng: &mut DetRng,
    concurrency: usize,
    mut next: impl FnMut(&mut DetRng, usize) -> Option<P>,
    mut done: impl FnMut(P),
) -> WorldResult<SlotStats> {
    let mut stats = SlotStats::default();
    let mut slots: Vec<Slot<P>> = (0..concurrency)
        .map(|_| Slot {
            state: SlotState::Idle,
            plan: None,
            attempt: 0,
            retry_at: 0,
        })
        .collect();
    loop {
        let mut progress = false;
        let mut all_done = true;
        for (i, slot) in slots.iter_mut().enumerate() {
            let draw = |rng: &mut DetRng| next(rng, i);
            progress |= step_slot(world, rng, slot, &mut stats, draw, &mut done)?;
            all_done &= matches!(slot.state, SlotState::Finished);
        }
        if all_done {
            return Ok(stats);
        }
        if progress {
            continue;
        }
        // Every slot is parked or backing off: advance the clock to the
        // nearest pending event and expire due lock waits.
        let idle = slots.iter().filter(|s| matches!(s.state, SlotState::Idle));
        let wake = idle.map(|s| s.retry_at).chain(world.cc_next_deadline());
        match wake.min() {
            Some(t) if t > world.clock.now() => {
                world.clock.advance_to(t);
                world.cc_tick();
            }
            _ => {
                return Err(WorldError::Rs(argus_core::RsError::BadState(
                    "slot scheduler stalled with no pending event (undetected deadlock?)".into(),
                )))
            }
        }
    }
}

/// Performs at most one scheduler transition for `slot`; returns whether
/// anything happened.
fn step_slot<P: Plan>(
    world: &mut World,
    rng: &mut DetRng,
    slot: &mut Slot<P>,
    stats: &mut SlotStats,
    draw: impl FnOnce(&mut DetRng) -> Option<P>,
    done: &mut impl FnMut(P),
) -> WorldResult<bool> {
    let now = world.clock.now();
    let (aid, next_op) = match slot.state {
        SlotState::Finished => return Ok(false),
        SlotState::Idle => {
            if slot.plan.is_none() {
                // A fresh plan is due at once: the slot's last commit set
                // `retry_at` to a time now past.
                slot.plan = draw(rng);
            }
            let Some(plan) = &slot.plan else {
                slot.state = SlotState::Finished;
                return Ok(true);
            };
            if now < slot.retry_at {
                return Ok(false);
            }
            let aid = world.begin(plan.home())?;
            slot.state = SlotState::Running { aid, next_op: 0 };
            return Ok(true);
        }
        SlotState::Running { aid, next_op } => (aid, next_op),
    };
    if let Some(fate) = world.take_cc_fate(aid) {
        // The scheduler gave up on this action (deadlock victim or expired
        // lock wait) and already aborted it.
        match fate {
            CcFate::Victim => stats.deadlock_victims += 1,
            CcFate::TimedOut => stats.timeouts += 1,
            CcFate::CrashDrained => {}
        }
        note_retry(world, rng, slot, aid, stats);
        return Ok(true);
    }
    if world.cc_blocked(aid) {
        return Ok(false);
    }
    let plan = slot.plan.as_ref().expect("running slot has a plan");
    if let Some(&Write { gid, h, delta }) = plan.writes().get(next_op) {
        let add = move |v: &mut Value| {
            if let Value::Int(n) = v {
                *n += delta;
            }
        };
        match world.submit_write_atomic(gid, aid, h, add)? {
            // Parked counts as issued: the grant runs the write.
            CcOutcome::Done | CcOutcome::Parked => {
                let next_op = next_op + 1;
                slot.state = SlotState::Running { aid, next_op };
            }
            CcOutcome::Conflict => {
                stats.conflicts += 1;
                world.abort_local(aid);
                note_retry(world, rng, slot, aid, stats);
            }
        }
        return Ok(true);
    }
    let outcome = world.commit(aid)?;
    debug_assert_eq!(outcome, Outcome::Committed);
    stats.committed += 1;
    stats.commit_order.push(aid);
    let finished = world.clock.now();
    done(slot.plan.take().expect("running slot has a plan"));
    slot.attempt = 0;
    slot.retry_at = finished;
    slot.state = SlotState::Idle;
    Ok(true)
}

/// Books an aborted attempt and schedules the backoff.
fn note_retry<P>(
    world: &mut World,
    rng: &mut DetRng,
    slot: &mut Slot<P>,
    aid: ActionId,
    stats: &mut SlotStats,
) {
    stats.retries += 1;
    stats.aborted.insert(aid);
    world.note_cc_retry();
    let delay = backoff_delay_us(slot.attempt, rng);
    slot.attempt += 1;
    slot.retry_at = world.clock.now() + delay;
    slot.state = SlotState::Idle;
}
