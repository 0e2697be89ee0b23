//! Leaf replays: each leaf layer called directly, from outside, over the
//! payloads the workload's own log held (`World::dump_log`), so a change
//! to one leaf shows here before it shows end to end.
//!
//! Every leaf runs several passes over the same input and reports the
//! lower quartile of the per-pass cost (upper quartile for rates), like the
//! end-to-end timings.

use crate::spans;
use crate::stack::TimedProvider;
use crate::stats::{best_rate, best_time};
use crate::target::Res;
use argus_cc::{LockManager, LockMode, ObjKey, Waiter};
use argus_core::providers::{CachedProvider, FileProvider, MemProvider};
use argus_core::{decode_entry_view, encode_entry, encode_entry_into, LogEntry, StoreProvider};
use argus_objects::{flatten_value, ActionId, GuardianId, Heap, HeapId, Value};
use argus_sim::{CostModel, SimClock};
use argus_slog::{crc32, Encoder, StableLog};
use argus_stable::{CacheConfig, PageStore};
use argus_twopc::{CoordEffect, Coordinator, Msg, PartEffect, Participant};
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const PASSES: usize = 9;

/// Runs `body` `PASSES` times — it returns the seconds its timed part took
/// over `units` units of work — and reports the best nanoseconds per unit.
fn best_ns_per(units: usize, mut body: impl FnMut() -> Res<f64>) -> Res<f64> {
    let ns: Vec<f64> = (0..PASSES)
        .map(|_| body().map(|secs| secs * 1e9 / units as f64))
        .collect::<Res<_>>()?;
    Ok(best_time(&ns))
}

#[derive(Debug, Default, Clone, Copy)]
pub struct LeafOut {
    pub entries: u64,
    pub payload_bytes: u64,
    pub crc32_mb_per_s: f64,
    pub encode_ns_per_entry: f64,
    pub decode_ns_per_entry: f64,
    pub append_ns_per_record: f64,
    pub force_us: f64,
    pub backward_scan_mb_per_s: f64,
    pub write_copy_ns: f64,
    pub flatten_ns_per_object: f64,
    pub park_grant_ns: f64,
    pub twopc_step_ns: f64,
    pub twopc_msgs: f64,
    pub twopc_forces: f64,
    pub counter_inc_ns: f64,
}

/// The span track of the log leaves in the trace file.
pub const TRACK: u32 = 200;

/// Appends every payload, forcing after each `batch` records; returns the
/// seconds spent in `write` and in `force`, and the number of forces.
fn append_all<S: PageStore>(
    log: &mut StableLog<S>,
    payloads: &[Vec<u8>],
    batch: usize,
) -> Res<(f64, f64, u64)> {
    let (mut write_s, mut force_s, mut forces) = (0.0, 0.0, 0);
    for group in payloads.chunks(batch) {
        let t = Instant::now();
        for p in group {
            black_box(log.write(black_box(p)));
        }
        write_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        {
            let _s = spans::enter("slog.force", forces);
            log.force()?;
        }
        force_s += t.elapsed().as_secs_f64();
        forces += 1;
    }
    Ok((write_s, force_s, forces))
}

/// The stable-log leaves on a store built the way the guardian builds it,
/// under a [`crate::stack::TimedStore`]. Pass 0 records spans (forces and
/// the scan, with their page-store children) and is left out of the
/// figures; the other passes run unrecorded.
fn log_leaves<P: StoreProvider>(
    provider: P,
    payloads: &[Vec<u8>],
    batch: usize,
    out: &mut LeafOut,
) -> Res<()> {
    let bytes: usize = payloads.iter().map(Vec::len).sum();
    let mut append_ns = Vec::new();
    let mut force_us = Vec::new();
    let mut scan = Vec::new();
    let mut provider = TimedProvider(provider);
    for pass in 0..=PASSES {
        spans::set(pass == 0, TRACK);
        let mut log = StableLog::create(provider.new_store())?;
        let (write_s, force_s, forces) = append_all(&mut log, payloads, batch)?;
        // A restart reads the log cold: drop what the cache holds.
        log.reopen()?;
        let t = Instant::now();
        let mut seen = 0;
        {
            let _s = spans::enter("slog.read_backward", 0);
            for record in log.read_backward(None) {
                seen += black_box(record?).2.len();
            }
        }
        let scan_s = t.elapsed().as_secs_f64();
        if seen != bytes {
            return Err("backward scan did not return every payload byte".into());
        }
        if pass > 0 {
            append_ns.push(write_s * 1e9 / payloads.len() as f64);
            force_us.push(force_s * 1e6 / forces as f64);
            scan.push(seen as f64 / 1e6 / scan_s);
        }
    }
    spans::set(false, 0);
    out.append_ns_per_record = best_time(&append_ns);
    out.force_us = best_time(&force_us);
    out.backward_scan_mb_per_s = best_rate(&scan);
    Ok(())
}

/// One two-participant commit through the coordinator and participant
/// state machines with every effect executed at once and no I/O. Returns
/// `(messages sent, forces asked for)`.
fn twopc_commit(seq: u64) -> Res<(u64, u64)> {
    let gs = [GuardianId(0), GuardianId(1)];
    let aid = ActionId::new(gs[0], seq);
    let mut coord = Coordinator::new(aid, gs.to_vec());
    let mut parts: [Option<Participant>; 2] = [None, None];
    // (from, to, message)
    let mut mail: VecDeque<(GuardianId, GuardianId, Msg)> = VecDeque::new();
    let (mut msgs, mut forces) = (0, 0);
    let mut finished = false;
    let mut coord_effects: VecDeque<CoordEffect> = coord.start().into();
    loop {
        while let Some(effect) = coord_effects.pop_front() {
            match effect {
                CoordEffect::Send { to, msg } => {
                    msgs += 1;
                    mail.push_back((gs[0], to, msg));
                }
                CoordEffect::ForceCommitting => {
                    forces += 1;
                    coord_effects.extend(coord.committing_forced());
                }
                CoordEffect::ForceDone => {
                    forces += 1;
                    coord_effects.extend(coord.done_forced());
                }
                CoordEffect::Finished { committed } => finished = committed,
            }
        }
        let Some((from, to, msg)) = mail.pop_front() else {
            break;
        };
        let at = to.0 as usize;
        let mut part_effects: VecDeque<PartEffect> = match &msg {
            Msg::Prepare { .. } => {
                let (p, effects) = Participant::on_prepare(aid, from);
                parts[at] = Some(p);
                effects.into()
            }
            Msg::Commit { .. } => parts[at]
                .as_mut()
                .ok_or("commit before prepare")?
                .on_msg(&msg)
                .into(),
            _ => {
                coord_effects.extend(coord.on_msg(from, &msg));
                continue;
            }
        };
        while let Some(effect) = part_effects.pop_front() {
            let part = parts[at].as_mut().ok_or("effect without a participant")?;
            match effect {
                PartEffect::PrepareLocally => {
                    forces += 1;
                    part_effects.extend(part.prepare_succeeded());
                }
                PartEffect::ForceCommit => {
                    forces += 1;
                    part_effects.extend(part.commit_forced());
                }
                PartEffect::ForceAbort => return Err("participant aborted".into()),
                PartEffect::Send { to, msg } => {
                    msgs += 1;
                    mail.push_back((gs[at], to, msg));
                }
                PartEffect::Finished { .. } => {}
            }
        }
    }
    if !finished {
        return Err("two-participant commit did not finish committed".into());
    }
    Ok((msgs, forces))
}

/// Runs every leaf. `log` is the decoded log of the workload, `batch` the
/// records per force the workload averaged, `values` one value per live
/// object.
pub fn replay(
    log: &[LogEntry],
    batch: usize,
    values: &[Value],
    on_files: bool,
    run_dir: &Path,
) -> Res<LeafOut> {
    if log.is_empty() || values.is_empty() {
        return Err("leaf replay needs a captured log and a live set".into());
    }
    // The state machines and the lock manager write to the current registry
    // and tracer; give them private ones.
    let reg = argus_obs::Registry::new();
    let tracer = argus_trace::Tracer::new();
    let (_r, _t) = (reg.enter(), tracer.enter());

    let payloads: Vec<Vec<u8>> = log.iter().map(encode_entry).collect::<Result<_, _>>()?;
    let bytes: usize = payloads.iter().map(Vec::len).sum();
    let mut out = LeafOut {
        entries: payloads.len() as u64,
        payload_bytes: bytes as u64,
        ..LeafOut::default()
    };

    // slog: checksum, codec.
    let crc_ns_per_byte = best_ns_per(bytes, || {
        let t = Instant::now();
        for p in &payloads {
            black_box(crc32(black_box(p)));
        }
        Ok(t.elapsed().as_secs_f64())
    })?;
    out.crc32_mb_per_s = 1e3 / crc_ns_per_byte;

    out.encode_ns_per_entry = best_ns_per(log.len(), || {
        let mut enc = Encoder::with_capacity(bytes);
        let t = Instant::now();
        for entry in log {
            encode_entry_into(&mut enc, &black_box(entry).as_entry_ref())?;
        }
        let secs = t.elapsed().as_secs_f64();
        black_box(enc.len());
        Ok(secs)
    })?;
    out.decode_ns_per_entry = best_ns_per(log.len(), || {
        let t = Instant::now();
        for p in &payloads {
            black_box(decode_entry_view(black_box(p))?.name());
        }
        Ok(t.elapsed().as_secs_f64())
    })?;

    // slog over stable: append, force, backward scan — on the workload's
    // medium, page cache included, as the guardian stacks them.
    let clock = SimClock::new();
    let cache = CacheConfig::default();
    if on_files {
        let files =
            FileProvider::new(run_dir.join("leaf-log"))?.with_device(clock, CostModel::default());
        log_leaves(
            CachedProvider::new(files, cache),
            &payloads,
            batch,
            &mut out,
        )?;
    } else {
        let mem = MemProvider::realistic(clock);
        log_leaves(CachedProvider::new(mem, cache), &payloads, batch, &mut out)?;
    }

    // objects: the copy a write lock makes, and flattening for the log.
    let mut heap = Heap::new();
    let handles: Vec<HeapId> = values
        .iter()
        .map(|v| heap.alloc_atomic(v.clone(), None))
        .collect();
    let aid = ActionId::new(GuardianId(0), 1);
    out.write_copy_ns = best_ns_per(handles.len(), || {
        let t = Instant::now();
        for &h in &handles {
            heap.acquire_write(h, aid)?;
            heap.write_value(h, aid, |v| {
                black_box(v);
            })?;
        }
        let secs = t.elapsed().as_secs_f64();
        heap.abort_action(aid);
        Ok(secs)
    })?;
    out.flatten_ns_per_object = best_ns_per(handles.len(), || {
        let t = Instant::now();
        for v in values {
            black_box(flatten_value(&heap, black_box(v))?);
        }
        Ok(t.elapsed().as_secs_f64())
    })?;

    // cc: park a request and grant it.
    const PARKS: u64 = 2_000;
    out.park_grant_ns = best_ns_per(PARKS as usize, || {
        let mut locks: LockManager<()> = LockManager::new();
        tracer.reset();
        let t = Instant::now();
        for i in 0..PARKS {
            let key = ObjKey {
                gid: GuardianId(0),
                hid: handles[i as usize % handles.len()],
            };
            locks.park(
                key,
                Waiter {
                    aid: ActionId::new(GuardianId(0), i),
                    mode: LockMode::Exclusive,
                    parked_at: i,
                    deadline: None,
                    holder: None,
                    cont: (),
                },
                false,
            );
            black_box(locks.take_front(key));
        }
        Ok(t.elapsed().as_secs_f64())
    })?;

    // twopc: both state machines through one distributed commit.
    const COMMITS: u64 = 2_000;
    let (msgs, forces) = twopc_commit(0)?;
    out.twopc_msgs = msgs as f64;
    out.twopc_forces = forces as f64;
    out.twopc_step_ns = best_ns_per(COMMITS as usize, || {
        tracer.reset();
        let t = Instant::now();
        for seq in 0..COMMITS {
            black_box(twopc_commit(seq)?);
        }
        Ok(t.elapsed().as_secs_f64())
    })?;

    // obs: a by-name counter bump, the form hot paths like
    // `world.obs().inc("cc.retries")` use.
    const INCS: u64 = 100_000;
    out.counter_inc_ns = best_ns_per(INCS as usize, || {
        let t = Instant::now();
        for _ in 0..INCS {
            reg.inc(black_box("bench.probe"));
        }
        Ok(t.elapsed().as_secs_f64())
    })?;

    Ok(out)
}
