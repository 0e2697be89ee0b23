//! The benchmark's own span recorder: wall-clock spans around calls into
//! each layer, kept in memory and written out when the run ends.
//!
//! Spans are recorded from this package's files only — around `World`
//! calls, around the recovery-system operations of the stack replay, and
//! by [`crate::stack::TimedStore`] around the page-store calls underneath
//! them. A span's parent is the span open when it began, so a layer's self
//! time is its span minus the part its children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept for the trace file, per track. Totals per name cover
/// every span; the file holds each track's first `KEEP_PER_TRACK`, which is
/// plenty to read in a viewer and keeps `benchmark/out/` small.
const KEEP_PER_TRACK: u32 = 4_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Trace-viewer track: one per organization lane.
    pub track: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span among the kept spans.
    pub parent: Option<u32>,
    /// Spans of one client action (or one restart) share this id.
    pub action: u64,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Total {
    pub count: u64,
    pub ns: u64,
    /// Time covered by direct children.
    pub child_ns: u64,
}

impl Total {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64
        }
    }
}

struct Open {
    name: &'static str,
    start_ns: u64,
    kept: Option<u32>,
    child_ns: u64,
}

struct Recorder {
    t0: Instant,
    on: bool,
    track: u32,
    stack: Vec<Open>,
    kept: Vec<Span>,
    kept_on_track: BTreeMap<u32, u32>,
    totals: BTreeMap<(u32, &'static str), Total>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        t0: Instant::now(),
        on: false,
        track: 0,
        stack: Vec::new(),
        kept: Vec::new(),
        kept_on_track: BTreeMap::new(),
        totals: BTreeMap::new(),
    });
}

/// Turns recording on or off and selects the track new spans land on.
/// Untraced lanes run with recording off: `enter` is then one thread-local
/// flag test.
pub fn set(on: bool, track: u32) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = on;
        r.track = track;
    });
}

/// Forgets every span and total: each pass starts its own trace.
pub fn reset() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.t0 = Instant::now();
        r.stack.clear();
        r.kept.clear();
        r.kept_on_track.clear();
        r.totals.clear();
    });
}

/// Closes its span when dropped.
pub struct Guard(bool);

pub fn enter(name: &'static str, action: u64) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard(false);
        }
        let start_ns = r.t0.elapsed().as_nanos() as u64;
        let track = r.track;
        let on_track = r.kept_on_track.entry(track).or_default();
        let room = *on_track < KEEP_PER_TRACK;
        *on_track += u32::from(room);
        let kept = room.then(|| {
            let parent = r.stack.last().and_then(|o| o.kept);
            r.kept.push(Span {
                name,
                track,
                start_ns,
                end_ns: start_ns,
                parent,
                action,
            });
            (r.kept.len() - 1) as u32
        });
        r.stack.push(Open {
            name,
            start_ns,
            kept,
            child_ns: 0,
        });
        Guard(true)
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end_ns = r.t0.elapsed().as_nanos() as u64;
            let open = r.stack.pop().expect("guards drop in stack order");
            let dur = end_ns - open.start_ns;
            if let Some(i) = open.kept {
                r.kept[i as usize].end_ns = end_ns;
            }
            if let Some(parent) = r.stack.last_mut() {
                parent.child_ns += dur;
            }
            let track = r.track;
            let t = r.totals.entry((track, open.name)).or_default();
            t.count += 1;
            t.ns += dur;
            t.child_ns += open.child_ns;
        });
    }
}

/// Totals of one span name on one track.
pub fn total(track: u32, name: &'static str) -> Total {
    REC.with(|r| {
        r.borrow()
            .totals
            .get(&(track, name))
            .copied()
            .unwrap_or_default()
    })
}

/// Totals of one span name summed over all tracks.
pub fn total_all(name: &'static str) -> Total {
    REC.with(|r| {
        let r = r.borrow();
        let mut sum = Total::default();
        for ((_, n), t) in r.totals.iter() {
            if *n == name {
                sum.count += t.count;
                sum.ns += t.ns;
                sum.child_ns += t.child_ns;
            }
        }
        sum
    })
}

/// Checks the kept spans: every child lies inside its parent, and the
/// children of one parent do not overlap (so children plus self time sum to
/// the parent's span). Returns `(spans checked, violations)`.
pub fn check_nesting() -> (u64, u64) {
    REC.with(|r| {
        let r = r.borrow();
        let mut bad = 0;
        let mut last_child_end: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &r.kept {
            let Some(p) = s.parent else { continue };
            let parent = &r.kept[p as usize];
            let inside = parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns;
            let after_sibling = last_child_end.get(&p).is_none_or(|&e| e <= s.start_ns);
            if !inside || !after_sibling {
                bad += 1;
            }
            last_child_end.insert(p, s.end_ns);
        }
        (r.kept.len() as u64, bad)
    })
}

/// Writes the kept spans as Chrome trace-event JSON (open in Perfetto or
/// `chrome://tracing`). `tracks` names each track.
pub fn write_chrome(path: &std::path::Path, tracks: &[(u32, String)]) -> std::io::Result<usize> {
    REC.with(|r| {
        let r = r.borrow();
        let mut out = String::with_capacity(r.kept.len() * 120 + 256);
        out.push_str("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        for (tid, name) in tracks {
            let _ = writeln!(
                out,
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"args\": {{\"name\": \"{name}\"}}}},"
            );
        }
        for (i, s) in r.kept.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or("");
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{layer}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {}, \"action\": {}, \"start_ns\": {}, \"end_ns\": {}}}}}",
                s.name,
                s.track,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or(-1, i64::from),
                s.action,
                s.start_ns,
                s.end_ns,
            );
            out.push_str(if i + 1 == r.kept.len() { "\n" } else { ",\n" });
        }
        out.push_str("]}\n");
        // With no kept spans the metadata rows end in a comma; drop it.
        if r.kept.is_empty() {
            if let Some(pos) = out.rfind(",\n]}") {
                out.replace_range(pos..pos + 1, "");
            }
        }
        std::fs::write(path, out)?;
        Ok(r.kept.len())
    })
}
