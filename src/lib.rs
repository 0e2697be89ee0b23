//! # argus — reliable object storage to support atomic actions
//!
//! A full Rust reproduction of Brian M. Oki's MIT/LCS thesis *Reliable
//! Object Storage to Support Atomic Actions* (1983): the **hybrid log**
//! organization of stable storage for the Argus programming language, with
//! its writing, recovery, and housekeeping algorithms — plus everything it
//! stands on, built from scratch:
//!
//! * [`stable`] — simulated atomic stable storage (Lampson–Sturgis mirrored
//!   disks, fault injection);
//! * [`slog`] — the stable-log abstraction of §3.1;
//! * [`objects`] — recoverable objects: atomic/mutex objects, the volatile
//!   heap, flattening, accessibility;
//! * [`core`] — the recovery system: simple log (ch. 3), hybrid log
//!   (ch. 4), early prepare, housekeeping by compaction and snapshot
//!   (ch. 5);
//! * [`shadow`] — the shadowing baseline of §1.2.1 for head-to-head
//!   comparison;
//! * [`twopc`] — two-phase commit state machines (§2.2);
//! * [`cc`] — concurrency control: lock wait queues, wait-for-graph
//!   deadlock detection, timeout and seeded-backoff retry policies;
//! * [`guardian`] — the Argus guardian substrate and the deterministic
//!   distributed-system simulator;
//! * [`workload`] — banking / reservations / synthetic workload generators;
//! * [`sim`] — the deterministic clock, RNG, and device cost model;
//! * [`obs`] — the zero-dependency metrics layer: counters, histograms and
//!   phase timers on the simulated clock;
//! * [`trace`] — deterministic causal tracing, the stack's one event
//!   stream: per-action spans with 2PC flow edges, the milestones off the
//!   commit path (log opened, crash fired, mirror repair, housekeeping),
//!   exact latency attribution, Chrome trace-event export (`argus-lint
//!   trace`), and the counterexample flight recorder;
//! * [`check`] — the log-invariant linter (I1–I10, also the `argus-lint`
//!   CLI), the heap stale-lock lint I11, the structural trace lint I12,
//!   and the bounded 2PC interleaving explorer.
//!
//! ## Quickstart
//!
//! ```
//! use argus::guardian::{Outcome, RsKind, World};
//! use argus::objects::Value;
//!
//! let mut world = World::fast();
//! let g = world.add_guardian(RsKind::Hybrid).unwrap();
//!
//! // An atomic action binds a stable variable and commits.
//! let action = world.begin(g).unwrap();
//! world.set_stable(g, action, "greeting", Value::from("hello, stable world")).unwrap();
//! assert_eq!(world.commit(action).unwrap(), Outcome::Committed);
//!
//! // The node crashes; recovery rebuilds the stable state from the log.
//! world.crash(g);
//! world.restart(g).unwrap();
//! assert_eq!(
//!     world.guardian(g).unwrap().stable_value("greeting"),
//!     Some(Value::from("hello, stable world")),
//! );
//! ```

pub use argus_cc as cc;
pub use argus_check as check;
pub use argus_core as core;
pub use argus_guardian as guardian;
pub use argus_objects as objects;
pub use argus_obs as obs;
pub use argus_shadow as shadow;
pub use argus_sim as sim;
pub use argus_slog as slog;
pub use argus_stable as stable;
pub use argus_trace as trace;
pub use argus_twopc as twopc;
pub use argus_workload as workload;

/// What [`traced_run`] observed.
#[derive(Debug)]
pub struct TracedRun {
    /// The Chrome trace-event export of the run's whole trace.
    pub chrome_json: String,
    /// The run's metrics: every counter and phase timing.
    pub report: obs::Report,
    /// The I12 trace-lint verdicts.
    pub violations: Vec<check::Violation>,
}

/// One seeded, device-detail traced run of the 3-guardian cross-guardian
/// banking mix on the hybrid log, in a registry and on the thread's tracer
/// — the run `argus-lint trace --seed N` exports and
/// `tests/observable_golden.rs` pins byte for byte.
pub fn traced_run(seed: u64) -> TracedRun {
    use guardian::{RsKind, World};
    use workload::{Banking, BankingConfig};

    let reg = obs::Registry::new();
    let _scope = reg.enter();
    let tracer = trace::current();
    tracer.set_detail(trace::Detail::Device);
    // Building the world binds the simulated clock and resets the tracer:
    // one world, one trace.
    let mut world = World::new(sim::CostModel::default());
    let bank = Banking::setup(
        &mut world,
        RsKind::Hybrid,
        BankingConfig {
            guardians: 3,
            cross_prob: 1.0,
            abort_prob: 0.1,
            ..Default::default()
        },
    )
    .expect("banking setup");
    let mut rng = sim::DetRng::new(seed);
    bank.run(&mut world, &mut rng, 40).expect("banking run");
    assert_eq!(
        bank.total_balance(&world).expect("balance"),
        bank.expected_total(),
        "transfers must conserve the total balance"
    );
    TracedRun {
        chrome_json: trace::to_chrome_json(&tracer.events()),
        report: reg.report(),
        violations: check::lint_trace(world.tracer()),
    }
}
