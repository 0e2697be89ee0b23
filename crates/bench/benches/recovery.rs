//! E2: crash-recovery cost versus history length, on the bespoke
//! `argus_obs::bench` harness.
//!
//! Crash + recover is repeatable on the same stable log, so each iteration
//! re-runs recovery against the identical media.

use argus_guardian::{RsKind, World};
use argus_obs::bench::{run, BenchReport, BenchSpec};
use argus_sim::{CostModel, DetRng};
use argus_workload::{Synth, SynthConfig};

fn main() {
    let mut report = BenchReport::new("recovery");
    for kind in RsKind::ALL {
        for history in [500u64, 2_000] {
            let mut world = World::new(CostModel::fast());
            let mut synth = Synth::setup(
                &mut world,
                kind,
                SynthConfig {
                    objects: 128,
                    writes_per_action: 4,
                    value_size: 48,
                    ..Default::default()
                },
            )
            .expect("setup");
            let g = synth.guardian();
            let mut rng = DetRng::new(2);
            synth.run(&mut world, &mut rng, history).expect("run");
            let clock = world.clock.clone();
            report.push(run(
                &format!("{kind:?}/{history}"),
                &clock,
                BenchSpec::iters(20),
                || {
                    world.crash(g);
                    world.restart(g).expect("recover");
                },
            ));
        }
    }
    println!("{report}");
}
