//! E1: write cost per committed action across the storage
//! organizations, on the bespoke `argus_obs::bench` harness.

use argus_guardian::{RsKind, World};
use argus_obs::bench::{run, BenchReport, BenchSpec};
use argus_sim::{CostModel, DetRng};
use argus_workload::{Synth, SynthConfig};

fn main() {
    let mut report = BenchReport::new("write_path");
    for kind in RsKind::ALL {
        for writes in [1usize, 16] {
            let mut world = World::new(CostModel::fast());
            let mut synth = Synth::setup(
                &mut world,
                kind,
                SynthConfig {
                    objects: 256,
                    writes_per_action: writes,
                    value_size: 48,
                    ..Default::default()
                },
            )
            .expect("setup");
            let mut rng = DetRng::new(1);
            let clock = world.clock.clone();
            report.push(run(
                &format!("{kind:?}/{writes}"),
                &clock,
                BenchSpec::default(),
                || {
                    synth.action(&mut world, &mut rng, false).expect("action");
                },
            ));
        }
    }
    println!("{report}");
}
