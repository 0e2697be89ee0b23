//! Cached metric handles for the recovery systems.
//!
//! Resolved once per recovery-system construction against the ambient
//! [`argus_obs`] registry ([`argus_obs::current`]), so the hot paths touch
//! only pre-looked-up atomic handles — no name lookups per log write.

use crate::tables::RecoveryOutcome;
use argus_obs::{Counter, Timer};

/// One recovery system's metric handles.
#[derive(Debug, Clone)]
pub(crate) struct CoreObs {
    pub prepares: Counter,
    pub early_prepares: Counter,
    pub commits: Counter,
    pub aborts: Counter,
    pub committings: Counter,
    pub dones: Counter,
    pub recoveries: Counter,
    pub entries_examined: Counter,
    pub data_entries_read: Counter,
    pub chain_hops: Counter,
    pub data_entries: Counter,
    pub data_bytes: Counter,
    pub hk_passes: Counter,
    pub hk_reclaimed: Counter,
    pub lazy_restores: Counter,
    pub prepare_us: Timer,
    pub recover_us: Timer,
    pub hk_begin_us: Timer,
    pub hk_finish_us: Timer,
}

impl CoreObs {
    pub fn resolve() -> Self {
        let reg = argus_obs::current();
        Self {
            prepares: reg.counter("core.prepares"),
            early_prepares: reg.counter("core.early_prepares"),
            commits: reg.counter("core.commits"),
            aborts: reg.counter("core.aborts"),
            committings: reg.counter("core.committings"),
            dones: reg.counter("core.dones"),
            recoveries: reg.counter("core.recoveries"),
            entries_examined: reg.counter("core.recover.entries_examined"),
            data_entries_read: reg.counter("core.recover.data_entries_read"),
            chain_hops: reg.counter("core.recover.chain_hops"),
            data_entries: reg.counter("core.entries.data"),
            data_bytes: reg.counter("core.entries.data_bytes"),
            hk_passes: reg.counter("core.hk.passes"),
            hk_reclaimed: reg.counter("core.hk.entries_reclaimed"),
            lazy_restores: reg.counter("core.recover.lazy_restores"),
            prepare_us: reg.timer("core.prepare_us"),
            recover_us: reg.timer("core.recover_us"),
            hk_begin_us: reg.timer("core.hk.begin_us"),
            hk_finish_us: reg.timer("core.hk.finish_us"),
        }
    }

    /// Records one data entry appended.
    pub fn data_entry(&self, bytes: u64) {
        self.data_entries.inc();
        self.data_bytes.add(bytes);
    }

    /// Records one finished recovery pass: the counters the thesis's E2/E3
    /// experiments compare across schemes.
    pub fn recovery_pass(&self, out: &RecoveryOutcome) {
        self.recoveries.inc();
        self.entries_examined.add(out.entries_examined);
        self.data_entries_read.add(out.data_entries_read);
        self.chain_hops.add(out.chain_hops);
    }
}
