//! What the run loop needs from a workload: rounds of client actions,
//! housekeeping, crash and restart, and a check of every stored value.

use argus_core::LogEntry;
use argus_guardian::World;
use argus_objects::GuardianId;
use argus_slog::LogAddress;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

#[derive(Debug, Default, Clone, Copy)]
pub struct ChunkOut {
    /// Client actions issued.
    pub attempted: u64,
    /// Of those, acknowledged as committed.
    pub commits: u64,
    /// Bytes of object values the committed actions wrote.
    pub user_bytes: u64,
}

pub trait Target {
    fn world(&self) -> &World;
    fn world_mut(&mut self) -> &mut World;
    fn guardians(&self) -> &[GuardianId];
    /// Bytes of live object values — the denominator of `space_amp`.
    fn live_user_bytes(&self) -> u64;
    /// Runs one chunk of rounds, pushing each round's wall latency.
    fn chunk(&mut self, lat_ns: &mut Vec<u64>) -> Res<ChunkOut>;
    /// Compacts every guardian's stable state.
    fn housekeep(&mut self) -> Res<()>;
    /// Crashes every guardian: volatile state and unflushed pages are lost.
    fn crash(&mut self);
    /// Restarts every guardian.
    fn restart(&mut self) -> Res<()>;
    /// Compares every stored value with the generator's record of what was
    /// acknowledged. Returns `(values checked, mismatches)`.
    fn verify(&mut self) -> Res<(u64, u64)>;
    /// The decoded log of guardian `g`, `None` for shadowing.
    fn dump_log(&mut self, g: GuardianId) -> Res<Option<Vec<(LogAddress, LogEntry)>>> {
        Ok(self.world_mut().dump_log(g)?)
    }
    /// One small action, timed by the caller as the first commit after a
    /// restart. Requires a preceding `verify` (it re-resolves handles).
    fn first_commit(&mut self) -> Res<ChunkOut>;
}
