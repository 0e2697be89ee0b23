//! The airline-reservation workload: seat maps plus a mutex audit trail.

use argus_guardian::{Outcome, RsKind, World, WorldResult};
use argus_objects::{GuardianId, HeapId, ObjRef, Value};
use argus_sim::DetRng;

/// Parameters for the reservations workload.
#[derive(Debug, Clone)]
pub struct ReservationsConfig {
    /// Number of flights.
    pub flights: usize,
    /// Seats per flight.
    pub seats: usize,
}

impl Default for ReservationsConfig {
    fn default() -> Self {
        Self {
            flights: 4,
            seats: 20,
        }
    }
}

/// Counters reported by a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReservationsStats {
    /// Bookings that committed.
    pub booked: u64,
    /// Bookings refused because the seat was taken.
    pub refused: u64,
}

/// A deployed reservations workload on one guardian.
///
/// Each flight is an atomic object holding a `Seq` of seat booleans; the
/// audit trail is a *mutex* object holding a growing `Seq` of booking
/// records — mutating it under `seize` exercises the mutex write and
/// recovery paths (§2.4.2).
#[derive(Debug)]
pub struct Reservations {
    cfg: ReservationsConfig,
    gid: GuardianId,
}

impl Reservations {
    /// Creates the guardian, flights, and audit trail.
    pub fn setup(
        world: &mut World,
        kind: RsKind,
        cfg: ReservationsConfig,
    ) -> WorldResult<Reservations> {
        let gid = world.add_guardian(kind)?;
        let aid = world.begin(gid)?;
        for f in 0..cfg.flights {
            let seats = Value::Seq(vec![Value::Bool(false); cfg.seats]);
            let flight = world.create_atomic(gid, aid, seats)?;
            world.set_stable(gid, aid, &flight_name(f), Value::heap_ref(flight))?;
        }
        let audit = world.create_mutex(gid, Value::Seq(Vec::new()))?;
        world.set_stable(gid, aid, "audit", Value::heap_ref(audit))?;
        let outcome = world.commit(aid)?;
        debug_assert_eq!(outcome, Outcome::Committed);
        Ok(Reservations { cfg, gid })
    }

    /// The guardian hosting the flights.
    pub fn guardian(&self) -> GuardianId {
        self.gid
    }

    fn handle(&self, world: &mut World, name: &str) -> WorldResult<HeapId> {
        match world.guardian(self.gid)?.stable_value(name) {
            Some(Value::Ref(ObjRef::Heap(h))) => Ok(h),
            // A uid reference after an on-demand recovery: the object is
            // still on the log; the heap-miss path materializes it.
            Some(Value::Ref(ObjRef::Uid(u))) => match world.demand(self.gid, u)? {
                Some(h) => Ok(h),
                None => Err(argus_guardian::WorldError::Rs(
                    argus_core::RsError::BadState(format!("{name} dangling: uid {u}")),
                )),
            },
            other => Err(argus_guardian::WorldError::Rs(
                argus_core::RsError::BadState(format!("{name} unresolved: {other:?}")),
            )),
        }
    }

    /// Attempts to book `seat` on `flight`; commits iff the seat was free.
    pub fn book(&self, world: &mut World, flight: usize, seat: usize) -> WorldResult<Outcome> {
        let aid = world.begin(self.gid)?;
        let flight_h = self.handle(world, &flight_name(flight))?;
        let taken = match world.read(self.gid, aid, flight_h)? {
            Value::Seq(seats) => matches!(seats.get(seat), Some(Value::Bool(true))),
            _ => true,
        };
        if taken {
            world.abort_local(aid);
            return Ok(Outcome::Aborted);
        }
        world.write_atomic(self.gid, aid, flight_h, |v| {
            if let Value::Seq(seats) = v {
                if let Some(slot) = seats.get_mut(seat) {
                    *slot = Value::Bool(true);
                }
            }
        })?;
        let audit_h = self.handle(world, "audit")?;
        world.mutate_mutex(self.gid, aid, audit_h, |v| {
            if let Value::Seq(entries) = v {
                entries.push(Value::Seq(vec![
                    Value::Int(flight as i64),
                    Value::Int(seat as i64),
                ]));
            }
        })?;
        world.commit(aid)
    }

    /// Books random seats.
    pub fn run(
        &self,
        world: &mut World,
        rng: &mut DetRng,
        n: u64,
    ) -> WorldResult<ReservationsStats> {
        let mut stats = ReservationsStats::default();
        for _ in 0..n {
            let flight = rng.gen_range(self.cfg.flights as u64) as usize;
            let seat = rng.gen_range(self.cfg.seats as u64) as usize;
            match self.book(world, flight, seat)? {
                Outcome::Committed => stats.booked += 1,
                Outcome::Aborted => stats.refused += 1,
                Outcome::Pending => {}
            }
        }
        Ok(stats)
    }

    /// Counts booked seats across flights (committed view).
    pub fn booked_seats(&self, world: &World) -> WorldResult<u64> {
        let guardian = world.guardian(self.gid)?;
        let mut booked = 0;
        for f in 0..self.cfg.flights {
            if let Some(Value::Ref(ObjRef::Heap(h))) = guardian.stable_value(&flight_name(f)) {
                if let Ok(Value::Seq(seats)) = guardian.heap.read_value(h, None) {
                    booked += seats
                        .iter()
                        .filter(|s| matches!(s, Value::Bool(true)))
                        .count() as u64;
                }
            }
        }
        Ok(booked)
    }

    /// Length of the audit trail (committed view).
    pub fn audit_len(&self, world: &World) -> WorldResult<u64> {
        let guardian = world.guardian(self.gid)?;
        if let Some(Value::Ref(ObjRef::Heap(h))) = guardian.stable_value("audit") {
            if let Ok(Value::Seq(entries)) = guardian.heap.read_value(h, None) {
                return Ok(entries.len() as u64);
            }
        }
        Ok(0)
    }
}

fn flight_name(f: usize) -> String {
    format!("flight{f}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seats_and_audit_agree_after_crash() {
        for kind in RsKind::ALL {
            let mut world = World::fast();
            let resv =
                Reservations::setup(&mut world, kind, ReservationsConfig::default()).unwrap();
            let mut rng = DetRng::new(3);
            let stats = resv.run(&mut world, &mut rng, 40).unwrap();
            assert!(stats.booked > 0);

            world.crash(resv.guardian());
            world.restart(resv.guardian()).unwrap();
            assert_eq!(resv.booked_seats(&world).unwrap(), stats.booked, "{kind:?}");
            assert_eq!(resv.audit_len(&world).unwrap(), stats.booked, "{kind:?}");
        }
    }

    #[test]
    fn double_booking_is_refused() {
        let mut world = World::fast();
        let resv =
            Reservations::setup(&mut world, RsKind::Hybrid, ReservationsConfig::default()).unwrap();
        assert_eq!(resv.book(&mut world, 0, 0).unwrap(), Outcome::Committed);
        assert_eq!(resv.book(&mut world, 0, 0).unwrap(), Outcome::Aborted);
        assert_eq!(resv.booked_seats(&world).unwrap(), 1);
    }
}
