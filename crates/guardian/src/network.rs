//! The simulated network.

use argus_objects::GuardianId;
use argus_obs::{Count, Registry};
use argus_sim::{DetRng, IntSet};
use argus_twopc::Envelope;
use std::collections::{BTreeSet, VecDeque};

/// Deterministic message-fault injection: drops, duplication, reordering.
///
/// The two-phase-commit machines must tolerate a network that loses,
/// duplicates, and reorders messages (§2.2 assumes only that "eventually any
/// two nodes can communicate"). Probabilities are driven by a seeded RNG, so
/// a faulty run is exactly reproducible. Drops are one-shot message loss —
/// the protocol's retry and query paths regenerate the traffic, which is
/// what keeps delivery eventual.
#[derive(Debug)]
pub struct NetFaults {
    rng: DetRng,
    /// Probability a delivered message is also re-enqueued (duplicate).
    pub duplicate_prob: f64,
    /// Probability a message is deferred behind the rest of the queue
    /// (reordering); each message is deferred at most twice so delivery
    /// remains eventual.
    pub defer_prob: f64,
    /// Probability a message is lost at delivery time.
    pub drop_prob: f64,
}

impl NetFaults {
    /// Creates an injector with the given seed and probabilities (no drops).
    pub fn new(seed: u64, duplicate_prob: f64, defer_prob: f64) -> Self {
        Self {
            rng: DetRng::new(seed),
            duplicate_prob,
            defer_prob,
            drop_prob: 0.0,
        }
    }

    /// Adds one-shot message loss with the given probability.
    pub fn with_drop(mut self, drop_prob: f64) -> Self {
        self.drop_prob = drop_prob;
        self
    }
}

/// A deterministic store-and-forward network.
///
/// Messages are delivered in FIFO order, one at a time, by the world's event
/// loop — unless a [`NetFaults`] injector is installed, in which case
/// messages may be dropped, duplicated, or deferred. Messages addressed to a
/// crashed guardian are dropped at delivery time — the protocol's
/// retry/query paths are what recover from the loss, exactly as over a real
/// network.
///
/// Two fault shapes *hold* mail instead of losing it, preserving the
/// eventual-delivery liveness assumption of §2.2:
///
/// * **Partitions** ([`SimNetwork::partition`]): messages between the two
///   guardians are parked until the pair is healed.
/// * **Pauses** ([`SimNetwork::pause`]): a paused guardian receives nothing
///   until resumed — it sleeps while the rest of the world's clock runs.
///
/// A message the fault injector *deferred* is also held, not dropped, if its
/// recipient crashes before it finally pops: it is still in the network, and
/// arrives after the restart like any delayed packet.
#[derive(Debug)]
pub struct SimNetwork {
    /// Pending messages: the envelope, how often it has been deferred, and
    /// the trace flow id opened at send time (closed at delivery; a dropped
    /// message leaves its flow unresolved, which is what the trace shows).
    queue: VecDeque<(Envelope, u8, Option<u64>)>,
    /// Messages parked by a partition, a paused recipient, or a crash that
    /// caught a deferred message in flight. Re-enqueued when unblocked.
    held: VecDeque<(Envelope, u8, Option<u64>)>,
    down: IntSet<GuardianId>,
    partitions: BTreeSet<(GuardianId, GuardianId)>,
    paused: BTreeSet<GuardianId>,
    faults: Option<NetFaults>,
    delivered: u64,
    dropped: u64,
    fault_dropped: u64,
    duplicated: u64,
    deferred: u64,
    partitioned: u64,
    /// The registry the tallies are mirrored into and the tracer message
    /// flows are drawn on: both the ones current when the network is built.
    obs: Registry,
    tracer: argus_trace::Tracer,
}

fn pair(a: GuardianId, b: GuardianId) -> (GuardianId, GuardianId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Default for SimNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl SimNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self {
            queue: VecDeque::new(),
            held: VecDeque::new(),
            down: IntSet::default(),
            partitions: BTreeSet::new(),
            paused: BTreeSet::new(),
            faults: None,
            delivered: 0,
            dropped: 0,
            fault_dropped: 0,
            duplicated: 0,
            deferred: 0,
            partitioned: 0,
            obs: argus_obs::current(),
            tracer: argus_trace::current(),
        }
    }

    /// Installs (or removes) a fault injector.
    pub fn set_faults(&mut self, faults: Option<NetFaults>) {
        self.faults = faults;
    }

    /// Enqueues a message, opening the trace flow edge that ties the send
    /// on the sender's lane to the delivery on the receiver's.
    pub fn send(&mut self, envelope: Envelope) {
        self.obs.inc(Count::NetSent);
        if envelope.from == envelope.to {
            self.obs.inc(Count::NetSelfSent);
        }
        let aid = envelope.msg.aid();
        let flow = self.tracer.flow_start(
            envelope.msg.flow(),
            envelope.from.0,
            Some(argus_trace::Key::new(aid.coordinator.0, aid.seq)),
        );
        self.queue.push_back((envelope, 0, Some(flow)));
    }

    /// Pops the next deliverable message: parks mail blocked by partitions
    /// or pauses, silently drops fresh mail addressed to down guardians,
    /// and applies any installed fault injection.
    pub fn deliver_next(&mut self) -> Option<Envelope> {
        while let Some((envelope, deferrals, flow)) = self.queue.pop_front() {
            if self.is_partitioned(envelope.from, envelope.to) {
                self.partitioned += 1;
                self.obs.inc(Count::NetPartitioned);
                self.held.push_back((envelope, deferrals, flow));
                continue;
            }
            if self.paused.contains(&envelope.to) {
                self.held.push_back((envelope, deferrals, flow));
                continue;
            }
            if self.down.contains(&envelope.to) {
                if deferrals > 0 {
                    // A deferred message is still in the network: it must
                    // survive the recipient's crash and arrive after the
                    // restart, not vanish with the volatile state.
                    self.held.push_back((envelope, deferrals, flow));
                    continue;
                }
                self.dropped += 1;
                self.obs.inc(Count::NetDropped);
                continue;
            }
            if let Some(faults) = &mut self.faults {
                // One-shot loss: the retry/query paths regenerate traffic,
                // so delivery stays eventual.
                if faults.rng.gen_bool(faults.drop_prob) {
                    self.dropped += 1;
                    self.fault_dropped += 1;
                    self.obs.inc(Count::NetDropped);
                    continue;
                }
                // Defer (reorder) with bounded retries so delivery stays
                // eventual.
                if deferrals < 2 && !self.queue.is_empty() && faults.rng.gen_bool(faults.defer_prob)
                {
                    self.deferred += 1;
                    self.queue.push_back((envelope, deferrals + 1, flow));
                    continue;
                }
                if faults.rng.gen_bool(faults.duplicate_prob) {
                    self.duplicated += 1;
                    // The duplicate shares the original's flow id: both
                    // deliveries trace back to the one send.
                    self.queue.push_back((envelope.clone(), 2, flow));
                }
            }
            self.delivered += 1;
            self.obs.inc(Count::NetDelivered);
            if let Some(flow) = flow {
                let aid = envelope.msg.aid();
                self.tracer.flow_end(
                    envelope.msg.flow(),
                    envelope.to.0,
                    Some(argus_trace::Key::new(aid.coordinator.0, aid.seq)),
                    flow,
                );
            }
            return Some(envelope);
        }
        None
    }

    /// Whether a held or queued message is currently blocked from delivery.
    fn blocked(&self, envelope: &Envelope, deferrals: u8) -> bool {
        self.is_partitioned(envelope.from, envelope.to)
            || self.paused.contains(&envelope.to)
            || (deferrals > 0 && self.down.contains(&envelope.to))
    }

    /// Moves every no-longer-blocked held message back onto the queue (at
    /// the back: unblocking reorders, which the protocol must tolerate).
    fn release_held(&mut self) {
        let held = std::mem::take(&mut self.held);
        for (envelope, deferrals, flow) in held {
            if self.blocked(&envelope, deferrals) {
                self.held.push_back((envelope, deferrals, flow));
            } else {
                self.queue.push_back((envelope, deferrals, flow));
            }
        }
    }

    /// Partitions the pair: mail between `a` and `b` (both directions) is
    /// held until [`SimNetwork::heal`].
    pub fn partition(&mut self, a: GuardianId, b: GuardianId) {
        self.partitions.insert(pair(a, b));
    }

    /// Heals the pair's partition; held mail between them flows again.
    pub fn heal(&mut self, a: GuardianId, b: GuardianId) {
        self.partitions.remove(&pair(a, b));
        self.release_held();
    }

    /// Heals every active partition.
    pub fn heal_all(&mut self) {
        self.partitions.clear();
        self.release_held();
    }

    /// Whether the pair is currently partitioned.
    pub fn is_partitioned(&self, a: GuardianId, b: GuardianId) -> bool {
        self.partitions.contains(&pair(a, b))
    }

    /// Pauses a guardian: its incoming mail is held (not lost) until
    /// [`SimNetwork::resume`] — the node sleeps while world time advances.
    pub fn pause(&mut self, g: GuardianId) {
        self.paused.insert(g);
    }

    /// Resumes a paused guardian; its held mail flows again.
    pub fn resume(&mut self, g: GuardianId) {
        self.paused.remove(&g);
        self.release_held();
    }

    /// Whether the guardian is paused.
    pub fn is_paused(&self, g: GuardianId) -> bool {
        self.paused.contains(&g)
    }

    /// Marks a guardian down (its fresh messages will be dropped).
    pub fn mark_down(&mut self, g: GuardianId) {
        self.down.insert(g);
    }

    /// Marks a guardian up again; mail deferred past its crash flows again.
    pub fn mark_up(&mut self, g: GuardianId) {
        self.down.remove(&g);
        self.release_held();
    }

    /// Whether any messages are pending, held mail included.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty() && self.held.is_empty()
    }

    /// Pending message count, held mail included.
    pub fn len(&self) -> usize {
        self.queue.len() + self.held.len()
    }

    /// Messages currently parked by partitions, pauses, or crashes.
    pub fn held_len(&self) -> usize {
        self.held.len()
    }

    /// Total messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total messages dropped (addressed to down guardians, or lost by the
    /// fault injector).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Messages lost by the fault injector's `drop_prob` alone.
    pub fn fault_dropped(&self) -> u64 {
        self.fault_dropped
    }

    /// Total duplicate deliveries injected.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Total deferrals (reorderings) injected.
    pub fn deferred(&self) -> u64 {
        self.deferred
    }

    /// Total delivery attempts parked by an active partition.
    pub fn partitioned(&self) -> u64 {
        self.partitioned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_objects::ActionId;
    use argus_twopc::Msg;

    fn env(from: u32, to: u32) -> Envelope {
        Envelope {
            from: GuardianId(from),
            to: GuardianId(to),
            msg: Msg::Prepare {
                aid: ActionId::new(GuardianId(from), 1),
            },
        }
    }

    #[test]
    fn fifo_delivery() {
        let mut net = SimNetwork::new();
        net.send(env(0, 1));
        net.send(env(1, 0));
        assert_eq!(net.deliver_next().unwrap().to, GuardianId(1));
        assert_eq!(net.deliver_next().unwrap().to, GuardianId(0));
        assert!(net.deliver_next().is_none());
        assert_eq!(net.delivered(), 2);
    }

    #[test]
    fn down_guardians_drop_mail() {
        let mut net = SimNetwork::new();
        net.mark_down(GuardianId(1));
        net.send(env(0, 1));
        net.send(env(0, 2));
        let delivered = net.deliver_next().unwrap();
        assert_eq!(delivered.to, GuardianId(2));
        assert_eq!(net.dropped(), 1);
        net.mark_up(GuardianId(1));
        net.send(env(0, 1));
        assert_eq!(net.deliver_next().unwrap().to, GuardianId(1));
    }

    #[test]
    fn partitioned_mail_is_held_then_heals() {
        let mut net = SimNetwork::new();
        net.partition(GuardianId(0), GuardianId(1));
        net.send(env(0, 1));
        net.send(env(1, 0)); // both directions blocked
        net.send(env(0, 2)); // unaffected pair
        assert_eq!(net.deliver_next().unwrap().to, GuardianId(2));
        assert!(net.deliver_next().is_none());
        assert_eq!(net.held_len(), 2);
        assert_eq!(net.partitioned(), 2);
        assert_eq!(net.dropped(), 0, "partitions hold, never lose");
        net.heal(GuardianId(0), GuardianId(1));
        assert_eq!(net.deliver_next().unwrap().to, GuardianId(1));
        assert_eq!(net.deliver_next().unwrap().to, GuardianId(0));
        assert!(net.is_empty());
    }

    #[test]
    fn paused_guardian_mail_is_held_until_resume() {
        let mut net = SimNetwork::new();
        net.pause(GuardianId(1));
        net.send(env(0, 1));
        assert!(net.deliver_next().is_none());
        assert_eq!(net.held_len(), 1);
        net.resume(GuardianId(1));
        assert_eq!(net.deliver_next().unwrap().to, GuardianId(1));
    }

    #[test]
    fn drop_prob_loses_mail() {
        let mut net = SimNetwork::new();
        net.set_faults(Some(NetFaults::new(7, 0.0, 0.0).with_drop(1.0)));
        net.send(env(0, 1));
        assert!(net.deliver_next().is_none());
        assert_eq!(net.fault_dropped(), 1);
        assert_eq!(net.dropped(), 1);
    }

    #[test]
    fn deferred_mail_survives_a_crash_of_its_recipient() {
        let mut net = SimNetwork::new();
        // Always defer: two messages chase each other to the deferral cap,
        // then the first (now with deferrals > 0) delivers.
        net.set_faults(Some(NetFaults::new(3, 0.0, 1.0)));
        net.send(env(0, 1));
        net.send(env(0, 2));
        assert_eq!(net.deliver_next().unwrap().to, GuardianId(1));
        // The remaining message for G2 sits in the queue with deferrals > 0:
        // conceptually delayed in the network. G2 now crashes.
        net.mark_down(GuardianId(2));
        assert!(net.deliver_next().is_none());
        assert_eq!(net.dropped(), 0, "a deferred message must not be lost");
        assert_eq!(net.held_len(), 1);
        // After the restart the delayed message arrives.
        net.mark_up(GuardianId(2));
        assert_eq!(net.deliver_next().unwrap().to, GuardianId(2));
    }
}
