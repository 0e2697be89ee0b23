//! Deadlock search over the wait-for relation, computed only where the
//! search goes.

use crate::{LockManager, LockMode, ObjKey};
use argus_objects::ActionId;
use argus_sim::IntSet;

/// Finds wait-for cycles through a newly parked action.
///
/// An edge `a → b` means "`a` cannot proceed until `b` releases a lock (or
/// leaves the queue ahead of `a`)". For each request `a` has parked:
///
/// * `a` → each holder that blocks the request — the writer (or mutex
///   possessor), and every reader if the request is exclusive;
/// * `a` → each earlier waiter in the same queue whose mode is incompatible
///   (FIFO order means the later one cannot be granted before the earlier
///   one completes).
///
/// A cycle is a deadlock: every action on it waits for another on it. Only
/// the newest parker needs checking — grants never add edges, so any cycle
/// passes through the most recent parker — so the search starts there and
/// derives an action's edges from its own requests when it first visits
/// it; nothing is computed for the rest of the lock table. The buffers are
/// kept from search to search.
#[derive(Debug, Default)]
pub struct DeadlockSearch {
    /// The successor lists of the actions on the current path, back to
    /// back, each in action-id order.
    succ: Vec<ActionId>,
    /// Per action on the path: where its successors start in `succ`, and
    /// the next one to try.
    frames: Vec<(usize, usize)>,
    path: Vec<ActionId>,
    visited: IntSet<ActionId>,
}

impl DeadlockSearch {
    /// An idle search.
    pub fn new() -> Self {
        Self::default()
    }

    /// Searches `lm` for a cycle through `start` and returns its members in
    /// path order (`start` first), or `None`. Deterministic: the depth-first
    /// search visits an action's successors in action-id order, each once.
    ///
    /// `holders(key, mode, out)` appends to `out` the current lock holders
    /// of `key` that a request in `mode` waits on: the writer (or
    /// possessor), and the readers too when `mode` is exclusive — nothing
    /// when the object's guardian is down. Duplicates and the requester
    /// itself are dropped here.
    pub fn cycle_through<C>(
        &mut self,
        lm: &LockManager<C>,
        start: ActionId,
        mut holders: impl FnMut(ObjKey, LockMode, &mut Vec<ActionId>),
    ) -> Option<Vec<ActionId>> {
        self.succ.clear();
        self.frames.clear();
        self.path.clear();
        self.visited.clear();
        self.visited.insert(start);
        self.enter(lm, start, &mut holders);
        while let Some(frame) = self.frames.last_mut() {
            let (begin, at) = *frame;
            let Some(&next) = self.succ.get(at) else {
                self.succ.truncate(begin);
                self.frames.pop();
                self.path.pop();
                continue;
            };
            frame.1 += 1;
            if next == start {
                return Some(self.path.clone());
            }
            if self.visited.insert(next) {
                self.enter(lm, next, &mut holders);
            }
        }
        None
    }

    /// Puts `a` on the path with its successors on top of `succ`.
    fn enter<C>(
        &mut self,
        lm: &LockManager<C>,
        a: ActionId,
        holders: &mut impl FnMut(ObjKey, LockMode, &mut Vec<ActionId>),
    ) {
        let begin = self.succ.len();
        for &key in lm.parked_keys(a) {
            let queue = lm.queue(key);
            for (i, waiter) in queue.clone().enumerate().filter(|(_, w)| w.aid == a) {
                holders(key, waiter.mode, &mut self.succ);
                let ahead = queue.clone().take(i);
                let blocking = ahead.filter(|e| !waiter.mode.compatible(e.mode));
                self.succ.extend(blocking.map(|e| e.aid));
            }
        }
        self.succ[begin..].sort_unstable();
        let mut kept = begin;
        for at in begin..self.succ.len() {
            let b = self.succ[at];
            if b != a && (kept == begin || self.succ[kept - 1] != b) {
                self.succ[kept] = b;
                kept += 1;
            }
        }
        self.succ.truncate(kept);
        self.frames.push((begin, begin));
        self.path.push(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Waiter;
    use argus_objects::{GuardianId, HeapId};
    use argus_sim::DetRng;
    use std::collections::{BTreeMap, BTreeSet};

    /// The lock holders of one object, snapshotted from a heap.
    #[derive(Debug, Clone, Default)]
    struct LockHolders {
        writer: Option<ActionId>,
        readers: Vec<ActionId>,
    }

    /// The whole wait-for graph, built from every queue and a holder
    /// snapshot of every queued object — how deadlocks were found before
    /// the search above, kept as its oracle.
    #[derive(Debug, Default, Clone)]
    struct WaitForGraph {
        edges: BTreeMap<ActionId, BTreeSet<ActionId>>,
    }

    impl WaitForGraph {
        fn new() -> Self {
            Self::default()
        }

        /// Adds the edge `from → to`; self-edges are ignored.
        fn add_edge(&mut self, from: ActionId, to: ActionId) {
            if from != to {
                self.edges.entry(from).or_default().insert(to);
            }
        }

        fn edge_count(&self) -> usize {
            self.edges.values().map(BTreeSet::len).sum()
        }

        fn successors(&self, a: ActionId) -> impl Iterator<Item = ActionId> + '_ {
            self.edges.get(&a).into_iter().flatten().copied()
        }

        fn cycle_through(&self, start: ActionId) -> Option<Vec<ActionId>> {
            let mut path = vec![start];
            let mut visited = BTreeSet::from([start]);
            self.dfs(start, start, &mut visited, &mut path)
                .then_some(path)
        }

        fn dfs(
            &self,
            node: ActionId,
            target: ActionId,
            visited: &mut BTreeSet<ActionId>,
            path: &mut Vec<ActionId>,
        ) -> bool {
            for next in self.successors(node) {
                if next == target {
                    return true;
                }
                if visited.insert(next) {
                    path.push(next);
                    if self.dfs(next, target, visited, path) {
                        return true;
                    }
                    path.pop();
                }
            }
            false
        }
    }

    /// Every edge of every queue, given the holders of every queued object
    /// whose guardian is up.
    fn wait_for_edges<C>(
        lm: &LockManager<C>,
        holders: &BTreeMap<ObjKey, LockHolders>,
    ) -> WaitForGraph {
        let mut graph = WaitForGraph::new();
        for front in lm.fronts(None) {
            let queue = lm.queue(front.key);
            let held = holders.get(&front.key);
            for (i, waiter) in queue.clone().enumerate() {
                if let Some(held) = held {
                    if let Some(writer) = held.writer {
                        graph.add_edge(waiter.aid, writer);
                    }
                    if waiter.mode == LockMode::Exclusive {
                        for &reader in &held.readers {
                            graph.add_edge(waiter.aid, reader);
                        }
                    }
                }
                for earlier in queue.clone().take(i) {
                    if !waiter.mode.compatible(earlier.mode) {
                        graph.add_edge(waiter.aid, earlier.aid);
                    }
                }
            }
        }
        graph
    }

    /// The search above over a holder table like the oracle's.
    fn search<C>(
        lm: &LockManager<C>,
        holders: &BTreeMap<ObjKey, LockHolders>,
        start: ActionId,
    ) -> Option<Vec<ActionId>> {
        DeadlockSearch::new().cycle_through(lm, start, |key, mode, out| {
            if let Some(held) = holders.get(&key) {
                out.extend(held.writer);
                if mode == LockMode::Exclusive {
                    out.extend(&held.readers);
                }
            }
        })
    }

    fn a(n: u64) -> ActionId {
        ActionId::new(GuardianId(0), n)
    }

    fn key(g: u32, h: u32) -> ObjKey {
        ObjKey {
            gid: GuardianId(g),
            hid: HeapId(h),
        }
    }

    fn waiter(aid: ActionId, mode: LockMode) -> Waiter<()> {
        Waiter {
            aid,
            mode,
            parked_at: 0,
            deadline: None,
            holder: None,
            cont: (),
        }
    }

    fn graph(edges: &[(u64, u64)]) -> WaitForGraph {
        let mut g = WaitForGraph::new();
        for &(from, to) in edges {
            g.add_edge(a(from), a(to));
        }
        g
    }

    #[test]
    fn oracle_finds_no_cycle_in_a_chain() {
        let g = graph(&[(1, 2), (2, 3)]);
        assert_eq!(g.cycle_through(a(1)), None);
        assert_eq!(g.cycle_through(a(3)), None);
    }

    #[test]
    fn oracle_finds_a_two_cycle_from_either_end() {
        let g = graph(&[(1, 2), (2, 1)]);
        assert_eq!(g.cycle_through(a(1)), Some(vec![a(1), a(2)]));
        assert_eq!(g.cycle_through(a(2)), Some(vec![a(2), a(1)]));
    }

    #[test]
    fn oracle_reports_long_cycles_in_path_order() {
        let g = graph(&[(1, 2), (2, 3), (3, 4), (4, 1)]);
        assert_eq!(g.cycle_through(a(3)), Some(vec![a(3), a(4), a(1), a(2)]));
    }

    #[test]
    fn oracle_ignores_a_cycle_not_through_start() {
        // 1 → 2 ⇄ 3, but 1 is not on the cycle.
        let g = graph(&[(1, 2), (2, 3), (3, 2)]);
        assert_eq!(g.cycle_through(a(1)), None);
        assert!(g.cycle_through(a(2)).is_some());
    }

    #[test]
    fn oracle_drops_self_edges() {
        let g = graph(&[(1, 1)]);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.cycle_through(a(1)), None);
    }

    #[test]
    fn oracle_branching_search_finds_the_one_real_cycle() {
        let g = graph(&[(1, 2), (1, 3), (3, 1)]);
        assert_eq!(g.cycle_through(a(1)), Some(vec![a(1), a(3)]));
    }

    #[test]
    fn wait_edges_respect_modes() {
        // Holder: writer a1 on (0,1); readers a2,a3 on (0,2).
        let mut lm = LockManager::new();
        lm.park(key(0, 1), waiter(a(4), LockMode::Shared), false);
        lm.park(key(0, 2), waiter(a(5), LockMode::Exclusive), false);
        lm.park(key(0, 2), waiter(a(6), LockMode::Shared), false);
        let holders = BTreeMap::from([
            (
                key(0, 1),
                LockHolders {
                    writer: Some(a(1)),
                    readers: Vec::new(),
                },
            ),
            (
                key(0, 2),
                LockHolders {
                    writer: None,
                    readers: vec![a(2), a(3)],
                },
            ),
        ]);
        let g = wait_for_edges(&lm, &holders);
        // Shared request waits only on the writer.
        assert_eq!(g.successors(a(4)).collect::<Vec<_>>(), vec![a(1)]);
        // Exclusive request waits on every reader.
        assert_eq!(g.successors(a(5)).collect::<Vec<_>>(), vec![a(2), a(3)]);
        // The later shared request waits on the earlier exclusive one (FIFO)
        // but not on the readers.
        assert_eq!(g.successors(a(6)).collect::<Vec<_>>(), vec![a(5)]);
    }

    #[test]
    fn an_upgrade_cycle_is_found_from_the_parker() {
        // a1 and a2 both hold shared; both queue for exclusive at the front.
        let mut lm = LockManager::new();
        lm.park(key(0, 1), waiter(a(1), LockMode::Exclusive), true);
        lm.park(key(0, 1), waiter(a(2), LockMode::Exclusive), true);
        let holders = BTreeMap::from([(
            key(0, 1),
            LockHolders {
                writer: None,
                readers: vec![a(1), a(2)],
            },
        )]);
        let cycle = Some(vec![a(2), a(1)]);
        assert_eq!(wait_for_edges(&lm, &holders).cycle_through(a(2)), cycle);
        assert_eq!(search(&lm, &holders, a(2)), cycle);
    }

    #[test]
    fn a_down_guardians_holders_add_no_edges() {
        let mut lm = LockManager::new();
        lm.park(key(0, 1), waiter(a(1), LockMode::Exclusive), false);
        lm.park(key(1, 1), waiter(a(2), LockMode::Exclusive), false);
        let writer = |w| LockHolders {
            writer: Some(a(w)),
            readers: Vec::new(),
        };
        let mut holders = BTreeMap::from([(key(0, 1), writer(2)), (key(1, 1), writer(1))]);
        assert_eq!(search(&lm, &holders, a(2)), Some(vec![a(2), a(1)]));
        holders.remove(&key(1, 1));
        assert_eq!(search(&lm, &holders, a(2)), None);
    }

    /// Random lock tables — several guardians, shared and exclusive
    /// requests, upgrades parked at the front, actions parked in two queues,
    /// a guardian down — and, as the world does, the youngest member of
    /// each cycle through the newest parker aborted until none is left: at
    /// every step the parker-rooted search returns exactly what the whole
    /// graph's search returns.
    #[test]
    fn the_parker_rooted_search_agrees_with_the_whole_graph() {
        let (mut cycles, mut multi) = (0, 0);
        for seed in 0..3_000u64 {
            let mut rng = DetRng::new(seed);
            let guardians = 1 + rng.gen_range(3) as u32;
            let objects = 1 + rng.gen_range(4) as u32;
            let actions = 2 + rng.gen_range(7);
            let keys: Vec<ObjKey> = (0..guardians)
                .flat_map(|g| (0..objects).map(move |h| key(g, h)))
                .collect();
            let mut holders = BTreeMap::new();
            for &k in &keys {
                let mut held = LockHolders::default();
                if rng.gen_bool(0.5) {
                    held.writer = Some(a(rng.gen_range(actions)));
                } else {
                    let readers: BTreeSet<_> = (0..rng.gen_range(3))
                        .map(|_| a(rng.gen_range(actions)))
                        .collect();
                    held.readers = readers.into_iter().collect();
                }
                holders.insert(k, held);
            }
            let down = (guardians > 1 && rng.gen_bool(0.3)).then_some(GuardianId(0));
            holders.retain(|k, _| Some(k.gid) != down);

            let mut lm = LockManager::new();
            let mut aborted = BTreeSet::new();
            for _ in 0..2 + rng.gen_range(12) {
                let parker = a(rng.gen_range(actions));
                if aborted.contains(&parker) {
                    continue;
                }
                let k = keys[rng.gen_range(keys.len() as u64) as usize];
                let mode = if rng.gen_bool(0.5) {
                    LockMode::Shared
                } else {
                    LockMode::Exclusive
                };
                let upgrade = mode == LockMode::Exclusive
                    && holders.get(&k).is_some_and(|h| h.readers.contains(&parker));
                lm.park(k, waiter(parker, mode), upgrade);
                if rng.gen_bool(0.2) {
                    // The same action parked in a second queue.
                    let k2 = keys[rng.gen_range(keys.len() as u64) as usize];
                    lm.park(k2, waiter(parker, LockMode::Exclusive), false);
                }
                let mut broken = 0;
                loop {
                    let want = wait_for_edges(&lm, &holders).cycle_through(parker);
                    let got = search(&lm, &holders, parker);
                    assert_eq!(got, want, "seed {seed}: parker {parker}");
                    let Some(cycle) = got else { break };
                    let victim = *cycle.iter().max().expect("a cycle has members");
                    lm.cancel(victim);
                    for held in holders.values_mut() {
                        held.writer = held.writer.filter(|w| *w != victim);
                        held.readers.retain(|r| *r != victim);
                    }
                    aborted.insert(victim);
                    broken += 1;
                    if victim == parker || !lm.is_blocked(parker) {
                        break;
                    }
                }
                cycles += broken;
                multi += usize::from(broken > 1);
            }
        }
        assert!(cycles > 1_000, "only {cycles} cycles in the random tables");
        assert!(multi > 10, "only {multi} parks closed more than one cycle");
    }
}
