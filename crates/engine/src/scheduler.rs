//! A zero-dependency work-stealing executor for stage-task graphs.
//!
//! The unit of scheduling is a *node* of a [`StageGraph`]: an opaque index
//! whose work is supplied by the caller as a closure. Edges express
//! artifact dependencies — a node becomes ready when its `pending` count
//! reaches zero — so the engine can run every distinct artifact build as
//! its own task and start a check the moment its inputs exist, instead of
//! fanning out whole checks that serialize on shared compilations.
//!
//! Scheduling discipline:
//!
//! * **One worker** (or one node): the graph runs *inline* on the calling
//!   thread in deterministic FIFO order — roots in index order, then
//!   dependents in the order their last dependency completed. No threads,
//!   no locks on the hot path, zero steals. This is also why a `jobs = 1`
//!   batch is bit-for-bit reproducible.
//! * **Many workers**: a `std::thread::scope` pool where each worker owns
//!   a local deque. Completing a node pushes its newly-ready dependents
//!   onto the *completing* worker's deque (locality: a check usually runs
//!   right after the artifacts it needs), workers pop their own deque from
//!   the back (LIFO, cache-warm) and steal from the *front* of a sibling's
//!   deque when empty (FIFO, oldest work first — the classic Chase–Lev
//!   orientation, here with a mutexed `VecDeque` per worker since the
//!   queues are tiny and contention is on artifacts, not queue ends).
//!
//! Idle workers park on a condvar with a 1 ms timeout backstop, so a
//! missed wakeup (pushes and notifies are deliberately not atomic with
//! each other) costs at most a millisecond, not a deadlock. A completing
//! worker wakes at most *one* sibling, and only when its deque holds more
//! work than it will pop itself on the next iteration — broadcasting on
//! every node made an over-subscribed single-core batch pay a context
//! switch per task for wakeups whose work the notifier immediately
//! reclaimed. Termination is a single atomic countdown of unfinished
//! nodes (that wake *is* broadcast, so the pool exits promptly).
//!
//! The executor makes no fairness or ordering promises beyond the
//! dependency edges; callers that need deterministic *output* must index
//! results by node (as [`crate::Engine::check_many_governed`] does) rather than
//! rely on completion order.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// A dependency graph over nodes `0..n`. Node `d` in `dependents[n]` means
/// `d` cannot start until `n` completes; `pending[d]` counts how many such
/// prerequisites `d` still has (nodes with `pending == 0` are roots).
pub struct StageGraph {
    dependents: Vec<Vec<usize>>,
    pending: Vec<usize>,
}

impl StageGraph {
    /// A graph of `n` independent nodes (no edges).
    pub fn new(n: usize) -> Self {
        StageGraph {
            dependents: vec![Vec::new(); n],
            pending: vec![0; n],
        }
    }

    /// Declares that `dependent` must wait for `prerequisite`.
    pub fn add_edge(&mut self, prerequisite: usize, dependent: usize) {
        self.dependents[prerequisite].push(dependent);
        self.pending[dependent] += 1;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

/// What the executor observed while draining a graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Nodes a worker took from a sibling's deque instead of its own
    /// (always 0 for inline runs).
    pub steals: u64,
}

/// Drains `graph` by calling `run(node, worker)` exactly once per node,
/// never before the node's prerequisites completed, on up to `workers`
/// threads (clamped to the node count; `<= 1` runs inline on the caller).
///
/// `run` must not panic — a panicking node unwinds its worker thread and
/// aborts the scope. The engine wraps every node body in `catch_unwind`
/// before it gets here.
pub fn execute<F>(graph: &StageGraph, workers: usize, run: F) -> RunStats
where
    F: Fn(usize, usize) + Sync,
{
    let n = graph.len();
    if n == 0 {
        return RunStats::default();
    }
    let workers = workers.max(1).min(n);
    if workers == 1 {
        return execute_inline(graph, run);
    }
    execute_stealing(graph, workers, run)
}

/// Deterministic single-threaded drain: FIFO over ready nodes.
fn execute_inline<F: Fn(usize, usize)>(graph: &StageGraph, run: F) -> RunStats {
    let mut pending = graph.pending.clone();
    let mut ready: VecDeque<usize> = (0..graph.len()).filter(|&i| pending[i] == 0).collect();
    let mut done = 0usize;
    while let Some(node) = ready.pop_front() {
        run(node, 0);
        done += 1;
        for &d in &graph.dependents[node] {
            pending[d] -= 1;
            if pending[d] == 0 {
                ready.push_back(d);
            }
        }
    }
    debug_assert_eq!(done, graph.len(), "stage graph has a dependency cycle");
    RunStats { steals: 0 }
}

/// The parallel drain: per-worker deques, steal-from-front on empty.
fn execute_stealing<F>(graph: &StageGraph, workers: usize, run: F) -> RunStats
where
    F: Fn(usize, usize) + Sync,
{
    let pending: Vec<AtomicUsize> = graph.pending.iter().map(|&p| AtomicUsize::new(p)).collect();
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    // Seed the roots round-robin so every worker starts with work.
    for (i, node) in (0..graph.len())
        .filter(|&i| graph.pending[i] == 0)
        .enumerate()
    {
        queues[i % workers]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(node);
    }
    let remaining = AtomicUsize::new(graph.len());
    let steals = AtomicU64::new(0);
    let idle = (Mutex::new(()), Condvar::new());
    std::thread::scope(|scope| {
        for me in 0..workers {
            let pending = &pending;
            let queues = &queues;
            let remaining = &remaining;
            let steals = &steals;
            let idle = &idle;
            let run = &run;
            scope.spawn(move || {
                let mut local_steals = 0u64;
                loop {
                    // Own deque first (LIFO: freshest, cache-warm work)...
                    let mut node = queues[me]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .pop_back();
                    // ...then steal the *oldest* entry from a sibling.
                    if node.is_none() {
                        for k in 1..workers {
                            let victim = (me + k) % workers;
                            node = queues[victim]
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .pop_front();
                            if node.is_some() {
                                local_steals += 1;
                                break;
                            }
                        }
                    }
                    let Some(node) = node else {
                        if remaining.load(Ordering::Acquire) == 0 {
                            break;
                        }
                        // Park briefly; the timeout backstops any missed
                        // notify between the queue scan and this wait.
                        let guard = idle.0.lock().unwrap_or_else(PoisonError::into_inner);
                        if remaining.load(Ordering::Acquire) == 0 {
                            break;
                        }
                        let _ = idle
                            .1
                            .wait_timeout(guard, Duration::from_millis(1))
                            .map_err(|_| ())
                            .map(|(g, _)| drop(g));
                        continue;
                    };
                    run(node, me);
                    // Freed dependents go onto our own deque under one
                    // lock; `surplus` is what we *cannot* run next
                    // iteration ourselves (we pop one back immediately).
                    let surplus = {
                        let mut q = queues[me].lock().unwrap_or_else(PoisonError::into_inner);
                        for &d in &graph.dependents[node] {
                            if pending[d].fetch_sub(1, Ordering::AcqRel) == 1 {
                                q.push_back(d);
                            }
                        }
                        q.len().saturating_sub(1)
                    };
                    if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        // Everything is done: wake every parked worker so
                        // the pool can exit.
                        idle.1.notify_all();
                    } else if surplus > 0 {
                        // Only wake a sibling when there is work beyond
                        // what we consume ourselves — waking the whole
                        // pool per node turns a single-core run into a
                        // context-switch storm (the freed child is popped
                        // LIFO by *this* worker on the very next loop).
                        // A lost race here costs at most the 1 ms parking
                        // backstop, never a deadlock.
                        idle.1.notify_one();
                    }
                }
                steals.fetch_add(local_steals, Ordering::Relaxed);
            });
        }
    });
    debug_assert_eq!(
        remaining.load(Ordering::Acquire),
        0,
        "stage graph has a dependency cycle"
    );
    RunStats {
        steals: steals.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Builds the bipartite shape the engine uses: `n_stages` roots, each
    /// blocking some of the `n_checks` sinks.
    fn bipartite(n_stages: usize, edges: &[(usize, usize)], n_checks: usize) -> StageGraph {
        let mut g = StageGraph::new(n_stages + n_checks);
        for &(s, c) in edges {
            g.add_edge(s, n_stages + c);
        }
        g
    }

    #[test]
    fn inline_runs_roots_then_dependents_in_fifo_order() {
        let g = bipartite(2, &[(0, 0), (1, 0), (1, 1)], 2);
        let order = Mutex::new(Vec::new());
        let stats = execute(&g, 1, |node, worker| {
            assert_eq!(worker, 0);
            order.lock().unwrap().push(node);
        });
        assert_eq!(stats.steals, 0);
        // Roots 0,1 in index order; check 3 (node 3 = check 1) becomes
        // ready when node 1 completes, before check 2's second dep clears…
        // actually node 2 needs both roots: ready order is 0, 1, then 2, 3
        // — FIFO over readiness.
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn every_node_runs_exactly_once_across_workers() {
        let n_stages = 10;
        let n_checks = 40;
        let edges: Vec<(usize, usize)> = (0..n_checks)
            .flat_map(|c| [(c % n_stages, c), ((c + 3) % n_stages, c)])
            .collect();
        let g = bipartite(n_stages, &edges, n_checks);
        let ran: Vec<AtomicUsize> = (0..g.len()).map(|_| AtomicUsize::new(0)).collect();
        execute(&g, 4, |node, _| {
            ran[node].fetch_add(1, Ordering::SeqCst);
        });
        for (i, r) in ran.iter().enumerate() {
            assert_eq!(
                r.load(Ordering::SeqCst),
                1,
                "node {i} ran a wrong number of times"
            );
        }
    }

    #[test]
    fn dependencies_complete_before_dependents_start() {
        let g = bipartite(3, &[(0, 0), (1, 0), (2, 0)], 1);
        let stages_done: Vec<AtomicBool> = (0..3).map(|_| AtomicBool::new(false)).collect();
        execute(&g, 3, |node, _| {
            if node < 3 {
                stages_done[node].store(true, Ordering::SeqCst);
            } else {
                for (i, d) in stages_done.iter().enumerate() {
                    assert!(
                        d.load(Ordering::SeqCst),
                        "check ran before its stage {i} completed"
                    );
                }
            }
        });
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let g = StageGraph::new(0);
        assert!(g.is_empty());
        let stats = execute(&g, 4, |_, _| panic!("no nodes to run"));
        assert_eq!(stats, RunStats::default());
    }

    #[test]
    fn workers_clamp_to_node_count() {
        // 1 node + 8 workers must take the inline path (worker index 0).
        let g = StageGraph::new(1);
        execute(&g, 8, |node, worker| {
            assert_eq!((node, worker), (0, 0));
        });
    }

    #[test]
    fn imbalanced_roots_get_stolen() {
        // Seeding is round-robin, but make one worker's nodes slow so the
        // fast workers drain the rest: with 64 independent slow-ish nodes
        // on 4 workers the steal path is exercised with high probability;
        // the assertion is only on completion, steals are best-effort.
        let g = StageGraph::new(64);
        let count = AtomicUsize::new(0);
        let stats = execute(&g, 4, |_, _| {
            count.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_micros(100));
        });
        assert_eq!(count.load(Ordering::SeqCst), 64);
        // Not asserting steals > 0: a 1-core host may serialize the pool.
        let _ = stats.steals;
    }
}
