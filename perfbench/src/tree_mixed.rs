//! The `tree-mixed` workload: a closed loop of client threads calling
//! `ConcurrentBTree` directly — no ring, worker or batch layer.

use crate::spans::SpanLog;
use crate::stats::{median, LatHist};
use cbtree_btree::{ConcurrentBTree, OpCountersSnapshot, Protocol};
use cbtree_harness::{fork_seed, level_snapshots};
use cbtree_sync::LockStatsSnapshot;
use cbtree_workload::{Operation, Rng};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Shape of one `tree-mixed` run.
#[derive(Debug, Clone, Copy)]
pub struct TreeMixedConfig {
    /// Keys are drawn uniformly from `[0, key_space)`.
    pub key_space: u64,
    /// Distinct keys inserted before the loop starts (`key_space / 2`,
    /// the stationary size of an equal insert/remove mix).
    pub prefill: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Node capacity.
    pub capacity: usize,
    /// Trees built per run. Each build is timed for `setup_s`, and each
    /// tree gets an equal share of the measured time, so a run samples
    /// several memory placements of the tree, not one.
    pub trees: usize,
    /// Untimed loop before each tree's measured share.
    pub warmup: Duration,
    /// Throughput windows each tree's measured share is split into.
    pub windows: usize,
}

impl TreeMixedConfig {
    /// The benchmark's configuration: 1M keys over a 2M key space.
    pub fn full() -> Self {
        TreeMixedConfig {
            key_space: 2_000_000,
            prefill: 1_000_000,
            clients: 2,
            capacity: 64,
            trees: 3,
            warmup: Duration::from_millis(500),
            windows: 5,
        }
    }

    /// A seconds-long configuration for tests.
    pub fn smoke() -> Self {
        TreeMixedConfig {
            key_space: 40_000,
            prefill: 20_000,
            trees: 2,
            warmup: Duration::from_millis(20),
            windows: 2,
            ..TreeMixedConfig::full()
        }
    }
}

/// The client operation generator: 50% get, 25% insert, 25% remove,
/// keys uniform over the key space. Inserts and removes run at equal
/// rates on uniform keys, so a tree started at `key_space / 2` keys
/// stays there in expectation.
#[derive(Debug, Clone)]
pub struct MixGen {
    rng: Rng,
    key_space: u64,
}

impl MixGen {
    /// A generator over `[0, key_space)`.
    pub fn new(seed: u64, key_space: u64) -> Self {
        MixGen {
            rng: Rng::new(seed),
            key_space,
        }
    }

    /// The next operation.
    #[inline]
    pub fn next_op(&mut self) -> Operation {
        let key = self.rng.next_below(self.key_space);
        match self.rng.next_below(4) {
            0 | 1 => Operation::Search(key),
            2 => Operation::Insert(key),
            _ => Operation::Delete(key),
        }
    }
}

/// Distinct prefill keys for `seed`: `n` keys uniform over `[0, key_space)`.
pub fn prefill_keys(seed: u64, n: usize, key_space: u64) -> Vec<u64> {
    let mut rng = Rng::new(fork_seed(seed, 0xF111));
    let mut seen = std::collections::HashSet::with_capacity(n);
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let k = rng.next_below(key_space);
        if seen.insert(k) {
            keys.push(k);
        }
    }
    keys
}

/// A tree of `protocol` holding `keys` (value = key).
pub fn build_tree(protocol: Protocol, capacity: usize, keys: &[u64]) -> ConcurrentBTree<u64> {
    let tree = ConcurrentBTree::new(protocol, capacity);
    for &k in keys {
        tree.insert(k, k);
    }
    tree
}

/// Builds and prefills a tree of `keys`; returns it with the build's
/// wall seconds and its resident-set growth ÷ keys (bytes; meaningful on
/// the first build of a fresh process, before anything was freed).
pub fn timed_build(cfg: &TreeMixedConfig, keys: &[u64]) -> (ConcurrentBTree<u64>, f64, f64) {
    let rss0 = crate::meta::rss_bytes();
    let t0 = Instant::now();
    let tree = build_tree(Protocol::BLink, cfg.capacity, keys);
    let secs = t0.elapsed().as_secs_f64();
    let bytes_per_key = match (rss0, crate::meta::rss_bytes()) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 / keys.len() as f64,
        _ => f64::NAN,
    };
    (tree, secs, bytes_per_key)
}

/// What one closed-loop run measured.
#[derive(Debug)]
pub struct LoopResult {
    /// Calls completed inside the measured window.
    pub ops: u64,
    /// Measured window, seconds.
    pub elapsed_s: f64,
    /// Completions per second in each throughput window.
    pub window_rates: Vec<f64>,
    /// Per-call latency of calls inside the window.
    pub latency: LatHist,
    /// Inserts (whole run) that returned `None`: keys added.
    pub added: u64,
    /// Removes (whole run) that returned `Some`: keys taken out.
    pub removed: u64,
    /// Tree operation counters over the window.
    pub counters: OpCountersSnapshot,
    /// Latch wait, summed over every node, accrued in the window.
    pub lock_wait_ns: u64,
    /// Per-client span logs (traced runs only).
    pub spans: Vec<SpanLog>,
}

impl LoopResult {
    /// Median windowed throughput, ops/s.
    pub fn throughput(&self) -> f64 {
        median(&self.window_rates)
    }
}

const WARMUP: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;
/// Calls between a client's phase checks and progress publications.
const CHECK_EVERY: u64 = 64;

fn lock_wait(levels: &[(u64, LockStatsSnapshot)]) -> u64 {
    levels.iter().map(|(_, s)| s.r_wait_ns + s.w_wait_ns).sum()
}

/// Per-client results, merged at join.
struct ClientOut {
    latency: LatHist,
    ops: u64,
    added: u64,
    removed: u64,
    spans: Option<SpanLog>,
}

/// Runs the closed loop on `tree` for `measure` after `cfg.warmup`.
/// `stream` selects the clients' generator streams (distinct per loop
/// run within a process). With `span_capacity`, every call is recorded
/// as a span into a per-client ring of that size.
pub fn closed_loop(
    tree: &ConcurrentBTree<u64>,
    cfg: &TreeMixedConfig,
    seed: u64,
    stream: u64,
    measure: Duration,
    span_capacity: Option<usize>,
) -> LoopResult {
    let phase = AtomicU8::new(WARMUP);
    let progress: Vec<AtomicU64> = (0..cfg.clients).map(|_| AtomicU64::new(0)).collect();
    let epoch = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| {
                let (phase, done) = (&phase, &progress[c]);
                let mut gen = MixGen::new(fork_seed(seed, stream * 64 + c as u64), cfg.key_space);
                s.spawn(move || {
                    let mut out = ClientOut {
                        latency: LatHist::default(),
                        ops: 0,
                        added: 0,
                        removed: 0,
                        spans: span_capacity.map(|cap| SpanLog::new(epoch, c as u16, cap)),
                    };
                    let mut measuring = false;
                    let mut n = 0u64;
                    loop {
                        if n.is_multiple_of(CHECK_EVERY) {
                            match phase.load(Ordering::Acquire) {
                                STOP => break,
                                p => measuring = p == MEASURE,
                            }
                            if measuring && n > 0 {
                                done.fetch_add(CHECK_EVERY, Ordering::Relaxed);
                            }
                        }
                        n += 1;
                        let op = gen.next_op();
                        let start = Instant::now();
                        let (name, changed) = match op {
                            Operation::Search(k) => {
                                std::hint::black_box(tree.get(&k));
                                ("tree.get", false)
                            }
                            Operation::Insert(k) => ("tree.insert", tree.insert(k, k).is_none()),
                            Operation::Delete(k) => ("tree.remove", tree.remove(&k).is_some()),
                        };
                        let end = Instant::now();
                        match op {
                            Operation::Insert(_) => out.added += u64::from(changed),
                            Operation::Delete(_) => out.removed += u64::from(changed),
                            Operation::Search(_) => {}
                        }
                        if measuring {
                            out.ops += 1;
                            out.latency.record((end - start).as_nanos() as u64);
                            if let Some(log) = out.spans.as_mut() {
                                let s0 = (start - epoch).as_nanos() as u64;
                                let s1 = (end - epoch).as_nanos() as u64;
                                log.record(name, s0, s1);
                            }
                        }
                    }
                    out
                })
            })
            .collect();

        std::thread::sleep(cfg.warmup);
        let ctr_a = tree.counters();
        let wait_a = lock_wait(&level_snapshots(tree));
        phase.store(MEASURE, Ordering::Release);
        let t0 = Instant::now();
        let windows = cfg.windows.max(1);
        let window = measure / windows as u32;
        let mut window_rates = Vec::with_capacity(windows);
        let mut last = (t0, 0u64);
        for w in 1..=windows {
            let deadline = t0 + window * w as u32;
            if let Some(d) = deadline.checked_duration_since(Instant::now()) {
                std::thread::sleep(d);
            }
            let now = Instant::now();
            let total: u64 = progress.iter().map(|p| p.load(Ordering::Relaxed)).sum();
            let secs = (now - last.0).as_secs_f64();
            window_rates.push((total - last.1) as f64 / secs);
            last = (now, total);
        }
        let ctr_b = tree.counters();
        let wait_b = lock_wait(&level_snapshots(tree));
        let elapsed_s = t0.elapsed().as_secs_f64();
        phase.store(STOP, Ordering::Release);

        let mut result = LoopResult {
            ops: 0,
            elapsed_s,
            window_rates,
            latency: LatHist::default(),
            added: 0,
            removed: 0,
            counters: ctr_b.since(&ctr_a),
            lock_wait_ns: wait_b.saturating_sub(wait_a),
            spans: Vec::new(),
        };
        for h in handles {
            let out = h.join().expect("client thread panicked");
            result.ops += out.ops;
            result.latency.merge(&out.latency);
            result.added += out.added;
            result.removed += out.removed;
            result.spans.extend(out.spans);
        }
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefill_keys_are_distinct_and_in_range() {
        let keys = prefill_keys(7, 1000, 2000);
        let set: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(set.len(), 1000);
        assert!(keys.iter().all(|&k| k < 2000));
        assert_eq!(keys, prefill_keys(7, 1000, 2000), "same seed, same keys");
    }

    #[test]
    fn mix_is_half_reads_and_equal_updates() {
        let mut g = MixGen::new(1, 1000);
        let (mut r, mut i, mut d) = (0, 0, 0);
        for _ in 0..100_000 {
            match g.next_op() {
                Operation::Search(_) => r += 1,
                Operation::Insert(_) => i += 1,
                Operation::Delete(_) => d += 1,
            }
        }
        assert!((r as f64 / 1e5 - 0.5).abs() < 0.01);
        assert!((i as f64 / 1e5 - 0.25).abs() < 0.01);
        assert!((d as f64 / 1e5 - 0.25).abs() < 0.01);
    }
}
