//! Isolated per-layer replays for the traced run. Each layer is timed
//! from outside, through its public functions only: the lock word
//! (`FcfsRwLock`), node search (`Node`), the tree op
//! (`ConcurrentBTree`), the sorted batch (`execute_batch`), the ingress
//! ring (`IngressQueue`), the metrics plane (`WindowedHistogram`) and
//! the generator (`OpStream`, `PoissonArrivals`).
//!
//! A per-call cost is the median over passes of (pass time ÷ calls), so
//! two clock reads are paid per pass, not per call. Every replay also
//! runs one spanned pass that records a span per public call.

use crate::report::{Gate, Values};
use crate::spans::SpanLog;
use crate::stats::{median, quantile, LatHist};
use crate::tree_mixed::{build_tree, prefill_keys, MixGen};
use cbtree_btree::arena::InlineVec;
use cbtree_btree::node::{Children, Node};
use cbtree_btree::{BatchOp, BatchSummary, ConcurrentBTree, NodeId, Protocol};
use cbtree_harness::fork_seed;
use cbtree_obs::metrics::WindowedHistogram;
use cbtree_serve::{IngressQueue, QueuedOp};
use cbtree_sync::FcfsRwLock;
use cbtree_workload::{KeyDist, OpStream, Operation, OpsConfig, PoissonArrivals, Rng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Where the sorted-batch replay draws its operations from.
#[derive(Debug, Clone, Copy)]
pub enum BatchSource {
    /// The `tree-mixed` client generator over `[0, key_space)`.
    Mix {
        /// Key space.
        key_space: u64,
    },
    /// A serve workload's own `OpStream`.
    Stream(OpsConfig),
}

/// What the replays run on, taken from the workload being traced.
#[derive(Debug, Clone, Copy)]
pub struct LayerParams {
    /// Keys in the isolated tree-op trees (b-link and OLC).
    pub tree_keys: usize,
    /// Key space of the isolated tree-op trees.
    pub tree_space: u64,
    /// Protocol of the workload's own tree (batch replay).
    pub protocol: Protocol,
    /// Keys prefilled into the batch-replay tree.
    pub prefill: usize,
    /// The workload's operations.
    pub source: BatchSource,
    /// Rate of the ring hand-off replay (the workload's `lo`), ops/s.
    pub handoff_rate: f64,
    /// Length of the hand-off replay.
    pub handoff_time: Duration,
    /// Rate of the arrival-process replay (the workload's `over`), ops/s.
    pub arrival_rate: f64,
    /// Calls per timing pass of the cheap layers.
    pub calls: usize,
    /// Timing passes (the metric is their median).
    pub passes: usize,
    /// 16-op batches per batch-replay pass.
    pub batches: usize,
}

impl LayerParams {
    /// Shrinks every replay to a seconds-long smoke size.
    pub fn smoke(self) -> Self {
        LayerParams {
            tree_keys: 20_000,
            tree_space: 40_000,
            prefill: self.prefill.min(20_000),
            source: match self.source {
                BatchSource::Mix { .. } => BatchSource::Mix { key_space: 40_000 },
                BatchSource::Stream(ops) => BatchSource::Stream(match ops.keys {
                    KeyDist::Uniform { .. } => OpsConfig {
                        keys: KeyDist::Uniform { lo: 0, hi: 40_000 },
                        ..ops
                    },
                    _ => ops,
                }),
            },
            handoff_time: Duration::from_millis(100),
            calls: 10_000,
            passes: 2,
            batches: 500,
            ..self
        }
    }
}

/// Median over `passes` of (pass time ÷ `calls`), nanoseconds per call.
fn per_call_ns(passes: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_pass: Vec<f64> = (0..passes.max(1))
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..calls {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_pass)
}

/// Spans recorded per replay in its spanned pass.
const SPANNED_CALLS: usize = 4096;

/// Runs every replay; appends its metrics to `values` and its gates to
/// `gates`.
pub fn run_all(
    p: &LayerParams,
    seed: u64,
    log: &mut SpanLog,
    values: &mut Values,
    gates: &mut Vec<Gate>,
) {
    sync_layer(p, log, values);
    node_layer(p, seed, log, values);
    tree_layer(p, seed, log, values);
    batch_layer(p, seed, log, values, gates);
    ring_layer(p, seed, log, values, gates);
    obs_layer(p, log, values);
    gen_layer(p, seed, log, values);
}

/// Lock word: uncontended shared and exclusive acquire + drop, with the
/// default exact stats.
fn sync_layer(p: &LayerParams, log: &mut SpanLog, values: &mut Values) {
    let lock = FcfsRwLock::new(0u64);
    let n = p.calls * 10;
    values.set(
        "sync.read_ns",
        per_call_ns(p.passes, n, |_| {
            black_box(*lock.read());
        }),
    );
    values.set(
        "sync.write_ns",
        per_call_ns(p.passes, n, |i| {
            *lock.write() = i as u64;
        }),
    );
    for i in 0..SPANNED_CALLS {
        log.time("sync.read", || black_box(*lock.read()));
        log.time("sync.write", || *lock.write() = i as u64);
    }
}

/// Node search on full capacity-64 nodes: internal routing and leaf
/// lookup (half the probes hit).
fn node_layer(p: &LayerParams, seed: u64, log: &mut SpanLog, values: &mut Values) {
    const CAP: u64 = 64;
    let keys: Vec<u64> = (0..CAP).map(|i| i * 1000 + 500).collect();
    let internal: Node<u64> = Node {
        keys: InlineVec::from_slice(&keys),
        children: Children::Internal(InlineVec::from_slice(
            &[NodeId::default(); CAP as usize + 1],
        )),
        right: None,
        high: None,
        level: 2,
    };
    let mut leaf = Node::new_leaf_for(CAP as usize);
    for &k in &keys {
        leaf.leaf_insert(k, k);
    }
    let mut rng = Rng::new(fork_seed(seed, 0x40DE));
    let probes: Vec<u64> = (0..4096)
        .map(|i| {
            if i % 2 == 0 {
                keys[rng.next_below(CAP) as usize]
            } else {
                rng.next_below(CAP * 1000)
            }
        })
        .collect();
    let n = p.calls * 10;
    values.set(
        "node.child_index_ns",
        per_call_ns(p.passes, n, |i| {
            black_box(internal.child_index(black_box(probes[i & 4095])));
        }),
    );
    values.set(
        "node.leaf_get_ns",
        per_call_ns(p.passes, n, |i| {
            black_box(leaf.leaf_get(black_box(probes[i & 4095])));
        }),
    );
    for &k in probes.iter().take(SPANNED_CALLS) {
        log.time("node.child_index", || black_box(internal.child_index(k)));
        log.time("node.leaf_get", || black_box(leaf.leaf_get(k).copied()));
    }
}

/// Tree op, one thread: b-link get / insert / remove and OLC get on
/// `tree_keys`-key trees; the get tail from spans.
fn tree_layer(p: &LayerParams, seed: u64, log: &mut SpanLog, values: &mut Values) {
    let keys = prefill_keys(seed, p.tree_keys, p.tree_space);
    let mut rng = Rng::new(fork_seed(seed, 0x7EE));
    let n = p.calls * 2;
    let probes: Vec<u64> = (0..n).map(|_| rng.next_below(p.tree_space)).collect();

    let blink = build_tree(Protocol::BLink, 64, &keys);
    values.set(
        "tree.get_ns",
        per_call_ns(p.passes, n, |i| {
            black_box(blink.get(&probes[i]));
        }),
    );
    let (mut ins, mut rem) = (Vec::new(), Vec::new());
    for _ in 0..p.passes.max(1) {
        let fresh: Vec<u64> = (0..n).map(|_| rng.next_below(p.tree_space)).collect();
        let t0 = Instant::now();
        for &k in &fresh {
            black_box(blink.insert(k, k));
        }
        ins.push(t0.elapsed().as_nanos() as f64 / n as f64);
        let t0 = Instant::now();
        for k in &fresh {
            black_box(blink.remove(k));
        }
        rem.push(t0.elapsed().as_nanos() as f64 / n as f64);
    }
    values.set("tree.insert_ns", median(&ins));
    values.set("tree.remove_ns", median(&rem));
    let spanned: Vec<f64> = probes
        .iter()
        .take(SPANNED_CALLS * 8)
        .map(|k| {
            let s0 = log.now_ns();
            black_box(blink.get(k));
            let s1 = log.now_ns();
            log.record("tree.get", s0, s1) as f64
        })
        .collect();
    values.set("tree.get_p99_ns", quantile(&spanned, 0.99));
    drop(blink);

    let olc = build_tree(Protocol::Olc, 64, &keys);
    values.set(
        "tree.olc_get_ns",
        per_call_ns(p.passes, n, |i| {
            black_box(olc.get(&probes[i]));
        }),
    );
    for k in probes.iter().take(SPANNED_CALLS) {
        log.time("tree.olc_get", || black_box(olc.get(k)));
    }
}

/// An operation source for the batch replay.
enum Source {
    Mix(MixGen),
    Stream(OpStream),
}

impl Source {
    fn next(&mut self) -> BatchOp<u64> {
        let op = match self {
            Source::Mix(g) => g.next_op(),
            Source::Stream(s) => s.next_op(),
        };
        match op {
            Operation::Search(k) => BatchOp::Get(k),
            Operation::Insert(k) => BatchOp::Insert(k, k),
            Operation::Delete(k) => BatchOp::Remove(k),
        }
    }
}

/// A tree of the workload's protocol with its prefill, and a `BTreeMap`
/// model holding the same keys.
fn workload_tree(p: &LayerParams, seed: u64) -> (ConcurrentBTree<u64>, BTreeMap<u64, u64>) {
    let tree = ConcurrentBTree::new(p.protocol, 64);
    let mut model = BTreeMap::new();
    match p.source {
        BatchSource::Mix { key_space } => {
            for k in prefill_keys(seed, p.prefill, key_space) {
                tree.insert(k, k);
                model.insert(k, k);
            }
        }
        BatchSource::Stream(ops) => {
            let mut rng = Rng::new(fork_seed(seed, 0xBA7C));
            let mut inserted = 0u64;
            while (inserted as usize) < p.prefill {
                let k = ops.keys.sample(&mut rng, inserted);
                if tree.insert(k, k).is_none() {
                    model.insert(k, k);
                    inserted += 1;
                }
            }
        }
    }
    (tree, model)
}

fn apply_model(model: &mut BTreeMap<u64, u64>, op: &BatchOp<u64>) -> Option<u64> {
    match *op {
        BatchOp::Get(k) => model.get(&k).copied(),
        BatchOp::Insert(k, v) => model.insert(k, v),
        BatchOp::Remove(k) => model.remove(&k),
    }
}

/// Sorted batch: 16-op batches from the workload's own op stream on the
/// workload's own tree, checked op by op against a `BTreeMap` model;
/// then 1-op get batches.
fn batch_layer(
    p: &LayerParams,
    seed: u64,
    log: &mut SpanLog,
    values: &mut Values,
    gates: &mut Vec<Gate>,
) {
    const BATCH: usize = 16;
    let (tree, mut model) = workload_tree(p, seed);
    let mut source = match p.source {
        BatchSource::Mix { key_space } => {
            Source::Mix(MixGen::new(fork_seed(seed, 0xBA7D), key_space))
        }
        BatchSource::Stream(ops) => Source::Stream(
            OpStream::new(ops, fork_seed(seed, 0xBA7D)).with_seq_base(p.prefill as u64),
        ),
    };
    let mut mismatches = 0u64;
    let mut checked = 0u64;
    let mut summary = BatchSummary::default();
    let ctr_a = tree.counters();
    let mut pass_ns = Vec::new();
    for _ in 0..p.passes.max(1) {
        let (mut busy_ns, mut ops) = (0u64, 0u64);
        for _ in 0..p.batches {
            let batch: Vec<BatchOp<u64>> = (0..BATCH).map(|_| source.next()).collect();
            let expect: Vec<Option<u64>> =
                batch.iter().map(|op| apply_model(&mut model, op)).collect();
            let s0 = log.now_ns();
            let outcome = tree.execute_batch(batch);
            let s1 = log.now_ns();
            busy_ns += log.record("batch.execute", s0, s1);
            ops += BATCH as u64;
            summary.merge(&outcome.summary);
            checked += BATCH as u64;
            mismatches += outcome
                .results
                .iter()
                .zip(&expect)
                .filter(|(a, b)| a != b)
                .count() as u64;
        }
        pass_ns.push(busy_ns as f64 / ops as f64);
    }
    let ctr = tree.counters().since(&ctr_a);
    values.set("batch.ns_per_op", median(&pass_ns));
    values.set(
        "batch.descents_per_op",
        summary.descents as f64 / summary.ops.max(1) as f64,
    );
    values.set(
        "batch.leaf_reuse_frac",
        summary.leaf_reuses as f64 / summary.ops.max(1) as f64,
    );
    values.set("batch.latches_per_op", ctr.latches_per_op());

    // Singleton get batches over keys the model holds (and misses).
    let present: Vec<u64> = model
        .keys()
        .step_by((model.len() / 4096).max(1))
        .copied()
        .collect();
    let mut rng = Rng::new(fork_seed(seed, 0xBA7E));
    let probes: Vec<u64> = (0..p.calls / 5)
        .map(|i| {
            if i % 2 == 0 || present.is_empty() {
                rng.next_u64() >> 20
            } else {
                present[rng.next_below(present.len() as u64) as usize]
            }
        })
        .collect();
    let mut single = Vec::new();
    for _ in 0..p.passes.max(1) {
        let mut busy = 0u64;
        for &k in &probes {
            let s0 = log.now_ns();
            let out = tree.execute_batch(vec![BatchOp::Get(k)]);
            let s1 = log.now_ns();
            busy += log.record("batch.singleton", s0, s1);
            checked += 1;
            mismatches += u64::from(out.results != [model.get(&k).copied()]);
        }
        single.push(busy as f64 / probes.len() as f64);
    }
    values.set("batch.singleton_ns", median(&single));
    gates.push(Gate::new(
        "batch replay equals BTreeMap model",
        mismatches == 0,
        format!("{mismatches} of {checked} results differ"),
    ));
    let check = tree.check();
    gates.push(Gate::new(
        "batch replay tree check",
        check.is_ok(),
        check.err().unwrap_or_default(),
    ));
}

/// Ingress ring: one-thread push + pop, then a 1-producer / 1-consumer
/// hand-off at the workload's `lo` rate, timed from push to the return
/// of `pop_batch` (doorbell and its 2 ms backstop included).
fn ring_layer(
    p: &LayerParams,
    seed: u64,
    log: &mut SpanLog,
    values: &mut Values,
    gates: &mut Vec<Gate>,
) {
    let q = IngressQueue::new(4096);
    let stamp = Instant::now();
    let item = |k: u64| QueuedOp {
        op: Operation::Search(k),
        enqueued: stamp,
        measured: true,
    };
    let mut buf = Vec::with_capacity(16);
    let mut lost = 0u64;
    values.set(
        "ring.push_pop_ns",
        per_call_ns(p.passes, p.calls * 10, |i| {
            lost += u64::from(q.try_push(item(i as u64)).is_err());
            q.pop_batch(1, &mut buf);
            buf.clear();
        }),
    );
    for i in 0..SPANNED_CALLS as u64 {
        log.time("ring.try_push", || {
            lost += u64::from(q.try_push(item(i)).is_err())
        });
        log.time("ring.pop_batch", || q.pop_batch(1, &mut buf));
        buf.clear();
    }

    // On one CPU, like the `lo` serve calls whose wake-up it isolates.
    let pin = crate::affinity::pin_to_one_cpu();
    let q = IngressQueue::new(4096);
    let (pushed, hist) = std::thread::scope(|s| {
        let consumer = s.spawn(|| {
            let mut hist = LatHist::default();
            let mut buf = Vec::with_capacity(16);
            while q.pop_batch(16, &mut buf) > 0 {
                let now = Instant::now();
                for op in buf.drain(..) {
                    hist.record((now - op.enqueued).as_nanos() as u64);
                }
            }
            hist
        });
        let mut arrivals = PoissonArrivals::new(p.handoff_rate, fork_seed(seed, 0x4A0F));
        let epoch = Instant::now();
        let mut pushed = 0u64;
        loop {
            let due = epoch + Duration::from_secs_f64(arrivals.next_arrival());
            if due - epoch > p.handoff_time {
                break;
            }
            pace_until(due);
            let op = QueuedOp {
                op: Operation::Search(pushed),
                enqueued: Instant::now(),
                measured: true,
            };
            lost += u64::from(q.try_push(op).is_err());
            pushed += 1;
        }
        q.close();
        (pushed, consumer.join().expect("hand-off consumer panicked"))
    });
    let pinned = pin.is_some();
    drop(pin);
    values.set("ring.handoff_p50_us", hist.quantile_ns(0.5) / 1e3);
    values.set("ring.handoff_p99_us", hist.quantile_ns(0.99) / 1e3);
    gates.push(Gate::new(
        "ring hand-off pinned to one CPU",
        pinned,
        if pinned {
            "pinned"
        } else {
            "the kernel refused the pin"
        },
    ));
    gates.push(Gate::new(
        "ring delivers every pushed op",
        lost == 0 && hist.total() == pushed,
        format!(
            "{lost} pushes refused, {} of {pushed} hand-offs received",
            hist.total()
        ),
    ));
}

/// Sleeps to within a millisecond of `deadline`, then yields until it
/// passes (the open-loop generator's pacing shape).
fn pace_until(deadline: Instant) {
    const YIELD_WINDOW: Duration = Duration::from_millis(1);
    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
        if left > YIELD_WINDOW {
            std::thread::sleep(left - YIELD_WINDOW);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Metrics plane: `RecorderSession::record`, amortized over 16-op
/// sessions.
fn obs_layer(p: &LayerParams, log: &mut SpanLog, values: &mut Values) {
    const SESSION: usize = 16;
    let h = WindowedHistogram::new();
    let sessions = p.calls;
    let ns = per_call_ns(p.passes, sessions, |i| {
        let mut s = h.session();
        for j in 0..SESSION {
            s.record(black_box((i * SESSION + j) as u64 & 0xFFFF));
        }
    });
    values.set("obs.record_ns", ns / SESSION as f64);
    for i in 0..SPANNED_CALLS as u64 {
        log.time("obs.session", || {
            let mut s = h.session();
            for j in 0..SESSION as u64 {
                s.record(i ^ j);
            }
        });
    }
}

/// Generator: `OpStream::next_op` on the workload's mix and
/// `PoissonArrivals::next_arrival` at its `over` rate.
fn gen_layer(p: &LayerParams, seed: u64, log: &mut SpanLog, values: &mut Values) {
    let ops = match p.source {
        BatchSource::Stream(ops) => ops,
        BatchSource::Mix { key_space } => OpsConfig {
            q_search: 0.5,
            q_insert: 0.25,
            q_delete: 0.25,
            keys: KeyDist::Uniform {
                lo: 0,
                hi: key_space,
            },
        },
    };
    let mut stream = OpStream::new(ops, fork_seed(seed, 0x6E4)).with_seq_base(p.prefill as u64);
    let n = p.calls * 10;
    values.set(
        "gen.next_op_ns",
        per_call_ns(p.passes, n, |_| {
            black_box(stream.next_op());
        }),
    );
    let mut arrivals = PoissonArrivals::new(p.arrival_rate, fork_seed(seed, 0x6E5));
    values.set(
        "gen.next_arrival_ns",
        per_call_ns(p.passes, n, |_| {
            black_box(arrivals.next_arrival());
        }),
    );
    for _ in 0..SPANNED_CALLS {
        log.time("gen.next_op", || black_box(stream.next_op()));
        log.time("gen.next_arrival", || black_box(arrivals.next_arrival()));
    }
}
