//! The open-loop workloads: `serve-uniform-read` and `serve-seq-append`
//! run through `cbtree_serve::serve` at three fixed arrival rates.
//!
//! The `lo` calls run pinned to one CPU ([`crate::affinity`]). At `lo`
//! the worker is parked when most operations arrive; unpinned, its
//! wake-up is an inter-processor wake of an idle virtual CPU, whose cost
//! the hypervisor sets: the `lo` sojourn p50 was bimodal per call (near
//! 6–9 or 10–12 µs on a 2-vCPU virtual machine), and which mode ruled
//! changed over minutes. Pinned, the wake-up is a same-CPU switch from
//! the generator to the worker, and the sojourn is the program's own
//! path: ring push, doorbell, switch, batch execution.

use crate::stats::median;
use cbtree_btree::{ConcurrentBTree, Protocol};
use cbtree_harness::fork_seed;
use cbtree_serve::{serve, ServeConfig, ServeReport, ShardReport};
use cbtree_sync::{HistogramSnapshot, SamplePeriod};
use cbtree_workload::{KeyDist, OpsConfig, Rng};
use std::time::{Duration, Instant};

/// The three fixed rates, in run order.
pub const RATES: [&str; 3] = ["lo", "hi", "over"];

/// One open-loop workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeWorkload {
    /// Protocol the shard tree runs.
    pub protocol: Protocol,
    /// Operation mix and key distribution.
    pub ops: OpsConfig,
    /// Keys prefilled before each measurement.
    pub prefill: usize,
    /// Offered rates `lo`, `hi`, `over`, ops/s.
    pub rates: [f64; 3],
    /// Measurements per rate, `lo`, `hi`, `over` (see [`summarize`]).
    /// The bounded figures vary most from call to call and get the most
    /// calls: `over` throughput (±10–15% per call) and `lo` sojourn p50
    /// (±20% per call on `serve-uniform-read`, whose `lo` sojourns
    /// straddle a histogram bucket edge).
    pub calls: [usize; 3],
    /// Untimed warmup per measurement.
    pub warmup: Duration,
}

impl ServeWorkload {
    /// Read-dominated uniform traffic over a working set far above L2.
    pub fn uniform_read() -> Self {
        ServeWorkload {
            protocol: Protocol::Olc,
            ops: OpsConfig {
                q_search: 0.9,
                q_insert: 0.0667,
                q_delete: 0.0333,
                keys: KeyDist::Uniform {
                    lo: 0,
                    hi: 2_000_000,
                },
            },
            prefill: 1_000_000,
            rates: [50_000.0, 150_000.0, 1_000_000.0],
            calls: [7, 3, 7],
            warmup: ServeConfig::paper(Protocol::Olc, 1, 1.0).warmup,
        }
    }

    /// An append-heavy ingest stream: sequential keys, constant splits.
    pub fn seq_append() -> Self {
        ServeWorkload {
            protocol: Protocol::BLink,
            ops: OpsConfig {
                q_search: 0.2,
                q_insert: 0.8,
                q_delete: 0.0,
                keys: KeyDist::Sequential,
            },
            prefill: 200_000,
            rates: [20_000.0, 100_000.0, 4_000_000.0],
            calls: [9, 3, 9],
            ..ServeWorkload::uniform_read()
        }
    }

    /// A seconds-long variant for tests: small trees, low rates.
    pub fn smoke(self) -> Self {
        let ops = match self.ops.keys {
            KeyDist::Uniform { .. } => OpsConfig {
                keys: KeyDist::Uniform { lo: 0, hi: 40_000 },
                ..self.ops
            },
            _ => self.ops,
        };
        ServeWorkload {
            ops,
            prefill: 20_000,
            rates: [5_000.0, 20_000.0, 4_000_000.0],
            calls: [1, 1, 1],
            warmup: Duration::from_millis(30),
            ..self
        }
    }

    /// The `serve` configuration for one measurement.
    pub fn config(&self, seed: u64, lambda: f64, measure: Duration) -> ServeConfig {
        ServeConfig {
            workers_per_shard: 1,
            generators: 1,
            batch_max: 16,
            capacity: 64,
            initial_items: self.prefill,
            ops: self.ops,
            warmup: self.warmup,
            measure,
            seed,
            ..ServeConfig::paper(self.protocol, 1, lambda)
        }
    }
}

/// One `serve` call and what it cost outside its measured window.
#[derive(Debug)]
pub struct Call {
    /// Rate index into [`RATES`].
    pub rate: usize,
    /// The offered λ.
    pub lambda: f64,
    /// The report, or the panic message when `serve` panicked (its
    /// post-run structural check failed).
    pub report: Result<ServeReport, String>,
    /// Wall time of the call minus its warmup and measured time:
    /// prefill, thread start, drain and the post-run check.
    pub setup_s: f64,
    /// Whether the call ran pinned to one CPU, as every `lo` call must.
    pub pinned: bool,
}

impl Call {
    /// Offered ÷ (λ × measured time): how closely the generator kept to
    /// its schedule.
    pub fn offered_ratio(&self) -> f64 {
        match &self.report {
            Ok(r) => r.offered() as f64 / (self.lambda * r.measured_time),
            Err(_) => f64::NAN,
        }
    }
}

/// The order of a run's calls: each rate's calls spread evenly over the
/// run (rate index per call), so slow drifts of the host fall on every
/// rate alike.
pub fn schedule(calls: [usize; 3]) -> Vec<usize> {
    let mut slots: Vec<(f64, usize)> = (0..RATES.len())
        .flat_map(|rate| {
            (0..calls[rate]).map(move |k| ((k as f64 + 0.5) / calls[rate] as f64, rate))
        })
        .collect();
    slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    slots.into_iter().map(|(_, rate)| rate).collect()
}

/// Runs the workload's calls in [`schedule`] order, splitting `seconds`
/// of measured time evenly among them. Every call gets its own seed
/// forked from `seed`. `on_call` sees each call as it completes (span
/// recording).
pub fn run(
    wl: &ServeWorkload,
    seed: u64,
    seconds: f64,
    mut on_call: impl FnMut(&Call, Instant, Instant),
) -> Vec<Call> {
    let order = schedule(wl.calls);
    let measure = Duration::from_secs_f64(seconds / order.len() as f64);
    let mut out = Vec::with_capacity(order.len());
    for (i, &rate) in order.iter().enumerate() {
        let lambda = wl.rates[rate];
        let cfg = wl.config(fork_seed(seed, i as u64), lambda, measure);
        let pin = if rate == 0 {
            crate::affinity::pin_to_one_cpu()
        } else {
            None
        };
        let start = Instant::now();
        let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| serve(&cfg)))
            .map_err(|e| {
                e.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "serve panicked".into())
            });
        let end = Instant::now();
        let pinned = pin.is_some();
        drop(pin);
        let wall = (end - start).as_secs_f64();
        let setup_s = match &report {
            Ok(r) => wall - cfg.warmup.as_secs_f64() - r.measured_time,
            Err(_) => f64::NAN,
        };
        let call = Call {
            rate,
            lambda,
            report,
            setup_s,
            pinned,
        };
        on_call(&call, start, end);
        out.push(call);
    }
    out
}

/// Resident-set growth of a standalone prefill of the workload's tree,
/// ÷ keys: the memory the shard's tree costs per key.
pub fn bytes_per_key(wl: &ServeWorkload, seed: u64) -> f64 {
    let rss0 = crate::meta::rss_bytes();
    let tree = ConcurrentBTree::<u64>::with_sampling(wl.protocol, 64, SamplePeriod::EXACT);
    let mut rng = Rng::new(seed);
    let mut inserted = 0u64;
    while (inserted as usize) < wl.prefill {
        let k = wl.ops.keys.sample(&mut rng, inserted);
        if tree.insert(k, k).is_none() {
            inserted += 1;
        }
    }
    let grown = match (rss0, crate::meta::rss_bytes()) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64,
        _ => f64::NAN,
    };
    drop(tree);
    grown / wl.prefill as f64
}

/// Per-rate aggregate of the calls: the sojourn quantiles come from the
/// calls' histograms merged, every other field is the median over calls.
#[derive(Debug, Clone, Default)]
pub struct RateSummary {
    /// Sojourn p50 of every served op of the rate's calls, µs.
    pub sojourn_p50_us: f64,
    /// Sojourn p99 of every served op of the rate's calls, µs.
    pub sojourn_p99_us: f64,
    /// Completions per second.
    pub achieved_rate: f64,
    /// Offered ÷ (λ × window).
    pub offered_ratio: f64,
    /// Mean effective service per op (batch service ÷ batch size), µs.
    pub service_us: f64,
    /// Mean queue wait, µs.
    pub queue_wait_us: f64,
    /// Mean batch wait, µs.
    pub batch_wait_us: f64,
    /// Mean ops per executed batch.
    pub batch_size: f64,
    /// Latch acquisitions per tree op.
    pub latches_per_op: f64,
    /// Root-to-leaf descents per op.
    pub descents_per_op: f64,
    /// Deepest the ingress ring got.
    pub queue_hwm: f64,
    /// Sojourn mean − (queue wait + batch wait + service), µs.
    pub residual_us: f64,
    /// Ops offered, summed over calls.
    pub offered: u64,
    /// Ops shed (ring full or timed out), summed over calls.
    pub shed: u64,
}

/// The single shard every benchmark configuration runs.
fn shard(r: &ServeReport) -> &ShardReport {
    &r.per_shard[0]
}

/// Medians of each rate's calls (calls whose `serve` panicked are skipped;
/// the gates report them).
pub fn summarize(calls: &[Call], rate: usize) -> RateSummary {
    let reports: Vec<(&Call, &ServeReport)> = calls
        .iter()
        .filter(|c| c.rate == rate)
        .filter_map(|c| c.report.as_ref().ok().map(|r| (c, r)))
        .collect();
    let med = |f: &dyn Fn(&Call, &ServeReport) -> f64| -> f64 {
        median(&reports.iter().map(|(c, r)| f(c, r)).collect::<Vec<_>>())
    };
    let us = |s: f64| s * 1e6;
    let mut sojourn = HistogramSnapshot::default();
    for (_, r) in &reports {
        sojourn.merge(&r.sojourn);
    }
    let quantile_us = |q: f64| match sojourn.total() {
        0 => f64::NAN,
        _ => sojourn.quantile(q) as f64 / 1e3,
    };
    RateSummary {
        sojourn_p50_us: quantile_us(0.50),
        sojourn_p99_us: quantile_us(0.99),
        achieved_rate: med(&|_, r| r.achieved_rate()),
        offered_ratio: med(&|c, _| c.offered_ratio()),
        service_us: med(&|_, r| us(shard(r).service_mean_s)),
        queue_wait_us: med(&|_, r| us(shard(r).queue_wait_mean_s)),
        batch_wait_us: med(&|_, r| us(shard(r).batch_wait_mean_s)),
        batch_size: med(&|_, r| {
            let s = shard(r);
            s.batch.ops as f64 / s.batches.max(1) as f64
        }),
        latches_per_op: med(&|_, r| shard(r).counters.latches_per_op()),
        descents_per_op: med(&|_, r| {
            let b = shard(r).batch;
            b.descents as f64 / b.ops.max(1) as f64
        }),
        queue_hwm: med(&|_, r| shard(r).queue_depth_hwm as f64),
        residual_us: med(&|_, r| {
            let s = shard(r);
            us(r.sojourn_mean_s - (s.queue_wait_mean_s + s.batch_wait_mean_s + s.service_mean_s))
        }),
        offered: reports.iter().map(|(_, r)| r.offered()).sum(),
        shed: reports.iter().map(|(_, r)| r.shed()).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spreads_each_rate_over_the_run() {
        assert_eq!(schedule([1, 1, 1]), vec![0, 1, 2]);
        let order = schedule([9, 3, 5]);
        assert_eq!(order.len(), 17);
        for (rate, n) in [9, 3, 5].into_iter().enumerate() {
            assert_eq!(order.iter().filter(|&&r| r == rate).count(), n);
        }
        // No rate's calls bunch at one end: each half of the run holds
        // at least a third of them.
        for rate in 0..3 {
            let first = order[..9].iter().filter(|&&r| r == rate).count();
            let total = order.iter().filter(|&&r| r == rate).count();
            assert!(
                3 * first >= total && 3 * (total - first) >= total,
                "{order:?}"
            );
        }
    }
}
