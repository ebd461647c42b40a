//! `cbtree-perfbench`: the repository's end-to-end and per-layer
//! benchmark. One invocation runs one workload for one seed:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The untraced run (`--trace 0`) prints the end-to-end metrics; the
//! traced run (`--trace 1`) also replays each layer in isolation, records
//! spans, and prints the per-layer ladder. The last line of standard
//! output is always one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See README.md for the workloads, metrics and
//! measured spreads.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod affinity;
pub mod layers;
pub mod meta;
pub mod report;
pub mod serve_wl;
pub mod spans;
pub mod stats;
pub mod tree_mixed;

use cbtree_obs::Json;
use layers::{BatchSource, LayerParams};
use report::{Gate, Values};
use serve_wl::{ServeWorkload, RATES};
use spans::SpanLog;
use stats::median;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tree_mixed::TreeMixedConfig;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["tree-mixed", "serve-uniform-read", "serve-seq-append"];

/// Spans each closed-loop client keeps (the most recent ones).
const CLIENT_SPANS: usize = 1 << 17;
/// Spans the isolated replays and serve calls keep.
const REPLAY_SPANS: usize = 1 << 18;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run: per-layer replays, spans and the ladder.
    pub trace: bool,
    /// Shrink every input to a seconds-long smoke size.
    pub smoke: bool,
    /// Directory the result record and spans are written to.
    pub out: PathBuf,
}

/// Command-line usage.
pub const USAGE: &str =
    "usage: perfbench --workload <tree-mixed|serve-uniform-read|serve-seq-append> \
--seed <n> --seconds <s> --trace <0|1> [--smoke] [--out DIR]";

/// Parses the command line (without the program name).
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut it = args.into_iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut smoke = false;
    let mut out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                })
            }
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(value()?),
            "-h" | "--help" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        out,
    })
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Measured values by name (end-to-end, per-layer, per-rate).
    pub values: Values,
    /// Correctness gates.
    pub gates: Vec<Gate>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (shed by the service).
    pub failed: u64,
    /// Span logs (traced runs only).
    pub spans: Vec<SpanLog>,
    /// Human-readable tables printed before the result line.
    pub text: String,
    /// One record per measurement (each `serve` call), for the result
    /// file.
    pub records: Vec<Json>,
}

impl RunOutput {
    /// Whether every gate held.
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.ok)
    }
}

/// Runs one workload.
pub fn run(args: &Args) -> RunOutput {
    match args.workload.as_str() {
        "tree-mixed" => run_tree_mixed(args),
        "serve-uniform-read" => run_serve(args, ServeWorkload::uniform_read()),
        "serve-seq-append" => run_serve(args, ServeWorkload::seq_append()),
        other => unreachable!("workload {other} passed argument parsing"),
    }
}

fn layer_params(
    args: &Args,
    protocol: cbtree_btree::Protocol,
    prefill: usize,
    source: BatchSource,
    rates: [f64; 3],
) -> LayerParams {
    let p = LayerParams {
        tree_keys: 1_000_000,
        tree_space: 2_000_000,
        protocol,
        prefill,
        source,
        handoff_rate: rates[0],
        handoff_time: Duration::from_secs(1),
        arrival_rate: rates[2],
        calls: 100_000,
        passes: 5,
        batches: 10_000,
    };
    if args.smoke {
        p.smoke()
    } else {
        p
    }
}

fn run_tree_mixed(args: &Args) -> RunOutput {
    let cfg = if args.smoke {
        TreeMixedConfig::smoke()
    } else {
        TreeMixedConfig::full()
    };
    let mut out = RunOutput::default();
    let keys = tree_mixed::prefill_keys(args.seed, cfg.prefill, cfg.key_space);
    let share = Duration::from_secs_f64(args.seconds / cfg.trees as f64);
    let (mut build_s, mut tree_rates) = (Vec::new(), Vec::new());
    let mut latency = stats::LatHist::default();
    let mut in_situ = None;
    for t in 0..cfg.trees {
        let (tree, secs, bytes_per_key) = tree_mixed::timed_build(&cfg, &keys);
        build_s.push(secs);
        if t == 0 {
            out.values.set("bytes_per_key", bytes_per_key);
        }
        let plain = tree_mixed::closed_loop(&tree, &cfg, args.seed, t as u64, share, None);
        out.attempted += plain.ops;
        latency.merge(&plain.latency);
        tree_rates.push(plain.throughput());
        out.records.push(Json::obj(vec![
            ("tree", t.into()),
            ("build_s", secs.into()),
            ("measured_s", plain.elapsed_s.into()),
            ("ops", plain.ops.into()),
            (
                "window_ops_s",
                Json::arr(plain.window_rates.iter().map(|&r| r.into())),
            ),
        ]));
        let (mut added, mut removed) = (plain.added, plain.removed);
        // The layer counters come from the last tree's loop: the traced
        // one in a traced run (its cost against the plain loop on the
        // same tree is the tracing overhead).
        if t + 1 == cfg.trees {
            in_situ = Some(if args.trace {
                let stream = cfg.trees as u64;
                let traced = tree_mixed::closed_loop(
                    &tree,
                    &cfg,
                    args.seed,
                    stream,
                    share,
                    Some(CLIENT_SPANS),
                );
                added += traced.added;
                removed += traced.removed;
                out.values.set(
                    "trace.overhead_frac",
                    1.0 - traced.throughput() / plain.throughput(),
                );
                traced
            } else {
                plain
            });
        }

        let expected = cfg.prefill as u64 + added - removed;
        let check = tree.check();
        out.gates.push(Gate::new(
            format!("tree-mixed tree {t}: structural check"),
            check.is_ok(),
            check.err().unwrap_or_default(),
        ));
        out.gates.push(Gate::new(
            format!("tree-mixed tree {t}: len = prefill + added - removed"),
            tree.len() as u64 == expected,
            format!(
                "len {} vs {} + {added} - {removed} = {expected}",
                tree.len(),
                cfg.prefill
            ),
        ));
    }

    let v = &mut out.values;
    v.set("setup_s", median(&build_s));
    v.set("throughput_ops_s", stats::mean(&tree_rates));
    v.set("op_p50_us", latency.quantile_ns(0.5) / 1e3);
    v.set("op_p99_us", latency.quantile_ns(0.99) / 1e3);
    let in_situ = in_situ.expect("at least one tree");
    let c = in_situ.counters;
    let per_op = |x: u64| x as f64 / c.ops.max(1) as f64;
    v.set("tree.latches_per_op", c.latches_per_op());
    v.set(
        "tree.restarts_per_op",
        per_op(c.restarts + c.v_restarts_writer + c.v_restarts_version),
    );
    v.set("tree.chases_per_op", per_op(c.chases));
    v.set("tree.splits_per_op", per_op(c.splits));
    v.set("sync.wait_ns_per_op", per_op(in_situ.lock_wait_ns));
    v.set("stage.service_us", in_situ.latency.mean_ns() / 1e3);
    out.spans.extend(in_situ.spans);

    if args.trace {
        let params = layer_params(
            args,
            cbtree_btree::Protocol::BLink,
            cfg.prefill,
            BatchSource::Mix {
                key_space: cfg.key_space,
            },
            ServeWorkload::uniform_read().rates,
        );
        let mut log = SpanLog::new(Instant::now(), 0xFF, REPLAY_SPANS);
        layers::run_all(
            &params,
            args.seed,
            &mut log,
            &mut out.values,
            &mut out.gates,
        );
        out.spans.push(log);
        // The stages a closed-loop call passes through: the tree op
        // alone, weighted by the mix (50% get, 25% insert, 25% remove).
        let v = &mut out.values;
        let tree_ns = 0.5 * v.get("tree.get_ns").unwrap_or(f64::NAN)
            + 0.25 * v.get("tree.insert_ns").unwrap_or(f64::NAN)
            + 0.25 * v.get("tree.remove_ns").unwrap_or(f64::NAN);
        let service = v.get("stage.service_us").unwrap_or(f64::NAN);
        v.set("residual_us", service - tree_ns / 1e3);
        out.text = report::ladder_table(&args.workload, &out.values, None);
    }
    out
}

fn run_serve(args: &Args, wl: ServeWorkload) -> RunOutput {
    let wl = if args.smoke { wl.smoke() } else { wl };
    let mut out = RunOutput::default();
    out.values.set(
        "bytes_per_key",
        serve_wl::bytes_per_key(&wl, cbtree_harness::fork_seed(args.seed, 0xB7)),
    );

    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch, 0xFE, REPLAY_SPANS);
    let mut span_cost = Duration::ZERO;
    let calls = serve_wl::run(&wl, args.seed, args.seconds, |_, start, end| {
        if args.trace {
            let t = Instant::now();
            log.record(
                "serve",
                (start - epoch).as_nanos() as u64,
                (end - epoch).as_nanos() as u64,
            );
            span_cost += t.elapsed();
        }
    });
    let calls_wall = epoch.elapsed();

    let v = &mut out.values;
    let lo_setup: Vec<f64> = calls
        .iter()
        .filter(|c| c.rate == 0)
        .map(|c| c.setup_s)
        .collect();
    v.set("setup_s", median(&lo_setup));
    let s: Vec<serve_wl::RateSummary> = (0..RATES.len())
        .map(|r| serve_wl::summarize(&calls, r))
        .collect();
    v.set("throughput_ops_s", s[2].achieved_rate);
    v.set("op_p50_us", s[0].sojourn_p50_us);
    let (offered, shed) = (s[0].offered + s[1].offered, s[0].shed + s[1].shed);
    v.set("shed_frac", shed as f64 / offered.max(1) as f64);
    out.attempted = offered;
    out.failed = shed;
    for (r, rs) in RATES.iter().zip(&s) {
        v.set(format!("{r}.sojourn_p50_us"), rs.sojourn_p50_us);
        v.set(format!("{r}.sojourn_p99_us"), rs.sojourn_p99_us);
        v.set(format!("{r}.shard.service_us"), rs.service_us);
        v.set(format!("{r}.shard.queue_wait_us"), rs.queue_wait_us);
        v.set(format!("{r}.shard.batch_wait_us"), rs.batch_wait_us);
        v.set(format!("{r}.shard.batch_size"), rs.batch_size);
        v.set(format!("{r}.shard.latches_per_op"), rs.latches_per_op);
        v.set(format!("{r}.shard.descents_per_op"), rs.descents_per_op);
        v.set(format!("{r}.shard.queue_hwm"), rs.queue_hwm);
        v.set(format!("{r}.gen.offered_ratio"), rs.offered_ratio);
        v.set(format!("{r}.residual_us"), rs.residual_us);
    }

    for c in &calls {
        if let Ok(r) = &c.report {
            out.records.push(Json::obj(vec![
                ("rate", RATES[c.rate].into()),
                ("lambda", c.lambda.into()),
                ("setup_s", Json::f64_or_null(c.setup_s)),
                ("measured_s", r.measured_time.into()),
                ("offered", r.offered().into()),
                ("served", r.served().into()),
                ("shed", r.shed().into()),
                ("achieved_rate", r.achieved_rate().into()),
                ("sojourn_p50_us", (r.sojourn.p50() as f64 / 1e3).into()),
                ("sojourn_p99_us", (r.sojourn.p99() as f64 / 1e3).into()),
                ("queue_hwm", r.per_shard[0].queue_depth_hwm.into()),
            ]));
        }
        let name = format!("{} serve at {} ops/s", RATES[c.rate], c.lambda);
        if c.rate == 0 {
            // The `lo` sojourn is defined on one CPU (see `serve_wl`).
            out.gates.push(Gate::new(
                format!("{name}: pinned to one CPU"),
                c.pinned,
                if c.pinned {
                    "pinned"
                } else {
                    "the kernel refused the pin"
                },
            ));
        }
        match &c.report {
            Err(e) => out
                .gates
                .push(Gate::new(format!("{name}: completed"), false, e.clone())),
            Ok(r) => {
                let accounted = r.served() + r.shed();
                out.gates.push(Gate::new(
                    format!("{name}: offered = served + rejected_full + timed_out"),
                    r.offered() == accounted,
                    format!(
                        "{} offered, {} served, {} shed",
                        r.offered(),
                        r.served(),
                        r.shed()
                    ),
                ));
                if c.rate + 1 < RATES.len() {
                    // A generator behind schedule would hide queueing
                    // (`serve` stamps sojourn at enqueue, not at the due
                    // time). The floor allows three standard deviations
                    // of the Poisson count of a correctly paced generator.
                    let expected = c.lambda * r.measured_time;
                    let floor = 0.99 - 3.0 / expected.sqrt();
                    out.gates.push(Gate::new(
                        format!("{name}: generator kept pace"),
                        c.offered_ratio() >= floor,
                        format!("offered ratio {:.4} (floor {floor:.4})", c.offered_ratio()),
                    ));
                } else {
                    // `over` measures capacity, not sojourn: it is valid
                    // when the offered load exceeded what was served.
                    out.gates.push(Gate::new(
                        format!("{name}: service saturated"),
                        (r.served() as f64) <= 0.95 * r.offered() as f64,
                        format!("served {} of {} offered", r.served(), r.offered()),
                    ));
                }
            }
        }
    }

    if args.trace {
        // In-situ layer counters at the loaded point, `hi`.
        let hi: Vec<&cbtree_serve::ServeReport> = calls
            .iter()
            .filter(|c| c.rate == 1)
            .filter_map(|c| c.report.as_ref().ok())
            .collect();
        let med = |f: &dyn Fn(&cbtree_serve::ServeReport) -> f64| {
            median(&hi.iter().map(|r| f(r)).collect::<Vec<_>>())
        };
        let per_op = |x: u64, ops: u64| x as f64 / ops.max(1) as f64;
        v.set(
            "tree.latches_per_op",
            med(&|r| r.per_shard[0].counters.latches_per_op()),
        );
        v.set(
            "tree.restarts_per_op",
            med(&|r| {
                let c = r.per_shard[0].counters;
                per_op(
                    c.restarts + c.v_restarts_writer + c.v_restarts_version,
                    c.ops,
                )
            }),
        );
        v.set(
            "tree.chases_per_op",
            med(&|r| per_op(r.per_shard[0].counters.chases, r.per_shard[0].counters.ops)),
        );
        v.set(
            "tree.splits_per_op",
            med(&|r| per_op(r.per_shard[0].counters.splits, r.per_shard[0].counters.ops)),
        );
        v.set(
            "sync.wait_ns_per_op",
            med(&|r| {
                let sh = &r.per_shard[0];
                let wait: u64 = sh
                    .levels
                    .iter()
                    .map(|l| l.stats.r_wait_ns + l.stats.w_wait_ns)
                    .sum();
                per_op(wait, sh.counters.ops)
            }),
        );
        v.set("stage.service_us", s[1].service_us);
        v.set("residual_us", s[1].residual_us);
        v.set(
            "trace.overhead_frac",
            span_cost.as_secs_f64() / calls_wall.as_secs_f64(),
        );

        let source = BatchSource::Stream(wl.ops);
        let params = layer_params(args, wl.protocol, wl.prefill, source, wl.rates);
        layers::run_all(
            &params,
            args.seed,
            &mut log,
            &mut out.values,
            &mut out.gates,
        );
        let v = &mut out.values;
        let batch_ns = v.get("batch.ns_per_op").unwrap_or(f64::NAN);
        for r in RATES {
            let service = v.get(&format!("{r}.shard.service_us")).unwrap_or(f64::NAN);
            v.set(format!("{r}.shard.overhead_ns"), service * 1e3 - batch_ns);
        }
        out.text = report::ladder_table(&args.workload, &out.values, Some(&RATES));
    }
    out.spans.push(log);
    out
}
