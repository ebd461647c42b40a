//! Metric catalog, correctness gates and output formatting.

use cbtree_obs::Json;

/// Which end-to-end metric a layer metric should move — the written
/// prediction the ladder table prints beside each value.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Layer (module) the metric belongs to.
    pub layer: &'static str,
    /// Metric name; per-rate metrics are printed once per rate with the
    /// prefix `lo.`, `hi.` or `over.`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether the metric is measured per serve rate.
    pub per_rate: bool,
    /// Whether the metric is in the `per_layer` set of `BENCHMARK.json`.
    /// Every traced run reports every declared metric, so a metric is
    /// declared only when each workload measures it and it is not 0 by
    /// construction on any of them; the others are printed in the
    /// ladder and written to the result file.
    pub declared: bool,
    /// End-to-end metrics it should move.
    pub moves: &'static str,
}

const fn lm(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        layer,
        name,
        unit,
        per_rate: false,
        declared: true,
        moves,
    }
}

const fn rate(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        per_rate: true,
        declared: false,
        ..lm(layer, name, unit, moves)
    }
}

/// A ladder row that is printed but not declared (see
/// [`LayerMetric::declared`]).
const fn printed(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        declared: false,
        ..lm(layer, name, unit, moves)
    }
}

/// End-to-end metrics of the untraced run, in `BENCHMARK.json` order:
/// `(name, unit)`. Each is defined for every workload (see README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("bytes_per_key", "B"),
    ("throughput_ops_s", "1/s"),
    ("op_p50_us", "us"),
];

/// Every end-to-end figure the untraced run prints by its own name,
/// per workload family: the `END_TO_END` set plus the figures that are
/// printed but not bounded (see README.md, "Run-to-run spread").
pub const TREE_MIXED_PRINTED: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("bytes_per_key", "B"),
    ("throughput_ops_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
];

/// See [`TREE_MIXED_PRINTED`].
pub const SERVE_PRINTED: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("bytes_per_key", "B"),
    ("throughput_ops_s", "1/s"),
    ("lo.sojourn_p50_us", "us"),
    ("lo.sojourn_p99_us", "us"),
    ("hi.sojourn_p50_us", "us"),
    ("hi.sojourn_p99_us", "us"),
    ("shed_frac", "1"),
];

/// The per-layer ladder, bottom (lock word) to top (open-loop sojourn).
/// Metrics with `per_rate == false` are measured in every workload's
/// traced run; the declared ones make up the `per_layer` set of
/// `BENCHMARK.json`. The per-rate rows exist only for the serve
/// workloads and are printed in their ladder table.
pub const LADDER: &[LayerMetric] = &[
    lm(
        "lock word",
        "sync.read_ns",
        "ns",
        "throughput_ops_s, op_p50_us",
    ),
    lm(
        "lock word",
        "sync.write_ns",
        "ns",
        "throughput_ops_s, op_p50_us",
    ),
    printed(
        "lock word",
        "sync.wait_ns_per_op",
        "ns",
        "throughput_ops_s, op_p50_us",
    ),
    lm(
        "node search",
        "node.child_index_ns",
        "ns",
        "throughput_ops_s",
    ),
    lm("node search", "node.leaf_get_ns", "ns", "throughput_ops_s"),
    lm(
        "tree op",
        "tree.get_ns",
        "ns",
        "throughput_ops_s, op_p99_us",
    ),
    lm(
        "tree op",
        "tree.insert_ns",
        "ns",
        "throughput_ops_s, op_p99_us",
    ),
    lm(
        "tree op",
        "tree.remove_ns",
        "ns",
        "throughput_ops_s, op_p99_us",
    ),
    lm("tree op", "tree.olc_get_ns", "ns", "throughput_ops_s"),
    lm("tree op", "tree.get_p99_ns", "ns", "op_p99_us"),
    lm(
        "tree op",
        "tree.latches_per_op",
        "count",
        "throughput_ops_s",
    ),
    printed(
        "tree op",
        "tree.restarts_per_op",
        "count",
        "throughput_ops_s, op_p99_us",
    ),
    printed("tree op", "tree.chases_per_op", "count", "throughput_ops_s"),
    lm("tree op", "tree.splits_per_op", "count", "op_p99_us"),
    lm(
        "sorted batch",
        "batch.ns_per_op",
        "ns",
        "hi.sojourn_p50_us, throughput_ops_s",
    ),
    lm(
        "sorted batch",
        "batch.singleton_ns",
        "ns",
        "hi.sojourn_p50_us",
    ),
    lm(
        "sorted batch",
        "batch.descents_per_op",
        "count",
        "throughput_ops_s",
    ),
    lm(
        "sorted batch",
        "batch.leaf_reuse_frac",
        "1",
        "throughput_ops_s",
    ),
    lm(
        "sorted batch",
        "batch.latches_per_op",
        "count",
        "throughput_ops_s",
    ),
    lm(
        "ingress ring",
        "ring.push_pop_ns",
        "ns",
        "lo.sojourn_p50_us",
    ),
    lm(
        "ingress ring",
        "ring.handoff_p50_us",
        "us",
        "lo.sojourn_p50_us",
    ),
    lm(
        "ingress ring",
        "ring.handoff_p99_us",
        "us",
        "lo.sojourn_p99_us",
    ),
    rate(
        "shard worker",
        "shard.service_us",
        "us",
        "hi.sojourn_p50_us, throughput_ops_s",
    ),
    rate(
        "shard worker",
        "shard.overhead_ns",
        "ns",
        "hi.sojourn_p50_us, throughput_ops_s",
    ),
    rate(
        "shard worker",
        "shard.queue_wait_us",
        "us",
        "hi.sojourn_p50_us",
    ),
    rate(
        "shard worker",
        "shard.batch_wait_us",
        "us",
        "hi.sojourn_p50_us",
    ),
    rate(
        "shard worker",
        "shard.batch_size",
        "count",
        "throughput_ops_s",
    ),
    rate(
        "shard worker",
        "shard.latches_per_op",
        "count",
        "throughput_ops_s",
    ),
    rate(
        "shard worker",
        "shard.descents_per_op",
        "count",
        "throughput_ops_s",
    ),
    rate("shard worker", "shard.queue_hwm", "count", "shed_frac"),
    lm("metrics plane", "obs.record_ns", "ns", "throughput_ops_s"),
    lm("generator", "gen.next_op_ns", "ns", "throughput_ops_s"),
    lm("generator", "gen.next_arrival_ns", "ns", "throughput_ops_s"),
    rate("generator", "gen.offered_ratio", "1", "throughput_ops_s"),
    lm("stage", "stage.service_us", "us", "op_p50_us"),
    rate("open loop", "sojourn_p50_us", "us", "(end to end)"),
    rate("open loop", "sojourn_p99_us", "us", "(end to end)"),
    rate("open loop", "residual_us", "us", "hi.sojourn_p50_us"),
    lm("open loop", "residual_us", "us", "op_p50_us"),
    lm("tracing", "trace.overhead_frac", "1", "(tracing cost)"),
];

/// The `per_layer` metric set of `BENCHMARK.json`: the declared ladder
/// rows.
pub fn per_layer() -> impl Iterator<Item = &'static LayerMetric> {
    LADDER.iter().filter(|m| m.declared)
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values by name, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    /// Sets (or replaces) `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Every value, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

/// One correctness gate. A failed gate fails the run.
#[derive(Debug, Clone)]
pub struct Gate {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Counts behind the verdict.
    pub detail: String,
}

impl Gate {
    /// A gate result.
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Gate {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// The result line — `correct`, `attempted`, `failed` and the named
/// metrics with units — and whether the run counts as correct. A metric
/// that could not be measured (not finite) is left out and fails the
/// run.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> (String, bool) {
    let correct = correct && metrics.iter().all(|(_, _, v)| v.is_finite());
    let fields = metrics
        .iter()
        .filter(|(_, _, v)| v.is_finite())
        .map(|&(n, u, v)| {
            (
                n,
                Json::obj(vec![("value", Json::F64(v)), ("unit", u.into())]),
            )
        });
    let line = Json::obj(vec![
        ("correct", correct.into()),
        ("attempted", attempted.max(1).into()),
        ("failed", failed.into()),
        ("metrics", Json::obj(fields)),
    ])
    .to_string()
    .expect("finite values serialize");
    (line, correct)
}

/// Formats a value for the human-readable tables.
pub fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        "-".into()
    } else if v == 0.0 || (v.abs() >= 0.01 && v.abs() < 1e7) {
        format!("{v:.3}")
    } else {
        format!("{v:.3e}")
    }
}

/// The layer ladder of a traced run: each layer metric beside the end
/// to end metric it should move, bottom layer first, the unattributed
/// residual last. Serve workloads get one column per rate.
pub fn ladder_table(workload: &str, values: &Values, rates: Option<&[&str]>) -> String {
    let mut out = format!("layer ladder: {workload}\n");
    let mut rows: Vec<[String; 5]> = vec![[
        "layer".into(),
        "metric".into(),
        "value".into(),
        "unit".into(),
        "should move".into(),
    ]];
    let mut ladder: Vec<&LayerMetric> = LADDER
        .iter()
        .filter(|m| m.name != "residual_us" || m.per_rate == rates.is_some())
        .collect();
    // The residual closes the ladder.
    ladder.sort_by_key(|m| m.name == "residual_us");
    for m in ladder {
        let value = match (m.per_rate, rates) {
            (false, _) => fmt_value(values.get(m.name).unwrap_or(f64::NAN)),
            (true, Some(rates)) => rates
                .iter()
                .map(|r| {
                    format!(
                        "{r} {}",
                        fmt_value(values.get(&format!("{r}.{}", m.name)).unwrap_or(f64::NAN))
                    )
                })
                .collect::<Vec<_>>()
                .join(" | "),
            (true, None) => continue,
        };
        let moves = m
            .moves
            .split(", ")
            .map(|e| match values.get(e) {
                Some(v) => format!("{e} = {}", fmt_value(v)),
                None => e.to_string(),
            })
            .collect::<Vec<_>>()
            .join(", ");
        rows.push([m.layer.into(), m.name.into(), value, m.unit.into(), moves]);
    }
    let widths: Vec<usize> = (0..5)
        .map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0))
        .collect();
    for r in &rows {
        let line: Vec<String> = r
            .iter()
            .zip(&widths)
            .map(|(cell, w)| format!("{cell:<w$}"))
            .collect();
        out.push_str(line.join("  ").trim_end());
        out.push('\n');
    }
    out
}
