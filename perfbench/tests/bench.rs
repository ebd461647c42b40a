//! Tests of the benchmark's own code: metric names, `BENCHMARK.json`,
//! the tree-mixed generator's stationary size, and a smoke pass over
//! every workload in both modes.

use cbtree_obs::Json;
use cbtree_perfbench::report::{self, valid_name, END_TO_END, LADDER};
use cbtree_perfbench::serve_wl::RATES;
use cbtree_perfbench::tree_mixed::{prefill_keys, MixGen};
use cbtree_perfbench::{parse_args, WORKLOADS};
use cbtree_workload::Operation;
use std::collections::HashSet;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(j: &Json, key: &str) -> Vec<String> {
    j.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} is an array"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("metric name")
                .to_string()
        })
        .collect()
}

#[test]
fn metric_names_are_well_formed() {
    let mut all: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    all.extend(
        report::SERVE_PRINTED
            .iter()
            .chain(report::TREE_MIXED_PRINTED)
            .map(|(n, _)| n.to_string()),
    );
    for m in LADDER {
        if m.per_rate {
            all.extend(RATES.iter().map(|r| format!("{r}.{}", m.name)));
        } else {
            all.push(m.name.to_string());
        }
    }
    for n in &all {
        assert!(valid_name(n), "bad metric name {n:?}");
    }
    assert!(!valid_name("has space") && !valid_name(".lead") && !valid_name(""));
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let j = benchmark_json();
    let Json::Obj(fields) = &j else {
        panic!("top level is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(names(&j, "workloads"), WORKLOADS);
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names(&j, "end_to_end"), e2e);
    let layers: Vec<&str> = report::per_layer().map(|m| m.name).collect();
    assert_eq!(names(&j, "per_layer"), layers);
    for m in j.get("end_to_end").and_then(Json::as_arr).unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        let name = m.get("name").and_then(Json::as_str).unwrap();
        let unit = END_TO_END.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit),
            "unit of {name}"
        );
    }
    for m in j.get("per_layer").and_then(Json::as_arr).unwrap() {
        let name = m.get("name").and_then(Json::as_str).unwrap();
        let unit = LADDER
            .iter()
            .find(|l| l.name == name && !l.per_rate)
            .unwrap()
            .unit;
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit),
            "unit of {name}"
        );
    }
}

#[test]
fn tree_mixed_generator_holds_the_tree_at_half_the_key_space() {
    const K: u64 = 20_000;
    let mut live: HashSet<u64> = prefill_keys(3, (K / 2) as usize, K).into_iter().collect();
    let mut gen = MixGen::new(11, K);
    for step in 1..=2_000_000u64 {
        match gen.next_op() {
            Operation::Insert(k) => {
                live.insert(k);
            }
            Operation::Delete(k) => {
                live.remove(&k);
            }
            Operation::Search(_) => {}
        }
        if step % 100_000 == 0 {
            let dev = (live.len() as f64 - (K / 2) as f64).abs() / (K / 2) as f64;
            assert!(dev <= 0.10, "size {} after {step} ops", live.len());
        }
    }
}

#[test]
fn arguments_parse_and_reject() {
    let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
    let a = args("--workload tree-mixed --seed 7 --seconds 2 --trace 1").unwrap();
    assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (7, 2.0, true, false));
    assert!(
        args("--workload serve-seq-append --seed 1 --seconds 1 --trace 0 --smoke")
            .unwrap()
            .smoke
    );
    assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
    assert!(args("--workload tree-mixed --seed 1 --seconds 1 --trace 2").is_err());
    assert!(args("--workload tree-mixed --seed 1 --trace 0").is_err());
}

/// Runs the benchmark binary the way `BENCHMARK.json` does (each run a
/// fresh process, so resident-set figures start clean) and returns its
/// exit status and last stdout line.
fn run_binary(
    workload: &str,
    trace: bool,
    out_dir: &std::path::Path,
) -> (std::process::ExitStatus, Json) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cbtree-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0.3",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output").to_string();
    (
        out.status,
        Json::parse(&last).unwrap_or_else(|e| panic!("last line is JSON: {e}: {last}")),
    )
}

#[test]
fn smoke_pass_runs_every_workload() {
    let out_dir = std::env::temp_dir().join(format!("perfbench-smoke-{}", std::process::id()));
    for wl in WORKLOADS {
        for trace in [false, true] {
            let (status, res) = run_binary(wl, trace, &out_dir);
            let Json::Obj(fields) = &res else {
                panic!("result is an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                res.get("correct").and_then(Json::as_bool),
                Some(true),
                "{wl} trace={trace}: {res:?}"
            );
            assert!(status.success(), "{wl} trace={trace}: {status}");
            assert!(res
                .get("attempted")
                .and_then(Json::as_u64)
                .is_some_and(|n| n > 0));
            let metrics = res.get("metrics").expect("metrics");
            let expect: Vec<(&str, &str)> = if trace {
                report::per_layer().map(|m| (m.name, m.unit)).collect()
            } else {
                END_TO_END.to_vec()
            };
            let Json::Obj(got) = metrics else {
                panic!("metrics is an object")
            };
            assert_eq!(
                got.len(),
                expect.len(),
                "{wl} trace={trace}: exactly the declared metrics"
            );
            for (name, unit) in expect {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{wl} trace={trace}: {name} missing"));
                let v = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
                if !trace {
                    assert!(v > 0.0, "{wl}: end-to-end {name} = {v} must not be 0");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn a_failed_gate_or_missing_metric_fails_the_result_line() {
    let (line, correct) = report::result_line(false, 0, 0, &[("x", "s", 1.5)]);
    assert!(!correct && line.contains("\"correct\":false") && line.contains("\"attempted\":1"));
    let (line, correct) = report::result_line(true, 1, 0, &[("x", "s", f64::NAN)]);
    assert!(
        !correct && !line.contains("\"x\""),
        "an unmeasured metric fails the run"
    );
    assert!(report::result_line(true, 3, 0, &[("x", "s", 1.5)]).1);
}
