//! Command-line entry point; see the library docs and README.md.

use cbtree_perfbench::{meta, parse_args, report, run, USAGE};
use std::io::Write;

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let meta = meta::metadata(&args.workload, args.seed, args.seconds, args.trace);
    let meta_line = meta.to_string().expect("metadata serializes");
    println!("# meta {meta_line}");

    let out = run(&args);

    let printed = if args.workload == "tree-mixed" {
        report::TREE_MIXED_PRINTED
    } else {
        report::SERVE_PRINTED
    };
    println!(
        "end-to-end: {} (seed {}, {} s measured, nproc {})",
        args.workload,
        args.seed,
        args.seconds,
        meta::nproc()
    );
    for &(name, unit) in printed {
        let v = out.values.get(name).unwrap_or(f64::NAN);
        println!("  {name:<20} {:>14} {unit}", report::fmt_value(v));
    }
    if !out.text.is_empty() {
        print!("{}", out.text);
    }
    for g in &out.gates {
        println!(
            "gate {}: {} ({})",
            if g.ok { "ok  " } else { "FAIL" },
            g.name,
            g.detail
        );
    }

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        report::per_layer()
            .map(|m| (m.name, m.unit, out.values.get(m.name).unwrap_or(f64::NAN)))
            .collect()
    } else {
        report::END_TO_END
            .iter()
            .map(|&(n, u)| (n, u, out.values.get(n).unwrap_or(f64::NAN)))
            .collect()
    };
    if let Err(e) = write_records(&args, &meta_line, &out) {
        eprintln!("perfbench: writing results to {}: {e}", args.out.display());
    }
    let (line, correct) = report::result_line(out.correct(), out.attempted, out.failed, &metrics);
    println!("{line}");
    let _ = std::io::stdout().flush();
    if !correct {
        std::process::exit(1);
    }
}

/// Writes the full value set (per-rate rows included) and the spans.
fn write_records(
    args: &cbtree_perfbench::Args,
    meta_line: &str,
    out: &cbtree_perfbench::RunOutput,
) -> std::io::Result<()> {
    use cbtree_obs::Json;
    std::fs::create_dir_all(&args.out)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let values = Json::obj(out.values.iter().map(|(n, v)| (n, Json::f64_or_null(v))));
    let gates = Json::arr(out.gates.iter().map(|g| {
        Json::obj(vec![
            ("gate", g.name.as_str().into()),
            ("ok", g.ok.into()),
            ("detail", g.detail.as_str().into()),
        ])
    }));
    let record = Json::obj(vec![
        ("type", "perfbench_result".into()),
        ("values", values),
        ("gates", gates),
        ("measurements", Json::arr(out.records.iter().cloned())),
    ]);
    let record = record.to_string().map_err(std::io::Error::other)?;
    std::fs::write(
        args.out.join(format!("{stem}.jsonl")),
        format!("{meta_line}\n{record}\n"),
    )?;
    if args.trace {
        let file = std::fs::File::create(args.out.join(format!("{stem}.spans.tsv")))?;
        let mut w = std::io::BufWriter::new(file);
        cbtree_perfbench::spans::write_tsv(&mut w, &out.spans)?;
        w.flush()?;
    }
    Ok(())
}
