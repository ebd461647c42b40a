//! Captures build metadata (rustc version, git revision, enabled
//! features) as compile-time environment variables, so every result the
//! benchmark prints says what it measured.

use std::process::Command;

fn capture(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!s.is_empty()).then_some(s)
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = capture(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    // A source checkout without `.git` (an exported tree) has no revision.
    let rev = capture("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "none".into());
    let mut features: Vec<String> = std::env::vars()
        .filter_map(|(k, _)| k.strip_prefix("CARGO_FEATURE_").map(|f| f.to_lowercase()))
        .collect();
    features.sort();
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
    println!("cargo:rustc-env=PERFBENCH_FEATURES={}", features.join(","));
    println!("cargo:rerun-if-changed=build.rs");
    // Re-capture the revision after a commit or checkout (both paths are
    // absent, and ignored, in an exported tree).
    println!("cargo:rerun-if-changed=../.git/HEAD");
    println!("cargo:rerun-if-changed=../.git/refs");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
