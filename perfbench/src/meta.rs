//! Host and build metadata recorded with every result, and the process
//! resident-set size.

use cbtree_obs::Json;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host and build metadata for a result: core count, rustc version, git
/// revision, enabled features, and the run's workload, seed and length.
pub fn metadata(workload: &str, seed: u64, seconds: f64, traced: bool) -> Json {
    Json::obj(vec![
        ("type", "perfbench_meta".into()),
        ("workload", workload.into()),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("trace", traced.into()),
        ("nproc", nproc().into()),
        ("rustc", env!("PERFBENCH_RUSTC").into()),
        ("git_rev", env!("PERFBENCH_GIT_REV").into()),
        ("features", env!("PERFBENCH_FEATURES").into()),
        ("debug_assertions", cfg!(debug_assertions).into()),
        ("os", std::env::consts::OS.into()),
        ("arch", std::env::consts::ARCH.into()),
    ])
}

/// Resident-set size of this process in bytes, from `/proc/self/statm`
/// (`None` where that file does not exist).
pub fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}
