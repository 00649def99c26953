//! Process CPU time and peak memory from Linux procfs.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every Linux architecture the workspace builds for).
const TICKS_PER_SECOND: f64 = 100.0;

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

/// User plus system CPU seconds of this process, every thread included.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = read("/proc/self/stat")?;
    // The command name may contain spaces; fields resume after its `)`.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) / TICKS_PER_SECOND)
}

/// Resets the peak resident set size (`VmHWM`) to the current one.
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting VmHWM via /proc/self/clear_refs: {e}"))
}

/// Peak resident set size in MiB since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = read("/proc/self/status")?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}
