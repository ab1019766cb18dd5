//! Process CPU time and peak memory from `/proc/self`.

/// `/proc` reports CPU time in USER_HZ ticks, which Linux fixes at
/// 100 per second for user space.
const TICK_MS: f64 = 10.0;

/// User + system CPU of the whole process (every thread, live or
/// exited) in milliseconds, at 10 ms resolution.
pub fn cpu_ms() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name, which may itself
    // contain spaces; utime and stime are fields 14 and 15 overall.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 * TICK_MS)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_this_process() {
        assert!(super::cpu_ms().unwrap() >= 0.0);
        assert!(super::peak_rss_mib().unwrap() > 0.0);
    }
}
