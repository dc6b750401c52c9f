//! Process counters read from `/proc/self`.

/// Clock ticks per second of `/proc/<pid>/stat` times (USER_HZ, 100 on
/// every Linux architecture this runs on).
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU time of the whole process, every thread included.
pub fn cpu_seconds() -> f64 {
    let (user, system) = cpu_split_seconds();
    user + system
}

/// User and system CPU time of the whole process, every thread included.
pub fn cpu_split_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("stat times are integers");
    (ticks(11) / TICKS_PER_SECOND, ticks(12) / TICKS_PER_SECOND)
}

/// Peak resident set size of the process so far (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
