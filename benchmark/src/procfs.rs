//! The few `/proc` readings the benchmark takes: peak resident memory,
//! CPU time and the host's CPU model. Parsers are pure functions over the
//! file text so they can be tested without a `/proc`.

use std::fs;

/// `VmHWM` (peak resident set) in KiB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut words = rest.split_whitespace();
    let value: u64 = words.next()?.parse().ok()?;
    (words.next()? == "kB").then_some(value)
}

/// `utime + stime` in clock ticks from `/proc/<pid>/stat` text. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the **last** `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPUs listed in `/proc/cpuinfo` text — the machine's, whatever this
/// process is pinned to.
pub fn parse_cpu_count(cpuinfo: &str) -> usize {
    cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count()
}

/// The first `model name` of `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    let line = cpuinfo.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Peak resident set of this process in MiB (0 where `/proc` is missing).
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// CPU time this process has used so far, in milliseconds. Linux reports
/// `/proc` times in `USER_HZ` ticks, which is 100 on every supported
/// architecture.
pub fn cpu_ms() -> f64 {
    const MS_PER_TICK: f64 = 10.0;
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 * MS_PER_TICK)
}

/// The host's CPU count and model string (0 and "unknown" without `/proc`).
pub fn cpus() -> (usize, String) {
    let info = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = parse_cpu_model(&info).unwrap_or_else(|| "unknown".to_string());
    (parse_cpu_count(&info), model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   123456 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let tail = "S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0 100 0 0";
        assert_eq!(parse_cpu_ticks(&format!("42 (bench) {tail}")), Some(300));
        assert_eq!(parse_cpu_ticks(&format!("42 (a) b (c)) {tail}")), Some(300));
        assert_eq!(parse_cpu_ticks("42 (bench) S 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn cpu_model_is_the_first_model_name() {
        let info = "processor\t: 0\nmodel name\t: Fast CPU @ 2.10GHz\nmodel name\t: other\n";
        assert_eq!(parse_cpu_model(info).as_deref(), Some("Fast CPU @ 2.10GHz"));
        assert_eq!(parse_cpu_model("processor\t: 0\n"), None);
        assert_eq!(parse_cpu_count(info), 1);
        assert_eq!(parse_cpu_count("processor\t: 0\nx\nprocessor\t: 1\n"), 2);
    }

    #[test]
    fn live_readings_are_sane_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib() > 0.0);
            assert!(cpu_ms() >= 0.0);
            assert!(cpus().0 >= 1 && !cpus().1.is_empty());
        }
    }
}
