//! What the benchmark reads about the host and its own process (Linux /proc).

use std::process::Command;

/// Peak resident set size of this process (`VmHWM`), MiB; NaN if unreadable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// CPU seconds (user + system) this process has used on all its threads,
/// exited ones included; NaN if unreadable. Resolution is one clock tick
/// (Linux reports `/proc` times in USER_HZ = 100 ticks per second).
pub fn cpu_s() -> f64 {
    const USER_HZ: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name start at field 3
            // (state); utime and stime are fields 14 and 15.
            let rest = &stat[stat.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / USER_HZ)
        })
        .unwrap_or(f64::NAN)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name from /proc/cpuinfo.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The first line a command prints, or "unknown" when it cannot run.
pub fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()?
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host description recorded next to every result: core count, CPU
/// model, compiler and the revision of the code measured.
pub fn describe() -> Vec<(&'static str, String)> {
    vec![
        ("nproc", nproc().to_string()),
        ("cpu_model", cpu_model()),
        ("rustc", command_line("rustc", &["--version"])),
        (
            "git_revision",
            command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_are_readable() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_s() >= 0.0);
        assert!(nproc() >= 1);
    }
}
