//! Where a number was taken: the machine, the toolchain, and this process's
//! own memory and CPU use, all read from `/proc` without unsafe code.

use std::process::Command;

/// Peak resident set size (`VmHWM`) of this process in MiB; 0 when
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User + system CPU seconds this process has consumed. `/proc/self/stat`
/// counts in clock ticks; Linux fixes `USER_HZ` at 100.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces: fields are counted after its ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// Clock ticks (10 ms) the hypervisor has taken from this VM's CPUs so far:
/// the `steal` column of the first line of `/proc/stat`. 0 on bare metal or
/// when unreadable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.strip_prefix("cpu")?.to_string();
            cpu.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

/// First line of a helper command's output, or "unknown". The command is
/// waited for, so nothing is left running.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment fingerprint printed next to every set of numbers.
pub fn fingerprint(seed: u64, scan_threads: usize, generator_threads: usize) -> String {
    format!(
        "env: nproc={} cpu=\"{}\" rustc=\"{}\" git={} profile={} scan_threads={} generator_threads={} seed={}",
        nproc(),
        cpu_model(),
        first_line("rustc", &["--version"]),
        // The driver's checkout is not a git repository: "unknown" there.
        first_line("git", &["rev-parse", "--short", "HEAD"]),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        scan_threads,
        generator_threads,
        seed,
    )
}
