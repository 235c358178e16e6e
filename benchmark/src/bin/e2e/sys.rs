//! Readings from the operating system: peak memory, host steal time and
//! context switches.

use std::fs;

/// `VmHWM` (peak resident set) of a process in KiB; `pid` is a number
/// or `"self"`.
pub fn vm_hwm_kib(pid: &str) -> Option<u64> {
    status_field(pid, "VmHWM:")
}

fn status_field(path_pid: &str, key: &str) -> Option<u64> {
    let text = fs::read_to_string(format!("/proc/{path_pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Processes whose parent is this process (the fleet's shard children).
pub fn child_pids() -> Vec<u32> {
    let me = std::process::id();
    let Ok(entries) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| parent_of(pid) == Some(me))
        .collect()
}

fn parent_of(pid: u32) -> Option<u32> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces and parentheses; fields resume
    // after the last ')': state, then the parent pid.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(1)?.parse().ok()
}

/// Cumulative `(steal, total)` CPU jiffies of the host, from `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let text = fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().next()?.strip_prefix("cpu ")?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted inside user and nice.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// Share of host CPU time stolen by the hypervisor between two
/// [`cpu_jiffies`] readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
    /// oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw.
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Voluntary plus involuntary context switches of every thread this
/// process has run, exited ones included. `/proc/self/status` counts
/// only the main thread, which would miss the short-lived chunk and
/// batch threads this metric exists to show.
pub fn ctx_switches() -> u64 {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` for LP64
    // Linux (two `timeval`s then fourteen `long`s), and RUSAGE_SELF (0)
    // asks only for this process's counters.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0;
    }
    (usage.longs[12] + usage.longs[13]).max(0) as u64
}

/// Context switches of another process's live threads, summed from
/// `/proc/<pid>/task/*/status`.
pub fn process_ctx_switches(pid: u32) -> u64 {
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .filter_map(|t| t.ok()?.file_name().to_str().map(str::to_string))
        .map(|tid| {
            let at = format!("{pid}/task/{tid}");
            status_field(&at, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_field(&at, "nonvoluntary_ctxt_switches:").unwrap_or(0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_available_on_linux() {
        assert!(vm_hwm_kib("self").unwrap_or(0) > 0);
        let (steal, total) = cpu_jiffies().expect("/proc/stat");
        assert!(total > steal);
        let before = ctx_switches();
        std::thread::spawn(|| std::thread::sleep(std::time::Duration::from_millis(2)))
            .join()
            .expect("joins");
        assert!(ctx_switches() > before, "exited threads still count");
    }
}
