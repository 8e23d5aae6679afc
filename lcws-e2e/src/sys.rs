//! What `/proc` says about this process and host, and who built us: the
//! `meta` block of a result file and the per-child disturbance counters.
//! Everything degrades to `None`/"unknown" off Linux.

use std::process::Command;

use lcws_bench::machine::MachineInfo;

use crate::json::Json;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// `Key:   <n> kB`-style field of a `/proc/.../status` text.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> Option<f64> {
    status_field(&read("/proc/self/status")?, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// User + system CPU seconds of this process, all threads
/// (`/proc/self/stat` fields 14 and 15, at the universal 100 Hz tick).
pub fn cpu_seconds() -> Option<f64> {
    let stat = read("/proc/self/stat")?;
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Involuntary context switches of every thread of this process: the pool's
/// workers being preempted is what a disturbed run looks like from inside.
pub fn nonvoluntary_switches() -> Option<u64> {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let status = read(&format!("{}/status", task.ok()?.path().display()))?;
        total += status_field(&status, "nonvoluntary_ctxt_switches")?;
    }
    Some(total)
}

/// Hypervisor steal ticks of the whole host (`/proc/stat`, `cpu` field 8).
pub fn steal_ticks() -> Option<u64> {
    read("/proc/stat")?
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()
}

/// One word per thread of process `pid` — name, scheduler state and the
/// kernel function it sleeps in — for the status of a child killed at the
/// deadline: "all parked in futex_wait" and "one spinning" are different bugs.
pub fn thread_states(pid: u32) -> String {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return "unknown".to_string();
    };
    let mut words: Vec<String> = tasks
        .filter_map(|task| {
            let dir = task.ok()?.path();
            let field = |name: &str| read(&format!("{}/{name}", dir.display()));
            let stat = field("stat")?;
            let state = stat
                .rsplit_once(')')?
                .1
                .split_whitespace()
                .next()?
                .to_string();
            let wchan = field("wchan").unwrap_or_default();
            Some(format!(
                "{}:{state}:{}",
                field("comm")?.trim(),
                if wchan.trim().is_empty() {
                    "-"
                } else {
                    wchan.trim()
                }
            ))
        })
        .collect();
    words.sort();
    words.join(" ")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and with what a result was measured. `--compare` refuses to
/// compare results whose `cpu`, `nproc` or `P` differ.
pub fn meta(p: usize) -> Json {
    let machine = MachineInfo::probe();
    let mut o = Json::obj();
    o.set("cpu", machine.cpu.as_str())
        .set("cores", machine.cores)
        .set("nproc", machine.threads)
        .set("memory_gib", machine.memory_gib)
        .set("os", machine.os.trim())
        .set(
            "kernel",
            read("/proc/sys/kernel/osrelease")
                .map_or("unknown".to_string(), |s| s.trim().to_string()),
        )
        .set("rustc", command_line("rustc", &["--version"]))
        .set("git_sha", command_line("git", &["rev-parse", "HEAD"]))
        .set("P", p);
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let text = "Name:\tx\nVmHWM:\t  2048 kB\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(text, "VmHWM"), Some(2048));
        assert_eq!(status_field(text, "nonvoluntary_ctxt_switches"), Some(7));
        assert_eq!(status_field(text, "Missing"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn proc_probes_answer_on_linux() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(cpu_seconds().is_some());
        assert!(nonvoluntary_switches().is_some());
        assert!(steal_ticks().is_some());
    }
}
