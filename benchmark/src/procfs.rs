//! Process accounting and platform metadata read from `/proc` (there is
//! no `libc` in `vendor/`, so no `getrusage`/`sysconf`).

use std::path::Path;
use std::process::Command;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Fixed at
/// 100 by the Linux ABI on every architecture this workspace builds for.
const USER_HZ: f64 = 100.0;

/// User + system clock ticks from the text of `/proc/<pid>/stat`.
///
/// The `comm` field may itself contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`, kB) from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// File-system type of the mount holding `path`, from the text of
/// `/proc/self/mountinfo` (longest mount-point prefix wins).
pub fn parse_fs_type(mountinfo: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        let (left, right) = line.split_once(" - ")?;
        let mount_point = left.split_ascii_whitespace().nth(4)?;
        let fs_type = right.split_ascii_whitespace().next()?;
        if path.starts_with(mount_point) && best.as_ref().is_none_or(|b| mount_point.len() >= b.0) {
            best = Some((mount_point.len(), fs_type.to_string()));
        }
    }
    best.map(|b| b.1)
}

/// CPU milliseconds (user + system, every thread, exited ones included)
/// this process has consumed so far.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let ticks = parse_stat_cpu_ticks(&stat).expect("parse /proc/self/stat");
    ticks as f64 * 1e3 / USER_HZ
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("parse VmHWM") as f64 / 1024.0
}

/// Whether `dir` sits on a tmpfs mount.
pub fn on_tmpfs(dir: &Path) -> bool {
    let Ok(dir) = dir.canonicalize() else {
        return false;
    };
    std::fs::read_to_string("/proc/self/mountinfo")
        .ok()
        .and_then(|m| parse_fs_type(&m, &dir))
        .is_some_and(|t| t == "tmpfs")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Platform fields every output record carries, so records from different
/// hosts or revisions are never compared by accident.
pub fn platform_meta() -> serde_json::Value {
    // Only in a checkout that is itself a repository: elsewhere git would
    // walk up and report some enclosing repository's revision.
    let git = |args: &[&str]| {
        Path::new(".git")
            .exists()
            .then(|| command_line("git", args))
            .flatten()
    };
    let rev = git(&["rev-parse", "--short", "HEAD"]);
    let dirty = git(&["status", "--porcelain"]).map(|s| !s.is_empty());
    serde_json::json!({
        "rev": rev.unwrap_or_else(|| "unknown".into()),
        "dirty": dirty,
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "kernel": std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        "rustc": command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured on the 2-core build box; comm doctored to hold ") (" so the
    // parser must anchor on the last parenthesis.
    const STAT: &str = "4242 (ceal ) (bench) S 4100 4242 4100 34816 4242 4194304 1810 0 3 0 \
        1234 567 0 0 20 0 5 0 8812345 293601280 2310 18446744073709551615 1 1 0 0 0 0 0 \
        4096 17642 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";

    const STATUS: &str = "Name:\tceal-benchmark\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  286720 kB\nVmSize:\t  221184 kB\nVmHWM:\t   48212 kB\nVmRSS:\t   40100 kB\n\
        Threads:\t5\n";

    const MOUNTINFO: &str = "\
        23 1 254:0 / / rw,relatime - ext4 /dev/vda rw,discard\n\
        24 23 0:5 / /dev rw,nosuid - devtmpfs devtmpfs rw,size=8236132k\n\
        27 24 0:22 / /dev/shm rw,nosuid,nodev shared:3 - tmpfs tmpfs rw\n\
        30 23 0:25 / /proc rw,nosuid,nodev,noexec,relatime - proc proc rw\n";

    #[test]
    fn stat_ticks_survive_hostile_comm() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(1234 + 567));
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_the_peak_not_the_current() {
        assert_eq!(parse_vm_hwm_kb(STATUS), Some(48212));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t1 kB\n"), None);
    }

    #[test]
    fn fs_type_takes_the_longest_mount_prefix() {
        let fs = |p: &str| parse_fs_type(MOUNTINFO, Path::new(p));
        assert_eq!(fs("/dev/shm/ceal/state").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/root/repo/benchmark/out").as_deref(), Some("ext4"));
        assert_eq!(fs("/dev/null").as_deref(), Some("devtmpfs"));
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(cpu_ms() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
