//! CPU time and peak memory of a process, read from outside it.
//!
//! CPU time comes from nanosecond counters, never from the 10 ms
//! `utime`/`stime` ticks: a timed phase of a few seconds would
//! otherwise carry a quantisation error of several percent.

use std::fs;
use std::io;
use std::path::Path;

/// On-CPU nanoseconds from one `/proc/<pid>/task/<tid>/schedstat` line
/// (`<run ns> <wait ns> <timeslices>`).
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// A `kB` field of `/proc/<pid>/status`, e.g. `VmHWM:  10240 kB`.
pub fn parse_status_kib(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        let mut fields = rest.split_whitespace();
        let value = fields.next()?.parse().ok()?;
        (fields.next() == Some("kB")).then_some(value)
    })
}

/// Summed on-CPU nanoseconds of every live thread of a process, from
/// `/proc/<pid>/task/*/schedstat`. A thread that exits takes its time
/// with it, so this suits processes whose threads live as long as the
/// measurement (the daemon's pool and connection threads).
///
/// # Errors
///
/// Propagates I/O errors other than a thread exiting mid-scan.
pub fn task_cpu_ns(pid: u32) -> io::Result<u64> {
    let mut ns = 0;
    for entry in fs::read_dir(format!("/proc/{pid}/task"))? {
        let text = match fs::read_to_string(entry?.path().join("schedstat")) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        ns += parse_schedstat(&text).ok_or_else(|| bad_data("schedstat"))?;
    }
    Ok(ns)
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
///
/// # Errors
///
/// Propagates the read failure; a status file without `VmHWM` is
/// [`io::ErrorKind::InvalidData`].
pub fn peak_rss_mib(status_path: &Path) -> io::Result<f64> {
    let text = fs::read_to_string(status_path)?;
    let kib = parse_status_kib(&text, "VmHWM").ok_or_else(|| bad_data("VmHWM"))?;
    Ok(kib as f64 / 1024.0)
}

/// `(steal, total)` clock ticks of the machine so far, from the `cpu`
/// line of `/proc/stat`: time the hypervisor gave this machine's virtual
/// CPUs to someone else, and all time.
pub fn steal_ticks() -> io::Result<(u64, u64)> {
    let text = fs::read_to_string("/proc/stat")?;
    let line = text.lines().next().ok_or_else(|| bad_data("/proc/stat"))?;
    parse_cpu_line(line).ok_or_else(|| bad_data("/proc/stat"))
}

/// Parses `cpu  user nice system idle iowait irq softirq steal …`.
pub fn parse_cpu_line(line: &str) -> Option<(u64, u64)> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let ticks: Vec<u64> = fields
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

fn bad_data(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unparsable {what}"))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// On-CPU nanoseconds of the calling process, threads that have
/// already exited included. The offline workload needs this rather
/// than [`task_cpu_ns`]: its analysis runs on scoped worker threads that
/// end inside every encode call, and their time would be gone from the
/// per-thread `schedstat` files by the end of the phase.
pub fn self_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of
    // 64-bit Linux (two 64-bit fields), and the clock id is a constant
    // the kernel defines; clock_gettime writes only through `tp`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_first_field_is_run_time() {
        assert_eq!(parse_schedstat("123456789 4242 17\n"), Some(123_456_789));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn status_fields_parse_by_exact_key() {
        let status = "Name:\tscorpio_serve\nVmPeak:\t  200000 kB\nVmHWM:\t   10240 kB\nVmRSS:\t    9000 kB\nThreads:\t4\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(10_240));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(9_000));
        assert_eq!(
            parse_status_kib(status, "VmHW"),
            None,
            "prefix must not match"
        );
        assert_eq!(parse_status_kib(status, "Threads"), None, "not a kB field");
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
    }

    #[test]
    fn cpu_line_gives_steal_and_total() {
        let line = "cpu  2166469 1226 89519 1787355 1097 0 4651 56017 0 0";
        let total = 2166469 + 1226 + 89519 + 1787355 + 1097 + 4651 + 56017;
        assert_eq!(parse_cpu_line(line), Some((56017, total)));
        assert_eq!(
            parse_cpu_line("cpu0 1 2 3 4 5 6 7 8 0 0"),
            None,
            "per-CPU line"
        );
        assert_eq!(parse_cpu_line("cpu  1 2 3"), None, "no steal column");
    }

    #[test]
    fn live_counters_read_and_advance() {
        assert!(task_cpu_ns(std::process::id()).unwrap() > 0);
        let before = self_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(self_cpu_ns() > before, "{x}");
        assert!(peak_rss_mib(Path::new("/proc/self/status")).unwrap() > 0.0);
    }
}
