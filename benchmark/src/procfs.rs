//! Process accounting read from `/proc`: CPU time and peak resident set;
//! and the two process settings that keep the nodes, which a deployment
//! runs as processes of their own, from disturbing each other inside this
//! one: a CPU per replica and an allocator arena per thread.
//!
//! The whole cluster runs inside the benchmark process, so `/proc/self`
//! accounts for every node, the generator and the observer together.

use std::fs;

/// Kernel clock ticks per second (`USER_HZ`); 100 on every Linux ABI.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds from a `/proc/<pid>/stat` line. The command
/// name (field 2) may contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the command name: state is field 3, utime 14, stime 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLK_TCK)
}

/// Peak resident set in MiB from `/proc/<pid>/status` (`VmHWM`, in kB).
pub fn parse_status_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// On-CPU nanoseconds from a `schedstat` line (`run wait slices`).
pub fn parse_schedstat_run_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// CPU seconds this process (all threads, exited ones included) has used.
pub fn process_cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_s(&s))
        .expect("/proc/self/stat is readable on Linux")
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_hwm_mib(&s))
        .expect("/proc/self/status is readable on Linux")
}

/// CPU seconds the calling thread has used, at nanosecond resolution.
pub fn thread_cpu_s() -> f64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| parse_schedstat_run_ns(&s))
        .expect("/proc/thread-self/schedstat is readable on Linux") as f64
        / 1e9
}

/// The kernel's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];
/// `M_ARENA_MAX` of glibc's `mallopt`.
const M_ARENA_MAX: i32 = -8;

extern "C" {
    // In the C library the standard library already links.
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// The CPUs the calling thread may run on, in ascending order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable `cpu_set_t` of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pin the calling thread, and every thread it starts from now on, to
/// `cpu`; whether the kernel accepted it.
///
/// Left to itself this host's scheduler keeps two busy threads on one
/// vCPU for seconds while the other idles (two spinning threads took
/// 0.12 s each instead of 0.06 s for twelve rounds in a row), so an
/// episode's throughput depended on where its replicas happened to wake.
pub fn pin_to_cpu(cpu: usize) -> bool {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a `cpu_set_t` of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// Give every thread an allocator arena of its own; whether glibc
/// accepted it. Call before the first thread starts.
///
/// glibc stops making arenas at eight per CPU and lets later threads
/// share. An episode runs some twenty-five threads, so one time in ten
/// the two replicas' event loops drew the same arena and queued on its
/// lock at every allocation: 90 000 context switches in a phase that has
/// 15 otherwise, at a fifth of the throughput.
pub fn private_arenas() -> bool {
    // SAFETY: two integers; no memory is passed.
    unsafe { mallopt(M_ARENA_MAX, 4096) == 1 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let line = "4242 (harmony) bench) R 1 4242 1 0 -1 4194304 85 0 0 0 \
                    1234 66 0 0 20 0 9 0 3355263 2568192 328 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(line), Some(13.0));
        assert_eq!(parse_stat_cpu_s("no parenthesis"), None);
        assert_eq!(parse_stat_cpu_s("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_hwm_in_mib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_hwm_mib(status), Some(2.0));
        assert_eq!(parse_status_hwm_mib("Name:\tx\n"), None);
    }

    #[test]
    fn schedstat_run_time() {
        assert_eq!(parse_schedstat_run_ns("967635 85101 2\n"), Some(967_635));
        assert_eq!(parse_schedstat_run_ns(""), None);
    }

    #[test]
    fn pinning_narrows_the_allowed_cpus_to_one() {
        // On a thread of its own: the pin must not outlive the test.
        std::thread::spawn(|| {
            let cpus = allowed_cpus();
            assert!(!cpus.is_empty());
            let last = *cpus.last().unwrap();
            assert!(pin_to_cpu(last));
            assert_eq!(allowed_cpus(), [last]);
            // Threads started from a pinned thread stay on its CPU.
            let child = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(child, [last]);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
        assert!(thread_cpu_s() >= 0.0);
    }
}
