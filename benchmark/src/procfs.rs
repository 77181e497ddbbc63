//! What the kernel says about the program's threads, read from `/proc/self`.
//!
//! Nothing inside the program is instrumented by this benchmark, so per-thread cost comes
//! from the scheduler's own accounting: `/proc/self/task/<tid>/schedstat` holds the
//! nanoseconds a thread ran, the nanoseconds it waited on a run queue, and how many
//! times it was given the processor. Threads are grouped by the names the program gives
//! them (`comm`, cut to 15 characters by the kernel).

use std::collections::HashMap;
use std::fs;

/// The thread groups of the program, by `comm` prefix, in reporting order.
pub const GROUPS: [(&str, &str); 7] = [
    ("server", "pocc-server"),
    ("lane", "pocc-lane"),
    ("conn_rx", "pocc-conn"),
    ("client_rx", "pocc-client"),
    ("accept", "pocc-accept"),
    ("net_delay", "pocc-net-delay"),
    ("generator", GENERATOR_THREAD_PREFIX),
];

/// Name prefix of the benchmark's own load-generating threads.
pub const GENERATOR_THREAD_PREFIX: &str = "bench-gen";

/// One thread's scheduler accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStat {
    pub run_ns: u64,
    pub wait_ns: u64,
    pub slices: u64,
}

/// Parses the three fields of a `schedstat` file.
pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut fields = text.split_ascii_whitespace().map(str::parse::<u64>);
    let stat = SchedStat {
        run_ns: fields.next()?.ok()?,
        wait_ns: fields.next()?.ok()?,
        slices: fields.next()?.ok()?,
    };
    Some(stat)
}

/// The group a thread belongs to, from the contents of its `comm` file.
pub fn group_of(comm: &str) -> Option<&'static str> {
    let comm = comm.trim_end();
    GROUPS
        .iter()
        .find(|(_, prefix)| comm.starts_with(prefix))
        .map(|(group, _)| *group)
}

/// The value in kB of a `Key:   123 kB` line of a `status` file.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// User plus system time of a `stat` file, in clock ticks. The command name is in
/// parentheses and may itself hold spaces and parentheses, so fields are counted from
/// the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_ascii_whitespace();
    // After the command come state (3) … utime (14) and stime (15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Scheduler accounting of every live thread of this process, keyed by thread id, with
/// its group. `None` when the kernel does not expose `schedstat` (not Linux, a
/// restricted `/proc`, or scheduler statistics compiled out).
pub fn sample_threads() -> Option<HashMap<u64, (Option<&'static str>, SchedStat)>> {
    let mut threads = HashMap::new();
    for (tid, comm) in thread_names() {
        // A thread can exit between the directory listing and the read; skip it.
        let Ok(stat) = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")) else {
            continue;
        };
        threads.insert(tid, (group_of(&comm), parse_schedstat(&stat)?));
    }
    (!threads.is_empty()).then_some(threads)
}

/// Per-group accounting over a window: the sum, over threads alive at both ends, of the
/// differences of their counters.
pub fn group_deltas(
    start: &HashMap<u64, (Option<&'static str>, SchedStat)>,
    end: &HashMap<u64, (Option<&'static str>, SchedStat)>,
) -> HashMap<&'static str, SchedStat> {
    let mut groups: HashMap<&'static str, SchedStat> = HashMap::new();
    for (tid, (group, after)) in end {
        let (Some(group), Some((_, before))) = (group, start.get(tid)) else {
            continue;
        };
        let sum = groups.entry(group).or_default();
        sum.run_ns += after.run_ns.saturating_sub(before.run_ns);
        sum.wait_ns += after.wait_ns.saturating_sub(before.wait_ns);
        sum.slices += after.slices.saturating_sub(before.slices);
    }
    groups
}

/// The data center a thread of the program serves, from its `comm`: servers, acceptors
/// and connection readers carry `dc<r>`, worker lanes start with the replica number.
/// `None` for threads that serve no single data center.
pub fn data_center_of(comm: &str) -> Option<u16> {
    let comm = comm.trim_end();
    let digits = |s: &str| -> Option<u16> {
        let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
        s[..end].parse().ok()
    };
    if let Some(rest) = comm.strip_prefix("pocc-lane-") {
        return digits(rest);
    }
    if !["pocc-server-", "pocc-conn-", "pocc-accept-"]
        .iter()
        .any(|prefix| comm.starts_with(prefix))
    {
        return None;
    }
    comm.find("dc").and_then(|at| digits(&comm[at + 2..]))
}

/// `(thread id, comm)` of every live thread of this process.
pub fn thread_names() -> Vec<(u64, String)> {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let tid = path.file_name()?.to_str()?.parse().ok()?;
            Some((tid, fs::read_to_string(path.join("comm")).ok()?))
        })
        .collect()
}

/// The processor numbers in a `Cpus_allowed_list` value such as `0-1` or `2-3,6`.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (first, last) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(first), Ok(last)) = (first.trim().parse::<usize>(), last.trim().parse()) {
            cpus.extend(first..=last);
        }
    }
    cpus
}

/// The processors this process may run on (a container's set need not start at 0), as
/// the main thread, which the benchmark never confines, sees them.
pub fn allowed_cpus() -> Vec<usize> {
    let listed = fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status
                .lines()
                .find(|l| l.starts_with("Cpus_allowed_list:"))?;
            Some(parse_cpu_list(line.split_once(':')?.1))
        })
        .unwrap_or_default();
    if listed.is_empty() {
        (0..std::thread::available_parallelism().map_or(1, |n| n.get())).collect()
    } else {
        listed
    }
}

extern "C" {
    /// glibc's wrapper of the Linux system call of the same name.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines thread `tid` of this process to processor `cpu`. `false` if the kernel
/// refuses (a restricted container) or the processor does not exist.
pub fn pin_thread(tid: u64, cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size passed, which is
    // all `sched_setaffinity` reads; it writes nothing through the pointer, and a thread
    // id that has meanwhile exited makes it return an error, not misbehave.
    unsafe { sched_setaffinity(tid as i32, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Processor time the whole process has used, in nanoseconds: user plus system time
/// from `/proc/self/stat`. Linux reports it in ticks of 1/100 s on every supported
/// architecture (`USER_HZ`), which over a window of seconds resolves to a fraction of a
/// percent. `None` where `/proc` is absent.
pub fn process_cpu_ns() -> Option<u64> {
    const NS_PER_TICK: u64 = 1_000_000_000 / 100;
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    Some(parse_stat_cpu_ticks(&stat)? * NS_PER_TICK)
}

/// Peak resident set size of the process, in MiB.
pub fn rss_peak_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status_kb(&status, "VmHWM")? as f64 / 1024.0)
}

/// `(nproc, kernel release)`: recorded with every result, because every number here
/// depends on both.
pub fn machine_fingerprint() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    (nproc, kernel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_fixture_parses_and_garbage_does_not() {
        assert_eq!(
            parse_schedstat("123456789 4242 17\n"),
            Some(SchedStat {
                run_ns: 123_456_789,
                wait_ns: 4242,
                slices: 17
            })
        );
        assert_eq!(parse_schedstat("12 34"), None);
        assert_eq!(parse_schedstat("a b c"), None);
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn comm_fixtures_map_to_groups() {
        // The kernel cuts names to 15 characters and ends the file with a newline.
        assert_eq!(group_of("pocc-server-dc0\n"), Some("server"));
        assert_eq!(group_of("pocc-lane-0-0-1\n"), Some("lane"));
        assert_eq!(group_of("pocc-conn-dc1/p\n"), Some("conn_rx"));
        assert_eq!(group_of("pocc-client-c3\n"), Some("client_rx"));
        assert_eq!(group_of("pocc-accept-dc0\n"), Some("accept"));
        assert_eq!(group_of("pocc-net-delay\n"), Some("net_delay"));
        assert_eq!(group_of("bench-gen-1\n"), Some("generator"));
        assert_eq!(group_of("pocc-benchmark\n"), None);
        assert_eq!(group_of(""), None);
    }

    #[test]
    fn comm_fixtures_name_their_data_center() {
        assert_eq!(data_center_of("pocc-server-dc0\n"), Some(0));
        assert_eq!(data_center_of("pocc-server-dc12\n"), Some(12));
        assert_eq!(data_center_of("pocc-conn-dc1/p\n"), Some(1));
        assert_eq!(data_center_of("pocc-accept-dc2\n"), Some(2));
        assert_eq!(data_center_of("pocc-lane-2-0-1\n"), Some(2));
        assert_eq!(data_center_of("pocc-lane-10-3-\n"), Some(10));
        // Shared by all data centers, or not the program's at all.
        assert_eq!(data_center_of("pocc-net-delay\n"), None);
        assert_eq!(data_center_of("pocc-client-c3\n"), None);
        assert_eq!(data_center_of("bench-gen-1\n"), None);
        assert_eq!(data_center_of("dc5\n"), None);
        assert_eq!(data_center_of("pocc-server-dc\n"), None);
    }

    #[test]
    fn cpu_lists_expand_ranges_and_skip_garbage() {
        assert_eq!(parse_cpu_list("0-1\n"), [0, 1]);
        assert_eq!(parse_cpu_list("\t2-3,6"), [2, 3, 6]);
        assert_eq!(parse_cpu_list("5"), [5]);
        assert_eq!(parse_cpu_list("x,1-y,4"), [4]);
        assert!(parse_cpu_list("").is_empty());
        assert!(!allowed_cpus().is_empty());
    }

    #[test]
    fn pinning_this_thread_to_an_absent_processor_is_refused() {
        assert!(!pin_thread(0, 100_000));
    }

    #[test]
    fn status_fixture_yields_the_named_line_only() {
        let status = "Name:\tpocc-benchmark\nVmPeak:\t  999999 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(51_200));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(40_000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        // A key that is a prefix of another must not match it.
        assert_eq!(parse_status_kb("VmHWMx:\t1 kB\n", "VmHWM"), None);
    }

    #[test]
    fn stat_fixture_survives_a_hostile_command_name() {
        let stat =
            "4242 (a) b (c)) S 1 4242 4242 0 -1 4194304 500 0 0 0 731 269 0 0 20 0 9 0 100 1 2";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1000));
        assert_eq!(parse_stat_cpu_ticks("4242 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens"), None);
    }

    #[test]
    fn group_deltas_sum_threads_alive_at_both_ends() {
        let stat = |run_ns, wait_ns, slices| SchedStat {
            run_ns,
            wait_ns,
            slices,
        };
        let start = HashMap::from([
            (1, (Some("server"), stat(100, 10, 1))),
            (2, (Some("server"), stat(200, 20, 2))),
            (3, (None, stat(5, 5, 5))),
        ]);
        let end = HashMap::from([
            (1, (Some("server"), stat(150, 15, 4))),
            (2, (Some("server"), stat(260, 20, 3))),
            (3, (None, stat(50, 50, 50))),
            // Born inside the window: no start sample, so it is left out.
            (4, (Some("lane"), stat(1000, 0, 9))),
        ]);
        let groups = group_deltas(&start, &end);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups["server"], stat(110, 5, 4));
    }

    #[test]
    fn live_process_is_readable_on_linux() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        assert!(process_cpu_ns().is_some());
        assert!(rss_peak_mb().unwrap() > 0.0);
        assert!(machine_fingerprint().0 >= 1);
    }
}
