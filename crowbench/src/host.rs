//! Host-side readings from `/proc`: peak resident memory and CPU time.

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux ABI this runs on).
const TICKS_PER_SEC: f64 = 100.0;

fn proc_file(pid: Option<u32>, name: &str) -> Option<String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/{name}"),
        None => format!("/proc/self/{name}"),
    };
    std::fs::read_to_string(path).ok()
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let status = proc_file(pid, "status")?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU seconds a process (all its threads) has used.
pub fn cpu_secs(pid: Option<u32>) -> Option<f64> {
    let stat = proc_file(pid, "stat")?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15, i.e. 12 and 13 after ')'.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

// `sched_setaffinity(2)` and `kill(2)` from the C library std already
// links; the repository carries no libc crate.
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// SIGKILLs every process left in the process group `pgid`.
pub fn kill_group(pgid: u32) {
    const SIGKILL: i32 = 9;
    if let Ok(pgid) = i32::try_from(pgid) {
        // SAFETY: kill(2) takes plain integers; a negative pid names the
        // process group, and a group with no members just fails.
        unsafe {
            kill(-pgid, SIGKILL);
        }
    }
}

/// Restricts the calling thread to the CPUs in `cpus` (indices below
/// 1024). Returns whether the kernel accepted the mask.
pub fn pin_thread(cpus: impl IntoIterator<Item = usize>) -> bool {
    let mut mask = [0u64; 16];
    for cpu in cpus {
        if let Some(word) = mask.get_mut(cpu / 64) {
            *word |= 1 << (cpu % 64);
        }
    }
    // SAFETY: pid 0 names the calling thread; `mask` is a live, aligned
    // buffer of exactly `size_of_val(&mask)` bytes, which the kernel only
    // reads.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// CPUs this process may run on.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let rss = peak_rss_mib(None).expect("VmHWM readable");
        assert!(rss > 0.0);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_secs(None).expect("stat readable") >= 0.0);
    }

    #[test]
    fn pins_a_thread_and_releases_it() {
        let n = cpus();
        std::thread::spawn(move || {
            assert!(pin_thread([n - 1]));
            assert_eq!(cpus(), 1, "the mask bounds available parallelism");
            assert!(pin_thread(0..n));
            assert_eq!(cpus(), n);
        })
        .join()
        .unwrap();
    }
}
