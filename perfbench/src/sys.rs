//! Process and machine facts read from `/proc`, plus the libc calls the
//! standard library does not expose (a thread CPU clock, `poll` and
//! `mallopt`).

use std::fs;

use crate::json::{int, obj, text, Value};

/// The machine a result was measured on.
pub fn machine_context() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    obj([
        ("nproc", int(nproc as u64)),
        ("kernel", text(&kernel)),
        ("cpu", text(&cpu)),
    ])
}

/// Peak resident set (`VmHWM`) of `pid` in MiB; `"self"` reads this process.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of every thread of `pid`, in seconds.
pub fn process_cpu_s(pid: u32) -> f64 {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / clock_ticks_per_s()
}

fn clock_ticks_per_s() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes a plain integer and has no memory effects.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// Makes the allocator keep freed memory for reuse instead of handing it
/// back to the kernel. Left at its defaults, glibc unmaps a large block on
/// free, or trims the heap, depending on what the process allocated
/// earlier, so the same call page-faults its memory in on some runs and
/// not on others, and its CPU time differs by half.
pub fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt takes two plain integers and only changes the
    // allocator's thresholds; it is called before any other thread exists.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, 16 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
    };
    assert!(ok, "glibc accepts these malloc thresholds");
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always available on Linux");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

#[repr(C)]
pub struct PollFd {
    pub fd: i32,
    pub events: i16,
    pub revents: i16,
}

pub const POLLIN: i16 = 0x1;

/// Waits up to `timeout_ms` for any of `fds` to become ready; returns the
/// number ready (0 on timeout or interruption).
pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> usize {
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
    }
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // pollfd structs with the C layout.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
    rc.max(0) as usize
}
