//! Process measurements (Linux `/proc`) and the machine record.

use std::fs;

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Resets the peak-RSS watermark to the current RSS, so the next
/// [`peak_rss_mb`] covers only what runs after this call. Returns `false`
/// if the kernel refused (the watermark then spans the whole process).
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn status_kb(key: &str) -> Option<u64> {
    let s = fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// CPU time (user + system) of every thread of this process so far,
/// seconds, including threads that already ended.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, which the crate-level cfg requires) and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the checkout, read from `.git` when there is one.
pub fn commit() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}"))
            .map(|c| c.trim().to_string())
            .or_else(|_| packed_ref(r).ok_or(()))
            .unwrap_or_else(|_| format!("unresolved {r}")),
        None => head,
    }
}

fn packed_ref(r: &str) -> Option<String> {
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(r))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
