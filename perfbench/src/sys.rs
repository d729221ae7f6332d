//! Process facts read from the kernel: CPU time, peak RSS, threads and
//! context switches, plus an identifier of the measured source tree.

use std::path::Path;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time consumed by every thread of this process so far, live or
/// exited, in nanoseconds. `/proc/self/stat` counts in 10 ms ticks, too
/// coarse for the mostly idle `live-ds2` job; the clock is exact.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two 64-bit fields on the 64-bit Linux targets this runs on), and
    // the clock id is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&text, "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Threads of this process right now.
pub fn threads() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count() as u64)
        .unwrap_or(0)
}

/// Voluntary and involuntary context switches summed over the threads
/// alive now (exited threads take theirs with them).
pub fn ctx_switches() -> (u64, u64) {
    let mut total = (0, 0);
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return total;
    };
    for task in dir.flatten() {
        if let Ok(text) = std::fs::read_to_string(task.path().join("status")) {
            total.0 += status_field(&text, "voluntary_ctxt_switches:").unwrap_or(0);
            total.1 += status_field(&text, "nonvoluntary_ctxt_switches:").unwrap_or(0);
        }
    }
    total
}

/// CPUs this process may run on.
pub fn nproc() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// Identifies the measured code: FNV-1a over the paths and bytes of
/// every `.rs` and `.toml` file under `crates/` and `vendor/`, in path
/// order. The benchmark runs from checkouts that are not git
/// repositories, so a commit id is not always available; equal tree ids
/// mean equal engine code.
pub fn tree_id(root: &Path) -> String {
    let mut files = Vec::new();
    for top in ["crates", "vendor"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = crate::matrix::Fnv::default();
    for f in &files {
        h.write(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        h.write(&std::fs::read(f).unwrap_or_default());
    }
    format!("tree-{:016x}", h.finish())
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
            out.push(p);
        }
    }
}

/// Context switches between two [`ctx_switches`] readings.
pub fn ctx_delta(a: (u64, u64), b: (u64, u64)) -> (u64, u64) {
    (b.0.saturating_sub(a.0), b.1.saturating_sub(a.1))
}
