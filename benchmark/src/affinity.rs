//! Thread placement for the closed loops.
//!
//! A closed loop with one request in flight keeps two threads a lane, a
//! client and a shard, that never run at once. Left to the host's
//! scheduler the four of them land on the two CPUs as it happens: a
//! wake-up crosses CPUs or not, a CPU idles between two requests or not
//! (on a virtual CPU an idle is an exit to the hypervisor), and which of
//! it a run gets lasts the run. Pinning a lane's client and its shards
//! to one CPU, a lane to each CPU, makes it one placement every run. The
//! server's threads are found by name, from outside; where the host
//! refuses, the loop runs unpinned.

use std::sync::OnceLock;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of a CPU mask: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

/// The CPUs this process may run on, as it was started.
fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live buffer of the size passed with it.
        let got = unsafe { sched_getaffinity(0, 8 * MASK_WORDS, mask.as_mut_ptr()) };
        if got != 0 {
            return Vec::new();
        }
        (0..64 * MASK_WORDS)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// Pins thread `tid` (0: the caller) to the `slot`-th CPU the process
/// may run on, modulo their number. False when it could not.
pub fn pin(tid: i32, slot: usize) -> bool {
    let cpus = allowed_cpus();
    if cpus.is_empty() {
        return false;
    }
    let cpu = cpus[slot % cpus.len()];
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of the size passed with it.
    unsafe { sched_setaffinity(tid, 8 * MASK_WORDS, mask.as_ptr()) == 0 }
}

/// Pins every thread of this process whose name starts with `prefix`
/// (cut to the 15 bytes the kernel keeps of a name) to `slot`. Returns
/// how many it pinned.
pub fn pin_threads_named(prefix: &str, slot: usize) -> usize {
    let prefix = &prefix.as_bytes()[..prefix.len().min(15)];
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|task| {
            std::fs::read(task.path().join("comm")).is_ok_and(|name| name.starts_with(prefix))
        })
        .filter_map(|task| task.file_name().to_str()?.parse::<i32>().ok())
        .filter(|&tid| pin(tid, slot))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_named_thread_is_found_and_pinned() {
        let (ready, wait) = std::sync::mpsc::channel();
        let (release, hold) = std::sync::mpsc::channel::<()>();
        let thread = std::thread::Builder::new()
            .name("bench-affinity-test-with-a-long-name".into())
            .spawn(move || {
                ready.send(()).expect("the test waits");
                let _ = hold.recv();
            })
            .expect("spawn");
        wait.recv().expect("the thread started");
        let pinned = pin_threads_named("bench-affinity-test-with-a-long-name", 1);
        drop(release);
        thread.join().expect("join");
        // One thread where the host lets a process place its threads,
        // none where it does not; never another thread's.
        assert!(pinned <= 1, "{pinned}");
        assert_eq!(pin_threads_named("no-thread-has-this-name", 0), 0);
    }
}
