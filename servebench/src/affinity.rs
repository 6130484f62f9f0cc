//! CPU placement. On a two-core host the server and the load generator
//! each get a core of their own, so a run measures one fixed placement
//! instead of whichever the scheduler picked that time. Threads inherit
//! the mask of the thread that spawns them, so pinning the thread that
//! calls `NimbusServer::start` places every server thread.

/// Core the server's threads run on.
pub const SERVER_CPU: usize = 0;
/// Core the load generator's threads run on.
pub const CLIENT_CPU: usize = 1;

extern "C" {
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words in the kernel's default `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

/// Whether the host has a core for each side; with fewer, nothing is
/// pinned.
pub fn split() -> bool {
    std::thread::available_parallelism().map_or(1, |n| n.get()) > CLIENT_CPU
}

/// Restricts the calling thread to `cpus` (all CPUs the mask can name
/// when empty). Returns whether the kernel accepted the mask.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    if cpus.is_empty() {
        mask = [u64::MAX; MASK_WORDS];
    }
    for &cpu in cpus.iter().filter(|&&c| c < MASK_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: pid 0 names the calling thread; the kernel reads exactly
    // `size` bytes from `mask`, which is a live local array of that size.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Pins the calling thread to [`CLIENT_CPU`] when the host is split.
pub fn pin_client() {
    if split() {
        pin_current_thread(&[CLIENT_CPU]);
    }
}
