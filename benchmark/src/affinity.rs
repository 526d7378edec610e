//! Where and how a trial's threads run. On the 2-vCPU hosts this benchmark
//! runs on, a wake-up that crosses CPUs costs tens of microseconds and
//! whether the client and the server worker share a CPU is a lottery per
//! process: unpinned, `query_hot` reads 15–35 k rps from trial to trial;
//! pinned, 56 k ± 1% (README, "Noise").

#[cfg(target_os = "linux")]
extern "C" {
    // glibc/musl, already linked by std. `mask` points at `size` bytes.
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    // `param` points at a `struct sched_param`, which is one int.
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// Restrict this thread — and every thread it spawns from now on — to the
/// `nth` (modulo) CPU it is allowed on. Returns the CPU, or `None` where
/// affinity cannot be read or set (the trial then runs unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu(nth: usize) -> Option<usize> {
    const WORDS: usize = 16; // 1024 CPUs, the kernel's default mask size
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpus: Vec<usize> = (0..WORDS * 64)
        .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    let cpu = *cpus.get(nth % cpus.len().max(1))?;
    let mut only = [0u64; WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly the size passed and is
    // only read; pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, WORDS * 8, only.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu(_nth: usize) -> Option<usize> {
    None
}

/// Move the calling thread to `SCHED_IDLE`: it then runs only when nothing
/// else on its CPU wants to, and any waking thread preempts it at once.
/// Needs no privilege. False where the policy cannot be set.
#[cfg(target_os = "linux")]
pub fn run_only_when_idle() -> bool {
    const SCHED_IDLE: i32 = 5;
    let priority = 0i32;
    // SAFETY: `priority` is a live `sched_param` that is only read; pid 0
    // names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn run_only_when_idle() -> bool {
    false
}
