//! CPU pinning for the measured run.
//!
//! On the two-vCPU boxes this ledger is measured on, a wake-up that
//! crosses vCPUs costs anything from microseconds to a scheduling quantum,
//! depending on what the host is doing: unpinned, the same binary on the
//! same inputs repeats within 18 % (`serve_warm` latency) to 48 %
//! (`mixed_rw` write latency); with every thread on one CPU the same runs
//! repeat within 2–8 %. So a run pins itself to the last CPU it is allowed
//! on *after* `T` has been taken from the full CPU count: pools still have
//! `T` workers, every lock, queue and wake-up is still exercised, and what
//! the gated metrics price is CPU work plus synchronisation cost — not
//! parallel speed-up or contention between cores, which depend on the host
//! and are reported ungated by `parallel.speedup_T` and
//! `net.server.loaded_*`, measured with the original CPU set restored.

/// The `cpu_set_t` glibc expects: 1 024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The calling thread's allowed CPUs, or `None` where unsupported.
fn current() -> Option<CpuSet> {
    #[cfg(target_os = "linux")]
    {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

fn apply(set: &CpuSet) -> bool {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `set` is a live buffer of exactly the size passed; pid 0
        // names the calling thread; the kernel only reads the mask.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = set;
        false
    }
}

/// The calling thread's CPU set before [`pin_to_last_cpu`], kept so one
/// probe can run on all of them.
#[derive(Debug, Clone, Copy)]
pub struct Original(Option<CpuSet>);

/// Pins the calling thread — and every thread it spawns from now on — to
/// the highest-numbered CPU it is allowed on (CPU 0 takes the box's
/// interrupts: pinned there, the same run repeats within 25 %, on the last
/// CPU within 3 %). Returns the previous set and the CPU chosen (`None`
/// when pinning is unsupported or refused, in which case the run proceeds
/// unpinned and says so in its fingerprint).
pub fn pin_to_last_cpu() -> (Original, Option<usize>) {
    let Some(allowed) = current() else {
        return (Original(None), None);
    };
    let last = allowed
        .iter()
        .enumerate()
        .rev()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + 63 - word.leading_zeros() as usize);
    let Some(cpu) = last else {
        return (Original(None), None);
    };
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    if apply(&one) {
        (Original(Some(allowed)), Some(cpu))
    } else {
        (Original(None), None)
    }
}

impl Original {
    /// Runs `f` with the calling thread back on its original CPU set (so
    /// threads `f` spawns can spread out), then pins it again.
    pub fn with_all_cpus<R>(&self, f: impl FnOnce() -> R) -> R {
        let pinned = current();
        if let Some(all) = &self.0 {
            apply(all);
        }
        let result = f();
        if let (Some(_), Some(pinned)) = (&self.0, &pinned) {
            apply(pinned);
        }
        result
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_to_one_cpu_and_children_inherit_it() {
        // In a thread of its own: affinity is per thread, and the test
        // harness's other threads must keep theirs.
        std::thread::spawn(|| {
            let before = current().expect("affinity is readable on Linux");
            let (original, cpu) = pin_to_last_cpu();
            let cpu = cpu.expect("pinning to an allowed CPU succeeds");
            let ones = |set: &CpuSet| set.iter().map(|w| w.count_ones()).sum::<u32>();
            assert_eq!(ones(&current().unwrap()), 1);
            assert!(before[cpu / 64] & (1 << (cpu % 64)) != 0);
            let child = std::thread::spawn(|| current().unwrap()).join().unwrap();
            assert_eq!(ones(&child), 1);
            let inside = original.with_all_cpus(|| current().unwrap());
            assert_eq!(inside, before);
            assert_eq!(ones(&current().unwrap()), 1);
        })
        .join()
        .unwrap();
    }
}
