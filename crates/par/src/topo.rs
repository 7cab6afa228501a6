//! CPU topology model and thread pinning.
//!
//! [`Pool::new_pinned`](crate::Pool::new_pinned) uses this module to place
//! worker `tid`s onto CPUs in *core-major* order (siblings of one physical
//! core first, then the next core, then the next package), so team members
//! with adjacent tids share the closest cache level the machine offers.
//!
//! Everything degrades gracefully: if sysfs is unreadable the topology is
//! flat (every CPU its own core on one package), and if the
//! `sched_setaffinity` syscall is unavailable (non-Linux, seccomp)
//! [`pin_current_thread`] reports `false` and the pool simply runs
//! unpinned.

use std::sync::atomic::{AtomicBool, Ordering};

/// One logical CPU's position in the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuInfo {
    /// Logical CPU id (the `sched_setaffinity` bit index).
    pub cpu: usize,
    /// Physical core id within the package (SMT siblings share it).
    pub core: usize,
    /// Physical package (socket) id.
    pub package: usize,
}

/// The machine's CPU topology, sorted core-major.
#[derive(Clone, Debug)]
pub struct CpuTopology {
    cpus: Vec<CpuInfo>,
}

impl CpuTopology {
    /// Reads the topology from sysfs, falling back to a flat model (one
    /// package, one core per CPU) when sysfs is unavailable.
    pub fn detect() -> CpuTopology {
        Self::from_sysfs("/sys/devices/system/cpu").unwrap_or_else(Self::flat)
    }

    /// A flat topology over the scheduler-visible parallelism: every CPU
    /// its own core on package 0.
    pub fn flat() -> CpuTopology {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        CpuTopology {
            cpus: (0..n)
                .map(|cpu| CpuInfo {
                    cpu,
                    core: cpu,
                    package: 0,
                })
                .collect(),
        }
    }

    fn from_sysfs(root: &str) -> Option<CpuTopology> {
        let mut cpus = Vec::new();
        for cpu in 0.. {
            let dir = format!("{root}/cpu{cpu}/topology");
            let core = match std::fs::read_to_string(format!("{dir}/core_id")) {
                Ok(s) => s.trim().parse().ok()?,
                Err(_) => break,
            };
            let package = std::fs::read_to_string(format!("{dir}/physical_package_id"))
                .ok()?
                .trim()
                .parse()
                .ok()?;
            cpus.push(CpuInfo { cpu, core, package });
        }
        if cpus.is_empty() {
            return None;
        }
        // Core-major: SMT siblings adjacent, cores of one package adjacent.
        cpus.sort_by_key(|c| (c.package, c.core, c.cpu));
        Some(CpuTopology { cpus })
    }

    /// Number of logical CPUs in the model.
    pub fn len(&self) -> usize {
        self.cpus.len()
    }

    /// Whether the model is empty (never true for detected topologies).
    pub fn is_empty(&self) -> bool {
        self.cpus.is_empty()
    }

    /// The CPU assigned to worker `tid`: position `tid` of the core-major
    /// order, wrapping when the team is larger than the machine.
    pub fn cpu_for_worker(&self, tid: usize) -> CpuInfo {
        self.cpus[tid % self.cpus.len()]
    }
}

/// A pinning plan for one team, built once per pool.
#[derive(Debug)]
pub struct PinPlan {
    /// CPU assigned to each tid.
    cpus: Vec<usize>,
    /// Stays `true` while every attempted pin has succeeded.
    ok: AtomicBool,
}

impl PinPlan {
    /// Plans placement for a team of `threads` on `topo`.
    pub fn new(topo: &CpuTopology, threads: usize) -> PinPlan {
        let threads = threads.max(1);
        PinPlan {
            cpus: (0..threads).map(|t| topo.cpu_for_worker(t).cpu).collect(),
            ok: AtomicBool::new(true),
        }
    }

    /// Pins the calling thread to tid's planned CPU, recording failure.
    pub fn pin(&self, tid: usize) {
        if !pin_current_thread(self.cpus[tid]) {
            self.ok.store(false, Ordering::Relaxed);
        }
    }

    /// Whether every pin attempted so far succeeded (false on platforms
    /// without `sched_setaffinity`).
    pub fn pinned(&self) -> bool {
        self.ok.load(Ordering::Relaxed)
    }
}

/// Maximum CPU id representable in the affinity mask below (1024 CPUs,
/// the kernel's historical `CONFIG_NR_CPUS` ceiling for a 128-byte mask).
const MASK_CPUS: usize = 1024;

/// Pins the calling thread to a single CPU via a raw `sched_setaffinity`
/// syscall (the workspace is dependency-free, so no `libc`). Returns
/// `true` on success; `false` on unsupported platforms, out-of-range CPU
/// ids, or kernel rejection (e.g. a cpuset that excludes the CPU) — the
/// caller treats any `false` as "run unpinned".
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= MASK_CPUS {
        return false;
    }
    let mut mask = [0u64; MASK_CPUS / 64];
    mask[cpu / 64] = 1u64 << (cpu % 64);
    let ret: isize;
    // SAFETY: sched_setaffinity(0, len, mask) only *reads* `mask` (len
    // bytes, in bounds) and affects scheduler state of the calling thread;
    // pid 0 means "current thread". The asm clobbers follow the Linux
    // syscall ABI for each architecture.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret, // __NR_sched_setaffinity
            in("rdi") 0usize,
            in("rsi") core::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    #[cfg(target_arch = "aarch64")]
    unsafe {
        core::arch::asm!(
            "svc #0",
            in("x8") 122isize, // __NR_sched_setaffinity
            inlateout("x0") 0usize => ret,
            in("x1") core::mem::size_of_val(&mask),
            in("x2") mask.as_ptr(),
            options(nostack),
        );
    }
    ret == 0
}

/// Fallback for platforms without the raw syscall: reports "not pinned".
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
pub fn pin_current_thread(_cpu: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_socket_smt() -> CpuTopology {
        // 2 packages × 2 cores × 2 SMT threads; deliberately interleaved
        // cpu ids (Linux often enumerates SMT siblings half a machine
        // apart) to prove the sort normalizes them core-major.
        let mut cpus = Vec::new();
        for pkg in 0..2 {
            for core in 0..2 {
                for smt in 0..2 {
                    cpus.push(CpuInfo {
                        cpu: pkg * 2 + core + smt * 4,
                        core,
                        package: pkg,
                    });
                }
            }
        }
        let mut t = CpuTopology { cpus };
        t.cpus.sort_by_key(|c| (c.package, c.core, c.cpu));
        t
    }

    #[test]
    fn detect_never_returns_empty() {
        let t = CpuTopology::detect();
        assert!(!t.is_empty());
        // Assignment wraps instead of panicking on oversubscribed teams.
        let _ = t.cpu_for_worker(t.len() * 3 + 1);
    }

    #[test]
    fn core_major_order_groups_siblings() {
        let t = two_socket_smt();
        // tids 0,1 are SMT siblings of package 0 core 0; tid 4 starts
        // package 1.
        assert_eq!(t.cpu_for_worker(0).core, t.cpu_for_worker(1).core);
        assert_eq!(t.cpu_for_worker(0).package, 0);
        assert_eq!(t.cpu_for_worker(4).package, 1);
    }

    #[test]
    fn pin_plan_reports_status() {
        let plan = PinPlan::new(&CpuTopology::detect(), 4);
        assert!(plan.pinned(), "no pin attempted yet");
        assert_eq!(plan.cpus.len(), 4);
        // Pinning the current thread to a planned CPU must either succeed
        // (Linux) or cleanly report false — never panic.
        plan.pin(0);
        let _ = plan.pinned();
    }

    #[test]
    fn out_of_range_cpu_is_rejected() {
        assert!(!pin_current_thread(MASK_CPUS));
        assert!(!pin_current_thread(usize::MAX));
    }
}
