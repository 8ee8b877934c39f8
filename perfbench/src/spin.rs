//! Idle-priority spin threads that keep every CPU of the guest busy
//! while a run sets up and measures.
//!
//! On the 2-core KVM guest the benchmark was written on, a light open
//! loop lets the vCPUs halt between statements, and the host then ran
//! the dop-2 window query in 11-14 ms, but in 8.5-9.5 ms for some
//! seconds after any heavy load (a build, another workload's run);
//! which of the two a run met decided its median. With one
//! `SCHED_IDLE` thread per CPU spinning, the vCPUs never halt and the
//! same statements took 8.7-9.9 ms run after run.
//!
//! `SCHED_IDLE` threads run only when no other thread of the guest
//! wants the CPU, and a waking thread preempts them at once, so the
//! program's threads keep the CPUs; a single-threaded phase can still
//! lose some speed when its vCPU shares a physical core with a spinning
//! one (`index-build` set-up took about 7% longer). The loop has no
//! `pause` instruction, which KVM may treat as a spin-lock wait and
//! answer by descheduling the vCPU. Where the policy cannot be set, no
//! thread spins.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The running spin threads; dropping this stops and joins them.
pub struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Spinners {
    /// Start one idle-priority spin thread per CPU.
    pub fn start() -> Spinners {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..crate::nproc())
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !set_idle_policy() {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::black_box(());
                    }
                })
            })
            .collect();
        Spinners { stop, threads }
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Put the calling thread under `SCHED_IDLE`; false if that failed.
#[cfg(target_os = "linux")]
fn set_idle_policy() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 names the calling thread, and `param` is a valid
    // `struct sched_param` that outlives the call.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn set_idle_policy() -> bool {
    false
}
