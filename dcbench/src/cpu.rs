//! Pinning the benchmark to one CPU.
//!
//! `serve_frames` hands every frame from the generator thread to the
//! server's worker and back. Spread over the two CPUs of a 2-vCPU guest,
//! each hand-off is a cross-CPU wake-up, and the frame round trip
//! switched between two regimes from one second to the next. On one CPU
//! the hand-offs are context switches on that CPU. The single-threaded
//! workloads are pinned too, so that no run migrates mid-window.

/// Words of the CPU mask: room for 1024 CPUs.
const WORDS: usize = 16;

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to the highest-numbered CPU it may run on now. Returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; WORDS];
    let got = sys::get(&mut mask);
    if got < 0 {
        return Err(format!("sched_getaffinity failed: errno {}", -got));
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .ok_or("sched_getaffinity gave an empty CPU mask")?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    let set = sys::set(&mut one);
    if set < 0 {
        return Err(format!(
            "sched_setaffinity to CPU {cpu} failed: errno {}",
            -set
        ));
    }
    Ok(cpu)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use super::WORDS;

    /// `sched_getaffinity` of the calling thread into `mask`. Returns
    /// the bytes written, or a negative errno.
    pub fn get(mask: &mut [u64; WORDS]) -> isize {
        affinity(204, mask)
    }

    /// `sched_setaffinity` of the calling thread to `mask`. Returns 0,
    /// or a negative errno.
    pub fn set(mask: &mut [u64; WORDS]) -> isize {
        affinity(203, mask)
    }

    /// Syscall `nr`, one of the two above, as `nr(0, len, mask)`.
    fn affinity(nr: usize, mask: &mut [u64; WORDS]) -> isize {
        let ret: isize;
        // SAFETY: `nr` is sched_getaffinity or sched_setaffinity (the
        // only callers are above). Both read or write at most
        // `size_of_val(mask)` bytes at `mask`, which is borrowed for the
        // call. The `syscall` instruction clobbers rcx and r11 besides
        // rax.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") nr as isize => ret,
                in("rdi") 0usize,
                in("rsi") std::mem::size_of_val(mask),
                in("rdx") mask.as_mut_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    use super::WORDS;

    /// Not available here: fails with ENOSYS.
    pub fn get(_mask: &mut [u64; WORDS]) -> isize {
        -38
    }

    /// Not available here: fails with ENOSYS.
    pub fn set(_mask: &mut [u64; WORDS]) -> isize {
        -38
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn pins_a_thread_and_its_children_to_one_cpu() {
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("pin");
            let child = std::thread::spawn(|| {
                let mut mask = [0u64; WORDS];
                assert!(sys::get(&mut mask) > 0);
                mask
            })
            .join()
            .expect("child");
            let mut want = [0u64; WORDS];
            want[cpu / 64] = 1 << (cpu % 64);
            assert_eq!(child, want);
        })
        .join()
        .expect("pinned thread");
    }
}
