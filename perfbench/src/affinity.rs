//! Pins the calling thread to a single CPU for a scope. Threads spawned
//! inside the scope inherit the mask, so a `serve` call made there runs
//! its generator and worker on one CPU: a parked worker is woken on the
//! CPU its producer runs on, never by waking another (virtual) CPU.

#![allow(unsafe_code)]

/// Words in a `cpu_set_t` (1024 CPUs).
const WORDS: usize = 16;

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

#[cfg(target_os = "linux")]
fn get() -> Option<[u64; WORDS]> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn set(mask: &[u64; WORDS]) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get() -> Option<[u64; WORDS]> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_: &[u64; WORDS]) -> bool {
    false
}

/// The calling thread's pin; dropping it restores the previous mask.
#[derive(Debug)]
pub struct Pin {
    saved: [u64; WORDS],
    /// The CPU the thread is pinned to.
    pub cpu: usize,
}

impl Drop for Pin {
    fn drop(&mut self) {
        set(&self.saved);
    }
}

/// Pins the calling thread to the lowest-numbered CPU it may run on, or
/// returns `None` when the platform or the kernel refuses.
pub fn pin_to_one_cpu() -> Option<Pin> {
    let saved = get()?;
    let cpu = (0..WORDS * 64).find(|&c| saved[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    set(&one).then_some(Pin { saved, cpu })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn pin_holds_for_spawned_threads_and_restores_on_drop() {
        let before = get().expect("affinity readable");
        {
            let pin = pin_to_one_cpu().expect("pinning allowed");
            let inner = std::thread::spawn(get).join().unwrap().unwrap();
            assert_eq!(inner.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_eq!(inner[pin.cpu / 64] >> (pin.cpu % 64) & 1, 1);
        }
        assert_eq!(get().unwrap(), before);
    }
}
