//! On-CPU time, the clock every end-to-end timing is read from.
//!
//! A shared host steals its guests' vCPUs for whole scheduler slices
//! and its other threads preempt ours, so wall time measures the host of
//! the moment as much as the code. The kernel charges a thread only for
//! the time it ran (steal time is accounted apart), so on-CPU time keeps
//! that out: a phase the main thread runs alone is timed by the process
//! clock, one call among concurrent threads by the calling thread's.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Nanoseconds the calling thread has run.
pub fn thread_ns() -> u64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// Nanoseconds every thread of this process has run, together.
pub fn process_ns() -> u64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// Seconds of process CPU time `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = process_ns();
    let out = f();
    (out, (process_ns() - started) as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work_and_not_with_sleep() {
        let busy = |ms: u64| {
            let until = std::time::Instant::now() + std::time::Duration::from_millis(ms);
            let mut x = 0u64;
            while std::time::Instant::now() < until {
                x = std::hint::black_box(x.wrapping_add(1));
            }
        };
        let (t0, p0) = (thread_ns(), process_ns());
        busy(30);
        let (t1, p1) = (thread_ns(), process_ns());
        assert!(t1 - t0 >= 20_000_000, "thread clock advanced {} ns", t1 - t0);
        assert!(p1 - p0 >= t1 - t0 - 1_000_000);
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(thread_ns() - t1 < 10_000_000, "a sleeping thread was charged");
    }
}
