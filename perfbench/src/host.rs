//! The host-speed probe: a fixed, memory-bound reference kernel that the
//! simulator workloads run between their timed units.
//!
//! The simulator's replays, recorder and audits are bound by the memory
//! system, and on a shared host the memory system's speed drifts by tens
//! of percent over minutes as neighbours come and go. The reference
//! kernel — random reads over a 16 MiB table, about the simulated
//! machine's footprint — slows down with the same contention. On the
//! reference host (a 2-vCPU x86-64 VM) a four-minute probe saw an LRP
//! replay's mean move between 25.5 and 35.1 ms over ten-second windows
//! while its ratio to the kernel stayed within 1.55–1.66.
//!
//! So each timed unit is also reported *at reference speed*: every stage
//! of it is timed, the kernel runs once after each stage, and the stage's
//! wall time is scaled by [`REF_MS`] / that kernel time. The kernel is
//! the benchmark's own code and runs outside the stages, so a change to
//! the program moves only the numerator. The trace builds of the
//! set-up are scaled the same way, with the kernel run after each
//! build. The raw wall times are printed beside the scaled ones.

use std::time::Instant;

/// The reference kernel's time on the reference host when quiet, ms;
/// scaled figures read as if the kernel had taken this long.
pub const REF_MS: f64 = 16.0;

/// Table entries (8 bytes each: 16 MiB).
const TABLE_LEN: usize = 1 << 21;

/// Random reads per kernel call.
const READS: usize = 2_000_000;

/// The reference kernel and its table.
pub struct RefKernel {
    table: Vec<u64>,
}

impl RefKernel {
    /// Allocates and fills the table.
    pub fn new() -> RefKernel {
        RefKernel {
            table: (0..TABLE_LEN as u64).collect(),
        }
    }

    /// One call: `READS` independent random reads, summed; returns its
    /// time in ms.
    pub fn time_ms(&self) -> f64 {
        let t = Instant::now();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut sum = 0u64;
        for _ in 0..READS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sum = sum.wrapping_add(self.table[(x as usize) & (TABLE_LEN - 1)]);
        }
        std::hint::black_box(sum);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Times the stages of one unit, running the kernel after each.
pub struct Laps<'a> {
    kernel: &'a RefKernel,
    last: Instant,
    /// Wall time of the stages so far, ms.
    pub wall_ms: f64,
    /// The stages at reference speed, ms.
    pub scaled_ms: f64,
    /// The kernel time after each stage, ms.
    pub ref_ms: Vec<f64>,
}

impl<'a> Laps<'a> {
    /// Starts the first stage.
    pub fn start(kernel: &'a RefKernel) -> Laps<'a> {
        Laps {
            kernel,
            last: Instant::now(),
            wall_ms: 0.0,
            scaled_ms: 0.0,
            ref_ms: Vec::new(),
        }
    }

    /// Ends the current stage, times the kernel, starts the next stage.
    pub fn lap(&mut self) {
        let ms = self.last.elapsed().as_secs_f64() * 1e3;
        let r = self.kernel.time_ms();
        self.wall_ms += ms;
        self.scaled_ms += at_ref_speed(ms, r);
        self.ref_ms.push(r);
        self.last = Instant::now();
    }
}

/// `unit_ms` at reference speed, given the kernel time measured beside
/// it.
pub fn at_ref_speed(unit_ms: f64, ref_ms: f64) -> f64 {
    unit_ms * REF_MS / ref_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_by_the_kernel_time() {
        assert_eq!(at_ref_speed(100.0, REF_MS), 100.0);
        assert_eq!(at_ref_speed(100.0, 2.0 * REF_MS), 50.0);
    }

    #[test]
    fn the_kernel_takes_measurable_time() {
        let k = RefKernel::new();
        assert!(k.time_ms() > 0.0);
    }
}
