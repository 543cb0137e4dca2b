//! The shared host's current speed, read off a fixed reference kernel.
//!
//! Other tenants of a shared host slow this benchmark by as much as ±20%
//! for tens of seconds at a time, which no repetition within one run
//! averages out. The kernel below does random read-modify-writes over an
//! 8 MiB table from a cold cache, as the simulator's event queue and hash
//! tables do, so it slows along with the simulator. It runs just before and
//! just after each timed window slice; the slice's pace is the kernel's
//! mean time over [`IDLE_S`], and host times divided by their pace read as
//! on an idle host. On 2-vCPU Intel Xeon hosts this cut the spread of
//! `pipeline_pps` over ten runs by a factor of two to four. The kernel
//! belongs to the benchmark, not to the program, so a change to the
//! program leaves it be.

use std::time::Instant;

/// Table size, in 64-bit words.
const WORDS: usize = 1 << 20;
/// Read-modify-writes per kernel run.
const STEPS: u64 = 300_000;
/// The kernel's time on an idle 2-vCPU Intel Xeon host, in seconds.
pub const IDLE_S: f64 = 0.0025;
/// The table's size in MiB; it stays resident for the process's lifetime.
pub const TABLE_MIB: f64 = (WORDS * 8) as f64 / (1024.0 * 1024.0);

/// The reference kernel and its table.
pub struct Pacer {
    table: Vec<u64>,
}

impl Pacer {
    /// Allocates and touches the table, so it is resident from here on.
    pub fn new() -> Self {
        Pacer { table: vec![1; WORDS] }
    }

    /// Runs the kernel once and returns its host time in seconds.
    pub fn kernel_s(&mut self) -> f64 {
        let start = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in 0..STEPS {
            // xorshift64: a fixed pseudo-random walk over the table.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = x as usize % WORDS;
            self.table[j] = self.table[j].wrapping_add(i);
        }
        std::hint::black_box(&self.table);
        start.elapsed().as_secs_f64()
    }
}

impl Default for Pacer {
    fn default() -> Self {
        Self::new()
    }
}
