//! A fixed reference kernel that gauges how fast the machine is right now.
//!
//! On a shared host the same run takes from 0.85 to 1.6 s depending on what
//! the neighbours do, and the slow and fast stretches last tens of seconds
//! (NOTES.md, Wall time). The untraced runs are timed between passes of this
//! kernel, one pass before the first run and one after each, and their times
//! are scaled by [`NOMINAL_S`] over the mean pass: the time they would have
//! taken on a machine where the kernel takes [`NOMINAL_S`]. Runs and passes
//! alternate, so both sample the machine over the same stretch of time.
//!
//! The kernel uses none of the repository's crates, so no change to the
//! program moves it. It does the kinds of work the simulator does: random
//! reads over a working set larger than the caches, hash-map updates, a
//! binary heap like the event queue, and many small allocations. Its input
//! is fixed, so every pass does the same work.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Seconds the kernel is taken to last on the reference machine.
pub const NOMINAL_S: f64 = 0.1;

/// Entries in the pointer-chasing table: 8 MB of `u32`.
const TABLE: usize = 1 << 21;

/// xorshift64: the kernel's fixed pseudo-random stream.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Wall seconds of one pass of the kernel.
pub fn pass_s() -> f64 {
    let start = Instant::now();
    let mut rnd = XorShift(0x9e37_79b9_7f4a_7c15);
    // Sattolo's shuffle makes the table one cycle through every entry.
    let mut next: Vec<u32> = (0..TABLE as u32).collect();
    for i in (1..TABLE).rev() {
        let j = (rnd.next() % i as u64) as usize;
        next.swap(i, j);
    }
    let mut at = 0u32;
    for _ in 0..500_000 {
        at = next[at as usize];
    }
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for k in 0..150_000u64 {
        *counts.entry(rnd.next() % 60_000).or_insert(0) += k;
    }
    let mut queue = BinaryHeap::new();
    let mut popped = 0u64;
    for k in 0..150_000u64 {
        queue.push(rnd.next() % 1_000_000);
        if k % 2 == 1 {
            popped = popped.wrapping_add(queue.pop().unwrap_or(0));
        }
    }
    let boxes: Vec<Box<[u64; 8]>> = (0..100_000u64).map(|k| Box::new([k; 8])).collect();
    black_box((at, counts.len(), popped, boxes.len()));
    start.elapsed().as_secs_f64()
}

/// `NOMINAL_S` over the mean of `passes`: the factor that takes times
/// measured alongside them to the reference machine's speed.
pub fn scale(passes: &[f64]) -> f64 {
    NOMINAL_S / crate::stats::mean(passes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_takes_times_to_the_nominal_speed() {
        assert_eq!(scale(&[NOMINAL_S, NOMINAL_S]), 1.0);
        // A machine running at half speed doubles every time.
        assert!((1.5 * scale(&[0.15, 0.25]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn pass_takes_time() {
        assert!(pass_s() > 0.0);
    }
}
