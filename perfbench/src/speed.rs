//! Host-speed reference for correcting timed metrics.
//!
//! On a shared 2-vCPU host the same op takes 1× to 1.8× as long depending
//! on what neighbouring tenants do, in phases that last from seconds to
//! minutes — longer than a run. Medians over passes remove short stalls
//! but not a run that falls wholly in a slow phase. So a fixed reference
//! kernel, written here and independent of the repository's code, runs
//! between the ops of every pass, and the pass's times are scaled by
//! `NOMINAL_MS / reference time`: the time the pass would have taken at
//! the host speed where the kernel runs in [`NOMINAL_MS`]. The kernel is a
//! set-associative LRU table walked by a pseudo-random page stream with a
//! hot set, the same kind of work (dependent table probes, small
//! branchy updates) the simulator does, so host phases slow it alike.

use std::time::Instant;

/// Reference-kernel time the corrected metrics are expressed at. A fixed
/// scale: on a 2-vCPU 2.0 GHz Xeon guest the kernel takes 3.6–8 ms
/// depending on the host's phase.
pub const NOMINAL_MS: f64 = 5.0;

/// Table probes per kernel run.
const PROBES: usize = 300_000;
const SETS: usize = 1 << 16;
const WAYS: usize = 4;

/// One kernel's state: a 2 MiB tag table and its LRU ages.
#[derive(Debug)]
struct Kernel {
    tags: Vec<u64>,
    ages: Vec<u8>,
    x: u64,
}

impl Default for Kernel {
    fn default() -> Kernel {
        Kernel { tags: vec![0; SETS * WAYS], ages: vec![0; SETS * WAYS], x: 0x1234_5678_9ABC_DEF1 }
    }
}

impl Kernel {
    /// Runs the kernel once; returns its misses (so the work is kept).
    fn run(&mut self) -> u64 {
        let mut misses = 0u64;
        for _ in 0..PROBES {
            let mut x = self.x;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.x = x;
            let page = if x & 7 < 6 { (x >> 8) & 0x3ff } else { (x >> 8) & 0xF_FFFF };
            let set =
                ((page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & (SETS - 1)) * WAYS;
            let tags = &mut self.tags[set..set + WAYS];
            let ages = &mut self.ages[set..set + WAYS];
            match tags.iter().position(|&t| t == page) {
                Some(w) => {
                    let old = ages[w];
                    for age in ages.iter_mut() {
                        if *age < old {
                            *age += 1;
                        }
                    }
                    ages[w] = 0;
                }
                None => {
                    misses += 1;
                    let victim = (0..WAYS).max_by_key(|&w| ages[w]).unwrap_or(0);
                    for age in ages.iter_mut() {
                        *age = age.saturating_add(1);
                    }
                    ages[victim] = 0;
                    tags[victim] = page;
                }
            }
        }
        misses
    }

    /// Runs the kernel once; returns its time in ms.
    fn time(&mut self) -> f64 {
        let started = Instant::now();
        std::hint::black_box(self.run());
        started.elapsed().as_secs_f64() * 1e3
    }
}

/// One reference kernel per thread an op uses, run on that many threads at
/// once, and the samples taken since the last [`Reference::take`].
#[derive(Debug)]
pub struct Reference {
    kernels: Vec<Kernel>,
    samples: Vec<f64>,
}

impl Reference {
    /// Kernels for ops that use `threads` threads.
    pub fn new(threads: usize) -> Reference {
        let kernels = (0..threads.max(1)).map(|_| Kernel::default()).collect();
        Reference { kernels, samples: Vec::new() }
    }

    /// Runs every kernel once, at the same time, and keeps the round's
    /// time: the harmonic mean over the threads, since an op whose
    /// workers share a queue progresses at the sum of their speeds.
    /// Called between ops, so the samples see the host phases the ops saw.
    pub fn sample(&mut self) {
        if let [kernel] = self.kernels.as_mut_slice() {
            self.samples.push(kernel.time());
            return;
        }
        let rate: f64 = std::thread::scope(|scope| {
            let handles: Vec<_> =
                self.kernels.iter_mut().map(|k| scope.spawn(move || k.time())).collect();
            handles.into_iter().map(|h| 1.0 / h.join().expect("reference thread panicked")).sum()
        });
        self.samples.push(self.kernels.len() as f64 / rate);
    }

    /// Median of the samples since the last call, in ms, first sampling
    /// until there are at least `min` rounds; the samples are then cleared.
    pub fn take(&mut self, min: usize) -> f64 {
        while self.samples.len() < min {
            self.sample();
        }
        let ms = crate::stats::median(&self.samples);
        self.samples.clear();
        ms
    }
}

/// Factor that scales a time measured while the reference took `ref_ms`
/// to the nominal host speed.
pub fn correction(ref_ms: f64) -> f64 {
    NOMINAL_MS / ref_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_does_fixed_work_and_measures_a_positive_time() {
        let (mut a, mut b) = (Kernel::default(), Kernel::default());
        assert_eq!(a.run(), b.run(), "the kernel is deterministic");
        let mut one = Reference::new(1);
        one.sample();
        assert!(one.take(1) > 0.0);
        assert!(Reference::new(2).take(1) > 0.0);
        assert_eq!(correction(NOMINAL_MS), 1.0);
        assert_eq!(correction(2.0 * NOMINAL_MS), 0.5);
    }
}
