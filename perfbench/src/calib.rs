//! Timing in reference-host time. The benchmark shares a few cores of a
//! host whose speed changes by up to 2.5× from one second to the next,
//! so wall times of the same work spread far past the bounds between
//! runs. Every timed call is therefore followed by a short probe: two
//! fixed kernels in this file, independent of the code under test, whose
//! durations at that moment say how slow the host is running. A call's
//! time is its wall time divided by the mean slowness of the probes just
//! before and just after it: the time it would have taken on the
//! reference host. Wall times are kept next to it.
//!
//! The two kernels are a bytecode interpreter, which slows down the way
//! the oracle's cheap ops do, and B-tree and allocator churn, which slows
//! down less, the way its long memory-heavy ops do. Slowness is the
//! geometric mean of the two kernels' durations, each over its
//! reference. The solver slows down somewhat more than either kernel
//! when the host is at its slowest, so `sweep` keeps part of the drift
//! (see README.md, "Bounds").

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernels' durations on the reference host (2 vCPUs of an Intel
/// Xeon VM): medians over ten 30 s runs, five of each workload.
const REFERENCE_INTERP_S: f64 = 330e-6;
const REFERENCE_CHURN_S: f64 = 440e-6;

/// Instructions in the interpreter's program.
const PROGRAM_LEN: usize = 512;

/// Times the program is interpreted per probe.
const ROUNDS: usize = 150;

/// B-tree operations per probe.
const CHURN_STEPS: u64 = 3000;

/// A 64-bit LCG step, returning the high bits.
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 33
}

/// The probe's state: a register machine's program and memory.
struct Probe {
    program: Vec<[u8; 4]>,
    memory: Vec<i64>,
}

impl Probe {
    fn new() -> Self {
        let mut x = 3;
        let program = (0..PROGRAM_LEN)
            .map(|_| (lcg(&mut x) as u32).to_le_bytes())
            .collect();
        Probe {
            program,
            memory: vec![1; 1 << 12],
        }
    }

    /// Interprets the program [`ROUNDS`] times: a `match` dispatch with
    /// a data-dependent branch and memory traffic. Returns seconds.
    fn interp(&mut self) -> f64 {
        let started = Instant::now();
        let mut r = [1i64; 16];
        let mask = self.memory.len() - 1;
        for _ in 0..ROUNDS {
            let mut pc = 0;
            while pc < self.program.len() {
                let [op, a, b, c] = self.program[pc];
                let (a, b, c) = (a as usize & 15, b as usize & 15, c as usize & 15);
                match op % 8 {
                    0 => r[a] = r[b].wrapping_add(r[c]),
                    1 => r[a] = r[b].wrapping_sub(r[c]),
                    2 => r[a] = r[b].wrapping_mul(r[c] | 1),
                    3 => r[a] = r[b] ^ (r[c] >> 3),
                    4 => r[a] = self.memory[r[b] as usize & mask],
                    5 => self.memory[r[b] as usize & mask] = r[c],
                    6 if r[b] & 1 == 0 => pc += 1,
                    6 => {}
                    _ => r[a] = r[b].rotate_left(c as u32),
                }
                pc += 1;
            }
        }
        black_box(&r);
        started.elapsed().as_secs_f64()
    }

    /// Inserts into and removes from a B-tree and allocates and frees
    /// small vectors. Returns seconds.
    fn churn() -> f64 {
        let started = Instant::now();
        let mut x = 7;
        let mut map = BTreeMap::new();
        let mut vecs: Vec<Vec<u64>> = Vec::new();
        for i in 0..CHURN_STEPS {
            let k = lcg(&mut x) % 4096;
            map.insert(k, i);
            if i % 3 == 0 {
                map.remove(&(lcg(&mut x) % 4096));
            }
            if i % 8 == 0 {
                vecs.push(vec![k; (k % 64) as usize]);
                if vecs.len() > 32 {
                    vecs.swap_remove((k % 32) as usize);
                }
            }
        }
        black_box((&map, &vecs));
        started.elapsed().as_secs_f64()
    }

    /// How slow the host runs now: 1 at the reference host's speed, 2 at
    /// half of it.
    fn slowness(&mut self) -> f64 {
        slowness(self.interp(), Self::churn())
    }
}

/// Slowness from the two kernels' durations.
fn slowness(interp_s: f64, churn_s: f64) -> f64 {
    (interp_s / REFERENCE_INTERP_S * churn_s / REFERENCE_CHURN_S).sqrt()
}

/// `wall_s` in reference-host time, given the slowness measured just
/// before and just after it.
pub fn calibrate(wall_s: f64, slowness_before: f64, slowness_after: f64) -> f64 {
    wall_s * 2.0 / (slowness_before + slowness_after)
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Lap {
    /// Wall time, seconds.
    pub wall_s: f64,
    /// Reference-host time, seconds.
    pub host_s: f64,
}

/// Times calls in reference-host time.
pub struct HostClock {
    probe: Probe,
    slowness: Vec<f64>,
}

impl HostClock {
    /// A clock, with the probe before the first call already run.
    pub fn new() -> Self {
        let mut probe = Probe::new();
        let slowness = vec![probe.slowness()];
        HostClock { probe, slowness }
    }

    /// Runs `f`, then the probe, and returns `f`'s result and time.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Lap) {
        let started = Instant::now();
        let value = f();
        let wall_s = started.elapsed().as_secs_f64();
        let before = *self.slowness.last().expect("probed at creation");
        let after = self.probe.slowness();
        self.slowness.push(after);
        let host_s = calibrate(wall_s, before, after);
        (value, Lap { wall_s, host_s })
    }

    /// How fast the host ran, relative to the reference host: the
    /// inverse of the median slowness.
    pub fn host_speed(&self) -> f64 {
        1.0 / crate::stats::median(&self.slowness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_the_geometric_mean_of_the_kernels() {
        assert!((slowness(REFERENCE_INTERP_S, REFERENCE_CHURN_S) - 1.0).abs() < 1e-12);
        let s = slowness(4.0 * REFERENCE_INTERP_S, REFERENCE_CHURN_S);
        assert!((s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_divides_by_the_slowness_around_a_call() {
        assert_eq!(calibrate(0.010, 1.0, 1.0), 0.010);
        // A host at half speed doubles the call.
        assert!((calibrate(0.020, 2.0, 2.0) - 0.010).abs() < 1e-15);
        // The probes before and after are averaged.
        assert!((calibrate(0.015, 1.0, 2.0) - 0.010).abs() < 1e-15);
    }

    #[test]
    fn the_clock_times_every_call_and_probes_after_it() {
        let mut clock = HostClock::new();
        let (v, lap) = clock.time(|| (0..1000u64).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(lap.wall_s >= 0.0 && lap.host_s >= 0.0);
        assert_eq!(clock.slowness.len(), 2);
        assert!(clock.host_speed() > 0.0);
    }
}
