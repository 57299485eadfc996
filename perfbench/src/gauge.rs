//! A gauge of the host's speed while a run measures.
//!
//! The CPUs of a shared host change speed with load from outside the
//! machine: within seconds, and by a quarter or more from one stretch of
//! minutes to the next. The gauge times a fixed loop of 64-bit
//! multiplications, which calls no library code, between the operations a
//! workload times. A timing metric is the fastest sample of its operation
//! scaled by [`REFERENCE_S`] over the fastest reading of the gauge in the
//! same run: the time the operation takes on a host that runs the loop in
//! exactly [`REFERENCE_S`].

use std::hint::black_box;
use std::time::Instant;

/// The loop's fastest time on the host the benchmark was defined on.
pub const REFERENCE_S: f64 = 1.9e-3;
/// Products per reading.
const ROUNDS: usize = 50_000;

pub struct Gauge {
    fastest_s: f64,
    readings: usize,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            fastest_s: f64::INFINITY,
            readings: 0,
        }
    }
}

impl Gauge {
    /// Times one run of the loop.
    pub fn read(&mut self) {
        let t = Instant::now();
        black_box(spin(black_box(0x9e37_79b9_7f4a_7c15)));
        self.fastest_s = self.fastest_s.min(t.elapsed().as_secs_f64());
        self.readings += 1;
    }

    pub fn fastest_s(&self) -> f64 {
        self.fastest_s
    }

    pub fn readings(&self) -> usize {
        self.readings
    }

    /// The factor that takes a time on this host to one at the reference
    /// speed; 1 before the first reading.
    pub fn scale(&self) -> f64 {
        if self.readings == 0 {
            1.0
        } else {
            REFERENCE_S / self.fastest_s
        }
    }
}

/// Schoolbook products of six-limb numbers, each folded into the next
/// factor: the multiply-and-carry work of a field multiplication.
fn spin(seed: u64) -> u64 {
    let mut x = [
        seed,
        !seed,
        seed.rotate_left(17),
        seed ^ 1,
        seed >> 3,
        seed | 1,
    ];
    for _ in 0..ROUNDS {
        let mut wide = [0u64; 12];
        for i in 0..6 {
            let mut carry = 0u128;
            for j in 0..6 {
                let t = x[i] as u128 * x[j] as u128 + wide[i + j] as u128 + carry;
                wide[i + j] = t as u64;
                carry = t >> 64;
            }
            wide[i + 6] = carry as u64;
        }
        for i in 0..6 {
            x[i] = wide[i] ^ wide[i + 6];
        }
        x[0] |= 1;
    }
    x.iter().fold(0, |a, b| a ^ b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_one_until_read() {
        let mut g = Gauge::default();
        assert_eq!(g.scale(), 1.0);
        g.read();
        assert!(g.fastest_s() > 0.0 && g.scale().is_finite());
        assert_eq!(g.readings(), 1);
    }
}
