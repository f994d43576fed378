//! Small deterministic PRNG for workload generation.
//!
//! The simulator must be reproducible from a seed, so all stochastic
//! workload choices go through this xoshiro256**-based generator rather
//! than any global RNG.

use std::cell::Cell;

/// A seeded xoshiro256** generator.
///
/// Interior mutability lets workloads share one generator through `Rc`
/// without threading `&mut` everywhere; the simulator is single-threaded.
pub struct SimRng {
    s: Cell<[u64; 4]>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Derives the seed of child stream `stream` from a parent `seed`.
///
/// Both inputs pass through the splitmix64 finalizer before mixing, so
/// nearby seeds and nearby stream indices land in unrelated states — a
/// plain `seed ^ (stream + 1) * PHI` keeps the low-entropy structure of
/// both inputs and lets streams collide or correlate across adjacent
/// seeds (e.g. `stream_seed(s, 1) == stream_seed(s ^ PHI, 0)` under the
/// xor scheme). Used by the workload generator for per-tenant streams.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut s = stream;
    let mixed = splitmix64(&mut s);
    let mut t = seed ^ mixed;
    splitmix64(&mut t)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s: Cell::new(s) }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&self) -> u64 {
        let mut s = self.s.get();
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.s.set(s);
        result
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    pub fn gen_range(&self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be nonzero");
        // Lemire's multiply-shift rejection method.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let l = m as u64;
            if l >= bound || l >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform usize in `[lo, hi)`.
    pub fn range_usize(&self, lo: usize, hi: usize) -> usize {
        assert!(hi > lo);
        lo + self.gen_range((hi - lo) as u64) as usize
    }

    /// Uniform f64 in `[0, 1)`.
    pub(crate) fn gen_f64(&self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    pub fn gen_bool(&self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fills a byte slice with pseudo-random data.
    pub fn fill_bytes(&self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let b = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&b[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let a = SimRng::new(7);
        let b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = SimRng::new(1);
        let b = SimRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn gen_range_in_bounds_and_covers() {
        let r = SimRng::new(42);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = r.gen_range(10) as usize;
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn gen_f64_unit_interval() {
        let r = SimRng::new(3);
        for _ in 0..1000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn fill_bytes_fills_everything() {
        let r = SimRng::new(9);
        let mut buf = [0u8; 23];
        r.fill_bytes(&mut buf);
        // 23 zero bytes after filling would be astronomically unlikely.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn stream_seeds_decorrelate_nearby_inputs() {
        // The xor/PHI scheme this replaces had exact cross-seed
        // collisions: seed ^ (a+1)*PHI == seed' ^ (b+1)*PHI whenever
        // seed' = seed ^ (a-b)*PHI. The finalizer-based derivation must
        // not reproduce them.
        const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
        let seed = 42u64;
        let seed2 = seed ^ PHI; // collided with (seed, stream 1) before
        assert_ne!(stream_seed(seed, 1), stream_seed(seed2, 0));
        // And streams under one seed are pairwise distinct.
        let mut seen = std::collections::HashSet::new();
        for t in 0..64 {
            assert!(seen.insert(stream_seed(seed, t)));
        }
    }
}
