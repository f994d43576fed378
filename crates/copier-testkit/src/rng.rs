//! Seed-deterministic PRNG: splitmix64 seeding a xoshiro256++ core.
//!
//! Distinct from `copier_sim::SimRng` (xoshiro256**, interior
//! mutability, workload generation inside the simulation): this
//! generator is `&mut self`-based and drives test-case generation.

/// One step of the splitmix64 sequence (also used to derive seeds).
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded xoshiro256++ generator.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Creates a generator from a 64-bit seed via splitmix64 expansion.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        TestRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit value (xoshiro256++ output function).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    /// Lemire's multiply-shift rejection method — no modulo bias.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be nonzero");
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
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(hi > lo, "empty range [{lo}, {hi})");
        lo + self.gen_range((hi - lo) as u64) as usize
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fills a byte slice with pseudo-random data.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let b = self.next_u64().to_le_bytes();
            let n = rem.len();
            rem.copy_from_slice(&b[..n]);
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.gen_range((i + 1) as u64) as usize;
            v.swap(i, j);
        }
    }

    /// Uniformly chosen element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, v: &'a [T]) -> &'a T {
        assert!(!v.is_empty(), "choose on empty slice");
        &v[self.range_usize(0, v.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = TestRng::new(7);
        let mut b = TestRng::new(7);
        for _ in 0..256 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = TestRng::new(1);
        let mut b = TestRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "{same} collisions in 64 draws");
    }

    #[test]
    fn gen_range_in_bounds_and_covers() {
        let mut r = TestRng::new(42);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = r.gen_range(10) as usize;
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&b| b));
        assert_eq!(r.gen_range(1), 0);
    }

    #[test]
    fn range_usize_hits_both_ends() {
        let mut r = TestRng::new(3);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..500 {
            let x = r.range_usize(5, 8);
            assert!((5..8).contains(&x));
            lo_seen |= x == 5;
            hi_seen |= x == 7;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn gen_f64_unit_interval() {
        let mut r = TestRng::new(9);
        for _ in 0..1000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut r = TestRng::new(5);
        let mut buf = [0u8; 23];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        assert!(buf[16..].iter().any(|&b| b != 0), "tail remainder filled");
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = TestRng::new(6);
        let mut v: Vec<u32> = (0..32).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
