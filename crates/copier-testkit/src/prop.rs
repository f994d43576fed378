//! Minimal property-testing runner: seed-deterministic case generation,
//! greedy failure shrinking, and a fixed-seed regression mode.
//!
//! The shape mirrors what the workspace used from `proptest`, reduced to
//! what the suites actually need:
//!
//! * a property is a closure `Fn(&T) -> PropResult`; the
//!   [`prop_assert!`](crate::prop_assert) /
//!   [`prop_assert_eq!`](crate::prop_assert_eq) /
//!   [`prop_assert_ne!`](crate::prop_assert_ne)
//!   macros early-return an `Err(String)` on failure;
//! * generation is an arbitrary closure `Fn(&mut TestRng) -> T`
//!   (or the [`Arbitrary`] trait for common types);
//! * shrinking is a closure `Fn(&T) -> Vec<T>` returning *simpler*
//!   candidates — the runner greedily walks to a locally minimal
//!   counterexample before reporting;
//! * every case derives its own seed from the base seed, and a failure
//!   report prints `TESTKIT_REPRO=<case seed>` which replays exactly
//!   that case (with shrinking) regardless of case count.
//!
//! Environment knobs: `TESTKIT_CASES` (case count, default 256),
//! `TESTKIT_SEED` (base seed, default fixed — runs are deterministic
//! *by default*), `TESTKIT_REPRO` (single-case regression replay).

use crate::rng::{splitmix64, TestRng};

/// Outcome of a single property evaluation.
pub type PropResult = Result<(), String>;

/// Fails the surrounding property with a message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{}): {}",
                stringify!($cond),
                file!(),
                line!(),
                format!($($fmt)+)
            ));
        }
    };
}

/// Fails the surrounding property unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err(format!(
                "assertion failed: `left == right` ({}:{})\n  left: {:?}\n right: {:?}",
                file!(),
                line!(),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err(format!(
                "assertion failed: `left == right` ({}:{}): {}\n  left: {:?}\n right: {:?}",
                file!(),
                line!(),
                format!($($fmt)+),
                l,
                r
            ));
        }
    }};
}

/// Fails the surrounding property unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err(format!(
                "assertion failed: `left != right` ({}:{})\n  both: {:?}",
                file!(),
                line!(),
                l
            ));
        }
    }};
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random cases to run.
    pub cases: u32,
    /// Base seed; each case's seed derives from it.
    pub seed: u64,
    /// If set, run exactly one case with this seed (regression replay).
    pub repro: Option<u64>,
    /// Upper bound on shrink candidate evaluations.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 256,
            // Fixed by default: the suite is deterministic run-to-run.
            seed: 0xC0FF_EE5E_ED00_0001,
            repro: None,
            max_shrink_steps: 4096,
        }
    }
}

impl Config {
    /// Default config with `TESTKIT_CASES` / `TESTKIT_SEED` /
    /// `TESTKIT_REPRO` environment overrides applied.
    pub fn from_env() -> Self {
        let mut cfg = Config::default();
        if let Some(n) = env_u64("TESTKIT_CASES") {
            cfg.cases = n as u32;
        }
        if let Some(s) = env_u64("TESTKIT_SEED") {
            cfg.seed = s;
        }
        cfg.repro = env_u64("TESTKIT_REPRO");
        cfg
    }
}

fn env_u64(key: &str) -> Option<u64> {
    let v = std::env::var(key).ok()?;
    let v = v.trim();
    let parsed = if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        v.parse()
    };
    Some(parsed.unwrap_or_else(|_| panic!("{key}={v} is not a u64")))
}

/// Greedily shrinks a failing `value` to a locally minimal
/// counterexample: repeatedly takes the first still-failing candidate
/// until no candidate fails or the step budget runs out.
pub fn minimize<T, S, P>(value: T, shrink: &S, prop: &P, max_steps: u32) -> (T, u32)
where
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T) -> PropResult,
{
    let mut cur = value;
    let mut steps = 0u32;
    'outer: loop {
        for cand in shrink(&cur) {
            if steps >= max_steps {
                break 'outer;
            }
            steps += 1;
            if prop(&cand).is_err() {
                cur = cand;
                continue 'outer;
            }
        }
        break;
    }
    (cur, steps)
}

/// Runs `prop` on `cfg.cases` generated values, shrinking and panicking
/// on the first failure. The panic message includes the case seed and a
/// `TESTKIT_REPRO` line that replays the exact case.
pub fn check_with<T, G, S, P>(cfg: &Config, gen: G, shrink: S, prop: P)
where
    T: std::fmt::Debug,
    G: Fn(&mut TestRng) -> T,
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T) -> PropResult,
{
    let run_case = |case: u32, case_seed: u64| {
        let mut rng = TestRng::new(case_seed);
        let value = gen(&mut rng);
        if prop(&value).is_ok() {
            return;
        }
        let (minimal, steps) = minimize(value, &shrink, &prop, cfg.max_shrink_steps);
        let err = prop(&minimal).expect_err("minimal counterexample must still fail");
        panic!(
            "property failed (case {case}, seed {case_seed:#x}, {steps} shrink steps)\n\
             minimal counterexample: {minimal:#?}\n\
             {err}\n\
             replay with: TESTKIT_REPRO={case_seed:#x} cargo test <this test>"
        );
    };

    if let Some(case_seed) = cfg.repro {
        run_case(0, case_seed);
        return;
    }
    let mut sm = cfg.seed;
    for case in 0..cfg.cases {
        run_case(case, splitmix64(&mut sm));
    }
}

/// Types with a canonical generator and shrinker.
pub trait Arbitrary: Sized + std::fmt::Debug + Clone {
    /// Generates a random value.
    fn arbitrary(rng: &mut TestRng) -> Self;
    /// Simpler candidate values (empty = fully shrunk).
    fn shrink(&self) -> Vec<Self> {
        Vec::new()
    }
}

macro_rules! arb_int {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
            fn shrink(&self) -> Vec<Self> {
                // Halve toward zero, then decrement — classic integer ladder.
                let mut out = Vec::new();
                if *self != 0 {
                    out.push(*self / 2);
                    out.push(*self - 1);
                    out.dedup();
                }
                out
            }
        }
    )+};
}
arb_int!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
    fn shrink(&self) -> Vec<Self> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl<T: Arbitrary> Arbitrary for Vec<T> {
    fn arbitrary(rng: &mut TestRng) -> Self {
        let len = rng.range_usize(0, 33);
        (0..len).map(|_| T::arbitrary(rng)).collect()
    }
    fn shrink(&self) -> Vec<Self> {
        shrink_vec(self, T::shrink)
    }
}

/// Shrink candidates for a vector: drop halves, drop one element,
/// shrink one element in place. Reusable for hand-written strategies.
pub fn shrink_vec<T: Clone, S: Fn(&T) -> Vec<T>>(v: &[T], shrink_elem: S) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    if v.is_empty() {
        return out;
    }
    // Structural shrinks first — they remove the most at once. Halves
    // only when strictly smaller (len 1 would re-yield the whole vec).
    if v.len() >= 2 {
        out.push(v[..v.len() / 2].to_vec());
        out.push(v[v.len() / 2..].to_vec());
    }
    for i in 0..v.len() {
        let mut smaller = v.to_vec();
        smaller.remove(i);
        out.push(smaller);
    }
    for (i, elem) in v.iter().enumerate() {
        for cand in shrink_elem(elem) {
            let mut sv = v.to_vec();
            sv[i] = cand;
            out.push(sv);
        }
    }
    out
}

/// A value biased toward the LEB128 and 32-bit boundaries: small, near
/// `u64::MAX`, at or just under a power of 2^7, or uniform.
pub fn edge_u64(rng: &mut TestRng) -> u64 {
    match rng.gen_range(4) {
        0 => rng.gen_range(300),
        1 => u64::MAX - rng.gen_range(2),
        2 => (1u64 << (7 * rng.gen_range(10))) - rng.gen_range(2),
        _ => rng.next_u64(),
    }
}

/// How a decoder property damages a valid byte stream. Offsets are taken
/// modulo the stream's length, so one value damages any stream.
#[derive(Debug, Clone)]
pub enum Damage {
    /// Truncate at this offset.
    Cut(usize),
    /// XOR these masks in at these offsets.
    Flip(Vec<(usize, u8)>),
    /// Insert these bytes at this offset (modulo the length + 1).
    Splice(usize, Vec<u8>),
}

impl Damage {
    /// One of the three, with 1–4 single-bit flips or 1–12 bytes spliced.
    pub fn random(rng: &mut TestRng) -> Damage {
        let mut n = |k| rng.gen_range(k) as usize;
        match n(3) {
            0 => Damage::Cut(n(1 << 20)),
            1 => Damage::Flip((0..1 + n(4)).map(|_| (n(1 << 20), 1 << n(8))).collect()),
            _ => {
                let at = n(1 << 20);
                let mut bytes = vec![0u8; 1 + n(12)];
                rng.fill_bytes(&mut bytes);
                Damage::Splice(at, bytes)
            }
        }
    }

    /// Damages `buf` in place.
    pub fn apply(&self, buf: &mut Vec<u8>) {
        match self {
            Damage::Cut(at) => buf.truncate(at % buf.len().max(1)),
            Damage::Flip(flips) if !buf.is_empty() => {
                let n = buf.len();
                for &(at, mask) in flips {
                    buf[at % n] ^= mask;
                }
            }
            Damage::Flip(_) => {}
            Damage::Splice(at, bytes) => {
                let at = at % (buf.len() + 1);
                buf.splice(at..at, bytes.iter().copied());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_completes() {
        let cfg = Config {
            cases: 50,
            ..Config::default()
        };
        check_with(
            &cfg,
            |rng| rng.gen_range(100),
            |_| Vec::new(),
            |&v| {
                prop_assert!(v < 100);
                Ok(())
            },
        );
    }

    #[test]
    fn failing_property_panics_with_shrunk_counterexample() {
        let cfg = Config {
            cases: 64,
            ..Config::default()
        };
        let result = std::panic::catch_unwind(|| {
            check_with(
                &cfg,
                |rng: &mut TestRng| Vec::<u8>::arbitrary(rng),
                |v| shrink_vec(v, u8::shrink),
                |v: &Vec<u8>| {
                    prop_assert!(v.len() < 3, "planted failure");
                    Ok(())
                },
            );
        });
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        // Greedy shrinking lands on the canonical minimal counterexample.
        assert!(msg.contains("minimal counterexample"), "{msg}");
        let flat: String = msg.split_whitespace().collect();
        assert!(
            flat.contains("[0,0,0,]") || flat.contains("[0,0,0]"),
            "not shrunk to three zeros: {msg}"
        );
    }

    #[test]
    fn integer_shrink_reaches_zero_ladder() {
        assert_eq!(8u32.shrink(), vec![4, 7]);
        assert_eq!(1u32.shrink(), vec![0]);
        assert!(0u32.shrink().is_empty());
    }

    #[test]
    fn minimize_on_planted_failure_is_minimal() {
        // Planted failing property: "v.len() < 3" — the minimal failing
        // Vec<u8> is exactly three zero bytes.
        let prop = |v: &Vec<u8>| -> PropResult {
            prop_assert!(v.len() < 3, "len {}", v.len());
            Ok(())
        };
        let start: Vec<u8> = vec![17, 200, 3, 9, 44, 250, 1];
        let (minimal, _) = minimize(start, &|v: &Vec<u8>| shrink_vec(v, u8::shrink), &prop, 4096);
        assert_eq!(minimal, vec![0, 0, 0]);
    }

    #[test]
    fn repro_mode_runs_the_given_seed() {
        // A property that only fails for one specific generated value;
        // repro with the failing case seed must hit it deterministically.
        let gen = |rng: &mut TestRng| rng.gen_range(1000);
        // Find a case seed whose generated value is, say, >= 990.
        let mut sm = 0xDEAD_BEEFu64;
        let case_seed = loop {
            let s = splitmix64(&mut sm);
            if gen(&mut TestRng::new(s)) >= 990 {
                break s;
            }
        };
        let cfg = Config {
            repro: Some(case_seed),
            ..Config::default()
        };
        let result = std::panic::catch_unwind(|| {
            check_with(
                &cfg,
                gen,
                |_| Vec::new(),
                |&v| {
                    prop_assert!(v < 990);
                    Ok(())
                },
            );
        });
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        assert!(msg.contains("TESTKIT_REPRO"), "{msg}");
        assert!(msg.contains(&format!("{case_seed:#x}")), "{msg}");
    }
}
