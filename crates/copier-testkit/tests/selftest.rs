//! End-to-end self-test of the public testkit surface — the guarantees
//! every other crate's tests now stand on.

use copier_testkit::prop::{check_with, minimize, shrink_vec, Arbitrary, Config};
use copier_testkit::{black_box, prop_assert, prop_assert_eq, Bench, TestRng};

#[test]
fn same_seed_identical_stream_across_surfaces() {
    let mut a = TestRng::new(0xABCD);
    let mut b = TestRng::new(0xABCD);
    let mut bytes_a = [0u8; 64];
    let mut bytes_b = [0u8; 64];
    a.fill_bytes(&mut bytes_a);
    b.fill_bytes(&mut bytes_b);
    assert_eq!(bytes_a, bytes_b);

    let mut va: Vec<u32> = (0..100).collect();
    let mut vb: Vec<u32> = (0..100).collect();
    a.shuffle(&mut va);
    b.shuffle(&mut vb);
    assert_eq!(va, vb);
    assert_eq!(a.gen_range(1 << 40), b.gen_range(1 << 40));
}

#[test]
fn distinct_seeds_diverge() {
    let mut a = TestRng::new(0x1000);
    let mut b = TestRng::new(0x1001);
    let collisions = (0..128).filter(|_| a.next_u64() == b.next_u64()).count();
    assert!(collisions < 2, "{collisions} collisions");
}

#[test]
fn gen_range_bounds_hold_under_property_check() {
    // The runner checking its own PRNG: bounds hold for random bounds.
    check_with(
        &Config {
            cases: 200,
            ..Config::default()
        },
        |rng| {
            let bound = rng.gen_range(1 << 32) + 1;
            let draws: Vec<u64> = (0..16).map(|_| rng.gen_range(bound)).collect();
            (bound, draws)
        },
        |_| Vec::new(),
        |(bound, draws)| {
            for &d in draws {
                prop_assert!(d < *bound, "draw {d} out of [0, {bound})");
            }
            Ok(())
        },
    );
}

#[test]
fn shrinking_reaches_minimal_counterexample() {
    // Planted failing property: "sum of the vector is < 10". The
    // minimal failing vector under the ladder shrinker is `[10]`.
    let prop = |v: &Vec<u8>| -> copier_testkit::PropResult {
        let sum: u32 = v.iter().map(|&b| b as u32).sum();
        prop_assert!(sum < 10, "sum {sum}");
        Ok(())
    };
    let start = vec![200u8, 31, 7, 150, 9];
    let (minimal, _) = minimize(start, &|v: &Vec<u8>| shrink_vec(v, u8::shrink), &prop, 8192);
    assert_eq!(minimal, vec![10]);
}

#[test]
fn arbitrary_vec_roundtrips_through_runner() {
    check_with(
        &Config {
            cases: 64,
            ..Config::default()
        },
        Vec::<u16>::arbitrary,
        |v| v.shrink(),
        |v| {
            let doubled: Vec<u32> = v.iter().map(|&x| x as u32 * 2).collect();
            for (d, x) in doubled.iter().zip(v.iter()) {
                prop_assert_eq!(*d, *x as u32 * 2);
            }
            Ok(())
        },
    );
}

#[test]
fn bench_harness_is_usable_for_real_work() {
    let mut data = vec![0u8; 1024];
    let mut rng = TestRng::new(77);
    let r = Bench::fast().run("fill_1k", || {
        rng.fill_bytes(black_box(&mut data));
    });
    assert_eq!(r.samples_ns.len(), 5);
    assert!(data.iter().any(|&b| b != 0));
}
