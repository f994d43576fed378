//! Micro-benchmarks of the real (host-executed) data structures: the
//! CSH ring, segment descriptors, interval sets, and the
//! ChaCha20 / LZ77 codecs. These measure actual wall-clock cost on the
//! build machine — the only host-time measurements in the suite
//! (everything else is virtual time).
//!
//! Runs on the in-tree `copier-testkit` bench harness (no criterion):
//! per-iteration nanosecond samples feed `copier_bench::stats` so the
//! output matches the fig* harness format.

use copier_bench::{row, section, stats};
use copier_sim::Nanos;
use copier_testkit::{black_box, Bench, BenchResult};

use copier::core::{IntervalSet, Ring, SegDescriptor};

fn report(r: &BenchResult) {
    let mut ns: Vec<Nanos> = r.samples_ns.iter().map(|&n| Nanos(n)).collect();
    let s = stats(&mut ns);
    row(&[
        ("bench", r.name.clone()),
        ("p50_ns", s.p50.as_nanos().to_string()),
        ("min_ns", s.min.as_nanos().to_string()),
        ("max_ns", s.max.as_nanos().to_string()),
        ("samples", s.n.to_string()),
        ("iters", r.iters_per_sample.to_string()),
    ]);
}

fn main() {
    let harness = Bench {
        warmup_ms: 500,
        samples: 20,
        sample_ms: 10,
    };
    section("micro: host-time data-structure costs (testkit harness)");

    let ring: Ring<u64> = Ring::new(1024);
    report(&harness.run("ring_push_pop", || {
        ring.push(black_box(42)).unwrap();
        black_box(ring.pop());
    }));

    let d = SegDescriptor::new(256 * 1024, 1024);
    let mut i = 0;
    report(&harness.run("descriptor_mark_and_check", || {
        d.mark(i % 256);
        black_box(d.range_ready((i % 256) * 1024, 1024));
        i += 1;
    }));

    report(&harness.run("interval_insert_covers", || {
        let mut s = IntervalSet::new();
        for i in 0..32 {
            s.insert(i * 100, i * 100 + 60);
        }
        black_box(s.covers(500, 550));
    }));

    let key = [7u8; 32];
    let nonce = [1u8; 12];
    let mut data = vec![0u8; 4096];
    report(&harness.run("chacha20_4k", || {
        copier::apps::tls::chacha20_xor(&key, &nonce, 0, black_box(&mut data));
    }));

    let lz_data: Vec<u8> = (0..16 * 1024).map(|i| ((i / 48) % 200) as u8).collect();
    report(&harness.run("lz77_compress_16k", || {
        black_box(copier::apps::zlib::lz77_compress(black_box(&lz_data)));
    }));
}
