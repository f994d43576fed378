//! Randomized fuzz of the CopierSanitizer shadow-memory rules
//! (§5.1.2), generalizing the directed unit tests: random placements,
//! lengths, offsets, and interleavings must uphold the poisoning
//! contract — reads/writes/frees of an un-synced range are reported,
//! synced and never-poisoned ranges stay clean, and `csync_all`
//! amnesties everything.

use copier_sanitizer::{AccessKind, Sanitizer};
use copier_testkit::prop::{check_with, Config};
use copier_testkit::{prop_assert, prop_assert_eq, TestRng};

/// A random non-overlapping (dst, src, len) placement on a page grid,
/// mirroring how real callers carve buffers.
fn arb_copy(rng: &mut TestRng) -> (u64, u64, usize) {
    let len = rng.range_usize(1, 4096);
    // Distinct 64 KB slabs keep dst/src (and poison starts) disjoint.
    let mut slots = [0u64, 1, 2, 3];
    rng.shuffle(&mut slots);
    let base = 0x10_0000;
    (base + slots[0] * 0x1_0000, base + slots[1] * 0x1_0000, len)
}

#[test]
fn unsynced_dst_access_always_reported_then_csync_clears() {
    check_with(
        &Config::from_env(),
        |rng| {
            let (dst, src, len) = arb_copy(rng);
            let off = rng.range_usize(0, len);
            let alen = rng.range_usize(1, (len - off).max(1) + 1);
            (dst, src, len, off as u64, alen)
        },
        |_| Vec::new(),
        |&(dst, src, len, off, alen): &(u64, u64, usize, u64, usize)| {
            let s = Sanitizer::new();
            s.on_amemcpy(dst, src, len);
            s.on_read(dst + off, alen, "fuzz dst read");
            let reports = s.reports();
            prop_assert_eq!(reports.len(), 1, "dst {dst:#x}+{off} len {alen}");
            prop_assert_eq!(reports[0].kind, AccessKind::Read);
            // Full csync releases dst and its source for reuse.
            s.on_csync(dst, len);
            s.on_read(dst + off, alen, "after sync");
            s.on_write(src, 1, "src reuse after sync");
            prop_assert_eq!(s.reports().len(), 1, "no new reports after csync");
            Ok(())
        },
    );
}

#[test]
fn src_reads_allowed_src_writes_and_frees_reported() {
    check_with(
        &Config::from_env(),
        |rng| {
            let (dst, src, len) = arb_copy(rng);
            let off = rng.range_usize(0, len) as u64;
            let free_instead = rng.gen_bool(0.5);
            (dst, src, len, off, free_instead)
        },
        |_| Vec::new(),
        |&(dst, src, len, off, free_instead): &(u64, u64, usize, u64, bool)| {
            let s = Sanitizer::new();
            s.on_amemcpy(dst, src, len);
            s.on_read(src + off, 1, "src read in flight");
            prop_assert!(s.clean(), "reading a pending source must be allowed");
            if free_instead {
                s.on_free(src, len, "free pending src");
                prop_assert_eq!(s.reports().len(), 1);
                prop_assert_eq!(s.reports()[0].kind, AccessKind::Free);
            } else {
                s.on_write(src + off, 1, "overwrite pending src");
                prop_assert_eq!(s.reports().len(), 1);
                prop_assert_eq!(s.reports()[0].kind, AccessKind::Write);
            }
            Ok(())
        },
    );
}

/// `(dst, src, len)` per poisoning copy, `(addr, len)` per probe.
type PoisonCase = (Vec<(u64, u64, usize)>, Vec<(u64, usize)>);

#[test]
fn csync_all_amnesties_any_poison_set() {
    check_with(
        &Config::from_env(),
        |rng| {
            let copies = rng.range_usize(1, 8);
            let poisons: Vec<(u64, u64, usize)> = (0..copies)
                .map(|k| {
                    // Disjoint 1 MB regions per copy keep starts unique.
                    let region = 0x100_0000 * (k as u64 + 1);
                    let len = rng.range_usize(1, 8192);
                    (region, region + 0x80_0000, len)
                })
                .collect();
            let probes: Vec<(u64, usize)> = (0..16)
                .map(|_| {
                    let (d, s, l) = *rng.choose(&poisons);
                    let off = rng.gen_range(l as u64);
                    if rng.gen_bool(0.5) {
                        (d + off, rng.range_usize(1, 64))
                    } else {
                        (s + off, rng.range_usize(1, 64))
                    }
                })
                .collect();
            (poisons, probes)
        },
        |_| Vec::new(),
        |(poisons, probes): &PoisonCase| {
            let s = Sanitizer::new();
            for &(d, src, l) in poisons {
                s.on_amemcpy(d, src, l);
            }
            s.on_csync_all();
            for &(addr, len) in probes {
                s.on_read(addr, len, "post-amnesty read");
                s.on_write(addr, len, "post-amnesty write");
                s.on_free(addr, len, "post-amnesty free");
            }
            prop_assert!(s.clean(), "reports after csync_all: {:?}", s.reports());
            Ok(())
        },
    );
}

#[test]
fn partial_csync_keeps_uncovered_tail_poisoned() {
    check_with(
        &Config::from_env(),
        |rng| {
            let (dst, src, len) = arb_copy(rng);
            // Require room for a strict split and a tail probe.
            let len = len.max(2);
            let split = rng.range_usize(1, len);
            (dst, src, len, split)
        },
        |_| Vec::new(),
        |&(dst, src, len, split): &(u64, u64, usize, usize)| {
            let s = Sanitizer::new();
            s.on_amemcpy(dst, src, len);
            // Prefix-only sync does not cover the dst poison range, so
            // the whole destination stays poisoned (range semantics:
            // poisons clear only when fully covered).
            s.on_csync(dst, split);
            s.on_read(dst + split as u64, len - split, "tail after partial sync");
            prop_assert_eq!(s.reports().len(), 1, "split {split}/{len}");
            // Completing the sync clears it.
            s.on_csync(dst, len);
            s.on_read(dst, len, "after full sync");
            prop_assert_eq!(s.reports().len(), 1);
            Ok(())
        },
    );
}

/// Never-poisoned addresses stay clean under arbitrary access storms —
/// the sanitizer must not false-positive.
#[test]
fn unpoisoned_memory_never_reports() {
    check_with(
        &Config::from_env(),
        |rng| {
            let (dst, src, len) = arb_copy(rng);
            let accesses: Vec<(u64, usize)> = (0..32)
                .map(|_| {
                    // Far below the poisoned slabs.
                    (rng.gen_range(0xF000), rng.range_usize(1, 128))
                })
                .collect();
            (dst, src, len, accesses)
        },
        |_| Vec::new(),
        |(dst, src, len, accesses): &(u64, u64, usize, Vec<(u64, usize)>)| {
            let s = Sanitizer::new();
            s.on_amemcpy(*dst, *src, *len);
            for &(addr, alen) in accesses {
                s.on_read(addr, alen, "far read");
                s.on_write(addr, alen, "far write");
            }
            prop_assert!(s.clean(), "false positives: {:?}", s.reports());
            Ok(())
        },
    );
}
