//! The one byte format under both durable formats: `.cptr` recordings
//! ([`crate::trace`]) and the control-plane journal (`copier-core`'s
//! `journal`). It owns the LEB128 varint, byte-at-a-time FNV-1a and its
//! word fold, the [`Field`] kinds a record is made of, and
//! [`wire_table!`](crate::wire_table), which spells each record once: a row declares the
//! variant, its tag and its fields in wire order, and the enum, its
//! encoder and its decoder all come from that row.
//!
//! Decoding is total. Every decoder returns `Err` on input no encoder
//! writes — a truncated or over-long varint, a 10th varint byte above 1, a
//! `u32` field above `u32::MAX`, a count larger than the bytes left, an
//! unknown tag — and never panics or truncates.

/// FNV-1a offset basis — the digest seed used by every state hash.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Byte-at-a-time FNV-1a of `bytes`, continuing from accumulator `h`
/// ([`FNV_OFFSET`] to start one).
pub fn fnv_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// `FNV_PRIME^n` for `n` in `0..=8`: FNV-1a of a zero byte is a bare
/// multiply by the prime, so `n` zero bytes are one multiply by entry `n`.
const ZERO_BYTES: [u64; 9] = {
    let mut t = [1u64; 9];
    let mut n = 1;
    while n < t.len() {
        t[n] = t[n - 1].wrapping_mul(FNV_PRIME);
        n += 1;
    }
    t
};

/// Folds one 64-bit word into an FNV-1a accumulator: exactly
/// [`fnv_bytes`] of its eight little-endian bytes (all trace state hashes
/// use this so record and replay agree). The bytes above the highest
/// non-zero one are zeros, so only the `k` significant bytes are folded
/// one at a time and the `8 − k` zeros take one multiply: a counter's
/// small value costs a step or two, not eight.
pub fn fnv_fold(h: u64, w: u64) -> u64 {
    let k = 8 - w.leading_zeros() as usize / 8;
    fnv_bytes(h, &w.to_le_bytes()[..k]).wrapping_mul(ZERO_BYTES[8 - k])
}

/// Appends `v` as an LEB128 varint (1–10 bytes).
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one LEB128 varint at `pos`, advancing it. A 10th byte carries
/// bit 63 only, so anything above 1 there (or an 11th byte) is refused
/// rather than shifted out.
fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let &b = buf.get(*pos).ok_or("truncated varint")?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err("varint overflows 64 bits".into());
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err("varint overflows 64 bits".into())
}

/// A value with one wire spelling. The kinds both formats use: a raw
/// byte for `u8` and `bool`, a varint for `u64` and for a range-checked
/// `u32`, a count-prefixed `Vec<u64>`, a tuple of fields in order — and
/// every type [`wire_table!`](crate::wire_table) generates.
pub trait Field: Sized {
    /// Appends the encoding of `self`.
    fn put(&self, out: &mut Vec<u8>);
    /// Decodes one value at `pos`, advancing it past the value.
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self, String>;
}

impl Field for u8 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self, String> {
        let &b = buf.get(*pos).ok_or("truncated byte")?;
        *pos += 1;
        Ok(b)
    }
}

/// A raw byte; any nonzero byte reads as `true`.
impl Field for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self, String> {
        Ok(u8::get(buf, pos)? != 0)
    }
}

impl Field for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self, String> {
        get_varint(buf, pos)
    }
}

impl Field for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self, String> {
        let v = get_varint(buf, pos)?;
        u32::try_from(v).map_err(|_| format!("u32 field holds {v}"))
    }
}

/// A varint count, then each element as a varint.
impl Field for Vec<u64> {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for &v in self {
            put_varint(out, v);
        }
    }
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self, String> {
        let n = get_varint(buf, pos)?;
        // Each element takes at least one byte: a larger count is
        // corrupt, and must not size an allocation.
        if n > buf.len().saturating_sub(*pos) as u64 {
            return Err(format!("count {n} exceeds the bytes left"));
        }
        (0..n).map(|_| get_varint(buf, pos)).collect()
    }
}

impl<A: Field, B: Field, C: Field> Field for (A, B, C) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self, String> {
        Ok((A::get(buf, pos)?, B::get(buf, pos)?, C::get(buf, pos)?))
    }
}

/// Declares a record type once and derives its [`Field`] impl from the
/// declaration, fields in the order written:
///
/// * `enum Name { tag => Variant { field: Type, … }, … }` — a tag byte,
///   then the variant's fields; an unknown tag decodes to `Err`;
/// * `struct Name { field: Type, … }` — the fields, no tag.
///
/// Attributes (docs, derives) and visibilities pass through. A field's
/// type is any [`Field`], a generated type included.
#[macro_export]
macro_rules! wire_table {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident {
                    $($(#[$fmeta:meta])* $field:ident: $ty:ty),* $(,)?
                }
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant { $($(#[$fmeta])* $field: $ty),* },)+
        }

        impl $crate::wire::Field for $name {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($name::$variant { $($field),* } => {
                        out.push($tag);
                        $($crate::wire::Field::put($field, out);)*
                    })+
                }
            }

            fn get(buf: &[u8], pos: &mut usize) -> Result<Self, String> {
                Ok(match <u8 as $crate::wire::Field>::get(buf, pos)? {
                    $($tag => $name::$variant {
                        $($field: $crate::wire::Field::get(buf, pos)?),*
                    },)+
                    t => return Err(format!("unknown {} tag {t}", stringify!($name))),
                })
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty),*
        }

        impl $crate::wire::Field for $name {
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::wire::Field::put(&self.$field, out);)*
            }

            fn get(buf: &[u8], pos: &mut usize) -> Result<Self, String> {
                Ok($name {
                    $($field: $crate::wire::Field::get(buf, pos)?),*
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use copier_testkit::{check_with, edge_u64, prop_assert_eq, Config, TestRng};

    #[test]
    fn varint_boundaries_roundtrip() {
        for v in [0u64, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
    }

    /// The 10th byte of a varint holds bit 63 alone: `u64::MAX` ends in 1,
    /// and a 2 there is refused instead of shifted out to a wrong value.
    #[test]
    fn varint_refuses_a_tenth_byte_above_one() {
        let mut max = Vec::new();
        put_varint(&mut max, u64::MAX);
        assert_eq!(max.len(), 10);
        assert_eq!(max[9], 1);
        max[9] = 2;
        assert!(get_varint(&max, &mut 0).is_err());
        max[9] = 0x81;
        max.push(0);
        assert!(get_varint(&max, &mut 0).is_err(), "11 bytes");
    }

    #[test]
    fn u32_fields_refuse_wider_values() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u32::MAX as u64);
        put_varint(&mut buf, 1 << 32);
        let mut pos = 0;
        assert_eq!(u32::get(&buf, &mut pos), Ok(u32::MAX));
        assert!(u32::get(&buf, &mut pos).is_err());
    }

    /// Every word whose significant-byte count is a boundary: each value
    /// `edge_u64` can draw other than a uniform one, `0xff`/`0x100`,
    /// `1 << 56`, and `2^k` and `2^k − 1` for every `k`.
    fn edge_words() -> Vec<u64> {
        let mut ws: Vec<u64> = (0..300).collect();
        ws.extend([u64::MAX, u64::MAX - 1, 0xff, 0x100, 1 << 56]);
        ws.extend((0..10).flat_map(|i| [1u64 << (7 * i), (1u64 << (7 * i)) - 1]));
        ws.extend((0..64).flat_map(|k| [1u64 << k, (1u64 << k) - 1]));
        ws
    }

    /// The zero-byte fast path is bit-for-bit the byte fold of the eight
    /// little-endian bytes: on every boundary word from three
    /// accumulators, then on seeded accumulators and words. Kills an
    /// off-by-one in the significant-byte count (`8 - lz / 8 ± 1`, or
    /// `lz / 8` rounded the other way), which drops or doubles a byte at
    /// every byte boundary.
    #[test]
    fn fnv_fold_is_byte_fnv_of_the_le_word() {
        let byte_fnv = |h: u64, w: u64| fnv_bytes(h, &w.to_le_bytes());
        for h in [FNV_OFFSET, 0, u64::MAX] {
            for w in edge_words() {
                assert_eq!(fnv_fold(h, w), byte_fnv(h, w), "h {h:#x} w {w:#x}");
            }
        }
        check_with(
            &Config::from_env(),
            |rng: &mut TestRng| {
                let w = match rng.gen_range(3) {
                    0 => edge_u64(rng),
                    1 => rng.next_u64() >> (8 * rng.gen_range(8)),
                    _ => *rng.choose(&edge_words()),
                };
                (rng.next_u64(), w)
            },
            |_| Vec::new(),
            |&(h, w)| {
                prop_assert_eq!(fnv_fold(h, w), byte_fnv(h, w));
                Ok(())
            },
        );
        // The published FNV-1a 64 vector for "a".
        assert_eq!(fnv_bytes(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
