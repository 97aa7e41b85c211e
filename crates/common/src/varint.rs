//! LEB128 variable-length integers (plus a zigzag mapping for signed
//! deltas) — the codec behind the v2 compressed on-disk run format.
//!
//! The encoding is the standard unsigned LEB128: 7 payload bits per byte,
//! low bits first, the high bit of each byte marking continuation. A
//! `u64` therefore occupies 1–10 bytes; sorted-key deltas and small tuple
//! values — the bulk of a cold segment — fit in 1–2.
//!
//! Decoding here is **strict**: every helper rejects, as an `Err`-shaped
//! `None`, both *truncated* input (continuation bit set at end of buffer,
//! or more than `MAX_LEN` bytes) and *overlong* (non-canonical)
//! encodings — a multi-byte varint whose final byte is `0x00` would
//! decode to the same value with fewer bytes, and a 10th byte above `0x01`
//! would overflow 64 bits. Canonical-only decoding makes the on-disk
//! format bijective, so a corrupt or truncated run surfaces as an open
//! error instead of silently aliasing another valid file.
//!
//! Signed deltas (a later key component may be *smaller* than the
//! segment-base component it is encoded against) go through the zigzag
//! mapping `0, -1, 1, -2, 2, …` → `0, 1, 2, 3, 4, …` so that small
//! magnitudes of either sign stay short.

/// Maximum encoded length of a `u64`: ⌈64 / 7⌉ bytes.
pub(crate) const MAX_LEN: usize = 10;

/// Appends the LEB128 encoding of `value` to `out`.
#[inline]
pub fn encode_u64(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes one canonical LEB128 `u64` from the front of `buf`.
///
/// Returns the value and the number of bytes consumed, or `None` when the
/// input is truncated, longer than `MAX_LEN` bytes, overflows 64 bits,
/// or is a non-canonical (overlong) encoding.
#[inline]
pub fn decode_u64(buf: &[u8]) -> Option<(u64, usize)> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().take(MAX_LEN).enumerate() {
        let payload = u64::from(byte & 0x7f);
        // The 10th byte carries bits 63.. and may only be 0x00 or 0x01;
        // anything else overflows u64.
        if i == MAX_LEN - 1 && byte > 0x01 {
            return None;
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            // Canonical form: a multi-byte encoding must use its last
            // byte (a trailing 0x00 means a shorter encoding existed).
            if i > 0 && byte == 0 {
                return None;
            }
            return Some((value, i + 1));
        }
        shift += 7;
    }
    // Ran out of input (or exceeded MAX_LEN) with the continuation bit
    // still set: truncated or overlong.
    None
}

/// Maps a signed delta into the zigzag unsigned space.
#[inline]
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of `zigzag`.
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends the zigzag-LEB128 encoding of the signed delta `b - a`
/// (computed wrapping, so any `u64` pair round-trips).
#[inline]
pub fn encode_delta(base: u64, value: u64, out: &mut Vec<u8>) {
    encode_u64(zigzag(value.wrapping_sub(base) as i64), out);
}

/// Decodes `n` canonical varints from the front of `buf` into `out`,
/// returning the number of bytes consumed (`None` on truncated, overlong
/// or overflowing input; `out` may then hold a partial prefix).
///
/// The hot loop runs 8 values at a time: while the next eight bytes are
/// all continuation-free (`word & 0x8080…80 == 0`) they are eight
/// complete single-byte varints — the overwhelmingly common case for
/// delta-encoded keys and small tuple values — and are widened
/// byte-to-`u64` in one branch-free `chunks_exact`-style block the
/// compiler autovectorizes. Any chunk containing a continuation bit
/// falls back to one strict [`decode_u64`] and re-probes.
pub fn decode_block(buf: &[u8], n: usize, out: &mut Vec<u64>) -> Option<usize> {
    let mut pos = 0usize;
    let mut left = n;
    out.reserve(n);
    while left >= 8 {
        if let Some(chunk) = buf.get(pos..pos + 8) {
            let word = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
            if word & 0x8080_8080_8080_8080 == 0 {
                out.extend(chunk.iter().map(|&b| u64::from(b)));
                pos += 8;
                left -= 8;
                continue;
            }
        }
        let (v, used) = decode_u64(buf.get(pos..)?)?;
        out.push(v);
        pos += used;
        left -= 1;
    }
    while left > 0 {
        let (v, used) = decode_u64(buf.get(pos..)?)?;
        out.push(v);
        pos += used;
        left -= 1;
    }
    Some(pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: u64) {
        let mut buf = Vec::new();
        encode_u64(v, &mut buf);
        assert_eq!(decode_u64(&buf), Some((v, buf.len())), "round trip {v}");
    }

    #[test]
    fn round_trips_boundaries() {
        for v in [
            0,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            round_trip(v);
        }
        // Every 7-bit boundary.
        for shift in 0..64 {
            round_trip(1u64 << shift);
            round_trip((1u64 << shift) - 1);
        }
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut buf = Vec::new();
        encode_u64(300, &mut buf);
        assert_eq!(buf.len(), 2);
        assert_eq!(decode_u64(&buf[..1]), None);
        assert_eq!(decode_u64(&[]), None);
        // A lone continuation byte is truncated too.
        assert_eq!(decode_u64(&[0x80]), None);
    }

    #[test]
    fn overlong_encodings_are_rejected() {
        // 0 padded to two bytes: 0x80 0x00 decodes to 0 but is overlong.
        assert_eq!(decode_u64(&[0x80, 0x00]), None);
        // 1 padded to three bytes.
        assert_eq!(decode_u64(&[0x81, 0x80, 0x00]), None);
        // Eleven continuation bytes: longer than any canonical u64.
        assert_eq!(decode_u64(&[0x80; 11]), None);
        // A 10th byte above 0x01 overflows 64 bits.
        let mut buf = vec![0xffu8; 9];
        buf.push(0x02);
        assert_eq!(decode_u64(&buf), None);
        // ...while 0x01 in the 10th byte is exactly u64::MAX's top bit.
        let mut buf = vec![0xffu8; 9];
        buf.push(0x01);
        assert_eq!(decode_u64(&buf), Some((u64::MAX, 10)));
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX, -123456, 123456] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn deltas_round_trip_any_pair() {
        let pairs = [
            (0u64, 0u64),
            (10, 3),
            (3, 10),
            (u64::MAX, 0),
            (0, u64::MAX),
            (u64::MAX, u64::MAX),
            (1 << 63, (1 << 63) - 1),
        ];
        for (base, value) in pairs {
            let mut buf = Vec::new();
            encode_delta(base, value, &mut buf);
            let (raw, used) = decode_u64(&buf).unwrap();
            assert_eq!(
                (base.wrapping_add(unzigzag(raw) as u64), used),
                (value, buf.len()),
                "base {base} value {value}"
            );
        }
    }

    #[test]
    fn block_decode_matches_one_at_a_time() {
        // Mix single-byte and multi-byte values so the 8-wide fast path
        // enters, bails, and re-enters.
        let values: Vec<u64> = (0..100u64)
            .map(|i| if i % 9 == 0 { i * 1_000_000 + 5 } else { i % 100 })
            .collect();
        let mut buf = Vec::new();
        for &v in &values {
            encode_u64(v, &mut buf);
        }
        let mut out = Vec::new();
        assert_eq!(decode_block(&buf, values.len(), &mut out), Some(buf.len()));
        assert_eq!(out, values);

        // Truncation inside the block is caught.
        let mut out = Vec::new();
        assert_eq!(decode_block(&buf[..buf.len() - 1], values.len(), &mut out), None);
        // An overlong value inside the block is caught.
        let mut corrupt = buf.clone();
        corrupt[0] = 0x80;
        corrupt.insert(1, 0x00);
        let mut out = Vec::new();
        assert_eq!(decode_block(&corrupt, values.len(), &mut out), None);
    }

    #[test]
    fn small_deltas_stay_short() {
        let mut buf = Vec::new();
        encode_delta(1_000_000, 1_000_003, &mut buf);
        assert_eq!(buf.len(), 1);
        buf.clear();
        encode_delta(1_000_003, 1_000_000, &mut buf);
        assert_eq!(buf.len(), 1);
    }
}
