//! Internet (RFC 1071) ones'-complement checksum, used by IPv4, UDP, and the
//! TPP section (Figure 7b field 6).

/// Ones'-complement sum of `data`, folded to 16 bits.
///
/// Taken eight bytes at a time in native byte order, with end-around carry,
/// and put into network order once at the end. The value equals the sum of
/// the big-endian 16-bit words of `data` (an odd last byte padded with a zero)
/// on every input: the ones'-complement sum is byte-order independent (RFC
/// 1071 section 2(B)), and because `2^16 = 1 (mod 0xFFFF)` the four lanes of
/// a word, and a carry out of the top one, all weigh the same. That is also
/// why the tail may enter as a 4-, a 2- and a 1-byte piece in whichever lanes
/// a widening puts them, as long as each piece is read in memory order. The
/// two encodings of zero come out as they always have: an end-around-carry
/// add never turns a non-zero accumulator into zero, so only all-zero data
/// sums to `0`, and any other multiple of `0xFFFF` to `0xFFFF`.
pub fn sum(data: &[u8]) -> u16 {
    #[inline]
    fn add(acc: u64, word: u64) -> u64 {
        let (sum, carry) = acc.overflowing_add(word);
        // A carry leaves `sum <= u64::MAX - 1`: the increment cannot wrap.
        sum + u64::from(carry)
    }
    let mut acc: u64 = 0;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        acc = add(acc, u64::from_ne_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes")));
    }
    let mut rest = words.remainder();
    if let Some((four, after)) = rest.split_first_chunk::<4>() {
        acc = add(acc, u64::from(u32::from_ne_bytes(*four)));
        rest = after;
    }
    if let Some((two, after)) = rest.split_first_chunk::<2>() {
        acc = add(acc, u64::from(u16::from_ne_bytes(*two)));
        rest = after;
    }
    if let [last] = rest {
        // Zero-padded in memory order: the odd byte keeps the lane half it
        // has on the wire.
        acc = add(acc, u64::from(u16::from_ne_bytes([*last, 0])));
    }
    let mut acc = (acc >> 32) + (acc & 0xFFFF_FFFF);
    while acc > 0xFFFF {
        acc = (acc >> 16) + (acc & 0xFFFF);
    }
    u16::from_be(acc as u16)
}

/// Compute the checksum field value for `data` (with its checksum field
/// zeroed): the ones' complement of the ones'-complement sum.
pub fn checksum(data: &[u8]) -> u16 {
    !sum(data)
}

/// Combine partial [`sum`]s (e.g. pseudo-header + payload).
pub fn combine(parts: &[u16]) -> u16 {
    let mut acc: u32 = 0;
    for p in parts {
        acc += u32::from(*p);
    }
    while acc > 0xFFFF {
        acc = (acc & 0xFFFF) + (acc >> 16);
    }
    acc as u16
}

/// Verify data whose checksum field is *included* in `data`: the sum must be
/// 0xFFFF.
pub fn verify(data: &[u8]) -> bool {
    sum(data) == 0xFFFF
}

/// RFC 1624 (eqn. 3) incremental update: the new checksum field value after
/// the 16-bit word `old` (at any even offset outside the checksum field)
/// is replaced by `new`.
///
/// Matches a full [`checksum`] recomputation byte-for-byte as long as the
/// covered data is not all-zero — true for every TPP section, whose first
/// byte always carries a non-zero version nibble. (Both the stored field
/// `!S` and the folded sum land in `1..=0xFFFF`, where each residue class
/// mod 0xFFFF has exactly one representative, so the incremental and the
/// recomputed value cannot disagree on the ones'-complement ±0 encoding.)
pub fn update(check: u16, old: u16, new: u16) -> u16 {
    let mut acc = u32::from(!check) + u32::from(!old) + u32::from(new);
    while acc > 0xFFFF {
        acc = (acc & 0xFFFF) + (acc >> 16);
    }
    !(acc as u16)
}

/// IPv4 pseudo-header sum for UDP/TCP checksums.
pub fn pseudo_header_sum(src: [u8; 4], dst: [u8; 4], protocol: u8, length: u16) -> u16 {
    combine(&[
        u16::from_be_bytes([src[0], src[1]]),
        u16::from_be_bytes([src[2], src[3]]),
        u16::from_be_bytes([dst[0], dst[1]]),
        u16::from_be_bytes([dst[2], dst[3]]),
        u16::from(protocol),
        length,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sum as first written, one big-endian 16-bit word at a time: the
    /// oracle for the word-wise [`sum`].
    fn sum_pairwise(data: &[u8]) -> u16 {
        let mut acc: u32 = 0;
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            acc += u32::from(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = chunks.remainder() {
            acc += u32::from(u16::from_be_bytes([*last, 0]));
        }
        while acc > 0xFFFF {
            acc = (acc & 0xFFFF) + (acc >> 16);
        }
        acc as u16
    }

    #[test]
    fn sum_equals_the_pairwise_loop_at_every_length_offset_and_fill() {
        // Every length that leaves 0..8 tail bytes, from every start offset
        // in a word (a header can sit anywhere in a frame), over the fills
        // that reach both encodings of zero, every carry, and single bytes.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let random: Vec<u8> = (0..608)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        let sparse: Vec<u8> =
            random.iter().enumerate().map(|(i, &b)| if i % 16 == 5 { b } else { 0 }).collect();
        let fills = [vec![0x00; 608], vec![0xFF; 608], random, sparse];
        for (f, fill) in fills.iter().enumerate() {
            for start in 0..8 {
                for len in 0..=600 {
                    let data = &fill[start..start + len];
                    assert_eq!(sum(data), sum_pairwise(data), "fill {f} start {start} len {len}");
                }
            }
        }
    }

    #[test]
    fn sum_keeps_both_encodings_of_zero() {
        // All-zero data is the only input that sums to 0; any other multiple
        // of 0xFFFF folds to 0xFFFF, carries out of the top lane included.
        assert_eq!(sum(&[0; 64]), 0);
        assert_eq!(sum(&[0xFF; 64]), 0xFFFF);
        assert_eq!(sum(&[0x00, 0x01, 0xFF, 0xFE]), 0xFFFF);
        let mut data = [0u8; 24];
        data[6..8].copy_from_slice(&[0xFF, 0xFF]);
        data[14..16].copy_from_slice(&[0x00, 0x01]);
        data[22..24].copy_from_slice(&[0xFF, 0xFE]);
        assert_eq!((sum(&data), sum_pairwise(&data)), (0xFFFF, 0xFFFF));
    }

    #[test]
    fn rfc1071_example() {
        // Classic example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2, checksum 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(sum(&data), 0xddf2);
        assert_eq!(checksum(&data), 0x220d);
    }

    #[test]
    fn odd_length() {
        let data = [0xab];
        assert_eq!(sum(&data), 0xab00);
    }

    #[test]
    fn verify_self() {
        let mut data = vec![0x12, 0x34, 0x56, 0x78, 0x00, 0x00, 0x9a];
        let c = checksum(&data);
        data[4..6].copy_from_slice(&c.to_be_bytes());
        assert!(verify(&data));
        data[0] ^= 0x01;
        assert!(!verify(&data));
    }

    #[test]
    fn combine_folds_carries() {
        assert_eq!(combine(&[0xFFFF, 0x0001]), 0x0001);
        assert_eq!(combine(&[0x8000, 0x8000]), 0x0001);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(sum(&[]), 0);
        assert_eq!(checksum(&[]), 0xFFFF);
    }

    #[test]
    fn incremental_update_matches_recompute() {
        // Exhaustive-ish sweep: mutate one 16-bit word of a non-zero buffer
        // and compare the RFC 1624 update against a full recomputation.
        let mut data = vec![0x10, 0x23, 0xab, 0xcd, 0x00, 0x00, 0x55, 0xaa, 0xff, 0xff];
        for off in [0usize, 2, 6, 8] {
            for new in [0x0000u16, 0x0001, 0x7fff, 0x8000, 0xfffe, 0xffff] {
                let old_check = checksum(&data);
                let old = u16::from_be_bytes([data[off], data[off + 1]]);
                data[off..off + 2].copy_from_slice(&new.to_be_bytes());
                let recomputed = checksum(&data);
                assert_eq!(
                    update(old_check, old, new),
                    recomputed,
                    "off {off} old {old:#06x} new {new:#06x}"
                );
            }
        }
    }

    #[test]
    fn incremental_update_noop_is_identity() {
        let data = [0x12, 0x34, 0x56, 0x78];
        let c = checksum(&data);
        assert_eq!(update(c, 0x5678, 0x5678), c);
    }
}
