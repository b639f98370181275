//! CRC-32 equivalence: the slice-by-8 checksum that ring frames and
//! mailbox deposits carry must equal the classic bytewise table CRC-32
//! (IEEE) on every input, at every alignment.

use catfish_rdma::crc32;
use proptest::prelude::*;

/// The bytewise reference: one table lookup per input byte. Kept here as
/// the oracle only; the library computes the slice-by-8 form.
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *slot = c;
    }
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[test]
fn known_vectors() {
    for (data, want) in [
        (&b""[..], 0),
        (b"a", 0xE8B7_BE43),
        (b"123456789", 0xCBF4_3926),
        (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
    ] {
        assert_eq!(crc32(data), want, "{:?}", String::from_utf8_lossy(data));
        assert_eq!(crc32_bytewise(data), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any length 0–10,000 at any start offset within an 8-byte block.
    #[test]
    fn slice_by_8_matches_bytewise(
        seed in any::<u64>(),
        len in 0usize..10_001,
        start in 0usize..8,
    ) {
        let mut x = seed | 1;
        let buf: Vec<u8> = (0..start + len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let data = &buf[start..];
        prop_assert_eq!(crc32(data), crc32_bytewise(data));
    }

    /// Short inputs cover every remainder length around the 8-byte fold.
    #[test]
    fn short_inputs_match_bytewise(
        data in prop::collection::vec(any::<u8>(), 0..40),
        start in 0usize..8,
    ) {
        let data = &data[start.min(data.len())..];
        prop_assert_eq!(crc32(data), crc32_bytewise(data));
    }
}
