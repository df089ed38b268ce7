//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
//! guarding every WAL record frame. Slicing-by-8: eight 256-entry tables
//! built at compile time fold eight input bytes per step; the tail (< 8
//! bytes) goes through table 0 one byte at a time. No external crates
//! (the build environment is offline) and no `unsafe`.

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    // t[k][i] is the CRC contribution of byte i followed by k zero bytes.
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !0u32;
    let mut blocks = bytes.chunks_exact(8);
    for b in &mut blocks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-lookup-per-byte loop, kept as the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"datacell"), crc32(b"datacell"));
        assert_ne!(crc32(b"datacell"), crc32(b"datacelk"));
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = b"the quick brown fox jumps over the lazy dog".to_vec();
        let want = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), want, "flip at byte {i} bit {bit}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn slicing_by_8_matches_bytewise(
            data in proptest::collection::vec(0u32..256, 0..4104),
            start in 0usize..8,
            len in 0usize..4096,
        ) {
            let bytes: Vec<u8> = data.iter().map(|&b| b as u8).collect();
            let lo = start.min(bytes.len());
            let hi = (lo + len).min(bytes.len());
            let slice = &bytes[lo..hi];
            prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }
    }
}
