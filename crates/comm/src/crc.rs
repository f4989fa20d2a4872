//! CRC32 (IEEE 802.3 reflected polynomial) — the one checksum of the
//! workspace: the wire codec stamps it on every frame trailer
//! (`selsync_net::crc32`) and the checkpoint format on every section
//! (`selsync_core::checkpoint::crc32`). Local implementation, no
//! external dependency; the table is built at compile time.

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC32 of `bytes` (IEEE, as used by zip/gzip/ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::crc32;

    /// The standard check value of CRC-32/ISO-HDLC, and the empty input.
    #[test]
    fn known_answers() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
