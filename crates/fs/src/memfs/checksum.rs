//! The on-disk metadata checksum: XXH64 (seed 0), streamed.
//!
//! Four independent multiply-rotate lanes consume 32-byte stripes as
//! little-endian words, so a 4 KiB block costs four parallel dependency
//! chains of 32 multiplies rather than one chain of 4096. The lanes are
//! merged and avalanched in [`Checksum::finish`]. The sum depends only
//! on the concatenated bytes, never on how they were split across
//! [`Checksum::update`] calls — which is what lets the journal's commit
//! path and its recovery scan stream `seq ‖ n ‖ targets ‖ data` from
//! different buffers and still agree.
//!
//! One checksum serves every checksummed structure: the journal's
//! header copies and commit records, and the warm-restart index's
//! header copies and payload.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

const STRIPE: usize = 32;

fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn merge(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

fn word(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8-byte word"))
}

/// A streaming checksum: feed bytes with [`Checksum::update`], read the
/// sum with [`Checksum::finish`].
pub(crate) struct Checksum {
    lanes: [u64; 4],
    /// Bytes of a partial stripe carried between `update` calls.
    pending: [u8; STRIPE],
    pending_len: usize,
    total: u64,
}

impl Checksum {
    pub(crate) fn new() -> Checksum {
        Checksum {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            pending: [0; STRIPE],
            pending_len: 0,
            total: 0,
        }
    }

    fn stripe(&mut self, s: &[u8]) {
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            *lane = round(*lane, word(&s[i * 8..]));
        }
    }

    /// Appends `data` to the checksummed stream.
    pub(crate) fn update(&mut self, mut data: &[u8]) {
        self.total += data.len() as u64;
        if self.pending_len > 0 {
            let take = (STRIPE - self.pending_len).min(data.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&data[..take]);
            self.pending_len += take;
            data = &data[take..];
            if self.pending_len < STRIPE {
                return;
            }
            let full = self.pending;
            self.stripe(&full);
            self.pending_len = 0;
        }
        let mut stripes = data.chunks_exact(STRIPE);
        for s in &mut stripes {
            self.stripe(s);
        }
        let rest = stripes.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// The sum of every byte fed so far.
    pub(crate) fn finish(&self) -> u64 {
        let [v1, v2, v3, v4] = self.lanes;
        let mut h = if self.total >= STRIPE as u64 {
            let h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            merge(merge(merge(merge(h, v1), v2), v3), v4)
        } else {
            P5
        };
        h = h.wrapping_add(self.total);
        let mut tail = &self.pending[..self.pending_len];
        while tail.len() >= 8 {
            h = (h ^ round(0, word(tail)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let w = u32::from_le_bytes(tail[..4].try_into().expect("4-byte word")) as u64;
            h = (h ^ w.wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            tail = &tail[4..];
        }
        for &b in tail {
            h = (h ^ (b as u64).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// The checksum of one contiguous byte string.
pub(crate) fn checksum(data: &[u8]) -> u64 {
    let mut c = Checksum::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic 4 KiB block with every byte value present.
    fn block(salt: u8) -> Vec<u8> {
        (0..4096u32)
            .map(|i| (i.wrapping_mul(131) as u8) ^ salt)
            .collect()
    }

    #[test]
    fn known_answers_pin_the_format() {
        // Published XXH64 (seed 0) values: this is the on-disk format,
        // so a change here makes every existing journal unreadable.
        assert_eq!(checksum(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(checksum(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            checksum(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
        // A whole block, shaped like a journal commit's stream.
        let mut c = Checksum::new();
        c.update(&7u64.to_le_bytes());
        c.update(&1u32.to_le_bytes());
        c.update(&42u64.to_le_bytes());
        c.update(&block(0));
        assert_eq!(c.finish(), 0xE86E_5E87_755B_0756);
    }

    #[test]
    fn any_split_gives_the_same_sum() {
        let data: Vec<u8> = [block(1), block(2)].concat()[..8191].to_vec();
        let whole = checksum(&data);
        for first in [0, 1, 7, 8, 12, 31, 32, 33, 63, 64, 100, 4095, 4096, 8191] {
            for second in [0, 1, 5, 31, 32, 40, 4096] {
                let (a, rest) = data.split_at(first);
                let (b, c) = rest.split_at(second.min(rest.len()));
                let mut s = Checksum::new();
                s.update(a);
                s.update(b);
                s.update(c);
                assert_eq!(s.finish(), whole, "split at {first}+{second}");
            }
        }
        // Byte at a time, the worst split of all.
        let mut s = Checksum::new();
        for b in &data[..300] {
            s.update(std::slice::from_ref(b));
        }
        assert_eq!(s.finish(), checksum(&data[..300]));
    }

    #[test]
    fn every_single_bit_flip_in_a_block_is_detected() {
        let mut data = block(3);
        let good = checksum(&data);
        for bit in 0..data.len() * 8 {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&data), good, "bit {bit} flip undetected");
            data[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn a_torn_block_is_detected() {
        let (old, new) = (block(4), block(5));
        let mut torn = old.clone();
        torn[..2048].copy_from_slice(&new[..2048]);
        let sums = [checksum(&old), checksum(&new), checksum(&torn)];
        assert_ne!(sums[2], sums[0]);
        assert_ne!(sums[2], sums[1]);
        // Torn against a never-written (zeroed) sector, too.
        let mut half = vec![0u8; 4096];
        half[..2048].copy_from_slice(&new[..2048]);
        assert_ne!(checksum(&half), sums[1]);
    }

    #[test]
    fn inputs_differing_only_in_length_differ() {
        let zeros = [0u8; 300];
        let mut seen = std::collections::HashSet::new();
        for len in 0..=zeros.len() {
            assert!(
                seen.insert(checksum(&zeros[..len])),
                "length {len} collides"
            );
        }
        assert_ne!(checksum(&[1, 2, 3]), checksum(&[1, 2, 3, 0]));
    }
}
