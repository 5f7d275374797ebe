//! The seed-replayable frame mutator the mutation loops share (the shim's
//! `Shim::incoming`, the switch's `receive` → `dequeue` → `tick`). Each
//! loop includes this file with `#[path]`; cargo builds no test target from
//! a file below `tests/`.
//!
//! A case applies one to three mutations drawn from its own generator: bit
//! flips, truncation, padding, and lying fields (the section's instruction
//! count, memory length, hop, stack pointer and per-hop length, the IPv4
//! total length and header length, the UDP length). Half the cases then
//! refresh the section checksum over what the header now claims, so the
//! lies get past the checksum to the code that reads them.

use tpp_core::wire::checksum;

/// `SplitMix64`: one independent stream per `(seed, case)`.
pub struct Rng(u64);

impl Rng {
    pub fn for_case(seed: u64, case: u64) -> Self {
        Rng(seed ^ case.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The seed in the environment variable `var` (decimal), else `default`.
pub fn seed(var: &str, default: u64) -> u64 {
    std::env::var(var).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// A frame to mutate, with the offsets its lying fields sit at.
pub struct Base {
    pub name: &'static str,
    pub frame: Vec<u8>,
    pub section: usize,
    pub ip: usize,
    pub udp: usize,
}

/// Overwrite the byte at `at`, if the frame still reaches it.
fn put(frame: &mut [u8], at: usize, value: u8) {
    if let Some(b) = frame.get_mut(at) {
        *b = value;
    }
}

/// Recompute the section checksum over the bytes the header claims (or as
/// many of them as the frame still holds).
fn refresh_checksum(frame: &mut [u8], section: usize) {
    let Some(header) = frame.get(section..section + 12) else {
        return;
    };
    let claimed = 12 + 4 * header[1] as usize + header[2] as usize;
    let end = frame.len().min(section + claimed);
    frame[section + 6..section + 8].fill(0);
    let c = checksum::checksum(&frame[section..end]);
    frame[section + 6..section + 8].copy_from_slice(&c.to_be_bytes());
}

pub fn mutate(base: &Base, rng: &mut Rng) -> Vec<u8> {
    let mut frame = base.frame.clone();
    for _ in 0..1 + rng.below(3) {
        let r = rng.next();
        match rng.below(8) {
            0 => {
                for _ in 0..1 + rng.below(4) {
                    let bit = rng.below(8 * frame.len());
                    if let Some(b) = frame.get_mut(bit / 8) {
                        *b ^= 1 << (bit % 8);
                    }
                }
            }
            1 => frame.truncate(rng.below(frame.len() + 1)),
            2 => frame.extend((0..rng.below(64)).map(|i| (r >> (i % 8 * 8)) as u8)),
            // The section's instruction count or memory length.
            3 => put(&mut frame, base.section + 1 + rng.below(2), r as u8),
            // The section's hop, stack pointer or per-hop length.
            4 => put(&mut frame, base.section + 3 + rng.below(3), r as u8),
            // The IPv4 total length, or the header length nibble.
            5 => {
                put(&mut frame, base.ip + 2, (r >> 8) as u8);
                put(&mut frame, base.ip + 3, r as u8);
            }
            6 => put(&mut frame, base.ip, 0x40 | (r as u8 & 0x0F)),
            // The UDP length.
            _ => {
                put(&mut frame, base.udp + 4, (r >> 8) as u8);
                put(&mut frame, base.udp + 5, r as u8);
            }
        }
    }
    if rng.below(2) == 0 {
        refresh_checksum(&mut frame, base.section);
    }
    frame
}
