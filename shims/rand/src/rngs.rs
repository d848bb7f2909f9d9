//! Generator implementations.

use crate::{RngCore, SeedableRng};

/// Deterministic pseudo-random generator (xoshiro256++).
///
/// Drop-in for `rand::rngs::StdRng` in seeded-simulation use: the stream is
/// fixed for a given seed forever, but it is *not* the same stream as
/// upstream's ChaCha12-based `StdRng`.
#[derive(Clone, PartialEq, Eq)]
pub struct StdRng {
    state: [u64; 4],
}

/// Prints `StdRng { .. }`, as upstream's does: the state predicts every
/// later draw.
impl core::fmt::Debug for StdRng {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StdRng").finish_non_exhaustive()
    }
}

#[cfg(test)]
impl StdRng {
    /// The generator's state, which `Debug` must not print.
    pub(crate) fn state_words(&self) -> [u64; 4] {
        self.state
    }
}

impl RngCore for StdRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let value = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&value[..chunk.len()]);
        }
    }
}

impl SeedableRng for StdRng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut state = [0u64; 4];
        for (word, chunk) in state.iter_mut().zip(seed.chunks_exact(8)) {
            *word = u64::from_le_bytes(chunk.try_into().unwrap());
        }
        if state == [0; 4] {
            // xoshiro must not start at the all-zero state.
            let mut sm = 0x1234_5678_9abc_def0;
            for word in &mut state {
                *word = crate::splitmix64(&mut sm);
            }
        }
        StdRng { state }
    }
}
