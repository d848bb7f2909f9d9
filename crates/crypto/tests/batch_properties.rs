//! Property tests pinning the batched kernels to their scalar
//! definitions through the public API:
//!
//! * [`SealedBox::open_batch`] must agree with per-envelope
//!   [`SealedBox::open`] element-wise — including when tampered,
//!   truncated and low-order envelopes are interleaved with good ones
//!   mid-batch;
//! * two-phase sealing ([`SealedBox::prepare`] + [`PreparedSeal::seal`])
//!   must produce the bytes, and leave the RNG where, a loop of
//!   [`SealedBox::seal`] does, at every batch size;
//! * the multi-block ChaCha20 kernel must produce the same keystream as
//!   block-at-a-time application at every length around the 64 B block
//!   and 256 B quad-batch boundaries.

use mixnn_crypto::chacha20::{ChaCha20, KEY_LEN, NONCE_LEN};
use mixnn_crypto::sealed_box::OVERHEAD;
use mixnn_crypto::{KeyPair, PreparedSeal, PublicKey, SealedBox};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    /// Batched opening is element-wise identical to scalar opening, for
    /// any mix of intact, tampered, truncated and low-order envelopes at
    /// any positions in the batch.
    #[test]
    fn open_batch_matches_per_envelope_open(
        seed in 0u64..1000,
        count in 1usize..9,
        corruption in proptest::collection::vec(0u8..4, 9),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let recipient = KeyPair::generate(&mut rng);
        let sealed: Vec<Vec<u8>> = (0..count)
            .map(|i| {
                let len = (seed as usize + i * 37) % 200;
                let msg: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                let mut blob = SealedBox::seal(&msg, recipient.public(), &mut rng).unwrap();
                match corruption[i] {
                    1 => {
                        // Tamper with one ciphertext/tag byte.
                        let idx = (seed as usize + i) % blob.len();
                        blob[idx] ^= 0x80;
                    }
                    2 => blob.truncate((seed as usize + i) % OVERHEAD), // undersized
                    3 => blob[..32].fill(0), // low-order ephemeral key
                    _ => {}
                }
                blob
            })
            .collect();

        let batched = SealedBox::open_batch(&sealed, &recipient);
        prop_assert_eq!(batched.len(), sealed.len());
        for (i, (got, blob)) in batched.iter().zip(&sealed).enumerate() {
            let scalar = SealedBox::open(blob, &recipient);
            prop_assert_eq!(got, &scalar, "envelope {} (corruption {})", i, corruption[i]);
            // Sanity: the intended corruption actually produced a failure.
            if corruption[i] != 0 {
                prop_assert!(got.is_err(), "envelope {} should have failed", i);
            }
        }
    }

    /// One whole-buffer `apply_keystream` call (which engages the
    /// four-block kernel at >= 256 B) equals block-at-a-time application
    /// of the same cipher state, at every length around the block and
    /// quad boundaries.
    #[test]
    fn chacha20_whole_buffer_matches_blockwise(
        seed in 0u64..1000,
        len in 0usize..1200,
        counter in 0u32..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc4ac);
        let mut key = [0u8; KEY_LEN];
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill(&mut key);
        rng.fill(&mut nonce);
        // Exercise the exact boundary lengths on every run as well as the
        // drawn one.
        for len in [len, 63, 64, 65, 128, 255, 256, 257, 512] {
            let plain: Vec<u8> = (0..len).map(|_| rng.gen()).collect();

            let mut whole = plain.clone();
            ChaCha20::new(&key, &nonce, counter).apply_keystream(&mut whole);

            let mut blockwise = plain.clone();
            let mut cipher = ChaCha20::new(&key, &nonce, counter);
            for chunk in blockwise.chunks_mut(64) {
                // 64 B per call stays on the scalar single-block path.
                cipher.apply_keystream(chunk);
            }
            prop_assert_eq!(&whole, &blockwise, "len {}", len);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Preparing a sender's envelopes as one batch and sealing them is
    /// bit-identical to sealing them one by one — 1..=17 envelopes, so
    /// 2..=34 ladders: every scalar/padded/full lane split — and draws
    /// the same bytes from the RNG.
    #[test]
    fn prepared_batch_matches_a_loop_of_seal(
        seed in 0u64..1000,
        count in 1usize..18,
        len in 0usize..600,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hops: Vec<KeyPair> = (0..3).map(|_| KeyPair::generate(&mut rng)).collect();
        let recipients: Vec<&PublicKey> = (0..count).map(|i| hops[i % 3].public()).collect();
        let msgs: Vec<Vec<u8>> = (0..count)
            .map(|i| (0..(len + 31 * i) % 600).map(|_| rng.gen()).collect())
            .collect();
        let (mut batched, mut looped) = (rng.clone(), rng);
        let prepared = SealedBox::prepare(recipients.iter().copied(), &mut batched).unwrap();
        prop_assert_eq!(prepared.len(), count);
        for ((p, msg), recipient) in prepared.into_iter().zip(&msgs).zip(&recipients) {
            let sealed = PreparedSeal::seal(p, msg);
            prop_assert_eq!(&sealed, &SealedBox::seal(msg, recipient, &mut looped).unwrap());
        }
        prop_assert_eq!(batched.gen::<u64>(), looped.gen::<u64>());
    }
}
