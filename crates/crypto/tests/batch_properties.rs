//! Property tests pinning the batched kernels to their scalar
//! definitions through the public API:
//!
//! * [`SealedBox::open_batch`] must agree with per-envelope
//!   [`SealedBox::open`] element-wise — including when tampered,
//!   truncated and low-order envelopes are interleaved with good ones
//!   mid-batch;
//! * in-place opening ([`SealedBox::open_in_place`], and
//!   [`SealedBox::prepare_open`] + [`PreparedOpen::open_in_place`]
//!   mid-batch) must return what [`SealedBox::open`] returns on valid
//!   envelopes, on a flip at every byte, on every truncation and on
//!   low-order ephemeral points, and must leave a buffer it fails on
//!   byte-identical;
//! * two-phase sealing ([`SealedBox::prepare`] + [`PreparedSeal::seal`])
//!   must produce the bytes, and leave the RNG where, a loop of
//!   [`SealedBox::seal`] does, at every batch size;
//! * the multi-block ChaCha20 kernel must produce the same keystream as
//!   block-at-a-time application at every length around the 64 B block
//!   and 512 B eight-block-pass boundaries.

use mixnn_crypto::chacha20::{ChaCha20, KEY_LEN, NONCE_LEN};
use mixnn_crypto::sealed_box::OVERHEAD;
use mixnn_crypto::{CryptoError, KeyPair, PreparedOpen, PreparedSeal, PublicKey, SealedBox};
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
    /// eight-block kernel at >= 512 B where the host has it) equals
    /// block-at-a-time application of the same cipher state, at every
    /// length around the block and pass boundaries.
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
        for len in [len, 63, 64, 65, 128, 511, 512, 513, 1024] {
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

/// Opens `envelope` in place, alone and as the middle member of a
/// prepared batch of three, and checks both against [`SealedBox::open`]:
/// same error and an untouched buffer, or the same plaintext behind an
/// untouched header. Returns whether the envelope opened.
fn in_place_matches_open(envelope: &[u8], neighbours: &[Vec<u8>; 2], recipient: &KeyPair) -> bool {
    let expected = SealedBox::open(envelope, recipient);
    let check = |buffer: &[u8], outcome: Result<(), CryptoError>| match (&expected, outcome) {
        (Ok(plaintext), Ok(())) => {
            assert_eq!(&buffer[OVERHEAD..], &plaintext[..]);
            assert_eq!(&buffer[..OVERHEAD], &envelope[..OVERHEAD]);
        }
        (Err(expected), Err(actual)) => {
            assert_eq!(expected, &actual);
            assert_eq!(buffer, envelope, "a failed open touched the buffer");
        }
        (expected, actual) => panic!("open {expected:?}, in place {actual:?}"),
    };

    let mut alone = envelope.to_vec();
    let outcome = SealedBox::open_in_place(&mut alone, recipient);
    check(&alone, outcome);

    let mut batch = [
        neighbours[0].clone(),
        envelope.to_vec(),
        neighbours[1].clone(),
    ];
    let prepared = SealedBox::prepare_open(&batch, recipient);
    assert_eq!(prepared.len(), 3);
    for (position, (prepared, buffer)) in prepared.into_iter().zip(&mut batch).enumerate() {
        let outcome = prepared.and_then(|p| PreparedOpen::open_in_place(p, buffer));
        if position == 1 {
            check(buffer, outcome);
        } else {
            // The neighbours are intact whatever sits between them.
            assert_eq!(outcome, Ok(()));
        }
    }
    expected.is_ok()
}

proptest! {
    // Every case opens its envelope some 2·(len + 64) times, three ways
    // each: a handful of short lengths keeps the debug-profile run in
    // seconds, and the 1,100-byte neighbour takes the widest keystream
    // kernel through the valid path on every one of them.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// In-place opening is [`SealedBox::open`] without the copy, for every
    /// way an envelope can be wrong.
    #[test]
    fn open_in_place_matches_open_and_leaves_failures_untouched(
        seed in 0u64..1000,
        len in 0usize..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1a9e);
        let recipient = KeyPair::generate(&mut rng);
        let mut seal = |len: usize| {
            let msg: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            SealedBox::seal(&msg, recipient.public(), &mut rng).unwrap()
        };
        let neighbours = [seal(40), seal(1100)];
        let sealed = seal(len);

        prop_assert!(in_place_matches_open(&sealed, &neighbours, &recipient));
        // A flip at every byte: ephemeral key, tag and ciphertext.
        for at in 0..sealed.len() {
            let mut flipped = sealed.clone();
            flipped[at] ^= 1 << (at % 8);
            prop_assert!(!in_place_matches_open(&flipped, &neighbours, &recipient), "flip at {}", at);
        }
        // Every truncation, below and above the header.
        for cut in 0..sealed.len() {
            prop_assert!(!in_place_matches_open(&sealed[..cut], &neighbours, &recipient), "cut at {}", cut);
        }
        // Low-order ephemeral points: u = 0 and u = 1.
        for low_order in [0u8, 1] {
            let mut forged = sealed.clone();
            forged[..32].fill(0);
            forged[0] = low_order;
            prop_assert_eq!(
                SealedBox::open(&forged, &recipient),
                Err(CryptoError::LowOrderPoint)
            );
            prop_assert!(!in_place_matches_open(&forged, &neighbours, &recipient));
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
