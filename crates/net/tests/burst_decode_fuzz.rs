//! Structure-aware fuzzing of the MIXB burst decoder.
//!
//! [`parse_burst`] is the first code that touches bytes arriving from a
//! peer, so it faces whatever the wire carries. This suite writes valid
//! bursts with [`FrameWriter`] and mutates them where the structure is —
//! truncation at every offset, every bit of every header byte (the burst
//! header and each frame's), the frame count and each length set to 0, 1,
//! `u32::MAX` and just past the end, trailing bytes — plus the nine-byte
//! burst that declares 2³² − 1 frames (PR 10's 30-byte message declaring
//! a 16 GiB frame is the template). On every input `parse_burst` must
//! return exactly what [`reference_decode`] — the format written out
//! plainly, independent of the crate — returns: the written frames on an
//! untouched burst, the same typed [`FrameError`] otherwise, never a
//! panic; and what it requests from the allocator is bounded by the
//! input's length, however many frames the header declares.

use mixnn_net::{parse_burst, FrameError, FrameWriter, BURST_HEADER_BYTES, BURST_MAGIC};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has requested from the allocator so far.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting requested bytes per thread so
/// concurrently running tests do not see each other.
struct Counting;

fn count(bytes: usize) {
    // A thread being torn down may allocate after its locals are gone.
    let _ = REQUESTED.try_with(|requested| requested.set(requested.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the heap
// (a const-initialised `Cell` without a destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn requested() -> usize {
    REQUESTED.with(Cell::get)
}

type Frames = Vec<(u32, Vec<u8>)>;

/// The MIXB version 1 decoder, written out plainly: the definition of
/// which error a burst earns.
fn reference_decode(mut bytes: &[u8]) -> Result<Frames, FrameError> {
    fn take<'a>(bytes: &mut &'a [u8], n: usize) -> &'a [u8] {
        let (head, tail) = bytes.split_at(n);
        *bytes = tail;
        head
    }
    let be_u32 = |b: &[u8]| u32::from_be_bytes(b.try_into().unwrap());
    let fail = |reason: String| FrameError { reason };
    if bytes.len() < BURST_HEADER_BYTES {
        return Err(fail("header truncated".into()));
    }
    if be_u32(take(&mut bytes, 4)) != BURST_MAGIC {
        return Err(fail("bad magic".into()));
    }
    let version = take(&mut bytes, 1)[0];
    if version != 1 {
        return Err(fail(format!("unsupported version {version}")));
    }
    let count = be_u32(take(&mut bytes, 4)) as usize;
    if count > bytes.len() / 8 + 1 {
        return Err(fail("implausible frame count".into()));
    }
    let mut frames = Vec::new();
    for _ in 0..count {
        if bytes.len() < 8 {
            return Err(fail("frame header truncated".into()));
        }
        let seq = be_u32(take(&mut bytes, 4));
        let len = be_u32(take(&mut bytes, 4)) as usize;
        if bytes.len() < len {
            return Err(fail("frame payload truncated".into()));
        }
        frames.push((seq, take(&mut bytes, len).to_vec()));
    }
    if !bytes.is_empty() {
        return Err(fail("trailing bytes after last frame".into()));
    }
    Ok(frames)
}

/// A valid burst of `frames`, as a sender flushes it.
fn write(frames: &Frames) -> Vec<u8> {
    let mut writer = FrameWriter::new();
    for (seq, payload) in frames {
        writer.push(*seq, payload);
    }
    writer.flush()
}

/// Where each frame's header (`seq`, then `len`) starts in `write(frames)`.
fn frame_headers(frames: &Frames) -> Vec<usize> {
    let mut at = BURST_HEADER_BYTES;
    frames
        .iter()
        .map(|(_, payload)| {
            let header = at;
            at += 8 + payload.len();
            header
        })
        .collect()
}

/// Decodes `bytes` and checks it against the reference: same frames or
/// same error, and an allocation bounded by the input — at most the
/// payload bytes it carries plus one frame slot per eight bytes, not a
/// slot per declared frame.
fn check(bytes: &[u8], what: &str) -> Result<Frames, FrameError> {
    let before = requested();
    let parsed = parse_burst(bytes);
    let allocated = requested() - before;
    let slot = std::mem::size_of::<(u32, Vec<u8>)>();
    let bound = bytes.len() + (bytes.len() / 8 + 1) * slot + 64;
    assert!(
        allocated <= bound,
        "{what}: {allocated} B allocated for a {} B burst",
        bytes.len()
    );
    assert_eq!(parsed, reference_decode(bytes), "{what}");
    parsed
}

/// Every structure-aware mutation of `write(frames)`, each checked.
fn mutate_and_check(frames: &Frames) {
    let burst = write(frames);
    assert_eq!(check(&burst, "untouched").as_ref(), Ok(frames));

    for cut in 0..burst.len() {
        let parsed = check(&burst[..cut], "truncated");
        assert!(parsed.is_err(), "truncation at {cut} accepted");
    }

    let headers = frame_headers(frames);
    let header_bytes = (0..BURST_HEADER_BYTES).chain(headers.iter().flat_map(|&h| h..h + 8));
    for at in header_bytes {
        for bit in 0..8 {
            let mut flipped = burst.clone();
            flipped[at] ^= 1 << bit;
            let _ = check(&flipped, &format!("bit {bit} of header byte {at}"));
        }
    }

    // The count and every length at the edges: 0, 1, u32::MAX, and just
    // past the end of the burst.
    let set = |at: usize, value: u32| {
        let mut bytes = burst.clone();
        bytes[at..at + 4].copy_from_slice(&value.to_be_bytes());
        bytes
    };
    let count_past = (frames.len() + 1) as u32;
    for value in [0, 1, u32::MAX, count_past] {
        let _ = check(&set(5, value), &format!("count {value}"));
    }
    for &header in &headers {
        let len_at = header + 4;
        let past_end = (burst.len() - (len_at + 4) + 1) as u32;
        for value in [0, 1, u32::MAX, past_end] {
            let parsed = check(&set(len_at, value), &format!("length {value} at {len_at}"));
            if value == past_end {
                assert!(parsed.is_err(), "a frame past the end was accepted");
            }
        }
    }

    for trailing in [&[0u8][..], &[0xff; 8], &burst[..BURST_HEADER_BYTES]] {
        let mut bytes = burst.clone();
        bytes.extend_from_slice(trailing);
        let parsed = check(&bytes, "trailing bytes");
        assert!(parsed.is_err(), "trailing bytes accepted");
    }
}

#[test]
fn every_mutation_of_written_bursts_is_the_reference_result() {
    let shapes: [Frames; 4] = [
        vec![],
        vec![(0, vec![])],
        vec![
            (7, b"alpha".to_vec()),
            (3, vec![]),
            (u32::MAX, vec![0xa5; 17]),
        ],
        (0..9).map(|i| (i, vec![i as u8; i as usize * 3])).collect(),
    ];
    for frames in &shapes {
        mutate_and_check(frames);
    }
}

#[test]
fn a_nine_byte_burst_declaring_every_frame_allocates_nothing_for_them() {
    let mut bytes = BURST_MAGIC.to_be_bytes().to_vec();
    bytes.push(1);
    bytes.extend_from_slice(&u32::MAX.to_be_bytes());
    assert_eq!(bytes.len(), BURST_HEADER_BYTES);
    let err = check(&bytes, "2³² − 1 frames").unwrap_err();
    assert!(err.reason.contains("implausible"), "{err}");
    // One frame fits the plausibility bound with no byte behind it: the
    // header is then what is truncated.
    bytes[5..].copy_from_slice(&1u32.to_be_bytes());
    let err = check(&bytes, "one frame, no bytes").unwrap_err();
    assert!(err.reason.contains("frame header truncated"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random bursts — up to twelve frames, payloads up to 40 bytes, any
    /// sequence numbers — under every mutation.
    #[test]
    fn every_mutation_of_random_bursts_is_the_reference_result(
        seqs in proptest::collection::vec(proptest::num::u32::ANY, 0..12),
        lens in proptest::collection::vec(0usize..40, 12),
        fill in proptest::num::u8::ANY,
    ) {
        let frames: Frames = seqs
            .iter()
            .zip(&lens)
            .map(|(&seq, &len)| (seq, vec![fill ^ len as u8; len]))
            .collect();
        mutate_and_check(&frames);
    }
}
