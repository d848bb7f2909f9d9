//! Message buffers that outlive the round they carried.
//!
//! Every stage of the update path writes whole messages — a participant's
//! sealed update, a cascade hop's outgoing onion — and a message of the
//! next round has the same length as this round's. Writing it into memory
//! the process already holds costs one pass over the bytes; writing it
//! into memory fresh from the kernel costs that pass plus a page fault per
//! 4 KiB, several times the pass on a large update. So a stage that is
//! done with a message keeps its buffer for the next message it writes,
//! under one rule ([`SpentBuffers::reuse`]) that stops a buffer from
//! outliving the size it was made for.

use std::fmt;

/// One generation of message buffers whose contents are dead, kept
/// between rounds by whatever drives the rounds. The proxy transport keeps
/// last round's envelopes, which its participants seal into. The cascade
/// coordinator keeps two generations: last round's server-bound messages,
/// which the first hops write into, and the messages the last hops
/// received, which the clients seal their onions into. Holds only bytes
/// already delivered; `Debug` prints how many buffers and how much
/// capacity, never the bytes.
#[derive(Default)]
pub struct SpentBuffers(Vec<Vec<u8>>);

impl SpentBuffers {
    /// Takes the whole kept generation, leaving nothing behind.
    pub fn take(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.0)
    }

    /// Keeps `generation` for the next round, dropping whatever an earlier
    /// generation left unused — so at most one round's buffers are held.
    pub fn keep(&mut self, generation: Vec<Vec<u8>>) {
        self.0 = generation;
    }

    /// A cleared buffer for a message of `len` bytes: `spent` itself when
    /// its capacity is at least `len` and at most twice it, otherwise a
    /// fresh allocation of exactly `len`. Growing a short buffer would
    /// copy its dead bytes, and reusing a long one would pin memory a
    /// smaller round (or a more compressed codec) no longer needs.
    pub fn reuse(mut spent: Vec<u8>, len: usize) -> Vec<u8> {
        if (len..=len.saturating_mul(2)).contains(&spent.capacity()) {
            spent.clear();
            spent
        } else {
            Vec::with_capacity(len)
        }
    }
}

impl fmt::Debug for SpentBuffers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpentBuffers")
            .field("buffers", &self.0.len())
            .field("capacity", &self.0.iter().map(Vec::capacity).sum::<usize>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_takes_a_buffer_between_the_length_and_twice_it() {
        for capacity in [100, 150, 200] {
            let spent = vec![0xeeu8; capacity];
            let at = spent.as_ptr();
            let out = SpentBuffers::reuse(spent, 100);
            assert_eq!(out.as_ptr(), at, "capacity {capacity}");
            assert!(out.is_empty());
        }
        for capacity in [0, 99, 201, 10_000] {
            let spent = Vec::with_capacity(capacity);
            let at = spent.as_ptr();
            let out = SpentBuffers::reuse(spent, 100);
            assert_ne!(out.as_ptr(), at, "capacity {capacity}");
            assert_eq!(out.capacity(), 100, "an exact allocation");
        }
    }

    #[test]
    fn debug_counts_buffers_instead_of_printing_them() {
        let mut kept = SpentBuffers::default();
        kept.keep(vec![vec![7u8; 1 << 20], Vec::with_capacity(10)]);
        let printed = format!("{kept:?}");
        assert_eq!(printed, "SpentBuffers { buffers: 2, capacity: 1048586 }");
        assert_eq!(kept.take().len(), 2);
        assert!(kept.take().is_empty());
    }
}
