//! What the MIXC fuzz suites share: a counting allocator, a raw frame
//! writer that will state any header it is told to, and
//! [`reference_decode`] — the version 2 framing written out plainly,
//! independent of the crate's parser.

#![allow(dead_code)] // each test binary uses its own subset

use mixnn_cascade::CascadeError;
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

/// Bytes the calling thread has requested from the allocator so far.
pub fn requested() -> usize {
    REQUESTED.with(Cell::get)
}

pub const MAGIC: u32 = 0x4d49_5843;
pub const VERSION: u8 = 2;
pub const HEADER_LEN: usize = 11;
pub const INNER: u8 = 0;
pub const ENTRY: u8 = 1;

pub fn frame(kind: u8, depth: u8, declared_blobs: u32, blobs: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.push(VERSION);
    out.push(kind);
    out.push(depth);
    out.extend_from_slice(&declared_blobs.to_be_bytes());
    for blob in blobs {
        out.extend_from_slice(&(blob.len() as u32).to_be_bytes());
        out.extend_from_slice(blob);
    }
    out
}

/// A message taken apart by [`reference_decode`].
#[derive(Debug, Clone)]
pub struct Frame {
    pub entry: bool,
    pub depth: u8,
    pub blobs: Vec<Vec<u8>>,
}

impl Frame {
    pub fn kind(&self) -> u8 {
        if self.entry {
            ENTRY
        } else {
            INNER
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        frame(
            self.kind(),
            self.depth,
            self.blobs.len() as u32,
            &self.blobs,
        )
    }
}

/// The MIXC version 2 decoder, written out plainly and independently of
/// the crate's parser: the definition of which framing error a message
/// earns.
pub fn reference_decode(mut bytes: &[u8]) -> Result<Frame, CascadeError> {
    fn take<'a>(bytes: &mut &'a [u8], n: usize) -> &'a [u8] {
        let (head, tail) = bytes.split_at(n);
        *bytes = tail;
        head
    }
    let be_u32 = |b: &[u8]| u32::from_be_bytes(b.try_into().unwrap());
    let fail = |reason: String| CascadeError::Onion { reason };
    if bytes.len() < HEADER_LEN {
        return Err(fail("header truncated".into()));
    }
    if be_u32(take(&mut bytes, 4)) != MAGIC {
        return Err(fail("bad magic".into()));
    }
    let version = take(&mut bytes, 1)[0];
    if version != VERSION {
        return Err(fail(format!("unsupported version {version}")));
    }
    let entry = match take(&mut bytes, 1)[0] {
        INNER => false,
        ENTRY => true,
        kind => return Err(fail(format!("unknown message kind {kind}"))),
    };
    let depth = take(&mut bytes, 1)[0];
    let count = be_u32(take(&mut bytes, 4)) as usize;
    if count == 0 {
        return Err(fail("zero layers".into()));
    }
    if entry && count != 1 {
        return Err(fail("entry message must carry exactly one envelope".into()));
    }
    if count > bytes.len() / 4 + 1 {
        return Err(fail("implausible layer count".into()));
    }
    let mut blobs = Vec::new();
    for _ in 0..count {
        if bytes.len() < 4 {
            return Err(fail("layer header truncated".into()));
        }
        let len = be_u32(take(&mut bytes, 4)) as usize;
        if bytes.len() < len {
            return Err(fail("layer blob truncated".into()));
        }
        blobs.push(take(&mut bytes, len).to_vec());
    }
    if !bytes.is_empty() {
        return Err(fail("trailing bytes after last layer".into()));
    }
    Ok(Frame {
        entry,
        depth,
        blobs,
    })
}
