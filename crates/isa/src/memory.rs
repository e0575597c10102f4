//! Sparse byte-addressed data memory, shared by the reference
//! [`Interpreter`](crate::Interpreter) and the cycle-level machine.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::Program;

/// Bytes per storage chunk.
const CHUNK_BYTES: u64 = 64;

/// One 64-byte-aligned block of memory plus a mask of the bytes that were
/// ever written (bit `i` covers byte `i`), so a zero-valued write still
/// counts as written.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    bytes: [u8; CHUNK_BYTES as usize],
    written: u64,
}

impl Chunk {
    const EMPTY: Chunk = Chunk {
        bytes: [0; CHUNK_BYTES as usize],
        written: 0,
    };
}

/// A multiplicative hasher for chunk numbers: one multiply, with the
/// well-mixed high bits rotated down so table indices and tag bits both
/// see them. The keys are simulated addresses, so a crafted address
/// pattern could at worst slow a simulation down, never change its
/// result.
#[derive(Debug, Default, Clone, Copy)]
struct ChunkHasher(u64);

impl Hasher for ChunkHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Sparse byte-addressed memory. Unwritten bytes read as zero.
///
/// Storage is a map from 64-byte chunk to its bytes and written-byte mask,
/// so an aligned word access is one lookup and a clone copies one entry
/// per touched chunk. Addresses wrap at the top of the address space: a
/// word at `u64::MAX - 3` continues at address 0.
///
/// # Example
///
/// ```
/// use si_isa::Memory;
///
/// let mut m = Memory::new();
/// m.write_u64(0x100, 0xfeed);
/// assert_eq!(m.read_u64(0x100), 0xfeed);
/// assert_eq!(m.read_u64(0x9999), 0);
/// assert_eq!(m.footprint(), 8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    chunks: HashMap<u64, Chunk, BuildHasherDefault<ChunkHasher>>,
}

/// Splits an address into its chunk number and offset within the chunk.
fn split(addr: u64) -> (u64, usize) {
    (addr / CHUNK_BYTES, (addr % CHUNK_BYTES) as usize)
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Loads a program's initial data segment.
    pub fn load_program_data(&mut self, program: &Program) {
        for (a, b) in program.data() {
            self.write_u8(a, b);
        }
    }

    /// Reads one byte (0 if never written).
    pub fn read_u8(&self, addr: u64) -> u8 {
        let (chunk, off) = split(addr);
        self.chunks.get(&chunk).map_or(0, |c| c.bytes[off])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let (chunk, off) = split(addr);
        let c = self.chunks.entry(chunk).or_insert(Chunk::EMPTY);
        c.bytes[off] = value;
        c.written |= 1 << off;
    }

    /// Reads a little-endian 64-bit word.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let (chunk, off) = split(addr);
        if off + 8 <= CHUNK_BYTES as usize {
            return self.chunks.get(&chunk).map_or(0, |c| {
                u64::from_le_bytes(c.bytes[off..off + 8].try_into().expect("8 bytes"))
            });
        }
        let mut b = [0u8; 8];
        for (i, byte) in b.iter_mut().enumerate() {
            *byte = self.read_u8(addr.wrapping_add(i as u64));
        }
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian 64-bit word.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let (chunk, off) = split(addr);
        if off + 8 <= CHUNK_BYTES as usize {
            let c = self.chunks.entry(chunk).or_insert(Chunk::EMPTY);
            c.bytes[off..off + 8].copy_from_slice(&value.to_le_bytes());
            c.written |= 0xff << off;
            return;
        }
        for (i, byte) in value.to_le_bytes().into_iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), byte);
        }
    }

    /// Number of distinct bytes ever written (zero-valued writes count).
    pub fn footprint(&self) -> usize {
        self.chunks
            .values()
            .map(|c| c.written.count_ones() as usize)
            .sum()
    }

    /// Every byte ever written, as `(address, byte)` pairs sorted by
    /// address (zero-valued writes included).
    pub fn snapshot(&self) -> Vec<(u64, u8)> {
        let mut chunks: Vec<(&u64, &Chunk)> = self.chunks.iter().collect();
        chunks.sort_unstable_by_key(|&(n, _)| *n);
        let mut bytes = Vec::with_capacity(self.footprint());
        for (n, c) in chunks {
            let base = n * CHUNK_BYTES;
            bytes.extend(
                (0..CHUNK_BYTES)
                    .filter(|&i| c.written & (1 << i) != 0)
                    .map(|i| (base + i, c.bytes[i as usize])),
            );
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Assembler;

    #[test]
    fn words_roundtrip() {
        let mut m = Memory::new();
        m.write_u64(64, u64::MAX);
        assert_eq!(m.read_u64(64), u64::MAX);
        m.write_u64(64, 1);
        assert_eq!(m.read_u64(64), 1);
    }

    #[test]
    fn unwritten_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0), 0);
        assert_eq!(m.read_u8(12345), 0);
    }

    #[test]
    fn unaligned_words_overlap_correctly() {
        let mut m = Memory::new();
        m.write_u64(0, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u8(0), 0x88);
        assert_eq!(m.read_u8(7), 0x11);
        assert_eq!(m.read_u64(1) & 0xff, 0x77);
    }

    #[test]
    fn words_straddling_a_chunk_boundary_roundtrip() {
        let mut m = Memory::new();
        m.write_u64(60, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(60), 0x1122_3344_5566_7788);
        assert_eq!(m.read_u8(63), 0x55, "last byte of the first chunk");
        assert_eq!(m.read_u8(64), 0x44, "first byte of the second chunk");
        assert_eq!(m.read_u64(64), 0x1122_3344);
        assert_eq!(m.footprint(), 8);
    }

    #[test]
    fn words_wrap_at_the_top_of_the_address_space() {
        let mut m = Memory::new();
        let top = 4u64.wrapping_neg();
        m.write_u64(top, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(top), 0x1122_3344_5566_7788);
        assert_eq!(m.read_u8(u64::MAX), 0x55);
        assert_eq!(m.read_u8(0), 0x44, "the word continues at address 0");
    }

    #[test]
    fn footprint_and_snapshot_count_each_written_byte_once() {
        let mut m = Memory::new();
        m.write_u64(0x100, 0); // zero-valued writes count
        m.write_u64(0x104, 0xffff_ffff_ffff_ffff); // overlaps 4 bytes
        m.write_u8(0x100, 0);
        m.write_u64(0x13c, 7); // straddles into the next chunk
        assert_eq!(m.footprint(), 12 + 8);
        let snap = m.snapshot();
        assert_eq!(snap.len(), m.footprint());
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "sorted, unique");
        assert_eq!(snap[0], (0x100, 0));
        assert_eq!(snap[4], (0x104, 0xff));
        assert_eq!(snap[12], (0x13c, 7));
        assert_eq!(snap[19], (0x143, 0));
    }

    #[test]
    fn program_data_loads() {
        let mut asm = Assembler::new(0);
        asm.halt();
        asm.data_u64(0x2000, 42);
        let p = asm.assemble().unwrap();
        let mut m = Memory::new();
        m.load_program_data(&p);
        assert_eq!(m.read_u64(0x2000), 42);
        assert_eq!(m.footprint(), 8);
    }
}
