//! Loaded programs and the simulated machine's memory image.
//!
//! [`MemImage`] is the flat, paged physical memory: it holds the committed
//! architectural state.  Caches in the timing model carry tags and metadata
//! only; values are always read from (and committed to) the image, which is
//! what keeps the key invariant — *timing configuration never changes
//! semantics* — trivially checkable via [`MemImage::checksum`].

use std::collections::{BTreeMap, HashMap};

use crate::encode::{decode, encode};
use crate::inst::Inst;
use wec_common::error::{SimError, SimResult};
use wec_common::ids::Addr;

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: u64 = 1 << PAGE_BITS;

/// Paged, sparse physical memory.  Pages must be mapped (via [`alloc`]) before
/// correct-path code may touch them; wrong-execution probes use the `try_*`
/// accessors, which simply report unmapped instead of erroring.
///
/// [`alloc`]: MemImage::alloc
#[derive(Clone, Debug, Default)]
pub struct MemImage {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
}

impl MemImage {
    pub fn new() -> Self {
        Self::default()
    }

    /// Map (and zero) every page overlapping `[base, base+len)`.
    pub fn alloc(&mut self, base: Addr, len: u64) {
        if len == 0 {
            return;
        }
        let first = base.0 >> PAGE_BITS;
        let last = (base.0 + len - 1) >> PAGE_BITS;
        for p in first..=last {
            self.pages
                .entry(p)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]));
        }
    }

    /// Is the `bytes`-wide access at `addr` fully inside mapped memory?
    pub fn is_mapped(&self, addr: Addr, bytes: u64) -> bool {
        if bytes == 0 {
            return true;
        }
        let first = addr.0 >> PAGE_BITS;
        let last = (addr.0 + bytes - 1) >> PAGE_BITS;
        (first..=last).all(|p| self.pages.contains_key(&p))
    }

    /// Number of mapped pages (each 4 KiB).
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }

    fn page(&self, addr: Addr) -> Option<&[u8; PAGE_SIZE as usize]> {
        self.pages.get(&(addr.0 >> PAGE_BITS)).map(|b| &**b)
    }

    fn page_mut(&mut self, addr: Addr) -> Option<&mut [u8; PAGE_SIZE as usize]> {
        self.pages.get_mut(&(addr.0 >> PAGE_BITS)).map(|b| &mut **b)
    }

    /// Read `bytes` (1..=8) little-endian, zero-extended. Errors on unmapped.
    pub fn read(&self, addr: Addr, bytes: u64) -> SimResult<u64> {
        self.try_read(addr, bytes)
            .ok_or(SimError::UnmappedAccess { addr, what: "load" })
    }

    /// Read that reports unmapped as `None` (wrong-execution probes).
    pub fn try_read(&self, addr: Addr, bytes: u64) -> Option<u64> {
        debug_assert!((1..=8).contains(&bytes));
        let mut v: u64 = 0;
        // The fast path: access within one page.
        let off = (addr.0 & (PAGE_SIZE - 1)) as usize;
        if off as u64 + bytes <= PAGE_SIZE {
            let page = self.page(addr)?;
            for i in 0..bytes as usize {
                v |= (page[off + i] as u64) << (8 * i);
            }
            return Some(v);
        }
        // Page-straddling access (rare).
        for i in 0..bytes {
            let a = addr + i;
            let page = self.page(a)?;
            v |= (page[(a.0 & (PAGE_SIZE - 1)) as usize] as u64) << (8 * i);
        }
        Some(v)
    }

    /// Write `bytes` (1..=8) little-endian. Errors on unmapped.
    pub fn write(&mut self, addr: Addr, bytes: u64, value: u64) -> SimResult<()> {
        debug_assert!((1..=8).contains(&bytes));
        if !self.is_mapped(addr, bytes) {
            return Err(SimError::UnmappedAccess {
                addr,
                what: "store",
            });
        }
        let off = (addr.0 & (PAGE_SIZE - 1)) as usize;
        if off as u64 + bytes <= PAGE_SIZE {
            let page = self.page_mut(addr).unwrap();
            for i in 0..bytes as usize {
                page[off + i] = (value >> (8 * i)) as u8;
            }
            return Ok(());
        }
        for i in 0..bytes {
            let a = addr + i;
            let page = self.page_mut(a).unwrap();
            page[(a.0 & (PAGE_SIZE - 1)) as usize] = (value >> (8 * i)) as u8;
        }
        Ok(())
    }

    /// Read a 64-bit doubleword.
    pub fn read_u64(&self, addr: Addr) -> SimResult<u64> {
        self.read(addr, 8)
    }

    /// Write a 64-bit doubleword.
    pub fn write_u64(&mut self, addr: Addr, value: u64) -> SimResult<()> {
        self.write(addr, 8, value)
    }

    /// Read an `f64` (bit pattern of the doubleword at `addr`).
    pub fn read_f64(&self, addr: Addr) -> SimResult<f64> {
        Ok(f64::from_bits(self.read_u64(addr)?))
    }

    /// Write an `f64`.
    pub fn write_f64(&mut self, addr: Addr, value: f64) -> SimResult<()> {
        self.write_u64(addr, value.to_bits())
    }

    /// Checksum over all mapped pages in address order.  Two images with
    /// identical mapped contents (including mapping) have equal sums.
    ///
    /// FNV-1a in shape, but its multiplier `0x1000_0000_01b3` is not the
    /// FNV prime (`0x100_0000_01b3`), so it is not
    /// [`wec_common::hash::fnv1a`].  The sum is the `checksum` counter of
    /// every result-store entry and golden, so the multiplier stays.
    pub fn checksum(&self) -> u64 {
        let mut keys: Vec<u64> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        let mut h = wec_common::hash::FNV_OFFSET;
        let mut eat = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for k in keys {
            for b in k.to_le_bytes() {
                eat(b);
            }
            for &b in self.pages[&k].iter() {
                eat(b);
            }
        }
        h
    }
}

/// A loaded WISA-64 program: decoded text, entry point, initial memory image
/// and label metadata for diagnostics.
#[derive(Clone, Debug)]
pub struct Program {
    /// Decoded instruction stream; the PC is an index into this.
    pub text: Vec<Inst>,
    /// Entry instruction index.
    pub entry: u32,
    /// Initial data image (the loader clones this for each run).
    pub data: MemImage,
    /// Label name → instruction index (diagnostics, tests).
    pub labels: BTreeMap<String, u32>,
    /// Human-readable name (workload analogs set this).
    pub name: String,
}

impl Program {
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            text: Vec::new(),
            entry: 0,
            data: MemImage::new(),
            labels: BTreeMap::new(),
            name: name.into(),
        }
    }

    /// Fetch the instruction at `pc`, or an error if outside the text.
    #[inline]
    pub fn fetch(&self, pc: u32) -> SimResult<Inst> {
        self.text
            .get(pc as usize)
            .copied()
            .ok_or(SimError::PcOutOfRange { pc: pc as u64 })
    }

    /// Label lookup.
    pub fn label(&self, name: &str) -> Option<u32> {
        self.labels.get(name).copied()
    }

    /// Encode the text segment to binary words (the "superthreaded binary"
    /// of the paper's Figure 7).
    pub fn encode_text(&self) -> Vec<u64> {
        self.text.iter().map(encode).collect()
    }

    /// Rebuild a program's text from binary words (labels are lost).
    pub fn decode_text(name: &str, words: &[u64]) -> SimResult<Program> {
        let mut p = Program::new(name);
        p.text = words.iter().map(|&w| decode(w)).collect::<SimResult<_>>()?;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Inst};
    use crate::reg::Reg;

    #[test]
    fn alloc_then_read_write() {
        let mut m = MemImage::new();
        m.alloc(Addr(0x1000), 0x100);
        assert!(m.is_mapped(Addr(0x1000), 8));
        assert!(!m.is_mapped(Addr(0xfff), 8)); // straddles into unmapped page
        m.write_u64(Addr(0x1008), 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.read_u64(Addr(0x1008)).unwrap(), 0xdead_beef_cafe_f00d);
        // Byte-granular little-endian view.
        assert_eq!(m.read(Addr(0x1008), 1).unwrap(), 0x0d);
        assert_eq!(m.read(Addr(0x100f), 1).unwrap(), 0xde);
    }

    #[test]
    fn unmapped_access_errors_but_try_read_is_none() {
        let m = MemImage::new();
        assert!(matches!(
            m.read_u64(Addr(0x4000)),
            Err(SimError::UnmappedAccess { .. })
        ));
        assert_eq!(m.try_read(Addr(0x4000), 8), None);
        let mut m = MemImage::new();
        assert!(m.write_u64(Addr(0x4000), 1).is_err());
    }

    #[test]
    fn page_straddling_reads_and_writes() {
        let mut m = MemImage::new();
        m.alloc(Addr(0), 2 * PAGE_SIZE);
        let a = Addr(PAGE_SIZE - 4);
        m.write_u64(a, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.read_u64(a).unwrap(), 0x1122_3344_5566_7788);
        // Straddle where the second page is unmapped.
        let mut m2 = MemImage::new();
        m2.alloc(Addr(0), PAGE_SIZE);
        assert!(m2.write_u64(a, 1).is_err());
        assert_eq!(m2.try_read(a, 8), None);
    }

    #[test]
    fn f64_roundtrip() {
        let mut m = MemImage::new();
        m.alloc(Addr(0), 64);
        m.write_f64(Addr(16), -3.75).unwrap();
        assert_eq!(m.read_f64(Addr(16)).unwrap(), -3.75);
    }

    #[test]
    fn checksum_detects_changes_and_matches_for_clones() {
        let mut m = MemImage::new();
        m.alloc(Addr(0x2000), 0x1000);
        m.write_u64(Addr(0x2000), 7).unwrap();
        let m2 = m.clone();
        assert_eq!(m.checksum(), m2.checksum());
        let before = m.checksum();
        m.write_u64(Addr(0x2008), 1).unwrap();
        assert_ne!(before, m.checksum());
    }

    #[test]
    fn checksum_depends_on_mapping() {
        let mut a = MemImage::new();
        a.alloc(Addr(0), PAGE_SIZE);
        let mut b = MemImage::new();
        b.alloc(Addr(0), PAGE_SIZE);
        b.alloc(Addr(0x10_0000), PAGE_SIZE);
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn program_fetch_and_binary_roundtrip() {
        let mut p = Program::new("t");
        p.text.push(Inst::AluImm {
            op: AluOp::Add,
            rd: Reg(1),
            rs1: Reg(0),
            imm: 5,
        });
        p.text.push(Inst::Halt);
        p.labels.insert("start".into(), 0);
        assert_eq!(p.fetch(1).unwrap(), Inst::Halt);
        assert!(p.fetch(2).is_err());
        assert_eq!(p.label("start"), Some(0));
        let words = p.encode_text();
        let q = Program::decode_text("t2", &words).unwrap();
        assert_eq!(q.text, p.text);
    }
}
