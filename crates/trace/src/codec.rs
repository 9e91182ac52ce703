//! Byte-level primitives for the trace format: LEB128 varints, zigzag
//! signed mapping, and a bounds-checked reader.

use crate::TraceError;

/// Append `v` as an LEB128 varint (7 bits per byte, little-endian groups,
/// high bit = continuation).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Map a signed delta onto small unsigned values (0, -1, 1, -2, ...).
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A bounds-checked reader over an encoded byte slice.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], TraceError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(TraceError::Truncated(what))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn get_u8(&mut self, what: &'static str) -> Result<u8, TraceError> {
        Ok(self.take(1, what)?[0])
    }

    pub fn get_u32(&mut self, what: &'static str) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self, what: &'static str) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    pub fn get_varint(&mut self, what: &'static str) -> Result<u64, TraceError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.get_u8(what)?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(TraceError::Corrupt(format!("varint overflow in {what}")));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: u64) -> u64 {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        let mut c = Cursor::new(&buf);
        let got = c.get_varint("test").unwrap();
        assert!(c.is_empty());
        got
    }

    #[test]
    fn varint_edges() {
        for v in [0, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            assert_eq!(roundtrip(v), v);
        }
    }

    #[test]
    fn zigzag_edges() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn truncated_varint_is_error() {
        let mut c = Cursor::new(&[0x80]);
        assert!(matches!(c.get_varint("t"), Err(TraceError::Truncated("t"))));
    }
}
