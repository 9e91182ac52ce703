//! Per-TU record streams: delta + varint + run-length encoding in
//! independently checksummed blocks.
//!
//! Each record costs one tag byte (kind, squash bit, small cycle delta)
//! plus a zigzag-varint address delta — tracked *per kind*, so
//! instruction-fetch strides never pollute data-address deltas — plus,
//! for loads only, a zigzag-varint PC delta.  Instruction fetches, which
//! dominate the stream, usually cost the tag byte alone: two spare tag
//! kind values encode "the fetch block continues the previous fetch
//! stride" (straight-line code) and "the fetch returns to the block
//! before the previous one" (the two-block loop / call-return
//! oscillation), both predicted from history the decoder mirrors.  A
//! run-length opcode covers the dominant regular patterns on top: when
//! consecutive records produce identical delta tuples, only a repeat
//! count is stored.  Blocks hold up to [`BLOCK_RECORDS`] records,
//! reset all delta contexts (so each block decodes independently) and
//! carry an FNV-1a checksum of their encoded bytes; the stream itself
//! carries a content checksum folded over the decoded records.

use crate::codec::{fnv1a, put_varint, unzigzag, zigzag, Cursor, FNV_OFFSET};
use crate::record::{TraceKind, TraceRecord, KIND_CONTEXTS};
use crate::TraceError;

/// Records per block before delta contexts reset.
pub const BLOCK_RECORDS: usize = 8192;

/// Tag-byte kind field value marking a run-length opcode.
const RUN_KIND: u8 = 5;

/// Tag-only instruction fetch: the block *before* the previous one (loop
/// oscillation between two fetch blocks).
const IF_ALT_KIND: u8 = 6;

/// Tag-only instruction fetch: previous block plus the previous fetch
/// stride (straight-line code).
const IF_STRIDE_KIND: u8 = 7;

/// Delta contexts, reset at each block boundary.
#[derive(Default)]
struct Ctx {
    prev_cycle: u64,
    prev_addr: [u64; KIND_CONTEXTS],
    prev_pc: u32,
    /// Fetch-address history for the tag-only ifetch opcodes: the fetch
    /// block before the previous one, and the previous fetch stride.
    prev_fetch2: u64,
    prev_fetch_delta: i64,
}

/// How one record's address is encoded.
#[derive(Clone, Copy, PartialEq, Eq)]
enum AddrEnc {
    /// Literal zigzag-varint delta against the per-kind previous address.
    Delta(i64),
    /// Tag-only fetch: the block before the previous one ([`IF_ALT_KIND`]).
    FetchAlt,
    /// Tag-only fetch: previous block + previous stride
    /// ([`IF_STRIDE_KIND`]).
    FetchStride,
}

/// The per-record delta tuple; identical consecutive tuples collapse into
/// a run (repeated [`AddrEnc::FetchStride`] walks a constant stride,
/// repeated [`AddrEnc::FetchAlt`] keeps oscillating — both replay
/// correctly because the decoder updates the same history per step).
#[derive(Clone, Copy, PartialEq, Eq)]
struct Deltas {
    kind: TraceKind,
    squashed: bool,
    cdelta: u64,
    addr: AddrEnc,
    pdelta: Option<i64>,
}

/// One encoded block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Records decodable from `bytes`.
    pub records: u32,
    /// FNV-1a of `bytes`.
    pub checksum: u64,
    pub bytes: Vec<u8>,
}

/// One TU's fully encoded stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EncodedStream {
    /// Total records across all blocks.
    pub records: u64,
    /// Content checksum: [`TraceRecord::fold_checksum`] over every record
    /// in order, seeded with the FNV offset basis.
    pub checksum: u64,
    pub blocks: Vec<Block>,
}

impl EncodedStream {
    pub fn encoded_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| b.bytes.len() as u64).sum()
    }
}

/// Streaming encoder for one TU.
pub struct StreamEncoder {
    blocks: Vec<Block>,
    buf: Vec<u8>,
    block_records: u32,
    block_cap: usize,
    ctx: Ctx,
    last: Option<Deltas>,
    run: u64,
    records: u64,
    checksum: u64,
}

impl Default for StreamEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamEncoder {
    pub fn new() -> Self {
        Self::with_block_records(BLOCK_RECORDS)
    }

    /// An encoder that seals blocks after `block_cap` records instead of
    /// [`BLOCK_RECORDS`].  Production captures always use [`Self::new`];
    /// this exists so partition/parallel-decode tests can exercise many
    /// small blocks without generating millions of records.
    pub fn with_block_records(block_cap: usize) -> Self {
        assert!(block_cap > 0, "blocks must hold at least one record");
        StreamEncoder {
            blocks: Vec::new(),
            buf: Vec::new(),
            block_records: 0,
            block_cap,
            ctx: Ctx::default(),
            last: None,
            run: 0,
            records: 0,
            checksum: FNV_OFFSET,
        }
    }

    pub fn records(&self) -> u64 {
        self.records
    }

    /// Append one record.  Cycles must be non-decreasing within a stream
    /// (they are: each TU is ticked once per machine cycle).  The PC is
    /// canonicalized to what the decoder reconstructs — fetch address for
    /// instruction fetches, 0 for stores — since neither kind encodes it.
    pub fn push(&mut self, rec: &TraceRecord) {
        debug_assert!(rec.cycle >= self.ctx.prev_cycle, "stream cycles regressed");
        let rec = &TraceRecord {
            pc: match rec.kind {
                TraceKind::InstFetch => rec.addr as u32,
                TraceKind::CorrectStore => 0,
                _ => rec.pc,
            },
            ..*rec
        };
        let idx = rec.kind as usize;
        let adelta = rec.addr.wrapping_sub(self.ctx.prev_addr[idx]) as i64;
        let addr = if rec.kind == TraceKind::InstFetch {
            let stride_pred =
                self.ctx.prev_addr[idx].wrapping_add(self.ctx.prev_fetch_delta as u64);
            if rec.addr == stride_pred {
                AddrEnc::FetchStride
            } else if rec.addr == self.ctx.prev_fetch2 {
                AddrEnc::FetchAlt
            } else {
                AddrEnc::Delta(adelta)
            }
        } else {
            AddrEnc::Delta(adelta)
        };
        let d = Deltas {
            kind: rec.kind,
            squashed: rec.squashed,
            cdelta: rec.cycle - self.ctx.prev_cycle,
            addr,
            pdelta: rec
                .kind
                .carries_pc()
                .then(|| rec.pc as i64 - self.ctx.prev_pc as i64),
        };
        if self.last == Some(d) {
            self.run += 1;
        } else {
            self.flush_run();
            self.emit(&d);
            self.last = Some(d);
        }
        self.ctx.prev_cycle = rec.cycle;
        if rec.kind == TraceKind::InstFetch {
            self.ctx.prev_fetch2 = self.ctx.prev_addr[idx];
            self.ctx.prev_fetch_delta = adelta;
        }
        self.ctx.prev_addr[idx] = rec.addr;
        if rec.kind.carries_pc() {
            self.ctx.prev_pc = rec.pc;
        }
        self.checksum = rec.fold_checksum(self.checksum);
        self.records += 1;
        self.block_records += 1;
        if self.block_records as usize >= self.block_cap {
            self.end_block();
        }
    }

    fn emit(&mut self, d: &Deltas) {
        let kbits = match d.addr {
            AddrEnc::Delta(_) => d.kind as u8,
            AddrEnc::FetchAlt => IF_ALT_KIND,
            AddrEnc::FetchStride => IF_STRIDE_KIND,
        };
        let nib = if d.cdelta < 15 { d.cdelta as u8 } else { 15 };
        self.buf
            .push(kbits | ((d.squashed as u8) << 3) | (nib << 4));
        if nib == 15 {
            put_varint(&mut self.buf, d.cdelta - 15);
        }
        if let AddrEnc::Delta(a) = d.addr {
            put_varint(&mut self.buf, zigzag(a));
        }
        if let Some(p) = d.pdelta {
            put_varint(&mut self.buf, zigzag(p));
        }
    }

    fn flush_run(&mut self) {
        if self.run == 0 {
            return;
        }
        let n = self.run;
        self.run = 0;
        let nib = if n < 15 { n as u8 } else { 15 };
        self.buf.push(RUN_KIND | (nib << 4));
        if nib == 15 {
            put_varint(&mut self.buf, n - 15);
        }
    }

    fn end_block(&mut self) {
        self.flush_run();
        if self.block_records == 0 {
            return;
        }
        let bytes = std::mem::take(&mut self.buf);
        self.blocks.push(Block {
            records: self.block_records,
            checksum: fnv1a(&bytes),
            bytes,
        });
        self.block_records = 0;
        self.ctx = Ctx::default();
        self.last = None;
    }

    pub fn finish(mut self) -> EncodedStream {
        self.end_block();
        EncodedStream {
            records: self.records,
            checksum: self.checksum,
            blocks: self.blocks,
        }
    }
}

/// Decoder for one block's bytes.  Blocks are self-contained by
/// construction — every delta context resets at a block boundary — so a
/// `BlockDecoder` needs nothing but the block and the stream's TU number,
/// which is what makes blocks independently (and in parallel) decodable.
pub struct BlockDecoder<'a> {
    cur: Cursor<'a>,
    left: u32,
    tu: u32,
    ctx: Ctx,
    last: Option<Deltas>,
    run_left: u64,
}

impl<'a> BlockDecoder<'a> {
    /// Verify the block's byte checksum and position a decoder at its
    /// first record.
    pub fn new(block: &'a Block, tu: u32) -> Result<Self, TraceError> {
        if fnv1a(&block.bytes) != block.checksum {
            return Err(TraceError::Corrupt("block byte checksum mismatch".into()));
        }
        // The encoder never seals more; a larger count is hostile (a few
        // bytes of run opcodes could otherwise expand to 2^32 records).
        if block.records as usize > BLOCK_RECORDS {
            return Err(TraceError::Corrupt(format!(
                "block claims {} records, more than {BLOCK_RECORDS}",
                block.records
            )));
        }
        Ok(BlockDecoder {
            cur: Cursor::new(&block.bytes),
            left: block.records,
            tu,
            ctx: Ctx::default(),
            last: None,
            run_left: 0,
        })
    }

    fn apply(&mut self, d: Deltas) -> TraceRecord {
        let idx = d.kind as usize;
        let cycle = self.ctx.prev_cycle + d.cdelta;
        let addr = match d.addr {
            AddrEnc::Delta(a) => self.ctx.prev_addr[idx].wrapping_add(a as u64),
            AddrEnc::FetchAlt => self.ctx.prev_fetch2,
            AddrEnc::FetchStride => {
                self.ctx.prev_addr[idx].wrapping_add(self.ctx.prev_fetch_delta as u64)
            }
        };
        let pc = match d.pdelta {
            Some(p) => (self.ctx.prev_pc as i64 + p) as u32,
            None if d.kind == TraceKind::InstFetch => addr as u32,
            None => 0,
        };
        self.ctx.prev_cycle = cycle;
        if d.kind == TraceKind::InstFetch {
            self.ctx.prev_fetch_delta = addr.wrapping_sub(self.ctx.prev_addr[idx]) as i64;
            self.ctx.prev_fetch2 = self.ctx.prev_addr[idx];
        }
        self.ctx.prev_addr[idx] = addr;
        if d.kind.carries_pc() {
            self.ctx.prev_pc = pc;
        }
        self.left -= 1;
        TraceRecord {
            cycle,
            tu: self.tu,
            pc,
            addr,
            kind: d.kind,
            squashed: d.squashed,
        }
    }

    /// The next record of this block, or `Ok(None)` once exactly
    /// `block.records` have been decoded and the bytes are exhausted.
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        loop {
            if self.run_left > 0 {
                if self.left == 0 {
                    return Err(TraceError::Corrupt("run crosses a block boundary".into()));
                }
                self.run_left -= 1;
                let d = self
                    .last
                    .ok_or_else(|| TraceError::Corrupt("run without a preceding record".into()))?;
                return Ok(Some(self.apply(d)));
            }
            if self.cur.is_empty() {
                if self.left != 0 {
                    return Err(TraceError::Truncated("block ended mid-record"));
                }
                return Ok(None);
            }
            if self.left == 0 {
                return Err(TraceError::Corrupt("trailing bytes in block".into()));
            }
            let tag = self.cur.get_u8("record tag")?;
            let kbits = tag & 0x07;
            let nib = tag >> 4;
            if kbits == RUN_KIND {
                let n = if nib == 15 {
                    15 + self.cur.get_varint("run length")?
                } else {
                    nib as u64
                };
                if n == 0 {
                    return Err(TraceError::Corrupt("zero-length run".into()));
                }
                if self.last.is_none() {
                    return Err(TraceError::Corrupt("run without a preceding record".into()));
                }
                self.run_left = n;
                continue;
            }
            let cdelta = if nib == 15 {
                15 + self.cur.get_varint("cycle delta")?
            } else {
                nib as u64
            };
            let (kind, addr) = match kbits {
                IF_ALT_KIND => (TraceKind::InstFetch, AddrEnc::FetchAlt),
                IF_STRIDE_KIND => (TraceKind::InstFetch, AddrEnc::FetchStride),
                _ => {
                    let kind = TraceKind::from_u8(kbits)?;
                    (
                        kind,
                        AddrEnc::Delta(unzigzag(self.cur.get_varint("addr delta")?)),
                    )
                }
            };
            let pdelta = if kind.carries_pc() {
                Some(unzigzag(self.cur.get_varint("pc delta")?))
            } else {
                None
            };
            let d = Deltas {
                kind,
                squashed: tag & 0x08 != 0,
                cdelta,
                addr,
                pdelta,
            };
            self.last = Some(d);
            return Ok(Some(self.apply(d)));
        }
    }
}

/// Decode one block into `out` (appending), verifying its byte checksum
/// and record count.  This is the unit of work the [`crate::slab`]
/// decoder pool fans out.
pub fn decode_block_into(
    block: &Block,
    tu: u32,
    out: &mut Vec<TraceRecord>,
) -> Result<(), TraceError> {
    let mut d = BlockDecoder::new(block, tu)?;
    out.reserve(block.records as usize);
    while let Some(rec) = d.next_record()? {
        out.push(rec);
    }
    Ok(())
}

/// Streaming decoder for one TU; yields records in stream order and
/// verifies block and content checksums as it goes.  Wraps a
/// [`BlockDecoder`] per block and adds the stream-level accounting
/// (record count, content checksum).
pub struct StreamDecoder<'a> {
    stream: &'a EncodedStream,
    tu: u32,
    block_idx: usize,
    cur: Option<BlockDecoder<'a>>,
    emitted: u64,
    checksum: u64,
    finished: bool,
    failed: bool,
}

impl<'a> StreamDecoder<'a> {
    pub fn new(stream: &'a EncodedStream, tu: u32) -> Self {
        StreamDecoder {
            stream,
            tu,
            block_idx: 0,
            cur: None,
            emitted: 0,
            checksum: FNV_OFFSET,
            finished: false,
            failed: false,
        }
    }

    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        loop {
            if let Some(cur) = self.cur.as_mut() {
                match cur.next_record()? {
                    Some(rec) => {
                        self.checksum = rec.fold_checksum(self.checksum);
                        self.emitted += 1;
                        return Ok(Some(rec));
                    }
                    None => self.cur = None,
                }
                continue;
            }
            let Some(block) = self.stream.blocks.get(self.block_idx) else {
                if self.finished {
                    return Ok(None);
                }
                self.finished = true;
                if self.emitted != self.stream.records {
                    return Err(TraceError::Corrupt(format!(
                        "stream decoded {} records, header says {}",
                        self.emitted, self.stream.records
                    )));
                }
                if self.checksum != self.stream.checksum {
                    return Err(TraceError::Corrupt(
                        "stream content checksum mismatch".into(),
                    ));
                }
                return Ok(None);
            };
            self.cur = Some(BlockDecoder::new(block, self.tu).map_err(|e| match e {
                TraceError::Corrupt(msg) => {
                    TraceError::Corrupt(format!("block {}: {msg}", self.block_idx))
                }
                other => other,
            })?);
            self.block_idx += 1;
        }
    }
}

impl Iterator for StreamDecoder<'_> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.next_record() {
            Ok(Some(rec)) => Some(Ok(rec)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cycle: u64, kind: TraceKind, addr: u64, pc: u32) -> TraceRecord {
        TraceRecord {
            cycle,
            tu: 0,
            // Canonical PC convention: the encoder drops the PC for
            // fetches (implied by the address) and stores (always 0).
            pc: match kind {
                TraceKind::InstFetch => addr as u32,
                TraceKind::CorrectStore => 0,
                _ => pc,
            },
            addr,
            kind,
            squashed: kind.access_kind().is_wrong(),
        }
    }

    fn roundtrip(records: &[TraceRecord]) -> EncodedStream {
        let mut enc = StreamEncoder::new();
        for r in records {
            enc.push(r);
        }
        let stream = enc.finish();
        let got: Vec<TraceRecord> = StreamDecoder::new(&stream, 0)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(got, records);
        stream
    }

    #[test]
    fn empty_stream() {
        let stream = roundtrip(&[]);
        assert_eq!(stream.records, 0);
        assert!(stream.blocks.is_empty());
    }

    #[test]
    fn mixed_kinds_round_trip() {
        let records = vec![
            rec(0, TraceKind::InstFetch, 0x40_0000, 0),
            rec(1, TraceKind::CorrectLoad, 0x1000, 0x40_0008),
            rec(1, TraceKind::CorrectStore, 0x2000, 0),
            rec(3, TraceKind::WrongPathLoad, 0x1040, 0x40_0010),
            rec(3, TraceKind::WrongThreadLoad, 0xffff_ffff_ffff_fff8, 0x10),
            rec(900, TraceKind::InstFetch, 0x40_0040, 0),
        ];
        roundtrip(&records);
    }

    #[test]
    fn runs_compress_fixed_strides() {
        // 10k identical-delta loads: one literal record + run opcodes.
        let records: Vec<TraceRecord> = (0..10_000u64)
            .map(|i| rec(i * 2, TraceKind::CorrectLoad, 0x8000 + i * 64, 0x40))
            .collect();
        let stream = roundtrip(&records);
        assert!(
            stream.encoded_bytes() < records.len() as u64 / 4,
            "run-length failed: {} bytes for {} records",
            stream.encoded_bytes(),
            records.len()
        );
    }

    #[test]
    fn blocks_split_and_reset() {
        let records: Vec<TraceRecord> = (0..(BLOCK_RECORDS as u64 * 2 + 17))
            .map(|i| rec(i, TraceKind::InstFetch, 0x40_0000 + (i % 977) * 64, 0))
            .collect();
        let stream = roundtrip(&records);
        assert_eq!(stream.blocks.len(), 3);
        assert_eq!(stream.blocks[0].records as usize, BLOCK_RECORDS);
    }

    #[test]
    fn corrupted_block_detected() {
        let records: Vec<TraceRecord> = (0..100u64)
            .map(|i| rec(i, TraceKind::CorrectLoad, i * 8, 0x40))
            .collect();
        let mut enc = StreamEncoder::new();
        for r in &records {
            enc.push(r);
        }
        let mut stream = enc.finish();
        let n = stream.blocks[0].bytes.len();
        stream.blocks[0].bytes[n / 2] ^= 0xff;
        let res: Result<Vec<TraceRecord>, TraceError> = StreamDecoder::new(&stream, 0).collect();
        assert!(matches!(res, Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn tampered_count_detected() {
        let mut enc = StreamEncoder::new();
        enc.push(&rec(0, TraceKind::CorrectLoad, 0x10, 0x40));
        let mut stream = enc.finish();
        stream.records = 2;
        let res: Result<Vec<TraceRecord>, TraceError> = StreamDecoder::new(&stream, 0).collect();
        assert!(matches!(res, Err(TraceError::Corrupt(_))));
    }
}
