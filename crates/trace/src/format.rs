//! The on-disk trace container: a versioned, checksummed header plus one
//! encoded stream per thread unit.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic            8B  "WECTRACE"
//! format_version   u32
//! sim_revision     u32  wec_core::SIM_REVISION of the capturing build
//! n_tus            u32
//! scale_units      u32  workload scale (Scale::units)
//! total_records    u64
//! bench            u16 length + UTF-8   workload identity ("181.mcf")
//! cfg_label        u16 length + UTF-8   captured configuration label
//! per TU stream:
//!   records        u64
//!   checksum       u64  content checksum over decoded records
//!   n_blocks       u32
//!   per block:
//!     records      u32
//!     n_bytes      u32
//!     checksum     u64  FNV-1a over the encoded bytes
//!     bytes
//! file_checksum    u64  FNV-1a over everything above
//! ```

use std::path::Path;

use crate::codec::{fnv1a, fnv_fold, Cursor};
use crate::record::TraceRecord;
use crate::stream::{Block, EncodedStream, StreamDecoder};
use crate::TraceError;

pub const MAGIC: [u8; 8] = *b"WECTRACE";
pub const FORMAT_VERSION: u32 = 1;
/// Bytes of one block's header: record count, byte count, checksum.
const BLOCK_HEADER_BYTES: usize = 4 + 4 + 8;

/// Identity and provenance of a capture.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHeader {
    pub format_version: u32,
    /// `wec_core::SIM_REVISION` of the build that captured the trace.
    pub sim_revision: u32,
    pub n_tus: u32,
    pub scale_units: u32,
    /// Workload identity, e.g. `"181.mcf"`.
    pub bench: String,
    /// Label of the captured machine configuration (`CfgKey::label()`
    /// format in the experiment harness).
    pub cfg_label: String,
    pub total_records: u64,
}

/// A complete trace: header + per-TU streams.
pub struct Trace {
    pub header: TraceHeader,
    pub streams: Vec<EncodedStream>,
}

impl Trace {
    /// Sum of encoded payload bytes across all streams (excludes headers).
    pub fn encoded_bytes(&self) -> u64 {
        self.streams.iter().map(EncodedStream::encoded_bytes).sum()
    }

    /// Cheap stable identity for result-cache keys: folds the stream
    /// content checksums, counts, and capture metadata.
    pub fn identity(&self) -> u64 {
        let mut h = fnv1a(self.header.bench.as_bytes());
        h = fnv_fold(h, self.header.sim_revision as u64);
        h = fnv_fold(h, self.header.scale_units as u64);
        h = fnv_fold(h, self.header.total_records);
        for s in &self.streams {
            h = fnv_fold(h, s.records);
            h = fnv_fold(h, s.checksum);
        }
        h
    }

    /// Decode one TU's stream.
    pub fn iter_tu(&self, tu: u32) -> StreamDecoder<'_> {
        StreamDecoder::new(&self.streams[tu as usize], tu)
    }

    /// Merge all streams back into the machine's global access order.
    pub fn merged(&self) -> Result<MergedIter<'_>, TraceError> {
        MergedIter::new(self)
    }

    /// Fully decode every stream, verifying all checksums.  Returns the
    /// total number of records.
    pub fn verify(&self) -> Result<u64, TraceError> {
        let mut n = 0u64;
        for tu in 0..self.streams.len() as u32 {
            for rec in self.iter_tu(tu) {
                rec?;
                n += 1;
            }
        }
        if n != self.header.total_records {
            return Err(TraceError::Corrupt(format!(
                "decoded {n} records, header says {}",
                self.header.total_records
            )));
        }
        Ok(n)
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, self.header.format_version);
        put_u32(&mut out, self.header.sim_revision);
        put_u32(&mut out, self.header.n_tus);
        put_u32(&mut out, self.header.scale_units);
        put_u64(&mut out, self.header.total_records);
        put_str(&mut out, &self.header.bench);
        put_str(&mut out, &self.header.cfg_label);
        for s in &self.streams {
            put_u64(&mut out, s.records);
            put_u64(&mut out, s.checksum);
            put_u32(&mut out, s.blocks.len() as u32);
            for b in &s.blocks {
                put_u32(&mut out, b.records);
                put_u32(&mut out, b.bytes.len() as u32);
                put_u64(&mut out, b.checksum);
                out.extend_from_slice(&b.bytes);
            }
        }
        let file_sum = fnv1a(&out);
        put_u64(&mut out, file_sum);
        out
    }

    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
        if bytes.len() < MAGIC.len() + 8 {
            return Err(TraceError::Truncated("file shorter than header"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let declared = u64::from_le_bytes(tail.try_into().unwrap());
        if fnv1a(body) != declared {
            return Err(TraceError::Corrupt("file checksum mismatch".into()));
        }
        let mut c = Cursor::new(body);
        if c.take(MAGIC.len(), "magic")? != MAGIC {
            return Err(TraceError::Corrupt("bad magic".into()));
        }
        let format_version = c.get_u32("format version")?;
        if format_version != FORMAT_VERSION {
            return Err(TraceError::Version(format_version));
        }
        let sim_revision = c.get_u32("sim revision")?;
        let n_tus = c.get_u32("n_tus")?;
        if n_tus == 0 || n_tus > 4096 {
            return Err(TraceError::Corrupt(format!("implausible n_tus {n_tus}")));
        }
        let scale_units = c.get_u32("scale")?;
        let total_records = c.get_u64("total records")?;
        let bench = get_str(&mut c, "bench name")?;
        let cfg_label = get_str(&mut c, "config label")?;
        let mut streams = Vec::with_capacity(n_tus as usize);
        for _ in 0..n_tus {
            let records = c.get_u64("stream record count")?;
            let checksum = c.get_u64("stream checksum")?;
            let n_blocks = c.get_u32("block count")?;
            // The count is untrusted: reserve no more blocks than the
            // remaining bytes could hold headers for.
            let fit = c.remaining() / BLOCK_HEADER_BYTES;
            let mut blocks = Vec::with_capacity((n_blocks as usize).min(fit));
            for _ in 0..n_blocks {
                let brecords = c.get_u32("block record count")?;
                let n_bytes = c.get_u32("block byte count")?;
                let bsum = c.get_u64("block checksum")?;
                let data = c.take(n_bytes as usize, "block bytes")?;
                blocks.push(Block {
                    records: brecords,
                    checksum: bsum,
                    bytes: data.to_vec(),
                });
            }
            streams.push(EncodedStream {
                records,
                checksum,
                blocks,
            });
        }
        if !c.is_empty() {
            return Err(TraceError::Corrupt("trailing bytes after streams".into()));
        }
        Ok(Trace {
            header: TraceHeader {
                format_version,
                sim_revision,
                n_tus,
                scale_units,
                bench,
                cfg_label,
                total_records,
            },
            streams,
        })
    }

    pub fn write_to(&self, path: &Path) -> Result<(), TraceError> {
        std::fs::write(path, self.to_bytes())
            .map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))
    }

    pub fn read_from(path: &Path) -> Result<Trace, TraceError> {
        let bytes =
            std::fs::read(path).map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
        Trace::from_bytes(&bytes)
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("header string over 64 KiB");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_str(c: &mut Cursor<'_>, what: &'static str) -> Result<String, TraceError> {
    let len = u16::from_le_bytes(c.take(2, what)?.try_into().unwrap());
    let raw = c.take(len as usize, what)?;
    String::from_utf8(raw.to_vec()).map_err(|_| TraceError::Corrupt(format!("{what} is not UTF-8")))
}

/// K-way merge of the per-TU streams by `(cycle, phase, tu)` — the
/// machine's global access order (see [`TraceRecord::order_key`]).
pub struct MergedIter<'a> {
    decoders: Vec<StreamDecoder<'a>>,
    heads: Vec<Option<TraceRecord>>,
    failed: bool,
}

impl<'a> MergedIter<'a> {
    fn new(trace: &'a Trace) -> Result<Self, TraceError> {
        let mut decoders: Vec<StreamDecoder<'a>> = (0..trace.streams.len() as u32)
            .map(|tu| trace.iter_tu(tu))
            .collect();
        let mut heads = Vec::with_capacity(decoders.len());
        for d in &mut decoders {
            heads.push(d.next().transpose()?);
        }
        Ok(MergedIter {
            decoders,
            heads,
            failed: false,
        })
    }
}

impl Iterator for MergedIter<'_> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let best = self
            .heads
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.as_ref().map(|r| (r.order_key(), i)))
            .min()
            .map(|(_, i)| i)?;
        let rec = self.heads[best].take().unwrap();
        match self.decoders[best].next().transpose() {
            Ok(next) => self.heads[best] = next,
            Err(e) => {
                self.failed = true;
                return Some(Err(e));
            }
        }
        Some(Ok(rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceKind;
    use crate::stream::StreamEncoder;

    fn sample_trace() -> Trace {
        let mut encoders = [StreamEncoder::new(), StreamEncoder::new()];
        // TU0: a load each cycle; TU1: a load on odd cycles plus a store
        // drained at cycle 4.
        let mut total = 0u64;
        for cycle in 0..6u64 {
            encoders[0].push(&TraceRecord {
                cycle,
                tu: 0,
                pc: 0x40,
                addr: 0x1000 + cycle * 8,
                kind: TraceKind::CorrectLoad,
                squashed: false,
            });
            total += 1;
            if cycle % 2 == 1 {
                encoders[1].push(&TraceRecord {
                    cycle,
                    tu: 1,
                    pc: 0x80,
                    addr: 0x2000 + cycle * 64,
                    kind: TraceKind::WrongPathLoad,
                    squashed: true,
                });
                total += 1;
            }
            if cycle == 4 {
                encoders[1].push(&TraceRecord {
                    cycle,
                    tu: 1,
                    pc: 0,
                    addr: 0x3000,
                    kind: TraceKind::CorrectStore,
                    squashed: false,
                });
                total += 1;
            }
        }
        let [e0, e1] = encoders;
        Trace {
            header: TraceHeader {
                format_version: FORMAT_VERSION,
                sim_revision: wec_core::SIM_REVISION,
                n_tus: 2,
                scale_units: 1,
                bench: "test.bench".into(),
                cfg_label: "test/cfg".into(),
                total_records: total,
            },
            streams: vec![e0.finish(), e1.finish()],
        }
    }

    #[test]
    fn bytes_round_trip() {
        let t = sample_trace();
        let bytes = t.to_bytes();
        let back = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(back.header, t.header);
        assert_eq!(back.streams, t.streams);
        assert_eq!(back.verify().unwrap(), t.header.total_records);
        assert_eq!(back.identity(), t.identity());
    }

    /// Re-seal `body` (everything but the file checksum) as a trace file.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let sum = fnv1a(&body);
        put_u64(&mut body, sum);
        body
    }

    #[test]
    fn hostile_counts_fail_without_huge_allocations() {
        let mut t = sample_trace();
        t.streams.truncate(1);
        t.header.n_tus = 1;
        let bytes = t.to_bytes();
        let body = &bytes[..bytes.len() - 8];
        // The stream's fields follow the header: records (8), checksum
        // (8), then the block count this test overwrites.
        let blocks: usize = t.streams[0].blocks.iter().map(|b| 16 + b.bytes.len()).sum();
        let at = body.len() - blocks - 4;
        let mut hostile = body.to_vec();
        hostile[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Trace::from_bytes(&sealed(hostile)),
            Err(TraceError::Truncated(_))
        ));
        // A short file whose only stream claims u32::MAX blocks.
        let mut short = body[..at].to_vec();
        short.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Trace::from_bytes(&sealed(short)).is_err());
        // A stream record count of u64::MAX decodes to a count mismatch
        // in the slab builder, not an allocation of that many records.
        let mut lying = body.to_vec();
        lying[at - 16..at - 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let t = Trace::from_bytes(&sealed(lying)).unwrap();
        assert!(crate::TraceSlab::build(&t, 1).is_err());
        // A block claiming more records than a capture ever seals is
        // refused before decoding, so runs cannot expand it to 2^32.
        let mut block_lie = body.to_vec();
        block_lie[at + 4..at + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        let t = Trace::from_bytes(&sealed(block_lie)).unwrap();
        assert!(crate::TraceSlab::build(&t, 1).is_err());
    }

    #[test]
    fn flipped_bit_fails_file_checksum() {
        let t = sample_trace();
        let mut bytes = t.to_bytes();
        let n = bytes.len();
        bytes[n / 2] ^= 0x01;
        assert!(Trace::from_bytes(&bytes).is_err());
    }

    #[test]
    fn merge_respects_global_order() {
        let t = sample_trace();
        let recs: Vec<TraceRecord> = t.merged().unwrap().collect::<Result<_, _>>().unwrap();
        assert_eq!(recs.len() as u64, t.header.total_records);
        for w in recs.windows(2) {
            assert!(w[0].order_key() <= w[1].order_key());
        }
        // The cycle-4 store must come after both cycle-4 loads.
        let store_pos = recs
            .iter()
            .position(|r| r.kind == TraceKind::CorrectStore)
            .unwrap();
        for (i, r) in recs.iter().enumerate() {
            if r.cycle == 4 && r.kind != TraceKind::CorrectStore {
                assert!(i < store_pos);
            }
        }
    }
}
