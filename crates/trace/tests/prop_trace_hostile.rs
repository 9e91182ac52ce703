//! Hostile `.wectrace` input: arbitrary bytes, truncations and byte flips
//! of a good capture must make `Trace::from_bytes` and `TraceSlab::build`
//! return `Ok` or `Err`, never panic.  Every mutation re-seals the file
//! checksum, and the block-level cases also re-seal the block checksum,
//! so the damage reaches the header parser and the block decoder instead
//! of stopping at a checksum mismatch.

use proptest::collection::vec;
use proptest::prelude::*;
use wec_common::hash::{fnv1a, FNV_OFFSET};
use wec_trace::slab::TraceSlab;
use wec_trace::stream::StreamEncoder;
use wec_trace::{Trace, TraceHeader, TraceKind, TraceRecord, FORMAT_VERSION};

/// A small two-TU capture with a mix of access kinds.
fn good_trace() -> Trace {
    let mut streams = Vec::new();
    let mut total = 0;
    for tu in 0..2u32 {
        let mut enc = StreamEncoder::new();
        for i in 0..300u64 {
            let kind = TraceKind::ALL[(i as usize * 7 + tu as usize) % TraceKind::ALL.len()];
            enc.push(&TraceRecord {
                cycle: i * 3 + tu as u64,
                tu,
                pc: 0x40_0000 + (i as u32 % 17) * 4,
                addr: 0x1_0000 + (i * 64) % 4096,
                kind,
                squashed: kind.access_kind().is_wrong(),
            });
            total += 1;
        }
        streams.push(enc.finish());
    }
    Trace {
        header: TraceHeader {
            format_version: FORMAT_VERSION,
            sim_revision: wec_core::SIM_REVISION,
            n_tus: 2,
            scale_units: 1,
            bench: "hostile.bench".into(),
            cfg_label: "hostile/cfg".into(),
            total_records: total,
        },
        streams,
    }
}

/// Replace the trailing file checksum with the right one for the body.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    if bytes.len() >= 8 {
        let body = bytes.len() - 8;
        let sum = fnv1a(FNV_OFFSET, &bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
    }
    bytes
}

/// Parse and, when that succeeds, decode inline and on two threads.
fn load(bytes: &[u8]) {
    if let Ok(trace) = Trace::from_bytes(bytes) {
        let _ = TraceSlab::build(&trace, 1);
        let _ = TraceSlab::build(&trace, 2);
        let _ = trace.verify();
    }
}

#[test]
fn the_good_trace_loads() {
    let bytes = good_trace().to_bytes();
    let trace = Trace::from_bytes(&bytes).unwrap();
    assert_eq!(TraceSlab::build(&trace, 2).unwrap().records(), 600);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn arbitrary_bytes_never_panic(raw in vec(any::<u8>(), 0..400)) {
        load(&raw);
        load(&reseal(raw));
    }

    #[test]
    fn truncations_never_panic(cut in any::<usize>()) {
        let good = good_trace().to_bytes();
        let cut = cut % (good.len() + 1);
        load(&good[..cut]);
        load(&reseal(good[..cut].to_vec()));
    }

    #[test]
    fn header_and_frame_flips_never_panic(flips in vec((0usize..160, any::<u8>()), 1..6)) {
        // The first bytes hold the header and the first stream and block
        // frames: counts, lengths and checksums.
        let mut bytes = good_trace().to_bytes();
        for (at, b) in flips {
            let n = bytes.len();
            bytes[at % n] = b;
        }
        load(&reseal(bytes));
    }

    #[test]
    fn byte_flips_anywhere_never_panic(flips in vec((any::<usize>(), any::<u8>()), 1..6)) {
        let mut bytes = good_trace().to_bytes();
        for (at, b) in flips {
            let n = bytes.len();
            bytes[at % n] = b;
        }
        load(&reseal(bytes));
    }

    #[test]
    fn block_payload_flips_reach_the_decoder(
        tu in 0usize..2,
        flips in vec((any::<usize>(), any::<u8>()), 1..6),
        records in prop_oneof![Just(None), (0u32..5000).prop_map(Some)],
    ) {
        let mut trace = good_trace();
        let block = &mut trace.streams[tu].blocks[0];
        for (at, b) in flips {
            let n = block.bytes.len();
            block.bytes[at % n] = b;
        }
        if let Some(r) = records {
            block.records = r;
        }
        block.checksum = fnv1a(FNV_OFFSET, &block.bytes);
        load(&trace.to_bytes());
    }
}
