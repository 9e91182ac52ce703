//! Property tests: the `to_kv`/`from_kv` metrics serialization (the golden
//! file and result-cache format) round-trips exactly and rejects malformed
//! input — in particular duplicated keys, which must be a parse error
//! rather than a silent last-writer-wins.

use proptest::prelude::*;
use wec_core::metrics::{L1dAggregate, MachineMetrics};

fn arb_metrics() -> impl Strategy<Value = MachineMetrics> {
    // One draw per field (24 of them); any u64 is legal everywhere.
    proptest::collection::vec(any::<u64>(), 24).prop_map(|v| MachineMetrics {
        cycles: v[0],
        region_cycles: v[1],
        sequential_instructions: v[2],
        parallel_instructions: v[3],
        wrong_instructions: v[4],
        threads_started: v[5],
        threads_marked_wrong: v[6],
        threads_killed: v[7],
        forks: v[8],
        regions: v[9],
        l1d: L1dAggregate {
            demand_accesses: v[10],
            demand_misses: v[11],
            misses_to_next_level: v[12],
            wrong_accesses: v[13],
            side_hits: v[14],
            useful_wrong_fetches: v[15],
            useful_prefetches: v[16],
            prefetches_issued: v[17],
        },
        l2_demand_misses: v[18],
        cond_branches: v[19],
        mispredicted_branches: v[20],
        wrong_loads_dropped: v[21],
        wb_words: v[22],
        checksum: v[23],
    })
}

proptest! {
    /// Every serialized metrics block parses back to the same value.
    #[test]
    fn kv_roundtrips_exactly(m in arb_metrics()) {
        let text = m.to_kv();
        let back = MachineMetrics::from_kv(&text).unwrap();
        prop_assert_eq!(back, m);
        // And the re-serialization is byte-identical (canonical form).
        prop_assert_eq!(back.to_kv(), text);
    }

    /// Repeating any one line makes the parse fail with a duplicate-key
    /// error, regardless of whether the repeated value agrees.
    #[test]
    fn kv_rejects_any_duplicated_key(m in arb_metrics(), idx in 0usize..24, v in any::<u64>()) {
        let text = m.to_kv();
        let line = text.lines().nth(idx).unwrap();
        let key = line.split_once(' ').unwrap().0;
        let dup = format!("{text}{key} {v}\n");
        let err = MachineMetrics::from_kv(&dup).unwrap_err();
        prop_assert!(err.contains("duplicate"), "unexpected error: {err}");
    }

    /// Deleting any one line makes the parse fail (no silent defaulting).
    #[test]
    fn kv_rejects_any_missing_key(m in arb_metrics(), idx in 0usize..24) {
        let text = m.to_kv();
        let pruned: String = text
            .lines()
            .enumerate()
            .filter(|&(i, _)| i != idx)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        prop_assert!(MachineMetrics::from_kv(&pruned).is_err());
    }

    /// Comments and blank lines are ignored wherever they appear.
    #[test]
    fn kv_ignores_comments_and_blanks(m in arb_metrics(), idx in 0usize..24) {
        let text = m.to_kv();
        let commented: String = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == idx {
                    format!("# interleaved comment\n\n{l}\n")
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        prop_assert_eq!(MachineMetrics::from_kv(&commented).unwrap(), m);
    }

    /// Hostile input — arbitrary bytes, truncations and byte flips of a
    /// good block — parses to `Ok` or `Err`, never a panic.
    #[test]
    fn kv_hostile_input_never_panics(
        m in arb_metrics(),
        raw in proptest::collection::vec(any::<u8>(), 0..400),
        cut in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..6),
    ) {
        let _ = MachineMetrics::from_kv(&String::from_utf8_lossy(&raw));
        let good = m.to_kv().into_bytes();
        let _ = MachineMetrics::from_kv(&String::from_utf8_lossy(&good[..cut % (good.len() + 1)]));
        let mut flipped = good.clone();
        for (at, b) in flips {
            flipped[at % good.len()] = b;
        }
        let _ = MachineMetrics::from_kv(&String::from_utf8_lossy(&flipped));
    }
}
