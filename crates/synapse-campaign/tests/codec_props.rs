//! Property tests for the per-point codecs: the fingerprint, the
//! binary cache record, and the hand-written `PointResult` JSON writer.

use proptest::prelude::*;
use synapse_campaign::codec::{decode_record, encode_record};
use synapse_campaign::{fingerprint, JsonF64, JsonStr, PointResult, ResultCache, ScenarioPoint};

/// Axis strings that exercise every escaping rule: quotes,
/// backslashes, named and numeric control escapes, DEL, and
/// multi-byte UTF-8.
const NASTY: &str = "[\u{0}-\u{1f}\"\\\\/a-z\u{7f}é€😀]{0,12}";

/// Floats the serializer treats specially: integral values on both
/// sides of 1e16, signed zero, non-finite values, extremes.
const SPECIAL_F64: [f64; 14] = [
    0.0,
    -0.0,
    1.0,
    -3.0,
    9_999_999_999_999_998.0,
    1e16,
    -1e16,
    1.5e300,
    f64::MAX,
    f64::MIN_POSITIVE,
    5e-324,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

fn arb_f64() -> impl Strategy<Value = f64> {
    (
        0usize..4,
        any::<f64>(),
        any::<i64>(),
        0usize..SPECIAL_F64.len(),
    )
        .prop_map(|(pick, finite, integral, special)| match pick {
            0 => finite,
            1 => integral as f64,
            2 => (integral >> 10) as f64,
            _ => SPECIAL_F64[special],
        })
}

fn arb_u64() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0usize..4).prop_map(|(n, pick)| match pick {
        0 => u64::MAX,
        1 => n >> 40,
        _ => n,
    })
}

/// An arbitrary scenario point. Axis values need not resolve against
/// the catalogs — fingerprints and codecs are content-addressed.
fn arb_point() -> impl Strategy<Value = ScenarioPoint> {
    (
        (NASTY, NASTY, NASTY, NASTY),
        (NASTY, NASTY, NASTY, NASTY),
        (arb_u64(), any::<u32>(), arb_u64(), arb_u64()),
        (arb_f64(), arb_f64(), 0usize..1_000_000),
    )
        .prop_map(
            |(
                (workload, machine, kernel, mode),
                (fs, atoms, sample_order, profile_machine),
                (steps, threads, io_block, seed),
                (sample_rate, noise_cv, index),
            )| ScenarioPoint {
                index,
                workload,
                steps,
                machine,
                kernel,
                mode,
                threads,
                io_block,
                sample_rate,
                fs,
                atoms,
                sample_order,
                profile_machine,
                noise_cv,
                seed,
            },
        )
}

fn arb_result() -> impl Strategy<Value = PointResult> {
    (
        arb_point(),
        (arb_f64(), arb_f64(), 0usize..100_000),
        (arb_u64(), arb_u64(), arb_u64(), arb_u64()),
    )
        .prop_map(
            |(point, (tx, app_tx, samples), (directed, consumed, instructions, written))| {
                PointResult {
                    fingerprint: fingerprint(&point),
                    point,
                    tx,
                    app_tx,
                    samples,
                    directed_cycles: directed,
                    consumed_cycles: consumed,
                    instructions,
                    bytes_written: written,
                }
            },
        )
}

/// Field-by-field bit equality (`PartialEq` says NaN != NaN and
/// -0.0 == 0.0; the record must preserve the bits either way).
fn bit_identical(a: &PointResult, b: &PointResult) -> bool {
    let (p, q) = (&a.point, &b.point);
    p.index == q.index
        && p.workload == q.workload
        && p.steps == q.steps
        && p.machine == q.machine
        && p.kernel == q.kernel
        && p.mode == q.mode
        && p.threads == q.threads
        && p.io_block == q.io_block
        && p.sample_rate.to_bits() == q.sample_rate.to_bits()
        && p.fs == q.fs
        && p.atoms == q.atoms
        && p.sample_order == q.sample_order
        && p.profile_machine == q.profile_machine
        && p.noise_cv.to_bits() == q.noise_cv.to_bits()
        && p.seed == q.seed
        && a.fingerprint == b.fingerprint
        && a.tx.to_bits() == b.tx.to_bits()
        && a.app_tx.to_bits() == b.app_tx.to_bits()
        && a.samples == b.samples
        && a.directed_cycles == b.directed_cycles
        && a.consumed_cycles == b.consumed_cycles
        && a.instructions == b.instructions
        && a.bytes_written == b.bytes_written
}

proptest! {
    #[test]
    fn write_json_matches_the_tree_serializer(result in arb_result()) {
        let mut fast = String::new();
        result.write_json(&mut fast);
        prop_assert_eq!(fast, serde_json::to_string(&result).unwrap());
    }

    #[test]
    fn records_roundtrip_bit_exactly(result in arb_result()) {
        let bytes = encode_record(&result);
        let back = decode_record(&result.fingerprint, &bytes).expect("record decodes");
        prop_assert!(bit_identical(&back, &result), "{:?} != {:?}", back, result);
        // Through the cache as well.
        let cache = ResultCache::in_memory();
        cache.put(&result.fingerprint, &result).unwrap();
        let cached = cache.get(&result.fingerprint).expect("cache hit");
        prop_assert!(bit_identical(&cached, &result));
    }

    #[test]
    fn damaged_records_decode_to_none_not_panics(result in arb_result(), cut in any::<u64>()) {
        let bytes = encode_record(&result);
        let cut = (cut % bytes.len() as u64) as usize;
        prop_assert!(decode_record("k", &bytes[..cut]).is_none());
        let mut long = bytes;
        long.push(0);
        prop_assert!(decode_record("k", &long).is_none());
    }

    #[test]
    fn fingerprints_are_hex_and_index_blind(point in arb_point(), index in 0usize..10_000) {
        let fp = fingerprint(&point);
        prop_assert_eq!(fp.len(), 16);
        prop_assert!(fp.chars().all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        let mut moved = point.clone();
        moved.index = index;
        prop_assert_eq!(fingerprint(&moved), fp);
    }

    #[test]
    fn moving_bytes_between_adjacent_strings_changes_the_fingerprint(
        point in arb_point(),
        split in 0usize..4,
    ) {
        // Length prefixes keep adjacent strings apart: "ab"+"c" and
        // "a"+"bc" must not hash alike.
        let mut joined = point.clone();
        joined.fs = format!("{}{}", point.fs, "xyzw".get(..split).unwrap_or(""));
        let mut moved = point.clone();
        moved.atoms = format!("{}{}", "xyzw".get(..split).unwrap_or(""), point.atoms);
        if split > 0 {
            prop_assert_ne!(fingerprint(&joined), fingerprint(&moved));
        }
    }
}

#[test]
fn json_edge_cases_are_pinned() {
    let cases: [(f64, &str); 7] = [
        (-0.0, "-0.0"),
        (f64::NAN, "null"),
        (f64::INFINITY, "null"),
        (f64::NEG_INFINITY, "null"),
        (9_999_999_999_999_998.0, "9999999999999998.0"),
        (1e16, "10000000000000000"),
        (0.1, "0.1"),
    ];
    for (f, text) in cases {
        assert_eq!(JsonF64(f).to_string(), text, "{f:?}");
    }
    assert_eq!(
        JsonStr("q\"b\\n\n\u{1}\u{7f}é").to_string(),
        "\"q\\\"b\\\\n\\n\\u0001\u{7f}é\""
    );
}
