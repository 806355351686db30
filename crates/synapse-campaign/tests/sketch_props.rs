//! Property tests for the quantile sketch: the live-aggregates plane
//! is only trustworthy if sketch quantiles track the exact
//! order-statistics within the documented bound on arbitrary data —
//! including the adversarial shapes (sorted, constant, bimodal) that
//! break naive fixed-range histograms.

use proptest::prelude::*;
use synapse_campaign::sketch::{QuantileSketch, MIN_MAG, RELATIVE_ERROR};
use synapse_campaign::Percentiles;

fn sketch_of(values: &[f64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &v in values {
        s.observe(v);
    }
    s
}

/// |sketch − exact| within the documented relative bound, plus
/// MIN_MAG absolute slack for near-zero answers.
fn check_against_exact(values: &[f64]) {
    let s = sketch_of(values);
    let exact = Percentiles::of(values).expect("non-empty");
    assert_eq!(s.count() as usize, exact.n);
    assert_eq!(s.min(), Some(exact.min));
    assert_eq!(s.max(), Some(exact.max));
    for (q, want) in [(0.5, exact.p50), (0.95, exact.p95), (0.99, exact.p99)] {
        let got = s.quantile(q).expect("non-empty");
        assert!(
            (got - want).abs() <= RELATIVE_ERROR * want.abs() + MIN_MAG,
            "q={q}: sketch {got} vs exact {want} over {} values",
            values.len()
        );
    }
}

proptest! {
    #[test]
    fn quantiles_track_exact_on_random_data(
        values in proptest::collection::vec(-1e6f64..1e6, 1..400),
    ) {
        check_against_exact(&values);
    }

    #[test]
    fn quantiles_track_exact_on_adversarial_shapes(
        n in 1usize..300,
        scale in 1e-3f64..1e3,
        shape in 0usize..3,
    ) {
        let values: Vec<f64> = match shape {
            // Sorted ramp: every bucket along the range is hit in order.
            0 => (0..n).map(|i| i as f64 * scale).collect(),
            // Constant: a single bucket holds every observation.
            1 => (0..n).map(|_| scale).collect(),
            // Bimodal: two far-apart clusters, nothing between — the
            // shape that exposes interpolation-based estimators.
            _ => (0..n)
                .map(|i| if i % 2 == 0 { scale } else { scale * 1e4 })
                .collect(),
        };
        check_against_exact(&values);
    }
}
