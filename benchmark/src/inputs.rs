//! The benchmark's inputs: one campaign grid (the axes of
//! `examples/campaign.toml`, copied here so the benchmark does not move
//! when the example does) and spec seeds derived from `--seed`.

use synapse_campaign::CampaignSpec;

/// Axes of `examples/campaign.toml`: 4 workload-step pairs × 6
/// machines × 2 kernels × 2 modes × 2 widths.
const AXES: &str = r#"
reference_machine = "thinkie"
kernels = ["asm", "c"]
modes = ["openmp", "mpi"]
threads = [1, 8]
machines = ["thinkie", "stampede", "archer", "supermic", "comet", "titan"]

[[workloads]]
app = "gromacs"
steps = [10000, 100000, 1000000]

[[workloads]]
app = "amber"
steps = [100000]
"#;

/// Points in one campaign of [`AXES`].
pub const GRID_POINTS: usize = 192;

/// Campaigns of other seeds stored behind the served grid, so a warm
/// cache holds ~10k documents and its shards are realistically sized.
pub const BACKGROUND_CAMPAIGNS: usize = 52;

/// The campaign spec named `name` with spec seed `seed`.
pub fn spec(name: &str, seed: u64) -> CampaignSpec {
    CampaignSpec::from_toml(&format!("name = \"{name}\"\nseed = {seed}\n{AXES}"))
        .expect("benchmark axes parse")
}

/// Spec seed number `i` of input stream `stream` under benchmark seed
/// `bench_seed`. Deterministic; distinct streams and indices give
/// unrelated seeds. Kept below 2^48 so every spec format carries it
/// exactly.
pub fn spec_seed(bench_seed: u64, stream: &str, i: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in stream.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(splitmix64(h ^ bench_seed) ^ i) >> 16
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_is_deterministic() {
        assert_eq!(spec_seed(2016, "cold", 3), spec_seed(2016, "cold", 3));
        // Pinned: changing the derivation changes every input, which
        // makes old and new figures incomparable.
        assert_eq!(spec_seed(2016, "cold", 0), 235155296434554);
        assert!(spec_seed(7919, "served", 0) < 1 << 48);
    }

    #[test]
    fn seeds_differ_across_bench_seeds_streams_and_indices() {
        let mut seen = std::collections::BTreeSet::new();
        for bench_seed in [2016, 7919] {
            for stream in ["cold", "served", "background"] {
                for i in 0..64 {
                    assert!(seen.insert(spec_seed(bench_seed, stream, i)));
                }
            }
        }
    }

    #[test]
    fn grid_matches_the_example_axes() {
        let s = spec("bench", spec_seed(2016, "served", 0));
        assert_eq!(s.point_count(), GRID_POINTS);
        assert_eq!(synapse_campaign::expand(&s).len(), GRID_POINTS);
        let mut example =
            CampaignSpec::from_toml(include_str!("../../examples/campaign.toml")).unwrap();
        example.name = s.name.clone();
        example.seed = s.seed;
        assert_eq!(
            synapse_campaign::expand(&example),
            synapse_campaign::expand(&s),
            "the benchmark grid mirrors examples/campaign.toml"
        );
    }
}
