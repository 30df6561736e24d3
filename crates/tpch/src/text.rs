//! Small deterministic text pools for TPC-H string columns.

use bufferdb_types::Rng;
use std::sync::Arc;

/// TPC-H ship modes.
pub const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

/// TPC-H ship instructions.
pub const SHIP_INSTRUCT: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];

/// TPC-H order priorities.
pub const ORDER_PRIORITIES: [&str; 5] =
    ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

/// TPC-H market segments.
pub const MKT_SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];

/// Part type syllables (the spec's three-syllable types).
pub const TYPE_S1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
/// Second syllable.
pub const TYPE_S2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
/// Third syllable.
pub const TYPE_S3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];

/// Part containers.
pub const CONTAINERS: [&str; 8] = [
    "SM CASE",
    "SM BOX",
    "MED BAG",
    "MED BOX",
    "LG CASE",
    "LG BOX",
    "JUMBO PACK",
    "WRAP JAR",
];

/// The 25 TPC-H nations (name, region).
pub const NATIONS: [(&str, usize); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

/// The 5 TPC-H regions.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

const WORDS: [&str; 16] = [
    "furiously",
    "quickly",
    "slyly",
    "carefully",
    "blithely",
    "deposits",
    "requests",
    "accounts",
    "packages",
    "foxes",
    "pearls",
    "ideas",
    "theodolites",
    "platelets",
    "instructions",
    "excuses",
];

/// A short pseudo-random comment string.
pub fn comment(rng: &mut Rng) -> Arc<str> {
    let n = rng.gen_range(2..5);
    let mut s = String::new();
    for i in 0..n {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
    }
    Arc::from(s)
}

/// Pick uniformly from a static pool. Returns the borrowed pool entry and
/// allocates nothing; generators share one `Arc<str>` per distinct value
/// through their table's string dictionary.
pub fn pick<'a>(rng: &mut Rng, pool: &[&'a str]) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comment_is_deterministic_per_seed() {
        let a = comment(&mut Rng::seed_from_u64(1));
        let b = comment(&mut Rng::seed_from_u64(1));
        assert_eq!(a, b);
    }

    #[test]
    fn pools_have_expected_sizes() {
        assert_eq!(NATIONS.len(), 25);
        assert_eq!(REGIONS.len(), 5);
        assert_eq!(SHIP_MODES.len(), 7);
        assert!(NATIONS.iter().all(|&(_, r)| r < 5));
    }

    #[test]
    fn promo_prefix_exists_in_types() {
        assert!(TYPE_S1.contains(&"PROMO"));
    }
}
