//! The benchmark's query vocabulary and its result oracle.
//!
//! Analytic classes are the paper's and TPC-H's plans from
//! `bufferdb::tpch::queries`; their reference result is the row digest of
//! the *unrefined logical* plan run once, serially, through
//! `execute_query`. Lookups are aggregates over an `IndexScan` range on a
//! primary-key index; their reference is computed without the executor at
//! all, from `BTreeIndex::range` and direct table reads.

use crate::stats::row_digest;
use bufferdb::prelude::*;
use bufferdb::tpch::queries::{self, JoinMethod};
use bufferdb::types::rng::Rng;
use std::collections::HashMap;

/// An analytic ("elephant") query class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// The paper's Query 1 with a seeded ship-date cutoff.
    PaperQ1,
    PaperQ2,
    Q1,
    Q6,
    Q12,
    Q14,
    Q3Hash,
    Q3Merge,
    Q3NestLoop,
}

impl Class {
    pub fn label(self) -> &'static str {
        match self {
            Class::PaperQ1 => "paperQ1",
            Class::PaperQ2 => "paperQ2",
            Class::Q1 => "Q1",
            Class::Q6 => "Q6",
            Class::Q12 => "Q12",
            Class::Q14 => "Q14",
            Class::Q3Hash => "paperQ3-hash",
            Class::Q3Merge => "paperQ3-merge",
            Class::Q3NestLoop => "paperQ3-nestloop",
        }
    }

    /// The class whose reference result this class must reproduce. The
    /// three join forms of paper Q3 are one logical query, so all of them
    /// are checked against the (cheapest) hash-join form's reference.
    pub fn reference_class(self) -> Class {
        match self {
            Class::Q3Merge | Class::Q3NestLoop => Class::Q3Hash,
            other => other,
        }
    }

    pub fn plan(self, catalog: &Catalog, q1_cutoff: &str) -> PlanNode {
        let built = match self {
            Class::PaperQ1 => queries::paper_query1_with_cutoff(catalog, q1_cutoff),
            Class::PaperQ2 => queries::paper_query2(catalog),
            Class::Q1 => queries::tpch_q1(catalog),
            Class::Q6 => queries::tpch_q6(catalog),
            Class::Q12 => queries::tpch_q12(catalog),
            Class::Q14 => queries::tpch_q14(catalog),
            Class::Q3Hash => queries::paper_query3(catalog, JoinMethod::HashJoin),
            Class::Q3Merge => queries::paper_query3(catalog, JoinMethod::MergeJoin),
            Class::Q3NestLoop => queries::paper_query3(catalog, JoinMethod::NestLoop),
        };
        built.expect("benchmark query plans build on a generated catalog")
    }
}

/// A seeded paper-Q1 ship-date cutoff between 1998-07-04 and 1998-09-02
/// (the paper's value), so selectivity stays near the paper's ~98 %.
pub fn seeded_q1_cutoff(rng: &mut Rng) -> String {
    let base = Date::parse("1998-09-02").expect("static date");
    base.add_days(-rng.gen_range(0..=60i32)).to_string()
}

/// Reference digests for analytic classes, computed lazily, once each.
#[derive(Default)]
pub struct ClassOracle {
    digests: HashMap<Class, u64>,
}

impl ClassOracle {
    /// Reference digest for `class`: its reference class's unrefined
    /// logical plan, run serially. Panics if the reference run itself
    /// fails — then the engine cannot be checked at all.
    pub fn reference(&mut self, class: Class, catalog: &Catalog, q1_cutoff: &str) -> u64 {
        let class = class.reference_class();
        *self.digests.entry(class).or_insert_with(|| {
            let plan = class.plan(catalog, q1_cutoff);
            let out = execute_query(
                &plan,
                catalog,
                &MachineConfig::pentium4_like(),
                &QueryOpts::new(),
            );
            assert!(
                out.is_ok(),
                "reference run of {} failed: {:?}",
                class.label(),
                out.error()
            );
            row_digest(out.rows())
        })
    }
}

/// The three primary-key indexes lookups range over, with the measure
/// column each lookup sums.
const LOOKUP_TARGETS: [(&str, &str, &str); 3] = [
    ("orders_pkey", "orders", "o_totalprice"),
    ("customer_pkey", "customer", "c_acctbal"),
    ("part_pkey", "part", "p_retailprice"),
];

/// One lookup: `SELECT COUNT(*), SUM(measure) FROM table WHERE key
/// BETWEEN lo AND hi`, planned as an aggregate over an `IndexScan` range.
#[derive(Debug, Clone)]
pub struct Lookup {
    target: usize,
    lo: i64,
    hi: i64,
    plan: PlanNode,
}

impl Lookup {
    pub fn plan(&self) -> &PlanNode {
        &self.plan
    }

    /// The expected result row, from the index and the table alone.
    pub fn expected(&self, catalog: &Catalog) -> Vec<Tuple> {
        let (index, table, measure) = LOOKUP_TARGETS[self.target];
        let index = catalog.index(index).expect("lookup index exists");
        let table = catalog.table(table).expect("lookup table exists");
        let col = table.schema().index_of(measure).expect("measure column");
        let mut count = 0i64;
        let mut sum: Option<Decimal> = None;
        for (_, rid) in index.btree.range(self.lo, self.hi) {
            count += 1;
            let v = match table.row(rid).get(col) {
                Datum::Decimal(d) => *d,
                other => panic!("measure column holds {other:?}, not a decimal"),
            };
            sum = Some(match sum {
                None => v,
                Some(s) => s.checked_add(&v).expect("measure sum fits"),
            });
        }
        vec![Tuple::new(vec![
            Datum::Int(count),
            sum.map(Datum::Decimal).unwrap_or(Datum::Null),
        ])]
    }
}

/// A fixed, seeded set of distinct lookups drawn with zipfian popularity.
pub struct LookupSpace {
    lookups: Vec<Lookup>,
    cdf: Vec<f64>,
}

impl LookupSpace {
    /// `n` distinct lookups (index, width 1..=16, seeded range start);
    /// rank `r` is drawn with weight `1 / (r + 1)^theta`.
    pub fn new(catalog: &Catalog, n: usize, theta: f64, rng: &mut Rng) -> Self {
        let domains: Vec<(i64, i64)> = LOOKUP_TARGETS
            .iter()
            .map(|(index, _, _)| {
                let idx = catalog.index(index).expect("lookup index exists");
                let mut keys = idx.btree.scan_all().map(|(k, _)| k);
                let lo = keys.next().expect("index is not empty");
                (lo, keys.last().unwrap_or(lo))
            })
            .collect();
        // Index and width follow the rank (every combination equally
        // often, the same at every popularity level whatever the seed);
        // only the range start is drawn, so seeds move which keys are
        // hot but not how much work a hot lookup does.
        let mut seen = std::collections::HashSet::new();
        let mut lookups = Vec::with_capacity(n);
        while lookups.len() < n {
            let r = lookups.len();
            let target = r % LOOKUP_TARGETS.len();
            let width = 1 + (r / LOOKUP_TARGETS.len()) as i64 % 16;
            let (min, max) = domains[target];
            let lo = rng.gen_range(min..=(max - width + 1).max(min));
            if !seen.insert((target, lo, width)) {
                continue;
            }
            let hi = lo + width - 1;
            lookups.push(Lookup {
                target,
                lo,
                hi,
                plan: lookup_plan(catalog, target, lo, hi),
            });
        }
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        LookupSpace { lookups, cdf }
    }

    /// Draw a lookup rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.gen_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    pub fn get(&self, rank: usize) -> &Lookup {
        &self.lookups[rank]
    }
}

fn lookup_plan(catalog: &Catalog, target: usize, lo: i64, hi: i64) -> PlanNode {
    let (index, table, measure) = LOOKUP_TARGETS[target];
    let col = catalog
        .table(table)
        .and_then(|t| t.schema().index_of(measure))
        .expect("measure column exists");
    PlanNode::Aggregate {
        input: Box::new(PlanNode::IndexScan {
            index: index.into(),
            mode: IndexMode::Range {
                lo: Some(lo),
                hi: Some(hi),
            },
        }),
        group_by: vec![],
        aggs: vec![
            AggSpec::count_star("n"),
            AggSpec::new(AggFunc::Sum, Expr::col(col), "total"),
        ],
    }
}

/// Memoized lookup oracle: expected rows per lookup rank.
#[derive(Default)]
pub struct LookupOracle {
    expected: HashMap<usize, Vec<Tuple>>,
}

impl LookupOracle {
    pub fn matches(
        &mut self,
        space: &LookupSpace,
        rank: usize,
        catalog: &Catalog,
        rows: &[Tuple],
    ) -> bool {
        let want = self
            .expected
            .entry(rank)
            .or_insert_with(|| space.get(rank).expected(catalog));
        want.as_slice() == rows
    }
}
