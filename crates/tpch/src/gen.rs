//! The TPC-H generator.

use crate::text;
use bufferdb_index::BTreeIndex;
use bufferdb_storage::{Catalog, IndexDef, TableBuilder};
use bufferdb_types::{DataType, Date, Datum, Decimal, Field, Rng, Schema, Tuple};
use std::collections::HashSet;
use std::sync::Arc;

/// Generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// TPC-H scale factor (1.0 = 6M lineitems; the paper uses 0.2).
    pub scale: f64,
    /// Master seed; every run with the same `(scale, seed)` produces
    /// byte-identical tables.
    pub seed: u64,
}

impl GenConfig {
    /// Rows for a base cardinality at this scale (min 1).
    fn rows(&self, base: u64) -> i64 {
        ((base as f64 * self.scale).round() as i64).max(1)
    }
}

/// TPC-H date range start.
fn start_date() -> Date {
    Date::from_ymd(1992, 1, 1).expect("static date")
}

/// Last order date (spec: 1998-08-02).
const ORDER_DATE_SPAN: i32 = 2405;

fn money(rng: &mut Rng, lo_cents: i64, hi_cents: i64) -> Datum {
    Datum::Decimal(Decimal::from_cents(rng.gen_range(lo_cents..=hi_cents)))
}

/// A per-table string dictionary for low-cardinality columns: each
/// distinct value is allocated once and every row holding it shares that
/// `Arc<str>`, so a clone of the datum (and the row itself) stays a
/// pointer copy.
#[derive(Default)]
struct Dict(HashSet<Arc<str>>);

impl Dict {
    fn str(&mut self, s: &str) -> Datum {
        if let Some(shared) = self.0.get(s) {
            return Datum::Str(Arc::clone(shared));
        }
        let shared: Arc<str> = Arc::from(s);
        self.0.insert(Arc::clone(&shared));
        Datum::Str(shared)
    }
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The order date for `orderkey`, derived from a hash so that the orders and
/// lineitem generators agree without sharing an RNG stream.
fn order_date(cfg: &GenConfig, orderkey: i64) -> Date {
    let off = (mix(cfg.seed ^ 0x0D ^ orderkey as u64) % ORDER_DATE_SPAN as u64) as i32;
    start_date().add_days(off)
}

/// Generate all eight tables plus primary-key indexes into a fresh catalog.
///
/// Tables are generated on worker threads (one per table, deterministic
/// per-table seeds) and registered serially.
pub fn generate_catalog(scale: f64, seed: u64) -> Catalog {
    let cfg = GenConfig { scale, seed };
    let catalog = Catalog::new();

    // Order counts drive lineitem generation, so compute them first.
    let n_orders = cfg.rows(1_500_000);

    let (region, nation, supplier, customer, part, partsupp, orders, lineitem) =
        std::thread::scope(|s| {
            let h_region = s.spawn(gen_region);
            let h_nation = s.spawn(gen_nation);
            let h_supplier = s.spawn(move || gen_supplier(&cfg));
            let h_customer = s.spawn(move || gen_customer(&cfg));
            let h_part = s.spawn(move || gen_part(&cfg));
            let h_partsupp = s.spawn(move || gen_partsupp(&cfg));
            let h_orders = s.spawn(move || gen_orders(&cfg, n_orders));
            let h_lineitem = s.spawn(move || gen_lineitem(&cfg, n_orders));
            (
                h_region.join().expect("region gen"),
                h_nation.join().expect("nation gen"),
                h_supplier.join().expect("supplier gen"),
                h_customer.join().expect("customer gen"),
                h_part.join().expect("part gen"),
                h_partsupp.join().expect("partsupp gen"),
                h_orders.join().expect("orders gen"),
                h_lineitem.join().expect("lineitem gen"),
            )
        });

    catalog.add_table(region);
    catalog.add_table(nation);
    catalog.add_table(supplier);
    catalog.add_table(customer);
    catalog.add_table(part);
    catalog.add_table(partsupp);
    catalog.add_table(orders);
    catalog.add_table(lineitem);

    // Primary-key indexes used by the paper's index-nested-loop and merge
    // join plans.
    for (index, table) in [
        ("orders_pkey", "orders"),
        ("part_pkey", "part"),
        ("customer_pkey", "customer"),
    ] {
        let t = catalog.table(table).expect("registered above");
        let pairs: Vec<(i64, u32)> = t
            .rows()
            .iter()
            .enumerate()
            .map(|(i, row)| (row.get(0).as_int().expect("integer pkey"), i as u32))
            .collect();
        catalog.add_index(IndexDef {
            name: index.into(),
            table: table.into(),
            key_column: 0,
            btree: BTreeIndex::bulk_load(pairs),
        });
    }
    catalog
}

fn gen_region() -> TableBuilder {
    let mut b = TableBuilder::new(
        "region",
        Schema::new(vec![
            Field::new("r_regionkey", DataType::Int),
            Field::new("r_name", DataType::Str),
            Field::new("r_comment", DataType::Str),
        ]),
    );
    let mut rng = Rng::seed_from_u64(0xE0);
    for (i, name) in text::REGIONS.iter().enumerate() {
        b.push(Tuple::new(vec![
            Datum::Int(i as i64),
            Datum::str(*name),
            Datum::Str(text::comment(&mut rng)),
        ]));
    }
    b
}

fn gen_nation() -> TableBuilder {
    let mut b = TableBuilder::new(
        "nation",
        Schema::new(vec![
            Field::new("n_nationkey", DataType::Int),
            Field::new("n_name", DataType::Str),
            Field::new("n_regionkey", DataType::Int),
            Field::new("n_comment", DataType::Str),
        ]),
    );
    let mut rng = Rng::seed_from_u64(0xE1);
    for (i, (name, region)) in text::NATIONS.iter().enumerate() {
        b.push(Tuple::new(vec![
            Datum::Int(i as i64),
            Datum::str(*name),
            Datum::Int(*region as i64),
            Datum::Str(text::comment(&mut rng)),
        ]));
    }
    b
}

fn gen_supplier(cfg: &GenConfig) -> TableBuilder {
    let n = cfg.rows(10_000);
    let mut b = TableBuilder::new(
        "supplier",
        Schema::new(vec![
            Field::new("s_suppkey", DataType::Int),
            Field::new("s_name", DataType::Str),
            Field::new("s_nationkey", DataType::Int),
            Field::new("s_acctbal", DataType::Decimal),
            Field::new("s_comment", DataType::Str),
        ]),
    );
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x51);
    for i in 1..=n {
        b.push(Tuple::new(vec![
            Datum::Int(i),
            Datum::str(format!("Supplier#{i:09}")),
            Datum::Int(rng.gen_range(0i64..25)),
            money(&mut rng, -99_999, 999_999),
            Datum::Str(text::comment(&mut rng)),
        ]));
    }
    b
}

fn gen_customer(cfg: &GenConfig) -> TableBuilder {
    let n = cfg.rows(150_000);
    let mut b = TableBuilder::new(
        "customer",
        Schema::new(vec![
            Field::new("c_custkey", DataType::Int),
            Field::new("c_name", DataType::Str),
            Field::new("c_nationkey", DataType::Int),
            Field::new("c_acctbal", DataType::Decimal),
            Field::new("c_mktsegment", DataType::Str),
            Field::new("c_comment", DataType::Str),
        ]),
    );
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xC5);
    let mut dict = Dict::default();
    for i in 1..=n {
        b.push(Tuple::new(vec![
            Datum::Int(i),
            Datum::str(format!("Customer#{i:09}")),
            Datum::Int(rng.gen_range(0i64..25)),
            money(&mut rng, -99_999, 999_999),
            dict.str(text::pick(&mut rng, &text::MKT_SEGMENTS)),
            Datum::Str(text::comment(&mut rng)),
        ]));
    }
    b
}

fn gen_part(cfg: &GenConfig) -> TableBuilder {
    let n = cfg.rows(200_000);
    let mut b = TableBuilder::new(
        "part",
        Schema::new(vec![
            Field::new("p_partkey", DataType::Int),
            Field::new("p_name", DataType::Str),
            Field::new("p_brand", DataType::Str),
            Field::new("p_type", DataType::Str),
            Field::new("p_size", DataType::Int),
            Field::new("p_container", DataType::Str),
            Field::new("p_retailprice", DataType::Decimal),
        ]),
    );
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x9A);
    let mut dict = Dict::default();
    for i in 1..=n {
        let ty = format!(
            "{} {} {}",
            text::TYPE_S1[rng.gen_range(0..text::TYPE_S1.len())],
            text::TYPE_S2[rng.gen_range(0..text::TYPE_S2.len())],
            text::TYPE_S3[rng.gen_range(0..text::TYPE_S3.len())],
        );
        // Spec: price = (90000 + (partkey mod 200001)/10 + 100*(partkey mod 1000)) / 100.
        let cents = 90_000 + (i % 200_001) / 10 + 100 * (i % 1000);
        b.push(Tuple::new(vec![
            Datum::Int(i),
            Datum::str(format!("part {i}")),
            dict.str(&format!(
                "Brand#{}{}",
                rng.gen_range(1..6),
                rng.gen_range(1..6)
            )),
            dict.str(&ty),
            Datum::Int(rng.gen_range(1i64..51)),
            dict.str(text::pick(&mut rng, &text::CONTAINERS)),
            Datum::Decimal(Decimal::from_cents(cents)),
        ]));
    }
    b
}

fn gen_partsupp(cfg: &GenConfig) -> TableBuilder {
    let parts = cfg.rows(200_000);
    let suppliers = cfg.rows(10_000);
    let mut b = TableBuilder::new(
        "partsupp",
        Schema::new(vec![
            Field::new("ps_partkey", DataType::Int),
            Field::new("ps_suppkey", DataType::Int),
            Field::new("ps_availqty", DataType::Int),
            Field::new("ps_supplycost", DataType::Decimal),
        ]),
    );
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xB5);
    for p in 1..=parts {
        for s in 0..4 {
            b.push(Tuple::new(vec![
                Datum::Int(p),
                Datum::Int((p + s * (suppliers / 4).max(1)) % suppliers + 1),
                Datum::Int(rng.gen_range(1i64..10_000)),
                money(&mut rng, 100, 100_000),
            ]));
        }
    }
    b
}

fn gen_orders(cfg: &GenConfig, n_orders: i64) -> TableBuilder {
    let customers = cfg.rows(150_000);
    let mut b = TableBuilder::new(
        "orders",
        Schema::new(vec![
            Field::new("o_orderkey", DataType::Int),
            Field::new("o_custkey", DataType::Int),
            Field::new("o_orderstatus", DataType::Str),
            Field::new("o_totalprice", DataType::Decimal),
            Field::new("o_orderdate", DataType::Date),
            Field::new("o_orderpriority", DataType::Str),
            Field::new("o_shippriority", DataType::Int),
            Field::new("o_comment", DataType::Str),
        ]),
    );
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x0D);
    let mut dict = Dict::default();
    let start = start_date();
    for i in 1..=n_orders {
        let date = order_date(cfg, i);
        let status = if date.days() < start.add_days(ORDER_DATE_SPAN / 2).days() {
            "F"
        } else {
            "O"
        };
        b.push(Tuple::new(vec![
            Datum::Int(i),
            Datum::Int(rng.gen_range(1..=customers)),
            dict.str(status),
            money(&mut rng, 90_000, 50_000_000),
            Datum::Date(date),
            dict.str(text::pick(&mut rng, &text::ORDER_PRIORITIES)),
            Datum::Int(0),
            Datum::Str(text::comment(&mut rng)),
        ]));
    }
    b
}

/// Lineitems per order: 1..=7 uniform, as in the spec.
fn gen_lineitem(cfg: &GenConfig, n_orders: i64) -> TableBuilder {
    let parts = cfg.rows(200_000);
    let suppliers = cfg.rows(10_000);
    let mut b = TableBuilder::new(
        "lineitem",
        Schema::new(vec![
            Field::new("l_orderkey", DataType::Int),
            Field::new("l_partkey", DataType::Int),
            Field::new("l_suppkey", DataType::Int),
            Field::new("l_linenumber", DataType::Int),
            Field::new("l_quantity", DataType::Decimal),
            Field::new("l_extendedprice", DataType::Decimal),
            Field::new("l_discount", DataType::Decimal),
            Field::new("l_tax", DataType::Decimal),
            Field::new("l_returnflag", DataType::Str),
            Field::new("l_linestatus", DataType::Str),
            Field::new("l_shipdate", DataType::Date),
            Field::new("l_commitdate", DataType::Date),
            Field::new("l_receiptdate", DataType::Date),
            Field::new("l_shipinstruct", DataType::Str),
            Field::new("l_shipmode", DataType::Str),
            Field::new("l_comment", DataType::Str),
        ]),
    );
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x11);
    let mut dict = Dict::default();
    let currentdate = Date::from_ymd(1995, 6, 17).expect("static date");
    for order in 1..=n_orders {
        // The hash-derived order date matches gen_orders exactly.
        let order_date = order_date(cfg, order);
        let lines = rng.gen_range(1i64..=7);
        for line in 1..=lines {
            let quantity = rng.gen_range(1i64..=50);
            let partkey = rng.gen_range(1..=parts);
            let price_cents = 90_000 + (partkey % 200_001) / 10 + 100 * (partkey % 1000);
            let ext_cents = quantity * price_cents;
            let ship = order_date.add_days(rng.gen_range(1..=121));
            let commit = order_date.add_days(rng.gen_range(30..=90));
            let receipt = ship.add_days(rng.gen_range(1..=30));
            let (flag, status) = if ship <= currentdate {
                (if rng.gen_bool(0.5) { "R" } else { "A" }, "F")
            } else {
                ("N", "O")
            };
            b.push(Tuple::new(vec![
                Datum::Int(order),
                Datum::Int(partkey),
                Datum::Int(rng.gen_range(1..=suppliers)),
                Datum::Int(line),
                Datum::Decimal(Decimal::from_cents(quantity * 100)),
                Datum::Decimal(Decimal::from_cents(ext_cents)),
                Datum::Decimal(Decimal::from_mantissa(rng.gen_range(0i64..=10) as i128, 2)),
                Datum::Decimal(Decimal::from_mantissa(rng.gen_range(0i64..=8) as i128, 2)),
                dict.str(flag),
                dict.str(status),
                Datum::Date(ship),
                Datum::Date(commit),
                Datum::Date(receipt),
                dict.str(text::pick(&mut rng, &text::SHIP_INSTRUCT)),
                dict.str(text::pick(&mut rng, &text::SHIP_MODES)),
                Datum::Str(text::comment(&mut rng)),
            ]));
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_catalog_has_all_tables_and_indexes() {
        let c = generate_catalog(0.001, 42);
        for t in [
            "region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem",
        ] {
            assert!(c.table(t).is_ok(), "missing table {t}");
        }
        for i in ["orders_pkey", "part_pkey", "customer_pkey"] {
            assert!(c.index(i).is_ok(), "missing index {i}");
        }
        assert_eq!(c.table("region").unwrap().row_count(), 5);
        assert_eq!(c.table("nation").unwrap().row_count(), 25);
    }

    #[test]
    fn scale_controls_cardinalities() {
        let c = generate_catalog(0.002, 42);
        let orders = c.table("orders").unwrap().row_count();
        assert_eq!(orders, 3000);
        let li = c.table("lineitem").unwrap().row_count();
        // 1..=7 lineitems per order, expectation 4.
        assert!(li > orders * 2 && li < orders * 6, "lineitem {li}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_catalog(0.001, 7);
        let b = generate_catalog(0.001, 7);
        let (ta, tb) = (a.table("lineitem").unwrap(), b.table("lineitem").unwrap());
        assert_eq!(ta.row_count(), tb.row_count());
        for i in [0usize, 17, ta.row_count() - 1] {
            assert_eq!(
                format!("{}", ta.rows()[i]),
                format!("{}", tb.rows()[i]),
                "row {i} differs"
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_catalog(0.001, 7);
        let b = generate_catalog(0.001, 8);
        let (ta, tb) = (a.table("lineitem").unwrap(), b.table("lineitem").unwrap());
        let same = ta.row_count() == tb.row_count()
            && format!("{}", ta.rows()[0]) == format!("{}", tb.rows()[0]);
        assert!(!same, "seeds must change data");
    }

    #[test]
    fn lineitem_dates_are_consistent_with_orders() {
        let c = generate_catalog(0.001, 42);
        let orders = c.table("orders").unwrap();
        let li = c.table("lineitem").unwrap();
        // For each of the first 200 lineitems: shipdate within 121 days after
        // its order's date, receipt after ship.
        for row in li.rows().iter().take(200) {
            let okey = row.get(0).as_int().unwrap();
            let odate = orders.rows()[okey as usize - 1].get(4).as_date().unwrap();
            let ship = row.get(10).as_date().unwrap();
            let receipt = row.get(12).as_date().unwrap();
            assert!(ship > odate && ship.days() <= odate.days() + 121);
            assert!(receipt > ship);
        }
    }

    #[test]
    fn returnflag_follows_shipdate_rule() {
        let c = generate_catalog(0.001, 42);
        let li = c.table("lineitem").unwrap();
        let cut = Date::from_ymd(1995, 6, 17).unwrap();
        for row in li.rows().iter().take(500) {
            let ship = row.get(10).as_date().unwrap();
            let flag = row.get(8).as_str().unwrap().to_string();
            if ship <= cut {
                assert!(flag == "R" || flag == "A");
            } else {
                assert_eq!(flag, "N");
            }
        }
    }

    #[test]
    fn orderkeys_are_dense_and_indexed() {
        let c = generate_catalog(0.001, 42);
        let idx = c.index("orders_pkey").unwrap();
        let n = c.table("orders").unwrap().row_count();
        assert_eq!(idx.btree.len(), n);
        assert_eq!(idx.btree.lookup(1).len(), 1);
        assert_eq!(idx.btree.lookup(n as i64).len(), 1);
        assert!(idx.btree.lookup(n as i64 + 1).is_empty());
    }

    /// FNV-1a over the `Debug` rendering of every row: any change in a
    /// value, a type or the RNG draw order moves it.
    fn table_digest(c: &Catalog, table: &str) -> (usize, u64) {
        let t = c.table(table).unwrap();
        let h = t.rows().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, row| {
            format!("{row:?}")
                .bytes()
                .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
        });
        (t.row_count(), h)
    }

    #[test]
    fn catalog_digests_are_pinned() {
        // Recorded before the string dictionaries were introduced: sharing
        // payloads must not move a single value or RNG draw.
        let c = generate_catalog(0.002, 7);
        for (table, rows, digest) in [
            ("region", 5, 0xaa42_3f7e_6b0a_9149),
            ("nation", 25, 0x66cd_afc3_c480_df84),
            ("supplier", 20, 0x5053_0706_7db0_6581),
            ("customer", 300, 0xc295_cdf1_d4de_73d8),
            ("part", 400, 0xd001_4d16_3f30_cfcb),
            ("partsupp", 1600, 0x091c_7e7f_221f_8f5d),
            ("orders", 3000, 0x6f39_fba0_c664_3393),
            ("lineitem", 11940, 0xa468_da75_e06c_c65e),
        ] {
            assert_eq!(table_digest(&c, table), (rows, digest), "{table} moved");
        }
    }

    #[test]
    fn low_cardinality_strings_share_one_allocation() {
        let c = generate_catalog(0.002, 7);
        // Every row holding a value must point at that value's first
        // allocation; returns the number of distinct values.
        let shared = |table: &str, col: usize| {
            let t = c.table(table).unwrap();
            let mut first: std::collections::HashMap<&str, &Arc<str>> = Default::default();
            for row in t.rows().iter() {
                let Datum::Str(s) = row.get(col) else {
                    panic!("{table}.{col} is not a string")
                };
                let f = *first.entry(s).or_insert(s);
                assert!(Arc::ptr_eq(f, s), "{table}.{col} {s:?} not shared");
            }
            first.len()
        };
        assert_eq!(shared("lineitem", 14), text::SHIP_MODES.len());
        assert_eq!(shared("orders", 5), text::ORDER_PRIORITIES.len());
        for (table, col) in [
            ("lineitem", 8),
            ("lineitem", 9),
            ("lineitem", 13),
            ("orders", 2),
            ("customer", 4),
            ("part", 2),
            ("part", 3),
            ("part", 5),
        ] {
            shared(table, col);
        }
    }

    #[test]
    fn discounts_and_taxes_in_spec_range() {
        let c = generate_catalog(0.001, 42);
        let li = c.table("lineitem").unwrap();
        for row in li.rows().iter().take(500) {
            let disc = row.get(6).as_decimal().unwrap().to_f64();
            let tax = row.get(7).as_decimal().unwrap().to_f64();
            assert!((0.0..=0.10).contains(&disc));
            assert!((0.0..=0.08).contains(&tax));
        }
    }
}
