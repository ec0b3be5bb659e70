//! Mixed-type record generation for the prototype benchmark.
//!
//! The paper's testbed stores "200K resource records at each server, and
//! each record has 120 attributes, including integer, double, timestamp,
//! string, categorical types", populated from "both synthesized and real
//! data collected from the Distributed System S platform". This module
//! synthesizes records with that column mix over a configurable schema so
//! the prototype runtime exercises every index type of the record store.

use crate::dist::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roads_records::{AttrDef, OwnerId, Record, RecordId, Schema, Value};

/// Column-type mix of a mixed schema. Counts are per record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixedSchemaConfig {
    /// Double-precision columns (metrics: rates, loads, capacities).
    pub doubles: usize,
    /// Integer columns (counts, ports, priorities).
    pub integers: usize,
    /// Timestamp columns (created/updated/observed times).
    pub timestamps: usize,
    /// Categorical columns (types, codecs, regions).
    pub categoricals: usize,
    /// Free-text columns (names, descriptions).
    pub texts: usize,
}

impl MixedSchemaConfig {
    /// The paper's 120-attribute mix, split in proportions typical for a
    /// resource catalog: 60 doubles, 24 ints, 12 timestamps, 18
    /// categoricals, 6 texts.
    pub fn paper_120() -> Self {
        MixedSchemaConfig {
            doubles: 60,
            integers: 24,
            timestamps: 12,
            categoricals: 18,
            texts: 6,
        }
    }

    /// A small mix for tests.
    pub fn small() -> Self {
        MixedSchemaConfig {
            doubles: 4,
            integers: 2,
            timestamps: 1,
            categoricals: 2,
            texts: 1,
        }
    }

    /// Total columns.
    pub fn arity(&self) -> usize {
        self.doubles + self.integers + self.timestamps + self.categoricals + self.texts
    }
}

/// Build the mixed schema: `d0..`, `i0..`, `t0..`, `c0..`, `s0..` columns.
pub fn mixed_schema(cfg: &MixedSchemaConfig) -> Schema {
    let mut defs = Vec::with_capacity(cfg.arity());
    for i in 0..cfg.doubles {
        defs.push(AttrDef::numeric(format!("d{i}"), 0.0, 1.0));
    }
    for i in 0..cfg.integers {
        defs.push(AttrDef::integer(format!("i{i}"), 0, 1_000_000));
    }
    for i in 0..cfg.timestamps {
        // One year of millisecond timestamps starting 2008-01-01.
        defs.push(AttrDef::timestamp(
            format!("t{i}"),
            1_199_145_600_000,
            1_230_768_000_000,
        ));
    }
    for i in 0..cfg.categoricals {
        defs.push(AttrDef::categorical(format!("c{i}")));
    }
    for i in 0..cfg.texts {
        defs.push(AttrDef::text(format!("s{i}")));
    }
    Schema::new(defs).expect("generated names are unique")
}

/// Vocabularies for categorical columns: column `c{i}` draws from
/// `vocab_size` values `v{i}_{k}`, Zipf-ish skewed toward low `k`.
fn categorical_value(col: usize, vocab_size: usize, rng: &mut StdRng) -> String {
    // Squaring a uniform skews toward 0 — a cheap Zipf stand-in.
    let u: f64 = rng.gen();
    let k = ((u * u) * vocab_size as f64) as usize;
    format!("v{col}_{k}")
}

/// Generate `records_per_owner` mixed records for each of `owners` owners.
///
/// Per-owner heterogeneity mirrors [`crate::gen::generate_node_records`]:
/// each owner's numeric columns cluster in owner-specific windows, its
/// categorical columns favour an owner-specific slice of the vocabulary —
/// federated organizations have *different* resources, which is what lets
/// summaries prune.
pub fn generate_mixed_records(
    cfg: &MixedSchemaConfig,
    owners: usize,
    records_per_owner: usize,
    vocab_size: usize,
    seed: u64,
) -> Vec<Vec<Record>> {
    // Values are built positionally in the same order `mixed_schema`
    // declares its columns; the tests cross-validate every record against
    // the schema's declared types and domains.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_id = 0u64;
    (0..owners)
        .map(|owner| {
            // Owner-specific numeric windows.
            let windows: Vec<Distribution> = (0..cfg.doubles)
                .map(|_| Distribution::Range {
                    start: rng.gen_range(0.0..0.7),
                    len: 0.3,
                })
                .collect();
            let int_base: i64 = rng.gen_range(0..900_000);
            let ts_base: i64 = rng.gen_range(1_199_145_600_000..1_228_000_000_000);
            let cat_offset = rng.gen_range(0..vocab_size.max(1));
            (0..records_per_owner)
                .map(|_| {
                    let mut values = Vec::with_capacity(cfg.arity());
                    for w in &windows {
                        values.push(Value::Float(w.sample(&mut rng)));
                    }
                    for _ in 0..cfg.integers {
                        values.push(Value::Int(
                            (int_base + rng.gen_range(0..100_000)).min(1_000_000),
                        ));
                    }
                    for _ in 0..cfg.timestamps {
                        values.push(Value::Timestamp(
                            (ts_base + rng.gen_range(0..2_500_000_000i64)).min(1_230_768_000_000),
                        ));
                    }
                    for c in 0..cfg.categoricals {
                        let mut v = categorical_value(c, vocab_size, &mut rng);
                        // Shift into the owner's favoured slice half the time.
                        if rng.gen_bool(0.5) {
                            v = format!("v{c}_{}", cat_offset % vocab_size.max(1));
                        }
                        values.push(Value::Cat(v.into()));
                    }
                    for s in 0..cfg.texts {
                        values.push(Value::Text(
                            format!("resource-{owner}-{s}-{}", rng.gen::<u16>()).into(),
                        ));
                    }
                    let id = RecordId(next_id);
                    next_id += 1;
                    Record::new_unchecked(id, OwnerId(owner as u32), values)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use roads_records::AttrType;

    #[test]
    fn paper_mix_has_120_columns() {
        let cfg = MixedSchemaConfig::paper_120();
        assert_eq!(cfg.arity(), 120);
        let schema = mixed_schema(&cfg);
        assert_eq!(schema.len(), 120);
    }

    #[test]
    fn schema_types_match_mix() {
        let cfg = MixedSchemaConfig::small();
        let schema = mixed_schema(&cfg);
        let count = |ty: AttrType| schema.iter().filter(|(_, d)| d.ty == ty).count();
        assert_eq!(count(AttrType::Numeric), 4);
        assert_eq!(count(AttrType::Integer), 2);
        assert_eq!(count(AttrType::Timestamp), 1);
        assert_eq!(count(AttrType::Categorical), 2);
        assert_eq!(count(AttrType::Text), 1);
    }

    #[test]
    fn records_validate_against_schema() {
        let cfg = MixedSchemaConfig::small();
        let schema = mixed_schema(&cfg);
        let sets = generate_mixed_records(&cfg, 4, 25, 16, 9);
        assert_eq!(sets.len(), 4);
        for (owner, set) in sets.iter().enumerate() {
            assert_eq!(set.len(), 25);
            for r in set {
                assert_eq!(r.owner.0, owner as u32);
                assert_eq!(r.arity(), schema.len());
                for (attr, def) in schema.iter() {
                    assert!(
                        def.ty.accepts(r.get(attr)),
                        "column {} holds wrong type",
                        def.name
                    );
                    if def.ty.is_ordered() && def.ty != AttrType::Text {
                        let v = r.get_f64(attr).unwrap();
                        assert!(v >= def.lo && v <= def.hi, "{} out of domain", def.name);
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let cfg = MixedSchemaConfig::small();
        let a = generate_mixed_records(&cfg, 2, 10, 8, 1);
        let b = generate_mixed_records(&cfg, 2, 10, 8, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn categorical_vocab_bounded() {
        let cfg = MixedSchemaConfig::small();
        let sets = generate_mixed_records(&cfg, 2, 100, 8, 2);
        let schema = mixed_schema(&cfg);
        let c0 = schema.id("c0").unwrap();
        for r in sets.iter().flatten() {
            let v = r.get(c0).as_str().unwrap();
            assert!(v.starts_with("v0_"));
            let k: usize = v[3..].parse().unwrap();
            assert!(k < 8, "vocab index {k} out of range");
        }
    }
}
