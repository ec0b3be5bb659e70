//! Multi-dimensional conjunctive range queries.
//!
//! The paper's clients "submit multi-dimensional range queries to precisely
//! specify their interests" (§II); a query is a conjunction such as
//! `type=camera AND rate>150Kbps AND encoding=MPEG2` (§III-B). Each predicate
//! constrains one attribute; a record matches when every predicate holds.

use crate::attr::{AttrId, Schema};
use crate::record::Record;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Unique query identifier (assigned by the issuing client).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// One predicate over a single attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// `lo <= value <= hi` over the numeric view of an ordered attribute.
    Range {
        /// Constrained attribute.
        attr: AttrId,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// Exact equality (categorical/text, or an exact numeric point).
    Eq {
        /// Constrained attribute.
        attr: AttrId,
        /// Required value.
        value: Value,
    },
    /// Membership in an explicit set of categorical values.
    OneOf {
        /// Constrained attribute.
        attr: AttrId,
        /// Acceptable values.
        values: Vec<String>,
    },
}

impl Predicate {
    /// The attribute this predicate constrains.
    pub fn attr(&self) -> AttrId {
        match self {
            Predicate::Range { attr, .. }
            | Predicate::Eq { attr, .. }
            | Predicate::OneOf { attr, .. } => *attr,
        }
    }

    /// Evaluate against a record. A query is not built against a schema,
    /// so its attribute may lie outside the record's: that matches nothing.
    pub fn matches(&self, record: &Record) -> bool {
        let Some(value) = record.values().get(self.attr().index()) else {
            return false;
        };
        match self {
            Predicate::Range { lo, hi, .. } => value.as_f64().is_some_and(|v| *lo <= v && v <= *hi),
            Predicate::Eq { value: wanted, .. } => value == wanted,
            Predicate::OneOf { values, .. } => value
                .as_str()
                .is_some_and(|s| values.iter().any(|v| v == s)),
        }
    }

    /// Fraction of the attribute's declared domain this predicate selects,
    /// assuming a uniform value distribution. Used by SWORD to size ring
    /// segments and by selectivity estimators. Non-range predicates report a
    /// nominal point selectivity of 0.
    pub fn domain_fraction(&self, schema: &Schema) -> f64 {
        match self {
            Predicate::Range { attr, lo, hi } => {
                let def = schema.def(*attr);
                let width = def.hi - def.lo;
                if width <= 0.0 {
                    return 0.0;
                }
                let clipped = (hi.min(def.hi) - lo.max(def.lo)).max(0.0);
                clipped / width
            }
            Predicate::Eq { .. } | Predicate::OneOf { .. } => 0.0,
        }
    }
}

/// Conjunction of predicates: a record matches when all predicates hold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Query identifier.
    pub id: QueryId,
    /// Conjunctive predicates, at most one per attribute.
    predicates: Vec<Predicate>,
}

impl Query {
    /// Build from a predicate list. Predicates are kept verbatim as
    /// conjuncts — multiple predicates on the same attribute all must hold
    /// (an implicit intersection at evaluation time; no normalization is
    /// performed).
    pub fn new(id: QueryId, predicates: Vec<Predicate>) -> Self {
        Query { id, predicates }
    }

    /// Predicates in declaration order.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Number of queried dimensions (the paper's `q`).
    pub fn dimensionality(&self) -> usize {
        self.predicates.len()
    }

    /// True when every predicate matches the record.
    pub fn matches(&self, record: &Record) -> bool {
        self.predicates.iter().all(|p| p.matches(record))
    }

    /// Ids of all constrained attributes.
    pub fn attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.predicates.iter().map(|p| p.attr())
    }

    /// Estimated selectivity under independent uniform attributes: product
    /// of per-dimension domain fractions (0 for point predicates).
    pub fn uniform_selectivity(&self, schema: &Schema) -> f64 {
        self.predicates
            .iter()
            .map(|p| p.domain_fraction(schema))
            .product()
    }
}

/// Fluent query construction resolving attribute names via the schema.
#[derive(Debug)]
pub struct QueryBuilder<'a> {
    schema: &'a Schema,
    id: QueryId,
    predicates: Vec<Predicate>,
}

impl<'a> QueryBuilder<'a> {
    /// Start a query against `schema`.
    pub fn new(schema: &'a Schema, id: QueryId) -> Self {
        QueryBuilder {
            schema,
            id,
            predicates: Vec::new(),
        }
    }

    /// Add `lo <= name <= hi`. Panics on unknown attribute names: queries
    /// are authored against the shared schema, so a bad name is a bug.
    pub fn range(mut self, name: &str, lo: f64, hi: f64) -> Self {
        let attr = self
            .schema
            .id(name)
            .unwrap_or_else(|| panic!("unknown attribute {name:?}"));
        self.predicates.push(Predicate::Range { attr, lo, hi });
        self
    }

    /// Add `name > lo` (strict), clipped to the attribute's domain upper
    /// bound. Implemented as an inclusive range starting just above `lo`,
    /// so a value exactly equal to `lo` does not match.
    pub fn gt(self, name: &str, lo: f64) -> Self {
        let hi = self
            .schema
            .id(name)
            .map(|a| self.schema.def(a).hi)
            .unwrap_or(f64::INFINITY);
        self.range(name, lo.next_up(), hi)
    }

    /// Add `name = value` for categorical/text attributes.
    pub fn eq(mut self, name: &str, value: impl Into<Value>) -> Self {
        let attr = self
            .schema
            .id(name)
            .unwrap_or_else(|| panic!("unknown attribute {name:?}"));
        self.predicates.push(Predicate::Eq {
            attr,
            value: value.into(),
        });
        self
    }

    /// Add `name IN (values…)`.
    pub fn one_of(mut self, name: &str, values: &[&str]) -> Self {
        let attr = self
            .schema
            .id(name)
            .unwrap_or_else(|| panic!("unknown attribute {name:?}"));
        self.predicates.push(Predicate::OneOf {
            attr,
            values: values.iter().map(|s| s.to_string()).collect(),
        });
        self
    }

    /// Finish the query.
    pub fn build(self) -> Query {
        Query::new(self.id, self.predicates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrDef;
    use crate::record::{OwnerId, RecordBuilder, RecordId};

    fn schema() -> Schema {
        Schema::new(vec![
            AttrDef::categorical("type"),
            AttrDef::categorical("encoding"),
            AttrDef::numeric("rate", 0.0, 1000.0),
        ])
        .unwrap()
    }

    fn camera(rate: f64) -> (Schema, Record) {
        let s = schema();
        let r = RecordBuilder::new(&s, RecordId(1), OwnerId(0))
            .set("type", "camera")
            .set("encoding", "MPEG2")
            .set("rate", rate)
            .build()
            .unwrap();
        (s, r)
    }

    #[test]
    fn paper_example_query() {
        // type=camera AND rate>150Kbps AND encoding=MPEG2
        let (s, r) = camera(200.0);
        let q = QueryBuilder::new(&s, QueryId(1))
            .eq("type", "camera")
            .gt("rate", 150.0)
            .eq("encoding", "MPEG2")
            .build();
        assert!(q.matches(&r));
        assert_eq!(q.dimensionality(), 3);
    }

    #[test]
    fn range_excludes_below() {
        let (s, r) = camera(100.0);
        let q = QueryBuilder::new(&s, QueryId(1)).gt("rate", 150.0).build();
        assert!(!q.matches(&r));
    }

    #[test]
    fn eq_mismatch() {
        let (s, r) = camera(200.0);
        let q = QueryBuilder::new(&s, QueryId(1))
            .eq("encoding", "H264")
            .build();
        assert!(!q.matches(&r));
    }

    #[test]
    fn one_of_membership() {
        let (s, r) = camera(200.0);
        let q = QueryBuilder::new(&s, QueryId(1))
            .one_of("encoding", &["H264", "MPEG2"])
            .build();
        assert!(q.matches(&r));
        let q2 = QueryBuilder::new(&s, QueryId(2))
            .one_of("encoding", &["H264", "VP8"])
            .build();
        assert!(!q2.matches(&r));
    }

    #[test]
    fn empty_query_matches_everything() {
        let (_, r) = camera(1.0);
        let q = Query::new(QueryId(9), vec![]);
        assert!(q.matches(&r));
        assert_eq!(q.dimensionality(), 0);
    }

    #[test]
    fn range_predicate_on_categorical_is_false() {
        let (s, r) = camera(1.0);
        let q = Query::new(
            QueryId(3),
            vec![Predicate::Range {
                attr: s.id("type").unwrap(),
                lo: 0.0,
                hi: 1.0,
            }],
        );
        assert!(!q.matches(&r));
    }

    #[test]
    fn predicate_on_an_attribute_the_record_lacks_is_false() {
        // `Query::new` takes no schema: nothing keeps the id in range.
        let (_, r) = camera(1.0);
        let stray = AttrId(7);
        let predicates = vec![
            Predicate::Range {
                attr: stray,
                lo: f64::NEG_INFINITY,
                hi: f64::INFINITY,
            },
            Predicate::Eq {
                attr: stray,
                value: Value::Cat("camera".into()),
            },
            Predicate::OneOf {
                attr: stray,
                values: vec!["camera".to_owned()],
            },
        ];
        for p in &predicates {
            assert!(!p.matches(&r), "{p:?}");
        }
        assert!(!Query::new(QueryId(4), predicates).matches(&r));
    }

    #[test]
    fn uniform_selectivity_is_product() {
        let s = Schema::unit_numeric(4);
        let q = QueryBuilder::new(&s, QueryId(1))
            .range("x0", 0.0, 0.25)
            .range("x1", 0.5, 1.0)
            .build();
        let sel = q.uniform_selectivity(&s);
        assert!((sel - 0.125).abs() < 1e-12);
    }

    #[test]
    fn domain_fraction_clips_to_domain() {
        let s = Schema::unit_numeric(1);
        let p = Predicate::Range {
            attr: AttrId(0),
            lo: -1.0,
            hi: 0.5,
        };
        assert!((p.domain_fraction(&s) - 0.5).abs() < 1e-12);
    }
}
