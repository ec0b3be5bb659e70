//! Indexed in-memory record store — the DB2+JDBC stand-in.
//!
//! Each ROADS prototype server "maintains a DB2 database to emulate the
//! attached resource stores, and uses JDBC … to query this database for
//! specific resource records or to generate summaries". This store provides
//! the same two operations — exact multi-attribute search and summary
//! generation — over column indexes: per attribute, a numeric value column
//! with its rows sorted by value, and a hash index over string values.

use roads_records::{Predicate, Query, Record, Schema};
use roads_summary::{Summary, SummaryConfig};
use std::collections::HashMap;

/// The numeric view of one attribute across all rows.
#[derive(Debug, Clone)]
struct Column {
    /// `values[row]`; NaN where the record has no numeric value there (a
    /// string, or NaN itself), which fails every comparison just as
    /// `Predicate::matches` fails a record without a numeric view. Empty
    /// when no row has one.
    values: Vec<f64>,
    /// The rows with a numeric value, ascending by it (row order among
    /// equals).
    sorted: Vec<u32>,
}

impl Column {
    /// The run of `sorted` whose values lie in `[lo, hi]`; empty for an
    /// inverted or NaN-bounded interval.
    fn range(&self, lo: f64, hi: f64) -> &[u32] {
        if lo <= hi {
            let start = self
                .sorted
                .partition_point(|&r| self.values[r as usize] < lo);
            let end = self
                .sorted
                .partition_point(|&r| self.values[r as usize] <= hi);
            &self.sorted[start..end]
        } else {
            &[]
        }
    }
}

/// Column-indexed record store.
#[derive(Debug, Clone)]
pub struct RecordStore {
    schema: Schema,
    records: Vec<Record>,
    /// Per attribute: the numeric column.
    columns: Vec<Column>,
    /// Per attribute: string value → rows, ascending.
    cat_idx: Vec<HashMap<String, Vec<u32>>>,
}

/// The rows one predicate's index proposes.
enum Candidates<'a> {
    /// A run of one index, walked in place.
    Run(&'a [u32]),
    /// The per-value row lists of a `OneOf`; merged only if it drives.
    Lists(&'a HashMap<String, Vec<u32>>, &'a [String]),
}

impl RecordStore {
    /// Build the store and its indexes.
    pub fn new(schema: Schema, records: Vec<Record>) -> Self {
        let mut columns = vec![
            Column {
                values: vec![f64::NAN; records.len()],
                sorted: Vec::new(),
            };
            schema.len()
        ];
        let mut cat_idx: Vec<HashMap<String, Vec<u32>>> = vec![HashMap::new(); schema.len()];
        for (row, rec) in records.iter().enumerate() {
            for (attr, _) in schema.iter() {
                let v = rec.get(attr);
                if let Some(s) = v.as_str() {
                    cat_idx[attr.index()]
                        .entry(s.to_owned())
                        .or_default()
                        .push(row as u32);
                } else if let Some(f) = v.as_f64().filter(|f| !f.is_nan()) {
                    let col = &mut columns[attr.index()];
                    col.values[row] = f;
                    col.sorted.push(row as u32);
                }
            }
        }
        for Column { values, sorted } in &mut columns {
            if sorted.is_empty() {
                *values = Vec::new();
            }
            sorted.sort_by(|&a, &b| values[a as usize].total_cmp(&values[b as usize]));
        }
        RecordStore {
            schema,
            records,
            columns,
            cat_idx,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All stored records.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// A superset of the rows matching `pred`, from its attribute's index
    /// without allocating: exact for `Range`; for `Eq`/`OneOf` the rows
    /// holding an equal number or string, whose `Value` variant the record
    /// check still has to confirm.
    fn candidates<'a>(&'a self, pred: &'a Predicate) -> Candidates<'a> {
        match pred {
            Predicate::Range { attr, lo, hi } => {
                Candidates::Run(self.columns[attr.index()].range(*lo, *hi))
            }
            Predicate::Eq { attr, value } => Candidates::Run(match value.as_str() {
                Some(s) => self.cat_idx[attr.index()].get(s).map_or(&[], Vec::as_slice),
                None => {
                    let f = value.as_f64().expect("a value is a string or a number");
                    self.columns[attr.index()].range(f, f)
                }
            }),
            Predicate::OneOf { attr, values } => {
                Candidates::Lists(&self.cat_idx[attr.index()], values)
            }
        }
    }

    /// Exact search: walk the narrowest index run any predicate offers and
    /// check each of its rows against the other predicates — ranges on the
    /// value columns, `Eq`/`OneOf` on the record. Results come in the
    /// driving index's order. An empty query returns everything.
    pub fn search(&self, query: &Query) -> Vec<&Record> {
        let preds = query.predicates();
        let mut best: Option<(usize, usize, Candidates)> = None;
        for (i, p) in preds.iter().enumerate() {
            let cand = self.candidates(p);
            let width = match &cand {
                Candidates::Run(rows) => rows.len(),
                Candidates::Lists(idx, values) => {
                    values.iter().map(|v| idx.get(v).map_or(0, Vec::len)).sum()
                }
            };
            if width == 0 {
                return Vec::new();
            }
            if best.as_ref().is_none_or(|(w, ..)| width < *w) {
                best = Some((width, i, cand));
            }
        }
        let Some((_, driver, cand)) = best else {
            return self.records.iter().collect();
        };
        let merged: Vec<u32>;
        let rows = match cand {
            Candidates::Run(rows) => rows,
            Candidates::Lists(idx, values) => {
                let mut rows: Vec<u32> = values
                    .iter()
                    .flat_map(|v| idx.get(v).into_iter().flatten().copied())
                    .collect();
                rows.sort_unstable();
                rows.dedup();
                merged = rows;
                &merged
            }
        };
        rows.iter()
            .filter(|&&row| {
                preds.iter().enumerate().all(|(i, p)| match p {
                    // The driving run is exactly the rows in its range.
                    Predicate::Range { attr, lo, hi } => {
                        i == driver || {
                            let v = self.columns[attr.index()].values[row as usize];
                            *lo <= v && v <= *hi
                        }
                    }
                    _ => p.matches(&self.records[row as usize]),
                })
            })
            .map(|&row| &self.records[row as usize])
            .collect()
    }

    /// Number of matching records without materializing them.
    pub fn count(&self, query: &Query) -> usize {
        self.search(query).len()
    }

    /// Generate the store's summary (the owner-export operation).
    pub fn summary(&self, config: &SummaryConfig) -> Summary {
        Summary::from_records(&self.schema, config, &self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roads_records::{AttrDef, OwnerId, QueryBuilder, QueryId, RecordBuilder, RecordId};

    fn mixed_schema() -> Schema {
        Schema::new(vec![
            AttrDef::categorical("type"),
            AttrDef::numeric("rate", 0.0, 1000.0),
            AttrDef::integer("priority", 0, 10),
        ])
        .unwrap()
    }

    fn store(n: usize) -> RecordStore {
        let schema = mixed_schema();
        let records = (0..n)
            .map(|i| {
                RecordBuilder::new(&schema, RecordId(i as u64), OwnerId(0))
                    .set("type", if i % 3 == 0 { "camera" } else { "sensor" })
                    .set("rate", (i as f64 * 10.0) % 1000.0)
                    .set("priority", (i % 10) as i64)
                    .build()
                    .unwrap()
            })
            .collect();
        RecordStore::new(schema, records)
    }

    #[test]
    fn search_matches_full_scan() {
        let s = store(300);
        let q = QueryBuilder::new(s.schema(), QueryId(1))
            .eq("type", "camera")
            .range("rate", 100.0, 500.0)
            .build();
        let indexed: Vec<_> = s.search(&q).iter().map(|r| r.id).collect();
        let scan: Vec<_> = s
            .records()
            .iter()
            .filter(|r| q.matches(r))
            .map(|r| r.id)
            .collect();
        assert_eq!(indexed, scan);
        assert!(!indexed.is_empty());
    }

    #[test]
    fn integer_index_range() {
        let s = store(100);
        let q = QueryBuilder::new(s.schema(), QueryId(2))
            .range("priority", 8.0, 10.0)
            .build();
        let hits = s.search(&q);
        assert_eq!(hits.len(), 20, "priorities 8 and 9 of 0..10 cycling");
    }

    #[test]
    fn eq_on_missing_value_empty() {
        let s = store(50);
        let q = QueryBuilder::new(s.schema(), QueryId(3))
            .eq("type", "drone")
            .build();
        assert!(s.search(&q).is_empty());
    }

    #[test]
    fn one_of_index() {
        let s = store(90);
        let q = QueryBuilder::new(s.schema(), QueryId(4))
            .one_of("type", &["camera", "drone"])
            .build();
        assert_eq!(s.search(&q).len(), 30);
    }

    #[test]
    fn empty_query_returns_everything() {
        let s = store(10);
        let q = roads_records::Query::new(QueryId(5), vec![]);
        assert_eq!(s.search(&q).len(), 10);
    }

    #[test]
    fn summary_round_trip() {
        let s = store(60);
        let cfg = SummaryConfig::with_buckets(64);
        let sum = s.summary(&cfg);
        assert_eq!(sum.record_count(), 60);
        let q = QueryBuilder::new(s.schema(), QueryId(6))
            .eq("type", "camera")
            .build();
        assert!(sum.may_match(&q));
    }

    #[test]
    fn empty_store() {
        let s = RecordStore::new(mixed_schema(), Vec::new());
        assert!(s.is_empty());
        let q = QueryBuilder::new(s.schema(), QueryId(7))
            .eq("type", "x")
            .build();
        assert!(s.search(&q).is_empty());
    }

    #[test]
    fn inverted_range_is_empty() {
        // Regression: `start = #v < lo` exceeded `end = #v <= hi` and the
        // index slice panicked ("slice index starts at 50 but ends at 11").
        let s = store(100);
        let q = QueryBuilder::new(s.schema(), QueryId(8))
            .range("rate", 500.0, 100.0)
            .build();
        assert!(s.search(&q).is_empty());
        // Also when another predicate would drive the search.
        let q = QueryBuilder::new(s.schema(), QueryId(9))
            .eq("type", "camera")
            .range("rate", 500.0, 100.0)
            .build();
        assert!(s.search(&q).is_empty());
    }
}
