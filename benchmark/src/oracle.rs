//! The central oracle: what a query must return over the data it sees,
//! computed by brute force over the harness's own copy of the records and
//! cross-checked against `CentralRepository`.

use roads_central::CentralRepository;
use roads_core::{RecordDelta, ServerId};
use roads_netsim::DelaySpace;
use roads_records::{Query, Record, RecordId};

/// Order-independent digest of a result set: count, Σ and ⊕ of `RecordId`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checksum {
    pub count: u64,
    pub sum: u64,
    pub xor: u64,
}

impl Checksum {
    #[inline]
    pub fn add(&mut self, id: RecordId) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(id.0);
        self.xor ^= id.0;
    }

    pub fn of<'a>(records: impl IntoIterator<Item = &'a Record>) -> Checksum {
        let mut c = Checksum::default();
        for r in records {
            c.add(r.id);
        }
        c
    }
}

/// The expected answer to one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub checksum: Checksum,
    /// Servers holding at least one match, ascending.
    pub servers: Vec<ServerId>,
}

/// Brute-force answer over `records` (per server).
pub fn expected(records: &[Vec<Record>], query: &Query) -> Expected {
    let mut checksum = Checksum::default();
    let mut servers = Vec::new();
    for (s, recs) in records.iter().enumerate() {
        let before = checksum.count;
        for r in recs.iter().filter(|r| query.matches(r)) {
            checksum.add(r.id);
        }
        if checksum.count > before {
            servers.push(ServerId(s as u32));
        }
    }
    Expected { checksum, servers }
}

/// [`expected`] for every query, fanned over `threads` (preparation is
/// untimed, but it counts against the run's wall-clock budget).
pub fn expected_all(
    records: &[Vec<Record>],
    queries: &[(Query, ServerId)],
    threads: usize,
) -> Vec<Expected> {
    let chunk = queries.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|(q, _)| expected(records, q))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle worker panicked"))
            .collect()
    })
}

/// `CentralRepository::execute_query` must count what brute force counts;
/// returns the number of queries on which it does not.
pub fn central_disagreements(
    central: &CentralRepository,
    delays: &DelaySpace,
    queries: &[(Query, ServerId)],
    expected: &[Expected],
    step: usize,
) -> u64 {
    queries
        .iter()
        .zip(expected)
        .step_by(step.max(1))
        .filter(|((q, entry), e)| {
            central
                .execute_query(delays, q, entry.index())
                .matching_records as u64
                != e.checksum.count
        })
        .count() as u64
}

/// Mirror a delta onto the harness's own copy of the data (every change
/// the benchmark generates is an in-place update).
pub fn apply_delta(truth: &mut [Vec<Record>], per_server: usize, delta: &RecordDelta) {
    for (server, change) in delta.changes() {
        let record = change
            .record()
            .expect("benchmark deltas are updates")
            .clone();
        let slot = record.id.0 as usize - server.index() * per_server;
        truth[server.index()][slot] = record;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roads_records::{OwnerId, Value};

    fn rec(id: u64) -> Record {
        Record::new_unchecked(RecordId(id), OwnerId(0), vec![Value::Float(0.5)])
    }

    #[test]
    fn checksum_ignores_order_and_sees_a_missing_or_swapped_record() {
        let all = [rec(3), rec(9), rec(12)];
        let shuffled = [rec(12), rec(3), rec(9)];
        assert_eq!(Checksum::of(&all), Checksum::of(&shuffled));
        assert_ne!(Checksum::of(&all), Checksum::of(&all[..2]));
        // Same count and same sum (3 + 9 + 12 = 2 + 10 + 12), other ids.
        assert_ne!(
            Checksum::of(&all),
            Checksum::of(&[rec(2), rec(10), rec(12)])
        );
    }
}
