//! Traffic accounting by class.
//!
//! The paper's overhead metrics are *per class*: "resource update overhead,
//! defined as the total number of bytes sent for updating the resource
//! records or summaries; and query message overhead, defined as the total
//! number of bytes sent for forwarding the queries" (§V). Every message the
//! engine delivers is tagged with a [`TrafficClass`] and accumulated here.

use std::fmt;

/// Category of a simulated message, matching the paper's metric split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Resource updates: record exports, summary exports, bottom-up
    /// aggregation, top-down replication.
    Update,
    /// Query forwarding and redirection.
    Query,
    /// Hierarchy/overlay upkeep: heartbeats, join probes, rejoin traffic.
    Maintenance,
    /// Returned resource records (result traffic, measured only by the
    /// prototype benchmark, Fig. 11).
    Data,
}

impl TrafficClass {
    /// All classes, for iteration in reports.
    pub const ALL: [TrafficClass; 4] = [
        TrafficClass::Update,
        TrafficClass::Query,
        TrafficClass::Maintenance,
        TrafficClass::Data,
    ];

    fn index(self) -> usize {
        match self {
            TrafficClass::Update => 0,
            TrafficClass::Query => 1,
            TrafficClass::Maintenance => 2,
            TrafficClass::Data => 3,
        }
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrafficClass::Update => "update",
            TrafficClass::Query => "query",
            TrafficClass::Maintenance => "maintenance",
            TrafficClass::Data => "data",
        };
        f.write_str(s)
    }
}

/// Byte and message counters per [`TrafficClass`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    bytes: [u64; 4],
    messages: [u64; 4],
}

impl TrafficStats {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sent message.
    pub fn record(&mut self, class: TrafficClass, bytes: usize) {
        let i = class.index();
        self.bytes[i] += bytes as u64;
        self.messages[i] += 1;
    }

    /// Total bytes in one class.
    pub fn bytes(&self, class: TrafficClass) -> u64 {
        self.bytes[class.index()]
    }

    /// Total messages in one class.
    pub fn messages(&self, class: TrafficClass) -> u64 {
        self.messages[class.index()]
    }

    /// Bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Messages across all classes.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    /// Reset all counters.
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

impl fmt::Display for TrafficStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for class in TrafficClass::ALL {
            writeln!(
                f,
                "{class:<12} {:>12} bytes {:>9} msgs",
                self.bytes(class),
                self.messages(class)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read() {
        let mut s = TrafficStats::new();
        s.record(TrafficClass::Update, 100);
        s.record(TrafficClass::Update, 50);
        s.record(TrafficClass::Query, 10);
        assert_eq!(s.bytes(TrafficClass::Update), 150);
        assert_eq!(s.messages(TrafficClass::Update), 2);
        assert_eq!(s.bytes(TrafficClass::Query), 10);
        assert_eq!(s.total_bytes(), 160);
        assert_eq!(s.total_messages(), 3);
    }

    #[test]
    fn clear_zeroes() {
        let mut a = TrafficStats::new();
        a.record(TrafficClass::Query, 5);
        a.clear();
        assert_eq!(a.total_bytes(), 0);
    }

    #[test]
    fn display_contains_classes() {
        let s = TrafficStats::new();
        let out = s.to_string();
        for c in ["update", "query", "maintenance", "data"] {
            assert!(out.contains(c));
        }
    }
}
