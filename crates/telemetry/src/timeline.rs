//! Periodic timeline sampling of gauges over (simulated) time.
//!
//! A [`Timeline`] snapshots a set of named gauges — per-server queue
//! depth, load share, live summary count, overlay replica count — at a
//! configurable interval and stores each as a `(time, value)` series.
//! The driver decides the clock: the data-plane simulation samples at
//! simulated-time boundaries. [`Timeline::attach`] copies every series
//! into a [`FigureExport`] under `timeline.<gauge>` names so sampled runs
//! plot alongside the figure's primary series.

use crate::export::FigureExport;

/// One sampled gauge series in time order.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSeries {
    /// Gauge name (exported as `timeline.<name>`).
    pub name: String,
    /// `(time in ms, value)` samples in time order.
    pub points: Vec<(f64, f64)>,
}

/// A fixed-interval gauge sampler. See the module docs.
#[derive(Debug, Clone)]
pub struct Timeline {
    interval_ms: f64,
    next_due_ms: f64,
    series: Vec<TimelineSeries>,
}

impl Timeline {
    /// A timeline sampling every `interval_ms` (> 0) milliseconds,
    /// first sample due at time 0.
    pub fn new(interval_ms: f64) -> Self {
        assert!(
            interval_ms > 0.0 && interval_ms.is_finite(),
            "timeline interval must be positive, got {interval_ms}"
        );
        Timeline {
            interval_ms,
            next_due_ms: 0.0,
            series: Vec::new(),
        }
    }

    /// The sampling interval in milliseconds.
    pub fn interval_ms(&self) -> f64 {
        self.interval_ms
    }

    /// Whether a sample is due at `now_ms`.
    pub fn due(&self, now_ms: f64) -> bool {
        now_ms >= self.next_due_ms
    }

    /// If a sample is due at `now_ms`, record every `(name, value)` gauge
    /// and advance the schedule past `now_ms`; returns whether it sampled.
    pub fn sample<'a>(
        &mut self,
        now_ms: f64,
        gauges: impl IntoIterator<Item = (&'a str, f64)>,
    ) -> bool {
        if !self.due(now_ms) {
            return false;
        }
        for (name, value) in gauges {
            match self.series.iter_mut().find(|s| s.name == name) {
                Some(s) => s.points.push((now_ms, value)),
                None => self.series.push(TimelineSeries {
                    name: name.to_string(),
                    points: vec![(now_ms, value)],
                }),
            }
        }
        while self.next_due_ms <= now_ms {
            self.next_due_ms += self.interval_ms;
        }
        true
    }

    /// All sampled series, in recording order.
    pub fn series(&self) -> &[TimelineSeries] {
        &self.series
    }

    /// Copy every series into `fig` as `timeline.<name>`.
    pub fn attach(&self, fig: &mut FigureExport) {
        for s in &self.series {
            fig.push_series(format!("timeline.{}", s.name), &s.points);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_respect_interval() {
        let mut t = Timeline::new(10.0);
        assert!(t.sample(0.0, [("q", 1.0)]));
        assert!(!t.sample(5.0, [("q", 2.0)]));
        assert!(t.sample(10.0, [("q", 3.0)]));
        assert!(t.sample(35.0, [("q", 4.0)]));
        let series = t.series();
        let s = &series[0];
        assert_eq!(s.points, vec![(0.0, 1.0), (10.0, 3.0), (35.0, 4.0)]);
        // After sampling at 35, the next slot is the first multiple > 35.
        assert!(!t.due(39.9));
        assert!(t.due(40.0));
    }

    #[test]
    fn attach_prefixes_series_names() {
        let mut t = Timeline::new(1.0);
        t.sample(0.0, [("live_summaries", 8.0), ("replicas", 3.0)]);
        let mut fig = FigureExport::new("fig_t", "t");
        t.attach(&mut fig);
        let names: Vec<&str> = fig.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["timeline.live_summaries", "timeline.replicas"]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_panics() {
        Timeline::new(0.0);
    }
}
