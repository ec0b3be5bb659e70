//! Prometheus / OpenMetrics text exposition for a [`Registry`].
//!
//! Two pieces:
//!
//! * [`OpenMetricsSnapshot`] — a consistent freeze of every instrument in
//!   a registry (full histogram buckets included, captured under a single
//!   lock each so concurrent writers can never tear a histogram), and
//!   [`OpenMetricsSnapshot::render`] turning it into the Prometheus text
//!   format: `# TYPE`/`# HELP` metadata, `_total`-suffixed counter
//!   samples, cumulative `_bucket{le="..."}` + `_sum` + `_count` histogram
//!   samples and a closing `# EOF`. Rendering is deterministic — families
//!   and label sets emit in sorted order — so identical snapshots render
//!   byte-identically (CI diffs and dedup caches can compare text).
//! * [`parse`] — the inverse: a small parser from exposition text back to
//!   a [`Scrape`] of families and samples, used by `roads-inspect health`
//!   to pretty-print cluster state from a scrape file and by tests to
//!   round-trip randomized snapshots.
//!
//! ## Label convention
//!
//! Registry instrument names are flat strings; labeled series encode
//! their labels in the name with [`labeled`]:
//! `runtime.fault_events{kind="kill"}`. The renderer splits the base name
//! from the label block, sanitizes the base into a metric name
//! (`[a-zA-Z0-9_:]`, dots become underscores) and groups every labeling
//! of a base into one metric family.

use std::collections::BTreeMap;

use crate::registry::{HistogramSnapshot, Registry};

/// Build a labeled registry instrument name: `base{k="v",...}` with label
/// keys sorted and values escaped, so the same label set always produces
/// the same name regardless of argument order.
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let body: Vec<String> = sorted
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, escape_label(v)))
        .collect();
    format!("{}{{{}}}", base, body.join(","))
}

/// Escape a label value per the exposition format: backslash, double
/// quote and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape a `# HELP` text: backslash and newline only (quotes are legal).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Sanitize a registry base name into a legal metric name: dots (the
/// registry's namespace separator) and any other illegal character become
/// underscores; a leading digit gains an underscore prefix.
fn sanitize_name(base: &str) -> String {
    let mut out = String::with_capacity(base.len());
    for c in base.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() || out.as_bytes()[0].is_ascii_digit() {
        out.insert(0, '_');
    }
    out
}

/// Split a registry instrument name into its base and parsed labels
/// (inverse of [`labeled`]). Names without a label block return an empty
/// label list; a malformed block is treated as part of the base name.
fn split_labeled(name: &str) -> (String, Vec<(String, String)>) {
    let Some(brace) = name.find('{') else {
        return (name.to_string(), Vec::new());
    };
    if !name.ends_with('}') {
        return (name.to_string(), Vec::new());
    }
    match parse_label_block(&name[brace + 1..name.len() - 1]) {
        Some(labels) => (name[..brace].to_string(), labels),
        None => (name.to_string(), Vec::new()),
    }
}

/// Parse `k="v",k2="v2"` (escapes allowed in values). `None` on syntax
/// errors.
fn parse_label_block(body: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find("=\"")?;
        let key = rest[..eq].trim().to_string();
        if key.is_empty() {
            return None;
        }
        rest = &rest[eq + 2..];
        // Find the closing unescaped quote.
        let mut end = None;
        let bytes = rest.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => {
                    end = Some(i);
                    break;
                }
                _ => i += 1,
            }
        }
        let end = end?;
        labels.push((key, unescape(&rest[..end])));
        rest = &rest[end + 1..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return None;
        }
    }
    Some(labels)
}

/// Render a label set (already sorted) with an optional extra `le` label
/// appended; empty sets render as no block at all.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_name(k), escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Deterministic float formatting: integral values (within exact-integer
/// f64 range) print without a fraction, everything else via Rust's
/// shortest round-trip formatting. Mirrors `json::write_num`.
fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        // The exposition format has no NaN samples we'd ever want to emit;
        // clamp silently rather than poison the scrape.
        return "0".to_string();
    }
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// A consistent freeze of every instrument in a [`Registry`], with full
/// histogram buckets; input to [`OpenMetricsSnapshot::render`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OpenMetricsSnapshot {
    /// Counter values by registry name (may carry a `{label}` block).
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by registry name.
    pub gauges: BTreeMap<String, i64>,
    /// Full histogram snapshots by registry name (empty ones included).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// One metric family being rendered: kind, then samples grouped by the
/// label block they carried in the registry name.
struct Family {
    kind: &'static str,
    /// `(sorted labels, rendered sample lines)` — kept per label set so
    /// histogram bucket runs stay contiguous.
    samples: Vec<String>,
}

impl OpenMetricsSnapshot {
    /// Freeze `registry` now. Each histogram is captured under a single
    /// lock acquisition, so no individual histogram can be torn; see the
    /// crate's concurrency tests.
    pub fn from_registry(registry: &Registry) -> Self {
        OpenMetricsSnapshot {
            counters: registry.counter_values(),
            gauges: registry.gauge_values(),
            histograms: registry.histogram_snapshots(),
        }
    }

    /// Render to exposition text, with no `# HELP` lines. Families sort by
    /// name, samples by label set; identical snapshots render
    /// byte-identically.
    pub fn render(&self) -> String {
        let mut families: BTreeMap<String, Family> = BTreeMap::new();
        for (name, &v) in &self.counters {
            let (base, labels) = split_labeled(name);
            let fam = family_name(&mut families, &base, "counter");
            let line = format!("{}_total{} {}", fam, render_labels(&labels, None), v);
            families
                .get_mut(&fam)
                .expect("just created")
                .samples
                .push(line);
        }
        for (name, &v) in &self.gauges {
            let (base, labels) = split_labeled(name);
            let fam = family_name(&mut families, &base, "gauge");
            let line = format!("{}{} {}", fam, render_labels(&labels, None), v);
            families
                .get_mut(&fam)
                .expect("just created")
                .samples
                .push(line);
        }
        for (name, h) in &self.histograms {
            let (base, labels) = split_labeled(name);
            let fam = family_name(&mut families, &base, "histogram");
            let f = families.get_mut(&fam).expect("just created");
            let mut cum = 0u64;
            for &(le, c) in &h.buckets {
                cum += c;
                f.samples.push(format!(
                    "{}_bucket{} {}",
                    fam,
                    render_labels(&labels, Some(&fmt_num(le))),
                    cum
                ));
            }
            f.samples.push(format!(
                "{}_bucket{} {}",
                fam,
                render_labels(&labels, Some("+Inf")),
                h.count
            ));
            f.samples.push(format!(
                "{}_sum{} {}",
                fam,
                render_labels(&labels, None),
                fmt_num(h.sum)
            ));
            f.samples.push(format!(
                "{}_count{} {}",
                fam,
                render_labels(&labels, None),
                h.count
            ));
        }

        let mut out = String::new();
        for (name, fam) in &families {
            out.push_str(&format!("# TYPE {} {}\n", name, fam.kind));
            for line in &fam.samples {
                out.push_str(line);
                out.push('\n');
            }
        }
        out.push_str("# EOF\n");
        out
    }
}

/// Resolve the family for `base`/`kind`, creating it on first use. Two
/// registry bases that sanitize to the same family name but carry
/// different kinds get a deterministic `_<kind>` suffix on the
/// later-inserted one (counters insert first, then gauges, histograms).
fn family_name(families: &mut BTreeMap<String, Family>, base: &str, kind: &'static str) -> String {
    let mut name = sanitize_name(base);
    if let Some(existing) = families.get(&name) {
        if existing.kind != kind {
            name = format!("{name}_{kind}");
        }
    }
    families.entry(name.clone()).or_insert(Family {
        kind,
        samples: Vec::new(),
    });
    name
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapeSample {
    /// Full sample name (`family`, `family_total`, `family_bucket`, ...).
    pub name: String,
    /// Labels in document order.
    pub labels: Vec<(String, String)>,
    /// Parsed value.
    pub value: f64,
    /// The value's original text, kept so re-rendering is byte-exact.
    pub raw: String,
}

impl ScrapeSample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One parsed metric family: `# TYPE` kind, optional `# HELP`, samples in
/// document order.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapeFamily {
    /// Family name from the `# TYPE` line.
    pub name: String,
    /// `counter`, `gauge`, `histogram`, ...
    pub kind: String,
    /// `# HELP` text if present.
    pub help: Option<String>,
    /// Sample lines belonging to this family.
    pub samples: Vec<ScrapeSample>,
}

impl ScrapeFamily {
    /// First sample whose labels include every `(key, value)` in `want`
    /// and whose name ends with `suffix` (empty `suffix` matches any).
    pub fn sample_with(&self, suffix: &str, want: &[(&str, &str)]) -> Option<&ScrapeSample> {
        self.samples
            .iter()
            .find(|s| s.name.ends_with(suffix) && want.iter().all(|(k, v)| s.label(k) == Some(*v)))
    }
}

/// A parsed exposition document. Families keep document order (which for
/// rendered snapshots is sorted order), so [`Scrape::render`] of a parsed
/// document reproduces the original text byte-for-byte.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scrape {
    /// Families in document order.
    pub families: Vec<ScrapeFamily>,
}

impl Scrape {
    /// The family named `name`, if present.
    pub fn family(&self, name: &str) -> Option<&ScrapeFamily> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Re-render to exposition text. Parsing then rendering a document
    /// produced by [`OpenMetricsSnapshot::render`] is the identity.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            if let Some(h) = &f.help {
                out.push_str(&format!("# HELP {} {}\n", f.name, escape_help(h)));
            }
            out.push_str(&format!("# TYPE {} {}\n", f.name, f.kind));
            for s in &f.samples {
                out.push_str(&format!(
                    "{}{} {}\n",
                    s.name,
                    render_scrape_labels(&s.labels),
                    s.raw
                ));
            }
        }
        out.push_str("# EOF\n");
        out
    }
}

fn render_scrape_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, escape_label(v)))
        .collect();
    format!("{{{}}}", parts.join(","))
}

/// Parse exposition text into a [`Scrape`]. Strict about what this
/// crate's renderer emits (one metadata line per family, samples after
/// their `# TYPE`), line/column-free error strings on anything else.
pub fn parse(text: &str) -> Result<Scrape, String> {
    let mut scrape = Scrape::default();
    let mut pending_help: Option<(String, String)> = None;
    let mut saw_eof = false;
    for (ln, line) in text.lines().enumerate() {
        let err = |msg: &str| format!("line {}: {} ({:?})", ln + 1, msg, line);
        if line.is_empty() {
            continue;
        }
        if saw_eof {
            return Err(err("content after # EOF"));
        }
        if line == "# EOF" {
            saw_eof = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').ok_or_else(|| err("malformed HELP"))?;
            if pending_help.is_some() {
                return Err(err("HELP without following TYPE"));
            }
            pending_help = Some((name.to_string(), unescape(help)));
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').ok_or_else(|| err("malformed TYPE"))?;
            if scrape.families.iter().any(|f| f.name == name) {
                return Err(err("duplicate family"));
            }
            let help = match pending_help.take() {
                Some((hname, htext)) if hname == name => Some(htext),
                Some(_) => return Err(err("HELP names a different family")),
                None => None,
            };
            scrape.families.push(ScrapeFamily {
                name: name.to_string(),
                kind: kind.to_string(),
                help,
                samples: Vec::new(),
            });
            continue;
        }
        if line.starts_with('#') {
            // Other comments are legal exposition; skip them.
            continue;
        }
        // A sample line: name[{labels}] value
        let (name_and_labels, value_text) = line
            .rsplit_once(' ')
            .ok_or_else(|| err("sample missing value"))?;
        let (name, labels) = if let Some(brace) = name_and_labels.find('{') {
            if !name_and_labels.ends_with('}') {
                return Err(err("unterminated label block"));
            }
            let body = &name_and_labels[brace + 1..name_and_labels.len() - 1];
            let labels = parse_label_block(body).ok_or_else(|| err("malformed labels"))?;
            (&name_and_labels[..brace], labels)
        } else {
            (name_and_labels, Vec::new())
        };
        let value: f64 = if value_text == "+Inf" {
            f64::INFINITY
        } else if value_text == "-Inf" {
            f64::NEG_INFINITY
        } else {
            value_text
                .parse()
                .map_err(|_| err("unparseable sample value"))?
        };
        let fam = scrape
            .families
            .iter_mut()
            .rev()
            .find(|f| name.starts_with(f.name.as_str()))
            .ok_or_else(|| err("sample before its # TYPE"))?;
        fam.samples.push(ScrapeSample {
            name: name.to_string(),
            labels,
            value,
            raw: value_text.to_string(),
        });
    }
    if !saw_eof {
        return Err("missing # EOF terminator".to_string());
    }
    Ok(scrape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn labeled_sorts_and_escapes() {
        assert_eq!(labeled("a.b", &[]), "a.b");
        assert_eq!(
            labeled("a.b", &[("z", "1"), ("a", "x\"y\\z\n")]),
            "a.b{a=\"x\\\"y\\\\z\\n\",z=\"1\"}"
        );
        // Order-independent.
        assert_eq!(
            labeled("m", &[("k", "v"), ("j", "w")]),
            labeled("m", &[("j", "w"), ("k", "v")])
        );
    }

    #[test]
    fn split_labeled_inverts_labeled() {
        let name = labeled("runtime.fault_events", &[("kind", "kill")]);
        let (base, labels) = split_labeled(&name);
        assert_eq!(base, "runtime.fault_events");
        assert_eq!(labels, vec![("kind".to_string(), "kill".to_string())]);
        let (base, labels) = split_labeled("plain.name");
        assert_eq!(base, "plain.name");
        assert!(labels.is_empty());
    }

    #[test]
    fn renders_counters_gauges_histograms() {
        let r = Registry::new();
        r.counter("roads.queries").add(3);
        r.counter(&labeled("runtime.fault_events", &[("kind", "kill")]))
            .inc();
        r.gauge("runtime.inflight").set(-2);
        let h = r.histogram("runtime.dispatch_ms");
        h.record(0.5);
        h.record(3.0);
        let text = OpenMetricsSnapshot::from_registry(&r).render();
        assert!(!text.contains("# HELP"));
        assert!(text.contains("# TYPE roads_queries counter\n"));
        assert!(text.contains("roads_queries_total 3\n"));
        assert!(text.contains("# TYPE runtime_fault_events counter\n"));
        assert!(text.contains("runtime_fault_events_total{kind=\"kill\"} 1\n"));
        assert!(text.contains("# TYPE runtime_inflight gauge\n"));
        assert!(text.contains("runtime_inflight -2\n"));
        assert!(text.contains("# TYPE runtime_dispatch_ms histogram\n"));
        assert!(text.contains("runtime_dispatch_ms_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("runtime_dispatch_ms_sum 3.5\n"));
        assert!(text.contains("runtime_dispatch_ms_count 2\n"));
        assert!(text.ends_with("# EOF\n"));
        // Cumulative buckets: the two finite-bucket lines are increasing.
        let bucket_counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("runtime_dispatch_ms_bucket{le=\"") && !l.contains("+Inf"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(bucket_counts, vec![1, 2]);
    }

    #[test]
    fn empty_histogram_still_exposes_family() {
        let r = Registry::new();
        r.histogram("runtime.dispatch_ms");
        let text = OpenMetricsSnapshot::from_registry(&r).render();
        assert!(text.contains("# TYPE runtime_dispatch_ms histogram\n"));
        assert!(text.contains("runtime_dispatch_ms_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("runtime_dispatch_ms_count 0\n"));
    }

    #[test]
    fn render_is_deterministic() {
        let r = Registry::new();
        for i in 0..8 {
            r.counter(&labeled("c.many", &[("i", &i.to_string())]))
                .add(i);
            r.histogram("h.lat").record(i as f64 * 0.7);
        }
        r.gauge("g.depth").set(4);
        let snap = OpenMetricsSnapshot::from_registry(&r);
        assert_eq!(snap.render(), snap.render());
        assert_eq!(snap, OpenMetricsSnapshot::from_registry(&r));
    }

    #[test]
    fn parse_round_trips_render() {
        let r = Registry::new();
        r.counter("a.one").add(7);
        r.counter(&labeled("a.two", &[("mode", "entry"), ("s", "0")]))
            .add(9);
        r.gauge("b.depth").set(-3);
        let h = r.histogram("c.lat_ms");
        for v in [0.2, 1.5, 1.5, 80.0] {
            h.record(v);
        }
        // The snapshot writes no `# HELP`; a scraped one may carry it.
        let text = OpenMetricsSnapshot::from_registry(&r).render().replacen(
            "# TYPE a_one ",
            "# HELP a_one with \\\\ backslash\\nand newline\n# TYPE a_one ",
            1,
        );
        let scrape = parse(&text).expect("parses");
        assert_eq!(scrape.render(), text, "parse→render is the identity");
        let fam = scrape.family("a_two").unwrap();
        assert_eq!(fam.kind, "counter");
        let s = fam.sample_with("_total", &[("mode", "entry")]).unwrap();
        assert_eq!(s.value, 9.0);
        assert_eq!(
            scrape.family("a_one").unwrap().help.as_deref(),
            Some("with \\ backslash\nand newline")
        );
        assert_eq!(
            scrape
                .family("c_lat_ms")
                .unwrap()
                .sample_with("_count", &[])
                .unwrap()
                .value,
            4.0
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("no eof terminator\n").is_err());
        assert!(parse("orphan_sample 1\n# EOF\n").is_err());
        assert!(parse("# TYPE a counter\na_total nonnumeric\n# EOF\n").is_err());
        assert!(parse("# TYPE a counter\n# TYPE a counter\n# EOF\n").is_err());
        assert!(parse("# EOF\ntrailing 1\n").is_err());
        assert!(parse("# TYPE a counter\na_total{k=\"v} 1\n# EOF\n").is_err());
    }

    #[test]
    fn kind_collisions_disambiguate() {
        let r = Registry::new();
        r.counter("x.n").inc();
        r.gauge("x_n").set(5);
        let text = OpenMetricsSnapshot::from_registry(&r).render();
        assert!(text.contains("# TYPE x_n counter\n"));
        assert!(text.contains("# TYPE x_n_gauge gauge\n"));
        parse(&text).expect("still parseable");
    }
}
