//! `BENCHMARK.json` and the tables the binary reports from say the same
//! thing: the same names in the same order, the same units and bounds.

use roads_benchmark::metrics::{END_TO_END, PER_LAYER};
use roads_benchmark::workloads::SPECS;
use std::fs;
use std::path::Path;

/// Every string value of `"key": "value"` in `text`, in order.
fn strings(text: &str, key: &str) -> Vec<String> {
    let needle = format!("\"{key}\": \"");
    text.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &text[at + needle.len()..];
            rest[..rest.find('"').expect("closing quote")].to_owned()
        })
        .collect()
}

fn manifest() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn names_units_and_order_agree() {
    let text = manifest();
    let expected: Vec<&str> = SPECS
        .iter()
        .map(|s| s.name)
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(PER_LAYER.iter().map(|m| m.0))
        .collect();
    assert_eq!(strings(&text, "name"), expected);
    let units: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.1)
        .chain(PER_LAYER.iter().map(|m| m.1))
        .collect();
    assert_eq!(strings(&text, "unit"), units);
    let better: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.2)
        .chain(PER_LAYER.iter().map(|m| m.2))
        .collect();
    assert_eq!(strings(&text, "better"), better);
    let whys: Vec<&str> = SPECS.iter().map(|s| s.why).collect();
    assert_eq!(strings(&text, "why"), whys);
    assert!(whys.iter().all(|w| w.len() <= 200));
}

#[test]
fn bounds_agree_and_stay_within_the_contract() {
    let text = manifest();
    let bounds: Vec<f64> = text
        .match_indices("\"bound\": ")
        .map(|(at, _)| {
            let rest = &text[at + "\"bound\": ".len()..];
            let end = rest
                .find(|c: char| c != '.' && !c.is_ascii_digit())
                .expect("number ends");
            rest[..end].parse().expect("a bound")
        })
        .collect();
    let expected: Vec<f64> = END_TO_END.iter().map(|m| m.3).collect();
    assert_eq!(bounds, expected);
    assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25));
    assert_eq!(END_TO_END[0].0, "setup_s");
}
