//! `BENCHMARK.json` and the catalogue list the same metrics, units and
//! workloads in the same order.

use ffw_perfbench::catalogue::{of_mode, Mode, CATALOGUE};
use ffw_perfbench::WORKLOADS;
use ffw_serve::Json;

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_units(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let b = benchmark();
    for (key, mode) in [
        ("end_to_end", Mode::EndToEnd),
        ("per_layer", Mode::PerLayer),
    ] {
        let listed = names_units(b.get(key).expect(key));
        let catalogued: Vec<(String, String)> = of_mode(mode)
            .map(|e| (e.name.to_string(), e.unit.to_string()))
            .collect();
        assert_eq!(listed, catalogued, "{key}");
    }
    let workloads: Vec<&str> = b
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn catalogue_names_are_unique_and_end_to_end_includes_setup() {
    let mut names: Vec<&str> = CATALOGUE.iter().map(|e| e.name).collect();
    let n = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), n);
    assert!(of_mode(Mode::EndToEnd).any(|e| e.name == "setup_s" && e.unit == "s"));
}
