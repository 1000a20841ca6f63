//! `BENCHMARK.json` at the repository root and the metric lists the runs
//! report must agree: same workloads, same names, same units.

use ips_obs::Json;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn pairs(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn listed(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_reported_metrics() {
    let doc = manifest();
    assert_eq!(pairs(&doc, "end_to_end"), listed(ips_perfbench::END_TO_END));
    assert_eq!(pairs(&doc, "per_layer"), listed(ips_perfbench::PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, ips_perfbench::WORKLOADS);
}
