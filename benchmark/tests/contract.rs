//! `BENCHMARK.json` and the binaries must name the same things.

use dewe_benchmark::spec;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the root of the repo")
}

/// The text of the array that follows `"key":` at the top level.
fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json.find(&format!("\"{key}\":")).unwrap_or_else(|| panic!("no {key}"));
    let open = start + json[start..].find('[').expect("an array");
    let close = open + json[open..].find(']').expect("the array ends");
    &json[open..=close]
}

/// Every `"field": "value"` of a section, in order.
fn strings(section: &str, field: &str) -> Vec<String> {
    let marker = format!("\"{field}\":");
    section
        .match_indices(&marker)
        .map(|(at, _)| {
            let rest = &section[at + marker.len()..];
            let open = rest.find('"').expect("a string value") + 1;
            let close = open + rest[open..].find('"').expect("the string ends");
            rest[open..close].to_string()
        })
        .collect()
}

#[test]
fn workloads_are_the_ones_the_driver_runs() {
    let json = benchmark_json();
    assert_eq!(strings(section(&json, "workloads"), "name"), spec::WORKLOADS);
    for why in strings(section(&json, "workloads"), "why") {
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'), "{why}");
    }
}

#[test]
fn metrics_are_the_ones_the_binaries_emit() {
    let json = benchmark_json();
    for (key, emitted) in
        [("end_to_end", &spec::END_TO_END[..]), ("per_layer", &spec::PER_LAYER[..])]
    {
        let listed = section(&json, key);
        let names = strings(listed, "name");
        let units = strings(listed, "unit");
        let want: Vec<(&str, &str)> = emitted.to_vec();
        let got: Vec<(&str, &str)> =
            names.iter().map(String::as_str).zip(units.iter().map(String::as_str)).collect();
        assert_eq!(got, want, "{key}");
        for better in strings(listed, "better") {
            assert!(better == "lower" || better == "higher", "{key}: {better}");
        }
    }
}

#[test]
fn setup_time_is_an_end_to_end_metric_with_the_widest_bound() {
    let json = benchmark_json();
    let e2e = section(&json, "end_to_end");
    assert_eq!(strings(e2e, "name")[0], "setup_s");
    let bounds: Vec<f64> = e2e
        .match_indices("\"bound\":")
        .map(|(at, _)| {
            let rest = e2e[at + 8..].trim_start();
            let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.')).unwrap_or(rest.len());
            rest[..end].parse().expect("a number")
        })
        .collect();
    assert_eq!(bounds.len(), spec::END_TO_END.len());
    assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25 && b <= bounds[0]), "{bounds:?}");
}

#[test]
fn command_and_paths_stay_inside_the_benchmark_directory() {
    let json = benchmark_json();
    assert!(section(&json, "paths").contains("\"benchmark\""));
    assert!(section(&json, "command").contains("\"benchmark/run.sh\""));
}
