//! Metric names, units and the two output forms: one `name value unit`
//! line per metric for people, and the one-line JSON result the driver
//! of `BENCHMARK.json` reads.

use crate::json::{self, Json};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees. Every workload reports all of them
/// (see `bench/README.md` for what each means on each workload).
pub const END_TO_END: [MetricDef; 8] = [
    m("setup_s", "s", "lower"),
    m("place_s", "s", "lower"),
    m("clv_recomputes", "count", "lower"),
    m("tracked_peak_mib", "MiB", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
    m("req_p50_ms", "ms", "lower"),
    m("req_p95_ms", "ms", "lower"),
    m("req_per_s", "1/s", "higher"),
];

/// Single layers, from the traced pass. A metric a workload does not
/// exercise reads 0.
pub const PER_LAYER: [MetricDef; 41] = [
    m("tree.parse_ms", "ms", "lower"),
    m("seq.fasta_parse_ms", "ms", "lower"),
    m("seq.compress_ms", "ms", "lower"),
    m("seq.patterns", "count", "lower"),
    m("models.build_ms", "ms", "lower"),
    m("engine.ctx_build_ms", "ms", "lower"),
    m("placement.batch_encode_ms", "ms", "lower"),
    m("kernel.update_partials_ns", "ns", "lower"),
    m("kernel.edge_loglik_ns", "ns", "lower"),
    m("kernel.update_gflops", "gflop/s", "higher"),
    m("kernel.update_flops_per_byte", "flop/B", "higher"),
    m("core.slots", "count", "lower"),
    m("core.slot_hits", "count", "higher"),
    m("core.slot_misses", "count", "lower"),
    m("core.slot_evictions", "count", "lower"),
    m("core.hit_ratio", "ratio", "higher"),
    m("core.acquire_miss_ns", "ns", "lower"),
    m("engine.sweep_ms", "ms", "lower"),
    m("engine.sweep_updates", "count", "lower"),
    m("placement.lookup_build_ms", "ms", "lower"),
    m("placement.prescore_ms", "ms", "lower"),
    m("placement.thorough_ms", "ms", "lower"),
    m("placement.n_prescored", "count", "lower"),
    m("placement.n_thorough", "count", "lower"),
    m("placement.prescore_ns_per_pair", "ns", "lower"),
    m("placement.thorough_us_per_pair", "us", "lower"),
    m("placement.jplace_ms", "ms", "lower"),
    m("placement.jplace_bytes", "B", "lower"),
    m("placement.degrade_events", "count", "lower"),
    m("serve.build_ms", "ms", "lower"),
    m("serve.proto_parse_us", "us", "lower"),
    m("serve.parse_queries_us", "us", "lower"),
    m("serve.engine_ms", "ms", "lower"),
    m("serve.overhead_ms", "ms", "lower"),
    m("serve.run_p99_ms", "ms", "lower"),
    m("serve.shed", "count", "lower"),
    m("serve.drain_ms", "ms", "lower"),
    m("harness.reps", "count", "higher"),
    m("harness.place_med_s", "s", "lower"),
    m("harness.noise_ratio", "ratio", "lower"),
    m("harness.trace_overhead_frac", "ratio", "lower"),
];

/// The character set `BENCHMARK.json` allows in a name.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Measured values by metric name, in insertion order.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// What one workload run hands back.
pub struct Outcome {
    pub correct: bool,
    /// Queries placed (batch) or requests completed (serve) while
    /// measuring.
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

/// `name value unit` lines for every metric of `defs` that was measured.
pub fn print_table(defs: &[MetricDef], values: &Values) {
    for d in defs {
        if let Some(v) = values.get(d.name) {
            println!("{:<32} {:>16.6} {:<8} ({} is better)", d.name, v, d.unit, d.better);
        }
    }
}

/// The driver's result line: exactly the metrics of `defs`. A metric the
/// run did not produce, or a value that is not a finite number, is an
/// error — never a silent zero.
pub fn result_line(defs: &[MetricDef], out: &Outcome) -> Result<String, String> {
    let mut fields = Vec::with_capacity(defs.len());
    for d in defs {
        let v =
            out.values.get(d.name).ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is {v}", d.name));
        }
        fields.push(format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}

/// The committed contract, compiled in so the harness and the file
/// cannot disagree about a bound or the run length.
fn benchmark_json() -> Json {
    json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is valid JSON")
}

/// `run_seconds` of `BENCHMARK.json`: how long one workload measures
/// unless `--seconds` says otherwise.
pub fn run_seconds() -> f64 {
    benchmark_json().get("run_seconds").and_then(Json::as_f64).expect("run_seconds")
}

/// `(metric, bound)` for every end-to-end metric of `BENCHMARK.json`.
pub fn bounds() -> Vec<(String, f64)> {
    benchmark_json()
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists end_to_end metrics")
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str).expect("metric name");
            (name.to_string(), e.get("bound").and_then(Json::as_f64).expect("metric bound"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn every_emitted_name_is_well_formed_and_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(valid_name(d.name), "{:?}", d.name);
            assert!(all[..i].iter().all(|o| o.name != d.name), "{} twice", d.name);
            assert!(d.unit.len() <= 16 && !d.unit.is_empty());
            assert!(d.unit.bytes().all(
                |b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')
            ));
            assert!(matches!(d.better, "lower" | "higher"));
        }
        for bad in ["", "a b", "-x", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| {
                let s = |k| e.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_harness_emits() {
        let doc = benchmark_json();
        let want = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter().map(|d| (d.name.into(), d.unit.into(), d.better.into())).collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), want(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), want(&PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k| w.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> =
            WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(workloads, ours);
        for (name, bound) in bounds() {
            assert!(bound > 0.0 && bound <= 0.25, "{name}: {bound}");
        }
        assert_eq!(doc.get("paths").and_then(Json::as_arr).unwrap().len(), 1);
    }

    #[test]
    fn the_result_line_is_one_json_object_with_the_contract_keys() {
        let mut values = Values::default();
        for (i, d) in END_TO_END.iter().enumerate() {
            values.set(d.name, 1.5 + i as f64);
        }
        let out = Outcome { correct: true, attempted: 10, failed: 0, values };
        let line = result_line(&END_TO_END, &out).unwrap();
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        let Json::Obj(fields) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let place = doc.get("metrics").unwrap().get("place_s").unwrap();
        assert_eq!(place.get("value").unwrap().as_f64(), Some(2.5));
        assert_eq!(place.get("unit").unwrap().as_str(), Some("s"));
        // A metric that was never measured must not be papered over.
        assert!(result_line(&PER_LAYER, &out).is_err());
        let mut nan = Values::default();
        for d in END_TO_END.iter() {
            nan.set(d.name, f64::NAN);
        }
        let out = Outcome { correct: true, attempted: 1, failed: 0, values: nan };
        assert!(result_line(&END_TO_END, &out).is_err());
    }
}
