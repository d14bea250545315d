//! `BENCHMARK.json`: the workloads and metrics the benchmark reports, and
//! each end-to-end metric's regression bound.

use serde::Value;

/// One metric's declaration.
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer ones).
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the program reads.
pub struct BenchSpec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn get<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    match v {
        Value::Map(fields) => fields
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
            .ok_or(format!("BENCHMARK.json: missing `{key}`")),
        _ => Err(format!("BENCHMARK.json: `{key}` is not in an object")),
    }
}

fn string(v: &Value, key: &str) -> Result<String, String> {
    match get(v, key)? {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!("BENCHMARK.json: `{key}` is not a string")),
    }
}

fn list<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], String> {
    match get(v, key)? {
        Value::Seq(items) => Ok(items),
        _ => Err(format!("BENCHMARK.json: `{key}` is not a list")),
    }
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(x) => Some(x),
        Value::U64(x) => Some(x as f64),
        Value::I64(x) => Some(x as f64),
        _ => None,
    }
}

fn metrics(root: &Value, key: &str, bounded: bool) -> Result<Vec<Metric>, String> {
    list(root, key)?
        .iter()
        .map(|m| {
            let better = string(m, "better")?;
            let bound = if bounded {
                number(get(m, "bound")?).ok_or("BENCHMARK.json: `bound` is not a number")?
            } else {
                0.0
            };
            Ok(Metric {
                name: string(m, "name")?,
                unit: string(m, "unit")?,
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

impl BenchSpec {
    /// Reads `BENCHMARK.json` next to the benchmark's directory.
    ///
    /// # Errors
    /// If the file is missing or malformed.
    pub fn load() -> Result<Self, String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let root = serde_json::parse_value(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(BenchSpec {
            workloads: list(&root, "workloads")?
                .iter()
                .map(|w| string(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics(&root, "end_to_end", true)?,
            per_layer: metrics(&root, "per_layer", false)?,
        })
    }
}
