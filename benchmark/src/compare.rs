//! `compare A.jsonl B.jsonl`: judges set B against baseline set A.
//!
//! A set is the lines `run --json FILE` appended, one per workload run.
//! For every (workload, end-to-end metric) it prints both medians and
//! quartiles and a verdict: `unresolved` when either set's quartile
//! spread (as a share of its median) is wider than the metric's bound,
//! else `REGRESSION` when B's median is worse than A's by more than the
//! bound, `better` when it is better by more, and `same` otherwise. More
//! failed ops, or a failed output check, in B is also a regression.
//! Traced lines add per-layer medians for information. Exits non-zero on
//! any regression.

use std::collections::BTreeMap;

use serde::Value;

use crate::spec::BenchSpec;
use crate::stats::quartiles;

/// One set's values: (workload, traced) → metric → samples.
#[derive(Default)]
struct Set {
    values: BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>,
    /// Per workload: attempted, failed, runs with a failed check.
    failures: BTreeMap<String, (u64, u64, u64)>,
}

fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match v {
        Value::Map(fields) => fields.iter().find_map(|(k, v)| (k == key).then_some(v)),
        _ => None,
    }
}

fn num(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(x) => Some(x),
        Value::U64(x) => Some(x as f64),
        Value::I64(x) => Some(x as f64),
        _ => None,
    }
}

fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut set = Set::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = || format!("{path}:{}: not a benchmark record", i + 1);
        let rec = serde_json::parse_value(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let Some(Value::Str(workload)) = field(&rec, "workload") else {
            return Err(bad());
        };
        let traced = matches!(field(&rec, "trace"), Some(Value::Bool(true)));
        let result = field(&rec, "result").ok_or_else(bad)?;
        let count = |k| field(result, k).and_then(num).unwrap_or(0.0) as u64;
        let correct = matches!(field(result, "correct"), Some(Value::Bool(true)));
        let f = set.failures.entry(workload.clone()).or_default();
        f.0 += count("attempted");
        f.1 += count("failed");
        f.2 += u64::from(!correct);
        let Some(Value::Map(metrics)) = field(result, "metrics") else {
            return Err(bad());
        };
        let slot = set.values.entry((workload.clone(), traced)).or_default();
        for (name, m) in metrics {
            if let Some(v) = field(m, "value").and_then(num) {
                slot.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

fn spread(q: &[f64; 3]) -> f64 {
    if q[1] == 0.0 {
        0.0
    } else {
        (q[2] - q[0]) / q[1].abs()
    }
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare BASELINE.jsonl CHANGE.jsonl".to_string());
    };
    let spec = BenchSpec::load()?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut regressions = 0;
    println!(
        "{:<12} {:<18} {:>13} {:>27} {:>13} {:>27} {:>8} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A q1..q3",
        "B median",
        "B q1..q3",
        "change",
        "spread",
        "bound"
    );
    for w in &spec.workloads {
        let key = (w.clone(), false);
        let (Some(av), Some(bv)) = (a.values.get(&key), b.values.get(&key)) else {
            println!("{w:<12} (no untraced runs in both sets)");
            continue;
        };
        for m in &spec.end_to_end {
            let (Some(xa), Some(xb)) = (av.get(&m.name), bv.get(&m.name)) else {
                println!("{w:<12} {:<18} missing", m.name);
                continue;
            };
            let (qa, qb) = (quartiles(xa), quartiles(xb));
            let change = if qa[1] == 0.0 {
                0.0
            } else {
                (qb[1] - qa[1]) / qa[1].abs()
            };
            let worse = if m.lower_is_better { change } else { -change };
            let wide = spread(&qa).max(spread(&qb));
            let verdict = if wide > m.bound {
                "unresolved"
            } else if worse > m.bound {
                regressions += 1;
                "REGRESSION"
            } else if -worse > m.bound {
                "better"
            } else {
                "same"
            };
            println!(
                "{w:<12} {:<18} {:>13.4} {:>13.4}..{:<13.4} {:>13.4} {:>13.4}..{:<13.4} {:>+7.1}% {:>6.1}% {:>5.0}%  {verdict}",
                m.name,
                qa[1],
                qa[0],
                qa[2],
                qb[1],
                qb[0],
                qb[2],
                change * 100.0,
                wide * 100.0,
                m.bound * 100.0
            );
        }
        let fa = a.failures.get(w).copied().unwrap_or_default();
        let fb = b.failures.get(w).copied().unwrap_or_default();
        let ratio = |f: (u64, u64, u64)| f.1 as f64 / f.0.max(1) as f64;
        let verdict = if ratio(fb) > ratio(fa) || fb.2 > 0 && fa.2 == 0 {
            regressions += 1;
            "REGRESSION"
        } else {
            "same"
        };
        println!(
            "{w:<12} {:<18} failed {}/{} ({} failed checks) vs {}/{} ({} failed checks)  {verdict}",
            "failed_ops", fa.1, fa.0, fa.2, fb.1, fb.0, fb.2
        );
    }
    for w in &spec.workloads {
        let key = (w.clone(), true);
        let (Some(av), Some(bv)) = (a.values.get(&key), b.values.get(&key)) else {
            continue;
        };
        for m in &spec.per_layer {
            if let (Some(xa), Some(xb)) = (av.get(&m.name), bv.get(&m.name)) {
                let (ma, mb) = (quartiles(xa)[1], quartiles(xb)[1]);
                let ratio = if ma == 0.0 { 0.0 } else { mb / ma };
                println!(
                    "{w:<12} {:<32} {ma:>14.4} {mb:>14.4} {ratio:>8.3}x {}  (per-layer, no bound)",
                    m.name, m.unit
                );
            }
        }
    }
    println!(
        "{}",
        if regressions == 0 {
            "no regression".to_string()
        } else {
            format!("{regressions} regression(s)")
        }
    );
    Ok(regressions == 0)
}
