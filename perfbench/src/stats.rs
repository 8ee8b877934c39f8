//! Percentiles, metric maps and the hand-written JSON the benchmark prints.

use std::collections::BTreeMap;

/// Named metric values collected during a run.
pub type Metrics = BTreeMap<String, f64>;

/// Nearest-rank percentile (`p` in `0..=1`) of `values`; 0 when empty.
/// Infinite entries (requests that never ran) sort last.
pub fn pct(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    pct(values, 0.5)
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named sample series; a series' key is the metric it reports.
#[derive(Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    /// Append one sample to series `key`.
    pub fn push(&mut self, key: impl Into<String>, v: f64) {
        self.0.entry(key.into()).or_default().push(v);
    }

    /// Median of series `key` (0 when empty).
    pub fn median(&self, key: &str) -> f64 {
        self.0.get(key).map_or(0.0, |v| median(v))
    }

    /// Mean of series `key` (0 when empty).
    pub fn mean(&self, key: &str) -> f64 {
        self.0.get(key).map_or(0.0, |v| mean(v))
    }

    /// The median of every series, under its key.
    pub fn medians_into(&self, m: &mut Metrics) {
        for (k, v) in &self.0 {
            m.insert(k.clone(), median(v));
        }
    }
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number; non-finite values (which JSON cannot carry) become 0
/// so one bad figure cannot make the whole line unparseable.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Build `{"name": {"value": v, "unit": "u"}, ...}` in `names` order.
pub fn metrics_json(names: &[(String, &'static str)], values: &Metrics) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(pct(&v, 0.5), 50.0);
        assert_eq!(pct(&v, 0.9), 90.0);
        assert_eq!(pct(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(pct(&[1.0, f64::INFINITY], 1.0), f64::INFINITY);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(1.5), "1.5");
    }
}
