//! An outside check of a jplace document: every expected query is
//! there, in order, with at least one well-formed placement, and its
//! likelihood weight ratios do not sum past 1.

use crate::json::{self, Json};

const FIELDS: [&str; 5] =
    ["edge_num", "likelihood", "like_weight_ratio", "distal_length", "pendant_length"];
const LWR: usize = 2;

/// The program prints six decimals, so each printed ratio can sit up to
/// 0.5e-6 above its true value; the true sum is held to 1 + 1e-9.
fn lwr_sum_limit(n_placements: usize) -> f64 {
    1.0 + 1e-9 + 0.5e-6 * n_placements as f64
}

/// Checks `doc` against the query names the run was given.
pub fn validate(doc: &str, expected: &[String]) -> Result<(), String> {
    let root = json::parse(doc).map_err(|e| format!("jplace is not a JSON document: {e}"))?;
    if root.get("version").and_then(Json::as_f64) != Some(3.0) {
        return Err("jplace version is not 3".to_string());
    }
    match root.get("tree").and_then(Json::as_str) {
        Some(t) if t.ends_with(';') && t.contains('{') => {}
        _ => return Err("jplace tree string is missing or carries no edge numbers".to_string()),
    }
    let fields: Vec<&str> = root
        .get("fields")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_str).collect())
        .unwrap_or_default();
    if fields != FIELDS {
        return Err(format!("jplace fields are {fields:?}"));
    }
    if root.get("metadata").and_then(|m| m.get("completed")) != Some(&Json::Bool(true)) {
        return Err("jplace is not marked completed".to_string());
    }
    let placements = root.get("placements").and_then(Json::as_arr).ok_or("no placements array")?;
    if placements.len() != expected.len() {
        return Err(format!(
            "{} placement records for {} queries",
            placements.len(),
            expected.len()
        ));
    }
    for (rec, name) in placements.iter().zip(expected) {
        let names = rec.get("n").and_then(Json::as_arr).unwrap_or_default();
        if names.len() != 1 || names[0].as_str() != Some(name) {
            return Err(format!("expected the record of query {name:?}, found {names:?}"));
        }
        let rows = rec.get("p").and_then(Json::as_arr).unwrap_or_default();
        if rows.is_empty() {
            return Err(format!("query {name:?} has no placement"));
        }
        let mut lwr_sum = 0.0;
        for row in rows {
            let vals: Vec<f64> = row
                .as_arr()
                .map(|r| r.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default();
            if vals.len() != FIELDS.len() || vals.iter().any(|v| !v.is_finite()) {
                return Err(format!("query {name:?} has a malformed placement row"));
            }
            if !(0.0..=1.0).contains(&vals[LWR]) {
                return Err(format!("query {name:?} has like_weight_ratio {}", vals[LWR]));
            }
            lwr_sum += vals[LWR];
        }
        if lwr_sum > lwr_sum_limit(rows.len()) {
            return Err(format!("query {name:?}: like_weight_ratio sums to {lwr_sum}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(records: &str) -> String {
        format!(
            "{{\n  \"version\": 3,\n  \"tree\": \"(A:0.1{{0}},B:0.2{{1}},C:0.3{{2}});\",\n  \
             \"fields\": [\"edge_num\", \"likelihood\", \"like_weight_ratio\", \
             \"distal_length\", \"pendant_length\"],\n  \"placements\": [\n{records}\n  ],\n  \
             \"metadata\": {{\"software\": \"phyloplace\", \"completed\": true}}\n}}\n"
        )
    }

    fn names(n: &[&str]) -> Vec<String> {
        n.iter().map(|s| s.to_string()).collect()
    }

    const Q1: &str =
        r#"{"p": [[0, -10.5, 0.75, 0.01, 0.02], [1, -11.6, 0.25, 0.03, 0.04]], "n": ["q1"]}"#;
    const Q2: &str = r#"{"p": [[2, -9.0, 1.000000, 0.01, 0.02]], "n": ["q2"]}"#;

    #[test]
    fn accepts_a_complete_document() {
        validate(&doc(&format!("{Q1},\n{Q2}")), &names(&["q1", "q2"])).unwrap();
    }

    #[test]
    fn rejects_truncation_a_missing_query_and_an_lwr_sum_above_one() {
        let good = doc(&format!("{Q1},\n{Q2}"));
        let expect = names(&["q1", "q2"]);
        assert!(validate(&good[..good.len() - 20], &expect).is_err(), "truncated");
        assert!(validate(&doc(Q1), &expect).is_err(), "missing query");
        assert!(validate(&doc(&format!("{Q2},\n{Q1}")), &expect).is_err(), "wrong order");
        let heavy = Q1.replace("0.25", "0.2501");
        assert!(validate(&doc(&format!("{heavy},\n{Q2}")), &expect).is_err(), "LWR sum > 1");
        let empty = r#"{"p": [], "n": ["q1"]}"#;
        assert!(validate(&doc(&format!("{empty},\n{Q2}")), &expect).is_err(), "no placement");
        let partial = good.replace("\"completed\": true", "\"completed\": false");
        assert!(validate(&partial, &expect).is_err(), "partial run");
    }

    #[test]
    fn print_rounding_alone_does_not_trip_the_lwr_check() {
        // Three ratios of 1/3 print as 0.333333 each; 2/3 + 1/3 may
        // print as 0.666667 + 0.333333 = 1.000000, or a hair above.
        let r = r#"{"p": [[0, -1, 0.666667, 0, 0], [1, -2, 0.333334, 0, 0]], "n": ["q1"]}"#;
        validate(&doc(r), &names(&["q1"])).unwrap();
    }
}
